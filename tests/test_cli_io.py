import json
import os

import numpy as np
import pytest

from muskat import InterfaceState, SpectralGrid, run
from muskat.cli import main
from muskat import scenarios
from muskat.config import SCENARIOS, load_config, load_config_text, serialize_config
from muskat.errors import ConfigError, DegenerateParametrizationError, SnapshotError
from muskat.scenarios import run_scenario
from muskat.snapshots import load_snapshot, save_snapshot

from conftest import run_with_blas_threads


class TestConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = load_config_text("[run]\nscenario = flat\n")
        assert cfg.scenario == "flat"
        assert cfg.run.n_modes == 256
        assert cfg.run.galerkin_cutoff == 256 // 3
        assert cfg.run.direction == "forward"
        assert cfg.run.t_end == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_text("[run]\nscenario = flat\nwhatever = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config_text("[run]\nscenario = flat\n[extra]\nx = 1\n")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            load_config_text("[run]\nscenario = warp\n")

    def test_cutoff_above_dealias_margin_rejected(self):
        with pytest.raises(ConfigError, match="cutoff"):
            load_config_text(
                "[run]\nscenario = flat\nn_modes = 128\ngalerkin_cutoff = 60\n"
            )

    def test_generalized_rt_convention_gets_the_schedule(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\nscenario = flat\nrt_convention = generalized\nstop_on = rt_sign\n"
            "t_start = 2.5e-05\n"
        )
        cfg = load_config(str(path))
        assert cfg.run.schedule == cfg.schedule
        assert load_config_text("[run]\nscenario = flat\n").run.schedule is None
        # the flat state fails the generalized monitor at the initial time
        assert main(["flat", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_type_error_names_field(self):
        with pytest.raises(ConfigError, match=r"\[run\] dt"):
            load_config_text("[run]\nscenario = flat\ndt = soon\n")

    def test_round_trip(self, tmp_path):
        text = (
            "[run]\nscenario = turnover\nn_modes = 128\ndt = 0.00025\n"
            "[family]\nslope_amplitude = 0.97\n"
        )
        cfg = load_config_text(text)
        serialized = serialize_config(cfg)
        again = load_config_text(serialized)
        assert serialize_config(again) == serialized
        assert again.run.dt == cfg.run.dt
        assert again.family.slope_amplitude == 0.97

    def test_default_digests_are_pinned(self):
        # snapshots store the digest, so the rendered defaults must not move
        pinned = {
            "flat": "ef784c8f1a822214",
            "linear_decay": "84465b4cc37742aa",
            "turnover": "824554a71dae4e52",
            "perturbed_pair": "e0045f99267b010f",
            "schedule_check": "af031ed0a11c7c5e",
            "operator_suite": "271f27830972ab9c",
            "f_kappa_build": "0589f130e88821c1",
        }
        assert set(pinned) == set(SCENARIOS)
        for name, digest in pinned.items():
            assert load_config_text(f"[run]\nscenario = {name}\n").digest() == digest

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nscenario = flat\nn_modes = 64\n")
        cfg = load_config(str(path))
        assert cfg.run.n_modes == 64

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.ini"))


class TestSnapshots:
    def test_bit_exact_round_trip(self, tmp_path):
        grid = SpectralGrid(64)
        rng = np.random.default_rng(3)
        state = InterfaceState(
            rng.normal(size=64) + 1j * rng.normal(size=64),
            rng.normal(size=64) + 1j * rng.normal(size=64),
            time=0.1234567890123456,
        )
        path = str(tmp_path / "snap.json")
        save_snapshot(state, path, config_digest="abc")
        loaded = load_snapshot(path)
        assert loaded.time == state.time
        assert np.array_equal(loaded.p1, state.p1)
        assert np.array_equal(loaded.p2, state.p2)
        assert loaded.config_digest == "abc"

    def test_corrupt_header_raises_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))

    def test_version_mismatch(self, tmp_path):
        grid = SpectralGrid(64)
        path = str(tmp_path / "snap.json")
        save_snapshot(InterfaceState.flat(grid), path)
        payload = json.loads(open(path).read())
        payload["version"] = 99
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_truncated_file(self, tmp_path):
        grid = SpectralGrid(64)
        path = str(tmp_path / "snap.json")
        save_snapshot(InterfaceState.flat(grid), path)
        payload = json.loads(open(path).read())
        payload["p1"] = payload["p1"][:10]
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_resume_equals_unbroken_run(self, tmp_path):
        from muskat import RunConfig

        grid = SpectralGrid(64)
        initial = InterfaceState(
            np.zeros(64, dtype=complex), grid.to_spectral(0.02 * np.cos(grid.nodes))
        )
        full = run(initial, RunConfig(n_modes=64, dt=1e-3, t_end=0.04, record_every=10))
        half = run(initial, RunConfig(n_modes=64, dt=1e-3, t_end=0.02, record_every=10))
        path = str(tmp_path / "mid.json")
        save_snapshot(half.final_state(), path)
        middle = load_snapshot(path).state()
        resumed = run(
            middle,
            RunConfig(n_modes=64, dt=1e-3, t_start=middle.time, t_end=0.04, record_every=10),
        )
        a = full.final_state()
        b = resumed.final_state()
        assert np.array_equal(a.p1, b.p1)
        assert np.array_equal(a.p2, b.p2)


def read_csv(path):
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestScenarios:
    def test_flat_scenario_constant_diagnostics(self, tmp_path):
        cfg = load_config_text(
            "[run]\nscenario = flat\nn_modes = 64\ndt = 0.05\nt_end = 0.5\n"
        )
        status = run_scenario("flat", cfg, str(tmp_path))
        assert status == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header[:6] == [
            "time", "min_dz1", "chord_arc", "rt_min", "h4_norm", "analyticity_radius",
        ]
        assert len(rows) >= 2
        minima = {row[1] for row in rows}
        assert len(minima) == 1  # constant min_dz1 column
        for name in ("snapshot_initial.json", "snapshot_final.json",
                     "plot_data.json", "report.json"):
            assert (tmp_path / name).exists()

    def test_no_nan_rows_guard(self, tmp_path):
        # any NaN would abort the writer before producing a file
        from muskat.scenarios import _write_csv
        from muskat.errors import BlowupError

        with pytest.raises(BlowupError):
            _write_csv(str(tmp_path / "x.csv"), ("a",), [(float("nan"),)])
        assert not (tmp_path / "x.csv").exists()

    def test_linear_decay_reports_rate(self, tmp_path):
        cfg = load_config_text(
            "[run]\nscenario = linear_decay\nn_modes = 128\nrecord_every = 25\n"
        )
        status = run_scenario("linear_decay", cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["fitted_decay_rate"] - 2 * np.pi) <= 0.05 * 2 * np.pi
        header, _ = read_csv(tmp_path / "trajectory.csv")
        assert header[-1] == "fitted_decay_rate"

    def test_f_kappa_build_emits_deviation(self, tmp_path):
        cfg = load_config_text("[run]\nscenario = f_kappa_build\nn_modes = 256\n")
        status = run_scenario("f_kappa_build", cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["max_coefficient_deviation"] <= 1e-10
        header, rows = read_csv(tmp_path / "coefficients.csv")
        assert header == ["k", "cosine_coefficient", "closed_form", "abs_deviation"]
        assert len(rows) == 64

    def test_schedule_check_reports_margins(self, tmp_path):
        cfg = load_config_text(
            "[run]\nscenario = schedule_check\n[schedule]\na = 10\ntau = 0.005\n"
        )
        status = run_scenario("schedule_check", cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_nonnegative"] is True

    def test_operator_suite_reports_small_errors(self, tmp_path):
        cfg = load_config_text("[run]\nscenario = operator_suite\n")
        status = run_scenario("operator_suite", cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["lambda_multiplier_max_error"] < 1e-8
        assert report["lambda_equals_hilbert_derivative_max_error"] < 1e-10
        assert max(report["pv_cot_max_abs"].values()) < 1e-8
        assert report["constant_height_reduction_max_error"] < 1e-8
        assert report["quadratic_form_relative_error"] < 1e-6

    def test_turnover_scenario_detects_crossing(self, tmp_path):
        cfg = load_config_text(
            "[run]\nscenario = turnover\nn_modes = 128\nt_end = 0.02\nrecord_every = 4\n"
        )
        status = run_scenario("turnover", cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["turnover_detected"] is True
        assert report["family"]["slope_amplitude"] == 0.98
        plot = json.loads((tmp_path / "plot_data.json").read_text())
        assert len(plot["curves"]) >= 2

    def test_perturbed_pair_report_band(self, tmp_path):
        cfg = load_config_text(
            "[run]\nscenario = perturbed_pair\nn_modes = 128\nt_end = 0.05\n"
        )
        status = run_scenario("perturbed_pair", cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 < report["max_ratio"] <= 1.5
        assert report["final_ratio"] < 1.0  # stable pair contracts
        header, rows = read_csv(tmp_path / "pair_distances.csv")
        assert header == ["time", "h4_distance"]
        assert len(rows) >= 3

    def test_numeric_stop_maps_to_exit_three(self, tmp_path):
        # a chord-arc floor far above the flat-torus constant stops at once
        cfg = load_config_text(
            "[run]\nscenario = turnover\nn_modes = 128\nt_end = 0.02\n"
            "chord_arc_floor = 0.5\nstop_on = chord_arc_floor\n"
        )
        status = run_scenario("turnover", cfg, str(tmp_path))
        assert status == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["termination"] == "chord_arc_floor"
        i, j = report["chord_arc_pair"]
        assert i != j and 0 <= min(i, j) and max(i, j) < 128
        assert 0.0 <= report["chord_arc_ratio"] < 0.5

    def test_byte_identical_reruns_across_blas_thread_counts(self, tmp_path):
        config = tmp_path / "pair.ini"
        config.write_text("[run]\nscenario = perturbed_pair\nn_modes = 64\nt_end = 0.01\n")
        outputs = {}
        for threads in (1, 2):
            out = tmp_path / f"w{threads}"
            run_with_blas_threads(
                ["-m", "muskat.cli", "perturbed_pair", "--config", str(config), "--out", str(out)],
                threads,
            )
            outputs[threads] = (out / "pair_distances.csv").read_bytes()
        assert outputs[1] == outputs[2]


class TestCli:
    def test_unknown_scenario_exits_two(self, capsys):
        with pytest.raises(SystemExit):
            main(["warp"])

    def test_flat_run_via_cli(self, tmp_path):
        out = str(tmp_path / "artifacts")
        status = main([
            "flat", "--out", out, "--modes", "64", "--dt", "0.05",
        ])
        assert status == 0
        assert os.path.exists(os.path.join(out, "trajectory.csv"))

    def test_config_mismatch_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nscenario = flat\n")
        status = main(["turnover", "--config", str(path), "--out", str(tmp_path / "o")])
        assert status == 2

    def test_bad_cutoff_is_config_error(self, tmp_path):
        status = main([
            "flat", "--out", str(tmp_path / "o"), "--modes", "64", "--cutoff", "60",
        ])
        assert status == 2


    @pytest.mark.parametrize("argv", [
        ["flat", "--modes", "4"],
        ["flat", "--modes", "100"],
        ["flat", "--modes", "0"],
        ["flat", "--modes", "64", "--dt", "nan"],
        ["flat", "--modes", "64", "--cutoff", "0"],
        ["f_kappa_build", "--modes", "64"],
    ])
    def test_invalid_input_exits_two_without_traceback(self, tmp_path, capsys, argv):
        status = main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 2
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("run_keys", [
        "t_start = -inf\n",
        "t_start = nan\n",
        "t_end = inf\n",
        "t_end = nan\n",
        "chord_arc_floor = nan\n",
        "blowup_norm = nan\n",
        "adaptive = true\nadaptive_tol = 0\n",
        "adaptive = true\nadaptive_tol = -1e-8\n",
        "density_jump_over_2pi = inf\n",
    ], ids=["t_start_inf", "t_start_nan", "t_end_inf", "t_end_nan", "floor_nan", "blowup_nan",
            "tol_zero", "tol_negative", "density_inf"])
    def test_invalid_run_value_exits_two_without_traceback(self, tmp_path, capsys, run_keys):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[run]\nscenario = flat\nn_modes = 32\ndt = 0.01\n{run_keys}")
        status = main(["flat", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 2
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario, run_keys", [
        # the initial state already violates the requested rt_sign
        ("turnover", "n_modes = 64\ndirection = backward\nt_end = -0.01\nstop_on = rt_sign\n"),
        # two adaptive controllers would pick different steps
        ("perturbed_pair", "n_modes = 64\nadaptive = true\n"),
    ], ids=["rt_sign_at_start", "adaptive_pair"])
    def test_invalid_config_exits_two_without_traceback(self, tmp_path, capsys, scenario,
                                                        run_keys):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[run]\nscenario = {scenario}\n{run_keys}")
        status = main([scenario, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 2
        assert "config error" in err
        assert "Traceback" not in err
        # the output directory exists by then, and it explains the exit
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["scenario"] == scenario
        assert report["error"]

    def test_degenerate_parametrization_exits_three(self, tmp_path, monkeypatch):
        def degenerate(cfg, out_dir):
            raise DegenerateParametrizationError("tangent norm vanishes")

        monkeypatch.setitem(scenarios._SCENARIO_TABLE, "flat", degenerate)
        cfg = load_config_text("[run]\nscenario = flat\n")
        assert run_scenario("flat", cfg, str(tmp_path)) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert "tangent norm vanishes" in report["error"]


class TestCliDirections:
    def test_backward_direction_flag(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\nscenario = flat\nn_modes = 64\ndt = 0.01\n"
            "t_start = 0.0\nt_end = -0.05\ndirection = backward\n"
        )
        status = main(["flat", "--config", str(path), "--out", str(tmp_path / "o")])
        assert status == 0
