import contextlib
import io
import json
import math
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muskat import InterfaceState, SpectralGrid, run
from muskat.cli import _load, build_parser, main
from muskat import core, integrator, scenarios, snapshots
from muskat.config import SCENARIOS, load_config, load_config_text, serialize_config
from muskat.errors import ConfigError, DegenerateParametrizationError, SnapshotError
from muskat.initial_data import GraphFamilyParams
from muskat.integrator import RunConfig
from muskat.scenarios import run_scenario
from muskat.schedules import HeightSchedule
from muskat.snapshots import atomic_write_text, load_snapshot, save_snapshot, write_json

from conftest import nan_rt_generalized_after_start, run_with_blas_threads


class TestConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = load_config_text("[run]\nscenario = flat\n")
        assert cfg.scenario == "flat"
        assert cfg.run.n_modes == 256
        assert cfg.run.galerkin_cutoff == 256 // 3
        assert cfg.run.direction == "forward"
        assert cfg.run.t_end == 1.0

    @pytest.mark.parametrize("scenario", ["schedule_check", "operator_suite", "f_kappa_build"])
    def test_scenario_without_fallbacks_loads_the_field_defaults(self, scenario):
        cfg = load_config_text(f"[run]\nscenario = {scenario}\n")
        assert cfg.run == RunConfig()
        assert cfg.schedule == HeightSchedule()
        assert cfg.family == GraphFamilyParams()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_text("[run]\nscenario = flat\nwhatever = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config_text("[run]\nscenario = flat\n[extra]\nx = 1\n")

    @pytest.mark.parametrize("text", ["[DEFAULT]\n", "[DEFAULT]\nkappa = 1e-7\n"],
                             ids=["empty", "kappa"])
    def test_default_section_is_unknown(self, text):
        # configparser would merge [DEFAULT] into every section
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_config_text("[run]\nscenario = flat\n" + text)

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
        # signed zeros, which compare equal to 0.0: only the bits tell them apart
        state.p1[3] = complex(1.5, -0.0)
        state.p2[5] = complex(-0.0, 0.0)
        path = str(tmp_path / "snap.json")
        save_snapshot(state, path, config_digest="abc")
        loaded = load_snapshot(path)
        assert loaded.time == state.time
        assert loaded.n_modes == 64
        assert np.array_equal(loaded.p1.view(np.uint64), state.p1.view(np.uint64))
        assert np.array_equal(loaded.p2.view(np.uint64), state.p2.view(np.uint64))
        assert isinstance(loaded, InterfaceState)
        assert np.array_equal(loaded.coeffs.view(np.uint64), state.coeffs.view(np.uint64))
        assert loaded.config_digest == "abc"

    @pytest.mark.parametrize("key, index, value", [
        ("p1", 4, math.nan), ("p2", 7, math.inf), ("time", None, math.nan),
    ], ids=["nan-p1", "inf-p2", "nan-time"])
    def test_non_finite_values_are_refused(self, tmp_path, key, index, value):
        grid = SpectralGrid(64)
        path = str(tmp_path / "snap.json")
        save_snapshot(InterfaceState.flat(grid), path)
        payload = json.loads(open(path).read())
        if index is None:
            payload[key] = value
        else:
            payload[key][index] = value
        # json writes NaN and Infinity tokens, which json.load accepts
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_json_is_sorted_strict_and_one_element_per_line(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), {"b": [1.5, math.inf], "a": {"c": (2, -math.nan)}})
        assert path.read_text() == '{"a": {"c": [2,\nnull]},\n"b": [1.5,\nnull]}'

    def test_finite_payload_is_written_without_the_walk(self, tmp_path, monkeypatch):
        payload = {"b": [1.5, np.float64(-0.0), (2, 3.25e-300)], "a": {"c": [], "d": "x"}}
        walked = json.dumps(snapshots.finite_or_null(payload), allow_nan=False,
                            sort_keys=True, separators=(",\n", ": "))

        def refuse(value):
            raise AssertionError("a finite payload was walked")

        monkeypatch.setattr(snapshots, "finite_or_null", refuse)
        write_json(str(tmp_path / "out.json"), payload)
        assert (tmp_path / "out.json").read_text() == walked

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask_022", "umask_077"])
    def test_written_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        # the mode open(path, "w") gives, so plot_data.json is readable by others
        path = tmp_path / "out.json"
        old = os.umask(umask)
        try:
            write_json(str(path), {"a": 1})
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        # a lone surrogate cannot be encoded as UTF-8
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(tmp_path / "out.txt"), "\ud800")
        assert os.listdir(tmp_path) == []

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
        middle = load_snapshot(path)
        resumed = run(
            middle,
            RunConfig(n_modes=64, dt=1e-3, t_start=middle.time, t_end=0.04, record_every=10),
        )
        a = full.final_state()
        b = resumed.final_state()
        assert np.array_equal(a.p1, b.p1)
        assert np.array_equal(a.p2, b.p2)


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


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
        status = run_scenario(cfg, str(tmp_path))
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

    def test_every_json_file_is_strict(self, tmp_path):
        # at 32 modes the analyticity fit band is empty and the radius is
        # inf: the snapshots write it as null, trajectory.csv keeps inf
        out = tmp_path / "flat"
        assert main(["flat", "--modes", "32", "--out", str(out)]) == 0
        written = sorted(out.glob("*.json"))
        assert {path.name for path in written} >= {"snapshot_initial.json", "snapshot_final.json"}
        for path in written:
            strict_json(path.read_text())
        for name in ("snapshot_initial.json", "snapshot_final.json"):
            assert load_snapshot(str(out / name)).diagnostics["analyticity_radius"] is None
        header, rows = read_csv(out / "trajectory.csv")
        assert rows[0][header.index("analyticity_radius")] == "inf"

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
        status = run_scenario(cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["fitted_decay_rate"] - 2 * np.pi) <= 0.05 * 2 * np.pi
        header, _ = read_csv(tmp_path / "trajectory.csv")
        assert header[-1] == "fitted_decay_rate"

    def test_linear_decay_stopped_at_its_first_step_fits_nothing(self, tmp_path, capsys):
        # the floor lies above the flat interface's own chord-arc constant
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nscenario = linear_decay\nn_modes = 8\nt_end = 0.01\n"
                        "stop_on = chord_arc_floor\nchord_arc_floor = 0.5\n")
        assert main(["linear_decay", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["termination"] == "chord_arc_floor"
        assert report["records"] == 1
        assert report["fitted_decay_rate"] is None and report["relative_error"] is None

    @pytest.mark.parametrize("run_keys, expected_rate", [
        ("n_modes = 32\ndensity_jump_over_2pi = 0.5\n", np.pi),
        ("n_modes = 64\nadaptive = true\n", 2 * np.pi),
    ], ids=["density_half", "adaptive"])
    def test_linear_decay_cli_rate_and_rhs_calls(self, tmp_path, run_keys, expected_rate):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[run]\nscenario = linear_decay\n{run_keys}")
        assert main(["linear_decay", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["expected_rate"] == pytest.approx(expected_rate, rel=1e-15)
        assert report["relative_error"] < 1e-4
        if "adaptive" in run_keys:
            # FSAL: one call to start, four per attempted step
            assert (report["rhs_calls"] - 1) % 4 == 0 and report["rhs_calls"] <= 60
        else:
            # FSAL: k1 of the start, then four stages per step
            assert report["rhs_calls"] == 1 + 4 * 500
            assert report["rejected_steps"] == 0

    @pytest.mark.parametrize("dt, unstable", [("4e-3", True), ("2e-3", False)])
    def test_max_step_error_shows_an_unstable_fixed_step(self, tmp_path, dt, unstable):
        # at N = 512 the largest decay rates make RK4 unstable at dt = 4e-3:
        # the run still exits 0, and only its step error estimate shows it
        out = tmp_path / "o"
        assert main(["linear_decay", "--modes", "512", "--dt", dt, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # linear_decay runs to t_end = 0.5
        assert report["accepted_steps"] == round(0.5 / float(dt))
        if unstable:
            # the fitted rate is off by 78%
            assert report["relative_error"] > 0.5
            assert report["max_step_error"] >= 1e2
        else:
            assert report["relative_error"] < 1e-4
            assert 0.0 < report["max_step_error"] <= 1e-6

    def test_f_kappa_build_emits_deviation(self, tmp_path):
        cfg = load_config_text("[run]\nscenario = f_kappa_build\nn_modes = 256\n")
        status = run_scenario(cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["max_coefficient_deviation"] <= 1e-10
        header, rows = read_csv(tmp_path / "coefficients.csv")
        assert header == ["k", "cosine_coefficient", "closed_form", "abs_deviation"]
        assert len(rows) == 64

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f_kappa_build_at_kappa_zero_writes_finite_json(self, tmp_path, capsys):
        # the limiting datum: log_datum is -inf at the node x = 0
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nscenario = f_kappa_build\n[perturbation]\nkappa = 0\n")
        out = tmp_path / "o"
        status = main(["f_kappa_build", "--config", str(path), "--modes", "128",
                       "--out", str(out)])
        assert status == 0
        assert "Traceback" not in capsys.readouterr().err
        report = strict_json((out / "report.json").read_text())
        assert math.isfinite(report["fourth_derivative_vs_log_datum_max_error"])

    @pytest.mark.parametrize("schedule", ["a = 10\ntau = 0.005\n", "a = 1.2\ntau = 0.5\n"],
                             ids=["in_regime", "vacuous_h_t_bound"])
    def test_schedule_check_reports_margins(self, tmp_path, schedule):
        cfg = load_config_text(f"[run]\nscenario = schedule_check\n[schedule]\n{schedule}")
        status = run_scenario(cfg, str(tmp_path))
        assert status == 0
        report = strict_json((tmp_path / "report.json").read_text())
        if cfg.schedule.A == 10.0:
            assert report["all_nonnegative"] is True
        else:
            # no node lies in the h_t bound's outer region at any sampled
            # time: the bound is vacuous (+inf), written as null
            assert report["margins"]["h_t_bound"] is None
            assert report["margins"]["hbar_t_bound"] == pytest.approx(-3.5694444444444438)
            assert report["all_nonnegative"] is False

    def test_operator_suite_reports_small_errors(self, tmp_path):
        cfg = load_config_text("[run]\nscenario = operator_suite\n")
        status = run_scenario(cfg, str(tmp_path))
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
        status = run_scenario(cfg, str(tmp_path))
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
        status = run_scenario(cfg, str(tmp_path))
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 < report["max_ratio"] <= 1.5
        assert report["final_ratio"] < 1.0  # stable pair contracts
        header, rows = read_csv(tmp_path / "pair_distances.csv")
        assert header == ["time", "h4_distance"]
        assert len(rows) >= 3

    def test_perturbed_pair_stopped_at_the_floor_reports_its_ending(self, tmp_path):
        # both states lie below the floor: the first state's first stage fails,
        # so one rhs call ran
        cfg = load_config_text(
            "[run]\nscenario = perturbed_pair\nn_modes = 8\n"
            "stop_on = chord_arc_floor\nchord_arc_floor = 0.5\n"
        )
        assert run_scenario(cfg, str(tmp_path)) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["termination"] == "chord_arc_floor"
        assert (report["records"], report["rhs_calls"], report["rejected_steps"]) == (1, 1, 0)
        i, j = report["chord_arc_pair"]
        assert i != j and 0 <= min(i, j) and max(i, j) < 8
        assert 0.0 <= report["chord_arc_ratio"] < 0.5
        # the failing stage is the least of every stage either state took
        assert report["min_stage_chord_arc"] == report["chord_arc_ratio"]
        assert report["min_stage_chord_arc_pair"] == report["chord_arc_pair"]
        # one record spans no interval to take a difference quotient over
        assert report["min_quotient_of_squared_distance"] is None

    @pytest.mark.parametrize("perturbation", ["lambda = 0.0", "lambda = 1e-200", "kappa = 1e4"],
                             ids=["lambda_zero", "lambda_underflows", "f_kappa_underflows"])
    def test_zero_perturbation_is_refused_before_a_step(self, tmp_path, monkeypatch,
                                                        perturbation):
        # the pair's first H4 distance is 0, since lambda * f_kappa is zero
        # or its norm underflows: refused at the defaults without an rhs call
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return core.rhs(*args, **kwargs)

        monkeypatch.setattr(integrator, "rhs", counting)
        cfg = load_config_text(
            f"[run]\nscenario = perturbed_pair\n[perturbation]\n{perturbation}\n")
        with pytest.raises(ConfigError, match="zero H4 norm"):
            run_scenario(cfg, str(tmp_path))
        assert calls == []
        assert not (tmp_path / "pair_distances.csv").exists()
        assert "zero H4 norm" in json.loads((tmp_path / "report.json").read_text())["error"]

    def test_tiny_perturbation_still_runs(self, tmp_path):
        # lambda = 1e-160: the squared H4 norm is subnormal, not zero
        cfg = load_config_text(
            "[run]\nscenario = perturbed_pair\nn_modes = 32\nt_end = 0.002\n"
            "[perturbation]\nlambda = 1e-160\n"
        )
        assert run_scenario(cfg, str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["initial_distance"] == pytest.approx(6.16e-160, rel=1e-3)
        assert (tmp_path / "pair_distances.csv").exists()

    def test_numeric_stop_maps_to_exit_three(self, tmp_path):
        # a chord-arc floor far above the flat-torus constant stops at once
        cfg = load_config_text(
            "[run]\nscenario = turnover\nn_modes = 128\nt_end = 0.02\n"
            "chord_arc_floor = 0.5\nstop_on = chord_arc_floor\n"
        )
        status = run_scenario(cfg, str(tmp_path))
        assert status == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["termination"] == "chord_arc_floor"
        i, j = report["chord_arc_pair"]
        assert i != j and 0 <= min(i, j) and max(i, j) < 128
        assert 0.0 <= report["chord_arc_ratio"] < 0.5

    def test_floor_met_by_the_generalized_monitor_counts_no_cut_short_attempt(self, tmp_path):
        # the mid-run rt_sign graph with a chord-arc floor of 0.02: twenty
        # fixed steps (81 rhs calls) are accepted, then the stop check's
        # generalized monitor meets the floor on its lifted contour, while
        # every rhs stage of the interface stays above it
        cfg = load_config_text(
            "[run]\nscenario = turnover\nn_modes = 32\ndt = 1e-5\nt_end = 0.004\n"
            "rt_convention = generalized\nstop_on = rt_sign, chord_arc_floor\n"
            "chord_arc_floor = 0.02\n[schedule]\na = 2.0\ntau = 0.0138\n[family]\n"
            "slope_amplitude = 0.06\nsteepening_rate = 0.43\nvertical_amplitudes = 0.29, 0.22\n"
        )
        assert run_scenario(cfg, str(tmp_path)) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["termination"] == "chord_arc_floor"
        assert (report["rhs_calls"], report["chord_arc_contour"]) == (81, "monitor")
        assert report["chord_arc_ratio"] < 0.02 < report["min_stage_chord_arc"]

    def test_a_start_whose_monitor_meets_the_floor_ends_as_later_states_do(self, tmp_path):
        # the mid-run rt_sign graph with a chord-arc floor of 0.031: at t = 0
        # the interface reads 0.0326 and the generalized monitor's lifted
        # contour 0.0302, so the start's rt_sign check meets the floor
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\nscenario = turnover\nn_modes = 32\ndt = 1e-5\nt_end = 0.004\n"
            "rt_convention = generalized\nstop_on = rt_sign, chord_arc_floor\n"
            "chord_arc_floor = 0.031\n[schedule]\na = 2.0\ntau = 0.0138\n[family]\n"
            "slope_amplitude = 0.06\nsteepening_rate = 0.43\nvertical_amplitudes = 0.29, 0.22\n"
        )
        assert main(["turnover", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert (report["termination"], report["chord_arc_contour"]) == ("chord_arc_floor",
                                                                        "monitor")
        assert (report["rhs_calls"], report["records"]) == (1, 1)
        assert report["chord_arc_ratio"] < 0.031 < report["min_stage_chord_arc"]

    def test_floor_met_by_a_stage_names_the_interface(self, tmp_path):
        # the flat-torus constant 2/pi^2 is below the floor at the first
        # stage, so the one rhs call that ran is the stage that failed
        cfg = load_config_text(
            "[run]\nscenario = linear_decay\nn_modes = 8\nt_end = 0.01\n"
            "stop_on = chord_arc_floor\nchord_arc_floor = 0.5\n"
        )
        assert run_scenario(cfg, str(tmp_path)) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["rhs_calls"], report["chord_arc_contour"]) == (1, "interface")
        assert report["chord_arc_ratio"] == report["min_stage_chord_arc"]
        # no step was accepted, so no step has an error estimate
        assert (report["accepted_steps"], report["max_step_error"]) == (0, None)

    @pytest.mark.parametrize("text, termination", [
        ("scenario = turnover\nn_modes = 32\nt_end = 0.005\n", "reached_t_end"),
        ("scenario = linear_decay\nn_modes = 32\nadaptive = true\n", "reached_t_end"),
        ("scenario = perturbed_pair\nn_modes = 32\nt_end = 0.005\n", "reached_t_end"),
        ("scenario = linear_decay\nn_modes = 8\nt_end = 0.01\n"
         "stop_on = chord_arc_floor\nchord_arc_floor = 0.5\n", "chord_arc_floor"),
        ("scenario = linear_decay\nn_modes = 8\nt_end = 0.01\nadaptive = true\n"
         "stop_on = chord_arc_floor\nchord_arc_floor = 0.5\n", "chord_arc_floor"),
        ("scenario = perturbed_pair\nn_modes = 8\n"
         "stop_on = chord_arc_floor\nchord_arc_floor = 0.5\n", "chord_arc_floor"),
        # the 27th attempt fails the floor at its second stage
        ("scenario = turnover\nn_modes = 64\ndt = 1e-3\ndirection = backward\n"
         "t_end = -0.04\nstop_on = chord_arc_floor\nchord_arc_floor = 0.0023\n",
         "chord_arc_floor"),
        # the generalized monitor meets the floor after 20 accepted steps
        ("scenario = turnover\nn_modes = 32\ndt = 1e-5\nt_end = 0.004\n"
         "rt_convention = generalized\nstop_on = rt_sign, chord_arc_floor\n"
         "chord_arc_floor = 0.02\n[schedule]\na = 2.0\ntau = 0.0138\n[family]\n"
         "slope_amplitude = 0.06\nsteepening_rate = 0.43\nvertical_amplitudes = 0.29, 0.22\n",
         "chord_arc_floor"),
    ], ids=["fixed", "adaptive", "pair", "fixed_floor", "adaptive_floor", "pair_floor",
            "backward_mid_attempt_floor", "monitor_floor"])
    def test_rhs_calls_count_the_rhs_evaluations(self, tmp_path, monkeypatch, text,
                                                 termination):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return core.rhs(*args, **kwargs)

        monkeypatch.setattr(integrator, "rhs", counting)
        run_scenario(load_config_text("[run]\n" + text), str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["termination"] == termination
        assert report["rhs_calls"] == len(calls) > 0

    def test_adaptive_turnover_csv_holds_only_numbers(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nscenario = turnover\nadaptive = true\nt_end = 0.01\n")
        out = tmp_path / "o"
        assert main(["turnover", "--modes", "64", "--config", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header[0] == "time" and len(rows) > 2
        for row in rows:
            for cell in row:
                float(cell)

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

    def test_flags_set_the_same_run_keys_as_the_file(self):
        args = build_parser().parse_args(["flat", "--modes", "64", "--cutoff", "10", "--dt", "0.05"])
        from_file = load_config_text(
            "[run]\nscenario = flat\nn_modes = 64\ngalerkin_cutoff = 10\ndt = 0.05\n"
        )
        assert serialize_config(_load(args)) == serialize_config(from_file)

    def test_modes_flag_derives_the_cutoff_again(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nscenario = flat\ngalerkin_cutoff = 60\n")
        assert load_config(str(path)).run.galerkin_cutoff == 60
        args = build_parser().parse_args(["flat", "--config", str(path), "--modes", "64"])
        assert _load(args).run.galerkin_cutoff == 21

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
        ["flat", "--modes", "64", "--direction", "bwd"],
        ["flat", "--config", "[run]\nscenario = flat\nn_modes = 32\ndt = 0.01\n[DEFAULT]\n"],
        ["flat", "--config", "[run]\nscenario = flat\nn_modes = 32\ndt = 0.01\n"
                             "[DEFAULT]\nkappa = 1e-7\n"],
    ])
    def test_invalid_input_exits_two_without_traceback(self, tmp_path, capsys, argv):
        if "--config" in argv:
            # the value after --config is the text of the file to pass
            at = argv.index("--config") + 1
            path = tmp_path / "cfg.ini"
            path.write_text(argv[at])
            argv = [*argv[:at], str(path), *argv[at + 1:]]
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
        "[schedule]\na = nan\n",
        "[schedule]\nkappa = nan\n",
        "[perturbation]\nkappa = -1\n",
        "[perturbation]\nlambda = -1\n",
        "[perturbation]\nlambda = nan\n",
        "[family]\nvertical_amplitudes = -1.0, 0.1\n",
        "[family]\nsteepening_rate = -5\n",
        "[family]\nslope_amplitude = nan\n",
        "[family]\nsteepening_rate = nan\n",
        "seed = -1\n",
    ], ids=["t_start_inf", "t_start_nan", "t_end_inf", "t_end_nan", "floor_nan", "blowup_nan",
            "tol_zero", "tol_negative", "density_inf", "schedule_a_nan", "schedule_kappa_nan",
            "perturbation_kappa_negative", "perturbation_lambda_negative",
            "perturbation_lambda_nan", "family_verticals_negative_slope",
            "family_steepening_negative", "family_slope_nan", "family_steepening_nan",
            "seed_negative"])
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
        # a vanishing perturbation leaves no distance to take ratios of
        ("perturbed_pair", "n_modes = 32\n[perturbation]\nlambda = 0.0\n"),
        # a pair whose states already violate the requested generalized rt_sign
        ("perturbed_pair", "n_modes = 32\ndt = 1e-5\nt_end = 0.004\n"
                           "rt_convention = generalized\nstop_on = rt_sign\n"),
    ], ids=["rt_sign_at_start", "adaptive_pair", "zero_perturbation", "rt_sign_pair_at_start"])
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

    def test_f_kappa_coefficients_below_the_floor_exit_three(self, tmp_path, capsys):
        # e^{-5k}/k^5 falls below COEFF_FLOOR before the fit band (8, 40) starts
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nscenario = f_kappa_build\n[perturbation]\nkappa = 5\n")
        out = tmp_path / "o"
        status = main(["f_kappa_build", "--config", str(path), "--modes", "128",
                       "--out", str(out)])
        assert status == 3
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert "COEFF_FLOOR" in report["error"]

    def test_unwritable_output_directory_exits_four(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        assert main(["flat", "--modes", "32", "--out", str(blocker / "sub")]) == 4
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert "Traceback" not in err

    def test_degenerate_parametrization_exits_three(self, tmp_path, monkeypatch):
        def degenerate(cfg, out_dir):
            raise DegenerateParametrizationError("tangent norm vanishes")

        monkeypatch.setitem(scenarios.SCENARIOS, "flat",
                            scenarios.SCENARIOS["flat"]._replace(run=degenerate))
        cfg = load_config_text("[run]\nscenario = flat\n")
        assert run_scenario(cfg, str(tmp_path)) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert "tangent norm vanishes" in report["error"]

    def test_non_finite_rt_monitor_exits_three(self, tmp_path, monkeypatch, capsys):
        # a generalized monitor that turns NaN after the first step has no
        # sign to stop on: the run ends with exit 3 and the reason
        nan_rt_generalized_after_start(monkeypatch)
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nscenario = turnover\nn_modes = 32\ndt = 1e-5\nt_end = 5e-5\n"
                        "rt_convention = generalized\nstop_on = rt_sign\n"
                        "[schedule]\na = 2.0\ntau = 0.0138\n[family]\nslope_amplitude = 0.06\n"
                        "steepening_rate = 0.43\nvertical_amplitudes = 0.29, 0.22\n")
        assert main(["turnover", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err
        report = strict_json((tmp_path / "o" / "report.json").read_text())
        assert "non-finite Rayleigh-Taylor monitor" in report["error"]

    @pytest.mark.parametrize("fields, status", [
        ({"kappa": 0.2}, 0),
        ({"termination": "reached_t_end"}, 0),
        ({"termination": "rt_sign", "records": 1}, 3),
    ], ids=["no_termination", "reached_t_end", "stopped"])
    def test_run_scenario_writes_the_report_and_maps_the_termination(
            self, tmp_path, monkeypatch, fields, status):
        monkeypatch.setitem(scenarios.SCENARIOS, "flat", scenarios.SCENARIOS["flat"]._replace(
            run=lambda cfg, out_dir: fields))
        cfg = load_config_text("[run]\nscenario = flat\n")
        assert run_scenario(cfg, str(tmp_path)) == status
        report = strict_json((tmp_path / "report.json").read_text())
        assert report == {"scenario": "flat", "config_digest": cfg.digest(), **fields}


class TestCliDirections:
    def test_backward_direction_flag(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\nscenario = flat\nn_modes = 64\ndt = 0.01\n"
            "t_start = 0.0\nt_end = -0.05\ndirection = backward\n"
        )
        status = main(["flat", "--config", str(path), "--out", str(tmp_path / "o")])
        assert status == 0


#: per config key: values that parse, boundaries such as kappa = 0 among
#: them, and bad tokens.  n_modes, dt and t_end are always set and keep every
#: example short: at most 32 modes with dt >= 1e-3 for the scenarios that
#: step, 128 for f_kappa_build, which needs 80 and does not step
_FUZZ_KEYS = {
    ("run", "n_modes"): (["8", "16", "32"], ["4", "100", "-1", "abc", ""]),
    ("run", "dt"): (["1e-3", "4e-3", "1e-2"], ["0", "-1e-3", "nan", "abc", ""]),
    ("run", "t_end"): (["0.01", "0.02", "-0.01"], ["0", "inf", "nan", "abc", ""]),
    ("run", "t_start"): (["0", "1e-5", "-0.01"], ["nan", "-inf", "abc"]),
    ("run", "galerkin_cutoff"): (["", "1", "5"], ["0", "20", "abc"]),
    ("run", "adaptive"): (["true", "false"], ["maybe", ""]),
    ("run", "adaptive_tol"): (["1e-8", "1e-6"], ["0", "-1", "nan"]),
    ("run", "direction"): (["forward", "backward"], ["sideways", ""]),
    ("run", "stop_on"): (["", "chord_arc_floor", "blowup_norm, rt_sign"], ["warp"]),
    ("run", "chord_arc_floor"): (["1e-4", "0.5"], ["0", "nan"]),
    ("run", "blowup_norm"): (["1e3", "1e-3"], ["0", "nan"]),
    ("run", "record_every"): (["1", "5"], ["0", "abc"]),
    ("run", "rt_convention"): (["sigma", "generalized"], ["bogus"]),
    ("run", "density_jump_over_2pi"): (["1.0", "0.5", "0", "-1"], ["nan", "abc"]),
    ("run", "seed"): (["0", "7"], ["-1", "abc"]),
    ("schedule", "a"): (["10", "2"], ["1", "nan"]),
    ("schedule", "tau"): (["0.005", "0.01"], ["0", "1", "nan"]),
    ("schedule", "kappa"): (["1e-6", "0"], ["-1", "nan"]),
    ("family", "slope_amplitude"): (["0.98", "1.0", "0"], ["nan", ""]),
    ("family", "steepening_rate"): (["-0.3", "0"], ["-5", "nan"]),
    ("family", "mode_count"): (["2", "1", "8"], ["0", "9", "abc"]),
    ("family", "vertical_amplitudes"): (["-0.5, 1.0", "1.0"], ["-1.0, 0.1", "", "abc"]),
    ("perturbation", "lambda"): (["1e-5", "1e-3", "0"], ["-1", "nan", "abc", ""]),
    ("perturbation", "kappa"): (["0.2", "0", "5"], ["-1", "nan", "abc", ""]),
}
_FUZZ_ALWAYS = (("run", "n_modes"), ("run", "dt"), ("run", "t_end"))

#: per command-line flag: values that parse, then bad tokens.  Never more
#: than 128 modes or a step below 1e-3: over |t_end| = 0.02 a run takes at
#: most 20 steps
_FUZZ_FLAGS = {
    "modes": (["8", "16", "32", "64", "128"], ["4", "100", "0", "-1", "abc", "", "nan"]),
    "cutoff": (["1", "2", "5", ""], ["0", "-1", "100", "abc", "nan"]),
    "dt": (["1e-3", "4e-3", "1e-2"], ["0", "-1e-3", "nan", "inf", "abc", ""]),
    "direction": (["fwd", "bwd", "forward", "backward"], ["sideways", ""]),
}


@st.composite
def fuzz_flags(draw, scenario: str) -> tuple[list[str], str]:
    """(argv, INI text): any of the flags at values that parse, then at most
    one at a bad token, over a file whose t_end lies in the drawn direction."""
    flags = {flag: draw(st.sampled_from(good)) for flag, (good, _) in _FUZZ_FLAGS.items()
             if draw(st.booleans())}
    t_end = -0.02 if flags.get("direction") in ("bwd", "backward") else 0.02
    for flag in draw(st.lists(st.sampled_from(list(_FUZZ_FLAGS)), max_size=1)):
        flags[flag] = draw(st.sampled_from(_FUZZ_FLAGS[flag][1]))
    n_modes = 128 if scenario == "f_kappa_build" else 32
    text = f"[run]\nscenario = {scenario}\nn_modes = {n_modes}\ndt = 1e-3\nt_end = {t_end}\n"
    # --flag=value: argparse would take a value such as -1e-3 for an option
    return [scenario, *(f"--{flag}={value}" for flag, value in flags.items())], text


@st.composite
def fuzz_config(draw, scenario: str) -> str:
    """INI text: the keys of _FUZZ_ALWAYS and up to four others at values that
    parse, then at most one key at a bad token."""
    optional = [key for key in _FUZZ_KEYS if key not in _FUZZ_ALWAYS]
    chosen = [*_FUZZ_ALWAYS, *draw(st.lists(st.sampled_from(optional), max_size=4, unique=True))]
    values = {key: draw(st.sampled_from(_FUZZ_KEYS[key][0])) for key in chosen}
    if scenario == "f_kappa_build":
        values[("run", "n_modes")] = "128"
    for key in draw(st.lists(st.sampled_from(list(_FUZZ_KEYS)), max_size=1)):
        values[key] = draw(st.sampled_from(_FUZZ_KEYS[key][1]))
    sections: dict[str, list[str]] = {"run": [f"scenario = {scenario}"]}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items())


class TestExitCodeContract:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_any_config_exits_with_a_contract_code(self, scenario, data):
        text = data.draw(fuzz_config(scenario), label="config")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.ini")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            out = os.path.join(tmp, "o")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                status = main([scenario, "--config", path, "--out", out])
            assert status in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            report = os.path.join(out, "report.json")
            if os.path.exists(report):
                with open(report, encoding="utf-8") as handle:
                    strict_json(handle.read())

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_any_flags_exit_with_a_contract_code(self, scenario, data):
        argv, text = data.draw(fuzz_flags(scenario), label="flags")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.ini")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            out = os.path.join(tmp, "o")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    status = main([*argv, "--config", path, "--out", out])
                except SystemExit as exc:  # argparse refuses a --direction choice
                    status = exc.code
            assert status in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            report = os.path.join(out, "report.json")
            if status in (0, 3):
                assert os.path.exists(report)
            if os.path.exists(report):
                with open(report, encoding="utf-8") as handle:
                    strict_json(handle.read())
