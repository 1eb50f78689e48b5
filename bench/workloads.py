"""The benchmark's workloads: inputs made from a seed, the timed call, output gates.

Every workload is closed-loop and single-process: one call at a time, the
next only after the previous one returned.  Library functions are looked up
through their modules at call time, so the tracer's wrappers see them.

* ``turnover_n512`` -- the ``turnover`` scenario through ``muskat.cli.main``
  at N=512.  Large-N regime: one complex N x N array is 4 MB, and ``rhs``
  carries nearly all of the run.  The only workload that goes through
  config parsing, scenarios and snapshot I/O.  The scenario fixes its
  inputs, so the seed is recorded but unused.
* ``decay_adaptive_n128`` -- ``integrator.run`` with step-doubling control
  at N=128 from a small multi-mode graph.  Small-N regime, where FFTs,
  projections and Python overhead are a larger share, and the only
  workload that exercises the step controller.  Seeds draw the phases; the
  amplitude of each mode is fixed, so every seed does the same work.
* ``toolbox_n256`` -- the contour operator toolbox with no time stepping:
  the same kernel layer on complex lifted-contour nodes and six-derivative
  workspaces instead of the real flat grid.  Seeds pick states from a
  fixed pool whose outputs are stored as references.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from muskat import cli, contour_ops, core, decomposition, grid, initial_data, integrator
from muskat import schedules, snapshots, stability

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
OUT_DIR = os.path.join(BENCH_DIR, "out")
TURNOVER_INI = os.path.join(BENCH_DIR, "turnover_n512.ini")

#: the contour schedule of the toolbox workload and of the sweep
SCHEDULE = schedules.HeightSchedule(A=10.0, tau=0.005, kappa=1e-6)


def reference_path(name: str, n_modes: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}-N{n_modes}.json")


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


# -- turnover_n512 ----------------------------------------------------------

#: final-snapshot tolerance: admits round-off of a reordered kernel
#: (about 2e-12) and catches real changes to the trajectory
TURNOVER_RTOL = 1e-9


@dataclass
class TurnoverInputs:
    argv: list[str]
    out_dir: str
    n_modes: int


class Turnover:
    name = "turnover_n512"

    def setup(self, seed: int, tiny: bool, workdir: str) -> TurnoverInputs:
        # The CLI repeats this set-up inside the run, where it costs milliseconds;
        # doing it here times it as set-up.
        cfg = cli.load_config(TURNOVER_INI)
        n_modes = 64 if tiny else cfg.run.n_modes
        initial_data.make_turnover_state(cfg.family, grid.SpectralGrid(n_modes))
        out_dir = os.path.join(workdir, "turnover")
        argv = ["turnover", "--config", TURNOVER_INI, "--out", out_dir]
        if tiny:
            argv += ["--modes", str(n_modes)]
        return TurnoverInputs(argv, out_dir, n_modes)

    def run(self, inputs: TurnoverInputs) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(inputs.argv)

    def check(self, inputs: TurnoverInputs, status: int) -> list[str]:
        if status != 0:
            return [f"cli exit status {status}"]
        failures = []
        with open(os.path.join(inputs.out_dir, "report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        if report.get("termination") != "reached_t_end":
            failures.append(f"termination {report.get('termination')!r}")
        if report.get("turnover_detected") is not True:
            failures.append("turnover not detected")
        final = snapshots.load_snapshot(os.path.join(inputs.out_dir, "snapshot_final.json"))
        with open(reference_path(self.name, inputs.n_modes), encoding="utf-8") as handle:
            ref = json.load(handle)
        if final.time != ref["time"]:
            failures.append(f"final time {final.time} != reference {ref['time']}")
        for key in ("p1", "p2"):
            want = np.asarray(ref[key][0::2]) + 1j * np.asarray(ref[key][1::2])
            gap = _relative_gap(getattr(final, key), want)
            if not gap <= TURNOVER_RTOL:
                failures.append(f"final {key} differs from reference by {gap:.3e} relative")
        return failures


# -- decay_adaptive_n128 ----------------------------------------------------

#: amplitude of z2's modes k = 1..4; the seed draws only their phases
DECAY_AMPLITUDES = (1e-2, 7.5e-3, 5e-3, 2e-3)
#: fitted rate against the linear rate 2 pi |k|; the cubic nonlinearity
#: contributes about 2e-5 at these amplitudes
DECAY_RTOL = 1e-4


@dataclass
class DecayInputs:
    initial: object
    config: object
    n_modes: int


class DecayAdaptive:
    name = "decay_adaptive_n128"

    def setup(self, seed: int, tiny: bool, workdir: str) -> DecayInputs:
        n_modes = 32 if tiny else 128
        config = integrator.RunConfig(
            n_modes=n_modes, dt=1e-3, adaptive=True, t_start=0.0,
            t_end=0.2 if tiny else 0.5, record_every=1,
        )
        g = grid.SpectralGrid(n_modes)
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, len(DECAY_AMPLITUDES))
        z2 = sum(a * np.cos((k + 1) * g.nodes + phase)
                 for k, (a, phase) in enumerate(zip(DECAY_AMPLITUDES, phases)))
        initial = core.InterfaceState(np.zeros(n_modes, dtype=complex), g.to_spectral(z2))
        return DecayInputs(initial, config, n_modes)

    def run(self, inputs: DecayInputs):
        return integrator.run(inputs.initial, inputs.config)

    def check(self, inputs: DecayInputs, trajectory) -> list[str]:
        failures = []
        if trajectory.termination != "reached_t_end":
            failures.append(f"termination {trajectory.termination!r}")
        times = np.array(trajectory.times())
        for k in range(1, len(DECAY_AMPLITUDES) + 1):
            amplitude = np.array([abs(state.p2[k]) for _, state, _ in trajectory.records])
            slope = np.polyfit(times, np.log(amplitude), 1)[0]
            expected = 2.0 * math.pi * k
            gap = abs(-slope - expected) / expected
            if not gap <= DECAY_RTOL:
                failures.append(f"mode {k}: fitted rate {-slope:.8g}, relative error {gap:.3e}")
        return failures


# -- toolbox_n256 -----------------------------------------------------------

POOL_SIZE = 32
STATES_PER_RUN = 4
#: outputs against the stored pool references: relative 2-norm difference
TOOLBOX_RTOL = 1e-9
#: the decomposition's d4_rhs part differentiates rhs four times and its easy
#: part is d4_rhs minus the quadratures, so both amplify the round-off of rhs:
#: white noise of 2e-12 relative on rhs's nodal values moves easy by up to
#: 2.4e-6 and d4_rhs by 1.5e-7 at N=256
D4_RTOL = 1e-5
D4_LOOSE_PARTS = ("rhs_d4.easy", "rhs_d4.d4_rhs")
#: PV of the bare cotangent on a closed contour: zero up to quadrature error
PV_ATOL = 1e-9
#: contour half-Laplacian of exp(i k zeta) is |k| exp(i k zeta)
LAMBDA_RTOL = 1e-9
#: random projections per fingerprint
PROBES = 8


def pool_state(index: int, g: grid.SpectralGrid):
    """Pool entry ``index``: a band-limited analytic state, a schedule time and a mode.

    Coefficients are complex normals times 0.02 e^{-|k|/2} for 1 <= |k| <= N/3,
    made conjugate-symmetric so the curve is real.
    """
    rng = np.random.default_rng([index, 2012])
    n = g.n_modes
    coeffs = []
    for _ in range(2):
        c = np.zeros(n, dtype=complex)
        for k in range(1, n // 3 + 1):
            c[k] = 0.02 * math.exp(-0.5 * k) * complex(rng.normal(), rng.normal())
            c[-k] = c[k].conjugate()
        coeffs.append(c)
    t = float(rng.uniform(SCHEDULE.tau**2, SCHEDULE.tau))
    mode = int(rng.integers(1, 9))
    return core.InterfaceState(coeffs[0], coeffs[1]), t, mode


@dataclass
class ToolboxEntry:
    index: int
    state: object
    upper: object
    lower: object
    h_t: np.ndarray
    mode: int
    f: np.ndarray
    f_prime: np.ndarray


@dataclass
class ToolboxInputs:
    grid: object
    entries: list[ToolboxEntry]
    n_modes: int


def toolbox_outputs(entry: ToolboxEntry, g) -> dict:
    """The toolbox calls on one pool entry."""
    flat = core.InterfaceState.flat(g)
    return {
        "rt_generalized": stability.rt_generalized(entry.state, g, entry.upper, entry.h_t),
        "a_tilde": core.a_tilde(entry.state, g, entry.lower),
        "h4_distance": stability.h4_distance(entry.state, flat, g, entry.upper),
        "chord_arc_constant": core.chord_arc_constant(entry.state, g, entry.upper),
        "lambda_gamma": contour_ops.lambda_gamma(entry.f, entry.f_prime, entry.upper, g),
        "pv_cot_integral": contour_ops.pv_cot_integral(g, entry.upper),
        "rhs_d4_decomposition": decomposition.rhs_d4_decomposition(entry.state, g),
    }


def checked_vectors(outputs: dict) -> dict[str, np.ndarray]:
    """The toolbox outputs compared against the pool references, as flat vectors.

    Each part of the decomposition is a vector of its own, so an error in a
    small safe term is measured against that term and not diluted by the
    others.  ``pv_cot_integral`` is round-off around zero and has its own
    gate instead.
    """
    vectors = {name: np.atleast_1d(np.asarray(value, dtype=complex))
               for name, value in outputs.items()
               if name not in ("pv_cot_integral", "rhs_d4_decomposition")}
    d4 = outputs["rhs_d4_decomposition"]
    parts = {"dangerous": d4.dangerous, "easy": d4.easy, "d4_rhs": d4.d4_rhs}
    parts.update((f"safe{j}", part) for j, part in enumerate(d4.safe))
    for name, part in parts.items():
        vectors[f"rhs_d4.{name}"] = np.concatenate([part.d1, part.d2])
    return vectors


def fingerprint(v: np.ndarray) -> list[float]:
    """Norm and PROBES fixed Gaussian random projections of a complex vector."""
    flat = np.concatenate([v.real, v.imag])
    probes = np.random.default_rng(1201).normal(size=(PROBES, len(flat)))
    return [float(np.linalg.norm(flat)), *(float(x) for x in probes @ flat)]


def fingerprint_gap(got: list[float], want: list[float]) -> float:
    """Relative 2-norm difference of two vectors, estimated from their fingerprints.

    For a Gaussian probe p and a difference d, (p . d)^2 has mean |d|^2, so
    the root mean square of the projection differences estimates |d|.  The
    difference of the norms is a lower bound of |d|.  The larger of the two
    is divided by the reference norm.
    """
    diffs = [g - w for g, w in zip(got[1:], want[1:])]
    rms = math.sqrt(sum(d * d for d in diffs) / len(diffs))
    return max(abs(got[0] - want[0]), rms) / max(want[0], 1e-300)


class Toolbox:
    name = "toolbox_n256"

    def setup(self, seed: int, tiny: bool, workdir: str) -> ToolboxInputs:
        n_modes = 32 if tiny else 256
        per_run = 2 if tiny else STATES_PER_RUN
        g = grid.SpectralGrid(n_modes)
        picks = np.random.default_rng(seed).choice(POOL_SIZE, per_run, replace=False)
        return ToolboxInputs(g, [self.entry(int(i), g) for i in picks], n_modes)

    @staticmethod
    def entry(index: int, g) -> ToolboxEntry:
        state, t, mode = pool_state(index, g)
        heights = schedules.h_of(g.nodes, t, SCHEDULE)
        upper = contour_ops.LiftedContour.from_height(g, heights, +1)
        lower = contour_ops.LiftedContour.from_height(g, heights, -1)
        zeta = upper.complex_nodes(g)
        f = np.exp(1j * mode * zeta)
        return ToolboxEntry(index, state, upper, lower, schedules.h_t_of(g.nodes, t, SCHEDULE),
                            mode, f, 1j * mode * f)

    def run(self, inputs: ToolboxInputs) -> list[dict]:
        return [toolbox_outputs(entry, inputs.grid) for entry in inputs.entries]

    def check(self, inputs: ToolboxInputs, outputs: list[dict]) -> list[str]:
        with open(reference_path(self.name, inputs.n_modes), encoding="utf-8") as handle:
            pool = json.load(handle)["pool"]
        failures = []
        for entry, out in zip(inputs.entries, outputs):
            label = f"pool entry {entry.index}"
            pv = float(np.abs(out["pv_cot_integral"]).max())
            if not pv <= PV_ATOL:
                failures.append(f"{label}: |pv_cot_integral| = {pv:.3e}")
            lam = _relative_gap(out["lambda_gamma"], entry.mode * entry.f)
            if not lam <= LAMBDA_RTOL:
                failures.append(f"{label}: lambda_gamma off k e^(ik zeta) by {lam:.3e}")
            for name, vector in checked_vectors(out).items():
                tol = D4_RTOL if name in D4_LOOSE_PARTS else TOOLBOX_RTOL
                gap = fingerprint_gap(fingerprint(vector), pool[entry.index][name])
                if not gap <= tol:
                    failures.append(f"{label}: {name} differs from reference by {gap:.3e}")
        return failures


WORKLOADS = {w.name: w for w in (Turnover(), DecayAdaptive(), Toolbox())}
