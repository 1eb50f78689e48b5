"""Kernel size sweep: time per call of the pairwise kernels at N = 128 ... 1024.

Each entry reports the median time of one call, the N x N pair count the
call evaluates (N^2 per kernel workspace it builds), and the bytes of those
workspaces, computed from the array sizes ``build_workspace`` returns (not
measured traffic).
"""

from __future__ import annotations

import statistics
import time

from muskat import contour_ops, core, decomposition, grid, integrator, schedules

from tracer import Tracer
from workloads import SCHEDULE, pool_state

SIZES = (128, 256, 512, 1024)
#: timed calls per entry: at least MIN_REPS, more until MIN_SECONDS are spent
MIN_REPS = 3
MIN_SECONDS = 0.5


def sweep_calls(n_modes: int) -> dict:
    g = grid.SpectralGrid(n_modes)
    state, _, _ = pool_state(0, g)
    heights = schedules.h_of(g.nodes, SCHEDULE.tau / 2.0, SCHEDULE)
    upper = contour_ops.LiftedContour.from_height(g, heights)
    config = integrator.RunConfig(n_modes=n_modes, t_end=1.0)
    flat = core.InterfaceState.flat(g)
    return {
        "rhs": lambda: core.rhs(state, g),
        "step": lambda: integrator.step(state, g, 1e-4, n_modes // 3),
        "diagnostics_for": lambda: integrator.diagnostics_for(state, g, config, flat),
        "a_tilde": lambda: core.a_tilde(state, g, upper),
        "rhs_d4_decomposition": lambda: decomposition.rhs_d4_decomposition(state, g),
    }


def run_sweep(run_id: str, tiny: bool) -> dict[str, float]:
    """Sweep metrics; ``tiny`` times each entry once instead of repeatedly."""
    metrics = {}
    for n_modes in SIZES:
        for name, call in sweep_calls(n_modes).items():
            with Tracer(run_id) as tracer:  # warm-up call, counts the workspaces
                call()
            times = []
            spent = 0.0
            while not times or (not tiny and (len(times) < MIN_REPS or spent < MIN_SECONDS)):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
                spent += times[-1]
            prefix = f"sweep.{name}.n{n_modes}"
            metrics[f"{prefix}.ms"] = statistics.median(times) * 1e3
            metrics[f"{prefix}.pairs"] = tracer.calls("core.build_workspace") * n_modes**2
            metrics[f"{prefix}.bytes"] = tracer.counters["core.workspace.bytes_computed"]
    return metrics
