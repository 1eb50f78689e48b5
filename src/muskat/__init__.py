"""Pseudospectral contour dynamics for the periodic two-fluid Muskat problem."""

from .contour_ops import LiftedContour, garding_form, lambda_gamma, pv_cot_integral
from .core import (
    InterfaceState,
    a_tilde,
    chord_arc_constant,
    evaluate_on_contour,
    rhs,
)
from .decomposition import SAFE_COEFFICIENTS, D4Decomposition, rhs_d4_decomposition
from .grid import SpectralGrid, conjugate_symmetrize
from .initial_data import GraphFamilyParams, f_kappa, log_datum, make_turnover_state, perturb
from .integrator import (
    DiagnosticsRecord,
    PairMonitor,
    RunConfig,
    Trajectory,
    galerkin_rhs,
    run,
    step,
    two_solution_monitor,
)
from .schedules import (
    HeightSchedule,
    ScheduleMargins,
    h_of,
    h_t_of,
    hbar_of,
    hbar_t_of,
    rt_coupled_margins,
    schedule_margins,
)
from .stability import h4_distance, rt_generalized, rt_unperturbed

__all__ = [
    "D4Decomposition",
    "DiagnosticsRecord",
    "GraphFamilyParams",
    "HeightSchedule",
    "InterfaceState",
    "LiftedContour",
    "PairMonitor",
    "RunConfig",
    "SAFE_COEFFICIENTS",
    "ScheduleMargins",
    "SpectralGrid",
    "Trajectory",
    "a_tilde",
    "chord_arc_constant",
    "conjugate_symmetrize",
    "evaluate_on_contour",
    "f_kappa",
    "galerkin_rhs",
    "garding_form",
    "h4_distance",
    "h_of",
    "h_t_of",
    "hbar_of",
    "hbar_t_of",
    "lambda_gamma",
    "log_datum",
    "make_turnover_state",
    "perturb",
    "pv_cot_integral",
    "rhs",
    "rhs_d4_decomposition",
    "rt_coupled_margins",
    "rt_generalized",
    "rt_unperturbed",
    "run",
    "schedule_margins",
    "step",
    "two_solution_monitor",
]

__version__ = "0.1.0"
