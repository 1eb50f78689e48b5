import os
import subprocess
import sys

import numpy as np
import pytest

from muskat import InterfaceState, LiftedContour, SpectralGrid, integrator
from muskat.schedules import HeightSchedule, h_of


@pytest.fixture
def grid256():
    return SpectralGrid(256)


@pytest.fixture
def grid512():
    return SpectralGrid(512)


def gentle_state(grid: SpectralGrid) -> InterfaceState:
    """Smooth low-mode test interface used across the suite."""
    x = grid.nodes
    return InterfaceState(
        grid.to_spectral(-0.08 * np.sin(x) + 0.03 * np.sin(2 * x)),
        grid.to_spectral(0.05 * np.sin(x) + 0.02 * np.cos(2 * x)),
    )


def strip_state(grid: SpectralGrid, width: float = 0.3) -> InterfaceState:
    """Interface whose coefficients decay like e^{-width |k|} up to Nyquist.

    The coefficient law is fixed per wavenumber (independent of the grid),
    so refining the grid extends the same underlying analytic interface.
    """
    n = grid.n_modes
    c1 = np.zeros(n, dtype=complex)
    c2 = np.zeros(n, dtype=complex)
    for m in range(1, n // 2):
        s1 = np.sin(1.7 * m) * 0.05
        s2 = np.cos(0.9 * m) * 0.2
        c1[m] = -0.5j * s1 * np.exp(-width * m)
        c1[-m] = np.conj(c1[m])
        c2[m] = -0.5j * s2 * np.exp(-width * m)
        c2[-m] = np.conj(c2[m])
    return InterfaceState(c1, c2)


def pool_like(grid: SpectralGrid, seed: int) -> tuple[InterfaceState, LiftedContour]:
    """A band-limited analytic state and the upper contour of a schedule time, from ``seed``.

    Coefficients are complex normals times 0.02 e^{-|k|/2} for
    1 <= |k| <= N/3, conjugate-symmetric; the contour height is
    :func:`muskat.schedules.h_of` at a time drawn from [tau^2, tau].
    """
    rng = np.random.default_rng([seed, 2012])
    k = np.arange(1, grid.n_modes // 3 + 1)
    coeffs = np.zeros((2, grid.n_modes), dtype=complex)
    for row in coeffs:
        row[k] = 0.02 * np.exp(-0.5 * k) * (rng.normal(size=len(k)) + 1j * rng.normal(size=len(k)))
        row[-k] = np.conj(row[k])
    schedule = HeightSchedule()
    t = rng.uniform(schedule.tau**2, schedule.tau)
    return InterfaceState(*coeffs), LiftedContour.from_height(grid, h_of(grid.nodes, t, schedule))


def run_with_blas_threads(args: list[str], threads: int) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh process with BLAS capped at ``threads``.

    The child imports the same muskat package as this process; a nonzero
    exit fails the calling test with the child's stderr.
    """
    import muskat

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(muskat.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, os.path.dirname(os.path.abspath(__file__)), env.get("PYTHONPATH", "")]
    )
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def nan_rt_generalized_after_start(monkeypatch) -> None:
    """Make the generalized Rayleigh-Taylor monitor all NaN at every time after t = 0."""
    real = integrator.rt_generalized

    def nan_after_start(state, *args, **kwargs):
        monitor = real(state, *args, **kwargs)
        return monitor if state.time == 0.0 else np.full_like(monitor, np.nan)

    monkeypatch.setattr(integrator, "rt_generalized", nan_after_start)
