import os
import subprocess
import sys

import numpy as np
import pytest

from muskat import InterfaceState, SpectralGrid


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
