"""Lossless JSON snapshots of interface states.

Coefficients are stored as real/imag interleaved float lists; Python's JSON
round-trips doubles through repr exactly, so load(save(s)) reproduces the
state bit for bit while the files stay human-diffable.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import InterfaceState
from .errors import SnapshotError

FORMAT_NAME = "muskat-snapshot"
FORMAT_VERSION = 1


def _interleave(coeffs: np.ndarray) -> list[float]:
    out = np.empty(2 * len(coeffs), dtype=float)
    out[0::2] = coeffs.real
    out[1::2] = coeffs.imag
    return out.tolist()


def _deinterleave(values: list[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or len(arr) % 2 != 0:
        raise SnapshotError("interleaved coefficient array has odd length")
    return arr[0::2] + 1j * arr[1::2]


@dataclass
class Snapshot:
    time: float
    n_modes: int
    p1: np.ndarray
    p2: np.ndarray
    config_digest: str
    diagnostics: dict | None = None

    def state(self) -> InterfaceState:
        return InterfaceState(self.p1, self.p2, self.time)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_snapshot(
    state: InterfaceState,
    path: str,
    config_digest: str = "",
    diagnostics: dict | None = None,
) -> None:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "time": state.time,
        "n_modes": state.n_modes,
        "p1": _interleave(state.p1),
        "p2": _interleave(state.p2),
        "config_digest": config_digest,
        "diagnostics": diagnostics,
    }
    atomic_write_text(path, json.dumps(payload, indent=1))


def load_snapshot(path: str) -> Snapshot:
    """Load and validate a snapshot; raises SnapshotError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise SnapshotError(f"{path} is not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot version {payload.get('version')} != supported {FORMAT_VERSION}"
        )
    try:
        p1 = _deinterleave(payload["p1"])
        p2 = _deinterleave(payload["p2"])
        n_modes = int(payload["n_modes"])
        time = float(payload["time"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot {path} is missing fields: {exc}") from exc
    if len(p1) != n_modes or len(p2) != n_modes:
        raise SnapshotError(f"snapshot {path} truncated: arrays do not match n_modes")
    return Snapshot(
        time=time,
        n_modes=n_modes,
        p1=p1,
        p2=p2,
        config_digest=payload.get("config_digest", ""),
        diagnostics=payload.get("diagnostics"),
    )
