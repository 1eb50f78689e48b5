"""Lossless JSON snapshots of interface states, and the package's JSON writer.

Each coefficient row is stored as its real/imag interleaved float list, the
float64 view of the complex row; Python's JSON round-trips doubles through
repr exactly, signed zeros included, so load(save(s)) reproduces the state
bit for bit while the files stay human-diffable: :func:`write_json` puts one
element per line.  A non-finite coefficient or time is refused on load.  A
loaded :class:`Snapshot` is an :class:`~muskat.core.InterfaceState` that also
carries the header's config digest and diagnostics, so a run resumes from it
as it is.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .core import InterfaceState
from .errors import SnapshotError

FORMAT_NAME = "muskat-snapshot"
FORMAT_VERSION = 1


class Snapshot(InterfaceState):
    """A loaded snapshot: the state, which ``run`` takes as it is, and the header's
    ``config_digest`` and ``diagnostics``."""

    def __init__(self, p1, p2, time: float, config_digest: str = "",
                 diagnostics: dict | None = None):
        super().__init__(p1, p2, time)
        self.config_digest = config_digest
        self.diagnostics = diagnostics


def finite_or_null(value):
    """``value`` with every non-finite float in it, at any depth of dicts,
    lists and tuples, replaced by None: JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {key: finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    The file gets the mode a plain ``open(path, "w")`` gives, 0o666 less the
    umask, which the kernel applies to ``os.open``; ``tempfile.mkstemp``
    would make every artifact 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dumps(payload) -> str:
    return json.dumps(payload, allow_nan=False, sort_keys=True, separators=(",\n", ": "))


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` atomically as strict JSON (non-finite floats as null), keys sorted.

    The separators put one element per line; ``indent`` would send CPython's
    ``json`` to its pure-Python encoder.  A finite payload is dumped as it
    is; only one that the strict dump refuses is walked by
    :func:`finite_or_null`, which gives the same text where both succeed.
    """
    try:
        text = _dumps(payload)
    except ValueError:
        text = _dumps(finite_or_null(payload))
    atomic_write_text(path, text)


def save_snapshot(
    state: InterfaceState,
    path: str,
    config_digest: str = "",
    diagnostics: dict | None = None,
) -> None:
    """Write ``state`` as strict JSON; a non-finite float diagnostic is written as null."""
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "time": state.time,
        "n_modes": state.n_modes,
        "p1": state.p1.view(np.float64).tolist(),
        "p2": state.p2.view(np.float64).tolist(),
        "config_digest": config_digest,
        "diagnostics": diagnostics,
    }
    write_json(path, payload)


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
        # rows of different lengths raise ValueError
        interleaved = np.array([payload["p1"], payload["p2"]], np.float64)
        n_modes = int(payload["n_modes"])
        time = float(payload["time"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot {path} has missing or malformed fields: {exc}") from exc
    if interleaved.shape != (2, 2 * n_modes):
        raise SnapshotError(f"snapshot {path} truncated: arrays do not match n_modes")
    if not (np.isfinite(interleaved).all() and math.isfinite(time)):
        raise SnapshotError(f"snapshot {path} holds a non-finite coefficient or time")
    return Snapshot(*interleaved.view(complex), time, payload.get("config_digest", ""),
                    payload.get("diagnostics"))
