"""In-memory spans around calls into muskat's public functions.

The tracer replaces each traced function with a wrapper in every module
that looks the name up, because ``from .core import rhs`` copies the
reference: patching ``muskat.core.rhs`` alone would miss the calls made by
``muskat.integrator`` and ``muskat.decomposition``.  A span is
``(name, start, end, parent)``; spans stay in a list until the run ends and
are written out afterwards.  The library itself is not modified.

Self time of a span is its duration minus the time its direct children
cover.  Inclusive time of a layer is the union of its spans, so nested or
recursive spans of one layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _state_pairs(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return len(state.p1) ** 2


def _workspace_bytes(args, kwargs, result):
    total = 0
    for value in vars(result).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            total += sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
    return total


def _written_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


# span name -> (targets "module:attr[.attr]", counter name, counter function).
# Every module that imports the function by name is listed, so all call
# sites go through the wrapper.  Counter functions see (args, kwargs,
# result) and return the amount to add.
SPAN_POINTS = {
    "grid.transform": (
        ["muskat.grid:SpectralGrid.to_spectral", "muskat.grid:SpectralGrid.from_spectral"],
        None, None,
    ),
    "core.rhs": (
        ["muskat.core:rhs", "muskat.integrator:rhs", "muskat.decomposition:rhs"],
        "core.rhs.pairs", _state_pairs,
    ),
    "core.build_workspace": (
        ["muskat.core:build_workspace", "muskat.decomposition:build_workspace"],
        "core.workspace.bytes_computed", _workspace_bytes,
    ),
    "core.chord_arc": (
        ["muskat.core:chord_arc_from_workspace", "muskat.decomposition:chord_arc_from_workspace"],
        None, None,
    ),
    "core.chord_arc_constant": (
        ["muskat.core:chord_arc_constant", "muskat.integrator:chord_arc_constant"],
        None, None,
    ),
    "core.a_tilde": (
        ["muskat.core:a_tilde", "muskat.stability:a_tilde"],
        None, None,
    ),
    "core.evaluate_on_contour": (
        ["muskat.core:evaluate_on_contour", "muskat.stability:evaluate_on_contour"],
        None, None,
    ),
    "integrator.run": (
        ["muskat.integrator:run", "muskat.scenarios:run"], None, None,
    ),
    "integrator.step": (["muskat.integrator:step"], None, None),
    # The run loop checks its stop conditions once per accepted step, whatever
    # the step controller; counting those calls counts accepted steps.
    "integrator.accepted": (["muskat.integrator:_check_stops"], None, None),
    "integrator.diagnostics_for": (["muskat.integrator:diagnostics_for"], None, None),
    "stability.rt_generalized": (
        ["muskat.stability:rt_generalized", "muskat.integrator:rt_generalized"],
        None, None,
    ),
    "stability.h4_distance": (
        ["muskat.stability:h4_distance", "muskat.integrator:h4_distance"],
        None, None,
    ),
    "contour_ops.lambda_gamma": (
        ["muskat.contour_ops:lambda_gamma", "muskat.scenarios:lambda_gamma"],
        None, None,
    ),
    "contour_ops.pv_cot_integral": (
        ["muskat.contour_ops:pv_cot_integral", "muskat.scenarios:pv_cot_integral"],
        None, None,
    ),
    "decomposition.rhs_d4_decomposition": (
        ["muskat.decomposition:rhs_d4_decomposition"],
        None, None,
    ),
    "config.load": (
        ["muskat.config:load_config", "muskat.config:load_config_text",
         "muskat.cli:load_config", "muskat.cli:load_config_text"],
        None, None,
    ),
    "io.write": (
        ["muskat.snapshots:atomic_write_text", "muskat.scenarios:atomic_write_text"],
        "io.write.bytes", _written_bytes,
    ),
}


def _resolve(target):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters while installed; restores every name on uninstall."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter, count):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for name, (targets, counter, count) in SPAN_POINTS.items():
            for target in targets:
                try:
                    owner, attr = _resolve(target)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, counter, count)
                setattr(owner, attr, wrappers[id(original)])
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation -----------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(1 for span in self.spans if span[0] in names)

    def inclusive_s(self, *names: str) -> float:
        """Union of the spans of the named layers (outermost spans only)."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def self_s(self, name: str) -> float:
        """Duration of the named spans minus the time their direct children cover."""
        total = 0.0
        for name_i, start, end, _ in self.spans:
            if name_i == name:
                total += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                total -= end - start
        return total

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, run id."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (setup spans included)."""
    t = tracer
    rhs_calls = t.calls("core.rhs")
    rhs_s = t.inclusive_s("core.rhs")
    pairs = t.counters["core.rhs.pairs"]
    accepted = t.calls("integrator.accepted")
    return {
        "grid.transform.calls": t.calls("grid.transform"),
        "grid.transform.s": t.inclusive_s("grid.transform"),
        "core.rhs.calls": rhs_calls,
        "core.rhs.s": rhs_s,
        "core.rhs.self_s": t.self_s("core.rhs"),
        "core.rhs.share": rhs_s / run_s,
        "core.rhs.pairs": pairs,
        "core.rhs.ns_per_pair": rhs_s / pairs * 1e9 if pairs else 0.0,
        "core.build_workspace.s": t.inclusive_s("core.build_workspace"),
        "core.workspace.bytes_computed": t.counters["core.workspace.bytes_computed"],
        "core.chord_arc.calls": t.calls("core.chord_arc"),
        "core.chord_arc.s": t.inclusive_s("core.chord_arc", "core.chord_arc_constant"),
        "core.a_tilde.s": t.inclusive_s("core.a_tilde"),
        "core.evaluate_on_contour.s": t.inclusive_s("core.evaluate_on_contour"),
        "integrator.step.calls": t.calls("integrator.step"),
        "integrator.step.self_s": t.self_s("integrator.step"),
        "integrator.accepted_steps": accepted,
        "integrator.rhs_per_accepted_step": rhs_calls / accepted if accepted else 0.0,
        "integrator.diagnostics_for.calls": t.calls("integrator.diagnostics_for"),
        "integrator.diagnostics_for.s": t.inclusive_s("integrator.diagnostics_for"),
        "stability.rt_generalized.s": t.inclusive_s("stability.rt_generalized"),
        "stability.h4_distance.s": t.inclusive_s("stability.h4_distance"),
        "contour_ops.lambda_gamma.s": t.inclusive_s("contour_ops.lambda_gamma"),
        "contour_ops.pv_cot_integral.s": t.inclusive_s("contour_ops.pv_cot_integral"),
        "decomposition.rhs_d4_decomposition.s": t.inclusive_s(
            "decomposition.rhs_d4_decomposition"),
        "config.load.s": t.inclusive_s("config.load"),
        "io.write.s": t.inclusive_s("io.write"),
        "io.write.bytes": t.counters["io.write.bytes"],
    }
