"""Outside-in span tracer for the ``ninepoint`` package.

The package modules bind each other's functions with ``from .x import f``,
so a function is reachable under several module attributes.  The tracer
replaces the listed functions at every binding in every ``ninepoint``
module, records one span per call (name, start, end, parent, request) in
memory, and on exit puts each original object back, checking with ``is``
that it did.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from types import ModuleType
from typing import Callable, Dict, List, Sequence, Tuple

PACKAGE = "ninepoint"

TRACED: Tuple[str, ...] = (
    "numeric.sqrt_exact",
    "triangle.metrics",
    "triangle.canonical_vertices",
    "triangle.barycentric_distance_sq",
    "centers.vertex_to_ninepoint_dist_sq",
    "centers.center_set",
    "feuerbach.classify_tangency_sq",
    "feuerbach.feuerbach_report",
    "feuerbach.incircle_ninepoint_residual",
    "feuerbach.excircle_ninepoint_residual",
    "harness.random_triangle",
    "harness.cartesian_oracle",
    "harness.check_identity_suite",
    "svg.render_svg",
    "cli.main",
    "cli.cmd_fuzz",
    "cli.cmd_feuerbach",
    "cli.cmd_compute",
    "cli.cmd_svg",
)

# Functions whose useful outcome is a non-None result (a root was found).
HIT_COUNTED = frozenset({"numeric.sqrt_exact"})

NO_PARENT = -1

# (name index, start ns, end ns, parent span index, request id)
Span = Tuple[int, int, int, int, int]


class Tracer:
    """Context manager that wraps ``TRACED`` while it is active."""

    def __init__(self, names: Tuple[str, ...] = TRACED) -> None:
        self.names = names
        self.spans: List[Span] = []
        self.hits = [0] * len(names)
        self.request = 0
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[ModuleType, str, Callable]] = []

    def _wrap(self, index: int, original: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        hits = self.hits
        clock = time.perf_counter_ns
        count_hits = self.names[index] in HIT_COUNTED

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else NO_PARENT
            request = self.request
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, request)
            if count_hits and result is not None:
                hits[index] += 1
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        # Keyed by id(original); each wrapper holds its original alive.
        wrappers: Dict[int, Callable] = {}
        for index, qualified in enumerate(self.names):
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), func_name, None)
            if original is None:
                self.absent.append(qualified)
                continue
            wrappers[id(original)] = self._wrap(index, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        moved = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        self._patched.clear()
        if moved:
            raise RuntimeError(f"tracer could not restore {moved}")

    def summary(self, scale: Sequence[float]) -> Dict[str, Dict[str, float]]:
        """Per function: calls, self time in ns with request r's spans
        multiplied by ``scale[r]``, and hits where counted."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent != NO_PARENT:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "self_ns": 0.0, "hits": self.hits[i]} for i, name in enumerate(self.names)}
        for slot, (index, start, end, _, request) in enumerate(self.spans):
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["self_ns"] += (end - start - child_ns[slot]) * scale[request]
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated request, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("request\tname\tstart_ns\tend_ns\tparent\n")
            for index, start, end, parent, request in self.spans:
                handle.write(f"{request}\t{self.names[index]}\t{start}\t{end}\t{parent}\n")
