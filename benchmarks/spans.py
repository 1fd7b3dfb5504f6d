"""Outside-in tracing of the sizematch layers, from the benchmark's own files.

``Tracer.installed()`` replaces each traced function at every module global
(and the one class attribute) through which callers look it up, so that a
call from ``cli`` into ``bounds.bound_report`` and on into
``bounds.earlier_bound`` records three nested spans.  On exit every
replaced attribute gets back the very object it held before.

A span is ``(name, start_ns, end_ns, parent, job, failed)``; ``parent`` is
the index of the enclosing span or -1.  Spans stay in memory until the run
writes them out.  Work counts are read from arguments and return values,
never from inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# The layers are sizematch's modules; selftest serves no request and is left out.
LAYERS = ("core", "diagram", "matching", "bounds", "realize", "cli")


def _breaks(diagram) -> int:
    """Distinct x breaks (infinity_x included) plus distinct y breaks of a diagram."""
    xs = {diagram.infinity_x} | {p.x for p, _ in diagram.points}
    ys = {p.y for p, _ in diagram.points}
    return len(xs) + len(ys)


# span name -> work counts read from (args, result) of a call that returned
TRACED: Dict[str, Optional[Callable]] = {
    "core.load_size_pair": None,
    "core.parse_size_pair": lambda a, r: {"core.vertices": r.n_vertices, "core.edges": r.n_edges},
    "diagram.extract_diagram": lambda a, r: {
        "diagram.extract_diagram.vertices_in": a[0].n_vertices,
        "diagram.extract_diagram.points_out": r.total_multiplicity,
    },
    "diagram.Diagram.from_json_dict": None,
    "matching.matching_distance": lambda a, r: {
        "matching.matching_distance.points_in": a[0].total_multiplicity + a[1].total_multiplicity,
        "matching.matching_distance.pairs_out": len(r[1].pairs),
    },
    "bounds.bound_report": None,
    "bounds.earlier_bound": lambda a, r: {"bounds.earlier_bound.breaks_in": _breaks(a[0]) + _breaks(a[1])},
    "bounds.exact_graph_pseudo_distance": None,
    "realize.realize": lambda a, r: {"realize.realize.structures": len(r[2].structures)},
    "realize.discretize": lambda a, r: {"realize.discretize.vertices_out": r.n_vertices},
    "realize.max_field_gap": None,
    "cli.main": None,
}

COUNTS = (
    "core.vertices",
    "core.edges",
    "diagram.extract_diagram.vertices_in",
    "diagram.extract_diagram.points_out",
    "matching.matching_distance.points_in",
    "matching.matching_distance.pairs_out",
    "bounds.earlier_bound.breaks_in",
    "realize.discretize.vertices_out",
    "realize.realize.structures",
    "cli.output_bytes",
)


def layer_modules() -> List:
    return [importlib.import_module(f"sizematch.{layer}") for layer in LAYERS]


class Tracer:
    """Records nested spans and work counts while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.job = -1
        self._open: List[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = TRACED[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0, 0, self._open[-1] if self._open else -1, self.job, False]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        modules = layer_modules()
        by_name = {module.__name__.rsplit(".", 1)[1]: module for module in modules}
        diagram_cls = by_name["diagram"].Diagram
        saved = []
        try:
            for name in TRACED:
                layer, _, attr = name.partition(".")
                if name == "diagram.Diagram.from_json_dict":
                    raw = diagram_cls.__dict__["from_json_dict"]
                    saved.append((diagram_cls, "from_json_dict", raw))
                    setattr(diagram_cls, "from_json_dict", classmethod(self._wrap(name, raw.__func__)))
                    continue
                original = getattr(by_name[layer], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, value))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, value in reversed(saved):
                setattr(owner, key, value)

    def self_times(self) -> List[int]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def consistent(self) -> bool:
        """Per job, the self times of all its spans add up to its root span's busy time."""
        totals: Dict[int, int] = defaultdict(int)
        roots: Dict[int, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            _, start, end, parent, job, _ = span
            totals[job] += own
            if parent < 0:
                roots[job] += end - start
        return all(own >= 0 for own in self.self_times()) and totals == roots

    def layer_metrics(self) -> Dict[str, float]:
        """calls, busy_s, self_s and failed per traced function, plus the work counts."""
        metrics: Dict[str, float] = {}
        busy: Dict[str, int] = defaultdict(int)
        own_total: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        failed: Dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, _, bad = span
            calls[name] += 1
            busy[name] += end - start
            own_total[name] += own
            failed[name] += bad
        for name in TRACED:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.busy_s"] = busy[name] / 1e9
            metrics[f"{name}.self_s"] = own_total[name] / 1e9
            metrics[f"{name}.failed"] = failed[name]
        for key in COUNTS:
            metrics[key] = self.counts[key]
        extract_busy = busy["diagram.extract_diagram"] / 1e9
        metrics["diagram.extract_diagram.vertices_per_s"] = (
            self.counts["diagram.extract_diagram.vertices_in"] / extract_busy if extract_busy else 0.0
        )
        exact = "bounds.exact_graph_pseudo_distance"
        metrics[f"{exact}.solved_frac"] = (
            (calls[exact] - failed[exact]) / calls[exact] if calls[exact] else 0.0
        )
        return metrics
