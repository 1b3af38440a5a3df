"""Per-layer tracing of randsurf from outside the package.

A Tracer replaces the package's functions, as their callers look them
up, with wrappers that record one span per call: an id, the id of the
enclosing span, a layer name, start and end times and a work count.
Nothing under ``src/`` changes; ``Tracer.installed`` puts the originals
back on exit.

Worker processes of the Monte Carlo pool are forked with the wrappers
in place.  A chunk run in a worker ships its spans back to the parent
inside the returned tallies, and the wrapped ``Tallies.merge`` collects
them, so the spans stay in memory until the run ends.  Span ids are
``(pid, n)`` pairs, and ``perf_counter`` reads the system-wide
monotonic clock on Linux, so spans from several processes share one
timeline.  A pool started by another method than fork runs untraced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

SHIPPED = "_bench_spans"


class Span(NamedTuple):
    sid: tuple[int, int]
    parent: tuple[int, int] | None
    name: str
    start: float
    end: float
    work: int


def _label_steps(args, result) -> int:
    g, word_class = args[0], args[1]
    return 6 * g.half_count * word_class.word_length


def _classes_returned(args, result) -> int:
    return len(result.counts)


def _nonprimitive_requested(args, result) -> int:
    return sum(not c.primitive for c in args[0].classes)


# (module, attribute as the caller looks it up, layer, work count)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("randsurf.cli", "_resolve_classes", "words.resolve", None),
    ("randsurf.cli", "run_plan", "montecarlo.run_plan", None),
    ("randsurf.cli", "summarize", "montecarlo.summarize", None),
    ("randsurf.cli", "exact_joint_distribution", "exact.enumerate", None),
    ("randsurf.montecarlo", "_run_chunk", "montecarlo.chunk", _nonprimitive_requested),
    ("randsurf.montecarlo", "sample_uniform_gluing", "gluing.sample", None),
    ("randsurf.montecarlo", "class_count_primitive", "cycles.fixed_point", _label_steps),
    ("randsurf.montecarlo", "count_cycles", "cycles.search", _classes_returned),
    ("randsurf.montecarlo", "topology", "gluing.topology", None),
    ("randsurf.montecarlo", "bound_report", "bounds.bound_report", None),
    ("randsurf.montecarlo", "tv_distance", "dists.tv", None),
    ("randsurf.montecarlo", "product_poisson_on", "dists.reference", None),
    ("randsurf.exact", "count_vector", "cycles.count_vector", None),
    ("randsurf.exact", "tv_distance", "dists.tv", None),
    ("randsurf.exact", "product_poisson_on", "dists.reference", None),
    ("randsurf.gluing", "Gluing.__post_init__", "gluing.validate", None),
)
ROOT_LAYER = "cli.main"
SHIPPING_LAYER = "montecarlo.chunk"

# metric name -> unit; every traced run reports all of them
PER_LAYER: dict[str, str] = {
    "gluing.sample_s": "s",
    "gluing.sample_calls": "count",
    "gluing.validate_s": "s",
    "gluing.validate_calls": "count",
    "gluing.topology_s": "s",
    "gluing.topology_calls": "count",
    "cycles.fixed_point_s": "s",
    "cycles.fixed_point_calls": "count",
    "cycles.fixed_point_label_steps": "count",
    "cycles.count_vector_s": "s",
    "cycles.count_vector_calls": "count",
    "cycles.search_s": "s",
    "cycles.search_calls": "count",
    "cycles.search_classes_returned": "count",
    "cycles.search_useful_frac": "ratio",
    "montecarlo.run_plan_s": "s",
    "montecarlo.run_plan_self_s": "s",
    "montecarlo.chunk_self_s": "s",
    "montecarlo.chunks": "count",
    "montecarlo.summarize_s": "s",
    "bounds.bound_report_s": "s",
    "exact.enumerate_self_s": "s",
    "exact.gluings": "count",
    "dists.tv_s": "s",
    "dists.reference_s": "s",
    "words.resolve_s": "s",
    "cli.serialize_s": "s",
    "trace_overhead_frac": "ratio",
}


def _locate(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, leaf):
        return None, leaf
    return owner, leaf


class Tracer:
    """Spans of one traced command, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int]] = []
        self._ids = itertools.count()
        self._pid = os.getpid()

    def wrap(self, fn: Callable, layer: str, work: Callable | None = None) -> Callable:
        ship = layer == SHIPPING_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (os.getpid(), next(self._ids))
            parent = self._stack[-1] if self._stack else None
            mark = len(self.spans)
            self._stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                count = work(args, result) if work and result is not None else 0
                self.spans.append(Span(sid, parent, layer, start, end, count))
                if ship and result is not None and os.getpid() != self._pid:
                    result.__dict__[SHIPPED] = self.spans[mark:]
                    del self.spans[mark:]

        return traced

    def _collecting(self, merge: Callable) -> Callable:
        @functools.wraps(merge)
        def merged(tallies, other):
            self.spans.extend(other.__dict__.pop(SHIPPED, ()))
            return merge(tallies, other)

        return merged

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target that exists; restore the originals on exit."""
        undo = []
        try:
            for module, attr, layer, work in TARGETS:
                owner, leaf = _locate(module, attr)
                if owner is not None:
                    original = getattr(owner, leaf)
                    undo.append((owner, leaf, original))
                    setattr(owner, leaf, self.wrap(original, layer, work))
            owner, leaf = _locate("randsurf.montecarlo", "Tallies.merge")
            if owner is not None:
                original = getattr(owner, leaf)
                undo.append((owner, leaf, original))
                setattr(owner, leaf, self._collecting(original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered(children[s.sid], s.start, s.end)
        for s in spans
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times, calls and work counts of one traced command.

    ``trace_overhead_frac`` needs an untraced run and is left to the
    caller.  Layers that did not run report zero.
    """
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    requested = 0
    run_plan_s = 0.0
    for s in spans:
        self_s[s.name] += own[s.sid]
        calls[s.name] += 1
        work[s.name] += s.work
        if s.name == "cycles.search" and s.parent in by_id:
            requested += by_id[s.parent].work
        if s.name == "montecarlo.run_plan":
            run_plan_s += s.end - s.start
    returned = work["cycles.search"]
    return {
        "gluing.sample_s": self_s["gluing.sample"],
        "gluing.sample_calls": calls["gluing.sample"],
        "gluing.validate_s": self_s["gluing.validate"],
        "gluing.validate_calls": calls["gluing.validate"],
        "gluing.topology_s": self_s["gluing.topology"],
        "gluing.topology_calls": calls["gluing.topology"],
        "cycles.fixed_point_s": self_s["cycles.fixed_point"],
        "cycles.fixed_point_calls": calls["cycles.fixed_point"],
        "cycles.fixed_point_label_steps": work["cycles.fixed_point"],
        "cycles.count_vector_s": self_s["cycles.count_vector"],
        "cycles.count_vector_calls": calls["cycles.count_vector"],
        "cycles.search_s": self_s["cycles.search"],
        "cycles.search_calls": calls["cycles.search"],
        "cycles.search_classes_returned": returned,
        "cycles.search_useful_frac": requested / returned if returned else 0.0,
        "montecarlo.run_plan_s": run_plan_s,
        "montecarlo.run_plan_self_s": self_s["montecarlo.run_plan"],
        "montecarlo.chunk_self_s": self_s["montecarlo.chunk"],
        "montecarlo.chunks": calls["montecarlo.chunk"],
        "montecarlo.summarize_s": self_s["montecarlo.summarize"],
        "bounds.bound_report_s": self_s["bounds.bound_report"],
        "exact.enumerate_self_s": self_s["exact.enumerate"],
        "exact.gluings": calls["cycles.count_vector"],
        "dists.tv_s": self_s["dists.tv"],
        "dists.reference_s": self_s["dists.reference"],
        "words.resolve_s": self_s["words.resolve"],
        "cli.serialize_s": self_s[ROOT_LAYER],
    }
