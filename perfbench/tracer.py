"""Span tracer that times editsketch's layers from outside the package.

Modules inside editsketch import names directly (``from .distance import
optimal_alignment``), so wrapping a function where it is defined records
nothing.  The tracer instead replaces each name where it is bound at its
call site, records one span per call while an operation is active, and puts
every original back on ``uninstall``.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the identifier shared by every
span of one (instance, operation).  Spans stay in memory; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

# (module under editsketch, attribute, span name).  Several call sites may
# share one span name: the layer is what the per-layer metrics report.
CALL_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("matcher", "analyze", "analysis.analyze"),
    ("matcher", "exact_occurrences", "strings.exact_occurrences"),
    ("matcher", "candidates_breaks", "matcher.candidates"),
    ("matcher", "candidates_regions", "matcher.candidates"),
    ("matcher", "candidates_approx_period", "matcher.candidates"),
    ("matcher", "candidates_periodic", "matcher.candidates_periodic"),
    ("matcher", "verify_candidates", "matcher.verify"),
    ("matcher", "match_banded", "matcher.match_banded"),
    ("sketch", "find_occurrences", "matcher.find_occurrences"),
    ("sketch", "match_banded", "matcher.match_banded"),
    ("sketch", "optimal_alignment", "distance.optimal_alignment"),
    ("sketch", "structure_from_pairs", "window.structure"),
    ("sketch", "edit_info", "alignment.edit_info"),
    ("sketch", "reconstruct_points", "alignment.reconstruct_points"),
    ("sketch", "lz77", "compress.lz77"),
    ("sketch", "build_graph", "graph.build_graph"),
    ("sketch", "black_indexing", "graph.black_indexing"),
    ("window", "optimal_alignment", "distance.optimal_alignment"),
    ("window", "build_graph", "graph.build_graph"),
    ("window", "black_indexing", "graph.black_indexing"),
    ("window", "weight_function", "graph.weight_function"),
    ("window", "captures", "graph.captures"),
    ("window", "extend_set", "graph.extend_set"),
    ("window", "cover_recursive", "graph.cover"),
    ("window", "mask", "graph.mask"),
    ("graph", "lz_size_leq", "compress.lz_size_leq"),
    ("graph", "selfed_leq", "compress.selfed_leq"),
)


class CallSiteMissing(RuntimeError):
    """A traced name is no longer bound where the tracer expects it."""


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """Records nested spans and summaries of wrapped calls' results.

    Calls made while no operation is active (``op is None``) pass straight
    through, so output checks run between operations leave no spans.
    ``keep`` maps a span name to a function that summarizes each result of
    that name into ``results[name]``.
    """

    def __init__(self, keep: Optional[Dict[str, Callable[[object], object]]] = None, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.keep = dict(keep or {})
        self.spans: List[Span] = []
        self.results: Dict[str, List[object]] = defaultdict(list)
        self.op: Optional[int] = None
        self._stack: List[int] = []  # indices of open spans
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        op = -1 if self.op is None else self.op
        self.spans.append(Span(name, self.clock(), math.nan, parent, op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        end = self.clock()
        if not self._stack or self._stack.pop() != idx:
            raise RuntimeError("spans must close innermost first")
        self.spans[idx] = self.spans[idx]._replace(end=end)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span and keep the summary of its result."""
        idx = self.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end(idx)
        keep = self.keep.get(name)
        if keep is not None:
            self.results[name].append(keep(out))
        return out

    # -- call-site wrappers -------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped_by_tracer__ = True  # type: ignore[attr-defined]
        return traced

    def install(self, sites: Sequence[Tuple[str, str, str]] = CALL_SITES) -> None:
        """Wrap every call site; all sites are checked before any is patched."""
        targets = []
        for mod_name, attr, span_name in sites:
            mod = importlib.import_module(f"editsketch.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None or not callable(fn):
                raise CallSiteMissing(f"editsketch.{mod_name}.{attr} is not bound; the tracer cannot time {span_name}")
            if getattr(fn, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"editsketch.{mod_name}.{attr} is already traced")
            targets.append((mod, attr, fn, span_name))
        for mod, attr, fn, span_name in targets:
            setattr(mod, attr, self.wrap(span_name, fn))
            self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# aggregation


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span], weight: Optional[Callable[[Span], float]] = None) -> Dict[str, float]:
    """Per span name: summed duration minus what the span's children cover,
    each span's share multiplied by ``weight(span)`` when given."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        own = (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        out[s.name] += own * (weight(s) if weight is not None else 1.0)
    return dict(out)


def call_counts(spans: Sequence[Span]) -> Dict[str, int]:
    out: Dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)
