"""Structural decomposition of a pattern for candidate generation.

A pattern of length m with threshold k always admits one of three shapes:
2k disjoint high-period fragments (breaks), a set of long repetitive regions
each close to a short primitive period, or one global approximate period.
The decomposition drives which candidate-generation strategy the matcher
uses.  All subroutines here are exact: the sign test against the edit budget
and the prefix search use exact periodic distances rather than sampling.  A
region search reads the distance of every prefix it probes from one cyclic
DP over the pattern (one column per end position mod the period), stepped
only as far as its probes reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ._dp import periodic_row_minima
from .distance import ed_periodic
from .graph import InternalInvariantBroken
from .strings import is_primitive, per
from .symbols import Str


@dataclass(frozen=True)
class Break:
    start: int
    end: int


@dataclass(frozen=True)
class Region:
    start: int
    end: int
    period: Str
    budget: int  # the exact periodic-extension distance reached


@dataclass(frozen=True)
class Decomposition:
    kind: str  # 'breaks' | 'regions' | 'period'
    breaks: Tuple[Break, ...] = ()
    regions: Tuple[Region, ...] = ()
    period: Optional[Str] = None


def edit_budget(length: int, k: int, m: int) -> int:
    """ceil(8k/m * length), exactly in integers."""
    return -(-8 * k * length // m)


def delta_sign(p: Str, j: int, j2: int, q: Str, k: int) -> int:
    """Sign of ed_periodic(p[j:j2], q) - ceil(8k/m * (j2-j))."""
    m = len(p)
    L = m // (8 * k)
    if not (j + L < j2 <= m):
        raise IndexError(f"j2 = {j2} outside (j + m/8k, m] = ({j + L}, {m}]")
    d = ed_periodic(p[j:j2], q, "substring") - edit_budget(j2 - j, k, m)
    return (d > 0) - (d < 0)


def _deficits(s: Str, q: Str, k: int, m: int) -> Callable[[int], int]:
    """deficit(ell) = ed_periodic(s[:ell], q) - edit_budget(ell, k, m).

    Every prefix distance comes from one cyclic DP over s, whose rows are
    stepped only as far as the probes have reached.
    """
    rows = periodic_row_minima(s.codes, q.codes, False)
    costs: List[int] = []

    def deficit(ell: int) -> int:
        while len(costs) <= ell:
            costs.append(next(rows)[0])
        return costs[ell] - edit_budget(ell, k, m)

    return deficit


def find_region_prefix(p: Str, j: int, q: Str, k: int) -> Optional[int]:
    """Endpoint j2 of a prefix of p[j:] whose periodic distance hits its budget.

    Exponential probing doubles the prefix length until the budget deficit
    changes sign, then a binary search homes in on a zero: the deficit can
    only step up by one per unit of length, so a sign change brackets an
    exact zero.  None certifies that the whole of p[j:] stays within budget.
    """
    m = len(p)
    L = m // (8 * k)
    limit = m - j
    if limit <= L:
        return None
    deficit = _deficits(p[j:], q, k, m)
    probes: List[int] = []
    ell = 1
    while ell < limit:
        probes.append(ell)
        ell *= 2
    probes.append(limit)
    lo = L  # deficit is negative at length <= L: the fragment is exactly periodic
    hi = None
    for ell in probes:
        if ell <= L:
            continue
        d = deficit(ell)
        if d == 0:
            return j + ell
        if d > 0:
            hi = ell
            break
        lo = ell
    if hi is None:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        d = deficit(mid) if mid > L else -1
        if d == 0:
            return j + mid
        if d > 0:
            hi = mid
        else:
            lo = mid
    raise InternalInvariantBroken("budget deficit jumped over zero")


def find_region_suffix(p: Str, j: int, q: Str, k: int) -> Optional[int]:
    """Start of a suffix of p with length >= m - j meeting its budget exactly.

    Mirror of find_region_prefix on the reversed strings; entered only after
    the forward search certified the deficit at length m - j is <= 0.
    """
    m = len(p)
    deficit = _deficits(p.reverse(), q.reverse(), k, m)

    base = m - j
    d = deficit(base)
    if d > 0:
        raise InternalInvariantBroken("suffix search entered with positive deficit")
    if d == 0:
        return j
    lo, hi = base, None
    step = 1
    while base + step < m:
        d = deficit(base + step)
        if d == 0:
            return m - (base + step)
        if d > 0:
            hi = base + step
            break
        lo = base + step
        step *= 2
    if hi is None:
        d = deficit(m)
        if d == 0:
            return 0
        if d < 0:
            return None
        hi = m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        d = deficit(mid)
        if d == 0:
            return m - mid
        if d > 0:
            hi = mid
        else:
            lo = mid
    raise InternalInvariantBroken("budget deficit jumped over zero")


def analyze(p: Str, k: int) -> Decomposition:
    """Decompose p into breaks, repetitive regions, or an approximate period.

    Scans left to right in chunks of floor(m/8k) characters: a chunk whose
    period exceeds m/128k becomes a break; otherwise its period witness is
    grown into a repetitive region, and if even the remaining suffix stays
    within budget the witness is a global approximate period.  Requires
    8k <= m so that chunks are nonempty.
    """
    m = len(p)
    if k < 1:
        raise ValueError("threshold must be positive")
    if 8 * k > m:
        raise ValueError(f"analysis needs 8k <= m (k={k}, m={m})")
    L = m // (8 * k)
    breaks: List[Break] = []
    regions: List[Region] = []
    covered = 0
    j = 0
    while True:
        frag = p[j : j + L]
        pp = per(frag)
        if pp * 128 * k > m:
            breaks.append(Break(j, j + L))
            j += L
            if len(breaks) == 2 * k:
                return Decomposition("breaks", breaks=tuple(breaks))
            continue
        q = p[j : j + pp]
        end = find_region_prefix(p, j, q, k)
        if end is not None:
            regions.append(Region(j, end, q, edit_budget(end - j, k, m)))
            covered += end - j
            j = end
            if 8 * covered >= 3 * m:
                return Decomposition("regions", regions=tuple(regions))
            continue
        start = find_region_suffix(p, j, q, k)
        if start is not None:
            region = Region(start, m, q, edit_budget(m - start, k, m))
            return Decomposition("regions", regions=(region,))
        return Decomposition("period", period=q)


def verify_decomposition(p: Str, k: int, d: Decomposition) -> bool:
    """Recompute every invariant of a decomposition from scratch."""
    m = len(p)
    if 8 * k > m:
        return False
    L = m // (8 * k)
    if d.kind == "breaks":
        if len(d.breaks) != 2 * k:
            return False
        spans = sorted((b.start, b.end) for b in d.breaks)
        for idx, (s, e) in enumerate(spans):
            if e - s != L or s < 0 or e > m:
                return False
            if idx and spans[idx - 1][1] > s:
                return False
            if per(p[s:e]) * 128 * k <= m:
                return False
        return True
    if d.kind == "regions":
        if not d.regions:
            return False
        spans = sorted((r.start, r.end) for r in d.regions)
        total = 0
        for idx, (s, e) in enumerate(spans):
            if s < 0 or e > m or e <= s:
                return False
            if idx and spans[idx - 1][1] > s:
                return False
            total += e - s
        if 8 * total < 3 * m:
            return False
        for r in d.regions:
            length = r.end - r.start
            if 8 * k * length < m:
                return False
            if 128 * k * len(r.period) > m:
                return False
            if not is_primitive(r.period):
                return False
            if ed_periodic(p[r.start : r.end], r.period, "substring") != edit_budget(length, k, m):
                return False
            if r.budget != edit_budget(length, k, m):
                return False
        return True
    if d.kind == "period":
        q = d.period
        if q is None or len(q) == 0:
            return False
        if 128 * k * len(q) > m:
            return False
        if not is_primitive(q):
            return False
        return ed_periodic(p, q, "substring") < 8 * k
    return False
