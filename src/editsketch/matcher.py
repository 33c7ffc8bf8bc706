"""End-to-end k-error matching: reference path and candidate pipeline.

The reference path (match_banded) verifies every text position as a
start.  The pipeline analyzes the pattern once, generates a provably
complete candidate-start set according to the decomposition case, and
verifies only the candidates.  Candidate generation is deterministic: every
break (or region) contributes, rather than a sampled one, which turns the
probabilistic completeness claims into plain superset guarantees.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from . import _dp
from .alignment import CostedOccurrence
from .analysis import Decomposition, analyze, edit_budget
from .distance import ed_periodic_witness
from .strings import exact_occurrences
from .symbols import Str
from .window import grow_window_structure

Pair = Tuple[int, int, int]


class CandidateSupersetBroken(AssertionError):
    """A candidate set missed a true occurrence start (checked in tests)."""


def assert_superset(p: Str, t: Str, k: int, cand: "CandidateSet") -> None:
    """Oracle check that every true occurrence start is a candidate."""
    truth = {o.start for o in match_banded(p, t, k)}
    missing = truth - cand.starts
    if missing:
        raise CandidateSupersetBroken(f"candidates missed starts {sorted(missing)[:8]}")


@dataclass
class CandidateSet:
    """Candidate occurrence starts."""

    k: int
    starts: Set[int] = field(default_factory=set)

    def add_range(self, lo: int, hi: int, clip_hi: int) -> None:
        self.starts.update(range(max(0, lo), min(hi, clip_hi) + 1))

    def sorted_starts(self) -> List[int]:
        return sorted(self.starts)

    def buckets(self) -> Set[int]:
        return {s // self.k for s in self.starts} if self.k else set(self.starts)


# ---------------------------------------------------------------------------


def match_banded(p: Str, t: Str, k: int) -> Set[CostedOccurrence]:
    """Reference matcher: every qualifying (start, end) pair, verified from every start."""
    return _verify_starts(p, t, k, range(0, _start_limit(p, t, k) + 1))


def _start_limit(p: Str, t: Str, k: int) -> int:
    return max(-1, min(len(t), len(t) - len(p) + k))


def _verify_starts(p: Str, t: Str, k: int, starts) -> Set[CostedOccurrence]:
    lim = _start_limit(p, t, k)
    starts = [s for s in starts if 0 <= s <= lim]
    triples = _dp.batch_verify_starts(p.codes, t.as_bytes() or t.codes, starts, k)
    return {CostedOccurrence(s0, e, c) for s0, e, c in triples}


# ---------------------------------------------------------------------------
# case (a): breaks


def candidates_breaks(p: Str, t: Str, k: int, d: Decomposition) -> CandidateSet:
    """Exact occurrences of every break, widened by the edit budget k.

    Any cost-<=k occurrence leaves at least k of the 2k disjoint breaks
    edit-free, so the break occurs exactly in the text within k positions of
    its pattern offset.
    """
    cand = CandidateSet(k)
    clip = _start_limit(p, t, k)
    for br in d.breaks:
        b = p[br.start : br.end]
        for x in exact_occurrences(b, t):
            cand.add_range(x - br.start - k, x - br.start + k, clip)
    return cand


# ---------------------------------------------------------------------------
# cases (b) and (c): periodic machinery


def candidates_periodic(
    r: Str, t: Str, q: Str, l_r: int, kappa: int, big_k: int, cand: CandidateSet
) -> CandidateSet:
    """Candidate starts in t for occurrences of an approximately periodic r.

    Runs the segment loop: segments of length 3|r|/2 start every
    |r|/2 - kappa positions, so each occurrence lies inside one of them.
    `l_r` is the phase of r's optimal periodic extension (its start inside
    q^inf); `big_k` is the region edit budget.  Every exact run of q in a
    segment's middle part gives one anchor, and the segment around it is
    extended as far as it stays within 2*big_k of the periodic extension;
    candidate starts are those aligned with the period grid up to a drift of
    6*big_k.  A segment with no anchor, or more than 24, contributes every
    start.  The anchors of all segments are extended together, one banded
    sweep per side.
    """
    rl, n, ql = len(r), len(t), len(q)
    block = max(1, rl // 2 - kappa)
    seg_len = (3 * rl) // 2
    mid_lo = rl // 2 + kappa
    mid_hi = rl - kappa - ql
    occ = exact_occurrences(q, t) if mid_lo <= mid_hi else []
    jobs: List[Tuple[int, int, int]] = []  # (segment start, its lim, anchor within it)
    for base in range(0, max(1, n - rl + kappa + 1), block):
        lim = min(seg_len, n - base) - rl + kappa
        if lim < 0:
            continue
        anchors: List[int] = []
        prev = None  # previous in-range occurrence: one anchor per exact run
        for x in occ[bisect_left(occ, base + mid_lo) : bisect_right(occ, base + mid_hi)]:
            if prev is None or x - prev != ql:
                anchors.append(x - base)
            prev = x
        if not anchors or len(anchors) > 24:
            cand.add_range(base, base + lim, clip_hi=base + lim)
        else:
            jobs.extend((base, lim, tau) for tau in anchors)

    codes = np.asarray(t.codes, dtype=np.int32)
    lefts = [codes[base : base + tau][::-1] for base, _, tau in jobs]
    rights = [codes[base + tau + ql : base + lim + rl - kappa] for base, lim, tau in jobs]
    reach_l, wlen_l = _dp.periodic_extents(lefts, q.reverse().codes, 2 * big_k)
    reach_r, _ = _dp.periodic_extents(rights, q.codes, 2 * big_k)

    radius = 6 * big_k
    for (base, lim, tau), amax, wlen, bmax in zip(jobs, reach_l, wlen_l, reach_r):
        i2 = tau - amax
        j2 = tau + ql + bmax
        residue = (i2 + l_r + wlen) % ql
        x_lo, x_hi = i2, min(j2 - rl + kappa, lim)
        if x_hi < x_lo:
            continue
        if 2 * radius + 1 >= ql:
            cand.add_range(base + x_lo, base + x_hi, clip_hi=base + lim)
            continue
        g0 = x_lo + ((residue - x_lo) % ql)
        g = g0 - ql
        while g - radius <= x_hi:
            cand.add_range(
                base + max(x_lo, g - radius),
                base + min(x_hi, g + radius),
                clip_hi=base + lim,
            )
            g += ql
    return cand


def _region_occurrence_starts(r: Str, t: Str, kappa: int, q: Str, big_k: int) -> Set[int]:
    """Exact starts of Occ^E_kappa(r, t) via the periodic candidate machinery."""
    if kappa == 0:
        return set(exact_occurrences(r, t)) if len(r) <= len(t) else set()
    _, l_r, _ = ed_periodic_witness(r, q, "substring")
    cand = candidates_periodic(r, t, q, l_r, kappa, big_k, CandidateSet(kappa))
    occ = _verify_starts(r, t, kappa, cand.sorted_starts())
    return {o.start for o in occ}


def candidates_regions(p: Str, t: Str, k: int, d: Decomposition) -> CandidateSet:
    """Region occurrences bucketed by the region budget, widened by 10k.

    At least one region is aligned with at most its budget floor(4k/m*|R|)
    edits by any cost-<=k occurrence, so its own occurrence set anchors the
    pattern start up to bucket rounding plus the alignment drift.
    """
    m = len(p)
    cand = CandidateSet(k)
    clip = _start_limit(p, t, k)
    for reg in d.regions:
        r = p[reg.start : reg.end]
        kappa = (4 * k * len(r)) // m
        big_k = edit_budget(len(r), k, m)
        occ_r = _region_occurrence_starts(r, t, kappa, reg.period, big_k)
        seen_buckets = set()
        for x in occ_r:
            b = big_k * (x // big_k)
            if b in seen_buckets:
                continue
            seen_buckets.add(b)
            cand.add_range(b - reg.start - 10 * k, b - reg.start + 10 * k, clip)
    return cand


def candidates_approx_period(p: Str, t: Str, k: int, d: Decomposition) -> CandidateSet:
    """Whole-pattern periodic case: the pattern itself is the region."""
    m = len(p)
    big_k = edit_budget(m, k, m)  # = 8k
    _, l_r, _ = ed_periodic_witness(p, d.period, "substring")
    return candidates_periodic(p, t, d.period, l_r, k, big_k, CandidateSet(k))


# ---------------------------------------------------------------------------
# verification and the full pipeline


def verify_candidates(
    p: Str, t: Str, k: int, cand: CandidateSet, route: str = "direct"
) -> Set[CostedOccurrence]:
    """Exact occurrence pairs restricted to the candidate starts.

    direct: one batched verification of every candidate start by
    Landau-Vishkin diagonals, k + 1 rounds per start whatever m is
    (_dp.batch_verify_starts).  masked: per window, verify the window's
    candidates in one batch, grow an alignment set over them, mask the
    unlearned periodic structure, and verify the candidates against the
    masked strings; both routes agree whenever the candidate set is a
    superset of the true starts.
    """
    if route == "direct":
        return _verify_starts(p, t, k, cand.sorted_starts())
    if route != "masked":
        raise ValueError(f"unknown route {route!r}")
    m = len(p)
    out: Set[CostedOccurrence] = set()
    block = max(1, m - 3 * k)
    span = block + m + k
    starts_all = cand.sorted_starts()
    for wlo in range(0, max(1, len(t)), block):
        whi = min(wlo + span, len(t))
        h_w = [s for s in starts_all if wlo <= s < min(wlo + block, len(t))]
        out |= _masked_window_pairs(p, t, k, wlo, whi, h_w)
    return out


def _masked_window_pairs(
    p: Str, t: Str, k: int, wlo: int, whi: int, h_w: List[int]
) -> Set[CostedOccurrence]:
    ends: Dict[int, Dict[int, int]] = {}  # start -> {end within the window: cost}
    for o in _verify_starts(p, t, k, h_w):
        if o.end <= whi:
            ends.setdefault(o.start, {})[o.end] = o.cost
    if not ends:
        return set()
    lo = min(ends)
    hi = max(max(got) for got in ends.values())
    t_crop = t[lo:hi]
    rel_starts = sorted(s0 - lo for s0 in h_w if lo <= s0)

    def pair_at(u: int) -> Optional[Tuple[int, int]]:
        got = ends.get(u + lo)
        if not got:
            return None
        c, e = min((c, e) for e, c in got.items())
        return e - lo, c

    suffix = min((got[hi], s0 - lo) for s0, got in ends.items() if hi in got)
    ws = grow_window_structure(p, t_crop, k, rel_starts, pair_at, suffix)
    if ws.masked is not None:
        ph, th = ws.masked.p_hash, ws.masked.t_hash
    else:
        ph, th = p, t_crop
    pairs = _verify_starts(ph, th, k, rel_starts)
    return {CostedOccurrence(o.start + lo, o.end + lo, o.cost) for o in pairs}


def find_occurrences(
    p: Str, t: Str, k: int, route: str = "direct", decomposition: Optional[Decomposition] = None
) -> Set[CostedOccurrence]:
    """Analyze, generate candidates, verify; falls back to the
    reference when the pattern is too short relative to k for decomposition."""
    m = len(p)
    if m == 0:
        raise ValueError("empty pattern")
    if k == 0:
        return {CostedOccurrence(x, x + m, 0) for x in exact_occurrences(p, t)} if m <= len(t) else set()
    if 8 * k > m:
        return match_banded(p, t, k)
    d = decomposition if decomposition is not None else analyze(p, k)
    if d.kind == "breaks":
        cand = candidates_breaks(p, t, k, d)
    elif d.kind == "regions":
        cand = candidates_regions(p, t, k, d)
    else:
        cand = candidates_approx_period(p, t, k, d)
    return verify_candidates(p, t, k, cand, route)
