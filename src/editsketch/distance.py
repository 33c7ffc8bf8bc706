"""Edit distances, bounded computation, k-error occurrence oracles, and
anchored (suffix/prefix/periodic) distance variants."""

from __future__ import annotations

from typing import Optional, Set, Tuple

from . import _dp
from .alignment import Alignment, CostedOccurrence
from .symbols import Str, sentinel_code


def edit_distance_full(x: Str, y: Str) -> Tuple[int, Alignment]:
    """Full-table edit distance with one canonical optimal alignment."""
    cost, pts = _dp.align_pair(x.codes, y.codes)
    return cost, Alignment(tuple(pts), x, y)


def edit_distance(x: Str, y: Str) -> int:
    return _dp.align_pair(x.codes, y.codes)[0]


def edit_distance_bounded(x: Str, y: Str, k: int) -> Optional[Tuple[int, Alignment]]:
    """(cost, optimal alignment) when the distance is <= k, else None."""
    if k < 0:
        raise ValueError("negative threshold")
    got = _dp.bounded_pair(x.codes, y.codes, k)
    if got is None:
        return None
    cost, pts = got
    return cost, Alignment(tuple(pts), x, y)


def optimal_alignment(p: Str, t: Str, t0: int, t1: int, cost: Optional[int] = None) -> Alignment:
    """Canonical optimal alignment of p onto t[t0:t1), in absolute t coords.

    `cost`, when the caller knows it, sizes the first band (_dp.align_pair).
    """
    _, pts = _dp.align_pair(p.codes, t.codes[t0:t1], cost)
    return Alignment(tuple((x, t0 + y) for x, y in pts), p, t)


def occ_edits_oracle(p: Str, t: Str, k: int) -> Set[CostedOccurrence]:
    """Exhaustive oracle: every fragment t[i:j) within distance k of p.

    One pure-Python banded sweep per start position
    (_dp.end_costs_for_start); each qualifying (start, end) pair is reported
    with its exact optimal cost.  This is the independent per-start
    reference that the pipeline's batched verification
    (_dp.batch_verify_starts, behind matcher.match_banded) is tested
    against.  Alignments are not attached; use optimal_alignment per pair
    when needed.
    """
    out: Set[CostedOccurrence] = set()
    n = len(t)
    for t0 in range(n + 1):
        for e, c in _dp.end_costs_for_start(p.codes, t.codes, t0, k).items():
            out.add(CostedOccurrence(t0, e, c))
    return out


def suffix_min_edit(p: Str, t: Str, k: int) -> Optional[Tuple[int, int]]:
    """min over suffixes: the least d = edit_distance(p, t[y:]) if d <= k.

    Uses the sentinel construction: with 2k copies of a character $ absent
    from both strings, edit_distance($^{2k} p, t') equals 2k plus the suffix
    minimum whenever that minimum is at most k (t' is t truncated to its last
    |p|+k characters, which cannot lose a qualifying suffix).  The alignment
    substitutes exactly y' sentinels where y' is the offset of the optimal
    suffix within t'.
    """
    if k < 0:
        raise ValueError("negative threshold")
    offset = max(0, len(t) - len(p) - k)
    teff = t.codes[offset:]
    dollar = sentinel_code(p.codes, teff)
    padded = (dollar,) * (2 * k) + p.codes
    got = _dp.bounded_pair(padded, teff, 3 * k)
    if got is None:
        return None
    cost, pts = got
    d = cost - 2 * k
    if d > k:
        return None
    y = next(y for x, y in pts if x == 2 * k)
    return d, offset + y


def prefix_min_edit(p: Str, t: Str, k: int) -> Optional[Tuple[int, int]]:
    """min over prefixes: the least d = edit_distance(p, t[:e]) if d <= k."""
    got = suffix_min_edit(p.reverse(), t.reverse(), k)
    if got is None:
        return None
    d, y = got
    return d, len(t) - y


def ed_periodic(s: Str, q: Str, mode: str = "substring") -> int:
    """Exact distance from s to the periodic extension of q.

    mode 'substring': min over all fragments of q^inf; mode 'prefix': min
    over prefixes of q^inf.  Computed by the cyclic DP of
    _dp.periodic_row_minima, one column per end position mod |q|, in
    O(|s| |q|) time.
    """
    return ed_periodic_witness(s, q, mode)[0]


def ed_periodic_witness(s: Str, q: Str, mode: str = "substring") -> Tuple[int, int, int]:
    """ed_periodic together with a witness fragment [i, j) of q^inf.

    j is the first optimal end in q^inf and i the largest start of an
    optimal fragment ending at j (0 in mode 'prefix').
    """
    if len(q) == 0:
        raise ValueError("empty period")
    if mode not in ("substring", "prefix"):
        raise ValueError(f"unknown mode {mode!r}")
    for row in _dp.periodic_row_minima(s.codes, q.codes, mode == "prefix"):
        pass
    return row


def ed_boundary_anchored(s: Str, q: Str) -> Tuple[int, int]:
    """min distance from s to a fragment of q^inf ending at a q boundary.

    Returns (cost, fragment_length).  Reversal maps such fragments exactly to
    prefixes of reverse(q)^inf, so this is a prefix-mode computation.
    """
    cost, _, j = ed_periodic_witness(s.reverse(), q.reverse(), "prefix")
    return cost, j
