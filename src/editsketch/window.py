"""Per-window occurrence structure: crop, enclose, grow, cover, mask.

Shared by the sketch encoder and the mask-routed verifier.  Given (a
superset of) the qualifying occurrence starts inside one cropped text
window, the builder seeds the alignment set with a prefix-anchored and a
suffix-anchored optimal alignment and keeps adding an optimal alignment for
the leftmost uncaptured occurrence start until every start is captured or no
black structure remains.  Each addition provably at least halves the number
of black components, so the set stays logarithmic.

Start positions are looked up through a pair oracle: the encoder passes a
dict of known occurrence pairs, the verifier a lazy banded check, so both
drive the same growth loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .alignment import Alignment, edit_info
from .distance import occ_edits_oracle, optimal_alignment
from .graph import (
    AlignmentGraph,
    AlignmentSet,
    BlackIndexing,
    InternalInvariantBroken,
    MaskedPair,
    PeriodCover,
    WeightFunction,
    black_indexing,
    build_graph,
    captures,
    cover_minimal,
    cover_recursive,
    extend_set,
    is_period_cover,
    mask,
    weight_function,
    weight_function_covers,
)
from .symbols import Str

Pair = Tuple[int, int, int]  # (start, end, cost)
# pair oracle: relative start -> (relative end, cost) of the canonical pair, or None
PairAt = Callable[[int], Optional[Tuple[int, int]]]


@dataclass
class WindowStructure:
    crop_start: int
    crop_end: int
    t_crop: Str
    aligns: List[Alignment]  # members of S, crop coordinates
    graph: AlignmentGraph
    idx: Optional[BlackIndexing]
    wf: Optional[WeightFunction]
    cover: Optional[PeriodCover]       # recursive construction (serialized one)
    cover_min: Optional[PeriodCover]   # definition-enumerated (validation only)
    masked: Optional[MaskedPair]
    stats: Dict[str, int]


def canonical_pair(pairs_at_start: Dict[int, int]) -> Tuple[int, int]:
    """Deterministic (end, cost) pick: least cost, then least end."""
    cost, end = min((c, e) for e, c in pairs_at_start.items())
    return end, cost


def s_cap(m: int) -> int:
    return math.ceil(math.log2(max(m, 2))) + 2


def grow_window_structure(
    p: Str,
    t_crop: Str,
    k: int,
    starts: Sequence[int],
    pair_at: PairAt,
    suffix: Tuple[int, int],
    validate: bool = False,
    need_cover: bool = True,
) -> WindowStructure:
    """Grow the alignment set for one cropped window until capture-complete.

    `starts` is a sorted superset (relative coordinates) of the qualifying
    occurrence starts; `pair_at` resolves a start to its canonical (end,
    cost) pair or None when nothing qualifies there.  Start 0 must qualify
    with some pair ending anywhere, and `suffix` is the (cost, start) of a
    qualifying pair ending at len(t_crop).
    """
    m = len(p)
    if len(t_crop) > 2 * m - 2 * k:
        raise InternalInvariantBroken("cropped window too long to enclose")

    first = pair_at(0)
    if first is None:
        raise InternalInvariantBroken("crop start does not hold an occurrence")
    aligns = [optimal_alignment(p, t_crop, 0, first[0], first[1])]
    suffix_cost, suffix_start = suffix
    if suffix_start != 0 or first[0] != len(t_crop):
        aligns.append(optimal_alignment(p, t_crop, suffix_start, len(t_crop), suffix_cost))
    s = AlignmentSet.from_alignments(p, t_crop, aligns, k)
    if not s.encloses():
        raise InternalInvariantBroken("seed alignments do not enclose the crop")

    stats: Dict[str, int] = {"extensions": 0}
    g = build_graph(p, t_crop, s, validate)
    stats["bc_initial"] = g.bc
    idx: Optional[BlackIndexing] = None
    wf: Optional[WeightFunction] = None
    dead: Set[int] = set()  # starts known not to qualify
    while True:
        if g.bc == 0:
            idx = wf = None
            break
        idx = black_indexing(g)
        wf = weight_function(p, t_crop, s, g, idx)
        grown = False
        for u in starts:
            if u in dead or captures(idx, wf, k, u):
                continue
            got = pair_at(u)
            if got is None:
                dead.add(u)
                continue
            y = optimal_alignment(p, t_crop, u, got[0], got[1])
            s, g = extend_set(p, t_crop, s, idx, wf, y, g.bc)
            aligns.append(y)
            stats["extensions"] += 1
            if len(s.members) > s_cap(m):
                raise InternalInvariantBroken("alignment set exceeded its logarithmic cap")
            grown = True
            break
        if not grown:
            break

    cover_r = cover_m = masked = None
    if idx is not None and need_cover:
        cover_r, depth = cover_recursive(wf, idx, t_crop, k)
        stats["cover_depth"] = depth
        masked = mask(p, t_crop, g, idx, cover_r)
        if validate:
            cover_m = cover_minimal(wf, idx, t_crop, k)
            if not is_period_cover(cover_m, wf, idx, t_crop, k):
                raise InternalInvariantBroken("minimal cover fails the cover predicate")
            if not is_period_cover(cover_r, wf, idx, t_crop, k):
                raise InternalInvariantBroken("recursive cover fails the cover predicate")
            _check_mask_preserves(p, t_crop, k, masked)
    if idx is not None and validate:
        if not weight_function_covers(p, t_crop, idx, wf, k):
            raise InternalInvariantBroken("constructed weight function does not cover S")

    return WindowStructure(
        crop_start=0,
        crop_end=len(t_crop),
        t_crop=t_crop,
        aligns=aligns,
        graph=g,
        idx=idx,
        wf=wf,
        cover=cover_r,
        cover_min=cover_m,
        masked=masked,
        stats=stats,
    )


def structure_from_pairs(
    p: Str,
    t: Str,
    k: int,
    pairs: Sequence[Pair],
    validate: bool = False,
    need_cover: bool = True,
) -> WindowStructure:
    """Structure for a window whose full occurrence-pair set is known."""
    lo = min(s0 for s0, _, _ in pairs)
    hi = max(e for _, e, _ in pairs)
    by_start: Dict[int, Dict[int, int]] = {}
    for s0, e, c in pairs:
        by_start.setdefault(s0 - lo, {})[e - lo] = c
    t_crop = t[lo:hi]

    def pair_at(u: int) -> Optional[Tuple[int, int]]:
        got = by_start.get(u)
        return canonical_pair(got) if got else None

    suffix = min((c, s0 - lo) for s0, e, c in pairs if e == hi)
    ws = grow_window_structure(
        p,
        t_crop,
        k,
        sorted(by_start),
        pair_at,
        suffix,
        validate=validate,
        need_cover=need_cover,
    )
    ws.crop_start, ws.crop_end = lo, hi
    return ws


def _check_mask_preserves(p: Str, t_crop: Str, k: int, masked: MaskedPair) -> None:
    """Masked strings keep every occurrence, cost, and edit information."""
    plain = {(o.start, o.end, o.cost) for o in occ_edits_oracle(p, t_crop, k)}
    hashed = {(o.start, o.end, o.cost) for o in occ_edits_oracle(masked.p_hash, masked.t_hash, k)}
    if plain != hashed:
        raise InternalInvariantBroken("masking changed the occurrence set")
    for s0, e0, _ in plain:
        a = optimal_alignment(p, t_crop, s0, e0)
        b = optimal_alignment(masked.p_hash, masked.t_hash, s0, e0)
        if a.points != b.points:
            raise InternalInvariantBroken("masking changed a canonical alignment")
        if edit_info(a) != edit_info(b):
            raise InternalInvariantBroken("masking changed edit information")
