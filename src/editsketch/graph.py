"""Occurrence-set structure: the colored alignment graph and what it yields.

Given a set S of low-cost alignments of a pattern P onto fragments of a text
T, the graph joins character positions that some alignment pairs up (black
for matches, red for edits, with an extra vertex absorbing insertions and
deletions).  When S encloses T, the black components are congruence classes
modulo their count, inducing a quasi-periodic structure on both strings; a
covering weight function bounds block distances inside that structure, and a
period cover names the components whose characters must be learned so that
all other black characters can be replaced by per-component mask symbols
without disturbing any k-error occurrence or its edit information.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .alignment import Alignment, Point, Record, edit_info
from .compress import lz_bounded_prefix, selfed_leq
from .compress import lz_size_leq  # noqa: F401  (perfbench's tracer wraps graph.lz_size_leq)
from .distance import edit_distance_bounded, prefix_min_edit, suffix_min_edit
from .symbols import Str, mask_code


class NoBlackComponents(ValueError):
    pass


class InternalInvariantBroken(AssertionError):
    """An encoder-side structural guarantee failed; signals a bug."""


class RejectedCaptured(ValueError):
    """Extension alignment does not satisfy the halving hypothesis."""


# ---------------------------------------------------------------------------


@dataclass
class AlignmentSet:
    """Alignments of the full pattern onto fragments of one text, cost <= k.

    When the leftmost and rightmost occurrence coincide, the single stored
    alignment logically plays both enclosure roles; logical_size counts it
    twice, which is the size the weight-total bound refers to.
    """

    pattern: Str
    text: Str
    members: List[Tuple[Tuple[Point, ...], FrozenSet[Record]]]
    k: int

    @property
    def logical_size(self) -> int:
        return max(2, len(self.members))

    @classmethod
    def from_alignments(cls, pattern: Str, text: Str, aligns: Sequence[Alignment], k: int) -> "AlignmentSet":
        members = []
        for a in aligns:
            members.append((a.points, edit_info(a).records))
        return cls(pattern, text, members, k)

    def add(self, a: Alignment) -> None:
        self.members.append((a.points, edit_info(a).records))

    def encloses(self) -> bool:
        m, n = len(self.pattern), len(self.text)
        if n > 2 * m - 2 * self.k:
            return False
        has_pref = any(pts[0] == (0, 0) for pts, _ in self.members)
        has_suf = any(pts[-1] == (m, n) for pts, _ in self.members)
        return has_pref and has_suf


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


@dataclass
class AlignmentGraph:
    m: int
    n: int
    full: _UnionFind          # all edges: connected components
    black: _UnionFind         # black edges only: character-equality classes
    red_roots: Set[int]       # full-components containing a red edge
    touched: List[bool]       # vertex incident to any edge
    bc: int
    black_comp_ids: Dict[int, int]  # full-root -> component index in [0, bc)
    shifts: List[int]         # per member of S: black subsequence shift

    def is_red(self, v: int) -> bool:
        return self.full.find(v) in self.red_roots


def build_graph(p: Str, t: Str, s: AlignmentSet, validate: bool = False) -> AlignmentGraph:
    """Assemble the colored graph for S and count black components.

    Each alignment contributes a pattern-to-bottom edge per deletion, a
    bottom-to-text edge per insertion, and a pattern-to-text edge per aligned
    pair (black iff the characters match).  Black components are indexed by
    ascending smallest pattern position; under enclosure this coincides with
    the congruence-class order (asserted when validate is set).
    """
    m, n = len(p), len(t)
    bot = m + n
    full = _UnionFind(m + n + 1)
    black = _UnionFind(m + n + 1)
    red_pairs: List[Tuple[int, int]] = []
    touched = [False] * (m + n + 1)
    members_black_pairs: List[List[Tuple[int, int]]] = []
    for pts, records in s.members:
        edit_keys = {(r[0], r[2]) for r in records}
        black_pairs: List[Tuple[int, int]] = []
        for idx in range(len(pts) - 1):
            x, y = pts[idx]
            nx, ny = pts[idx + 1]
            if nx == x + 1 and ny == y + 1:
                u, v = x, m + y
                if (x, y) in edit_keys:
                    red_pairs.append((u, v))
                else:
                    black.union(u, v)
                    black_pairs.append((x, y))
                full.union(u, v)
                touched[u] = touched[v] = True
            elif nx == x + 1:
                full.union(x, bot)
                red_pairs.append((x, bot))
                touched[x] = touched[bot] = True
            else:
                full.union(m + y, bot)
                red_pairs.append((m + y, bot))
                touched[m + y] = touched[bot] = True
        members_black_pairs.append(black_pairs)
        if validate:
            for x, y in black_pairs:
                if p[x] != t[y]:
                    raise InternalInvariantBroken("black edge joining unequal characters")
    red_roots = {full.find(u) for u, _ in red_pairs}
    red_roots.add(full.find(bot))

    # black components: red-free full components holding at least one black edge
    black_roots: Dict[int, int] = {}
    for x in range(m):
        if touched[x]:
            r = full.find(x)
            if r not in red_roots and r not in black_roots:
                black_roots[r] = x  # smallest pattern position first by scan order
    order = sorted(black_roots, key=lambda r: black_roots[r])
    comp_ids = {r: c for c, r in enumerate(order)}
    g = AlignmentGraph(
        m=m,
        n=n,
        full=full,
        black=black,
        red_roots=red_roots,
        touched=touched,
        bc=len(order),
        black_comp_ids=comp_ids,
        shifts=[],
    )
    g.shifts = _member_shifts(g, members_black_pairs, validate)
    return g


def _member_shifts(g: AlignmentGraph, members_black_pairs, validate: bool) -> List[int]:
    """Per alignment: the shift of its black matching inside the subsequences.

    Every alignment's black edges form an exact occurrence of the pattern's
    black subsequence inside the text's; the shift (in subsequence indices)
    is what that occurrence starts at.
    """
    if g.bc == 0:
        return [0 for _ in members_black_pairs]
    p_sub = [x for x in range(g.m) if g.touched[x] and g.full.find(x) in g.black_comp_ids]
    t_sub = [y for y in range(g.n) if g.touched[g.m + y] and g.full.find(g.m + y) in g.black_comp_ids]
    p_rank = {x: i for i, x in enumerate(p_sub)}
    t_rank = {y: i for i, y in enumerate(t_sub)}
    shifts = []
    for pairs in members_black_pairs:
        sub_pairs = [(p_rank[x], t_rank[y]) for x, y in pairs if x in p_rank]
        if not sub_pairs:
            shifts.append(0)
            continue
        delta = sub_pairs[0][1] - sub_pairs[0][0]
        if validate:
            if any(j - i != delta for i, j in sub_pairs):
                raise InternalInvariantBroken("alignment does not shift the black subsequence rigidly")
            if {i for i, _ in sub_pairs} != set(range(len(p_sub))):
                raise InternalInvariantBroken("alignment misses part of the black subsequence")
        shifts.append(delta)
    return shifts


# ---------------------------------------------------------------------------


@dataclass
class BlackIndexing:
    bc: int
    p_sub: Tuple[int, ...]   # pattern positions in black components, ascending
    t_sub: Tuple[int, ...]
    m0: int
    n0: int
    c_last: int

    def m_c(self, c: int) -> int:
        if c == self.bc:
            return self.m0 - 1
        return -(-(len(self.p_sub) - c) // self.bc)

    def n_c(self, c: int) -> int:
        if c == self.bc:
            return self.n0 - 1
        return -(-(len(self.t_sub) - c) // self.bc)

    def pi(self, c: int, j: int) -> int:
        return self.p_sub[c + j * self.bc]

    def tau(self, c: int, i: int) -> int:
        return self.t_sub[c + i * self.bc]


def black_indexing(g: AlignmentGraph) -> BlackIndexing:
    """Positions of each black component, with the congruence law asserted."""
    if g.bc == 0:
        raise NoBlackComponents("graph has no black components")
    comp = g.black_comp_ids
    p_sub = tuple(x for x in range(g.m) if g.touched[x] and g.full.find(x) in comp)
    t_sub = tuple(y for y in range(g.n) if g.touched[g.m + y] and g.full.find(g.m + y) in comp)
    bc = g.bc
    for i, x in enumerate(p_sub):
        if comp[g.full.find(x)] != comp[g.full.find(p_sub[i % bc])]:
            raise InternalInvariantBroken("pattern congruence classes broken")
    for i, y in enumerate(t_sub):
        if comp[g.full.find(g.m + y)] != comp[g.full.find(p_sub[i % bc])]:
            raise InternalInvariantBroken("text congruence classes broken")
    if len(t_sub) % bc != len(p_sub) % bc:
        raise InternalInvariantBroken("subsequence lengths disagree modulo bc")
    idx = BlackIndexing(
        bc=bc,
        p_sub=p_sub,
        t_sub=t_sub,
        m0=-(-len(p_sub) // bc),
        n0=-(-len(t_sub) // bc),
        c_last=(len(p_sub) - 1) % bc,
    )
    for c in range(bc):
        if idx.m_c(c) not in (idx.m0, idx.m0 - 1) or idx.n_c(c) not in (idx.n0, idx.n0 - 1):
            raise InternalInvariantBroken("per-component counts out of range")
    return idx


# ---------------------------------------------------------------------------


@dataclass
class WeightFunction:
    w: Tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.w)

    def at(self, c: int) -> int:
        return self.w[c % len(self.w)]  # w(-1) aliases w(bc-1)

    def span(self, a: int, b: int) -> int:
        """Sum over c in [a-1, b] with the -1 alias."""
        return self.at(a - 1) + sum(self.w[a : b + 1])


class _PathCosts:
    """Point -> path index plus prefix edit counts, for O(1) segment costs."""

    __slots__ = ("pos", "edits")

    def __init__(self, pts: Tuple[Point, ...], edit_keys: Set[Tuple[int, int]]):
        self.pos = {pt: i for i, pt in enumerate(pts)}
        acc = [0]
        for idx in range(len(pts) - 1):
            x, y = pts[idx]
            nx, ny = pts[idx + 1]
            is_edit = (x, y) in edit_keys if (nx, ny) == (x + 1, y + 1) else True
            acc.append(acc[-1] + (1 if is_edit else 0))
        self.edits = acc

    def cost_between(self, p1: Point, p2: Point) -> int:
        return self.edits[self.pos[p2]] - self.edits[self.pos[p1]]


def weight_function(p: Str, t: Str, s: AlignmentSet, g: AlignmentGraph, idx: BlackIndexing) -> WeightFunction:
    """Construct a covering weight function of total weight at most k|S|.

    Component weights sum, over the reduced graph's edges, the cheapest
    partial-alignment cost any member charges between consecutive component
    positions; the first/last components additionally absorb the boundary
    costs of the enclosing prefix and suffix alignments.
    """
    bc, m0, n0, c_last = idx.bc, idx.m0, idx.n0, idx.c_last
    p_len_sub, t_len_sub = len(idx.p_sub), len(idx.t_sub)
    paths = [_PathCosts(pts, {(r[0], r[2]) for r in records}) for pts, records in s.members]

    edge_w: Dict[Tuple[int, int, int], int] = {}
    for member, path in enumerate(paths):
        delta = g.shifts[member]
        for sub_i in range(p_len_sub):
            nxt = sub_i + 1
            if nxt >= p_len_sub or sub_i + delta + 1 >= t_len_sub:
                continue
            c = sub_i % bc
            j = sub_i // bc
            i_t = (sub_i + delta) // bc
            if j >= idx.m_c(c + 1) or i_t >= idx.n_c(c + 1):
                continue
            p1 = (idx.p_sub[sub_i], idx.t_sub[sub_i + delta])
            p2 = (idx.p_sub[nxt], idx.t_sub[nxt + delta])
            cost = path.cost_between(p1, p2)
            key = (c, j, i_t)
            if key not in edge_w or cost < edge_w[key]:
                edge_w[key] = cost

    w = [0] * bc
    for (c, _, _), cost in edge_w.items():
        w[c] += cost

    # boundary surcharges from the enclosing alignments
    m, n = len(p), len(t)
    pref_member = next(i for i, (pts, _) in enumerate(s.members) if pts[0] == (0, 0))
    suf_member = next(i for i, (pts, _) in enumerate(s.members) if pts[-1] == (m, n))
    pref_path, suf_path = paths[pref_member], paths[suf_member]
    d_pref, d_suf = g.shifts[pref_member], g.shifts[suf_member]

    first = (idx.p_sub[0], idx.t_sub[d_pref])
    start_pt = s.members[pref_member][0][0]
    alpha = pref_path.cost_between(start_pt, first)
    first_suf = (idx.p_sub[0], idx.t_sub[d_suf])
    start_suf = s.members[suf_member][0][0]
    alpha += suf_path.cost_between(start_suf, first_suf)

    last = (idx.p_sub[-1], idx.t_sub[p_len_sub - 1 + d_suf])
    end_suf = s.members[suf_member][0][-1]
    alpha_p = suf_path.cost_between(last, end_suf)
    last_pref = (idx.p_sub[-1], idx.t_sub[p_len_sub - 1 + d_pref])
    end_pref = s.members[pref_member][0][-1]
    alpha_p += pref_path.cost_between(last_pref, end_pref)

    w[bc - 1] += alpha
    w[c_last] += alpha_p
    wf = WeightFunction(tuple(w))
    if wf.total > s.k * s.logical_size:
        raise InternalInvariantBroken(
            f"total weight {wf.total} exceeds k|S| = {s.k * s.logical_size}"
        )
    return wf


def weight_function_covers(p: Str, t: Str, idx: BlackIndexing, wf: WeightFunction, k: int) -> bool:
    """Check the covering conditions of a weight function from scratch.

    Conditions quantifying over "some" boundary cut are decided by a bounded
    minimization over the allowed cut range: the head's suffixes of
    t[lo:hi] (suffix_min_edit) and the tail's prefixes of t[lo:hi+1]
    (prefix_min_edit), each None exactly when every cut costs more than the
    weight.  Intended for desk-scale validation.
    """
    bc, m0, n0, c_last = idx.bc, idx.m0, idx.n0, idx.c_last

    def pnext(c: int, j: int) -> int:
        return idx.p_sub[c + 1 + j * bc]

    def tnext(c: int, i: int) -> int:
        return idx.t_sub[c + 1 + i * bc]

    for c in range(bc):
        for j in range(idx.m_c(c + 1)):
            frag_p = p[idx.pi(c, j) : pnext(c, j)]
            for i in range(idx.n_c(c + 1)):
                frag_t = t[idx.tau(c, i) : tnext(c, i)]
                if edit_distance_bounded(frag_p, frag_t, wf.w[c]) is None:
                    return False

    head = p[: idx.pi(0, 0)]
    if edit_distance_bounded(head, t[: idx.tau(0, 0)], wf.w[bc - 1]) is None:
        return False
    for i in range(1, n0):
        lo = idx.t_sub[(i - 1) * bc + bc - 1]
        hi = idx.tau(0, i)
        if suffix_min_edit(head, t[lo:hi], wf.w[bc - 1]) is None:
            return False

    tail = p[idx.p_sub[-1] :]
    if edit_distance_bounded(tail, t[idx.t_sub[-1] :], wf.w[c_last]) is None:
        return False
    for i in range(n0 - 1):
        lo = idx.tau(c_last, i)
        hi = idx.t_sub[c_last + 1 + i * bc]
        if prefix_min_edit(tail, t[lo : hi + 1], wf.w[c_last]) is None:
            return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodCover:
    components: FrozenSet[int]
    intervals: Tuple[Tuple[int, int], ...]  # closed [a, b] pieces that cover it


def _closed_fragment(t: Str, idx: BlackIndexing, a: int, b: int) -> Str:
    return t[idx.tau(a, 0) : idx.tau(b, 0) + 1]


class _SelfedMemo:
    def __init__(self, t: Str, idx: BlackIndexing, cap: int):
        self.t = t
        self.idx = idx
        self.cap = cap
        self.memo: Dict[Tuple[int, int], Optional[int]] = {}

    def get(self, a: int, b: int) -> Optional[int]:
        """selfed of the closed fragment, or None when it exceeds the cap."""
        key = (a, b)
        if key not in self.memo:
            self.memo[key] = selfed_leq(_closed_fragment(self.t, self.idx, a, b), self.cap)
        return self.memo[key]


def _interval_thresholds(idx: BlackIndexing, wf: WeightFunction, k: int, a: int, b: int) -> int:
    """Largest threshold under which [a, b] would qualify for cover inclusion."""
    bc, c_last = idx.bc, idx.c_last
    theta = 0
    if a == 0 or b == bc - 1 or b == c_last or a == c_last + 1:
        theta = 6 * wf.total + 11 * k
    theta = max(theta, 6 * wf.span(a, b))
    return theta


def is_period_cover(
    cover: PeriodCover,
    wf: WeightFunction,
    idx: BlackIndexing,
    t: Str,
    k: int,
    memo: Optional[_SelfedMemo] = None,
) -> bool:
    """Definition check: every qualifying interval is contained in the cover.

    Intervals already inside the cover never need a self-edit evaluation;
    everything else is evaluated against the largest applicable threshold
    with a capped computation, so the common case (a valid cover) is cheap.
    """
    bc = idx.bc
    comps = cover.components
    cap = 6 * wf.total + 11 * k
    if memo is None:
        memo = _SelfedMemo(t, idx, cap)
    for a in range(bc):
        inside = True
        for b in range(a, bc):
            if b not in comps:
                inside = False
            if inside:
                continue  # [a, b] inside the cover: containment is vacuous
            theta = _interval_thresholds(idx, wf, k, a, b)
            if theta < 2:  # selfed of a nonempty string is at least 2
                continue
            got = memo.get(a, b)
            if got is not None and got <= theta:
                return False
    return True


def _qualifying_intervals(
    wf: WeightFunction, idx: BlackIndexing, t: Str, k: int, memo: _SelfedMemo
):
    """All intervals satisfying a cover condition, split anchored/free."""
    bc, c_last = idx.bc, idx.c_last
    theta_anchor = 6 * wf.total + 11 * k
    anchored: Dict[str, List[Tuple[int, int]]] = {"pref": [], "suf": [], "lsuf": [], "lpref": []}
    free: List[Tuple[int, int]] = []
    for a in range(bc):
        for b in range(a, bc):
            got = memo.get(a, b)
            if got is None:
                continue
            if a == 0 and got <= theta_anchor:
                anchored["pref"].append((a, b))
            if b == bc - 1 and got <= theta_anchor:
                anchored["suf"].append((a, b))
            if b == c_last and got <= theta_anchor:
                anchored["lsuf"].append((a, b))
            if a == c_last + 1 and got <= theta_anchor:
                anchored["lpref"].append((a, b))
            if got <= 6 * wf.span(a, b):
                free.append((a, b))
    return anchored, free


def cover_minimal(wf: WeightFunction, idx: BlackIndexing, t: Str, k: int) -> PeriodCover:
    """Union of all qualifying intervals, with the greedy interval selection.

    The selected interval list is what gets serialized: one maximal interval
    per anchored family plus a chain over the freely-qualifying intervals in
    which no component is covered more than twice.
    """
    memo = _SelfedMemo(t, idx, 6 * wf.total + 11 * k)
    anchored, free = _qualifying_intervals(wf, idx, t, k, memo)
    chosen: List[Tuple[int, int]] = []
    if anchored["pref"]:
        chosen.append(max(anchored["pref"], key=lambda ab: ab[1]))
    if anchored["suf"]:
        chosen.append(min(anchored["suf"], key=lambda ab: ab[0]))
    if anchored["lsuf"]:
        chosen.append(min(anchored["lsuf"], key=lambda ab: ab[0]))
    if anchored["lpref"]:
        chosen.append(max(anchored["lpref"], key=lambda ab: ab[1]))

    if free:
        j = min(free, key=lambda ab: (ab[0], -ab[1]))
        chain = [j]
        while True:
            over = [iv for iv in free if j[0] < iv[0] <= j[1] < iv[1]]
            if over:
                j = max(over, key=lambda ab: (ab[1], -ab[0]))
            else:
                beyond = [iv for iv in free if iv[0] > j[1]]
                if not beyond:
                    break
                j = min(beyond, key=lambda ab: (ab[0], -ab[1]))
            chain.append(j)
        chosen.extend(chain)

    members: Set[int] = set()
    for a, b in chosen:
        members.update(range(a, b + 1))
    want: Set[int] = set()
    for fam in anchored.values():
        for a, b in fam:
            want.update(range(a, b + 1))
    for a, b in free:
        want.update(range(a, b + 1))
    if members != want:  # the greedy chain is proven to cover the union
        raise InternalInvariantBroken("interval selection does not cover the union")
    cover = PeriodCover(frozenset(members), tuple(sorted(set(chosen))))
    return cover


def _reach_forward(t: Str, taus: Sequence[int], start: int, lo: int, hi: int, z: int) -> int:
    """Largest c in [lo, hi] with |LZ(t[start : taus[c] + 1])| <= z, else lo.

    One z-capped parse from `start`, then a bisection of the strictly
    increasing `taus` against its extent (see cover_recursive).
    """
    if lo >= hi:
        return lo
    e, _ = lz_bounded_prefix(t[start : taus[hi] + 1], 0, z)
    return bisect.bisect_left(taus, start + e, lo + 1, hi + 1) - 1  # lo itself is never probed


def _reach_reverse(t: Str, taus: Sequence[int], end: int, lo: int, hi: int, z: int) -> int:
    """Smallest c in [lo, hi] with |LZ(reverse(t[taus[c] : end]))| <= z, else hi.

    One z-capped parse leftward from `end`, as in _reach_forward.
    """
    if lo >= hi:
        return hi
    x = t[taus[lo] : end]
    e, _ = lz_bounded_prefix(x, len(x), z, "reversed")
    return bisect.bisect_left(taus, end - e, lo, hi)  # hi itself is never probed


def cover_recursive(
    wf: WeightFunction, idx: BlackIndexing, t: Str, k: int
) -> Tuple[PeriodCover, int]:
    """Query-light cover: boundary scans plus halving recursion.

    Returns the cover and the recursion depth reached.  Boundary pieces keep
    factorization size at most 12w + 22k; each recursion level on [i, j]
    grows greedily from the midpoint under budget 12 * (local weight sum).

    Every boundary keeps one end of its fragment fixed, and the fragment's
    factorization size only grows as the other end moves away.  So each search
    is one capped greedy parse from the fixed end followed by a bisection over
    tau(c, 0): the parse of a prefix is the full parse clipped there, which
    makes "fits the budget" the same as "no longer than the parse's extent".
    """
    bc, c_last = idx.bc, idx.c_last
    budget = 12 * wf.total + 22 * k
    # tau(c, 0) = t_sub[c], strictly increasing: black_indexing lists t_sub
    # in ascending text order
    taus = idx.t_sub

    c_pref = _reach_forward(t, taus, taus[0], 0, bc - 1, budget)
    c_suff = _reach_reverse(t, taus, taus[bc - 1] + 1, 0, bc - 1, budget)
    c_lsuff = _reach_reverse(t, taus, taus[c_last] + 1, 0, c_last, budget)
    if c_last + 1 <= bc - 1:
        c_lpref = _reach_forward(t, taus, taus[c_last + 1], c_last + 1, bc - 1, budget)
    else:
        c_lpref = c_last  # upper boundary family is empty

    intervals: List[Tuple[int, int]] = [
        (0, c_pref),
        (c_suff, bc - 1),
        (c_lsuff, c_lpref),
    ]
    depth_seen = 0

    def crec(i: int, j: int, depth: int) -> None:
        nonlocal depth_seen
        depth_seen = max(depth_seen, depth)
        wsum = wf.span(i, j)
        if wsum == 0:
            return
        if i == j:
            intervals.append((i, i))
            return
        h = (i + j) // 2
        z = 12 * wsum
        i2 = _reach_reverse(t, taus, taus[h] + 1, i, h, z)
        # largest j' in [h, j] with the half-open fragment (tau^h .. tau^j'] in budget
        j2 = _reach_forward(t, taus, taus[h] + 1, h, j, z)
        if i2 <= j2:
            intervals.append((i2, j2))
        crec(i, h, depth + 1)
        crec(h + 1, j, depth + 1)

    crec(0, bc - 1, 1)
    members: Set[int] = set()
    for a, b in intervals:
        if a <= b:
            members.update(range(a, b + 1))
    cover = PeriodCover(frozenset(members), tuple(sorted({iv for iv in intervals if iv[0] <= iv[1]})))
    max_depth = 1
    while (1 << max_depth) < max(bc, 2):
        max_depth += 1
    if depth_seen > max_depth + 1:
        raise InternalInvariantBroken("cover recursion exceeded its depth bound")
    return cover, depth_seen


# ---------------------------------------------------------------------------


def tau0_values(idx: BlackIndexing) -> List[int]:
    return [idx.t_sub[i * idx.bc] for i in range(idx.n0)]


def captures(idx: Optional[BlackIndexing], wf: Optional[WeightFunction], k: int, t_start: int) -> bool:
    """Whether the structure pins an occurrence start to the grid.

    With no black components everything is captured; otherwise the start must
    land within w + 3k of some text anchor shifted back by the first pattern
    anchor.
    """
    if idx is None:  # bc == 0
        return True
    bound = wf.total + 3 * k
    target = t_start + idx.pi(0, 0)
    taus = tau0_values(idx)
    pos = bisect.bisect_left(taus, target)
    for cand in (pos - 1, pos):
        if 0 <= cand < len(taus) and abs(taus[cand] - target) <= bound:
            return True
    return False


def halving_hypothesis(idx: BlackIndexing, wf: WeightFunction, k: int, t_start: int) -> bool:
    """Hypothesis under which adding the alignment halves the component count."""
    bound = wf.total + 2 * k
    target = t_start + idx.pi(0, 0)
    taus = tau0_values(idx)[: idx.n0 - idx.m0 + 1]
    pos = bisect.bisect_left(taus, target)
    for cand in (pos - 1, pos):
        if 0 <= cand < len(taus) and abs(taus[cand] - target) <= bound:
            return False
    return True


def extend_set(
    p: Str,
    t: Str,
    s: AlignmentSet,
    idx: BlackIndexing,
    wf: WeightFunction,
    new: Alignment,
    prev_bc: int,
) -> Tuple[AlignmentSet, AlignmentGraph]:
    """Add an uncaptured alignment to S; the component count must halve."""
    if not halving_hypothesis(idx, wf, s.k, new.dst_start):
        raise RejectedCaptured("new alignment is too close to the existing grid")
    s.add(new)
    g = build_graph(p, t, s)
    if g.bc > prev_bc // 2:
        raise InternalInvariantBroken(f"bc {prev_bc} -> {g.bc}: halving failed")
    return s, g


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskedPair:
    p_hash: Str
    t_hash: Str
    mask_base: int


def mask(p: Str, t: Str, g: AlignmentGraph, idx: BlackIndexing, cover: PeriodCover) -> MaskedPair:
    """Replace each unlearned black component with a fresh mask character."""
    base = max(p.max_code(), t.max_code())
    pc = list(p.codes)
    tc = list(t.codes)
    for c in range(idx.bc):
        if c in cover.components:
            continue
        code = mask_code(base, c)
        for j in range(idx.m_c(c)):
            pc[idx.pi(c, j)] = code
        for i in range(idx.n_c(c)):
            tc[idx.tau(c, i)] = code
    return MaskedPair(Str(pc), Str(tc), base)


def block_alignment(
    p: Str, t: Str, idx: BlackIndexing, wf: WeightFunction, j: int, i: int
) -> Alignment:
    """Canonical low-cost alignment between the j-th pattern block and the
    i-th text block, matching every shared component position."""
    bc, m0, n0, c_last = idx.bc, idx.m0, idx.n0, idx.c_last
    if not (0 <= j < m0 and 0 <= i < n0):
        raise IndexError("block index out of range")
    if i == n0 - 1 and j != m0 - 1:
        raise IndexError("the last text block pairs only with the last pattern block")

    last_c = bc - 1 if j != m0 - 1 else c_last
    pts: List[Point] = []
    for c in range(last_c + 1):
        px, ty = idx.pi(c, j), idx.tau(c, i)
        pts.append((px, ty))
        pts.append((px + 1, ty + 1))
        if c < last_c:
            nx, ny = idx.pi(c + 1, j), idx.tau(c + 1, i)
        elif j != m0 - 1:
            nx = idx.p_sub[(j + 1) * bc]
            ny = idx.t_sub[(i + 1) * bc]
        else:
            break
        sub = _dp_inner(p, t, px + 1, nx, ty + 1, ny)
        pts.extend(sub[1:])
    a = Alignment(tuple(_dedup(pts)), p, t)
    cost = sum(1 for kind, _, _ in a.steps() if kind != "match")
    if cost > wf.total:
        raise InternalInvariantBroken("block alignment exceeds the total weight")
    return a


def _dp_inner(p: Str, t: Str, x0: int, x1: int, y0: int, y1: int) -> List[Point]:
    from ._dp import align_pair

    _, pts = align_pair(p.codes[x0:x1], t.codes[y0:y1])
    return [(x0 + a, y0 + b) for a, b in pts]


def _dedup(pts: List[Point]) -> List[Point]:
    out = [pts[0]]
    for q in pts[1:]:
        if q != out[-1]:
            out.append(q)
    return out
