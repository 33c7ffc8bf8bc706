from typing import Tuple

import pytest

from editsketch.alignment import alignment_cost
from editsketch.distance import occ_edits_oracle, optimal_alignment
from editsketch.graph import (
    AlignmentSet,
    NoBlackComponents,
    PeriodCover,
    RejectedCaptured,
    WeightFunction,
    black_indexing,
    block_alignment,
    build_graph,
    captures,
    cover_recursive,
    extend_set,
    halving_hypothesis,
    is_period_cover,
    mask,
    weight_function,
    weight_function_covers,
    _reach_forward,
    _reach_reverse,
)
from editsketch.compress import lz_size_leq
from editsketch.symbols import S, Str
from editsketch.window import structure_from_pairs

from conftest import brute_edit_distance, planted_text, random_codes


def make_set(p: Str, t: Str, pairs, k: int) -> AlignmentSet:
    aligns = [optimal_alignment(p, t, s0, e0) for s0, e0 in pairs]
    return AlignmentSet.from_alignments(p, t, aligns, k)


def test_identity_graph_all_black():
    p = S("abcab")
    s = make_set(p, p, [(0, len(p))], 0)
    g = build_graph(p, p, s, validate=True)
    assert g.bc == len(p)  # one two-vertex component per position
    assert not any(g.is_red(x) for x in range(len(p)))


def test_two_shifted_occurrences_merge_to_residues():
    q = S("abc")
    t = q + q + q
    p = t[: len(t) - 3]
    s = make_set(p, t, [(0, len(p)), (3, len(t))], 1)
    g = build_graph(p, t, s, validate=True)
    assert g.bc == 3  # residue classes modulo the shift
    idx = black_indexing(g)
    assert idx.bc == 3
    # component positions are arithmetic with step bc
    for c in range(3):
        taus = [idx.tau(c, i) for i in range(idx.n_c(c))]
        assert taus == list(range(c, len(t), 3))
        pis = [idx.pi(c, j) for j in range(idx.m_c(c))]
        assert pis == list(range(c, len(p), 3))
    assert idx.c_last == (len(p) - 1) % 3


def test_substitution_makes_one_red_edge():
    p = S("abc")
    t = S("axc")
    s = make_set(p, t, [(0, 3)], 1)
    g = build_graph(p, t, s, validate=True)
    # exactly the substituted pair is red; the two matches stay black
    reds = [x for x in range(len(p)) if g.is_red(x)]
    assert reds == [1]
    assert g.bc == 2


def test_black_indexing_requires_components():
    p = S("ab")
    t = S("xy")
    s = make_set(p, t, [(0, 2)], 2)
    g = build_graph(p, t, s)
    assert g.bc == 0
    with pytest.raises(NoBlackComponents):
        black_indexing(g)


def test_weight_function_zero_for_exact_occurrences():
    q = S("ab")
    t = q + q + q
    p = t[: len(t) - 2]
    s = make_set(p, t, [(0, len(p)), (2, len(t))], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    wf = weight_function(p, t, s, g, idx)
    assert wf.total == 0
    assert weight_function_covers(p, t, idx, wf, 1)


def test_weight_function_counts_partial_costs(rng):
    for _ in range(150):
        sigma = rng.choice((2, 3))
        m = rng.randint(3, 14)
        k = rng.randint(1, 3)
        p = Str(random_codes(rng, m, sigma))
        t_list = list(p.codes)
        for _ in range(rng.randint(0, k)):
            t_list[rng.randrange(m)] = rng.randrange(sigma)
        t = Str(t_list + list(p.codes[-1:]) * 0)
        pairs = {(o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k)}
        if not pairs:
            continue
        lo = min(s0 for s0, _, _ in pairs)
        hi = max(e for _, e, _ in pairs)
        if hi - lo > 2 * m - 2 * k:
            continue
        ws = structure_from_pairs(p, t, k, sorted(pairs), validate=True)
        if ws.idx is None:
            continue
        assert ws.wf.total <= k * max(2, len(ws.aligns))
        assert weight_function_covers(p, ws.t_crop, ws.idx, ws.wf, k)


def _brute_covers(p: Str, t: Str, idx, w) -> Tuple[bool, str]:
    """weight_function_covers restated with textbook distances, minimizing
    over every cut; also names the check that first fails."""
    bc, c_last = idx.bc, idx.c_last
    x, y = p.codes, t.codes
    for c in range(bc):
        for j in range(idx.m_c(c + 1)):
            frag = x[idx.pi(c, j) : idx.p_sub[c + 1 + j * bc]]
            for i in range(idx.n_c(c + 1)):
                if brute_edit_distance(frag, y[idx.tau(c, i) : idx.t_sub[c + 1 + i * bc]]) > w[c]:
                    return False, "block"
    head = x[: idx.pi(0, 0)]
    if brute_edit_distance(head, y[: idx.tau(0, 0)]) > w[bc - 1]:
        return False, "head"
    for i in range(1, idx.n0):
        lo, hi = idx.t_sub[(i - 1) * bc + bc - 1], idx.tau(0, i)
        if min(brute_edit_distance(head, y[s:hi]) for s in range(lo, hi + 1)) > w[bc - 1]:
            return False, "head suffix"
    tail = x[idx.p_sub[-1] :]
    if brute_edit_distance(tail, y[idx.t_sub[-1] :]) > w[c_last]:
        return False, "tail"
    for i in range(idx.n0 - 1):
        lo, hi = idx.tau(c_last, i), idx.t_sub[c_last + 1 + i * bc]
        if min(brute_edit_distance(tail, y[lo:e]) for e in range(lo, hi + 2)) > w[c_last]:
            return False, "tail prefix"
    return True, ""


def test_weight_function_covers_matches_brute_minimization(rng):
    """Verdicts on random windows, at the constructed weights and with each
    weight lowered to every smaller value, against a brute restatement.  The
    pattern's head (or tail) is a random string also at the text's start (or
    end), so later periods' cuts can cost more than the first (or last)."""
    failed = {"head suffix": 0, "tail prefix": 0}
    for trial in range(1500):
        sigma = rng.choice((2, 3))
        m = rng.randint(4, 16)
        k = rng.randint(1, max(1, m // 4))
        q = random_codes(rng, rng.randint(1, 4), sigma) * 60
        ends = list(random_codes(rng, rng.randint(1, 3), sigma))
        body = list(planted_text(rng, q[: rng.randint(m, 2 * m - 2 * k) - len(ends)], 2, sigma, 1, 0))
        if trial % 2:
            p, t = Str(ends + list(q[: m - len(ends)])), Str(ends + body)
        else:
            p, t = Str(list(q[len(body) - m + len(ends) :][: m - len(ends)]) + ends), Str(body + ends)
        m = len(p)
        pairs = {(o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k)}
        if len(pairs) < 2 or max(e for _, e, _ in pairs) - min(s for s, _, _ in pairs) > 2 * m - 2 * k:
            continue
        ws = structure_from_pairs(p, t, k, sorted(pairs), need_cover=False)
        if ws.idx is None:
            continue
        w = ws.wf.w
        for v in [w] + [w[:c] + (u,) + w[c + 1 :] for c in range(len(w)) for u in range(w[c])]:
            want, why = _brute_covers(p, ws.t_crop, ws.idx, v)
            assert weight_function_covers(p, ws.t_crop, ws.idx, WeightFunction(v), k) == want
            if why in failed:
                failed[why] += 1
    assert min(failed.values()) >= 40


def test_captures_and_halving_thresholds():
    q = S("ab")
    t = q + q + q + q
    p = t[: len(t) - 2]
    s = make_set(p, t, [(0, len(p)), (2, len(t))], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    wf = weight_function(p, t, s, g, idx)
    # starts on the tau grid are captured
    assert captures(idx, wf, 1, 0)
    assert captures(idx, wf, 1, 2)
    # far beyond every anchor: not captured
    assert not captures(idx, wf, 1, 200)
    assert captures(None, None, 1, 123)  # bc == 0 captures everything
    assert not halving_hypothesis(idx, wf, 1, 0)


def test_extend_set_rejects_captured():
    q = S("ab")
    t = q + q + q
    p = t[: len(t) - 2]
    s = make_set(p, t, [(0, len(p)), (2, len(t))], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    wf = weight_function(p, t, s, g, idx)
    y = optimal_alignment(p, t, 0, len(p))
    with pytest.raises(RejectedCaptured):
        extend_set(p, t, s, idx, wf, y, g.bc)


def test_halving_observed_on_extension():
    """An uncaptured middle occurrence halves the component count when added.

    Occurrences of q^3 in q^5 sit at 0, 8, 16 for a length-8 q of distinct
    characters; seeding with the outer two gives 16 black components whose
    anchors miss the middle start by 8 > w + 3k, so the growth loop must add
    it, collapsing the components to the residues modulo gcd(16, 8) = 8.
    """
    q = Str(range(8))
    t = q.repeat(5)
    p = q.repeat(3)
    k = 1
    pairs = sorted((o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k))
    assert {s0 for s0, _, c in pairs if c == 0} == {0, 8, 16}
    ws = structure_from_pairs(p, t, k, pairs, validate=True)
    assert ws.stats["extensions"] >= 1
    assert ws.stats["bc_initial"] == 16
    assert ws.graph.bc <= 8  # at least one halving step ran (asserted inside)


def test_growth_loop_random_sweep(rng):
    """Random structured windows run the full validated growth machinery."""
    built = 0
    for _ in range(200):
        sigma = 2
        m = rng.randint(3, 8)
        k = rng.randint(1, max(1, (m - 1) // 2))
        p = Str(random_codes(rng, m, sigma))
        t = Str(random_codes(rng, rng.randint(m, min(16, 2 * m - 2 * k)), sigma))
        pairs = {(o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k)}
        if not pairs:
            continue
        lo = min(s0 for s0, _, _ in pairs)
        hi = max(e for _, e, _ in pairs)
        if hi - lo > 2 * m - 2 * k:
            continue
        structure_from_pairs(p, t, k, sorted(pairs), validate=True)
        built += 1
    assert built >= 50


def test_cover_full_set_is_cover():
    q = S("ab")
    t = q + q + q
    p = t[: len(t) - 2]
    s = make_set(p, t, [(0, len(p)), (2, len(t))], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    wf = weight_function(p, t, s, g, idx)
    full = PeriodCover(frozenset(range(idx.bc)), ((0, idx.bc - 1),))
    assert is_period_cover(full, wf, idx, t, 1)


def test_cover_empty_fails_on_compressible_run():
    # a^n is maximally compressible: the empty cover violates the anchored
    # conditions, which demand learning the compressible boundary runs
    t = Str([0] * 12)
    p = t[:10]
    s = make_set(p, t, [(0, 10), (2, 12)], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    wf = weight_function(p, t, s, g, idx)
    empty = PeriodCover(frozenset(), ())
    assert not is_period_cover(empty, wf, idx, t, 1)


def test_both_cover_constructions_validate(rng):
    for _ in range(200):
        sigma = rng.choice((2, 3))
        m = rng.randint(4, 12)
        k = rng.randint(1, max(1, m // 4))
        q = Str(random_codes(rng, rng.randint(1, 3), sigma))
        reps = rng.randint(2, 6)
        t_list = list((q.codes * reps)[: rng.randint(m, 2 * m - 2 * k)])
        if len(t_list) < m:
            continue
        for _ in range(rng.randint(0, 1)):
            t_list[rng.randrange(len(t_list))] = rng.randrange(sigma)
        t = Str(t_list)
        p = t[:m]
        pairs = {(o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k)}
        if len(pairs) < 2:
            continue
        lo = min(s0 for s0, _, _ in pairs)
        hi = max(e for _, e, _ in pairs)
        if hi - lo > 2 * m - 2 * k:
            continue
        ws = structure_from_pairs(p, t, k, sorted(pairs), validate=True)
        if ws.idx is None:
            continue
        # validate=True already asserted is_period_cover for both constructions
        assert ws.cover is not None and ws.cover_min is not None
        assert ws.cover_min.components
        rec_depth = ws.stats.get("cover_depth", 0)
        limit = 1
        while (1 << limit) < max(ws.idx.bc, 2):
            limit += 1
        assert rec_depth <= limit + 1


def test_cover_recursive_zero_weight_boundary_only():
    q = S("ab")
    t = q + q + q + q
    p = t[: len(t) - 2]
    s = make_set(p, t, [(0, len(p)), (2, len(t))], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    wf = weight_function(p, t, s, g, idx)
    assert wf.total == 0
    cover, depth = cover_recursive(wf, idx, t, 1)
    assert is_period_cover(cover, wf, idx, t, 1)
    # zero weight: the recursion contributes nothing beyond boundary pieces
    assert len(cover.intervals) <= 3


def test_cover_searches_match_linear_lz_scan(rng):
    """One capped parse plus a bisection equals probing every c with
    lz_size_leq, fallbacks included."""
    fallbacks = {"forward": 0, "reverse": 0}
    for _ in range(400):
        t = Str(random_codes(rng, rng.randint(2, 60), rng.choice((2, 3, 300))))
        taus = sorted(rng.sample(range(len(t)), rng.randint(1, min(len(t), 12))))
        lo = rng.randrange(len(taus))
        hi = rng.randint(lo, len(taus) - 1)
        z = rng.choice((1, 1, 2, 3, 5, 12))

        # forward: the fixed start is at or before tau(lo), or right after it
        # as in cover_recursive's half-open piece (tau^h .. tau^j']
        start = rng.choice((rng.randint(0, taus[lo]), taus[lo] + 1))
        fits = [c for c in range(lo, hi + 1) if lz_size_leq(t[start : taus[c] + 1], z) is not None]
        fallbacks["forward"] += not fits
        assert _reach_forward(t, taus, start, lo, hi, z) == (fits[-1] if fits else lo)

        end = rng.randint(taus[hi] + 1, len(t))
        fits = [c for c in range(lo, hi + 1) if lz_size_leq(t[taus[c] : end].reverse(), z) is not None]
        fallbacks["reverse"] += not fits
        assert _reach_reverse(t, taus, end, lo, hi, z) == (fits[0] if fits else hi)
    assert min(fallbacks.values()) >= 10  # budgets that no c meets were exercised


def test_mask_full_cover_keeps_strings():
    q = S("ab")
    t = q + q + q
    p = t[: len(t) - 2]
    s = make_set(p, t, [(0, len(p)), (2, len(t))], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    full = PeriodCover(frozenset(range(idx.bc)), ((0, idx.bc - 1),))
    masked = mask(p, t, g, idx, full)
    assert masked.p_hash == p and masked.t_hash == t


def test_mask_preserves_occurrences(rng):
    checked = 0
    for _ in range(200):
        sigma = 2
        m = rng.randint(4, 10)
        k = rng.randint(1, max(1, m // 4))
        q = Str(random_codes(rng, rng.randint(1, 2), sigma))
        t_list = list((q.codes * 12)[: rng.randint(m, 2 * m - 2 * k)])
        if len(t_list) < m:
            continue
        t = Str(t_list)
        p_list = list(t.codes[:m])
        if rng.random() < 0.4:
            p_list[rng.randrange(m)] = rng.randrange(sigma)
        p = Str(p_list)
        pairs = {(o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k)}
        if len(pairs) < 2:
            continue
        lo = min(s0 for s0, _, _ in pairs)
        hi = max(e for _, e, _ in pairs)
        if hi - lo > 2 * m - 2 * k:
            continue
        # validate=True runs the mask-preservation oracle equality internally
        ws = structure_from_pairs(p, t, k, sorted(pairs), validate=True)
        if ws.masked is not None:
            checked += 1
    assert checked >= 20


def test_block_alignment_pure_match_when_zero_weight():
    q = S("ab")
    t = q + q + q + q
    p = t[: len(t) - 2]
    s = make_set(p, t, [(0, len(p)), (2, len(t))], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    wf = weight_function(p, t, s, g, idx)
    for j in range(idx.m0 - 1):
        for i in range(idx.n0 - 1):
            a = block_alignment(p, t, idx, wf, j, i)
            assert alignment_cost(a) == 0
    last = block_alignment(p, t, idx, wf, idx.m0 - 1, idx.n0 - 1)
    assert alignment_cost(last) == 0
    # endpoint handling: the last block ends at the c_last column
    assert last.points[-1] == (idx.pi(idx.c_last, idx.m0 - 1) + 1, idx.tau(idx.c_last, idx.n0 - 1) + 1)


def test_block_alignment_cost_bounded_by_weight(rng):
    checked = 0
    for _ in range(200):
        sigma = 2
        m = rng.randint(4, 10)
        k = rng.randint(1, max(1, m // 4))
        t = Str(random_codes(rng, rng.randint(m, 2 * m - 2 * k), sigma))
        p = Str(list(t.codes[:m]))
        pairs = {(o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k)}
        if len(pairs) < 2:
            continue
        lo = min(s0 for s0, _, _ in pairs)
        hi = max(e for _, e, _ in pairs)
        if hi - lo > 2 * m - 2 * k:
            continue
        ws = structure_from_pairs(p, t, k, sorted(pairs))
        if ws.idx is None:
            continue
        idx, wf = ws.idx, ws.wf
        for j in range(idx.m0):
            for i in range(idx.n0):
                if i == idx.n0 - 1 and j != idx.m0 - 1:
                    continue
                a = block_alignment(p, ws.t_crop, idx, wf, j, i)
                assert alignment_cost(a) <= wf.total
                checked += 1
    assert checked >= 30


def test_block_alignment_range_errors():
    q = S("ab")
    t = q + q + q
    p = t[: len(t) - 2]
    s = make_set(p, t, [(0, len(p)), (2, len(t))], 1)
    g = build_graph(p, t, s)
    idx = black_indexing(g)
    wf = weight_function(p, t, s, g, idx)
    with pytest.raises(IndexError):
        block_alignment(p, t, idx, wf, idx.m0, 0)
    if idx.n0 >= 2 and idx.m0 >= 2:
        with pytest.raises(IndexError):
            block_alignment(p, t, idx, wf, 0, idx.n0 - 1)


def test_masked_components_and_grid_alignment():
    """Incompressible periodic structure: boundary components get learned,
    middle ones masked; every captured optimal alignment passes through the
    whole component grid outside the cover."""
    q = Str(range(40, 104))  # 64 distinct characters: the span outgrows the
    t = q.repeat(4)          # two-sided boundary learning budget 12w + 22k
    p = q.repeat(3)
    k = 1
    pairs = sorted((o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k))
    ws = structure_from_pairs(p, t, k, pairs, validate=True)
    idx, wf, cover = ws.idx, ws.wf, ws.cover
    assert idx is not None
    uncovered = [c for c in range(idx.bc) if c not in cover.components]
    assert uncovered, "expected masked components on this construction"
    w_total = wf.total
    lo = ws.crop_start
    for s0, e0, _ in pairs:
        x = optimal_alignment(p, ws.t_crop, s0 - lo, e0 - lo)
        t_start = s0 - lo
        anchors = [idx.tau(0, i) for i in range(idx.n0)]
        target = t_start + idx.pi(0, 0)
        best_i = min(range(idx.n0), key=lambda i: abs(anchors[i] - target))
        if abs(anchors[best_i] - target) > w_total + 3 * k:
            continue  # not captured: nothing asserted
        pts = set(x.points)
        for c in uncovered:
            for j in range(idx.m_c(c)):
                assert (idx.pi(c, j), idx.tau(c, best_i + j)) in pts
