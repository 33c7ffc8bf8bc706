import random

import numpy as np

from editsketch import _dp
from editsketch.alignment import alignment_cost, edit_info, validate
from editsketch.distance import (
    ed_boundary_anchored,
    ed_periodic,
    ed_periodic_witness,
    edit_distance,
    edit_distance_bounded,
    edit_distance_full,
    occ_edits_oracle,
    optimal_alignment,
    prefix_min_edit,
    suffix_min_edit,
)
from editsketch.matcher import _start_limit
from editsketch.symbols import S, Str

from conftest import (
    binary_strings,
    brute_ed_periodic,
    brute_edit_distance,
    brute_occ_pairs,
    brute_suffix_min,
    brute_table,
    planted_text,
    random_codes,
)


def test_edit_distance_examples():
    assert edit_distance(S("abc"), S("abc")) == 0
    assert edit_distance(S(""), S("ab")) == 2
    assert edit_distance(S("kitten"), S("sitting")) == 3


def test_optimal_alignment_is_optimal(rng):
    for _ in range(400):
        x = Str(random_codes(rng, rng.randint(0, 9), 3))
        y = Str(random_codes(rng, rng.randint(0, 9), 3))
        d, a = edit_distance_full(x, y)
        assert d == brute_edit_distance(x.codes, y.codes)
        validate(a)
        assert alignment_cost(a) == d


def test_metric_axioms_exhaustive_binary():
    strs = [Str(b) for b in binary_strings(6, min_len=0)]
    dist = {}
    for x in strs:
        for y in strs:
            dist[(x.codes, y.codes)] = edit_distance(x, y)
    for x in strs:
        assert dist[(x.codes, x.codes)] == 0
        for y in strs:
            d = dist[(x.codes, y.codes)]
            assert d == dist[(y.codes, x.codes)]
            assert (d == 0) == (x == y)
    codes = [s.codes for s in strs]
    for a in codes:
        for b in codes:
            dab = dist[(a, b)]
            for c in codes:
                assert dist[(a, c)] <= dab + dist[(b, c)]


def test_bounded_agrees_with_full_exhaustive():
    strs = [Str(b) for b in binary_strings(8, min_len=0)]
    rng = random.Random(1)
    pool = rng.sample(strs, 120)
    for x in pool:
        for y in pool:
            full = brute_edit_distance(x.codes, y.codes)
            for k in range(0, 5):
                got = edit_distance_bounded(x, y, k)
                if full <= k:
                    assert got is not None and got[0] == full
                    assert alignment_cost(got[1]) == full
                else:
                    assert got is None


def test_bounded_examples():
    assert edit_distance_bounded(S("abc"), S("abd"), 1)[0] == 1
    assert edit_distance_bounded(S("abc"), S("xyz"), 1) is None
    x = S("same")
    assert edit_distance_bounded(x, x, 0)[0] == 0


def test_occ_oracle_examples():
    t = S("abcabc")
    occ = {(o.start, o.end, o.cost) for o in occ_edits_oracle(t, t, 0)}
    assert occ == {(0, len(t), 0)}
    occ = {(o.start, o.end, o.cost) for o in occ_edits_oracle(S("ab"), S("axb"), 1)}
    assert (0, 3, 1) in occ


def test_occ_oracle_matches_brute(rng):
    for _ in range(200):
        p = Str(random_codes(rng, rng.randint(1, 5), 2))
        t = Str(random_codes(rng, rng.randint(0, 10), 2))
        k = rng.randint(0, 3)
        want = brute_occ_pairs(p.codes, t.codes, k)
        got = {(o.start, o.end, o.cost) for o in occ_edits_oracle(p, t, k)}
        assert got == want


def test_suffix_min_edit_examples():
    assert suffix_min_edit(S("ab"), S("zzab"), 0) == (0, 2)
    assert suffix_min_edit(S("abc"), S("xxxabc"), 2) == (0, 3)
    assert prefix_min_edit(S("ab"), S("abzz"), 0) == (0, 2)


def test_suffix_min_edit_matches_brute(rng):
    for _ in range(1000):
        p = Str(random_codes(rng, rng.randint(1, 7), 2))
        t = Str(random_codes(rng, rng.randint(0, 12), 2))
        k = rng.randint(0, 4)
        want = brute_suffix_min(p.codes, t.codes)
        got = suffix_min_edit(p, t, k)
        if want <= k:
            assert got is not None
            d, y = got
            assert d == want
            assert brute_edit_distance(p.codes, t.codes[y:]) == d
        else:
            assert got is None


def test_prefix_min_edit_matches_brute(rng):
    for _ in range(500):
        p = Str(random_codes(rng, rng.randint(1, 7), 2))
        t = Str(random_codes(rng, rng.randint(0, 12), 2))
        k = rng.randint(0, 4)
        want = min(brute_edit_distance(p.codes, t.codes[:e]) for e in range(len(t) + 1))
        got = prefix_min_edit(p, t, k)
        if want <= k:
            assert got is not None
            d, e = got
            assert d == want
            assert brute_edit_distance(p.codes, t.codes[:e]) == d
        else:
            assert got is None


def test_ed_periodic_examples():
    q = S("ab")
    assert ed_periodic(q + q + q, q, "substring") == 0
    assert ed_periodic(S("aba"), q, "substring") == 0
    assert ed_periodic(S("ba"), q, "substring") == 0
    assert ed_periodic(S("ba"), q, "prefix") == 1


def test_ed_periodic_matches_brute(rng):
    for _ in range(300):
        s = Str(random_codes(rng, rng.randint(0, 8), 2))
        q = Str(random_codes(rng, rng.randint(1, 3), 2))
        for mode in ("substring", "prefix"):
            assert ed_periodic(s, q, mode) == brute_ed_periodic(s.codes, q.codes, mode)


def test_ed_periodic_witness_consistent(rng):
    for _ in range(300):
        s = Str(random_codes(rng, rng.randint(1, 8), 3))
        q = Str(random_codes(rng, rng.randint(1, 3), 3))
        cost, i, j = ed_periodic_witness(s, q, "substring")
        reps = (j // len(q)) + 2
        u = q.codes * reps
        assert brute_edit_distance(s.codes, u[i:j]) == cost


def test_ed_boundary_anchored(rng):
    """Fragments of q^inf ending at a q boundary, minimized exactly."""
    for _ in range(200):
        s = Str(random_codes(rng, rng.randint(0, 7), 2))
        q = Str(random_codes(rng, rng.randint(1, 3), 2))
        reps = (2 * len(s)) // len(q) + 3
        u = q.codes * reps
        want = len(s)
        for b in range(0, reps * len(q) + 1, len(q)):
            for i in range(0, b + 1):
                if b - i <= 2 * len(s) + len(q):
                    want = min(want, brute_edit_distance(s.codes, u[i:b]))
        got, _ = ed_boundary_anchored(s, q)
        assert got == want


def test_periodic_extents_and_row_minima_match_brute_tables(rng):
    for _ in range(120):
        x = random_codes(rng, rng.randint(0, 7), 3)
        u = random_codes(rng, rng.randint(0, 9), 3)
        if u:  # row minima against q^inf, q = u: row i's is the least r that reaches row i
            periodic = brute_table(x, (u * (len(x) + 2))[: len(x) + 2 * len(u)], False)
            reach = [_dp.periodic_extents([x], u, r)[0][0] for r in range(len(x) + 1)]
            assert [sum(a < i for a in reach) for i in range(len(x) + 1)] == [min(row) for row in periodic]
            # free start: the cyclic DP's row minima against a long enough prefix of q^inf
            free_periodic = brute_table(x, (u * (len(x) + 2))[: 2 * (len(x) + len(u))], True)
            got = [c for c, _, _ in _dp.periodic_row_minima(x, u, False)]
            assert got == [min(row) for row in free_periodic]


def _near_periodic(rng, q, n, edits, sigma):
    """A prefix of q^inf of length n with random edits, every other one a deletion."""
    x = list((q * (n + 1))[:n])
    for e in range(edits):
        pos = rng.randrange(len(x) + 1)
        op = "del" if e % 2 == 0 else rng.choice(("sub", "ins"))
        if op == "del" and pos < len(x):
            x.pop(pos)
        elif op == "sub" and pos < len(x):
            x[pos] = rng.randrange(sigma)
        else:
            x.insert(pos, rng.randrange(sigma))
    return tuple(x)


def _fragment_keys(x, u, starts):
    """Per row i of x and per start in `starts`: (cost, end, -start) of the
    cheapest fragment u[start:end] with the first such end, from one
    textbook DP table of x per start."""
    keys = [[] for _ in range(len(x) + 1)]
    for a in starts:
        w = u[a:]
        row = list(range(len(w) + 1))
        for i in range(len(x) + 1):
            if i:
                cur = [i]
                for j in range(1, len(w) + 1):
                    cur.append(min(row[j] + 1, cur[-1] + 1, row[j - 1] + (x[i - 1] != w[j - 1])))
                row = cur
            c = min(row)
            keys[i].append((c, a + row.index(c), -a))
    return keys


def test_periodic_row_minima_pin_the_witness_tie_break(rng):
    """Every prefix's cost and witness against brute force over an explicit
    unrolling of q^inf: the least cost, the smallest optimal end, and the
    largest start of an optimal fragment ending there (0 in mode 'prefix').
    The unrolling holds the first optimal end of every prefix x[:i], which
    is at most |q| - 1 + 2i."""
    tied = 0
    for case in range(150):
        sigma = rng.choice((2, 3))
        q = random_codes(rng, rng.randint(1, 6), sigma)
        n = rng.randint(0, 40)
        x = random_codes(rng, n, sigma) if case % 2 else _near_periodic(rng, q, n, rng.randint(0, 4), sigma)
        u = (q * (2 * n // len(q) + 3))[: 2 * (n + len(q))]
        for mode in ("substring", "prefix"):
            keys = _fragment_keys(x, u, range(len(u) + 1) if mode == "substring" else (0,))
            want = [min(row) for row in keys]
            got = list(_dp.periodic_row_minima(x, q, mode == "prefix"))
            assert got == [(c, -neg, end) for c, end, neg in want]
            assert ed_periodic_witness(Str(x), Str(q), mode) == got[-1]
            assert ed_periodic(Str(x), Str(q), mode) == got[-1][0]
            # more than one optimal fragment ends at the witness end
            tied += sum(key[:2] == want[-1][:2] for key in keys[-1]) > 1
    assert tied >= 20


def test_periodic_extents_match_brute_tables(rng):
    """Reach and first argmin of every string of a mixed batch against the
    brute prefix table of q^inf, including empty strings and radii past 2|q|,
    where band cells run past each string's own end of q^inf."""
    clipped = 0
    for _ in range(20):
        sigma = rng.choice((2, 3))
        q = random_codes(rng, rng.randint(1, 3), sigma)
        r = rng.randint(0, 6)
        xs = [()] + [random_codes(rng, rng.randint(0, 40), sigma) for _ in range(rng.randint(0, 2))]
        xs += [_near_periodic(rng, q, rng.randint(0, 40), rng.randint(0, r + 3), sigma) for _ in range(rng.randint(1, 3))]
        rng.shuffle(xs)
        reach, wlen = _dp.periodic_extents(xs, q, r)
        for x, a, j in zip(xs, reach, wlen):
            table = brute_table(x, (q * (len(x) + 2))[: len(x) + 2 * len(q)], False)
            want = max(i for i, row in enumerate(table) if min(row) <= r)
            assert (a, j) == (want, table[want].index(min(table[want])))
        clipped += r > 2 * len(q) and any(a == len(x) > 0 for x, a in zip(xs, reach))
    assert clipped >= 3
    assert _dp.periodic_extents([], (0, 1), 3) == ([], [])


def test_canonical_alignments_match_optimal_alignment(rng):
    """One radius-k band per start yields each pair's canonical path and edits."""
    near_end = 0
    for _ in range(150):
        k = rng.randint(0, 4)
        sigma = rng.choice((2, 3))
        p = Str(random_codes(rng, rng.randint(1, 10), sigma))
        t = Str(random_codes(rng, rng.randint(0, len(p) + 2 * k + 2), sigma))
        occ = sorted(occ_edits_oracle(p, t, k), key=lambda o: (o.start, o.end))
        near_end += sum(o.start + len(p) + k > len(t) for o in occ)
        shift = rng.randint(0, 9)
        got = _dp.canonical_alignments(p.codes, t.codes, [(o.start, o.end) for o in occ], k, shift)
        assert len(got) == len(occ)
        for o, (points, records) in zip(occ, got):
            a = optimal_alignment(p, t, o.start, o.end)
            assert points == tuple((x, y + shift) for x, y in a.points)
            assert records == frozenset((x, cx, y + shift, cy) for x, cx, y, cy in edit_info(a).records)
    assert near_end > 0  # bands that run past the text end were exercised


def test_bytes_text_matches_code_tuple_in_band_kernels(rng):
    """A text's bytes rendering gives the same band frame, verified triples and
    canonical alignments as its code tuple, also for pattern codes the text
    lacks (30000 widens the frame to int32) and for an empty text."""
    for trial in range(120):
        k = rng.randint(0, 3)
        p = list(random_codes(rng, rng.randint(1, 12), 3))
        if trial % 3 == 0:
            p[rng.randrange(len(p))] = rng.choice((7, 300, 30000))
        t = random_codes(rng, rng.randint(0, 40) if trial % 10 else 0, 3)
        for a, b in zip(_dp._band_frame(p, bytes(t), k), _dp._band_frame(p, t, k)):
            assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
        starts = range(len(t) + 1)
        triples = _dp.batch_verify_starts(p, t, starts, k)
        assert _dp.batch_verify_starts(p, bytes(t), starts, k) == triples
        pairs = [(s0, e0) for s0, e0, _ in triples]
        assert _dp.canonical_alignments(p, bytes(t), pairs, k) == _dp.canonical_alignments(p, t, pairs, k)


def test_batch_verify_starts_matches_end_costs_per_start(rng):
    """The batch kernel returns exactly the per-start reference's triples,
    ordered by start, then end, for a tuple text and its bytes: on random
    and planted texts, on periodic texts (exact runs over several packed
    words), on copies cut off by the text end inside a word, for pattern
    alphabets wider than a byte (codes 300, 30000 and >= 65536, and more
    than 254 or 65534 distinct codes), from every start up to _start_limit
    with 8k > m (the match_banded path), and for m = 0."""

    def check(p, t, starts, k):
        want = [
            (s0, e, c)
            for s0 in sorted(set(starts))
            for e, c in sorted(_dp.end_costs_for_start(p, t, s0, k).items())
        ]
        assert _dp.batch_verify_starts(p, t, starts, k) == want
        if max(t, default=0) < 256:
            assert _dp.batch_verify_starts(p, bytes(t), starts, k) == want
        return want

    def mutate(s, edits, sigma):
        s = list(s)
        for _ in range(edits):
            i = rng.randrange(len(s) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(s):
                s[i] = rng.randrange(sigma)
            elif op == 1 and i < len(s):
                del s[i]
            else:
                s.insert(i, rng.randrange(sigma))
        return tuple(s)

    for _ in range(150):
        k = rng.randint(0, 4)
        sigma = rng.choice((2, 3))
        p = random_codes(rng, rng.randint(1, 10), sigma)
        t = random_codes(rng, rng.randint(0, len(p) + 2 * k + 6), sigma)
        n = len(t)
        starts = set(rng.sample(range(n + 1), rng.randint(0, n + 1))) | set(range(max(0, n - k), n + 1))
        check(p, t, starts, k)

    # m from 40 to 120 on texts where most starts are false, some with no
    # true start at all
    some_live = all_dead = 0
    for case in range(30):
        m = rng.randint(40, 120)
        k = 0 if case % 5 == 0 else rng.randint(1, 6)
        sigma = rng.choice((2, 4))
        p = random_codes(rng, m, sigma)
        t = planted_text(rng, p, k, sigma, reps=case % 3, pad=2 * m)
        n = len(t)
        starts = set(rng.sample(range(n + 1), min(n + 1, 100))) | set(range(max(0, n - m - k), n + 1))
        want = check(p, t, starts, k)
        some_live += bool(want)
        all_dead += not want
    assert some_live >= 5 and all_dead >= 5

    # short patterns on texts of 1-3k symbols with far more starts than
    # true ones, as in matching a short pattern over a whole text
    for case in range(9):
        m, k = (6, 20, 32)[case % 3], 1 + case // 3
        sigma = rng.choice((2, 4))
        p = random_codes(rng, m, sigma)
        t = planted_text(rng, p, k, sigma, reps=3, pad=900)[:3000]
        n = len(t)
        starts = set(rng.sample(range(n + 1), rng.randint(49, n + 1))) | set(range(n - m, n + 1))
        assert len(check(p, t, starts, k)) > 0

    # an exact copy slides through every row; a copy missing its last
    # character ends at the text end, so its diagonals run past it
    for k in (0, 1, 3):
        p = random_codes(rng, 96, 4)
        t = random_codes(rng, 150, 4) + p + random_codes(rng, 150, 4) + p[:-1]
        got = check(p, t, range(len(t) + 1), k)
        assert (150, 246, 0) in got
        assert ((396, len(t), 1) in got) == (k > 0)

    long_runs = cut_runs = 0
    for _ in range(60):  # periodic texts, copies at and over the text end
        k = rng.randint(0, 4)
        q = random_codes(rng, rng.randint(1, 5), 3)
        p = (q * 40)[: rng.randint(17, 60)]
        t = (q * 200)[rng.randrange(len(q)) :][: rng.randint(len(p), 3 * len(p))]
        t = mutate(t, rng.randint(0, 3), 3) + mutate(p, rng.randint(0, k), 3)[: rng.randint(1, len(p))]
        lim = _start_limit(Str(p), Str(t), k)
        got = check(p, t, rng.sample(range(lim + 1), min(lim + 1, 30)) + [lim], k)
        long_runs += any(c == 0 for _, _, c in got)
        cut_runs += any(e == len(t) and (e - s0) % 8 for s0, e, _ in got)
    assert long_runs >= 10 and cut_runs >= 10

    for _ in range(40):  # every start of short patterns, 8k > m
        k = rng.randint(1, 4)
        p = random_codes(rng, rng.randint(0, 8 * k - 1), rng.choice((1, 2, 3)))
        t = random_codes(rng, rng.randint(0, 25), 3)
        check(p, t, range(_start_limit(Str(p), Str(t), k) + 1), k)
    assert check((), (1, 2), [0, 1, 2], 1) == [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1), (2, 2, 0)]
    assert check((5,), (), [0], 1) == [(0, 0, 1)]

    for codes in ((300, 7, 30000), (65536, 1, 70000)):
        for _ in range(8):  # wide codes in pattern and text
            k = rng.randint(0, 4)
            p = tuple(rng.choice(codes) for _ in range(rng.randint(1, 30)))
            t = mutate(p, rng.randint(0, k + 1), 3) + tuple(rng.choice(codes + (2,)) for _ in range(6))
            check(p, t, range(len(t) + 1), k)
    for sigma, k in ((300, 3), (65535, 1)):  # 2-byte and 4-byte packed codes
        p = tuple(rng.sample(range(1000, 1000 + sigma), sigma))
        t = (7,) + mutate(p, k, 1000 + sigma) + (2, 3)
        assert check(p, t, [0, 1, 2, 3, len(t) - len(p) + k], k)
