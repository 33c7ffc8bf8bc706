import random

from editsketch.compress import lz77, lz_bounded_prefix, lz_size_leq, selfed, selfed_leq
from editsketch.distance import edit_distance
from editsketch.symbols import S, Str

from conftest import brute_selfed, random_codes


def test_lz77_reference_string():
    got = lz77(S("abacabcabcaaaab")).phrases
    want = (
        (ord("a"), 0),
        (ord("b"), 0),
        (0, 1),
        (ord("c"), 0),
        (0, 2),
        (3, 5),
        (10, 3),
        (8, 1),
    )
    assert got == want


def test_lz77_edges():
    assert lz77(Str()).phrases == ()
    # derived by hand: 'a' literal, then a self-overlapping run phrase
    assert lz77(S("aaaa")).phrases == ((ord("a"), 0), (0, 3))


def test_lz77_round_trip(rng):
    for _ in range(400):
        x = Str(random_codes(rng, rng.randint(0, 40), rng.choice((2, 3, 26))))
        fact = lz77(x)
        assert fact.expand() == x
        pos = 0
        for first, second in fact.phrases:
            if second > 0:
                assert 0 <= first < pos  # source strictly earlier, overlap allowed
            pos += 1 if second == 0 else second


def test_lz77_greedy_phrases_maximal(rng):
    """No previous-factor phrase could be extended by one character."""
    for _ in range(200):
        x = Str(random_codes(rng, rng.randint(1, 24), 2))
        pos = 0
        for first, second in lz77(x).phrases:
            ln = 1 if second == 0 else second
            if second > 0:
                assert x.codes[first : first + ln] == x.codes[pos : pos + ln]
                if pos + ln < len(x):
                    longer = x.codes[pos : pos + ln + 1]
                    assert not any(x.codes[i : i + ln + 1] == longer for i in range(pos))
            else:
                assert first not in x.codes[:pos]  # genuinely fresh character
            pos += ln
        assert pos == len(x)


def test_generic_code_path_matches_bytes(rng):
    for _ in range(100):
        codes = random_codes(rng, rng.randint(0, 20), 3)
        a = lz77(Str(codes)).phrases
        b = lz77(Str(c + 1000 for c in codes)).phrases
        norm_a = [(x if l else None, l) for x, l in a]
        norm_b = [(x if l else None, l) for x, l in b]
        assert norm_a == norm_b


def test_selfed_examples():
    assert selfed(Str()).cost == 0
    assert selfed(S("aa")).cost == 2  # derived: brute force over self-alignments
    assert selfed(S("ab")).cost == 3


def test_selfed_matches_brute(rng):
    for _ in range(200):
        x = Str(random_codes(rng, rng.randint(0, 5), 2))
        res = selfed(x)
        assert res.cost == brute_selfed(x.codes)
        if res.witness is not None and len(x):
            # witness is a real self-alignment of the claimed cost
            pts = res.witness.points
            assert pts[0] == (0, 0) and pts[-1] == (len(x), len(x))
            cost = 0
            for (i, j), (ni, nj) in zip(pts, pts[1:]):
                if (ni, nj) == (i + 1, j + 1):
                    assert i != j  # never aligns a character to itself
                    cost += x[i] != x[j]
                else:
                    cost += 1
            assert cost == res.cost


def test_selfed_upper_bound(rng):
    for _ in range(100):
        x = Str(random_codes(rng, rng.randint(0, 30), 4))
        assert selfed(x, with_witness=False).cost <= 2 * len(x)


def test_selfed_leq_cap(rng):
    for _ in range(200):
        x = Str(random_codes(rng, rng.randint(0, 10), 2))
        c = selfed(x, with_witness=False).cost
        assert selfed_leq(x, c) == c
        if c > 0:
            assert selfed_leq(x, c - 1) is None


def test_lz_bounded_by_selfed(rng):
    """|LZ(x)| <= 2 selfed(x), forwards and reversed."""
    for _ in range(500):
        x = Str(random_codes(rng, rng.randint(0, 24), rng.choice((2, 4))))
        s = selfed(x, with_witness=False).cost
        assert len(lz77(x)) <= 2 * s or len(x) == 0
        assert len(lz77(x.reverse())) <= 2 * s or len(x) == 0


def test_selfed_structure_laws(rng):
    """Monotonicity, sub-additivity, and the edit-distance triangle law."""
    for _ in range(200):
        x = Str(random_codes(rng, rng.randint(1, 14), 2))
        lo2, hi2 = sorted(rng.sample(range(len(x) + 1), 2)) if len(x) else (0, 0)
        lo1 = rng.randint(lo2, hi2)
        hi1 = rng.randint(lo1, hi2)
        outer = selfed(x[lo2:hi2], with_witness=False).cost
        inner = selfed(x[lo1:hi1], with_witness=False).cost
        assert inner <= outer
        mid = rng.randint(0, len(x))
        assert (
            selfed(x, with_witness=False).cost
            <= selfed(x[:mid], with_witness=False).cost + selfed(x[mid:], with_witness=False).cost
        )
        y = Str(random_codes(rng, rng.randint(0, 14), 2))
        assert (
            selfed(y, with_witness=False).cost
            <= selfed(x, with_witness=False).cost + 2 * edit_distance(x, y)
        )


def test_lz_size_leq(rng):
    for _ in range(200):
        x = Str(random_codes(rng, rng.randint(0, 24), 2))
        z = len(lz77(x))
        if z:
            assert lz_size_leq(x, z) == z
            assert lz_size_leq(x, z - 1) is None
        assert lz_size_leq(x, z + 3) == z


def test_lz_bounded_prefix_contract(rng):
    for _ in range(300):
        x = Str(random_codes(rng, rng.randint(1, 30), 2))
        z = rng.randint(1, 5)
        e, fact = lz_bounded_prefix(x, 0, z, "forward")
        assert len(fact) <= z
        assert fact.expand() == x[:e]
        # what graph.cover_recursive's searches rely on: a prefix fits the
        # budget exactly when it is no longer than the capped parse's extent
        for L in range(len(x) + 1):
            assert (len(lz77(x[:L])) <= z) == (L <= e)
        start = rng.randint(0, len(x))
        e2, fact2 = lz_bounded_prefix(x, start, z, "reversed")
        rev = Str(x.codes[:start][::-1])
        assert fact2.expand() == rev[:e2]
        for L in range(start + 1):
            assert (len(lz77(rev[:L])) <= z) == (L <= e2)


def test_lz_bounded_prefix_examples():
    x = Str([ord("a")] * 100)
    e, _ = lz_bounded_prefix(x, 0, 2, "forward")
    assert e == 100  # a^n factorizes into two phrases
    y = S("ab" + "a" * 10)
    e1, _ = lz_bounded_prefix(y, 0, 1, "forward")
    assert e1 == 1  # distinct leading symbols stop a one-phrase budget
