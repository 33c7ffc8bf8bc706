import math

import pytest

from editsketch.strings import (
    EmptyStringError,
    PreconditionFailed,
    exact_occurrences,
    is_period,
    is_primitive,
    occ_gcd_period,
    per,
)
from editsketch.symbols import S, Str, from_bytes

from conftest import binary_strings, brute_occurrences, brute_per, random_codes


def test_per_examples():
    assert per(S("aaa")) == 1
    assert per(S("abc")) == 3
    assert per(S("abab")) == 2  # derived: definition check over all p


def test_per_empty_raises():
    with pytest.raises(EmptyStringError):
        per(Str())


def test_per_matches_definition_exhaustive_binary():
    for bits in binary_strings(16):
        assert per(Str(bits)) == brute_per(bits)


def test_per_matches_definition_random_ternary(rng):
    for _ in range(300):
        s = tuple(rng.randrange(3) for _ in range(rng.randint(1, 16)))
        assert per(Str(s)) == brute_per(s)


def test_is_primitive_examples():
    assert is_primitive(S("ab"))
    assert not is_primitive(S("abab"))
    # derived by enumerating divisors: "aab" is no proper power
    assert is_primitive(S("aab"))


def test_is_primitive_against_power_enumeration(rng):
    for _ in range(300):
        s = tuple(rng.randrange(2) for _ in range(rng.randint(1, 12)))
        brute = not any(
            len(s) % d == 0 and s == s[:d] * (len(s) // d)
            for d in range(1, len(s))
        )
        assert is_primitive(Str(s)) == brute


def test_byte_rendering_matches_the_codes(rng):
    """as_bytes is bytes(codes) when every code is < 256, else None; from_bytes
    caches its input as that rendering."""
    cases = [(), (0,), (255,), (256,), (3, 300, 1), (255, 256), tuple(range(256))]
    cases += [random_codes(rng, rng.randint(0, 40), rng.choice((2, 256, 260))) for _ in range(100)]
    for codes in cases:
        want = bytes(codes) if all(c < 256 for c in codes) else None
        assert Str(codes).as_bytes() == want
        if want is not None:
            for data in (want, bytearray(want)):
                s = from_bytes(data)
                assert s == Str(codes) and type(s.as_bytes()) is bytes and s.as_bytes() == want
            assert from_bytes(want).as_bytes() is want  # seeded, not rebuilt from the codes


def test_exact_occurrences_examples():
    assert exact_occurrences(S("a"), S("aaa")) == [0, 1, 2]
    assert exact_occurrences(S("aba"), S("ababa")) == [0, 2]  # derived: scan
    assert exact_occurrences(S("xy"), S("aaaa")) == []


def test_exact_occurrences_generic_path_matches_bytes(rng):
    for _ in range(200):
        p = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
        t = tuple(rng.randrange(3) for _ in range(rng.randint(0, 24)))
        want = brute_occurrences(p, t)
        assert exact_occurrences(Str(p), Str(t)) == want
        # codes above 255 force the KMP path
        shift = 1000
        assert exact_occurrences(Str(c + shift for c in p), Str(c + shift for c in t)) == want


def test_occ_gcd_period_examples():
    assert occ_gcd_period(S("aba"), S("ababa")) == 2
    assert is_period(S("ababa"), 2)
    assert occ_gcd_period(S("a"), S("aa")) == 1
    # degenerate family from the prefix+suffix construction: t = p c p
    p = S("ab")
    t = S("abxab")
    assert occ_gcd_period(p, t) == 3  # |p| + 1


def test_occ_gcd_period_preconditions():
    with pytest.raises(PreconditionFailed):
        occ_gcd_period(S("ab"), S("abxxxab"))  # |t| > 2|p| + 1
    with pytest.raises(PreconditionFailed):
        occ_gcd_period(S("ab"), S("abc"))  # no suffix occurrence


def test_occ_gcd_divides_every_occurrence(rng):
    for _ in range(400):
        q = tuple(rng.randrange(2) for _ in range(rng.randint(1, 4)))
        reps = rng.randint(2, 6)
        t = (q * reps)[: rng.randint(len(q) + 1, 2 * len(q) * reps)]
        m = rng.randint(1, max(1, len(t) // 2))
        p = t[:m]
        if tuple(t[len(t) - m :]) != tuple(p) or len(t) > 2 * m + 1:
            continue
        g = occ_gcd_period(Str(p), Str(t))
        occ = exact_occurrences(Str(p), Str(t))
        assert all(o % g == 0 for o in occ)
        assert is_period(Str(t), g)


def test_fine_wilf_on_generated_witnesses(rng):
    """Strings with periods p and q of length >= p + q - gcd have period gcd."""
    for _ in range(300):
        p = rng.randint(1, 8)
        q = rng.randint(1, 8)
        g = math.gcd(p, q)
        n = p + q - g + rng.randint(0, 6)
        # force both periods with a union-find coloring
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for i in range(n - p):
            union(i, i + p)
        for i in range(n - q):
            union(i, i + q)
        colors = {}
        s = []
        for i in range(n):
            r = find(i)
            if r not in colors:
                colors[r] = rng.randrange(3)
            s.append(colors[r])
        st = Str(s)
        assert is_period(st, p) and is_period(st, q)
        assert is_period(st, g)
