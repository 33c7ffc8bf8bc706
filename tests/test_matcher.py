import random

from editsketch import _dp
from editsketch.analysis import analyze
from editsketch.matcher import (
    assert_superset,
    candidates_breaks,
    candidates_regions,
    candidates_approx_period,
    find_occurrences,
    match_banded,
    verify_candidates,
    CandidateSet,
)
from editsketch.strings import exact_occurrences
from editsketch.symbols import S, Str

from conftest import brute_occ_pairs, planted_text, random_codes

from test_analysis import decomposition_pattern


def occ_set(occs):
    return {(o.start, o.end, o.cost) for o in occs}


def test_match_banded_matches_brute_exhaustive_small():
    for pm in range(0, 5):  # the empty pattern included
        for pt in range(0, 6):
            rng = random.Random(pm * 31 + pt)
            for _ in range(8):
                p = Str(random_codes(rng, pm, 2))
                t = Str(random_codes(rng, pt, 2))
                for k in (0, 1, 2):
                    assert occ_set(match_banded(p, t, k)) == brute_occ_pairs(p.codes, t.codes, k)


def test_match_banded_identity():
    t = S("banana")
    assert (0, len(t), 0) in occ_set(match_banded(t, t, 1))


def test_candidates_breaks_superset(rng):
    for _ in range(40):
        k = rng.randint(1, 2)
        m = 128 * k
        p = decomposition_pattern(rng, "breaks", m, k)
        d = analyze(p, k)
        if d.kind != "breaks":
            continue
        t = Str(planted_text(rng, p.codes, k, 4, reps=2, pad=24))
        cand = candidates_breaks(p, t, k, d)
        assert_superset(p, t, k, cand)
        # exact occurrence starts are always candidates
        for x in exact_occurrences(p, t):
            assert x in cand.starts


def test_candidates_breaks_no_occurrence_empty(rng):
    k = 1
    m = 128
    p = Str(range(m))  # symbols absent from the text
    d = analyze(p, k)
    t = Str(random_codes(rng, 200, 2))
    t = Str(c + 1000 for c in t.codes)
    cand = candidates_breaks(p, t, k, d)
    assert not cand.starts
    assert not find_occurrences(p, t, k)


def test_candidates_breaks_bucket_bound(rng):
    """Break occurrence counts are period-bounded, so buckets stay few."""
    for _ in range(20):
        k = rng.randint(1, 2)
        m = 128 * k
        p = decomposition_pattern(rng, "breaks", m, k)
        d = analyze(p, k)
        if d.kind != "breaks":
            continue
        t = Str(planted_text(rng, p.codes, k, 4, reps=1, pad=16))
        cand = candidates_breaks(p, t, k, d)
        # |Occ(B, T)| <= ceil(|T|/per(B)) <= 192k per break, 2k breaks,
        # each start widened to at most 2k+1 positions
        assert len(cand.buckets()) <= 2 * k * (len(t) * 128 * k // m + 1) * 4
        assert_superset(p, t, k, cand)


def test_candidates_regions_superset(rng):
    hits = 0
    for seed in range(60):
        local = random.Random(seed)
        k = local.randint(1, 2)
        m = 256 * k
        p = decomposition_pattern(local, "regions", m, k)
        d = analyze(p, k)
        if d.kind != "regions":
            continue
        t = Str(planted_text(local, p.codes, k, 3, reps=1, pad=20))
        cand = candidates_regions(p, t, k, d)
        assert_superset(p, t, k, cand)
        hits += 1
    assert hits >= 10


def test_candidates_periodic_superset(rng):
    hits = 0
    for seed in range(60):
        local = random.Random(1000 + seed)
        k = local.randint(1, 2)
        m = 256 * k
        p = decomposition_pattern(local, "period", m, k)
        d = analyze(p, k)
        if d.kind != "period":
            continue
        base = list(p.codes) * 2
        for _ in range(local.randint(0, 2 * k)):
            base[local.randrange(len(base))] = local.randrange(3)
        t = Str(base[: local.randint(m, len(base))])
        cand = candidates_approx_period(p, t, k, d)
        assert_superset(p, t, k, cand)
        hits += 1
    assert hits >= 10


def _noisy_period_text(rng, p, q, k, copies):
    """Copies of p with up to k edits, each after 2|p| characters of q^inf
    with every third one changed, where anchor extensions stop early."""
    t = []
    for _ in range(copies):
        noise = list((q * (2 * len(p)))[: 2 * len(p)])
        for pos in range(rng.randrange(3), len(noise), 3):
            noise[pos] = (noise[pos] + 1) % 3
        t += noise + list(planted_text(rng, p, k, 3, reps=1, pad=0))
    return Str(t)


def test_periodic_candidates_superset_on_long_texts(monkeypatch):
    """Texts of many segments with several anchors each, all extended in one
    batch; the same candidates come out with one anchor per chunk."""
    batches = []
    extents = _dp.periodic_extents

    def recorded(xs, q, r):
        batches.append(len(xs))
        return extents(xs, q, r)

    monkeypatch.setattr(_dp, "periodic_extents", recorded)
    k, m = 1, 128
    cases = []
    for seed in range(6):
        local = random.Random(2000 + seed)
        kind = ("period", "regions")[seed % 2]
        p = decomposition_pattern(local, kind, m, k)
        d = analyze(p, k)
        if d.kind != kind:
            continue
        if kind == "period":
            t = _noisy_period_text(local, p.codes, d.period.codes, k, 3)
            cand = candidates_approx_period(p, t, k, d)
        else:
            t = Str(planted_text(local, p.codes, k, 3, reps=6, pad=20))
            cand = candidates_regions(p, t, k, d)
        assert_superset(p, t, k, cand)
        assert len(cand.starts) < len(t) - m + k  # the extensions did exclude starts
        cases.append((kind, p, t, d, cand.starts))
    assert {kind for kind, *_ in cases} == {"period", "regions"}
    assert min(batches) >= 16

    monkeypatch.setattr(_dp, "_EXTEND_CHUNK_BYTES", 1)
    for kind, p, t, d, starts in cases:
        run = candidates_approx_period if kind == "period" else candidates_regions
        assert run(p, t, k, d).starts == starts


def test_verify_routes_agree(rng):
    for seed in range(40):
        local = random.Random(seed)
        m = local.randint(8, 24)
        k = local.randint(1, m // 8)
        p = Str(random_codes(local, m, 2))
        t = Str(planted_text(local, p.codes, k, 2, reps=2, pad=10))
        cand = CandidateSet(k, starts=set(range(len(t) + 1)))
        direct = occ_set(verify_candidates(p, t, k, cand, "direct"))
        masked = occ_set(verify_candidates(p, t, k, cand, "masked"))
        assert direct == masked == brute_occ_pairs(p.codes, t.codes, k)


def test_verify_candidates_trivial_cases():
    p, t, k = S("ab"), S("axb"), 1
    allc = CandidateSet(k, starts=set(range(len(t) + 1)))
    assert occ_set(verify_candidates(p, t, k, allc)) == occ_set(match_banded(p, t, k))
    empty = CandidateSet(k)
    assert verify_candidates(p, t, k, empty) == set()
    clipped = CandidateSet(k)
    clipped.add_range(-3, 10, clip_hi=2)  # both ends clipped
    clipped.add_range(5, 4, clip_hi=9)  # empty range
    assert clipped.starts == {0, 1, 2}


def test_pipeline_equals_reference_random(rng):
    for seed in range(120):
        local = random.Random(seed * 7)
        style = local.choice(("random", "planted", "periodic"))
        k = local.randint(1, 4)
        m = local.choice((8, 16, 32, 64))
        if 8 * k > m:
            k = max(1, m // 8)
        sigma = local.choice((2, 3, 4))
        p = Str(random_codes(local, m, sigma))
        if style == "random":
            t = Str(random_codes(local, local.randint(0, 96), sigma))
        elif style == "planted":
            t = Str(planted_text(local, p.codes, k, sigma, reps=2, pad=12)[:96])
        else:
            q = random_codes(local, local.randint(1, 3), sigma)
            base = list((q * 50)[:96])
            for _ in range(local.randint(0, 3)):
                base[local.randrange(len(base))] = local.randrange(sigma)
            p = Str((q * 20)[:m])
            t = Str(base[: local.randint(0, 96)])
        want = occ_set(match_banded(p, t, k))
        assert occ_set(find_occurrences(p, t, k)) == want
        assert occ_set(find_occurrences(p, t, k, route="masked")) == want


def test_pipeline_k_zero_and_large_k():
    p = S("abc")
    t = S("abcxabc")
    assert occ_set(find_occurrences(p, t, 0)) == {(0, 3, 0), (4, 7, 0)}
    # 8k > m falls back to the reference matcher
    assert occ_set(find_occurrences(p, t, 2)) == occ_set(match_banded(p, t, 2))
