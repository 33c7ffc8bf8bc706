import random
from dataclasses import replace

import pytest

from editsketch.cli import main
from editsketch.distance import optimal_alignment
from editsketch.alignment import edit_info
from editsketch.matcher import match_banded
from editsketch.sketch import (
    BadParams,
    CorruptSketch,
    EMPTY,
    NotFromFamily,
    RAW,
    SINGLE,
    STRUCTURED,
    Sketch,
    UnsupportedSketch,
    decode,
    encode,
    gen_lower_bound,
    recover_planted,
    sketch_size_bits,
    split_blocks,
)
from editsketch.symbols import S, Str

from conftest import brute_occ_pairs, planted_text, random_codes


def occ_set(occs):
    return {(o.start, o.end, o.cost) for o in occs}


def test_wire_round_trip_preserves_everything(rng):
    for _ in range(60):
        m = rng.randint(1, 12)
        k = rng.randint(1, 3)
        p = Str(random_codes(rng, m, 3))
        t = Str(planted_text(rng, p.codes, k, 3, reps=2, pad=6)[:40])
        sk = encode(p, t, k, chars=True)
        blob = sk.to_bytes()
        back = Sketch.from_bytes(blob)
        assert back.to_bytes() == blob
        assert occ_set(decode(back)) == occ_set(decode(sk))
        assert sketch_size_bits(sk) == 8 * len(blob)


def test_decoder_never_sees_inputs(rng):
    """decode works from the serialized bytes alone."""
    p = S("abab")
    t = S("xabababy")
    sk = Sketch.from_bytes(encode(p, t, 1, chars=True).to_bytes())
    want = brute_occ_pairs(p.codes, t.codes, 1)
    assert occ_set(decode(sk)) == want


def test_decode_matches_oracle_with_edit_infos(rng):
    for _ in range(80):
        m = rng.randint(1, 10)
        k = rng.randint(1, 2)
        sigma = rng.choice((2, 3))
        p = Str(random_codes(rng, m, sigma))
        t = Str(planted_text(rng, p.codes, k, sigma, reps=2, pad=5)[:32])
        sk = encode(p, t, k, chars=True, validate=True)
        got = decode(sk)
        assert occ_set(got) == brute_occ_pairs(p.codes, t.codes, k)
        for o in got:
            a = optimal_alignment(p, t, o.start, o.end)
            assert o.points == a.points
            assert o.records == edit_info(a).records


def test_window_kinds():
    # no occurrences anywhere: every window EMPTY
    p = Str([5] * 4)
    t = Str([1, 2] * 20)
    sk = encode(p, t, 1, chars=True)
    assert all(w.kind == EMPTY for w in sk.windows)
    assert decode(sk) == []
    # single pair in its window
    p = S("abcd")
    t = S("zzzabcdzzz")
    sk = encode(p, t, 1, chars=True)
    kinds = {w.kind for w in sk.windows}
    assert SINGLE in kinds or STRUCTURED in kinds
    assert occ_set(decode(sk)) == brute_occ_pairs(p.codes, t.codes, 1)


def test_raw_fallback_for_large_k():
    p = S("abc")
    t = S("xxabcxy")
    k = 2  # 4k > m triggers the verbatim fallback
    sk = encode(p, t, k, chars=True)
    assert all(w.kind == RAW for w in sk.windows)
    assert sk.pattern is not None
    assert occ_set(decode(sk)) == brute_occ_pairs(p.codes, t.codes, k)


def test_alphabet_reduction_mode(rng):
    """Default mode collapses non-pattern characters; positions and costs
    survive, and edit information matches after applying the same mapping."""
    for _ in range(40):
        m = rng.randint(2, 8)
        k = rng.randint(1, 2)
        p = Str(random_codes(rng, m, 3))
        t = Str(planted_text(rng, p.codes, k, 6, reps=2, pad=5)[:30])
        sk = encode(p, t, k)  # reduced alphabet
        assert occ_set(decode(sk)) == brute_occ_pairs(p.codes, t.codes, k)
        # the reduced alphabet never exceeds |chars(p)| + 1
        assert sk.alphabet <= len(set(p.codes)) + 1


def test_empty_window_overhead_is_tag_only():
    p = Str([9] * 6)
    t = Str([1] * 50)
    sk = encode(p, t, 1, chars=True)
    base = len(sk.to_bytes())
    t2 = Str([1] * 80)
    sk2 = encode(p, t2, 1, chars=True)
    extra_windows = len(sk2.windows) - len(sk.windows)
    assert extra_windows > 0
    assert len(sk2.to_bytes()) - base == extra_windows  # one tag byte each


def test_sketch_size_monotone_in_text_length(rng):
    p = Str(random_codes(rng, 16, 4))
    k = 2
    sizes = []
    for n in (64, 128, 256, 512):
        t = Str(random_codes(rng, n, 4))
        sizes.append(sketch_size_bits(encode(p, t, k)))
    assert sizes == sorted(sizes)


def test_corrupt_sketch_detection():
    p = S("abab")
    t = S("abab")
    blob = bytearray(encode(p, t, 1, chars=True).to_bytes())
    with pytest.raises(CorruptSketch):
        Sketch.from_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(UnsupportedSketch):
        Sketch.from_bytes(bytes(blob[:4]) + b"\x63" + bytes(blob[5:]))
    with pytest.raises(CorruptSketch):
        Sketch.from_bytes(bytes(blob) + b"\x00")
    with pytest.raises(CorruptSketch):
        Sketch.from_bytes(bytes(blob[:-1]))


def test_window_count_matches_splitter(rng):
    for _ in range(40):
        m = rng.randint(5, 24)
        k = rng.randint(1, max(1, m // 4))
        n = rng.randint(0, 90)
        p = Str(random_codes(rng, m, 3))
        t = Str(random_codes(rng, n, 3))
        sk = encode(p, t, k, chars=True)
        block, span = split_blocks(n, m, k)
        want = max(1, -(-n // block)) if n else 1
        assert len(sk.windows) == want


def test_gen_lower_bound_shape_and_determinism():
    inst = gen_lower_bound(200, 10, 2, seed=42)
    assert inst == gen_lower_bound(200, 10, 2, seed=42)
    assert len(inst.text) == 200 and len(inst.pattern) == 10
    assert set(inst.pattern.codes) == {0}
    period = 2 * 10 - 2
    for q, ones in enumerate(inst.planted):
        assert len(ones) == 2
        blk = inst.text.codes[q * period : q * period + 9]
        assert tuple(i for i, c in enumerate(blk) if c == 1) == ones
        assert inst.text.codes[q * period + 9 : (q + 1) * period] == blk
    with pytest.raises(BadParams):
        gen_lower_bound(10, 6, 2, 0)


def test_lower_bound_occurrence_characterization():
    """Start q(2m-2)+i qualifies exactly when block q has a zero at i."""
    inst = gen_lower_bound(120, 6, 2, seed=3)
    occ = {o.start for o in match_banded(inst.pattern, inst.text, 2)}
    period = 2 * 6 - 2
    for q, ones in enumerate(inst.planted):
        for i in range(5):
            assert ((q * period + i) in occ) == (i not in ones)


def test_recover_planted_round_trip():
    for seed in range(25):
        inst = gen_lower_bound(260, 12, 3, seed)
        sk = encode(inst.pattern, inst.text, 3)
        occ = {o.start for o in decode(sk)}
        assert tuple(recover_planted(occ, inst.n, inst.m, inst.k)) == inst.planted
    with pytest.raises(NotFromFamily):
        recover_planted(set(), 260, 12, 3)


def test_tiny_hand_case_recovery():
    """m = 3, k = 1: blocks of length 2 with one planted one each."""
    inst = gen_lower_bound(40, 3, 1, seed=9)
    occ = {o.start for o in match_banded(inst.pattern, inst.text, 1)}
    got = recover_planted(occ, inst.n, inst.m, inst.k)
    assert tuple(got) == inst.planted


def _shift_first_record(sk: Sketch, kind: int) -> bytes:
    """Wire bytes of sk with the first edit record of one alignment in a
    `kind` window moved one text position right, off the match diagonal."""
    for w in sk.windows:
        if w.kind != kind:
            continue
        for i, a in enumerate(w.aligns):
            if a.records:
                x, cx, y, cy = a.records[0]
                bad = replace(a, records=((x, cx, y + 1, cy),) + a.records[1:])
                w.aligns = w.aligns[:i] + (bad,) + w.aligns[i + 1 :]
                return sk.to_bytes()
    raise AssertionError("no window of that kind holds edit records")


def test_unreconstructible_alignment_record_is_corrupt_sketch(tmp_path):
    cases = [
        (S("abcdefgh"), S("zzzabcxefghzzz"), SINGLE),
        (S("abcdefgh"), S("abcdefgxabcdefgh"), STRUCTURED),
    ]
    for p, t, kind in cases:
        blob = _shift_first_record(encode(p, t, 1, chars=True), kind)
        with pytest.raises(CorruptSketch):
            decode(Sketch.from_bytes(blob))
        path = tmp_path / f"bad{kind}.bin"
        path.write_bytes(blob)
        assert main(["sketch", "decode", "--sketch", str(path)]) == 3
