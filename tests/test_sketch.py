import random
import time
from dataclasses import replace

import pytest

import editsketch.sketch as sketch_module
from editsketch.cli import main
from editsketch.distance import optimal_alignment
from editsketch.alignment import edit_info
from editsketch.matcher import match_banded
from editsketch.sketch import (
    AlignRec,
    BadParams,
    CorruptSketch,
    EMPTY,
    NotFromFamily,
    RAW,
    SINGLE,
    STRUCTURED,
    Sketch,
    UnsupportedSketch,
    WindowRecord,
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


def test_reduce_alphabet_byte_path_matches_tuple_path(rng):
    """bytes.translate gives the codes and alphabet size of the per-code
    mapping, with byte caches that match the codes."""
    def reference(p, t):
        remap = {c: i for i, c in enumerate(sorted(set(p)))}
        other = len(remap)
        return tuple(remap[c] for c in p), tuple(remap.get(c, other) for c in t), other + 1

    cases = [((1, 2), ()), ((7,), (1, 2, 3)), ((300, 2), (2, 300, 5)), ((2,), (2, 999)),
             (tuple(range(256)), (0, 255, 7))]
    for _ in range(150):
        p = random_codes(rng, rng.randint(1, 12), rng.choice((2, 5, 256)))
        t = random_codes(rng, rng.randint(0, 40), rng.choice((3, 6, 256, 400)))
        cases.append((p, t))
    for p, t in cases:
        p2, t2, alphabet = sketch_module._reduce_alphabet(Str(p), Str(t))
        assert (p2.codes, t2.codes, alphabet) == reference(p, t)
        for s in (p2, t2):
            assert s.as_bytes() == (bytes(s.codes) if all(c < 256 for c in s.codes) else None)


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


def _structured_sketch() -> Sketch:
    """m = 64, k = 2, n = 300: a period-5 pattern in a periodic text with one
    substitution, so the windows are STRUCTURED."""
    q = (0, 1, 2, 0, 3)
    t = list((q * 60)[:300])
    t[150] = 1
    sk = encode(Str((q * 13)[:64]), Str(t), 2)
    assert STRUCTURED in {w.kind for w in sk.windows}
    return sk


def test_header_inconsistent_with_records_is_corrupt_sketch():
    sk = _structured_sketch()
    assert Sketch.from_bytes(sk.to_bytes()).to_bytes() == sk.to_bytes()
    # header k raised from 2 to 48: the masked strings would be re-matched
    # with 4k > m and no embedded pattern
    with pytest.raises(CorruptSketch):
        Sketch.from_bytes(replace(sk, k=48).to_bytes())

    at = next(i for i, w in enumerate(sk.windows) if w.kind == STRUCTURED)
    w = sk.windows[at]
    a = next(a for a in w.aligns if a.records)
    padded = replace(a, records=a.records + tuple((40 + i, 0, 40 + i, 1) for i in range(3)))

    def with_window(new, i=at):
        return replace(sk, windows=sk.windows[:i] + [new] + sk.windows[i + 1 :]).to_bytes()

    end = len(sk.windows) - 2  # STRUCTURED, its crop ends at the text end
    v = sk.windows[end]
    assert v.kind == STRUCTURED and v.lo + v.crop_len == sk.n
    span = split_blocks(sk.n, sk.m, sk.k)[1]
    raw = encode(S("abc"), S("xxabcxy"), 2, chars=True)
    a0, a1 = [i for i, x in enumerate(sk.windows) if x.kind != EMPTY][:2]
    swapped = list(sk.windows)
    swapped[a0], swapped[a1] = swapped[a1], swapped[a0]
    bad = [
        with_window(replace(w, lo=sk.n)),  # window starts past the text
        with_window(replace(w, aligns=(padded,) + w.aligns[1:])),  # more than k edits
        with_window(WindowRecord(RAW, lo=w.lo, symbols=(0, 1))),  # RAW without 4k > m
        replace(sk, pattern=(0,) * sk.m).to_bytes(),  # pattern without 4k > m
        replace(raw, windows=[WindowRecord(EMPTY)] * len(raw.windows)).to_bytes(),  # 4k > m, not RAW
        # crop 121 -> 4*10**6: decode would build tables of that length
        with_window(replace(w, crop_len=4 * 10**6)),
        with_window(replace(w, crop_len=span + 1)),  # crop longer than a window
        with_window(replace(v, crop_len=v.crop_len + 1), end),  # crop past the text
        with_window(replace(w, aligns=(replace(a, rel_end=w.crop_len + 1),) + w.aligns[1:])),  # ends past the crop
        with_window(replace(w, aligns=(replace(a, rel_start=a.rel_end + 1),) + w.aligns[1:])),  # starts after its end
        with_window(WindowRecord(SINGLE, lo=sk.n - sk.m + 1, aligns=(AlignRec(0, sk.m, True, ()),))),  # past the text
        replace(sk, windows=swapped).to_bytes(),  # two windows outside their blocks
        replace(sk, windows=sk.windows + [WindowRecord(EMPTY)]).to_bytes(),  # one window too many
    ]
    for blob in bad:
        with pytest.raises(CorruptSketch):
            Sketch.from_bytes(blob)


def test_mutated_sketches_decode_or_raise_corrupt_sketch():
    """1000 seeded mutants of a structured sketch, 1-3 random bytes each:
    every one decodes or raises CorruptSketch or UnsupportedSketch (never
    another exception), each within 2 s."""
    blob = _structured_sketch().to_bytes()
    rng = random.Random(20_240_318)
    outcomes = {"decoded": 0, CorruptSketch: 0, UnsupportedSketch: 0}
    for _ in range(1000):
        bad = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            bad[rng.randrange(len(bad))] = rng.randrange(256)
        t0 = time.perf_counter()
        try:
            decode(Sketch.from_bytes(bytes(bad)))
            outcomes["decoded"] += 1
        except (CorruptSketch, UnsupportedSketch) as exc:
            outcomes[type(exc)] += 1
        assert time.perf_counter() - t0 < 2.0
    assert outcomes["decoded"] > 0 and outcomes[CorruptSketch] > 0


def test_header_m_is_checked_before_points_are_expanded(monkeypatch):
    """A corrupted header m is caught from the records' endpoints alone, and
    a record past its crop in a sketch built in memory (which from_bytes
    never saw) from its crop, before any record is expanded to m + 1 points."""
    sk = _structured_sketch()
    at = next(i for i, w in enumerate(sk.windows) if w.kind == STRUCTURED)
    w = sk.windows[at]
    a = w.aligns[0]
    shift = w.crop_len - a.rel_end + 1  # same length, one past the crop end
    moved = replace(a, rel_start=a.rel_start + shift, rel_end=a.rel_end + shift)
    bad = [
        replace(sk, m=10**6),
        replace(sk, windows=sk.windows[:at] + [replace(w, aligns=(moved,) + w.aligns[1:])] + sk.windows[at + 1 :]),
    ]

    def expanded(*args, **kwargs):
        raise AssertionError("reconstruct_points ran before the record checks")

    monkeypatch.setattr(sketch_module, "reconstruct_points", expanded)
    for b in bad:
        with pytest.raises(CorruptSketch):
            decode(b)


def test_decode_medium_m_matches_reference_with_alignments():
    """Decode-inclusive differential check at m in the hundreds: a periodic
    instance and a lower-bound instance, several hundred pairs each."""
    q = (0, 1, 0, 2)
    t = list((q * 100)[:400])
    t[390] = 3
    lb = gen_lower_bound(508, 128, 2, seed=3)
    for p, t in ((Str((q * 64)[:256]), Str(t)), (lb.pattern, lb.text)):
        sk = encode(p, t, 2)
        assert STRUCTURED in {w.kind for w in sk.windows}
        got = decode(Sketch.from_bytes(sk.to_bytes()))
        assert len(got) >= 300
        assert occ_set(got) == occ_set(match_banded(p, t, 2))
        for o in got:
            a = optimal_alignment(p, t, o.start, o.end)
            assert o.points == a.points
            assert o.records == edit_info(a).records
