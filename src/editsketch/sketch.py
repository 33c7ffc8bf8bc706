"""One-way sketch of all k-error occurrences, decodable without the inputs.

The text is cut into blocks; each block owns a window long enough to contain
every occurrence starting inside the block.  Per window the encoder emits one
of four record kinds: EMPTY (no occurrence), RAW (verbatim symbols, the
fallback when k > m/4), SINGLE (exactly one occurrence pair: its edit
information alone), or STRUCTURED (the edit information of a logarithmic
alignment set plus the learned characters of a period cover).  The decoder
rebuilds, per structured window, the alignment graph from the edit
information, recovers every red-component character, substitutes mask
characters for unlearned black components, and recomputes the occurrence
pairs of the masked strings, which provably coincide with the true ones
together with their optimal alignments and edit information.  Those
alignments come per start, not per pair: the pairs no other window decoded
are grouped by start, one radius-k band per start is filled, and the
canonical paths and edit records of all pairs are traced back together
(_dp.canonical_alignments).  RAW windows go the same way after a plain
re-match.  The parser checks each header against its records (4k > m iff a
pattern is embedded iff every window is RAW; at most k edits per alignment;
window starts inside the text) so a corrupted threshold cannot drive decode.

Wire layout (little-endian varints):
  magic "EPMS" | version u8 | flags u8 | n m k alphabet window_count
  flags bit0: characters stored verbatim (no alphabet reduction)
  flags bit1: pattern embedded (RAW fallback mode), m varints follow
  window := tag u8 (0..3) | payload
    RAW        := lo len sym*len
    SINGLE     := lo alignrec
    STRUCTURED := lo crop_len |S| alignrec*|S| n_iv (a b lz)*n_iv
  alignrec := rel_start rel_end ident_u8 n_rec (x cx' y cy')*n_rec
              with c' = 0 for none else code+1
  lz := n_phrase (tag u8, a, b)*n_phrase  -- tag 0: literal (sym, 0)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ._dp import canonical_alignments
from .alignment import CorruptEditInfo, Record, edit_info, reconstruct_points
from .compress import LZFactorization, lz77
from .distance import optimal_alignment
from .graph import (
    AlignmentSet,
    InternalInvariantBroken,
    black_indexing,
    build_graph,
)
from .matcher import find_occurrences, match_banded
from .symbols import Str, from_bytes, mask_code
from .window import structure_from_pairs

MAGIC = b"EPMS"
VERSION = 1

EMPTY, RAW, SINGLE, STRUCTURED = range(4)


class CorruptSketch(ValueError):
    pass


class UnsupportedSketch(ValueError):
    pass


class BadParams(ValueError):
    pass


class NotFromFamily(ValueError):
    pass


# ---------------------------------------------------------------------------
# varints


def _put(buf: bytearray, v: int) -> None:
    if v < 0:
        raise ValueError("negative varint")
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            buf.append(b | 0x80)
        else:
            buf.append(b)
            return


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise CorruptSketch("truncated")
        v = self.data[self.pos]
        self.pos += 1
        return v

    def varint(self) -> int:
        shift = v = 0
        while True:
            b = self.u8()
            v |= (b & 0x7F) << shift
            if not b & 0x80:
                return v
            shift += 7
            if shift > 63:
                raise CorruptSketch("varint overflow")


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class AlignRec:
    rel_start: int
    rel_end: int
    identity: bool
    records: Tuple[Record, ...]  # y coordinates relative to the crop


@dataclass
class WindowRecord:
    kind: int
    lo: int = 0
    crop_len: int = 0
    symbols: Tuple[int, ...] = ()
    aligns: Tuple[AlignRec, ...] = ()
    intervals: Tuple[Tuple[int, int, LZFactorization], ...] = ()


@dataclass
class Sketch:
    n: int
    m: int
    k: int
    alphabet: int
    chars_mode: bool
    pattern: Optional[Tuple[int, ...]]  # embedded only in RAW fallback mode
    windows: List[WindowRecord]
    stats: Dict[str, int] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        buf = bytearray(MAGIC)
        buf.append(VERSION)
        flags = (1 if self.chars_mode else 0) | (2 if self.pattern is not None else 0)
        buf.append(flags)
        for v in (self.n, self.m, self.k, self.alphabet, len(self.windows)):
            _put(buf, v)
        if self.pattern is not None:
            for c in self.pattern:
                _put(buf, c)
        for w in self.windows:
            buf.append(w.kind)
            if w.kind == EMPTY:
                continue
            _put(buf, w.lo)
            if w.kind == RAW:
                _put(buf, len(w.symbols))
                for c in w.symbols:
                    _put(buf, c)
                continue
            if w.kind == SINGLE:
                _write_alignrec(buf, w.aligns[0])
                continue
            _put(buf, w.crop_len)
            _put(buf, len(w.aligns))
            for a in w.aligns:
                _write_alignrec(buf, a)
            _put(buf, len(w.intervals))
            for a, b, lz in w.intervals:
                _put(buf, a)
                _put(buf, b)
                _put(buf, len(lz.phrases))
                for first, second in lz.phrases:
                    buf.append(0 if second == 0 else 1)
                    _put(buf, first)
                    _put(buf, second)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        if data[:4] != MAGIC:
            raise CorruptSketch("bad magic")
        r = _Reader(data)
        r.pos = 4
        ver = r.u8()
        if ver != VERSION:
            raise UnsupportedSketch(f"version {ver}")
        flags = r.u8()
        n, m, k, alphabet, wc = (r.varint() for _ in range(5))
        raw_mode = bool(flags & 2)
        if raw_mode != (4 * k > m):
            raise CorruptSketch(f"k={k}, m={m}: a pattern is embedded iff 4k > m")
        # encode writes one window per block, in order, and each window
        # starts in its own block: at the block start (RAW) or a pair start
        block = split_blocks(n, m, k)[0]
        if wc != len(range(0, max(n, 1), block)):
            raise CorruptSketch(f"{wc} windows for a text of {n} in blocks of {block}")
        pattern = tuple(r.varint() for _ in range(m)) if raw_mode else None
        windows = []
        for w in range(wc):
            kind = r.u8()
            if raw_mode != (kind == RAW):
                raise CorruptSketch("windows are RAW iff a pattern is embedded")
            if kind == EMPTY:
                windows.append(WindowRecord(EMPTY))
                continue
            lo = r.varint()
            if not w * block <= lo < min((w + 1) * block, max(n, 1)):
                raise CorruptSketch(f"window {w} starts outside its block")
            if kind == RAW:
                ln = r.varint()
                syms = tuple(r.varint() for _ in range(ln))
                windows.append(WindowRecord(RAW, lo=lo, symbols=syms))
            elif kind == SINGLE:
                a = _read_alignrec(r, k, n - lo)
                windows.append(WindowRecord(SINGLE, lo=lo, crop_len=a.rel_end, aligns=(a,)))
            elif kind == STRUCTURED:
                # the crop runs from a pair start in the block to a pair end
                # at most the window end
                crop_len = r.varint()
                if lo + crop_len > n or crop_len > split_blocks(n, m, k)[1]:
                    raise CorruptSketch("window crop beyond the text or the window span")
                na = r.varint()
                aligns = tuple(_read_alignrec(r, k, crop_len) for _ in range(na))
                niv = r.varint()
                ivs = []
                for _ in range(niv):
                    a0, b0 = r.varint(), r.varint()
                    np_ = r.varint()
                    phrases = []
                    for _ in range(np_):
                        tag = r.u8()
                        f0, s0 = r.varint(), r.varint()
                        if tag == 0 and s0 != 0:
                            raise CorruptSketch("literal phrase with nonzero length")
                        phrases.append((f0, s0))
                    ivs.append((a0, b0, LZFactorization(tuple(phrases))))
                windows.append(
                    WindowRecord(STRUCTURED, lo=lo, crop_len=crop_len, aligns=aligns, intervals=tuple(ivs))
                )
            else:
                raise CorruptSketch(f"unknown window kind {kind}")
        if r.pos != len(data):
            raise CorruptSketch("trailing bytes")
        return cls(n, m, k, alphabet, bool(flags & 1), pattern, windows)


def _write_alignrec(buf: bytearray, a: AlignRec) -> None:
    _put(buf, a.rel_start)
    _put(buf, a.rel_end)
    buf.append(1 if a.identity else 0)
    _put(buf, len(a.records))
    for x, cx, y, cy in sorted(a.records, key=lambda r: (r[0], r[2])):
        _put(buf, x)
        _put(buf, 0 if cx is None else cx + 1)
        _put(buf, y)
        _put(buf, 0 if cy is None else cy + 1)


def _read_alignrec(r: _Reader, k: int, crop_len: int) -> AlignRec:
    rel_start = r.varint()
    rel_end = r.varint()
    if not rel_start <= rel_end <= crop_len:
        raise CorruptSketch("alignment outside the crop")
    ident = r.u8()
    nr = r.varint()
    if nr > k:
        raise CorruptSketch(f"alignment with {nr} edits under threshold {k}")
    recs = []
    for _ in range(nr):
        x = r.varint()
        cx = r.varint()
        y = r.varint()
        cy = r.varint()
        recs.append((x, None if cx == 0 else cx - 1, y, None if cy == 0 else cy - 1))
    return AlignRec(rel_start, rel_end, bool(ident), tuple(recs))


def sketch_size_bits(sk: Sketch) -> int:
    return 8 * len(sk.to_bytes())


# ---------------------------------------------------------------------------
# alphabet reduction


def _reduce_alphabet(p: Str, t: Str) -> Tuple[Str, Str, int]:
    """Map pattern characters densely; all other text characters collapse to
    one spare code.  Pattern-text equality is untouched, so occurrences,
    costs, and alignments are preserved."""
    pal = sorted(set(p.codes))
    remap = {c: i for i, c in enumerate(pal)}
    other = len(pal)
    pb, tb = p.as_bytes(), t.as_bytes()
    if pb is not None and tb is not None:
        # other <= 255 whenever some byte value is missing from the pattern
        table = bytes(remap.get(c, other) for c in range(256))
        return from_bytes(pb.translate(table)), from_bytes(tb.translate(table)), other + 1
    p2 = Str(remap[c] for c in p.codes)
    t2 = Str(remap.get(c, other) for c in t.codes)
    return p2, t2, other + 1


def split_blocks(n: int, m: int, k: int) -> Tuple[int, int]:
    """(block_length, window_span): windows [b, b + span] cover every pair
    whose start lies in the owning block."""
    block = max(1, m - 3 * k)
    return block, block + m + k


# ---------------------------------------------------------------------------
# encoding


def encode(p: Str, t: Str, k: int, chars: bool = False, validate: bool = False) -> Sketch:
    """Build the sketch of all k-error occurrence pairs of p in t."""
    if k < 1:
        raise ValueError("threshold must be at least 1")
    if len(p) == 0:
        raise ValueError("empty pattern")
    m, n = len(p), len(t)
    if chars:
        alphabet = max(p.max_code(), t.max_code(), 0) + 1
    else:
        p, t, alphabet = _reduce_alphabet(p, t)
    block, span = split_blocks(n, m, k)
    stats: Dict[str, int] = {
        "windows": 0,
        "empty": 0,
        "raw": 0,
        "single": 0,
        "structured": 0,
        "extensions": 0,
        "masked_components": 0,
    }
    windows: List[WindowRecord] = []

    if 4 * k > m:
        for wlo in range(0, max(n, 1), block):
            whi = min(wlo + span, n)
            windows.append(WindowRecord(RAW, lo=wlo, symbols=t.codes[wlo:whi]))
            stats["raw"] += 1
        stats["windows"] = len(windows)
        return Sketch(n, m, k, alphabet, chars, p.codes, windows, stats)

    occ = find_occurrences(p, t, k)
    pairs_sorted = sorted((o.start, o.end, o.cost) for o in occ)
    idx = 0
    for wlo in range(0, max(n, 1), block):
        whi = min(wlo + span, n)
        wpairs = []
        while idx < len(pairs_sorted) and pairs_sorted[idx][0] < min(wlo + block, n):
            wpairs.append(pairs_sorted[idx])
            idx += 1
        if any(e > whi for _, e, _ in wpairs):
            raise InternalInvariantBroken("occurrence escapes its window")
        windows.append(_encode_window(p, t, k, wpairs, validate, stats))
    stats["windows"] = len(windows)
    return Sketch(n, m, k, alphabet, chars, None, windows, stats)


def _alignrec_from(a, crop_lo: int) -> AlignRec:
    info = edit_info(a)
    recs = tuple((x, cx, y - crop_lo, cy) for x, cx, y, cy in info.sorted())
    return AlignRec(
        rel_start=a.dst_start - crop_lo,
        rel_end=a.dst_end - crop_lo,
        identity=not recs,
        records=recs,
    )


def _encode_window(
    p: Str, t: Str, k: int, wpairs: List[Tuple[int, int, int]], validate: bool, stats: Dict[str, int]
) -> WindowRecord:
    if not wpairs:
        stats["empty"] = stats.get("empty", 0) + 1
        return WindowRecord(EMPTY)
    if len(wpairs) == 1:
        s0, e0, c0 = wpairs[0]
        a = optimal_alignment(p, t, s0, e0, c0)
        stats["single"] = stats.get("single", 0) + 1
        return WindowRecord(SINGLE, lo=s0, crop_len=e0 - s0, aligns=(_alignrec_from(a, s0),))
    ws = structure_from_pairs(p, t, k, wpairs, validate=validate)
    stats["structured"] = stats.get("structured", 0) + 1
    stats["extensions"] = stats.get("extensions", 0) + ws.stats.get("extensions", 0)
    aligns = tuple(_alignrec_from(a, 0) for a in ws.aligns)  # already crop-relative
    intervals: List[Tuple[int, int, LZFactorization]] = []
    if ws.idx is not None:
        stats["masked_components"] = stats.get("masked_components", 0) + ws.idx.bc - len(
            ws.cover.components
        )
        for a0, b0 in ws.cover.intervals:
            frag = ws.t_crop[ws.idx.tau(a0, 0) : ws.idx.tau(b0, 0) + 1]
            intervals.append((a0, b0, lz77(frag)))
    return WindowRecord(
        STRUCTURED,
        lo=ws.crop_start,
        crop_len=len(ws.t_crop),
        aligns=aligns,
        intervals=tuple(intervals),
    )


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class DecodedOccurrence:
    start: int
    end: int
    cost: int
    points: Tuple[Tuple[int, int], ...]
    records: FrozenSet[Record]

    def key(self) -> Tuple[int, int, int]:
        return (self.start, self.end, self.cost)


def decode(sk: Sketch) -> List[DecodedOccurrence]:
    """All occurrence pairs with optimal alignments, from the sketch alone."""
    out: Dict[Tuple[int, int], DecodedOccurrence] = {}
    for w in sk.windows:
        if w.kind == EMPTY:
            continue
        if w.kind == RAW:
            if sk.pattern is None:
                raise CorruptSketch("raw window without an embedded pattern")
            p = Str(sk.pattern)
            frag = Str(w.symbols)
            occ = sorted(match_banded(p, frag, sk.k), key=lambda o: (o.start, o.end))
            _add_pairs(out, w.lo, sk.k, p, frag, [(o.start, o.end, o.cost) for o in occ])
            continue
        if w.kind == SINGLE:
            a = w.aligns[0]
            pts = _points_of(a, sk.m)
            key = (w.lo + a.rel_start, w.lo + a.rel_end)
            if key not in out:
                _store(out, w.lo, key, len(a.records), pts, a.records)
            continue
        ph, th, occ = _decode_structured(sk, w)
        _add_pairs(out, w.lo, sk.k, ph, th, occ)
    return sorted(out.values(), key=lambda o: (o.start, o.end))


def _points_of(a: AlignRec, m: int):
    """The m + 1 path points of an alignment record, after checking its
    endpoint against the records in time linear in their number."""
    dels = sum(cy is None for _, _, _, cy in a.records)
    ins = sum(cx is None for _, cx, _, _ in a.records)
    if a.rel_end != a.rel_start + m - dels + ins:
        raise CorruptSketch("alignment record endpoint mismatch")
    try:
        return reconstruct_points(list(a.records), m, a.rel_start, a.identity)
    except CorruptEditInfo as exc:
        raise CorruptSketch(f"alignment record does not reconstruct: {exc}") from exc


def _add_pairs(out, lo, k, p: Str, t_crop: Str, occ) -> None:
    """Attach canonical alignments to the pairs no other window decoded,
    from one radius-k band per start."""
    todo = [(s0, e0, cost) for s0, e0, cost in occ if (lo + s0, lo + e0) not in out]
    pairs = [(s0, e0) for s0, e0, _ in todo]
    aligned = canonical_alignments(p.codes, t_crop.as_bytes() or t_crop.codes, pairs, k, lo)
    for (s0, e0, cost), (pts, recs) in zip(todo, aligned):
        out[(lo + s0, lo + e0)] = DecodedOccurrence(lo + s0, lo + e0, cost, pts, recs)


def _store(out, lo, key, cost, pts, recs) -> None:
    shifted_pts = tuple((x, y + lo) for x, y in pts)
    shifted_recs = frozenset((x, cx, y + lo, cy) for x, cx, y, cy in recs)
    out[key] = DecodedOccurrence(key[0], key[1], cost, shifted_pts, shifted_recs)


def _decode_structured(sk: Sketch, w: WindowRecord):
    m, crop_len, k = sk.m, w.crop_len, sk.k
    members = []
    for a in w.aligns:  # also checked when parsed; a sketch built in memory is not
        if not (0 <= a.rel_start and a.rel_end <= crop_len):
            raise CorruptSketch("alignment outside the crop")
        members.append((_points_of(a, m), frozenset(a.records)))
    s = AlignmentSet(Str([0] * m), Str([0] * crop_len), members, k)
    g = build_graph(s.pattern, s.text, s)

    p_chars: List[Optional[int]] = [None] * m
    t_chars: List[Optional[int]] = [None] * crop_len
    for _, records in members:
        for x, cx, y, cy in records:
            if cx is not None:
                p_chars[x] = cx
            if cy is not None:
                t_chars[y] = cy
    # propagate along character-equality (black-edge) classes
    class_char: Dict[int, int] = {}
    for x in range(m):
        if p_chars[x] is not None:
            class_char[g.black.find(x)] = p_chars[x]
    for y in range(crop_len):
        if t_chars[y] is not None:
            class_char[g.black.find(m + y)] = t_chars[y]

    if g.bc > 0:
        idx = black_indexing(g)
        learned: Dict[int, int] = {}
        for a0, b0, lz in w.intervals:
            if not (0 <= a0 <= b0 < idx.bc):
                raise CorruptSketch("cover interval out of range")
            try:
                frag = lz.expand()
            except IndexError as exc:
                raise CorruptSketch("cover payload does not expand") from exc
            want = idx.tau(b0, 0) - idx.tau(a0, 0) + 1
            if len(frag) != want:
                raise CorruptSketch("cover payload length mismatch")
            for c in range(a0, b0 + 1):
                learned[c] = frag[idx.tau(c, 0) - idx.tau(a0, 0)]
        base = sk.alphabet
        for c in range(idx.bc):
            code = learned.get(c)
            if code is None:
                code = mask_code(base, c)
            for j in range(idx.m_c(c)):
                p_chars[idx.pi(c, j)] = code
            for i in range(idx.n_c(c)):
                t_chars[idx.tau(c, i)] = code

    for x in range(m):
        if p_chars[x] is None:
            root = g.black.find(x)
            if root not in class_char:
                raise CorruptSketch("unrecoverable pattern character")
            p_chars[x] = class_char[root]
    for y in range(crop_len):
        if t_chars[y] is None:
            root = g.black.find(m + y)
            if root not in class_char:
                raise CorruptSketch("unrecoverable text character")
            t_chars[y] = class_char[root]

    ph, th = Str(p_chars), Str(t_chars)
    if len(th) > 96 and 8 * k <= m:
        occ = find_occurrences(ph, th, k)
    else:
        occ = match_banded(ph, th, k)
    pairs = sorted((o.start, o.end, o.cost) for o in occ)
    return ph, th, pairs


# ---------------------------------------------------------------------------
# lower-bound instance family


@dataclass(frozen=True)
class LowerBoundInstance:
    pattern: Str
    text: Str
    planted: Tuple[Tuple[int, ...], ...]  # per block: sorted positions of the ones
    n: int
    m: int
    k: int
    seed: int

    @property
    def block_count(self) -> int:
        return self.n // (2 * self.m - 2)


def gen_lower_bound(n: int, m: int, k: int, seed: int) -> LowerBoundInstance:
    """Doubled-block texts over {0,1} whose occurrence set encodes the blocks.

    Each length-(m-1) block has exactly k ones; the text is every block
    repeated twice, zero-padded to length n, matched against the all-zero
    pattern.  Position q(2m-2)+i is a k-error occurrence start iff block q
    has a zero at i, so the occurrence set recovers every block.
    """
    if not (n // 2 >= m > k > 0):
        raise BadParams(f"need n/2 >= m > k > 0, got n={n} m={m} k={k}")
    rng = random.Random(seed)
    p_count = n // (2 * m - 2)
    planted = []
    codes: List[int] = []
    for _ in range(p_count):
        ones = tuple(sorted(rng.sample(range(m - 1), k)))
        planted.append(ones)
        blk = [0] * (m - 1)
        for i in ones:
            blk[i] = 1
        codes.extend(blk)
        codes.extend(blk)
    codes.extend([0] * (n - len(codes)))
    return LowerBoundInstance(Str([0] * m), Str(codes), tuple(planted), n, m, k, seed)


def recover_planted(occ_starts: Set[int], n: int, m: int, k: int) -> List[Tuple[int, ...]]:
    """Rebuild every planted block from the k-error occurrence start set."""
    period = 2 * m - 2
    blocks = []
    for q in range(n // period):
        ones = tuple(i for i in range(m - 1) if q * period + i not in occ_starts)
        if len(ones) != k:
            raise NotFromFamily(f"block {q} decodes to {len(ones)} ones, expected {k}")
        blocks.append(ones)
    return blocks
