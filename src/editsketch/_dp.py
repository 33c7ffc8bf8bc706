"""Edit-distance dynamic-programming cores.

Everything that walks a Levenshtein lattice lives here, in five kernels:

- batch_verify_starts (every verification of candidate starts, on the
  matcher's direct and masked routes alike): Landau-Vishkin diagonals over
  a chunk of starts, k + 1 rounds of furthest-reaching rows per diagonal
  joined by slides along matching characters, up to eight codes per
  packed 64-bit word;
- one offset-major row step over many radius-k band rows (_band_row), for
  the batches that need whole rows:
  - periodic_extents (extensions of periodic anchors in candidate
    generation) drops a string once its row minimum exceeds the radius or
    it ends;
  - canonical_alignments (the decoder's per-start tracebacks) keeps the
    canonical step into every band cell, since each of its pairs costs at
    most k and is traced back from row m;
- the pure-Python widening band BandRows, one pair or start at a time:
  align_pair and bounded_pair (one canonical alignment, behind
  distance.optimal_alignment and edit_distance_bounded), and
  end_costs_for_start, the per-start reference behind
  distance.occ_edits_oracle that batch_verify_starts is tested against;
- the cyclic DP against a periodic extension q^inf (periodic_row_minima:
  one column per end position mod |q|, giving the distance of every prefix
  and the witness fragment in one pass);
- the self-alignment table (_selfed_rows).

BandRows stays beside the numpy band because a single pair is where numpy's
per-call cost dominates: for one cost-8 pair at m = 512, k = 8,
canonical_alignments takes 8.5 ms against align_pair's 2.6 ms (2-vCPU
Xeon, CPython 3.11, numpy 2.4), and encode aligns its pairs one at a time
(about 85 optimal_alignment calls per scan-breaks benchmark pass).

periodic_extents drops strings by Ukkonen's cutoff ("Finding approximate
patterns in strings", J. Algorithms 6, 1985), which is exact: every band
cell is reached from a cell of the row above that costs no more, so a row
minimum never decreases, and once it exceeds the threshold no later cell is
within it.  Because the aligned step keeps its band column, a row minimum
also grows by at most one per row, which tells the first row where a
minimum can pass the threshold.

The backtrace tie-break is fixed once for the whole package: at a cell, an
aligned step (match/substitution) is preferred over a deletion, which is
preferred over an insertion.  Every optimal alignment the package reports is
produced by this rule, which makes encoder, decoder, and oracles agree
bit-for-bit on alignments and edit information.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import Record

INF = 1 << 30

Points = List[Tuple[int, int]]


# ---------------------------------------------------------------------------
# banded DP against one text window, rows kept for backtraces

class BandRows:
    """Rows of a banded DP of pattern x against window w, radius r.

    Row i stores values for text offsets j in [i - r, i + r] clipped to
    [0, len(w)]; value INF marks unreachable cells.
    """

    __slots__ = ("x", "w", "r", "rows")

    def __init__(self, x: Sequence[int], w: Sequence[int], r: int):
        self.x = x
        self.w = w
        self.r = r
        n, m = len(x), len(w)
        row0 = list(range(min(m, r) + 1))
        rows: List[List[int]] = [row0]
        append = rows.append
        prev, plo = row0, 0
        for i in range(1, n + 1):
            lo = i - r
            if lo < 0:
                lo = 0
            hi = i + r
            if hi > m:
                hi = m
            if lo > hi:
                append([])
                prev, plo = [], lo
                continue
            xi = x[i - 1]
            cur = []
            push = cur.append
            plen = len(prev)
            left = INF
            for j in range(lo, hi + 1):
                best = INF
                pj = j - 1 - plo
                if 0 <= pj < plen:
                    best = prev[pj] + (xi != w[j - 1])
                pj += 1
                if 0 <= pj < plen:
                    v = prev[pj] + 1
                    if v < best:
                        best = v
                if left < best:
                    best = left
                push(best)
                left = best + 1
            append(cur)
            prev, plo = cur, lo
        self.rows = rows

    def lo(self, i: int) -> int:
        return max(0, i - self.r) if i else 0

    def value(self, i: int, j: int) -> int:
        lo = self.lo(i)
        row = self.rows[i]
        idx = j - lo
        if idx < 0 or idx >= len(row):
            return INF
        return row[idx]

    def last_row_costs(self) -> Dict[int, int]:
        """Map end offset j -> cost of aligning all of x onto w[0:j)."""
        n = len(self.x)
        lo = self.lo(n)
        return {lo + idx: v for idx, v in enumerate(self.rows[n]) if v < INF}

    def backtrace(self, j_end: int) -> Points:
        """Canonical path (aligned > delete > insert) from (0,0) to (n, j_end)."""
        x, w = self.x, self.w
        i, j = len(x), j_end
        path = [(i, j)]
        while i > 0 or j > 0:
            v = self.value(i, j)
            if i > 0 and j > 0 and self.value(i - 1, j - 1) + (x[i - 1] != w[j - 1]) == v:
                i, j = i - 1, j - 1
            elif i > 0 and self.value(i - 1, j) + 1 == v:
                i -= 1
            elif j > 0 and self.value(i, j - 1) + 1 == v:
                j -= 1
            else:  # pragma: no cover - indicates a corrupted band
                raise AssertionError("banded backtrace stranded")
            path.append((i, j))
        path.reverse()
        return path


def align_pair(x: Sequence[int], y: Sequence[int], cost: Optional[int] = None) -> Tuple[int, Points]:
    """Cost and canonical optimal path of x onto all of y.

    Runs a banded DP with a widening radius; once the band radius reaches the
    true cost the backtrace coincides with the full-table one.  A caller that
    knows the cost passes it, and the first band is then wide enough.
    """
    n, m = len(x), len(y)
    r = abs(n - m) + 4 if cost is None else max(cost, abs(n - m))
    while True:
        band = BandRows(x, y, r)
        cost = band.value(n, m)
        if cost <= r:
            return cost, band.backtrace(m)
        if r > n + m:  # pragma: no cover - cost is always <= n + m
            raise AssertionError("edit distance band exhausted")
        r = min(max(2 * r, 1), n + m + 1)


def bounded_pair(x: Sequence[int], y: Sequence[int], k: int) -> Optional[Tuple[int, Points]]:
    """(cost, canonical path) if edit distance <= k, else None."""
    if abs(len(x) - len(y)) > k:
        return None
    band = BandRows(x, y, k)
    cost = band.value(len(x), len(y))
    if cost > k:
        return None
    return cost, band.backtrace(len(y))


def end_costs_for_start(
    x: Sequence[int], t: Sequence[int], t0: int, k: int
) -> Dict[int, int]:
    """All absolute ends e with edit_distance(x, t[t0:e]) <= k, mapped to cost."""
    w = t[t0 : t0 + len(x) + k]
    band = BandRows(x, w, k)
    return {t0 + j: c for j, c in band.last_row_costs().items() if c <= k}


# ---------------------------------------------------------------------------
# cyclic DP against a periodic extension


def periodic_row_minima(x: Sequence[int], q: Sequence[int], prefix: bool) -> Iterator[Tuple[int, int, int]]:
    """Yield (cost, start, end) for x[:i], i = 0..len(x), against u = q^inf.

    cost is the least ED(x[:i], u[start:end]) over fragments of u (over
    prefixes, start = 0, when `prefix`), end the first optimal end in u, and
    start the largest start of an optimal fragment ending there.  Rows are
    computed only as far as they are consumed.

    u's lattice repeats with the end position, so one row holds one column
    per residue c of the end mod |q| (Amir, Eisenberg and Levy, "Approximate
    periodicity", ISAAC 2010): the aligned step into c comes from column
    c - 1 and consumes q[c - 1], a deletion stays in c, and an insertion
    moves from c - 1 to c within the row.  Insertions once round the cycle
    cost |q| and return to their column, so the insertion closure goes round
    once, from the row's cheapest column, which nothing can improve.  Each
    cell keeps the lexicographic minimum of (cost, end, -start) over its
    paths; a step adds the same amounts to every path it extends, so the
    minimum passes through the steps exactly.  Fragments start only below
    |q|: a later start has a shift by -|q| of equal cost and smaller end.
    The triple is packed into one integer, ((cost * span) + end) * |q| +
    |q| - 1 - start, so a comparison is one integer comparison.  A row has
    only |q| cells, where numpy's per-call cost would dominate, hence pure
    Python: O(len(x) * |q|) time, O(|q|) memory.
    """
    ql = len(q)
    # a cell's cost is at most i + |q| (the path of aligned steps), so its end
    # is below 2i + 2|q|, and a step adds one more
    span = 2 * (len(x) + ql) + 2
    one = span * ql  # one edit
    ins = one + ql  # one edit, one more end

    def unpack(key: int) -> Tuple[int, int, int]:
        cost, rest = divmod(key, one)
        end, back = divmod(rest, ql)
        return cost, ql - 1 - back, end

    if prefix:  # column c: u[:c] inserted
        row = [(c * span + c) * ql + ql - 1 for c in range(ql)]
    else:  # column c: the empty fragment at c
        row = [c * ql + ql - 1 - c for c in range(ql)]
    yield unpack(min(row))
    aligned: Dict[int, List[int]] = {}  # per code of x: the aligned step into each column
    for xi in x:
        inc = aligned.get(xi)
        if inc is None:
            inc = aligned[xi] = [ql + one * (xi != q[c - 1]) for c in range(ql)]
        row = [min(a + d, b + one) for a, d, b in zip(row[-1:] + row[:-1], inc, row)]
        best = min(row)
        c = row.index(best)
        for _ in range(ql - 1):
            v = row[c] + ins
            c = c + 1 if c + 1 < ql else 0
            if v < row[c]:
                row[c] = v
        yield unpack(best)


# ---------------------------------------------------------------------------
# offset-major bands over many starts: verification, anchor extensions and
# canonical tracebacks


def _band_frame(x: Sequence[int], t: Sequence[int], k: int):
    """Layout shared by every radius-k band of x against starts in t.

    Returns (ta_pad, vdtype, inf, row0).  ta_pad[s + k + j] holds t[s + j],
    padded with a value no pattern character equals, so cells beyond the
    text end only grow and never disturb in-range cells (the DP reads only
    leftward and upward).  Band column b of row i holds
    D[i][i + b - k]; row0 is row 0, with cells at j < 0 set to inf.
    t may be a text's `bytes` rendering, which numpy reads without a
    conversion per code.
    """
    n, m = len(t), len(x)
    win = m + 2 * k  # per-start character window: offsets i-1+d, d in [-k, k]
    if isinstance(t, bytes):  # every code < 256: only x can need int32
        max_code, ta = max(x, default=0), np.frombuffer(t, dtype=np.uint8)
    else:
        max_code, ta = max(max(t, default=0), max(x, default=0)), t
    cdtype = np.int16 if max_code < 30000 else np.int32
    ta_pad = np.full(n + win + 2, -1, dtype=cdtype)
    ta_pad[k : k + n] = np.asarray(ta, dtype=cdtype)
    vdtype = np.int16 if 2 * (m + k) + 100 < 30000 else np.int32
    inf = (m + k) + 50
    d0 = np.arange(-k, k + 1)
    row0 = np.where(d0 >= 0, d0, inf).astype(vdtype)
    return ta_pad, vdtype, inf, row0


def _band_row(prev, out, chars, xi, i, k, inf, offs, neq, up) -> None:
    """Write band row i into `out` from row i - 1 in `prev`, for all starts.

    chars[s, b] is the text character the aligned step into column b
    consumes; x[i - 1] is `xi`.  `neq` and `up` are scratch arrays shaped
    like `out`, with up[:, -1] already inf; on return they hold the mismatch
    bits and the deletion-step costs of the row.
    """
    np.not_equal(chars, xi, out=neq)
    np.add(prev, neq, out=out, casting="unsafe")
    np.add(prev[:, 1:], 1, out=up[:, :-1])
    np.minimum(out, up, out=out)
    out -= offs
    np.minimum.accumulate(out, axis=1, out=out)
    out += offs
    if i < k:  # offsets j = i + d < 0 stay unreachable
        out[:, : k - i] = inf


def _packed_words(x: Sequence[int], t: Sequence[int], k: int):
    """(xw, tw, shift): xw[i] packs x[i:] and tw[k + j] packs t[j:] into
    little-endian 64-bit words of 64 >> shift codes.  x's codes are renumbered
    from 0 (one byte each for up to 254 of them); text codes x lacks and cells
    past t's end read one spare code, cells past x's end another."""
    rank = {a: c for c, a in enumerate(sorted(set(x)))}
    dt = np.dtype(np.uint8 if len(rank) < 255 else np.uint16 if len(rank) < 65535 else np.uint32)
    m, n, size, spare = len(x), len(t), dt.itemsize, np.iinfo(dt).max
    if isinstance(t, bytes) and size == 1:
        lut = np.full(256, spare, dtype=np.uint8)
        lut[[a for a in rank if a < 256]] = [c for a, c in rank.items() if a < 256]
        tc = np.frombuffer(t.translate(lut.tobytes()), dtype=np.uint8)
    else:
        tc = [rank.get(c, spare) for c in t]
    xp = np.full(m + 8 // size, spare - 1, dtype=dt)
    xp[:m] = [rank[c] for c in x]
    tp = np.full(n + m + 2 * k + 8 // size, spare, dtype=dt)
    tp[k : k + n] = tc
    xw = np.ndarray(m + 1, dtype="<u8", buffer=xp, strides=(size,))
    tw = np.ndarray(n + m + 2 * k + 1, dtype="<u8", buffer=tp, strides=(size,))
    return xw, tw, 2 + size.bit_length()


def batch_verify_starts(
    x: Sequence[int], t: Sequence[int], starts: Sequence[int], k: int
) -> List[Tuple[int, int, int]]:
    """All (start, end, cost) triples with cost <= k, start drawn from `starts`.

    Equal to end_costs_for_start on each start, ordered by start, then end;
    ends beyond the text are dropped.  Landau-Vishkin diagonals (J.
    Algorithms 10, 1989) over a chunk of starts: L[e][d], the last row i with
    D[i][i + d] <= e, is the largest of L[e-1][d] + 1, L[e-1][d-1] and
    L[e-1][d+1] + 1, clipped to m and slid along matching codes a packed word
    at a time; end s + m + d costs the least e with L[e][d] = m.  Diagonal 0
    starts at row 0 for e = 0; any other diagonal's start, max(0, -d) at
    e = |d|, is no further than a neighbour's step.  Exact: D never decreases
    along a diagonal, and an optimal path of cost v never leaves |d| <= v.
    """
    n, m = len(t), len(x)
    st_all = np.unique(np.fromiter(starts, dtype=np.int64))
    st_all = st_all[(st_all >= 0) & (st_all <= n)]  # later starts end past the text
    if not st_all.size:
        return []
    xw, tw, shift = _packed_words(x, t, k)
    out: List[Tuple[int, int, int]] = []
    width = 2 * k + 1
    chunk = max(1, (1 << 16) // width)  # diagonal entries per chunk: memory stays bounded
    for c0 in range(0, st_all.size, chunk):
        st = st_all[c0 : c0 + chunk]
        base = (st[:, None] + np.arange(width)).ravel()  # tw[base + i] packs t[s + d + i:]
        L = np.full((st.size, width), -k - 2, dtype=np.int64)  # below 0: not reached yet
        L[:, k] = 0
        done = np.zeros(L.shape, dtype=np.int64)  # rounds that reached row m
        for e in range(k + 1):
            if e:
                nxt = L + 1
                np.maximum(nxt[:, 1:], L[:, :-1], out=nxt[:, 1:])
                np.maximum(nxt[:, :-1], L[:, 1:] + 1, out=nxt[:, :-1])
                L = np.minimum(nxt, m, out=nxt)
            flat = L.reshape(-1)
            act = np.flatnonzero((flat >= 0) & (flat < m))
            i, b = flat[act], base[act]
            while act.size:
                v = xw[i] ^ tw[b + i]
                i += np.bitwise_count((v & -v) - 1) >> shift  # codes before the first mismatch
                flat[act] = i
                more = v == 0
                act, i, b = act[more], i[more], b[more]
            done += L == m
        si, di = np.nonzero(done)
        s_hit, ends = st[si], st[si] + (m - k) + di
        keep = (ends >= s_hit) & (ends <= n)
        out += zip(s_hit[keep].tolist(), ends[keep].tolist(), (k + 1 - done[si, di])[keep].tolist())
    return out


# bytes of one chunk of periodic extensions: code matrix plus band arrays
_EXTEND_CHUNK_BYTES = 4 << 20


def periodic_extents(
    xs: Sequence[Sequence[int]], q: Sequence[int], r: int
) -> Tuple[List[int], List[int]]:
    """How far each x of xs stays within r edits of a prefix of q^inf.

    With u the prefix of q^inf of length len(x) + 2 len(q), returns for each
    x the largest a with min_j ED(x[:a], u[:j]) <= r, and the first j that
    minimizes ED(x[:a], u[:j]).  All strings share one radius-r band stepped
    by _band_row, with x's characters as a column against the shared u: a
    cell of true value v <= r, and an optimal path to it, lies within
    |j - i| <= v, so band cells are exact where the true value is at most r
    and no lower elsewhere.  Row minima never decrease, and grow by at most
    one per row, so a string leaves the sweep at the first row above r or
    past its end, and rows are checked only where that can happen.
    """
    A = len(xs)
    if not A:
        return [], []
    reach = np.zeros(A, dtype=np.int64)
    wlen = np.zeros(A, dtype=np.int64)
    lens = np.fromiter(map(len, xs), dtype=np.int64, count=A)
    ql, width = len(q), 2 * r + 1
    L = int(lens.max())
    vdtype = np.int16 if 2 * (L + r) + 100 < 30000 else np.int32
    inf = L + r + 50
    # upad[r + j - 1] = u[j - 1], the character the aligned step into j consumes
    upad = np.full(L + 2 * r + 1, -1, dtype=np.int32)
    upad[r:] = np.resize(np.asarray(q, dtype=np.int32), L + r + 1)
    offs = np.arange(width, dtype=vdtype)
    d0 = np.arange(-r, r + 1)
    row0 = np.where(d0 >= 0, d0, inf).astype(vdtype)
    per_string = 4 * (L + 1) + width * (4 * np.dtype(vdtype).itemsize + 1)
    chunk = max(1, _EXTEND_CHUNK_BYTES // per_string)
    for c0 in range(0, A, chunk):
        idx = np.arange(c0, min(A, c0 + chunk))
        ln = lens[idx]
        # one column past the longest string, so every string leaves the sweep
        X = np.full((len(idx), int(ln.max()) + 1), -1, dtype=np.int32)
        for a, x in enumerate(xs[c0 : c0 + chunk]):
            X[a, : len(x)] = x
        cut = (ln + 2 * ql + r)[:, None]  # column b of row i is past u iff i + b > cut
        V = np.broadcast_to(row0, (len(idx), width)).copy()
        np.putmask(V, offs > cut, inf)
        M, up, neq = np.empty_like(V), np.full_like(V, inf), np.empty(V.shape, dtype=bool)
        # first row a string can leave at; rows after clip_from can pass u's end
        check, clip_from = 1, 0
        for i in range(1, X.shape[1] + 1):
            _band_row(V, M, upad[i - 1 : i - 1 + width], X[:, i - 1 : i], i, r, inf, offs, neq, up)
            if i > clip_from:
                np.putmask(M, offs + i > cut, inf)
            if i >= check:
                mins = M.min(axis=1)
                live = (mins <= r) & (ln >= i)
                if not live.all():
                    gone = ~live
                    reach[idx[gone]] = i - 1
                    wlen[idx[gone]] = V[gone].argmin(axis=1) + (i - 1 - r)
                    if not live.any():
                        break
                    idx, ln, cut, X, M, mins = idx[live], ln[live], cut[live], X[live], M[live], mins[live]
                    V, up, neq = np.empty_like(M), np.full_like(M, inf), np.empty(M.shape, dtype=bool)
                lmin = int(ln.min())
                check = min(i + r - int(mins.max()), lmin) + 1
                clip_from = lmin + 2 * ql - r
            V, M = M, V
    return reach.tolist(), wlen.tolist()


# canonical step into a band cell, in tie-break order (an aligned cell's code
# is its mismatch bit), and the mark of the origin where every path stops
_MATCH, _SUB, _DEL, _INS, _STOP = range(5)


def canonical_alignments(
    x: Sequence[int], t: Sequence[int], pairs: Sequence[Tuple[int, int]], k: int, shift: int = 0
) -> List[Tuple[Tuple[Tuple[int, int], ...], FrozenSet[Record]]]:
    """Canonical optimal alignment of x onto t[s:e) for each (s, e) in pairs.

    Every pair must cost at most k.  Returns, in the order of `pairs`, the
    path points (x index, t index + shift) and the edit records
    (x, cx, y + shift, cy) of the path align_pair returns.  One radius-k
    band per distinct start serves all of its ends: a cell of true cost
    v <= k is reached by an optimal path inside |j - i| <= v, so the band is
    exact on every cell the canonical backtrace visits.  Each band row keeps
    the canonical step into each of its cells; the paths of all pairs of a
    chunk of starts are then followed back together, one gather per step.
    """
    result: list = [None] * len(pairs)
    if not len(pairs):
        return result
    m, n = len(x), len(t)
    width = 2 * k + 1
    by_start: Dict[int, List[int]] = {}
    for idx, (s0, e0) in enumerate(pairs):
        if not (0 <= s0 <= e0 <= n and abs(e0 - s0 - m) <= k):
            raise ValueError(f"pair ({s0}, {e0}) is more than {k} length edits from the pattern")
        by_start.setdefault(s0, []).append(idx)
    starts = sorted(by_start)
    ta_pad, vdtype, inf, row0 = _band_frame(x, t, k)
    offs = np.arange(width, dtype=vdtype)
    cols = np.arange(m + 2 * k)  # per-start window: offsets i-1+d, d in [-k, k]
    # step codes of every row plus the worst-case path history: 4 MiB a chunk
    chunk = max(1, (4 << 20) // (width * ((m + 1) + 4 * (m + k + 1))))
    for c0 in range(0, len(starts), chunk):
        st = starts[c0 : c0 + chunk]
        S = len(st)
        W = ta_pad[np.asarray(st, dtype=np.int64)[:, None] + cols]
        codes = np.empty((m + 1, S, width), dtype=np.uint8)
        codes[0] = _INS
        codes[0, :, k] = _STOP
        V = np.broadcast_to(row0, (S, width)).copy()
        M = np.empty_like(V)
        up = np.full_like(V, inf)
        neq = np.empty((S, width), dtype=bool)
        aligned = np.empty_like(neq)
        deleted = np.empty_like(neq)
        for i in range(1, m + 1):
            _band_row(V, M, W[:, i - 1 : i - 1 + width], x[i - 1], i, k, inf, offs, neq, up)
            V += neq  # the aligned step's cost into each cell
            np.equal(V, M, out=aligned)
            np.equal(up, M, out=deleted)
            np.subtract(_INS, deleted, out=codes[i], casting="unsafe")
            np.copyto(codes[i], neq, casting="unsafe", where=aligned)
            V, M = M, V
        _trace_chunk(codes, V, W, x, st, by_start, pairs, k, shift, result)
    return result


def _trace_chunk(codes, last, W, x, st, by_start, pairs, k, shift, result) -> None:
    """Follow the step codes back from every pair of the chunk's starts."""
    m = len(x)
    S, width = len(st), 2 * k + 1
    row = S * width
    idxs = [idx for s0 in st for idx in by_start[s0]]
    sid = np.asarray([a for a, s0 in enumerate(st) for _ in by_start[s0]], dtype=np.int64)
    b = np.asarray([pairs[idx][1] - pairs[idx][0] - m + k for idx in idxs], dtype=np.int64)
    if (last[sid, b] > k).any():
        raise ValueError(f"a pair costs more than {k}")
    flat = codes.reshape(-1)
    back = np.array([row, row, row - 1, 1, 0], dtype=np.int32)  # flat-index change per code
    # flat cell of every path after each step; a path has at most m + k steps
    hist = np.empty((m + k + 1, len(idxs)), dtype=np.int32)
    hist[0] = m * row + sid * width + b
    for step in range(1, m + k + 1):
        np.subtract(hist[step - 1], back[flat[hist[step - 1]]], out=hist[step])
    if (hist[-1] != sid * width + k).any():  # pragma: no cover - corrupted band
        raise AssertionError("banded backtrace stranded")
    steps = (hist != hist[-1]).sum(axis=0).tolist()
    step_codes = flat[hist[:-1]]
    te, pe = np.nonzero((step_codes >= _SUB) & (step_codes <= _INS))
    cells = hist[te, pe]
    ei, eb = cells // row, cells % width
    starts = [pairs[idx][0] for idx in idxs]
    recs: List[list] = [[] for _ in idxs]
    for p, c, i, j, cy in zip(
        pe.tolist(),
        step_codes[te, pe].tolist(),
        ei.tolist(),
        (ei + eb - k).tolist(),
        W[sid[pe], ei - 1 + eb].tolist(),  # t[s + j - 1]
    ):
        y = starts[p] + shift + j
        if c == _DEL:
            recs[p].append((i - 1, x[i - 1], y, None))
        elif c == _INS:
            recs[p].append((i, None, y - 1, cy))
        else:
            recs[p].append((i - 1, x[i - 1], y - 1, cy))
    for p, idx in enumerate(idxs):
        path = hist[steps[p] :: -1, p]
        xs = path // row
        ys = xs + path % width + (starts[p] - k)  # t index, shifted in Python
        points = tuple(zip(xs.tolist(), map(shift.__add__, ys.tolist())))
        result[idx] = (points, frozenset(recs[p]))


# ---------------------------------------------------------------------------
# self-alignment DP (no character aligned to itself)


def _selfed_rows(x: Sequence[int]):
    """Yield rows 0..n of the self-alignment table of x.

    The only difference from a plain edit-distance DP of x against itself is
    that the aligned transition out of a main-diagonal cell is forbidden:
    there it would necessarily match a character with itself.
    """
    n = len(x)
    prev = list(range(n + 1))
    yield prev
    for i in range(1, n + 1):
        xi = x[i - 1]
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            best = prev[j] + 1
            c = cur[j - 1] + 1
            if c < best:
                best = c
            if i != j:  # diagonal step out of (i-1, j-1) forbidden iff i-1 == j-1
                a = prev[j - 1] + (xi != x[j - 1])
                if a < best:
                    best = a
            cur[j] = best
        yield cur
        prev = cur


def selfed_cost(x: Sequence[int], cap: Optional[int] = None) -> Optional[int]:
    """Minimum cost of a self-alignment of x; None if it exceeds `cap`."""
    for row in _selfed_rows(x):
        pass
    v = row[len(x)]
    if cap is not None and v > cap:
        return None
    return v


def selfed_witness(x: Sequence[int]) -> Tuple[int, Points]:
    """(cost, canonical self-alignment path) by full-table backtrace."""
    n = len(x)
    if n == 0:
        return 0, [(0, 0)]
    rows = list(_selfed_rows(x))
    i = j = n
    path = [(i, j)]
    while i > 0 or j > 0:
        v = rows[i][j]
        if i > 0 and j > 0 and i != j and rows[i - 1][j - 1] + (x[i - 1] != x[j - 1]) == v:
            i, j = i - 1, j - 1
        elif i > 0 and rows[i - 1][j] + 1 == v:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return rows[n][n], path
