"""Compressibility measures: LZ77-like factorization and self-edit distance.

The greedy left-to-right LZ77 parse (self-overlap allowed) is the shortest
LZ77-like factorization; the self-edit distance is the minimum cost of an
alignment of a string onto itself that never aligns a character with itself.
The two are linked: |LZ(x)| <= 2 * selfed(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import _dp
from .alignment import Alignment
from .symbols import Str

# A phrase is (first, second): a previous factor (src_pos, length >= 1) or a
# literal (symbol, 0).
Phrase = Tuple[int, int]


@dataclass(frozen=True)
class LZFactorization:
    phrases: Tuple[Phrase, ...]

    def __len__(self) -> int:
        return len(self.phrases)

    def expand(self) -> Str:
        out: List[int] = []
        for a, b in self.phrases:
            if b == 0:
                out.append(a)
            else:
                for idx in range(b):  # byte-by-byte: sources may self-overlap
                    out.append(out[a + idx])
        return Str(out)


@dataclass(frozen=True)
class SelfEdResult:
    cost: int
    witness: Optional[Alignment] = None


def _longest_previous_bytes(b: bytes, i: int, limit: int) -> Tuple[int, int]:
    """(length, src) of the longest previous factor at i; most recent source."""
    if b.rfind(b[i : i + 1], 0, i) < 0:
        return 0, -1
    lo, hi = 1, limit  # feasibility is monotone in the length
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if b.rfind(b[i : i + mid], 0, i + mid - 1) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo, b.rfind(b[i : i + lo], 0, i + lo - 1)


def _longest_previous_generic(codes, i: int, limit: int) -> Tuple[int, int]:
    best_len, best_src = 0, -1
    for s in range(i):
        length = 0
        while length < limit and codes[s + length] == codes[i + length]:
            length += 1
        if length >= best_len and length > 0:
            best_len, best_src = length, s
    return best_len, best_src


def _parse_greedy(x: Str, cap: Optional[int] = None) -> Tuple[List[Phrase], int]:
    """Greedy parse; stops after `cap` phrases. Returns (phrases, consumed)."""
    n = len(x)
    b = x.as_bytes()
    phrases: List[Phrase] = []
    i = 0
    while i < n:
        if cap is not None and len(phrases) >= cap:
            break
        limit = n - i
        if b is not None:
            length, src = _longest_previous_bytes(b, i, limit)
        else:
            length, src = _longest_previous_generic(x.codes, i, limit)
        if length == 0:
            phrases.append((x.codes[i], 0))
            i += 1
        else:
            phrases.append((src, length))
            i += length
    return phrases, i


def lz77(x: Str) -> LZFactorization:
    """Canonical greedy LZ77 factorization with self-overlap.

    Previous-factor sources are resolved to the most recent (largest)
    earlier occurrence.
    """
    phrases, consumed = _parse_greedy(x)
    assert consumed == len(x)
    return LZFactorization(tuple(phrases))


def lz_size_leq(x: Str, z: int) -> Optional[int]:
    """|LZ(x)| if it is <= z, else None (parse aborts early)."""
    phrases, consumed = _parse_greedy(x, cap=z)
    if consumed < len(x):
        return None
    return len(phrases)


def lz_bounded_prefix(
    x: Str, start: int, z: int, direction: str = "forward"
) -> Tuple[int, LZFactorization]:
    """Longest extent from `start` whose factorization has at most z phrases.

    forward: the extent e maximizes |LZ(x[start:start+e])| <= z;
    reversed: scans leftward, factorizing x[start-e:start] reversed.
    The greedy parse of a prefix is the full parse clipped at the prefix end,
    so one capped parse determines the answer.  `graph.cover_recursive` runs
    one per boundary search, in both directions.
    """
    if z < 1:
        raise ValueError("phrase budget must be >= 1")
    if direction == "forward":
        tail = x[start:]
    elif direction == "reversed":
        tail = Str(x.codes[:start][::-1])
    else:
        raise ValueError(f"unknown direction {direction!r}")
    phrases, consumed = _parse_greedy(tail, cap=z)
    extent = consumed if consumed <= len(tail) else len(tail)
    return extent, LZFactorization(tuple(phrases))


def selfed(x: Str, with_witness: bool = True) -> SelfEdResult:
    """Exact self-edit distance, with a witness self-alignment if requested."""
    if with_witness and len(x) <= 512:
        cost, pts = _dp.selfed_witness(x.codes)
        return SelfEdResult(cost, Alignment(tuple(pts), x, x))
    return SelfEdResult(_dp.selfed_cost(x.codes))


def selfed_leq(x: Str, cap: int) -> Optional[int]:
    """selfed(x) when it is <= cap, else None."""
    return _dp.selfed_cost(x.codes, cap=cap)
