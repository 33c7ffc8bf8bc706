"""Shared test helpers: independent brute-force oracles and generators.

The oracles here deliberately avoid the package's DP cores: plain
definition-level computations used to derive and check expected values.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Sequence, Tuple

import pytest


def brute_edit_distance(x: Sequence[int], y: Sequence[int]) -> int:
    """Textbook full-table DP, written independently of the package cores."""
    prev = list(range(len(y) + 1))
    for i, cx in enumerate(x, 1):
        cur = [i]
        for j, cy in enumerate(y, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (cx != cy)))
        prev = cur
    return prev[-1]


def brute_table(x: Sequence[int], u: Sequence[int], free_start: bool) -> List[List[int]]:
    """Cell (i, j): edit distance of x[:i] to u[:j], or, with a free start,
    its minimum over the fragments u[s:j]."""
    def cell(i: int, j: int) -> int:
        if free_start:
            return min(brute_edit_distance(x[:i], u[s:j]) for s in range(j + 1))
        return brute_edit_distance(x[:i], u[:j])

    return [[cell(i, j) for j in range(len(u) + 1)] for i in range(len(x) + 1)]


def brute_per(s: Sequence[int]) -> int:
    """Smallest period directly from the definition."""
    n = len(s)
    for p in range(1, n + 1):
        if all(s[i] == s[i + p] for i in range(n - p)):
            return p
    raise AssertionError


def brute_occurrences(p: Sequence[int], t: Sequence[int]) -> List[int]:
    m = len(p)
    return [i for i in range(len(t) - m + 1) if tuple(t[i : i + m]) == tuple(p)]


def brute_occ_pairs(p: Sequence[int], t: Sequence[int], k: int) -> set:
    """All (start, end, cost) with cost <= k, by the independent DP."""
    out = set()
    n = len(t)
    for i in range(n + 1):
        for j in range(i, n + 1):
            if abs((j - i) - len(p)) > k:
                continue
            c = brute_edit_distance(p, t[i:j])
            if c <= k:
                out.add((i, j, c))
    return out


def brute_selfed(x: Sequence[int]) -> int:
    """Minimum-cost self-alignment by exhaustive path enumeration."""
    n = len(x)
    best = [None]

    def walk(i: int, j: int, cost: int):
        if best[0] is not None and cost >= best[0]:
            return
        if i == n and j == n:
            best[0] = cost
            return
        if i < n and j < n and i != j:
            walk(i + 1, j + 1, cost + (x[i] != x[j]))
        if i < n:
            walk(i + 1, j, cost + 1)
        if j < n:
            walk(i, j + 1, cost + 1)

    walk(0, 0, 0)
    return best[0]


def brute_suffix_min(p: Sequence[int], t: Sequence[int]) -> int:
    return min(brute_edit_distance(p, t[y:]) for y in range(len(t) + 1))


def brute_ed_periodic(s: Sequence[int], q: Sequence[int], mode: str) -> int:
    """Minimize over explicit windows of a generous unrolling of q."""
    if not s:
        return 0
    reps = (3 * len(s)) // len(q) + 4
    u = tuple(q) * reps
    best = len(s)
    if mode == "substring":
        for i in range(len(q)):
            for j in range(i, min(len(u), i + 2 * len(s) + 1) + 1):
                best = min(best, brute_edit_distance(s, u[i:j]))
    else:
        for j in range(min(len(u), 2 * len(s) + 1) + 1):
            best = min(best, brute_edit_distance(s, u[:j]))
    return best


def binary_strings(max_len: int, min_len: int = 1):
    for length in range(min_len, max_len + 1):
        for bits in itertools.product((0, 1), repeat=length):
            yield bits


def random_codes(rng: random.Random, n: int, sigma: int) -> Tuple[int, ...]:
    return tuple(rng.randrange(sigma) for _ in range(n))


@pytest.fixture
def rng():
    return random.Random(0xE5)


def planted_text(rng: random.Random, p: Sequence[int], k: int, sigma: int, reps: int, pad: int) -> Tuple[int, ...]:
    """Text containing mutated copies of p separated by random padding."""
    t: List[int] = []
    for _ in range(reps):
        t += [rng.randrange(sigma) for _ in range(rng.randint(0, pad))]
        frag = list(p)
        for _ in range(rng.randint(0, k)):
            op = rng.choice(("sub", "del", "ins"))
            pos = rng.randrange(max(1, len(frag)))
            if op == "sub" and frag:
                frag[pos] = rng.randrange(sigma)
            elif op == "del" and frag:
                frag.pop(pos)
            else:
                frag.insert(pos, rng.randrange(sigma))
        t += frag
    t += [rng.randrange(sigma) for _ in range(rng.randint(0, pad))]
    return tuple(t)
