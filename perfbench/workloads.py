"""Seeded input generators and the four benchmark workloads.

Everything that shapes an input lives here, so a change to the package can
never shift what the benchmark feeds it.  Inputs are plain ``bytes`` (one
symbol per byte); the benchmark ingests them through the package's own
``symbols.from_bytes``, which is part of the measured set-up.

Instance i of a workload is built from (workload, seed, i) alone, so the
same seed gives the same bytes.  The benchmark runs match, encode and decode
on instances 0, 1, 2, ... in order; the first ``base`` of them run in every
run.  An instance names the decomposition case its pattern must land in
(``expect``).  Why each workload exists is recorded in BENCHMARK.json at the
repository root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class Instance:
    family: str
    expect: str  # decomposition case: 'breaks' | 'regions' | 'period'
    pattern: bytes
    text: bytes
    k: int
    planted: Optional[Tuple[Tuple[int, ...], ...]] = None  # lower-bound blocks
    reference: bool = False  # also check find_occurrences against match_banded

    @property
    def n(self) -> int:
        return len(self.text)

    @property
    def m(self) -> int:
        return len(self.pattern)


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random, int, float], Instance]  # (rng, index, scale)
    base: int  # instances every run executes (and the traced run repeats)


# ---------------------------------------------------------------------------
# primitives


def random_bytes(rng: random.Random, n: int, sigma: int) -> bytes:
    """n symbols drawn uniformly from [0, sigma)."""
    out = bytearray()
    while len(out) < n:
        # rejection keeps the draw uniform when sigma does not divide 256
        top = 256 - 256 % sigma
        out += bytes(b % sigma for b in rng.randbytes(n - len(out)) if b < top)
    return bytes(out[:n])


def is_primitive(s: bytes) -> bool:
    return (s + s).find(s, 1) == len(s)


def primitive_word(rng: random.Random, length: int, sigma: int) -> bytes:
    while True:
        q = random_bytes(rng, length, sigma)
        if length == 1 or is_primitive(q):
            return q


def unroll(q: bytes, length: int) -> bytes:
    return (q * (length // len(q) + 1))[:length]


def mutate(rng: random.Random, s: bytes, edits: int, sigma: int) -> bytes:
    """Apply `edits` edits at random positions, cycling through
    substitution, deletion and insertion."""
    out = bytearray(s)
    for e in range(edits):
        op = ("sub", "del", "ins")[e % 3]
        pos = rng.randrange(len(out))
        if op == "sub":
            out[pos] = (out[pos] + 1 + rng.randrange(sigma - 1)) % sigma
        elif op == "del":
            del out[pos]
        else:
            out.insert(pos, rng.randrange(sigma))
    return bytes(out)


def plant(rng: random.Random, p: bytes, k: int, sigma: int, copies: int, n: int) -> bytes:
    """Text of about n symbols: `copies` mutated copies of p evenly spaced in
    random padding; copy j carries k - (j mod (k+1)) edits."""
    gap = max(0, n - copies * len(p)) // (copies + 1)
    out = bytearray()
    for j in range(copies):
        out += random_bytes(rng, gap, sigma)
        out += mutate(rng, p, k - j % (k + 1), sigma)
    out += random_bytes(rng, max(0, n - len(out)), sigma)
    return bytes(out)


# ---------------------------------------------------------------------------
# families


def periodic_pair(rng: random.Random, n: int, m: int, k: int, sigma: int = 4) -> Tuple[bytes, bytes]:
    """A power of one short primitive period q as the text, and the same
    power with max(1, k/4) substitutions by symbols outside q (when sigma
    leaves any) as the pattern.  Every start on the period grid is then an
    occurrence, with several ends each."""
    qlen = max(2, min(8, m // (128 * k)))
    q = primitive_word(rng, qlen, sigma)
    spare = [c for c in range(sigma) if c not in q] or list(range(sigma))
    p = bytearray(unroll(q, m))
    for x in rng.sample(range(m), max(1, k // 4)):
        p[x] = rng.choice([c for c in spare if c != p[x]])
    return bytes(p), unroll(q, n)


def lower_bound(rng: random.Random, n: int, m: int, k: int):
    """Doubled-block family: each length-(m-1) block has exactly k ones, the
    text is every block written twice, zero-padded to n, and the pattern is
    all zeros.  The occurrence start set then spells out every block."""
    blocks = []
    out = bytearray()
    for _ in range(n // (2 * m - 2)):
        ones = tuple(sorted(rng.sample(range(m - 1), k)))
        blocks.append(ones)
        blk = bytearray(m - 1)
        for i in ones:
            blk[i] = 1
        out += blk + blk
    out += bytes(n - len(out))
    return bytes(m), bytes(out), tuple(blocks)


def region_pattern(rng: random.Random, m: int, k: int, sigma: int = 3) -> bytes:
    """A short primitive period carrying a burst of two substitutions every
    2*floor(m/8k) characters, so the edit density sits at the region budget
    and the analysis cuts the pattern into repetitive regions."""
    qlen = max(2, min(8, m // (128 * k)))
    q = primitive_word(rng, qlen, 2)
    p = bytearray(unroll(q, m))
    step = 2 * (m // (8 * k))
    for b in range(step // 2, m - 1, step):
        for x in (b, b + 1 + rng.randrange(2)):
            if x < m:
                p[x] = (p[x] + 1 + rng.randrange(sigma - 1)) % sigma
    return bytes(p)


def long_period_pair(rng: random.Random, n: int, m: int, k: int, sigma: int = 4) -> Tuple[bytes, bytes]:
    """Approximately periodic pattern against a periodic text holding one
    exact copy of it, centred.

    The pattern is a power of a primitive period q with k + 1 substitutions,
    one in the middle of each of k + 1 equal slices, so it stays in the
    period case but no window of the plain periodic text is within k of it:
    true starts sit only around the copy, while every start still has to be
    examined.
    """
    qlen = max(2, min(8, m // (128 * k)))
    q = primitive_word(rng, qlen, sigma)
    p = bytearray(unroll(q, m))
    gap = m // (k + 1)
    for i in range(k + 1):
        x = i * gap + gap // 2
        p[x] = (p[x] + 1 + rng.randrange(sigma - 1)) % sigma
    t = bytearray(unroll(q, n))
    pos = max(0, n - m) // 2
    t[pos : pos + m] = p[: n - pos]
    return bytes(p), bytes(t)


# ---------------------------------------------------------------------------
# workloads


def make_scan_breaks(rng: random.Random, index: int, scale: float) -> Instance:
    m, k, sigma = 512, 8, 4
    p = random_bytes(rng, m, sigma)
    return Instance("planted-random", "breaks", p, plant(rng, p, k, sigma, 4, int(262144 * scale)), k)


def make_dense_periodic(rng: random.Random, index: int, scale: float) -> Instance:
    """Even instances: periodic family; odd: lower-bound family."""
    if index % 2 == 0:
        m, k = 512, 2
        p, t = periodic_pair(rng, max(m + 64, int(1.25 * m * scale)), m, k)
        return Instance("periodic", "period", p, t, k, reference=True)
    m, k = 256, 2
    p, t, blocks = lower_bound(rng, 2 * m, m, k)
    return Instance("lower-bound", "period", p, t, k, planted=blocks, reference=True)


def make_regions(rng: random.Random, index: int, scale: float) -> Instance:
    m, k, sigma = 512, 2, 3
    copies = max(1, round(4 * scale))
    p = region_pattern(rng, m, k, sigma)
    return Instance("region-planted", "regions", p, plant(rng, p, k, sigma, copies, copies * (m + 96)), k)


def make_long_period(rng: random.Random, index: int, scale: float) -> Instance:
    m, k = 2048, 4
    p, t = long_period_pair(rng, max(m + 2 * k, int(1.5 * m * scale)), m, k)
    return Instance("long-period", "period", p, t, k)


def warmup_instance() -> Instance:
    """A tiny breaks-case instance that touches every operation once."""
    rng = random.Random("warmup")
    p = random_bytes(rng, 64, 4)
    return Instance("warmup", "breaks", p, plant(rng, p, 2, 4, 3, 1024), 2)


WORKLOADS: Dict[str, Workload] = {
    "scan-breaks": Workload(make_scan_breaks, base=12),
    "dense-periodic": Workload(make_dense_periodic, base=8),
    "regions": Workload(make_regions, base=8),
    "long-period": Workload(make_long_period, base=4),
}


def instance(name: str, seed: int, index: int, scale: float = 1.0) -> Instance:
    """Instance `index` of a workload; the same arguments give the same bytes."""
    return WORKLOADS[name].make(random.Random(f"{name}/{seed}/{index}"), index, scale)
