"""Symbols, strings, and fragments.

A symbol is a non-negative integer code.  Input alphabets occupy a dense
range ``[0, alphabet_size)``; codes at or above the input range are reserved
for synthetic characters (the sentinel used by anchored edit-distance
computations and the per-component mask characters produced when hashing
unlearned periodic structure).  Keeping the two ranges disjoint guarantees a
synthetic character never compares equal to an input character.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Symbol = int


class Str:
    """An immutable string of symbol codes.

    Wraps a tuple of codes and lazily caches a ``bytes`` rendering when all
    codes fit in a byte, which lets exact matching and LZ factorization use
    the C-speed ``bytes`` search primitives.
    """

    __slots__ = ("codes", "_bytes", "_hash")

    def __init__(self, codes: Iterable[int] = ()):
        object.__setattr__(self, "codes", tuple(codes))
        object.__setattr__(self, "_bytes", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Str is immutable")

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.codes)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Str(self.codes[item])
        return self.codes[item]

    def __eq__(self, other) -> bool:
        if isinstance(other, Str):
            return self.codes == other.codes
        return NotImplemented

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self.codes)
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "Str") -> "Str":
        return Str(self.codes + other.codes)

    def __repr__(self) -> str:
        if self.codes and all(32 <= c < 127 for c in self.codes):
            return f"Str({''.join(map(chr, self.codes))!r})"
        return f"Str({list(self.codes)!r})"

    def as_bytes(self):
        """``bytes`` view when every code is < 256, else None."""
        b = object.__getattribute__(self, "_bytes")
        if b is None:
            try:
                b = bytes(self.codes)
            except ValueError:  # a code >= 256
                b = False
            object.__setattr__(self, "_bytes", b)
        return b if b is not False else None

    def reverse(self) -> "Str":
        return Str(self.codes[::-1])

    def max_code(self) -> int:
        return max(self.codes, default=-1)

    def repeat(self, times: int) -> "Str":
        return Str(self.codes * times)


@dataclass(frozen=True)
class Fragment:
    """Half-open slice ``parent[start:end]`` kept by reference."""

    parent: Str
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start <= self.end <= len(self.parent)):
            raise ValueError(
                f"fragment [{self.start}, {self.end}) out of range for length {len(self.parent)}"
            )

    def __len__(self) -> int:
        return self.end - self.start

    def to_str(self) -> Str:
        return Str(self.parent.codes[self.start : self.end])


def S(text: str) -> Str:
    """Build a Str from ASCII text; handy in tests and docs."""
    return Str(ord(c) for c in text)


def from_bytes(data: bytes) -> Str:
    """A Str of the byte values, with `data` already cached as its rendering."""
    data = bytes(data)
    s = Str(data)
    object.__setattr__(s, "_bytes", data)
    return s


def from_tokens(text: str) -> Str:
    """Parse whitespace-separated integer tokens (large-alphabet ingestion)."""
    codes = []
    for tok in text.split():
        v = int(tok)
        if v < 0:
            raise ValueError(f"negative symbol code {v!r}")
        codes.append(v)
    return Str(codes)


def sentinel_code(*strs: Sequence[int]) -> Symbol:
    """A code that occurs in none of the given strings."""
    top = -1
    for s in strs:
        for c in s:
            if c > top:
                top = c
    return top + 1


def mask_code(base: Symbol, component: int) -> Symbol:
    """Fresh mask code for a black component, above the input range."""
    return base + 1 + component
