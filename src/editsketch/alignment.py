"""Alignments between string fragments and their edit information.

An alignment is a monotone lattice path: a sequence of index pairs starting
at the fragments' starts and ending at their ends, each step advancing the
source index, the destination index, or both by one.  A both-advance step
aligns two characters (a match when they are equal, otherwise a
substitution); a source-only step deletes, a destination-only step inserts.

The edit information of an alignment keeps only the edited steps, as 4-tuples
(x, cx, y, cy) with cx/cy the consumed characters or None for none.  Together
with the endpoints it determines the full path: everything between recorded
edits is a run of matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .symbols import Str

Point = Tuple[int, int]
Record = Tuple[int, Optional[int], int, Optional[int]]


class InvalidAlignment(ValueError):
    pass


class DomainMismatch(ValueError):
    pass


class CorruptEditInfo(ValueError):
    pass


@dataclass(frozen=True)
class Alignment:
    """Path aligning src[x0..x1) onto dst[y0..y1); endpoints live in points."""

    points: Tuple[Point, ...]
    src: Str
    dst: Str

    @property
    def src_start(self) -> int:
        return self.points[0][0]

    @property
    def src_end(self) -> int:
        return self.points[-1][0]

    @property
    def dst_start(self) -> int:
        return self.points[0][1]

    @property
    def dst_end(self) -> int:
        return self.points[-1][1]

    def steps(self):
        """Yield (kind, x, y) with kind in {'match', 'sub', 'del', 'ins'}."""
        pts = self.points
        for idx in range(len(pts) - 1):
            x, y = pts[idx]
            nx, ny = pts[idx + 1]
            if nx == x + 1 and ny == y + 1:
                yield ("match" if self.src[x] == self.dst[y] else "sub"), x, y
            elif nx == x + 1:
                yield "del", x, y
            else:
                yield "ins", x, y


@dataclass(frozen=True)
class EditInfo:
    """Edited steps of an alignment; empty only for cost-0 (identity) paths."""

    records: FrozenSet[Record] = field(default_factory=frozenset)

    def __len__(self) -> int:
        return len(self.records)

    def sorted(self) -> List[Record]:
        return sorted(self.records, key=lambda r: (r[0], r[2]))


@dataclass(frozen=True)
class CostedOccurrence:
    start: int
    end: int
    cost: int
    alignment: Optional[Alignment] = None

    def key(self) -> Tuple[int, int, int]:
        return (self.start, self.end, self.cost)


def alignment_from_points(points: Sequence[Point], src: Str, dst: Str) -> Alignment:
    a = Alignment(tuple(points), src, dst)
    validate(a)
    return a


def identity_alignment(x: Str, dst: Optional[Str] = None, dst_start: int = 0) -> Alignment:
    d = x if dst is None else dst
    pts = tuple((i, dst_start + i) for i in range(len(x) + 1))
    return Alignment(pts, x, d)


def validate(a: Alignment) -> bool:
    """Check the step invariants; raise InvalidAlignment on violation."""
    pts = a.points
    if not pts:
        raise InvalidAlignment("no points")
    for idx in range(len(pts) - 1):
        x, y = pts[idx]
        nx, ny = pts[idx + 1]
        if (nx - x, ny - y) not in ((1, 1), (1, 0), (0, 1)):
            raise InvalidAlignment(f"bad step {pts[idx]} -> {pts[idx + 1]}")
    if not (0 <= pts[0][0] and pts[-1][0] <= len(a.src)):
        raise InvalidAlignment("source range out of bounds")
    if not (0 <= pts[0][1] and pts[-1][1] <= len(a.dst)):
        raise InvalidAlignment("destination range out of bounds")
    return True


def alignment_cost(a: Alignment) -> int:
    """Number of inserted, deleted, and substituted characters."""
    return sum(1 for kind, _, _ in a.steps() if kind != "match")


def cost_between(a: Alignment, p1: Point, p2: Point) -> int:
    """Edits on the path segment of `a` between two of its points.

    Both points must lie on the path; the segment cost is exactly the cost
    the alignment pays aligning src[p1.x .. p2.x) onto dst[p1.y .. p2.y).
    """
    pts = a.points
    try:
        i1 = pts.index(p1)
        i2 = pts.index(p2, i1)
    except ValueError:
        raise InvalidAlignment(f"{p1} or {p2} not on the alignment path") from None
    total = 0
    for idx in range(i1, i2):
        x, y = pts[idx]
        nx, ny = pts[idx + 1]
        if nx == x + 1 and ny == y + 1:
            total += a.src[x] != a.dst[y]
        else:
            total += 1
    return total


def inverse(a: Alignment) -> Alignment:
    return Alignment(tuple((y, x) for x, y in a.points), a.dst, a.src)


def compose(a: Alignment, b: Alignment) -> Alignment:
    """Product alignment of a: X->Y and b: Y->Z.

    Deterministic merge: pending deletions of `a` are emitted first, then
    pending insertions of `b`, then coupled steps.  The result is a valid
    alignment whose every point factors through some Y position, with cost
    at most cost(a) + cost(b).
    """
    if a.dst is not b.src and a.dst != b.src:
        raise DomainMismatch("intermediate strings differ")
    if (a.dst_start, a.dst_end) != (b.src_start, b.src_end):
        raise DomainMismatch("intermediate fragments differ")
    pa, pb = 0, 0
    A, B = a.points, b.points
    out: List[Point] = [(A[0][0], B[0][1])]
    while pa < len(A) - 1 or pb < len(B) - 1:
        if pa < len(A) - 1 and A[pa + 1][1] == A[pa][1]:  # deletion in a
            pa += 1
            nxt = (A[pa][0], B[pb][1])
        elif pb < len(B) - 1 and B[pb + 1][0] == B[pb][0]:  # insertion in b
            pb += 1
            nxt = (A[pa][0], B[pb][1])
        else:  # both advance through the same Y character
            pa += 1
            pb += 1
            nxt = (A[pa][0], B[pb][1])
        if nxt != out[-1]:
            out.append(nxt)
    return Alignment(tuple(out), a.src, b.dst)


def align_image(a: Alignment, x_lo: int, x_hi: int) -> Tuple[int, int]:
    """Destination interval that `a` aligns against src[x_lo..x_hi).

    Follows the canonical disambiguation: the image start is the smallest y
    paired with x_lo; the image end is the smallest y paired with x_hi,
    except that it is the full destination end when x_hi is the source end.
    """
    if not (a.src_start <= x_lo <= x_hi <= a.src_end):
        raise InvalidAlignment(f"fragment [{x_lo},{x_hi}) outside aligned source range")
    y_lo = min(y for x, y in a.points if x == x_lo)
    if x_hi == a.src_end:
        y_hi = a.dst_end
    else:
        y_hi = min(y for x, y in a.points if x == x_hi)
    return y_lo, y_hi


def edit_info(a: Alignment) -> EditInfo:
    recs: List[Record] = []
    for kind, x, y in a.steps():
        if kind == "sub":
            recs.append((x, a.src[x], y, a.dst[y]))
        elif kind == "del":
            recs.append((x, a.src[x], y, None))
        elif kind == "ins":
            recs.append((x, None, y, a.dst[y]))
    return EditInfo(frozenset(recs))


def reconstruct_points(
    records: Sequence[Record],
    src_len: int,
    dst_start: Optional[int] = None,
    identity: bool = False,
) -> Tuple[Point, ...]:
    """Rebuild the full path of an alignment of src[0..src_len) from records.

    Runs of matches fill the gaps between consecutive recorded edits.  For a
    cost-0 alignment (no records) the caller must assert identity and supply
    dst_start.
    """
    if not records:
        if not identity:
            raise CorruptEditInfo("empty edit information without identity marker")
        start = dst_start if dst_start is not None else 0
        return tuple((i, start + i) for i in range(src_len + 1))
    recs = sorted(records, key=lambda r: (r[0], r[2]))
    x0, _, y0, _ = recs[0]
    if dst_start is None:
        dst_start = y0 - x0
    pts: List[Point] = [(0, dst_start)]
    x, y = 0, dst_start
    for rx, cx, ry, cy in recs:
        if rx - x != ry - y or rx < x:
            raise CorruptEditInfo(f"record ({rx},{ry}) unreachable from ({x},{y})")
        while x < rx:
            x, y = x + 1, y + 1
            pts.append((x, y))
        if cx is None and cy is None:
            raise CorruptEditInfo("record with two empty characters")
        x = x + (0 if cx is None else 1)
        y = y + (0 if cy is None else 1)
        pts.append((x, y))
    if x > src_len:
        raise CorruptEditInfo("records overrun the source length")
    while x < src_len:
        x, y = x + 1, y + 1
        pts.append((x, y))
    return tuple(pts)


def reconstruct_alignment(
    e: EditInfo,
    src: Str,
    dst: Str,
    dst_start: Optional[int] = None,
    identity: bool = False,
) -> Alignment:
    """Inverse of edit_info for alignments of the whole of src."""
    pts = reconstruct_points(e.sorted(), len(src), dst_start, identity)
    a = Alignment(pts, src, dst)
    try:
        validate(a)
    except InvalidAlignment as exc:
        raise CorruptEditInfo(str(exc)) from exc
    if edit_info(a) != e:
        raise CorruptEditInfo("records inconsistent with the reconstructed path")
    return a
