"""Bottom-left placement under pairwise clearance, plus an independent verifier.

Candidate-point scheme: the origin plus, for every placed rectangle, the two
offset corners (x + w + d, y) and (x, y + h + d).  Each rectangle goes to the
feasible candidate with minimal y, ties broken by minimal x.  No clearance is
required towards the bin edges.  Candidates are derived from the placed
rectangles, not stored.  A candidate is tested first against the rectangles
placed after the one that made its corner, where its blocker usually is;
rectangles lying wholly below it are skipped.  Pricing drives a packer one
rectangle at a time; branching and the oracle lay out type-id sequences with
``place_ids``, trying the orders ``distinct_orders`` lists.  The verifier
sweeps over x, so it compares only pairs that are not already apart along x.
"""

from bisect import bisect_right
from collections import Counter
from heapq import heappop, heappush, heapreplace
from typing import Iterator, Mapping, Sequence

from .model import Instance, Layout, RegistryError, TypeRegistry, expand_counts

Rect = tuple[int, int, int, int]  # (x, y, w, h)


def separated(r1: Rect, r2: Rect, d: int) -> bool:
    """True iff the two rectangles keep an axis-aligned gap >= d."""
    x1, y1, w1, h1 = r1
    x2, y2, w2, h2 = r2
    return (x1 + w1 + d <= x2 or x2 + w2 + d <= x1
            or y1 + h1 + d <= y2 or y2 + h2 + d <= y1)


class BottomLeftPacker:
    """Incremental bottom-left packer for one bin.

    Placing rectangle k depends only on rectangles 1..k-1, so feeding a
    sequence one element at a time equals a batch run on the whole sequence.
    Between rollbacks rectangles are only added, so a candidate blocked for
    a w x h rectangle stays blocked.  The heap for (w, h) holds in-bin
    candidates as (y, x, first), where ``first`` is one past the index of
    the rectangle that made the corner, and 0 for the origin.

    A candidate is tested against rectangles first..n-1, oldest first: the
    right-hand neighbour of its maker, or the rectangle above it one row
    later, is usually the blocker.  Then it is tested against rectangles
    first-1 down to ``bisect_right(_tops, y)``.  ``_tops[i]`` is the highest
    clearance-box top among rectangles 0..i, so every rectangle before that
    index ends at or below y and cannot block.  Only rectangles that cannot
    block are skipped, so the verdict is that of a test against every
    rectangle; only the order and the count of tests change.  Blocked tops
    are popped, and the first clear top is the (y, x)-minimal feasible
    candidate.  It is pushed back with ``first = n``: the rectangle just
    placed on it blocks it on the next call, before any older rectangle is
    tested again.
    """

    def __init__(self, bin_width: int, bin_height: int, spacing: int):
        self.bin_width = bin_width
        self.bin_height = bin_height
        self.spacing = spacing
        # per placed rectangle (x, y, x + w + d, y + h + d): its clearance box
        self._boxes: list[tuple[int, int, int, int]] = []
        # _tops[i]: the highest clearance-box top among boxes 0..i
        self._tops: list[int] = []
        # (w, h) -> [candidate heap, number of rectangles whose corners it holds]
        self._heaps: dict[tuple[int, int], list] = {}

    def mark(self) -> int:
        """The number of placed rectangles."""
        return len(self._boxes)

    def reset_to(self, mark: int) -> None:
        """Drop the rectangles placed after ``mark``, and with them the heaps;
        a rollback that drops nothing (as after a failed ``place``) keeps them."""
        if mark < len(self._boxes):
            del self._boxes[mark:]
            del self._tops[mark:]
            self._heaps.clear()

    def place(self, w: int, h: int) -> tuple[int, int] | None:
        """Place one w x h rectangle; returns its (x, y) or None if it cannot fit."""
        boxes, tops, d, n = self._boxes, self._tops, self.spacing, len(self._boxes)
        xmax, ymax = self.bin_width - w, self.bin_height - h
        entry = self._heaps.get((w, h))
        if entry is None:
            origin = [(0, 0, 0)] if xmax >= 0 and ymax >= 0 else []
            entry = self._heaps[w, h] = [origin, 0]
        heap, seen = entry
        for first, (x, y, right, top) in enumerate(boxes[seen:n], seen + 1):
            if right <= xmax and y <= ymax:
                heappush(heap, (y, right, first))
            if x <= xmax and top <= ymax:
                heappush(heap, (top, x, first))
        entry[1] = n
        while heap:
            y, x, first = heap[0]
            xr, yt = x + w + d, y + h + d
            # the boxes placed after the corner's maker, oldest first ...
            for i in range(first, n):
                rx, ry, rr, rt = boxes[i]
                if xr > rx and rr > x and yt > ry and rt > y:
                    break
            else:
                # ... then the older ones, newest first, down to the last
                # box whose running top rises above y
                for i in range(first - 1, bisect_right(tops, y) - 1, -1):
                    rx, ry, rr, rt = boxes[i]
                    if xr > rx and rr > x and yt > ry and rt > y:
                        break
                else:
                    heapreplace(heap, (y, x, n))
                    boxes.append((x, y, xr, yt))
                    tops.append(yt if not n or yt > tops[-1] else tops[-1])
                    return x, y
            heappop(heap)
        return None

    def placements(self) -> list[Rect]:
        d = self.spacing
        return [(x, y, r - x - d, t - y - d) for x, y, r, t in self._boxes]

    def layout(self, ids: Sequence[str]) -> Layout:
        """The placed rectangles as a layout, the k-th labelled ``ids[k]``."""
        return Layout(tuple((oid, x, y) for oid, (x, y, _, _)
                            in zip(ids, self._boxes, strict=True)))


def place_ids(ids: Sequence[str], instance: Instance,
              registry: TypeRegistry) -> Layout | None:
    """Bottom-left layout of the original type ids in the given order, or
    None as soon as one of them finds no feasible candidate point."""
    packer = BottomLeftPacker(instance.bin_width, instance.bin_height,
                              instance.spacing)
    for oid in ids:
        t = registry[oid]
        if packer.place(t.width, t.height) is None:
            return None
    return packer.layout(ids)


def distinct_orders(ids: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Every distinct ordering of ``ids`` once, ``ids`` itself first.

    The orders come in the sequence in which ``itertools.permutations(ids)``
    first produces each: every level walks the remaining positions in
    increasing order and skips a value that level has already tried.
    """
    ids = tuple(ids)
    free = [True] * len(ids)
    prefix: list[str] = []

    def extend() -> Iterator[tuple[str, ...]]:
        if len(prefix) == len(ids):
            yield tuple(prefix)
            return
        tried = set()
        for k, oid in enumerate(ids):
            if free[k] and oid not in tried:
                tried.add(oid)
                free[k] = False
                prefix.append(oid)
                yield from extend()
                prefix.pop()
                free[k] = True

    return extend()


def verify_layout(layout: Layout, counts: Mapping[str, int], instance: Instance,
                  registry: TypeRegistry | None = None) -> bool:
    """Independent check: in-bin, pairwise separated, multiset matches the counts.

    A negative count fails the check.  Pairs are found by a sweep over x: a
    rectangle is compared only with earlier ones (by x) whose clearance
    reaches past its x, since every other pair is separated along x.
    """
    if registry is None:
        registry = instance.registry()
    if any(n < 0 for n in counts.values()):
        return False
    try:
        expected = {k: v for k, v in expand_counts(counts, registry).items() if v > 0}
    except RegistryError:
        return False
    got = Counter(oid for oid, _, _ in layout.placements)
    if got != Counter(expected):
        return False
    rects: list[Rect] = []
    for oid, x, y in layout.placements:
        t = registry[oid]
        if t.is_compound:
            return False
        if x < 0 or y < 0 or x + t.width > instance.bin_width \
                or y + t.height > instance.bin_height:
            return False
        rects.append((x, y, t.width, t.height))
    d = instance.spacing
    rects.sort()
    reaching: list[Rect] = []  # earlier rectangles whose x + w + d passes the sweep
    for rect in rects:
        x = rect[0]
        reaching = [r for r in reaching if r[0] + r[2] + d > x]
        for r in reaching:
            if not separated(r, rect, d):
                return False
        reaching.append(rect)
    return True
