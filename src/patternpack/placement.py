"""Bottom-left placement under pairwise clearance, plus an independent verifier.

Candidate-point scheme: the origin plus, for every placed rectangle, the two
offset corners (x + w + d, y) and (x, y + h + d).  Each rectangle goes to the
feasible candidate with minimal y, ties broken by minimal x.  No clearance is
required towards the bin edges.  Candidates are derived from the placed
rectangles, not stored, and each is handled as the one int y * (W + 1) + x,
W the bin width, so that heaps and sets compare and hash ints.  A candidate
is tested against the placed rectangles oldest first, skipping those that
lie wholly below it.  Pricing drives a packer one rectangle at a time;
``place_ids`` lays out one type-id sequence, and ``first_layout`` searches
the distinct orderings of a multiset of them.  The verifier sweeps over x,
so it compares only pairs that are not already apart along x.

A packer remembers the placements it has made.  Where a rectangle goes, or
whether it fits at all, depends only on the rectangles placed so far, and
those depend only on the sequence of sizes that placed successfully.  A
packer names that sequence by a state id: 0 for the empty bin, and a fresh
id for each successful placement it has not seen.  Its memo maps (state id,
w, h) to (x, y, next state id), or to None for a rectangle that does not
fit, so a recorded answer is exact.  Ids come from a counter that never
restarts, so an id names one sequence for the packer's whole life, even
after the entries that minted it are retired.  A rectangle wider or taller
than the bin never fits, so it is refused before the memo; a side below 1
raises ``ValueError``.  A run keeps one packer for its greedy fills, and
each fill starts from ``reset_to(0)``.
"""

from bisect import bisect_right
from collections import Counter
from heapq import heappop, heappush
from itertools import count
from typing import Mapping, Sequence

from .model import Instance, Layout, RegistryError, TypeRegistry, expand_counts

Rect = tuple[int, int, int, int]  # (x, y, w, h)

MEMO_ENTRIES = 16384  # entries per memo generation; a packer holds two
_MISS = object()


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
    a w x h rectangle stays blocked, but new corners can make a refused size
    fit: only within one state does a larger size inherit a smaller size's
    refusal.  The heap for (w, h) holds in-bin candidates packed as
    y * (W + 1) + x.  Every pushed corner and every anchor has 0 <= x <= W,
    so the packed ints order as the (y, x) pairs do and the heap top is the
    (y, x)-minimal candidate; ``divmod`` unpacks it.

    A candidate is tested against rectangles ``bisect_right(_tops, y)`` to
    n-1, oldest first.  ``_tops[i]`` is the highest clearance-box top among
    rectangles 0..i, so every rectangle before that index ends at or below y
    and cannot block.  Only rectangles that cannot block are skipped, so the
    verdict is that of a test against every rectangle.  Each box test asks
    first whether the box reaches right of the candidate, then whether the
    rectangle reaches right of the box, then the same along y.  On the
    benchmark's three workloads that order settles a box test in 1.6 to 2.1
    comparisons, where starting with the rectangle's right edge takes 1.9
    to 2.4.  Blocked tops are popped, and the first clear top is the
    (y, x)-minimal feasible candidate; it is popped too.

    A box of a rectangle at least 1 x 1 covers its own anchor (x, y) for
    every size, and no two boxes share one, so a corner at the anchor of a
    placed box is blocked for every size until a rollback drops that box.
    ``_anchors`` holds the packed (x, y) of every placed box: a corner found
    there is never pushed, and a heap top found there is popped untested.
    Verdicts and placements stay those of the full test; only fewer
    candidates pass through the heaps.

    The memo's keys and answers are packed into one int each:
    ((state * (W + 1) + w) * (H + 1) + h) for the key and
    ((next state * (W + 1) + x) * (H + 1) + y) for the answer.  The packing
    is one to one because 0 <= w, x <= W and 0 <= h, y <= H.  Entries live in
    two generations of at most ``MEMO_ENTRIES`` (16384) each; a 50-node r5
    search then misses 1% more often than with no limit.  When the new
    generation is full it becomes the old one and the previous old one is
    dropped; a hit in the old generation moves to the new one.

    ``place`` raises ``ValueError`` for a side below 1: both packings hold
    only for sizes from 1 to the bin's sides, and a 0 x 0 box at clearance 0
    would not cover its anchor.  It refuses a size larger than the bin, then
    probes the memo's new generation and its old one only on a miss there.
    A hit appends the box and touches no heap: every candidate is still
    tested against every box that can block it, and the next search for a
    size picks up the corners of the boxes placed since its last one.
    ``reset_to(0)`` leaves a packer that places as a new one holding the same
    memo would: no boxes, tops or anchors, and no heaps, since a search in
    an empty bin always places.
    """

    def __init__(self, bin_width: int, bin_height: int, spacing: int):
        self.bin_width = bin_width
        self.bin_height = bin_height
        self.spacing = spacing
        # the memo's two generations, and the state ids; state 0 is the empty bin
        self._new: dict[int, int | None] = {}
        self._old: dict[int, int | None] = {}
        self._ids = count(1)
        # strides of the memo's packed keys and answers
        self._column = bin_height + 1
        self._stride = (bin_width + 1) * self._column
        # _bases[k]: the state id after the first k rectangles times the
        # stride, so that a size's key is _bases[-1] + w * column + h
        self._bases = [0]
        # per placed rectangle (x, y, x + w + d, y + h + d): its clearance box
        self._boxes: list[tuple[int, int, int, int]] = []
        # _tops[i]: the highest clearance-box top among boxes 0..i
        self._tops: list[int] = []
        # stride of the packed candidates and anchors: (x, y) -> y * row + x
        self._row = bin_width + 1
        # the packed (x, y) of every placed rectangle
        self._anchors: set[int] = set()
        # (w, h) -> [candidate heap, number of rectangles whose corners it holds]
        self._heaps: dict[tuple[int, int], list] = {}

    def mark(self) -> int:
        """The number of placed rectangles."""
        return len(self._boxes)

    def reset_to(self, mark: int) -> None:
        """Drop the rectangles placed after ``mark``, and with them the heaps;
        a rollback that drops nothing (as after a failed ``place``) keeps them.
        A mark below 0 or above ``mark()`` raises ``ValueError``."""
        if not 0 <= mark <= len(self._boxes):
            raise ValueError(f"mark {mark} outside 0..{len(self._boxes)}")
        if mark < len(self._boxes):
            if mark:
                row = self._row
                self._anchors.difference_update(
                    y * row + x for x, y, _, _ in self._boxes[mark:])
            else:
                self._anchors.clear()
            del self._boxes[mark:]
            del self._tops[mark:]
            del self._bases[mark + 1:]
            self._heaps.clear()

    def place(self, w: int, h: int) -> tuple[int, int] | None:
        """Place one w x h rectangle; returns its (x, y) or None if it cannot
        fit.  A side below 1 raises ``ValueError``."""
        if w < 1 or h < 1:
            raise ValueError(f"rectangle {w} x {h} has a side below 1")
        if w > self.bin_width or h > self.bin_height:
            return None
        column, stride, new = self._column, self._stride, self._new
        key = self._bases[-1] + w * column + h
        hit = new.get(key, _MISS)
        if hit is _MISS:
            hit = self._old.pop(key, _MISS)
            if hit is _MISS:
                spot = self._search(w, h)
                hit = None if spot is None else \
                    next(self._ids) * stride + spot[0] * column + spot[1]
            new[key] = hit
            if len(new) >= MEMO_ENTRIES:
                self._old, self._new = new, {}
        if hit is None:
            return None
        xy = hit % stride
        x, y = divmod(xy, column)
        d, tops = self.spacing, self._tops
        top = y + h + d
        tops.append(top if not tops or top > tops[-1] else tops[-1])
        self._anchors.add(y * self._row + x)
        self._boxes.append((x, y, x + w + d, top))
        self._bases.append(hit - xy)
        return x, y

    def _search(self, w: int, h: int) -> tuple[int, int] | None:
        """The (y, x)-minimal feasible candidate for a w x h rectangle, as
        (x, y), or None; pops it, and every blocked top on the way."""
        d, boxes, tops, row = self.spacing, self._boxes, self._tops, self._row
        n = len(boxes)
        xmax, ymax = self.bin_width - w, self.bin_height - h
        entry = self._heaps.get((w, h))
        if entry is None:
            entry = self._heaps[w, h] = [[0], 0]
        heap, seen = entry
        anchors = self._anchors
        for x, y, right, top in boxes[seen:n]:
            if right <= xmax and y <= ymax:
                spot = y * row + right
                if spot not in anchors:
                    heappush(heap, spot)
            if x <= xmax and top <= ymax:
                spot = top * row + x
                if spot not in anchors:
                    heappush(heap, spot)
        entry[1] = n
        while heap:
            spot = heappop(heap)
            if spot in anchors:
                continue
            y, x = divmod(spot, row)
            xr, yt = x + w + d, y + h + d
            for rx, ry, rr, rt in boxes[bisect_right(tops, y):n]:
                if rr > x and xr > rx and rt > y and yt > ry:
                    break
            else:
                return x, y
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


def first_layout(ids: Sequence[str], instance: Instance,
                 registry: TypeRegistry) -> Layout | None:
    """The layout of the first distinct ordering of ``ids`` that places
    every rectangle, or None if none does.

    Orderings come in the sequence in which ``itertools.permutations(ids)``
    first produces each: every level walks the remaining positions in
    increasing order and skips an id that level has already tried.  One
    packer keeps a placed prefix for every ordering that shares it, and a
    refused rectangle skips every ordering that starts with its prefix.  A
    placement depends only on its prefix, so the answer is that of
    ``place_ids`` on each ordering in turn.
    """
    ids = tuple(ids)
    sizes = [(registry[oid].width, registry[oid].height) for oid in ids]
    packer = BottomLeftPacker(instance.bin_width, instance.bin_height,
                              instance.spacing)
    free = [True] * len(ids)
    order: list[str] = []

    def extend() -> bool:
        if len(order) == len(ids):
            return True
        tried = set()
        for k, oid in enumerate(ids):
            if free[k] and oid not in tried:
                tried.add(oid)
                if packer.place(*sizes[k]) is None:
                    continue
                free[k] = False
                order.append(oid)
                if extend():
                    return True
                order.pop()
                free[k] = True
                packer.reset_to(len(order))
        return False

    return packer.layout(order) if extend() else None


def holds_counts(layout: Layout, counts: Mapping[str, int],
                 registry: TypeRegistry) -> bool:
    """Whether the layout's rectangles are the multiset of the counts,
    expanded to original types; a negative count or an unknown type id
    fails."""
    if any(n < 0 for n in counts.values()):
        return False
    try:
        expected = {k: v for k, v in expand_counts(counts, registry).items() if v > 0}
    except RegistryError:
        return False
    return Counter(oid for oid, _, _ in layout.placements) == Counter(expected)


def verify_layout(layout: Layout, counts: Mapping[str, int], instance: Instance,
                  registry: TypeRegistry | None = None) -> bool:
    """Independent check: in-bin, pairwise separated, multiset matches the
    counts (``holds_counts``).

    Pairs are found by a sweep over x: a rectangle is compared only with
    earlier ones (by x) whose clearance reaches past its x, since every other
    pair is separated along x.
    """
    if registry is None:
        registry = instance.registry()
    if not holds_counts(layout, counts, registry):
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
