"""Exact reference solver for tiny instances.

It answers one question: the fewest bins, and then the fewest distinct
patterns among bin-minimal solutions, of a whole instance.  Feasibility of a
count vector is decided by trying every distinct permutation of its
rectangle multiset through the bottom-left placer, so the oracle is complete
relative to bottom-left-representable packings.  Bin minimization is a
shortest-path search over production totals; pattern minimization enumerates
small pattern subsets, and is proved only up to subsets of size 6.  Hard size
guards keep every call cheap and refuse anything larger.
"""

import itertools
from collections import Counter
from dataclasses import dataclass

from .model import Instance, Layout
from .placement import BottomLeftPacker, first_layout

_MAX_VECTORS = 10_000
_MAX_RECTS = 8
_MAX_PATTERN_SUBSETS = 5_000_000


class OracleGuardError(RuntimeError):
    """The request exceeds the oracle's size guards."""


@dataclass(frozen=True)
class OracleResult:
    bins: int
    patterns: int
    assignment: tuple[tuple[tuple[tuple[str, int], ...], int], ...]  # (pattern, x)


def feasible_patterns(instance: Instance) -> dict[tuple[int, ...], Layout]:
    """Every placeable nonzero count vector within the ``to`` caps, with a
    witness, in increasing total count.

    Every vector within the bin's area is tried: bottom-left placeability is
    not downward closed, so a vector can place although one with a unit
    fewer does not.  The rectangle guard sees the candidates before any is
    placed, and names the fewest rectangles among those it refuses.  One
    packer lays out every candidate, so its memo answers a prefix that
    another candidate has placed.
    """
    types = instance.item_types
    span = 1
    for t in types:
        span *= t.to_count + 1
    if span > _MAX_VECTORS:
        raise OracleGuardError(
            f"{span} candidate vectors exceed the guard of {_MAX_VECTORS}")
    area = instance.bin_width * instance.bin_height
    vectors = sorted(itertools.product(*(range(t.to_count + 1) for t in types)),
                     key=sum)
    candidates = [vec for vec in vectors if any(vec) and sum(
        t.width * t.height * n for t, n in zip(types, vec)) <= area]
    for vec in candidates:
        if sum(vec) > _MAX_RECTS:
            raise OracleGuardError(
                f"candidate with {sum(vec)} rectangles exceeds the guard of {_MAX_RECTS}")
    registry = instance.registry()
    packer = BottomLeftPacker(instance.bin_width, instance.bin_height,
                              instance.spacing)
    patterns: dict[tuple[int, ...], Layout] = {}
    for vec in candidates:
        layout = first_layout([t.id for t, n in zip(types, vec) for _ in range(n)],
                              packer, registry)
        if layout is not None:
            patterns[vec] = layout
    return patterns


def _min_bins(patterns: dict[tuple[int, ...], Layout],
              los: tuple[int, ...], his: tuple[int, ...]
              ) -> tuple[int, list[tuple[int, ...]]]:
    """Fewest bins whose pattern totals land inside every production range,
    via breadth-first search over reachable totals.  Returns (bins, one
    witnessing pattern list).  Every unit vector of a valid instance is a
    pattern, so some total is always reached; an emptied frontier raises."""
    start = tuple([0] * len(los))

    def in_range(s: tuple[int, ...]) -> bool:
        return all(lo <= v <= hi for v, lo, hi in zip(s, los, his))

    def path(state: tuple[int, ...],
             prev: dict) -> list[tuple[int, ...]]:
        used = []
        while state != start:
            state, a = prev[state]
            used.append(a)
        return used

    if in_range(start):
        return 0, []
    prev: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    seen = {start}
    frontier = [start]
    bins = 0
    pats = list(patterns)
    while frontier:
        bins += 1
        nxt = []
        for s in frontier:
            for a in pats:
                ns = tuple(v + d for v, d in zip(s, a))
                if any(v > hi for v, hi in zip(ns, his)):
                    continue
                if ns in seen:
                    continue
                seen.add(ns)
                prev[ns] = (s, a)
                if in_range(ns):
                    return bins, path(ns, prev)
                nxt.append(ns)
        frontier = nxt
    raise RuntimeError("no pattern total reaches the production ranges")


def exact_solve(instance: Instance) -> OracleResult:
    """Exact minimum bins of a tiny instance, then the fewest distinct patterns
    among bin-minimal solutions.

    The pattern count is proved minimal up to subsets of size 6; past that
    the breadth-first witness is reported.  The vector-count, rectangle-count
    and pattern-subset guards raise ``OracleGuardError`` for anything that
    would make the enumeration expensive; candidates that already fail the
    bin-area bound are discarded without a placement test.
    """
    ids = tuple(t.id for t in instance.item_types)
    los = tuple(t.from_count for t in instance.item_types)
    his = tuple(t.to_count for t in instance.item_types)
    patterns = feasible_patterns(instance)
    bins, witness_path = _min_bins(patterns, los, his)
    if bins == 0:
        return OracleResult(0, 0, ())
    pats = sorted(patterns)
    needed = [t for t in range(len(ids)) if los[t] > 0]
    fallback = Counter(witness_path)
    limit = min(bins, len(pats), 6, len(fallback))
    for p in range(1, limit + 1):
        combos = itertools.combinations(pats, p)
        budget = _MAX_PATTERN_SUBSETS
        for combo in combos:
            budget -= 1
            if budget < 0:
                raise OracleGuardError("pattern-subset enumeration guard exceeded")
            if any(all(a[t] == 0 for a in combo) for t in needed):
                continue
            assignment = _cover_with(combo, bins, los, his)
            if assignment is not None:
                named = tuple(
                    (tuple((tid, n) for tid, n in zip(ids, vec) if n > 0), x)
                    for vec, x in zip(combo, assignment))
                return OracleResult(bins, p, named)
    named = tuple(
        (tuple((tid, n) for tid, n in zip(ids, vec) if n > 0), x)
        for vec, x in sorted(fallback.items()))
    return OracleResult(bins, len(fallback), named)


def _cover_with(combo: tuple[tuple[int, ...], ...], bins: int,
                los: tuple[int, ...], his: tuple[int, ...]) -> tuple[int, ...] | None:
    """x >= 1 per pattern, sum x = bins, totals inside the ranges; or None."""
    p = len(combo)

    def rec(idx: int, left: int, totals: list[int]) -> tuple[int, ...] | None:
        if idx == p - 1:
            x = left
            if x < 1:
                return None
            s = [t + a * x for t, a in zip(totals, combo[idx])]
            if all(lo <= v <= hi for v, lo, hi in zip(s, los, his)):
                return (x,)
            return None
        for x in range(1, left - (p - idx - 1) + 1):
            s = [t + a * x for t, a in zip(totals, combo[idx])]
            if any(v > hi for v, hi in zip(s, his)):
                break
            tail = rec(idx + 1, left - x, s)
            if tail is not None:
                return (x,) + tail
        return None

    return rec(0, bins, [0] * len(los))
