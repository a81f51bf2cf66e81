"""Column generation pricing: greedy multi-sequence fills steered by type scores.

A type's score is the dual of its lower master row minus the dual of its
upper row: what one more item of the type is worth in a column.  Several
item-type sequences are built per round (score-sorted, density-sorted, and
randomized draws); each is filled greedily by raising one type's
multiplicity at a time as long as the accumulated multiset still admits a
bottom-left placement.  Columns that price out positive are kept.

Most fills end in a column that does not price out, so ``price`` gives
``greedy_fill`` what it needs to stop such a fill early, by a bound that is
exact.  Inflate every rectangle by the clearance d to (w + d) x (h + d),
anchored where it is placed: the inflated boxes of a layout lie inside the
(W + d) x (H + d) inflated bin and, as the rectangles keep a gap of d, do
not overlap.  So the units a fill can still add have an inflated area of at
most F, the inflated bin's area less that of the boxes placed so far.  Each
unit of type t adds its score to the reduced cost rc and its inflated unit
area to the boxes, so with rho the largest max(score, 0) / inflated unit
area among the current and later types of the sequence, the column ends at
no more than rc + F * rho.  Once that is below ``CUT_PRICE``, half of
``EPS_PRICE``, the column cannot pass ``price``'s filter and the fill stops.
The margin keeps the rounding of the running rc, which sums in another
order than ``reduced_cost``, far from the cut, and still lets a fill stop
that rebuilds a basic column, whose rc is 0 up to rounding.  A unit of t changes
the bound by score - inflated area * rho <= 0, so at each type the fill
works out how many units it may add before the bound falls below the cut,
and tests nothing per unit.

The apart rules are settled per type in the same way.  A rule only refuses
more as items are added, so the units of t it admits are a prefix, as
``ApartRule.room`` says: a cap admits (1 - items of a) // (items of a per
unit) more, a pair none once the bin would hold both of its sides, else
all.  The fill works these limits out inline, from tallies kept in one flat
list at the slots ``NodeProblem.fill_unit`` gives each rule of the node, so
it hashes no rule.  It places units of t up to the least of these limits
and the bound's, and advances the rule tallies, the rc, the free area and
the placed ids once per type.  A fill that the rules stop short of the
bound's limit is not cut, as the bound did not stop it.  A unit of one
rectangle needs no rollback, since a failed ``place`` changes nothing; only
a compound unit marks the packer first.
"""

from math import inf
from typing import Mapping

from .model import Column, Instance, NodeProblem, dense_counts, make_column
from .placement import BottomLeftPacker

EPS_PRICE = 1e-9  # minimum improvement to accept a column
CUT_PRICE = EPS_PRICE / 2  # a fill whose bound falls below this stops
EPS_PROB = 1e-9   # sampling weight floor so every type stays drawable
RANDOM_SEQUENCES = 8  # randomized draws per pricing round


def reduced_cost(counts: Mapping[str, int], scores: Mapping[str, float]) -> float:
    """-1 + sum over types of score * count."""
    total = -1.0
    for tid, n in counts.items():
        if n:
            total += scores.get(tid, 0.0) * n
    return total


def _eligible(node: NodeProblem) -> list[str]:
    """Active types that may still appear in a column (to > 0), in the
    node's type order."""
    return [tid for tid, (_, hi) in node.multiplicities.items() if hi > 0]


def make_sequences(scores: Mapping[str, float],
                   node: NodeProblem) -> list[tuple[str, ...]]:
    """Score-sorted, density-sorted, and ``RANDOM_SEQUENCES`` randomized type
    sequences.

    Sorting ties break by registry order; random draws are without
    replacement with weight max(score, EPS_PROB) from the node-local
    generator.
    """
    types = _eligible(node)
    if not types:
        return []
    registry = node.registry
    # stable sorts of a list in registry order break their ties by it
    ordered = sorted(types, key=registry.order)
    by_score = sorted(ordered, key=lambda t: -scores.get(t, 0.0))
    by_density = sorted(
        ordered, key=lambda t: -scores.get(t, 0.0) / registry.unit_area(t))
    seqs = [tuple(by_score), tuple(by_density)]
    start_weights = [max(scores.get(t, 0.0), EPS_PROB) for t in types]
    for _ in range(RANDOM_SEQUENCES):
        pool = list(types)
        weights = start_weights[:]
        drawn: list[str] = []
        while pool:
            total = sum(weights)
            u = node.rng.random() * total
            acc = 0.0
            pick = len(pool) - 1
            for idx, w in enumerate(weights):
                acc += w
                if u < acc:
                    pick = idx
                    break
            drawn.append(pool.pop(pick))
            weights.pop(pick)
        seqs.append(tuple(drawn))
    return seqs


def greedy_fill(sequence: tuple[str, ...], node: NodeProblem,
                instance: Instance,
                bound: Mapping[str, tuple[float, int, float]] | None = None
                ) -> Column | None:
    """Fill one bin along the sequence; returns the resulting column or None.

    For each type in order the count is raised while the node's to-bound and
    apart rules permit and the accumulated multiset still places; the rules'
    limit is worked out once per type, as the module docstring says.  A
    compound unit contributes all its constituent rectangles or the
    increment is rolled back.  The fill places through ``node.packer``,
    emptied first, whose memo answers repeated placements; the first fill of
    a node tree builds it for the instance's bin, and a packer of another
    bin raises ``ValueError``.

    ``bound`` maps every type of the sequence to (score, inflated unit area,
    max(score, 0) / inflated unit area).  With it the fill also returns None
    as soon as the bound of the module docstring shows that its column would
    not price out.  Without it the fill runs to the end.
    """
    shape = (instance.bin_width, instance.bin_height, instance.spacing)
    packer = node.packer
    if packer is None:
        packer = node.packer = BottomLeftPacker(*shape)
    held = (packer.bin_width, packer.bin_height, packer.spacing)
    if held != shape:
        raise ValueError(f"a fill in a {shape} bin given a {held} packer")
    packer.reset_to(0)
    place = packer.place
    # at each rule's slots, the items of a and of b in the bin so far; they
    # obey the rule
    tallies = [0] * (2 * len(node.rules))
    # per type of the sequence: (score, inflated unit area, rho from it on,
    # slope = score - area * rho <= 0)
    if bound is None:
        limit, terms = -inf, [(0.0, 0, 0.0, 0.0)] * len(sequence)
    else:
        limit, terms, rho = CUT_PRICE, [], 0.0
        for tid in reversed(sequence):
            score, area, ratio = bound[tid]
            if ratio > rho:
                rho = ratio
            terms.append((score, area, rho, score - area * rho))
        terms.reverse()
    d = instance.spacing
    rc, room = -1.0, (instance.bin_width + d) * (instance.bin_height + d)
    counts: dict[str, int] = {}
    placed_ids: list[str] = []
    for tid, (score, area, rho, slope) in zip(sequence, terms):
        # k more units of tid leave the bound at value + k * slope, so once
        # the fill holds ``stop`` units of tid, short of ``hi``, it is cut
        value = rc + room * rho
        if value < limit:
            return None
        _, hi = node.multiplicities[tid]
        n = start = counts.get(tid, 0)
        stop = hi
        if slope < 0:
            # inf when the slope is subnormal, so compared before int()
            units = (value - limit) / -slope
            if units < hi - n:
                stop = n + int(units) + 1
        unit, dims, caps, pairs = node.fill_unit(tid)
        # only a rule that one unit of tid adds to can refuse another unit;
        # the fill tries units of tid up to ``end``
        end = stop
        for s, da in caps:
            more = n + (1 - tallies[s]) // da
            if more < end:
                end = more
        for s, da, db in pairs:
            if tallies[s] + da and tallies[s + 1] + db:
                end = n
        if len(dims) == 1:
            (w, h), = dims
            while n < end and place(w, h) is not None:
                n += 1
        else:
            while n < end:
                mark = packer.mark()
                for w, h in dims:
                    if place(w, h) is None:
                        break
                else:
                    n += 1
                    continue
                packer.reset_to(mark)
                break
        if n > start:
            if n == stop < hi:
                return None
            k = n - start
            counts[tid] = n
            placed_ids.extend(unit * k)
            for s, da in caps:
                tallies[s] += k * da
            for s, da, db in pairs:
                tallies[s] += k * da
                tallies[s + 1] += k * db
            rc += k * score
            room -= k * area
    if not counts:
        return None
    return make_column(counts, packer.layout(placed_ids), node.registry)


def price(node: NodeProblem, scores: Mapping[str, float],
          instance: Instance) -> list[Column]:
    """New columns with positive reduced cost, deduplicated against each other
    and the node's pool, in lexicographic count-vector order.  An empty result
    ends column generation at this node.  Fills stop early when the bound of
    the module docstring shows that their column would be dropped."""
    seen = {col.counts for col in node.columns}
    fresh: list[Column] = []
    d = instance.spacing
    bound = {}
    for tid in _eligible(node):
        score = scores.get(tid, 0.0)
        area = node.inflated_area(tid, d)
        bound[tid] = (score, area, max(score, 0.0) / area)
    for seq in make_sequences(scores, node):
        col = greedy_fill(seq, node, instance, bound)
        if col is None:
            continue
        if reduced_cost(col.counts_dict(), scores) <= EPS_PRICE:
            continue
        if col.counts in seen:
            continue
        seen.add(col.counts)
        fresh.append(col)
    fresh.sort(key=lambda c: dense_counts(c.counts_dict(), node.registry))
    return fresh
