"""Column generation pricing: greedy multi-sequence fills steered by type scores.

A type's score is the dual of its lower master row minus the dual of its
upper row: what one more item of the type is worth in a column.  Several
item-type sequences are built per round (score-sorted, density-sorted, and
randomized draws); each is filled greedily by raising one type's
multiplicity at a time as long as the accumulated multiset still admits a
bottom-left placement.  Columns that price out positive are kept.

Most fills end in a column that does not price out, so ``price`` gives
``greedy_fill`` the round's scores, from which the fill works out a bound
that is exact and stops such a fill early.  Inflate every rectangle by the
clearance d to (w + d) x (h + d), anchored where it is placed: the inflated
boxes of a layout lie inside the (W + d) x (H + d) inflated bin and, as the
rectangles keep a gap of d, do not overlap.  So the units a fill can still
add have an inflated area of at most F, the inflated bin's area less that
of the boxes placed so far.  Each unit of type t adds its score to the
reduced cost rc and its inflated unit area to the boxes, so with rho the
largest max(score, 0) / inflated unit area among the current and later
types of the sequence, the column ends at no more than rc + F * rho.  Once
that is below ``CUT_PRICE``, half of ``EPS_PRICE``, the column cannot pass
``price``'s filter and the fill stops.  The margin keeps the rounding of
the running rc, which sums in another order than ``reduced_cost``, far from
the cut, and still lets a fill stop that rebuilds a basic column, whose rc
is 0 up to rounding.  A unit of t changes the bound by score - inflated
area * rho <= 0, so at each type the fill works out how many units it may
add before the bound falls below the cut, and tests nothing per unit.

The apart rules are settled per type in the same way.  A rule only refuses
more as items are added (``ApartRule.admits`` turns false, never back), so
the units of t it admits are a prefix: a cap admits (1 - items of a) //
(items of a per unit) more, a pair none once the bin would hold both of its
sides, else all.  The fill works these limits out inline, from tallies kept
in one flat list at the slots ``NodeProblem.fill_unit`` gives each rule of
the node, so it hashes no rule.  It places units of t up to the least of
these limits and the bound's, and advances the rule tallies, the rc, the
free area and the placed ids once per type.  A fill that the rules stop
short of the bound's limit is not cut, as the bound did not stop it.  A unit
of one rectangle needs no rollback, since a failed ``place`` changes
nothing; only a compound unit marks the packer first.
"""

from math import inf
from typing import Mapping

from .model import Column, NodeProblem, make_column

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


def make_sequences(scores: Mapping[str, float],
                   node: NodeProblem) -> list[tuple[str, ...]]:
    """Score-sorted, density-sorted, and ``RANDOM_SEQUENCES`` randomized type
    sequences.  Each lists every eligible type, one whose to-cap is above 0,
    exactly once, as ``greedy_fill`` requires.

    Sorting ties break by registry order; random draws are without
    replacement with weight max(score, EPS_PROB) from the node-local
    generator.
    """
    types = [tid for tid, (_, hi) in node.multiplicities.items() if hi > 0]
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
                scores: Mapping[str, float] | None = None) -> Column | None:
    """Fill one bin along the sequence, which lists each type at most once;
    returns the resulting column or None.

    For each type in order the count is raised while the type's to-cap and
    the node's apart rules permit and the accumulated multiset still places.
    The rules admit a prefix of the units of a type, so their limit is
    worked out once per type, as the module docstring says.  A compound unit
    contributes all its constituent rectangles or the increment is rolled
    back.  The fill places through ``node.packer``, emptied first, and reads
    the bin's W, H and d from it.

    Given the round's ``scores`` (a type without one scores 0), the fill
    also returns None as soon as the bound of the module docstring shows
    that its column would not price out.  Without them every score is 0 and
    the cut is -inf, so the fill runs to the end.
    """
    packer = node.packer
    packer.reset_to(0)
    place = packer.place
    # at each rule's slots, the items of a and of b in the bin so far; they
    # obey the rule
    tallies = [0] * (2 * len(node.rules))
    limit = CUT_PRICE
    if scores is None:
        scores, limit = {}, -inf
    # per type of the sequence, in one pass from its end: its fill unit, its
    # score, rho from it on, and slope = score - inflated area * rho <= 0
    steps, rho = [], 0.0
    for tid in reversed(sequence):
        unit = node.fill_unit(tid)
        score = scores.get(tid, 0.0)
        ratio = max(score, 0.0) / unit[2]
        if ratio > rho:
            rho = ratio
        steps.append((unit, score, rho, score - unit[2] * rho))
    steps.reverse()
    d = packer.spacing
    rc, room = -1.0, (packer.bin_width + d) * (packer.bin_height + d)
    counts: dict[str, int] = {}
    placed_ids: list[str] = []
    for tid, ((unit, dims, area, hi, caps, pairs), score, rho, slope) in zip(
            sequence, steps):
        # k units of tid leave the bound at value + k * slope, so once the
        # fill holds ``stop`` units of tid, short of ``hi``, it is cut
        value = rc + room * rho
        if value < limit:
            return None
        stop = hi
        if slope < 0:
            # inf when the slope is subnormal, so compared before int()
            units = (value - limit) / -slope
            if units < hi:
                stop = int(units) + 1
        # only a rule that one unit of tid adds to can refuse another unit;
        # the fill tries units of tid up to ``end``
        end = stop
        for s, da in caps:
            more = (1 - tallies[s]) // da
            if more < end:
                end = more
        for s, da, db in pairs:
            if tallies[s] + da and tallies[s + 1] + db:
                end = 0
        n = 0
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
        if n:
            if n == stop < hi:
                return None
            counts[tid] = n
            placed_ids.extend(unit * n)
            for s, da in caps:
                tallies[s] += n * da
            for s, da, db in pairs:
                tallies[s] += n * da
                tallies[s + 1] += n * db
            rc += n * score
            room -= n * area
    if not counts:
        return None
    return make_column(counts, packer.layout(placed_ids), node.registry)


def price(node: NodeProblem, scores: Mapping[str, float]) -> list[Column]:
    """New columns with positive reduced cost, deduplicated against each other
    and the node's pool, in lexicographic count-vector order.  An empty result
    ends column generation at this node.  Each fill gets ``scores``, so it
    stops early when the bound of the module docstring shows that its column
    would be dropped."""
    seen = {col.counts for col in node.columns}
    fresh: list[Column] = []
    for seq in make_sequences(scores, node):
        col = greedy_fill(seq, node, scores)
        if col is None:
            continue
        if reduced_cost(col.counts_dict(), scores) <= EPS_PRICE:
            continue
        if col.counts in seen:
            continue
        seen.add(col.counts)
        fresh.append(col)
    # where two dense count vectors first differ, the one with more of that
    # type sorts later; if the other lacks it, its key has a later type there
    order = node.registry.order
    fresh.sort(key=lambda c: tuple((-order(t), n) for t, n in c.counts))
    return fresh
