"""Column generation pricing: greedy multi-sequence fills steered by type scores.

A type's score is the dual of its lower master row minus the dual of its
upper row: what one more item of the type is worth in a column.  Several
item-type sequences are built per round (score-sorted, density-sorted, and
randomized draws); each is filled greedily by raising one type's
multiplicity at a time as long as the accumulated multiset still admits a
bottom-left placement.  Columns that price out positive are kept.
"""

from typing import Mapping

from .model import (ApartRule, Column, Instance, NodeProblem, SolverConfig,
                    dense_counts, make_column)
from .placement import BottomLeftPacker

EPS_PRICE = 1e-9  # minimum improvement to accept a column
EPS_PROB = 1e-9   # sampling weight floor so every type stays drawable


def reduced_cost(counts: Mapping[str, int], scores: Mapping[str, float]) -> float:
    """-1 + sum over types of score * count."""
    total = -1.0
    for tid, n in counts.items():
        if n:
            total += scores.get(tid, 0.0) * n
    return total


def _eligible(node: NodeProblem) -> list[str]:
    """Active types that may still appear in a column (to > 0), registry order."""
    return [tid for tid, (_, hi) in node.multiplicities.items() if hi > 0]


def make_sequences(scores: Mapping[str, float], node: NodeProblem,
                   cfg: SolverConfig) -> list[tuple[str, ...]]:
    """Score-sorted, density-sorted, and randomized type sequences.

    Sorting ties break by registry order; random draws are without
    replacement with weight max(score, EPS_PROB) from the node-local
    generator.
    """
    types = _eligible(node)
    if not types:
        return []
    registry = node.registry
    by_score = sorted(types, key=lambda t: (-scores.get(t, 0.0), registry.order(t)))
    by_density = sorted(
        types,
        key=lambda t: (-scores.get(t, 0.0) / registry.unit_area(t), registry.order(t)))
    seqs = [tuple(by_score), tuple(by_density)]
    for _ in range(cfg.pricing_random_sequences):
        pool = list(types)
        weights = [max(scores.get(t, 0.0), EPS_PROB) for t in pool]
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
                instance: Instance) -> Column | None:
    """Fill one bin along the sequence; returns the resulting column or None.

    For each type in order the count is raised while the node's to-bound and
    apart rules permit and the accumulated multiset still places.  A compound
    unit contributes all its constituent rectangles or the increment is
    rolled back.  The packer answers repeated placements from ``node.memo``.
    """
    packer = BottomLeftPacker(instance.bin_width, instance.bin_height,
                              instance.spacing, node.memo)
    # per apart rule, the items of (a, b) in the bin so far; they obey the rule
    tallies: dict[ApartRule, list[int]] = {}

    def admitted(steps: list) -> bool:
        for rule, tally, da, db in steps:
            if not rule.admits(tally[0] + da, tally[1] + db):
                return False
        return True

    counts: dict[str, int] = {}
    placed_ids: list[str] = []
    for tid in sequence:
        _, hi = node.multiplicities[tid]
        unit, dims, rules = node.fill_unit(tid)
        # only a rule that one unit of tid adds to can refuse another unit
        steps = [(rule, tallies.setdefault(rule, [0, 0]), da, db)
                 for rule, da, db in rules]
        while counts.get(tid, 0) < hi and admitted(steps):
            mark = packer.mark()
            ok = True
            for w, h in dims:
                if packer.place(w, h) is None:
                    ok = False
                    break
            if not ok:
                packer.reset_to(mark)
                break
            counts[tid] = counts.get(tid, 0) + 1
            placed_ids.extend(unit)
            for _, tally, da, db in steps:
                tally[0] += da
                tally[1] += db
    if not counts:
        return None
    return make_column(counts, packer.layout(placed_ids), node.registry)


def price(node: NodeProblem, scores: Mapping[str, float], instance: Instance,
          cfg: SolverConfig) -> list[Column]:
    """New columns with positive reduced cost, deduplicated against each other
    and the node's pool, in lexicographic count-vector order.  An empty result
    ends column generation at this node."""
    seen = {col.counts for col in node.columns}
    fresh: list[Column] = []
    for seq in make_sequences(scores, node, cfg):
        col = greedy_fill(seq, node, instance)
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
