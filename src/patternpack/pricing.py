"""Column generation pricing: greedy multi-sequence fills steered by dual prices.

Several item-type sequences are built per round (score-sorted, density-sorted,
and randomized draws); each is filled greedily by raising one type's
multiplicity at a time as long as the accumulated multiset still admits a
bottom-left placement.  Columns that price out positive are kept.
"""

from dataclasses import dataclass
from typing import Mapping

from .master import DualPrices
from .model import (Column, Instance, SolverConfig, TypeRegistry, dense_counts,
                    make_column)
from .placement import BottomLeftPacker, Layout

EPS_PRICE = 1e-9  # minimum improvement to accept a column
EPS_PROB = 1e-9   # sampling weight floor so every type stays drawable


@dataclass(frozen=True)
class PricingSequence:
    type_ids: tuple[str, ...]
    origin: str  # "score_sorted" | "density_sorted" | "randomized:<k>"


def reduced_cost(counts: Mapping[str, int], duals: DualPrices) -> float:
    """-1 + sum over types of (pi1 - pi2) * count."""
    total = -1.0
    scores = duals.scores()
    for tid, n in counts.items():
        if n:
            total += scores.get(tid, 0.0) * n
    return total


def _eligible(node) -> list[str]:
    """Active types that may still appear in a column (to > 0), registry order."""
    return [tid for tid, (_, hi) in node.multiplicities.items() if hi > 0]


def make_sequences(duals: DualPrices, node, cfg: SolverConfig,
                   registry: TypeRegistry) -> list[PricingSequence]:
    """Score-sorted, density-sorted, and randomized type sequences.

    Sorting ties break by registry order; random draws are without
    replacement with weight max(score, EPS_PROB) from the node-local
    generator.
    """
    types = _eligible(node)
    if not types:
        return []
    scores = duals.scores()
    by_score = sorted(types, key=lambda t: (-scores.get(t, 0.0), registry.order(t)))
    by_density = sorted(
        types,
        key=lambda t: (-scores.get(t, 0.0) / registry.unit_area(t), registry.order(t)))
    seqs = [PricingSequence(tuple(by_score), "score_sorted"),
            PricingSequence(tuple(by_density), "density_sorted")]
    for k in range(cfg.pricing_random_sequences):
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
        seqs.append(PricingSequence(tuple(drawn), f"randomized:{k}"))
    return seqs


def greedy_fill(sequence: PricingSequence, node, instance: Instance,
                registry: TypeRegistry) -> Column | None:
    """Fill one bin along the sequence; returns the resulting column or None.

    For each type in order the count is raised while the node's to-bound and
    apart rules permit and the accumulated multiset still places.  A compound
    unit contributes all its constituent rectangles or the increment is
    rolled back.
    """
    packer = BottomLeftPacker(instance.bin_width, instance.bin_height,
                              instance.spacing)
    rules = list(node.rules)
    tallies = [[0, 0] for _ in rules]  # items of (a, b) in the bin, per rule

    def rule_deltas(tid: str) -> list[tuple[int, int]]:
        out = []
        for rule in rules:
            bc = registry.basis_counts(tid, rule.basis)
            out.append((bc.get(rule.a, 0), bc.get(rule.b, 0)))
        return out

    def rules_permit(deltas: list[tuple[int, int]]) -> bool:
        for rule, (ta, tb), (da, db) in zip(rules, tallies, deltas):
            if rule.is_cap:
                if ta + da > 1:
                    return False
            elif ta + da > 0 and tb + db > 0:
                return False
        return True

    counts: dict[str, int] = {}
    placed_ids: list[str] = []
    for tid in sequence.type_ids:
        _, hi = node.multiplicities[tid]
        unit = registry.expansion(tid)
        dims = [(registry[oid].width, registry[oid].height) for oid in unit]
        deltas = rule_deltas(tid)
        while counts.get(tid, 0) < hi and rules_permit(deltas):
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
            for tally, (da, db) in zip(tallies, deltas):
                tally[0] += da
                tally[1] += db
    if not counts:
        return None
    witness = Layout(tuple(
        (oid, x, y) for oid, (x, y, _, _) in zip(placed_ids, packer.placements())))
    return make_column(counts, witness, registry)


def price(node, duals: DualPrices, instance: Instance, cfg: SolverConfig,
          registry: TypeRegistry) -> list[Column]:
    """New columns with positive reduced cost, deduplicated against each other
    and the node's pool, in lexicographic count-vector order.  An empty result
    ends column generation at this node."""
    seen = {col.key() for col in node.columns}
    fresh: list[Column] = []
    for seq in make_sequences(duals, node, cfg, registry):
        col = greedy_fill(seq, node, instance, registry)
        if col is None:
            continue
        if reduced_cost(col.counts_dict(), duals) <= EPS_PRICE:
            continue
        if col.key() in seen:
            continue
        seen.add(col.key())
        fresh.append(col)
    fresh.sort(key=lambda c: dense_counts(c.counts_dict(), registry))
    return fresh
