"""Affinity-guided pair branching: compound (together) and conflict (apart) children.

A fractional master solution is attacked by picking an item-type pair.  The
left child forces at least one bin to hold the pair together: it asks for one
more unit of the pair's compound type; the right child forbids the pair
from sharing a bin (a unary cap when the pair is a type with itself).
Both children, and the search's residual-rounding nodes, are built by
``derive``, which keeps the given columns that fit and adds coverage fills.
"""

from math import floor
from typing import Iterable

import numpy as np

from .master import EPS_INT, RmpSolveOutcome
from .model import (ApartRule, Column, Instance, ItemType, Layout, NodeProblem,
                    TypeRegistry, make_column, node_rng, violates_rules)
from .placement import (BottomLeftPacker, first_layout, holds_counts, place_ids,
                        verify_layout)
from .pricing import greedy_fill


class BranchingStuck(RuntimeError):
    """Fractional solution but no admissible branching pair exists."""


def affinity(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How frequently items of each type pair share bins under the values x
    of the columns of the count matrix a (``RmpSolveOutcome.counts``):
    rho[i][i] = sum_l a_il (a_il - 1)/2 x_l and rho[i][j] = sum_l a_il a_jl x_l,
    a symmetric matrix over the rows of a.  Compounds are not expanded."""
    xv = np.asarray(x, dtype=float)
    rho = (a * xv) @ a.T
    diag = ((a * (a - 1.0) / 2.0) * xv).sum(axis=1)
    np.fill_diagonal(rho, diag)
    return rho


def _fractional_part(value: float) -> float:
    return max(0.0, value - floor(value + EPS_INT))


def select_branching_pair(node: NodeProblem,
                          outcome: RmpSolveOutcome) -> tuple[str, str]:
    """Pair (i, j) to branch on, diagonal pairs allowed, read from the
    node's solved master ``outcome``.

    First choice: the pair with the largest |rho - round(rho)|, the first in
    the node's type order on a tie.  Fallback when all affinities are
    integral: pick the most fractional pooled column among those with two or
    more types (or one type with to > 1), then its largest-area type, pairing
    it with itself when another item of it may join a bin, otherwise with
    the column's next-largest-area type.
    """
    rho = affinity(outcome.counts, outcome.x)
    ids = tuple(node.multiplicities)
    frac = np.abs(rho - np.round(rho)).tolist()
    best_val = 0.0
    best_pair: tuple[str, str] | None = None
    for p in range(len(ids)):
        row = frac[p]
        for q in range(p, len(ids)):
            v = row[q]
            if v > EPS_INT and v > best_val + EPS_INT:
                best_val = v
                best_pair = (ids[p], ids[q])
    if best_pair is not None:
        return best_pair

    order = {tid: k for k, tid in enumerate(ids)}
    candidates = []
    for l, col in enumerate(node.columns):
        if len(col.counts) == 1 and node.to_of(col.counts[0][0]) <= 1:
            continue
        candidates.append((-_fractional_part(float(outcome.x[l])), l, col))
    candidates.sort()
    for _, l, col in candidates:
        by_area = sorted(
            col.counts,
            key=lambda kv: (-kv[1] * node.registry.unit_area(kv[0]), order[kv[0]]))
        types_ranked = [tid for tid, _ in by_area]
        i = types_ranked[0]
        if node.to_of(i) > 1 and not node.has_cap(i):
            return (i, i)
        for j in types_ranked[1:]:
            if not node.has_conflict(i, j):
                return (i, j)
    raise BranchingStuck(
        f"node {node.id}: fractional solution but no admissible pair")


def derive(node: NodeProblem, child_id: int, seed: int,
           multiplicities: dict[str, tuple[int, int]], columns: Iterable[Column],
           rules: frozenset[ApartRule]) -> NodeProblem | None:
    """The node below ``node`` with the given ranges and rules; it shares the
    registry, packer and checked witnesses of ``node`` and draws from
    ``node_rng(seed, child_id)``.

    Its pool keeps each of ``columns`` that fits the new ``to`` bounds, once,
    in the given order, then adds a single-type greedy fill for every active
    type with from > 0, compounds included, that has no single-type column.
    With those columns x_j = from_j / count_j is feasible for every row pair,
    so the node's master is feasible by construction.  A column that merely
    contains the type is not enough: if every carrier also carries a
    compound, the compound's to-row throttles them all at once.  None means
    such a fill failed, so the node is infeasible.
    """
    child = NodeProblem(
        id=child_id, parent_id=node.id, depth=node.depth + 1,
        multiplicities=multiplicities, columns=[], registry=node.registry,
        rules=rules, rng=node_rng(seed, child_id), packer=node.packer,
        checked_witnesses=node.checked_witnesses)
    seen = set()
    for col in columns:
        if col.counts not in seen and all(
                n <= multiplicities[tid][1] for tid, n in col.counts):
            seen.add(col.counts)
            child.columns.append(col)
    covered = {col.counts[0][0] for col in child.columns if len(col.counts) == 1}
    for tid, (lo, _) in multiplicities.items():
        if lo > 0 and tid not in covered:
            fill = greedy_fill((tid,), child)
            if fill is None:
                return None
            child.columns.append(fill)
    return child


def make_right_child(node: NodeProblem, i: str, j: str, *, child_id: int,
                     seed: int) -> NodeProblem | None:
    """Apart branch: i and j may not share a bin (at most one item of i when
    i == j).  Pooled columns that violate the new rule are dropped; pricing
    enforces it.  The pool already obeys the node's older rules, so only the
    new one is checked.  The new rule's basis is this node's active type set,
    so items inside compounds created later in the subtree still count
    against it.  The rule names the pair in the node's type order."""
    a, b = sorted((i, j), key=list(node.multiplicities).index)
    rule = ApartRule(a, b, frozenset(node.multiplicities))
    kept = [col for col in node.columns
            if not rule.violated_by(col.counts_dict(), node.registry)]
    return derive(node, child_id, seed, dict(node.multiplicities), kept,
                  node.rules | {rule})


def _compound(i: str, j: str, registry: TypeRegistry) -> ItemType:
    """The compound of one i and one j (two i when i == j), i and j in
    registry order: the first type under (i+j), (i+j)#2, ... with these
    constituents, else a new one under the first free id of those."""
    i, j = sorted((i, j), key=registry.order)
    constituents = ((i, 2),) if i == j else ((i, 1), (j, 1))
    base = f"({i}+{j})"
    cid = base
    k = 2
    while cid in registry:
        if registry[cid].constituents == constituents:
            return registry[cid]
        cid = f"{base}#{k}"
        k += 1
    ctype = ItemType(id=cid, constituents=constituents)
    registry.add(ctype)
    return ctype


def _place_compound_unit(ctype: ItemType, packer: BottomLeftPacker,
                         registry: TypeRegistry) -> Layout | None:
    """Can the compound's constituent rectangles share one bin?  Tries on
    ``packer`` the canonical order first, then every other distinct order of
    a bundle of up to 7 rectangles, or largest area first for a bigger one."""
    unit = registry.expansion(ctype.id)
    if len(unit) <= 7:
        return first_layout(unit, packer, registry)
    layout = place_ids(unit, packer, registry)
    if layout is None:
        layout = place_ids(sorted(unit, key=lambda oid: (
            -registry.unit_area(oid), registry.order(oid))), packer, registry)
    return layout


def make_left_child(node: NodeProblem, i: str, j: str, *, child_id: int,
                    seed: int, instance: Instance) -> NodeProblem | None:
    """Together branch: some bin must hold i and j jointly.

    Finds the pair's compound by its id, or registers it, shifts one unit
    of demand from the constituents onto it, and rewrites inherited columns
    that contain the pair.  Returns None when the compound's rectangles
    cannot share a bin of ``node.packer``, discarding the node before it is
    ever solved.

    A rewritten column must keep its witness's rectangle multiset, or this
    raises ``RuntimeError``.  The run checks a witness's geometry only the
    first time one of its together branches rewrites a column with it, by
    ``verify_layout``, and records it in ``node.checked_witnesses``: the
    geometry of a layout does not change when its counts are rewritten.
    """
    if node.to_of(i) < 1 or (i == j and node.to_of(i) < 2):
        raise ValueError(f"cannot branch together on ({i}, {j}): to-bound exhausted")
    registry = node.registry
    ctype = _compound(i, j, registry)
    fresh_activation = ctype.id not in node.multiplicities

    mult = dict(node.multiplicities)
    for t in (i, j):
        lo, hi = mult[t]
        mult[t] = (max(lo - 1, 0), hi - 1)
    lo, hi = mult.get(ctype.id, (0, 0))
    mult[ctype.id] = (lo + 1, hi + 1)

    if violates_rules({ctype.id: 1}, node.rules, registry):
        # the forced pairing contradicts an inherited apart rule
        return None
    checked = node.checked_witnesses
    pool = []
    for col in node.columns:
        cd = col.counts_dict()
        if all(cd.get(t, 0) >= n for t, n in ctype.constituents):
            for t, n in ctype.constituents:
                cd[t] -= n
            cd[ctype.id] = cd.get(ctype.id, 0) + 1
            col = make_column(cd, col.witness, registry)
            witness, counts = col.witness, col.counts_dict()
            if not (holds_counts(witness, counts, registry) if witness in checked
                    else verify_layout(witness, counts, instance, registry)):
                raise RuntimeError("compound substitution changed the rectangle multiset")
            checked.add(witness)
        pool.append(col)
    if fresh_activation:
        unit_layout = _place_compound_unit(ctype, node.packer, registry)
        if unit_layout is None:
            return None
        pool.append(make_column({ctype.id: 1}, unit_layout, registry))
    return derive(node, child_id, seed, mult, pool, node.rules)
