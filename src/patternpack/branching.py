"""Affinity-guided pair branching: compound (together) and conflict (apart) children.

A fractional master solution is attacked by picking an item-type pair.  The
left child forces at least one bin to hold the pair together, realized by a
compound type with a one-bin production range; the right child forbids the
pair from sharing a bin (a unary cap when the pair is a type with itself).
"""

from math import floor

import numpy as np

from .master import EPS_INT, count_matrix
from .model import (ApartRule, Instance, ItemType, Layout, NodeProblem,
                    TypeRegistry, make_column, node_rng, violates_rules)
from .placement import distinct_orders, place_ids, verify_layout
from .pricing import greedy_fill


class BranchingStuck(RuntimeError):
    """Fractional solution but no admissible branching pair exists."""


def affinity(node: NodeProblem, x: np.ndarray) -> np.ndarray:
    """How frequently items of each type pair share bins under the values x:
    rho[i][i] = sum_l a_il (a_il - 1)/2 x_l and rho[i][j] = sum_l a_il a_jl x_l,
    a symmetric matrix over the node's active types in registry order.
    Counts stay at node level; compounds are not expanded."""
    a = count_matrix(node)
    xv = np.asarray(x, dtype=float)
    rho = (a * xv) @ a.T
    diag = ((a * (a - 1.0) / 2.0) * xv).sum(axis=1)
    np.fill_diagonal(rho, diag)
    return rho


def _fractional_part(value: float) -> float:
    return max(0.0, value - floor(value + EPS_INT))


def select_branching_pair(node: NodeProblem, x: np.ndarray) -> tuple[str, str]:
    """Pair (i, j) to branch on, diagonal pairs allowed.

    First choice: the pair with the largest |rho - round(rho)|.  Fallback when
    all affinities are integral: pick the most fractional pooled column among
    those with two or more types (or one type with to > 1), then its largest-
    area type, pairing it with itself when another item of it may join a bin,
    otherwise with the column's next-largest-area type.
    """
    rho = affinity(node, x)
    ids = tuple(node.multiplicities)
    frac = np.abs(rho - np.round(rho))
    best_val = 0.0
    best_pair: tuple[str, str] | None = None
    for p in range(len(ids)):
        for q in range(p, len(ids)):
            v = frac[p, q]
            if v > EPS_INT and v > best_val + EPS_INT:
                best_val = v
                best_pair = (ids[p], ids[q])
    if best_pair is not None:
        return best_pair

    order = {tid: k for k, tid in enumerate(ids)}
    candidates = []
    for l, col in enumerate(node.columns):
        positive = [tid for tid, _ in col.counts]
        if not positive:
            continue
        if len(positive) == 1 and node.to_of(positive[0]) <= 1:
            continue
        candidates.append((-_fractional_part(float(x[l])), l, col))
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


def _normalize_pair(i: str, j: str, order: dict[str, int]) -> tuple[str, str]:
    return (i, j) if order[i] <= order[j] else (j, i)


def _coverage_ok(node: NodeProblem, instance: Instance) -> bool:
    """Guarantee a pure single-type column for every active type with from > 0.

    With those homogeneous columns present, x_j = from_j / count_j is feasible
    for every row pair, so the child's RMP is feasible by construction.  A
    column that merely contains the type is not enough: if every carrier also
    carries a compound, the compound's to-row throttles them all at once.
    Rescue columns come from a single-type greedy fill honoring the node's
    rules; when even that fails the node is genuinely infeasible.
    """
    seen = {c.counts for c in node.columns}
    for tid, (lo, _) in node.multiplicities.items():
        if lo <= 0:
            continue
        if any(len(col.counts) == 1 and col.counts[0][0] == tid
               for col in node.columns):
            continue
        rescue = greedy_fill((tid,), node, instance)
        if rescue is None:
            return False
        if rescue.counts not in seen:
            seen.add(rescue.counts)
            node.columns.append(rescue)
    return True


def _respects_bounds(counts: dict[str, int], node: NodeProblem) -> bool:
    return all(n <= node.to_of(tid) for tid, n in counts.items())


def make_right_child(node: NodeProblem, i: str, j: str, *, child_id: int,
                     seed: int, instance: Instance) -> NodeProblem | None:
    """Apart branch: i and j may not share a bin (at most one item of i when
    i == j).  Violating pooled columns are dropped; pricing enforces the rule.
    The new rule's basis is this node's active type set, so items inside
    compounds created later in the subtree still count against it."""
    order = {tid: k for k, tid in enumerate(node.multiplicities)}
    a, b = (i, i) if i == j else _normalize_pair(i, j, order)
    rules = node.rules | {ApartRule(a, b, frozenset(node.multiplicities))}
    kept = [c for c in node.columns
            if not violates_rules(c.counts_dict(), rules, node.registry)]
    child = NodeProblem(
        id=child_id, parent_id=node.id, depth=node.depth + 1,
        multiplicities=dict(node.multiplicities), columns=kept,
        registry=node.registry, rules=rules, rng=node_rng(seed, child_id))
    if not _coverage_ok(child, instance):
        return None
    return child


def _compound_id(i: str, j: str, registry: TypeRegistry) -> str:
    base = f"({i}+{j})"
    cid = base
    k = 2
    while cid in registry:
        cid = f"{base}#{k}"
        k += 1
    return cid


def _place_compound_unit(ctype: ItemType, instance: Instance,
                         registry: TypeRegistry) -> Layout | None:
    """Can the compound's constituent rectangles share one bin?  Tries the
    canonical order first, then every other distinct order of a bundle of up
    to 7 rectangles, or largest area first for a bigger one."""
    unit = registry.expansion(ctype.id)
    orders = distinct_orders(unit) if len(unit) <= 7 else (unit, sorted(
        unit, key=lambda oid: (-registry.unit_area(oid), registry.order(oid))))
    for order in orders:
        layout = place_ids(order, instance, registry)
        if layout is not None:
            return layout
    return None


def make_left_child(node: NodeProblem, i: str, j: str, *, child_id: int,
                    seed: int, instance: Instance) -> NodeProblem | None:
    """Together branch: some bin must hold i and j jointly.

    Registers (or re-uses) the compound type for the pair, shifts one unit of
    demand from the constituents onto it, and rewrites inherited columns that
    contain the pair.  Returns None when the compound's rectangles cannot
    share a bin, discarding the node before it is ever solved.
    """
    if node.to_of(i) < 1 or (i == j and node.to_of(i) < 2):
        raise ValueError(f"cannot branch together on ({i}, {j}): to-bound exhausted")
    registry = node.registry
    existing = registry.find_compound(i, j)
    if existing is None:
        cid = _compound_id(i, j, registry)
        constituents = ((i, 2),) if i == j else tuple(
            sorted(((i, 1), (j, 1)), key=lambda cn: registry.order(cn[0])))
        ctype = ItemType(id=cid, from_count=1, to_count=1,
                         constituents=constituents)
        registry.add(ctype)
        fresh_activation = True
    else:
        ctype = existing
        fresh_activation = ctype.id not in node.multiplicities

    mult = dict(node.multiplicities)
    for t in (i, j):
        lo, hi = mult[t]
        hi -= 1
        if lo > 0:
            lo -= 1
        mult[t] = (lo, hi)
    if fresh_activation:
        mult[ctype.id] = (1, 1)
    else:
        lo, hi = mult[ctype.id]
        mult[ctype.id] = (lo + 1, hi + 1)

    if violates_rules({ctype.id: 1}, node.rules, registry):
        # the forced pairing contradicts an inherited apart rule
        return None
    unit_layout: Layout | None = None
    if fresh_activation:
        unit_layout = _place_compound_unit(ctype, instance, registry)
        if unit_layout is None:
            return None

    child = NodeProblem(
        id=child_id, parent_id=node.id, depth=node.depth + 1,
        multiplicities=mult, columns=[], registry=registry,
        rules=node.rules, rng=node_rng(seed, child_id))

    seen: set = set()
    for col in node.columns:
        cd = col.counts_dict()
        together = (cd.get(i, 0) >= 2) if i == j else (
            cd.get(i, 0) >= 1 and cd.get(j, 0) >= 1)
        if together:
            cd[i] = cd.get(i, 0) - (2 if i == j else 1)
            if i != j:
                cd[j] = cd.get(j, 0) - 1
            cd[ctype.id] = cd.get(ctype.id, 0) + 1
            adjusted = make_column(cd, col.witness, registry)
            if not verify_layout(adjusted.witness, adjusted.counts_dict(),
                                 instance, registry):
                raise RuntimeError("compound substitution changed the rectangle multiset")
            col = adjusted
            cd = col.counts_dict()
        if not _respects_bounds(cd, child):
            continue
        if col.counts in seen:
            continue
        seen.add(col.counts)
        child.columns.append(col)

    if fresh_activation:
        unit = make_column({ctype.id: 1}, unit_layout, registry)
        if unit.counts not in seen:
            child.columns.append(unit)

    if not _coverage_ok(child, instance):
        return None
    return child
