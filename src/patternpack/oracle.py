"""Exact reference solver for tiny instances.

Feasibility of a count vector is decided by trying every distinct permutation
of its expanded rectangle multiset through the bottom-left placer, so the
oracle is complete relative to bottom-left-representable packings.  Bin
minimization is a shortest-path search over production totals; pattern
minimization enumerates small pattern subsets.  Hard size guards keep every
call cheap and refuse anything larger.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .model import ApartRule, Instance, Layout, TypeRegistry, violates_rules
from .placement import distinct_orders, place_ids

_MAX_VECTORS = 10_000
_MAX_RECTS = 8
_MAX_PATTERN_SUBSETS = 5_000_000


class OracleGuardError(RuntimeError):
    """The request exceeds the oracle's size guards."""


@dataclass(frozen=True)
class OracleProblem:
    """Constraint view of an instance or of a branch-and-bound node."""

    instance: Instance
    registry: TypeRegistry
    type_ids: tuple[str, ...]
    ranges: tuple[tuple[int, int], ...]         # (from, to) per type
    rules: frozenset[ApartRule] = frozenset()

    @staticmethod
    def from_instance(instance: Instance) -> "OracleProblem":
        registry = instance.registry()
        return OracleProblem(
            instance=instance, registry=registry,
            type_ids=tuple(t.id for t in instance.item_types),
            ranges=tuple((t.from_count, t.to_count) for t in instance.item_types))


@dataclass(frozen=True)
class OracleResult:
    bins: int
    patterns: int
    assignment: tuple[tuple[tuple[tuple[str, int], ...], int], ...]  # (pattern, x)


def _try_place_vector(vec: tuple[int, ...], problem: OracleProblem) -> Layout | None:
    """First bottom-left layout over the distinct orders of the expanded
    multiset."""
    inst, reg = problem.instance, problem.registry
    expanded: list[str] = []
    for tid, n in zip(problem.type_ids, vec):
        expanded.extend(reg.expansion(tid) * n)
    area = sum(reg[oid].width * reg[oid].height for oid in expanded)
    if area > inst.bin_width * inst.bin_height:
        return None
    if len(expanded) > _MAX_RECTS:
        raise OracleGuardError(
            f"candidate with {len(expanded)} rectangles exceeds the guard of {_MAX_RECTS}")
    for order in distinct_orders(expanded):
        layout = place_ids(order, inst, reg)
        if layout is not None:
            return layout
    return None


def _placement_caps(problem: OracleProblem) -> tuple[int, ...]:
    capped = {r.a for r in problem.rules if r.is_cap}
    caps = []
    for tid, (_, hi) in zip(problem.type_ids, problem.ranges):
        caps.append(min(hi, 1) if tid in capped else hi)
    return tuple(caps)


def feasible_patterns(problem: OracleProblem) -> dict[tuple[int, ...], Layout]:
    """Every placeable, conflict-respecting nonzero count vector with a witness.

    Placement feasibility is downward closed, so vectors are visited in
    increasing total count and a vector is skipped outright when removing one
    unit already fails.
    """
    caps = _placement_caps(problem)
    span = 1
    for c in caps:
        span *= c + 1
    if span > _MAX_VECTORS:
        raise OracleGuardError(
            f"{span} candidate vectors exceed the guard of {_MAX_VECTORS}")
    placeable: dict[tuple[int, ...], Layout | None] = {}
    vectors = sorted(itertools.product(*(range(c + 1) for c in caps)), key=sum)
    for vec in vectors:
        parents_ok = True
        for t in range(len(vec)):
            if vec[t] > 0:
                parent = vec[:t] + (vec[t] - 1,) + vec[t + 1:]
                if placeable[parent] is None:
                    parents_ok = False
                    break
        placeable[vec] = _try_place_vector(vec, problem) if parents_ok else None
    out: dict[tuple[int, ...], Layout] = {}
    for vec, layout in placeable.items():
        if layout is None or not any(vec):
            continue
        counts = {tid: n for tid, n in zip(problem.type_ids, vec) if n}
        if not violates_rules(counts, problem.rules, problem.registry):
            out[vec] = layout
    return out


def exact_max_fill(counts_cap: Mapping[str, int],
                   instance: Instance) -> list[dict[str, int]]:
    """Maximal feasible count vectors under componentwise order, given caps."""
    base = OracleProblem.from_instance(instance)
    ids = base.type_ids
    problem = OracleProblem(
        instance=instance, registry=base.registry, type_ids=ids,
        ranges=tuple((0, counts_cap.get(tid, 0)) for tid in ids))
    feasible = feasible_patterns(problem)
    feasible_set = set(feasible) | {tuple([0] * len(ids))}
    caps = _placement_caps(problem)
    maximal = []
    for vec in sorted(feasible_set):
        dominated = False
        for t in range(len(vec)):
            up = vec[:t] + (vec[t] + 1,) + vec[t + 1:]
            if up[t] <= caps[t] and up in feasible_set:
                dominated = True
                break
        if not dominated:
            maximal.append({tid: n for tid, n in zip(ids, vec) if n > 0})
    return maximal


def _min_bins(problem: OracleProblem,
              patterns: dict[tuple[int, ...], Layout]
              ) -> tuple[int, list[tuple[int, ...]]] | None:
    """Fewest bins whose pattern totals land inside every production range,
    via breadth-first search over reachable totals.  Returns (bins, one
    witnessing pattern list)."""
    ids = problem.type_ids
    los = tuple(lo for lo, _ in problem.ranges)
    his = tuple(hi for _, hi in problem.ranges)
    start = tuple([0] * len(ids))

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
    return None


def exact_min_bins(problem: OracleProblem) -> int | None:
    """Minimum bins only; None when no integral solution exists."""
    best = _min_bins(problem, feasible_patterns(problem))
    return None if best is None else best[0]


def exact_solve_problem(problem: OracleProblem) -> OracleResult | None:
    """Minimum bins, then minimum distinct patterns among bins-minimal solutions.
    None when no integral solution exists.  The pattern count is proved minimal
    up to subsets of size 6; past that the breadth-first witness is reported."""
    patterns = feasible_patterns(problem)
    best = _min_bins(problem, patterns)
    if best is None:
        return None
    bins, witness_path = best
    if bins == 0:
        return OracleResult(0, 0, ())
    ids = problem.type_ids
    los = tuple(lo for lo, _ in problem.ranges)
    his = tuple(hi for _, hi in problem.ranges)
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


def exact_solve(instance: Instance) -> OracleResult | None:
    """Exact minimum (bins, patterns) for a tiny instance.

    The vector-count and rectangle-count guards refuse anything that would
    make the enumeration expensive; candidates that already fail the bin-area
    bound are discarded without a placement test.
    """
    return exact_solve_problem(OracleProblem.from_instance(instance))
