"""Branch-and-price driver: per-node column generation, node selection,
incumbent management, bounds and gap reporting.

Open nodes wait in one min-heap.  Depth-first selection pops the newest
node first; the pattern-minimizing heuristic pops the node whose parent's
solution used the fewest patterns, ties by insertion order.  Because
pricing is heuristic, node LP values are not certified lower bounds; the
reported gap is labeled heuristic everywhere.
"""

import heapq
import time
from dataclasses import dataclass
from math import ceil
from typing import Callable

import numpy as np

from .branching import (BranchingStuck, make_left_child, make_right_child,
                        select_branching_pair)
from .master import EPS_INT, RmpSolveOutcome, solve_rmp
from .model import (Column, Instance, NodeProblem, Solution, SolverConfig,
                    TypeRegistry, expand_counts, node_rng)
from .placement import verify_layout
from .pricing import greedy_fill, price


@dataclass
class SearchStats:
    nodes_explored: int = 0
    columns_generated: int = 0
    cg_iterations: int = 0
    stuck_nodes: int = 0
    wall_time_seconds: float = 0.0


@dataclass(frozen=True)
class ProgressEvent:
    nodes_explored: int
    incumbent_bins: int | None
    incumbent_patterns: int | None
    best_bound: float
    gap: float | None


@dataclass
class SearchReport:
    solution: Solution | None
    best_bound: float
    gap: float | None          # heuristic: pricing gives no certified bound
    stats: SearchStats
    status: str                # complete | time_limit | stopped | infeasible
    instance: Instance
    registry: TypeRegistry     # includes compound types created while branching


ProgressCallback = Callable[[ProgressEvent], bool | None]


def initial_columns(instance: Instance, registry: TypeRegistry,
                    node: NodeProblem) -> list[Column]:
    """Starting pool for the root ``node``: one homogeneous column per item
    type plus one mixed column filled over all types by descending area.
    Guarantees feasibility of the root master: x_j = from_j / count_j covers
    every lower row.

    The fills read the registry from ``node``; ``registry`` is not read and
    stays in the signature for callers that pass it by position."""
    cols: list[Column] = []
    seen = set()
    for t in instance.item_types:
        col = greedy_fill((t.id,), node, instance)
        if col is not None and col.counts not in seen:
            seen.add(col.counts)
            cols.append(col)
    reg = node.registry
    by_area = tuple(sorted(
        (t.id for t in instance.item_types),
        key=lambda tid: (-reg.unit_area(tid), reg.order(tid))))
    mixed = greedy_fill(by_area, node, instance)
    if mixed is not None and mixed.counts not in seen:
        cols.append(mixed)
    return cols


def column_generation(node: NodeProblem, instance: Instance, cfg: SolverConfig,
                      registry: TypeRegistry, deadline: float | None = None,
                      stats: SearchStats | None = None) -> RmpSolveOutcome | None:
    """Alternate master solves and pricing until pricing returns nothing or
    the time budget runs out.  None means the node's master is infeasible.

    Pricing reads the registry from ``node``; ``registry`` is not read and
    stays in the signature for callers that pass it by position."""
    stats = stats if stats is not None else SearchStats()
    warm = None
    while True:
        outcome = solve_rmp(node, warm_basis=warm)
        stats.cg_iterations += 1
        if not outcome.feasible:
            return None
        if deadline is not None and time.monotonic() >= deadline:
            return outcome
        fresh = price(node, outcome.scores, instance, cfg)
        if not fresh:
            return outcome
        node.columns.extend(fresh)
        stats.columns_generated += len(fresh)
        warm = outcome.lp_result.basis


def _extract_solution(node: NodeProblem, outcome: RmpSolveOutcome,
                      instance: Instance) -> Solution:
    registry = node.registry
    xs = np.rint(outcome.x).astype(int)
    assignments = tuple((col, int(k))
                        for col, k in zip(node.columns, xs) if k > 0)
    totals: dict[str, int] = {t.id: 0 for t in instance.item_types}
    for col, k in assignments:
        if not verify_layout(col.witness, col.counts_dict(), instance, registry):
            raise RuntimeError(f"pattern witness failed verification at node {node.id}")
        for oid, n in expand_counts(col.counts_dict(), registry).items():
            totals[oid] += n * k
    for t in instance.item_types:
        if not (t.from_count <= totals[t.id] <= t.to_count):
            raise RuntimeError(
                f"integral solution violates range of {t.id!r}: {totals[t.id]}")
    bins = int(sum(k for _, k in assignments))
    patterns = len(assignments)
    return Solution(
        assignments=assignments,
        s=tuple(sorted(totals.items(), key=lambda kv: registry.order(kv[0]))),
        bins=bins, patterns=patterns)


def _relative_gap(incumbent_bins: int | None, best_bound: float) -> float | None:
    if incumbent_bins is None:
        return None
    if incumbent_bins <= 0:
        return 0.0
    return max(0.0, (incumbent_bins - best_bound) / incumbent_bins)


class _OpenNodes:
    """Min-heap of open nodes.  The n-th push gets the key (0, -n) under
    depth-first selection, so the newest node pops first, and
    (parent_patterns_used, n) otherwise."""

    def __init__(self, strategy: str):
        self.depth_first = strategy == "depth_first"
        self._heap: list[tuple[int, int, NodeProblem]] = []
        self._counter = 0

    def push(self, node: NodeProblem) -> None:
        key = (0, -self._counter) if self.depth_first else \
            (node.parent_patterns_used, self._counter)
        heapq.heappush(self._heap, (*key, node))
        self._counter += 1

    def pop(self) -> NodeProblem:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def min_bound(self) -> float | None:
        return min((e[2].bound_hint for e in self._heap), default=None)


def run(instance: Instance, cfg: SolverConfig,
        progress: ProgressCallback | None = None) -> SearchReport:
    """Full branch-and-price search; returns the incumbent and a report.

    Deterministic for a fixed instance, seed and strategy when no time limit
    interferes.  The progress callback may return True to stop early.  The
    root builds its own placement memo, and every node of the run shares it.
    """
    start = time.monotonic()
    deadline = start + cfg.time_limit_seconds \
        if cfg.time_limit_seconds is not None else None
    registry = TypeRegistry(instance.item_types)
    stats = SearchStats()

    root = NodeProblem(
        id=0, parent_id=None, depth=0,
        multiplicities={t.id: (t.from_count, t.to_count)
                        for t in instance.item_types},
        columns=[], registry=registry, rng=node_rng(cfg.rng_seed, 0))
    root.columns = initial_columns(instance, registry, root)
    stats.columns_generated += len(root.columns)

    open_nodes = _OpenNodes(cfg.node_selection)
    open_nodes.push(root)
    next_id = 1
    incumbent: Solution | None = None
    status = "complete"

    def emit(best_bound: float) -> bool:
        if progress is None:
            return False
        event = ProgressEvent(
            nodes_explored=stats.nodes_explored,
            incumbent_bins=incumbent.bins if incumbent else None,
            incumbent_patterns=incumbent.patterns if incumbent else None,
            best_bound=best_bound,
            gap=_relative_gap(incumbent.bins if incumbent else None, best_bound))
        return bool(progress(event))

    while len(open_nodes):
        if deadline is not None and time.monotonic() >= deadline:
            status = "time_limit"
            break
        if incumbent is not None and \
                incumbent.bins <= open_nodes.min_bound() + EPS_INT:
            break  # gap closed (relative to the heuristic bound)
        node = open_nodes.pop()
        stats.nodes_explored += 1
        outcome = column_generation(node, instance, cfg, registry,
                                    deadline=deadline, stats=stats)
        if outcome is None:
            continue
        node.bound_hint = outcome.bins
        if not outcome.fractional:
            candidate = _extract_solution(node, outcome, instance)
            if incumbent is None or (candidate.bins, candidate.patterns) < \
                    (incumbent.bins, incumbent.patterns):
                incumbent = candidate
                low = open_nodes.min_bound()
                if emit(outcome.bins if low is None else low):
                    status = "stopped"
                    break
            continue
        if incumbent is not None and \
                ceil(outcome.bins - EPS_INT) >= incumbent.bins:
            continue
        if deadline is not None and time.monotonic() >= deadline:
            open_nodes.push(node)  # keep its bound visible in the report
            status = "time_limit"
            break
        try:
            i, j = select_branching_pair(node, outcome.x)
        except BranchingStuck:
            stats.stuck_nodes += 1
            continue
        patterns_used = int(np.sum(outcome.x > EPS_INT))
        right = make_right_child(node, i, j, child_id=next_id,
                                 seed=cfg.rng_seed, instance=instance)
        next_id += 1
        left = make_left_child(node, i, j, child_id=next_id,
                               seed=cfg.rng_seed, instance=instance)
        next_id += 1
        for child in (right, left):
            if child is None:
                continue
            child.parent_patterns_used = patterns_used
            child.bound_hint = outcome.bins
            open_nodes.push(child)
        if stats.nodes_explored % 50 == 0:
            low = open_nodes.min_bound()
            if emit(outcome.bins if low is None else low):
                status = "stopped"
                break

    remaining = open_nodes.min_bound()
    if remaining is None:
        best_bound = float(incumbent.bins) if incumbent else 0.0
    else:
        best_bound = remaining
    if incumbent is None and status == "complete":
        status = "infeasible"
    stats.wall_time_seconds = time.monotonic() - start
    gap = _relative_gap(incumbent.bins if incumbent else None, best_bound)
    emit(best_bound)
    return SearchReport(solution=incumbent, best_bound=best_bound, gap=gap,
                        stats=stats, status=status, instance=instance,
                        registry=registry)
