"""Branch-and-price driver: per-node column generation, a residual-rounding
dive at the root, node selection, incumbent management, bounds and gap
reporting.

The root is solved first.  When its LP is fractional, ``dive`` rounds it
into a first incumbent, which then prunes the tree like any other.  Open
nodes wait in one min-heap.  Depth-first selection pops the newest node
first; the pattern-minimizing heuristic pops the node whose parent's
solution used the fewest patterns, ties by insertion order.  Because
pricing is heuristic, node LP values are not certified lower bounds; the
reported bound and gap are labeled heuristic everywhere.
"""

import heapq
import time
from dataclasses import dataclass
from itertools import count
from math import ceil, floor
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
    """Outcome of a search.  ``complete`` means that the search ran out of
    open nodes (each was branched, pruned against the incumbent, infeasible
    or stuck) or that the incumbent's bins reached the smallest LP value
    among the open nodes.  Those LP values come from heuristic pricing, so
    ``complete`` and a gap of 0 do not prove the incumbent optimal."""

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

    The fills read the registry from ``node``.  ``registry`` is not read; it
    stays only because the benchmark's ``perfbench/solve.py`` passes it by
    position."""
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
    """Solve one node of the search tree by column generation (see
    ``_generate``).  None means the node's master is infeasible.

    Neither ``cfg`` nor ``registry`` is read; both stay only because the
    benchmark's ``perfbench/solve.py`` passes them by position.  Its tracer
    counts calls of this function as explored nodes, so the dive's residual
    nodes call ``_generate`` directly."""
    return _generate(node, instance, deadline,
                     stats if stats is not None else SearchStats())


def _generate(node: NodeProblem, instance: Instance, deadline: float | None,
              stats: SearchStats) -> RmpSolveOutcome | None:
    """Alternate master solves and pricing until pricing returns nothing or
    the time budget runs out.  None means the node's master is infeasible.
    Pricing reads the registry from ``node``."""
    warm = None
    while True:
        outcome = solve_rmp(node, warm_basis=warm)
        stats.cg_iterations += 1
        if outcome is None or (deadline is not None
                               and time.monotonic() >= deadline):
            return outcome
        fresh = price(node, outcome.scores, instance)
        if not fresh:
            return outcome
        node.columns.extend(fresh)
        stats.columns_generated += len(fresh)
        warm = outcome.lp_result.basis


def _solution(assignments: tuple[tuple[Column, int], ...], instance: Instance,
              registry: TypeRegistry) -> Solution:
    """The solution that uses each pattern the given number of times, after
    checking every witness and every production range; a failed check
    raises."""
    totals: dict[str, int] = {t.id: 0 for t in instance.item_types}
    for col, k in assignments:
        if not verify_layout(col.witness, col.counts_dict(), instance, registry):
            raise RuntimeError(f"pattern witness failed verification: {col.counts}")
        for oid, n in expand_counts(col.counts_dict(), registry).items():
            totals[oid] += n * k
    for t in instance.item_types:
        if not (t.from_count <= totals[t.id] <= t.to_count):
            raise RuntimeError(
                f"integral solution violates range of {t.id!r}: {totals[t.id]}")
    return Solution(
        assignments=assignments,
        s=tuple(sorted(totals.items(), key=lambda kv: registry.order(kv[0]))),
        bins=int(sum(k for _, k in assignments)), patterns=len(assignments))


def dive(root: NodeProblem, outcome: RmpSolveOutcome, instance: Instance,
         seed: int, deadline: float | None, stats: SearchStats) -> Solution | None:
    """Residual rounding from the solved ``root``, the cutting-stock primal
    heuristic (Vanderbeck 2000; Belov & Scheithauer 2006).

    Each round fixes floor(x_l) copies of each column, lowered so that no
    ``to`` is exceeded, or one copy of the column with the largest x when
    every count is 0.  It subtracts what they produce from every (from, to)
    and solves the residual node by column generation, until every ``from``
    is met.  A residual node starts from the pool columns that still fit its
    ``to``, plus ``initial_columns`` for coverage.  Residual nodes take the
    ids -1, -2, ..., which the search never hands out, share the root's
    registry and memo, and never join the tree; the root's pool is left as
    it is.  None means a residual master was infeasible or the deadline
    passed."""
    registry = root.registry
    mult = dict(root.multiplicities)
    fixed: dict[tuple, list] = {}  # counts -> [column, copies]

    def fix(col: Column, k: int) -> None:
        fixed.setdefault(col.counts, [col, 0])[1] += k
        for tid, n in col.counts:
            lo, hi = mult[tid]
            mult[tid] = (max(0, lo - n * k), hi - n * k)

    node = root
    for node_id in count(-1, -1):
        fixed_any = False
        for col, x in zip(node.columns, outcome.x):
            k = min(floor(x + EPS_INT), *(mult[tid][1] // n for tid, n in col.counts))
            if k > 0:
                fix(col, k)
                fixed_any = True
        if not fixed_any:
            fix(node.columns[int(np.argmax(outcome.x))], 1)
        if all(lo == 0 for lo, _ in mult.values()):
            return _solution(tuple(map(tuple, fixed.values())), instance, registry)
        node = NodeProblem(
            id=node_id, parent_id=node.id, depth=node.depth + 1,
            multiplicities=dict(mult),
            columns=[col for col in node.columns
                     if all(n <= mult[tid][1] for tid, n in col.counts)],
            registry=registry, rules=root.rules, rng=node_rng(seed, node_id),
            memo=root.memo)
        seen = {col.counts for col in node.columns}
        for col in initial_columns(instance, registry, node):
            if col.counts not in seen:
                node.columns.append(col)
                stats.columns_generated += 1
        outcome = _generate(node, instance, deadline, stats)
        if outcome is None or (deadline is not None
                               and time.monotonic() >= deadline):
            return None


def _relative_gap(incumbent_bins: int | None, best_bound: float) -> float | None:
    if incumbent_bins is None:
        return None
    if incumbent_bins <= 0:
        return 0.0
    return max(0.0, (incumbent_bins - best_bound) / incumbent_bins)


class _OpenNodes:
    """Min-heap of open nodes.  Each entry carries the number of patterns its
    parent's LP solution used and its parent's LP bound.  The n-th push gets
    the key (0, -n) under depth-first selection, so the newest node pops
    first, and (parent_patterns_used, n) otherwise."""

    def __init__(self, strategy: str):
        self.depth_first = strategy == "depth_first"
        self._heap: list[tuple[int, int, float, NodeProblem]] = []
        self._counter = 0

    def push(self, node: NodeProblem, parent_patterns_used: int,
             bound: float) -> None:
        key = (0, -self._counter) if self.depth_first else \
            (parent_patterns_used, self._counter)
        heapq.heappush(self._heap, (*key, bound, node))
        self._counter += 1

    def pop(self) -> NodeProblem:
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap)

    def bound(self, fallback: float) -> float:
        """The smallest bound of an open node, or ``fallback`` if none is open."""
        return min((e[2] for e in self._heap), default=fallback)


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
    open_nodes.push(root, 0, 0.0)
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

    def best_bound() -> float:
        return open_nodes.bound(float(incumbent.bins) if incumbent else 0.0)

    def explore(node: NodeProblem) -> str | None:
        """Solve, prune or branch one popped node; returns the status that
        ends the run, if any."""
        nonlocal incumbent, next_id
        outcome = column_generation(node, instance, cfg, registry,
                                    deadline=deadline, stats=stats)
        if outcome is None:
            return None
        if not outcome.fractional:
            xs = np.rint(outcome.x).astype(int)
            candidate = _solution(
                tuple((col, int(k)) for col, k in zip(node.columns, xs) if k > 0),
                instance, registry)
            if incumbent is None or (candidate.bins, candidate.patterns) < \
                    (incumbent.bins, incumbent.patterns):
                incumbent = candidate
                if emit(open_nodes.bound(outcome.bins)):
                    return "stopped"
            return None
        if node is root:
            incumbent = dive(root, outcome, instance, cfg.rng_seed, deadline,
                             stats)
            if incumbent is not None and emit(outcome.bins):
                return "stopped"
        if incumbent is not None and \
                ceil(outcome.bins - EPS_INT) >= incumbent.bins:
            return None
        if deadline is not None and time.monotonic() >= deadline:
            # keep its bound visible in the report; nothing pops it again
            open_nodes.push(node, 0, outcome.bins)
            return "time_limit"
        try:
            i, j = select_branching_pair(node, outcome.x)
        except BranchingStuck:
            stats.stuck_nodes += 1
            return None
        patterns_used = int(np.sum(outcome.x > EPS_INT))
        right = make_right_child(node, i, j, child_id=next_id,
                                 seed=cfg.rng_seed, instance=instance)
        next_id += 1
        left = make_left_child(node, i, j, child_id=next_id,
                               seed=cfg.rng_seed, instance=instance)
        next_id += 1
        for child in (right, left):
            if child is not None:
                open_nodes.push(child, patterns_used, outcome.bins)
        return None

    while len(open_nodes):
        if deadline is not None and time.monotonic() >= deadline:
            status = "time_limit"
            break
        if incumbent is not None and \
                incumbent.bins <= open_nodes.bound(incumbent.bins) + EPS_INT:
            break  # gap closed (relative to the heuristic bound)
        stats.nodes_explored += 1
        ended = explore(open_nodes.pop())
        if ended is None and stats.nodes_explored % 50 == 0 and \
                emit(best_bound()):
            ended = "stopped"
        if ended is not None:
            status = ended
            break

    bound = best_bound()
    if incumbent is None and status == "complete":
        status = "infeasible"
    stats.wall_time_seconds = time.monotonic() - start
    gap = _relative_gap(incumbent.bins if incumbent else None, bound)
    emit(bound)
    return SearchReport(solution=incumbent, best_bound=bound, gap=gap,
                        stats=stats, status=status, instance=instance,
                        registry=registry)
