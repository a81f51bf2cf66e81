"""Branch-and-price driver: per-node column generation, a residual-rounding
dive, node selection, incumbent management, bounds and gap reporting.

The root is solved first.  ``dive`` is the one path from a node LP to a
solution: it rounds the root's LP and every integral node LP, from the node
it is given, and a better result becomes the incumbent, which prunes the
tree.  Children and the dive's residual nodes both come from
``branching.derive``.  Open nodes wait in one min-heap.  Depth-first selection pops the
newest node first; the pattern-minimizing heuristic pops the node whose
parent's solution used the fewest patterns, ties by insertion order.
Because pricing is heuristic, node LP values are not certified lower
bounds; the reported bound and gap are labeled heuristic everywhere.
"""

import heapq
import time
from dataclasses import dataclass
from itertools import count
from math import ceil, floor, inf
from typing import Callable

import numpy as np

from .branching import (BranchingStuck, derive, make_left_child,
                        make_right_child, select_branching_pair)
from .master import EPS_INT, RmpSolveOutcome, solve_rmp
from .model import (Column, Instance, NodeProblem, Solution, SolverConfig,
                    TypeRegistry, expand_counts, node_rng)
from .placement import BottomLeftPacker, verify_layout
from .pricing import greedy_fill, price


@dataclass
class SearchStats:
    """Counters of one run.  ``columns_generated`` is the root's starting
    pool plus the columns pricing added; coverage fills are counted nowhere."""

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


STATUSES = ("complete", "time_limit", "stopped")  # how a run can end


@dataclass
class SearchReport:
    """Outcome of a search.  ``status`` is one of ``STATUSES``: ``complete``
    means that the search ran out of open nodes (each was branched, pruned
    against the incumbent, integral or stuck) or that the incumbent's bins
    reached the smallest LP value among the open nodes; ``time_limit`` and
    ``stopped`` (by the progress callback) leave the node at hand, or its
    children, open with its LP value, so ``best_bound`` counts it.  The LP
    values come from heuristic pricing, so ``complete`` and a gap of 0 do
    not prove the incumbent optimal.  The root's dive finds an incumbent
    unless the time runs out first."""

    solution: Solution | None
    best_bound: float
    gap: float | None          # heuristic: pricing gives no certified bound
    stats: SearchStats
    status: str
    instance: Instance
    registry: TypeRegistry     # includes compound types created while branching


ProgressCallback = Callable[[ProgressEvent], bool | None]


def initial_columns(instance: Instance, registry: TypeRegistry,
                    node: NodeProblem) -> list[Column]:
    """Starting pool for the root ``node``: one homogeneous column per item
    type plus one mixed column filled over all types by descending area.
    Guarantees feasibility of the root master: x_j = from_j / count_j covers
    every lower row.

    A root without a packer gets one for the instance's bin here, and every
    layout of the run places through it.  The fills read the registry from
    ``node``.  ``registry`` is not read; it stays only because the
    benchmark's ``perfbench/solve.py`` passes it by position."""
    if node.packer is None:
        node.packer = BottomLeftPacker(instance.bin_width, instance.bin_height,
                                       instance.spacing)
    cols = [col for t in instance.item_types
            if (col := greedy_fill((t.id,), node)) is not None]
    reg = node.registry
    by_area = tuple(sorted(
        (t.id for t in instance.item_types),
        key=lambda tid: (-reg.unit_area(tid), reg.order(tid))))
    mixed = greedy_fill(by_area, node)
    if mixed is not None and mixed.counts not in {c.counts for c in cols}:
        cols.append(mixed)
    return cols


def column_generation(node: NodeProblem, instance: Instance, cfg: SolverConfig,
                      registry: TypeRegistry, deadline: float = inf,
                      stats: SearchStats | None = None) -> RmpSolveOutcome:
    """Solve one node of the search tree by column generation (see
    ``_generate``).

    None of ``instance``, ``cfg`` and ``registry`` is read: the node holds
    the registry and its packer the bin.  All three stay only because the
    benchmark's ``perfbench/solve.py`` passes them by position.  Its tracer
    counts calls of this function as explored nodes, so the dive's residual
    nodes call ``_generate`` directly."""
    return _generate(node, deadline,
                     stats if stats is not None else SearchStats())


def _generate(node: NodeProblem, deadline: float,
              stats: SearchStats) -> RmpSolveOutcome:
    """Alternate master solves and pricing until pricing returns nothing or
    the time budget runs out.  Each round after the first grows the last
    round's master by the columns pricing appended.  Pricing reads the
    registry and the packer from ``node``."""
    outcome = None
    while True:
        outcome = solve_rmp(node, outcome)
        stats.cg_iterations += 1
        if time.monotonic() >= deadline:
            return outcome
        fresh = price(node, outcome.scores)
        if not fresh:
            return outcome
        node.columns.extend(fresh)
        stats.columns_generated += len(fresh)


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
        s=tuple(totals.items()),
        bins=int(sum(k for _, k in assignments)), patterns=len(assignments))


def dive(start: NodeProblem, outcome: RmpSolveOutcome, instance: Instance,
         seed: int, deadline: float, stats: SearchStats) -> Solution | None:
    """Residual rounding from the solved node ``start``, the cutting-stock
    primal heuristic (Vanderbeck 2000; Belov & Scheithauer 2006), which the
    search runs on the root's LP and on every integral node LP.

    Each round fixes floor(x_l) copies of each column, lowered so that no
    ``to`` is exceeded, or, while some ``from`` is unmet, one copy of the
    column with the largest x when every count is 0; on an integral LP the
    first round fixes rint(x) copies, in pool order, and ends.  It subtracts
    what they produce from every (from, to) and solves the residual node by
    column generation, until every ``from`` is met.  Each residual node comes
    from ``derive``: the previous pool's columns that still fit its ``to``,
    plus a single-type fill for every type, compounds included, whose
    ``from`` is unmet and that has no single-type column.  Residual nodes
    take the ids -1, -2, ..., which the search never hands out, share the
    registry, rules and packer of ``start``, and never join the tree; the pool
    of ``start`` is left as it is.  None means a coverage fill failed or the
    deadline passed."""
    registry = start.registry
    mult = dict(start.multiplicities)
    fixed: dict[tuple, list] = {}  # counts -> [column, copies]

    def fix(col: Column, k: int) -> None:
        fixed.setdefault(col.counts, [col, 0])[1] += k
        for tid, n in col.counts:
            lo, hi = mult[tid]
            mult[tid] = (max(0, lo - n * k), hi - n * k)

    node = start
    for node_id in count(-1, -1):
        fixed_any = False
        for col, x in zip(node.columns, outcome.x):
            k = min(floor(x + EPS_INT), *(mult[tid][1] // n for tid, n in col.counts))
            if k > 0:
                fix(col, k)
                fixed_any = True
        if not fixed_any and any(lo > 0 for lo, _ in mult.values()):
            fix(node.columns[int(np.argmax(outcome.x))], 1)
        if all(lo == 0 for lo, _ in mult.values()):
            return _solution(tuple(map(tuple, fixed.values())), instance, registry)
        node = derive(node, node_id, seed, dict(mult), node.columns, start.rules)
        if node is None:
            return None
        outcome = _generate(node, deadline, stats)
        if time.monotonic() >= deadline:
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

    Deterministic for a fixed instance, seed, strategy and BLAS thread count
    when no time limit interferes: the master's reduced costs start from a
    BLAS product whose bits depend on the thread count (r3 depth-first at
    100 nodes takes another tree on two threads than on one).  The
    ``einsum`` of ROADMAP item 2 removes that dependence.  The progress
    callback may return True to stop early.  ``initial_columns`` builds the
    run's one packer, and every node shares it.
    """
    start = time.monotonic()
    deadline = start + cfg.time_limit_seconds \
        if cfg.time_limit_seconds is not None else inf
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
    child_ids = count(1)
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
        nonlocal incumbent
        outcome = column_generation(node, instance, cfg, registry,
                                    deadline=deadline, stats=stats)
        ended = None
        if node is root or not outcome.fractional:
            candidate = dive(node, outcome, instance, cfg.rng_seed, deadline,
                             stats)
            if candidate is not None and (
                    incumbent is None or (candidate.bins, candidate.patterns)
                    < (incumbent.bins, incumbent.patterns)):
                incumbent = candidate
                if emit(open_nodes.bound(outcome.bins)):
                    ended = "stopped"
        if ended is None and time.monotonic() >= deadline:
            ended = "time_limit"  # its LP or dive may have been cut short
        if ended is not None:
            # keep its bound visible in the report; nothing pops it again
            open_nodes.push(node, 0, outcome.bins)
            return ended
        if not outcome.fractional:
            return None
        if incumbent is not None and \
                ceil(outcome.bins - EPS_INT) >= incumbent.bins:
            return None
        try:
            i, j = select_branching_pair(node, outcome)
        except BranchingStuck:
            stats.stuck_nodes += 1
            return None
        patterns_used = int(np.sum(outcome.x > EPS_INT))
        right = make_right_child(node, i, j, child_id=next(child_ids),
                                 seed=cfg.rng_seed)
        left = make_left_child(node, i, j, child_id=next(child_ids),
                               seed=cfg.rng_seed, instance=instance)
        for child in (right, left):
            if child is not None:
                open_nodes.push(child, patterns_used, outcome.bins)
        return None

    while len(open_nodes):
        if time.monotonic() >= deadline:
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
    stats.wall_time_seconds = time.monotonic() - start
    gap = _relative_gap(incumbent.bins if incumbent else None, bound)
    emit(bound)
    return SearchReport(solution=incumbent, best_bound=bound, gap=gap,
                        stats=stats, status=status, instance=instance,
                        registry=registry)
