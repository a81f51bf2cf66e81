"""One benchmark solve in a fresh Python process; prints one JSON line.

    python3 perfbench/solve.py --workload NAME --instance FILE --mode MODE
        [--solver-seed N] [--record FILE]

``setup`` only imports patternpack, parses the instance and times slices of
the reference kernel.  ``solve`` also runs the search under the workload's
node budget while a SpeedSampler times kernel slices, writes the solution
record and solves the root node again for its LP value.  ``trace`` runs the
search with the layer wrappers of tracer.py installed and reports per-layer
figures.
"""

import argparse
import json
import resource
import signal
import sys
import time

from workloads import SRC, WORKLOADS

SETUP_SLICES = 10  # reference slices timed right after set-up


class NodeBudget:
    """Progress callback: stop once ``max_nodes`` nodes are explored.

    ``search.run`` consults it on every new incumbent and on every 50th
    branched node, so a run may explore a few nodes past the budget.  It also
    notes when the first incumbent arrived, on ``clock``.
    """

    def __init__(self, max_nodes: int, clock=time.perf_counter):
        self.max_nodes = max_nodes
        self.clock = clock
        self.start = clock()
        self.first_incumbent: tuple[int, float] | None = None

    def __call__(self, event) -> bool:
        if self.first_incumbent is None and event.incumbent_bins is not None:
            self.first_incumbent = (event.nodes_explored, self.clock() - self.start)
        return event.nodes_explored >= self.max_nodes


def reference_slice() -> float:
    """Time of one slice (~10 ms) of a fixed kernel that mixes small numpy
    array tests with Python dict work, as the solver's hot loops do.  The
    benchmark scales its times by it to cancel the drifting speed of a shared
    machine, so changing the kernel changes every scaled time."""
    import numpy as np

    a = np.arange(60) * 37 % 500
    b = np.arange(120) * 53 % 500
    start = time.perf_counter()
    table: dict[int, int] = {}
    hits = 0
    for i in range(300):
        ok = (a[:, None] + 7 <= b[None, :]) | (b[None, :] + 9 <= a[:, None])
        if ok.all(axis=1).any():
            hits += int(np.flatnonzero(ok[:, 0]).size)
        for j in range(40):
            table[(i * 40 + j) & 511] = hits + j
    return time.perf_counter() - start


class SpeedSampler:
    """Times a reference slice every ``PERIOD_S`` of wall time while a solve
    runs, from a SIGALRM handler, so the samples see the machine's speed at
    the moments the solve ran.  ``clock`` is wall time minus the slices."""

    PERIOD_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_slice())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def root_lp_bins(instance, cfg) -> float:
    """LP value of the root master after column generation, built the way
    ``search.run`` builds its root node."""
    from patternpack.branching import NodeProblem
    from patternpack.model import TypeRegistry, node_rng
    from patternpack.search import column_generation, initial_columns

    registry = TypeRegistry(instance.item_types)
    root = NodeProblem(
        id=0, parent_id=None, depth=0,
        multiplicities={t.id: (t.from_count, t.to_count)
                        for t in instance.item_types},
        columns=[], registry=registry, rng=node_rng(cfg.rng_seed, 0))
    root.columns = initial_columns(instance, registry, root)
    return column_generation(root, instance, cfg, registry).bins


def layer_metrics(tracer, report, solve_s: float) -> tuple[dict, list[str]]:
    """Per-layer figures of one traced solve, and any disagreement between
    the traced counts and the solver's own SearchStats."""
    calls, self_s, total_s, counts = (tracer.calls, tracer.self_s,
                                      tracer.total_s, tracer.counts)
    stats = report.stats
    place_calls = calls["placement.place"]
    lp_solves = calls["simplex.lp"]
    children = calls["branching.left"] + calls["branching.right"]
    m = {
        "placement.place_calls": place_calls,
        "placement.place_us": 1e6 * total_s["placement.place"] / max(place_calls, 1),
        "placement.place_s": total_s["placement.place"],
        "placement.place_fail_frac": counts["placement.place_fail"] / max(place_calls, 1),
        "placement.verify_calls": calls["placement.verify"],
        "placement.verify_s": total_s["placement.verify"],
        "pricing.price_calls": calls["pricing.price"],
        "pricing.fill_calls": calls["pricing.fill"],
        "pricing.fill_self_s": self_s["pricing.fill"],
        "pricing.price_self_s": self_s["pricing.price"],
        "pricing.rects_per_fill": counts["pricing.rects"] / max(counts["pricing.filled"], 1),
        "pricing.kept_frac": counts["pricing.kept"] / max(counts["pricing.fills_in_price"], 1),
        "master.rmp_solves": calls["master.rmp"],
        "master.rmp_self_s": self_s["master.rmp"],
        "simplex.lp_solves": lp_solves,
        "simplex.lp_s": total_s["simplex.lp"],
        "simplex.lp_ms": 1e3 * total_s["simplex.lp"] / max(lp_solves, 1),
        "simplex.lp_rows_mean": counts["simplex.rows"] / max(lp_solves, 1),
        "simplex.lp_cols_mean": counts["simplex.cols"] / max(lp_solves, 1),
        "branching.select_s": self_s["branching.select"],
        "branching.left_s": self_s["branching.left"],
        "branching.right_s": self_s["branching.right"],
        "branching.child_kept_frac": counts["branching.children_kept"] / max(children, 1),
        "branching.stuck_nodes": tracer.raised["branching.select"],
        "search.nodes": calls["search.column_generation"],
        "search.root_s": tracer.root_done - tracer.root_start,
        "search.cg_iterations": stats.cg_iterations,
        "search.columns_generated": stats.columns_generated,
        "search.registry_types": len(report.registry),
        "search.self_s": sum(self_s[name] for name in
                             ("search.run", "search.initial_columns",
                              "search.column_generation")),
    }
    problems = []
    for traced, own in (("master.rmp_solves", stats.cg_iterations),
                        ("search.nodes", stats.nodes_explored),
                        ("branching.stuck_nodes", stats.stuck_nodes)):
        if m[traced] != own:
            problems.append(f"traced {traced}={m[traced]} but SearchStats says {own}")
    layers_s = sum(self_s.values())
    if abs(layers_s - solve_s) > 1e-6 * solve_s:
        problems.append(f"layer self times sum to {layers_s} s, traced wall is {solve_s} s")
    return m, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--instance", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "solve", "trace"))
    parser.add_argument("--solver-seed", type=int, default=0)
    parser.add_argument("--record")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from patternpack import cli, search
    from patternpack.model import SolverConfig
    t1 = time.perf_counter()
    instance = cli.parse_instance(args.instance)
    t2 = time.perf_counter()
    out = {"setup_s": t2 - t0, "parse_s": t2 - t1,
           "setup_reference_s": [reference_slice() for _ in range(SETUP_SLICES)]}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    cfg = SolverConfig(rng_seed=args.solver_seed,
                       node_selection=workload.strategy)
    if args.mode == "trace":
        from tracer import Tracer
        with Tracer() as tracer:
            budget = NodeBudget(workload.max_nodes)
            report = tracer.run(search.run, instance, cfg, progress=budget)
        solve_s = tracer.total_s["search.run"]
        out["layers"], out["problems"] = layer_metrics(tracer, report, solve_s)
    else:
        with SpeedSampler() as sampler:
            budget = NodeBudget(workload.max_nodes, sampler.clock)
            report = search.run(instance, cfg, progress=budget)
            solve_s = sampler.clock() - budget.start
        out["solve_reference_s"] = sampler.samples
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["root_lp_bins"] = root_lp_bins(instance, cfg)
        out["problems"] = []
    cli.emit_solution(report, cfg, args.record)
    sol = report.solution
    out.update(
        solve_s=solve_s,
        nodes=report.stats.nodes_explored,
        first_incumbent=budget.first_incumbent,
        objective=None if sol is None else cfg.c1 * sol.patterns + cfg.c2 * sol.bins,
        # no incumbent scores worse than any solution: one bin per item and
        # a pattern per bin bound every feasible objective
        objective_absent=(cfg.c1 + cfg.c2) * sum(t.to_count for t in instance.item_types) + 1,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
