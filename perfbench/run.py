"""patternpack benchmark: node-budgeted solves of one workload, each in a
fresh Python process, one at a time.

    python3 perfbench/run.py --workload tiny-items --seed 0 --seconds 42 --trace 0

Prints one line per solve, one line per metric (name, median, unit, sample
count) and, last, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics from untraced solves; ``--trace 1`` alternates
untraced and traced solves and reports the per-layer metrics.  README.md
explains the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from workloads import ROOT, SRC, SOLVER_SEED, WORKLOADS, instance_data

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0   # the whole run, set-up probes included
SETUP_PROBES = 8       # set-up-only processes per run, besides each solve's own
# Typical solve.reference_slice() on a 2-CPU Xeon VM.  An end-to-end time is
# reported as measured x REFERENCE_S / (median slice time in its process).
REFERENCE_S = 0.01
# One BLAS thread: the LP's results depend on the BLAS thread count, and a
# second thread makes solve times follow the load on the other CPU.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "solve_s": "s", "nodes_per_s": "1/s", "first_incumbent_s": "s",
    "first_incumbent_nodes": "count", "objective": "count",
    "root_lp_bins": "bins", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "placement.place_calls": "count", "placement.place_us": "us",
    "placement.place_s": "s", "placement.place_fail_frac": "frac",
    "placement.verify_calls": "count", "placement.verify_s": "s",
    "pricing.price_calls": "count", "pricing.fill_calls": "count",
    "pricing.fill_self_s": "s", "pricing.price_self_s": "s",
    "pricing.rects_per_fill": "count", "pricing.kept_frac": "frac",
    "master.rmp_solves": "count", "master.rmp_self_s": "s",
    "simplex.lp_solves": "count", "simplex.lp_s": "s", "simplex.lp_ms": "ms",
    "simplex.lp_rows_mean": "count", "simplex.lp_cols_mean": "count",
    "branching.select_s": "s", "branching.left_s": "s",
    "branching.right_s": "s", "branching.child_kept_frac": "frac",
    "branching.stuck_nodes": "count",
    "search.nodes": "count", "search.root_s": "s",
    "search.cg_iterations": "count", "search.columns_generated": "count",
    "search.registry_types": "count", "search.self_s": "s",
    "cli.parse_s": "s", "cli.verify_s": "s", "trace.overhead_frac": "frac",
}
UNITS = {**END_TO_END, **PER_LAYER, "failed_frac": "frac"}


def record_digest(record: dict) -> str:
    """Digest of a solution record without ``runtime_seconds``, which holds
    whole wall-clock seconds and so may differ between identical runs."""
    stable = {k: v for k, v in record.items() if k != "runtime_seconds"}
    canonical = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_record(path: Path, objective: float | None) -> tuple[list[str], str | None, float]:
    """Problems with one emitted record, its digest, and the time
    ``verify_solution_file`` took."""
    from patternpack.cli import verify_solution_file

    start = time.perf_counter()
    problems = verify_solution_file(path)
    verify_s = time.perf_counter() - start
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return problems or ["record unreadable"], None, verify_s
    if record.get("objective") != objective:
        problems.append(f"record objective {record.get('objective')} != {objective}")
    return problems, record_digest(record), verify_s


def reference(result: dict) -> float:
    """Median slice time of a child: the slices timed during its solve, or
    after its set-up when it did not solve untraced."""
    return statistics.median(result.get("solve_reference_s")
                             or result["setup_reference_s"])


def end_to_end(result: dict, scale: float) -> dict:
    """End-to-end figures of one untraced solve, times multiplied by
    ``scale``.  Without an incumbent the incumbent metrics take values worse
    than any incumbent could give: the whole solve time, one node past those
    explored, and an objective above every feasible one."""
    first = result["first_incumbent"]
    if first is None:
        first = (result["nodes"] + 1, result["solve_s"])
    objective = result["objective"]
    solve = result["solve_s"] * scale
    return {
        "solve_s": solve,
        "nodes_per_s": result["nodes"] / solve,
        "first_incumbent_s": first[1] * scale,
        "first_incumbent_nodes": first[0],
        "objective": result["objective_absent"] if objective is None else objective,
        "root_lp_bins": result["root_lp_bins"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


class Bench:
    """One benchmark run: its child processes, their results and the gate."""

    def __init__(self, workload: str, seed: int, solver_seed: int, workdir: Path):
        self.workload = workload
        self.solver_seed = solver_seed
        self.workdir = workdir
        self.start = time.perf_counter()
        self.instance = workdir / "instance.json"
        self.instance.write_text(
            json.dumps(instance_data(WORKLOADS[workload], seed)), encoding="utf-8")
        self.setup: list[dict] = []
        self.solves: list[dict] = []   # every attempted solve, failed ones too
        self.verify_s: list[float] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def child(self, mode: str, record: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "solve.py"), "--workload", self.workload,
               "--instance", str(self.instance), "--mode", mode,
               "--solver-seed", str(self.solver_seed)]
        if record is not None:
            cmd += ["--record", str(record)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env={**os.environ, **CHILD_ENV},
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"problems": [f"{mode} did not finish in time"]}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"problems": [f"{mode} exited {proc.returncode}: {tail[0]}"]}
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"problems": [f"{mode} printed no result"]}

    def probe_setup(self) -> None:
        result = self.child("setup")
        if not result.get("problems"):
            self.setup.append(result)

    def solve(self, mode: str) -> None:
        record = self.workdir / f"record-{len(self.solves)}.json"
        result = self.child(mode, record)
        result["mode"] = mode
        if not result.get("problems"):
            self.setup.append(result)
            problems, result["digest"], verify_s = check_record(
                record, result["objective"])
            result["problems"] = problems
            self.verify_s.append(verify_s)
        self.solves.append(result)

    def gate(self) -> None:
        """Fail every solve whose record differs from the most common record
        of this run: the workload, seed and solver seed are the same."""
        digests = Counter(r["digest"] for r in self.solves if not r["problems"])
        if digests:
            common = digests.most_common(1)[0][0]
            for r in self.solves:
                if not r["problems"] and r["digest"] != common:
                    r["problems"] = ["record differs from the run's other records"]

    def ok(self, mode: str) -> list[dict]:
        return [r for r in self.solves if r["mode"] == mode and not r["problems"]]


def measure(bench: Bench, seconds: float, trace: bool) -> None:
    """Set-up probes, then solves until ``seconds`` are used; a solve starts
    only when the previous ones suggest it ends in time, and there are at
    least two (one untraced and one traced with ``trace``)."""
    begin = time.perf_counter()
    bench.child("setup")  # warm-up: byte-compiles patternpack, fills file caches
    for _ in range(SETUP_PROBES):
        bench.probe_setup()
    modes = ("solve", "trace") if trace else ("solve",)
    solving = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            bench.solve(mode)
        rounds += 1
        now = time.perf_counter()
        per_round = (now - solving) / rounds
        if len(bench.solves) >= 2 and (now - begin + per_round > seconds
                                       or per_round > bench.remaining()):
            break
    bench.gate()


def summarize(bench: Bench, trace: bool) -> dict[str, tuple[float, int]]:
    """Median and sample count of every metric the run can give."""
    samples: dict[str, list[float]] = {}
    for r in bench.ok("solve"):
        for name, value in end_to_end(r, REFERENCE_S / reference(r)).items():
            samples.setdefault(name, []).append(value)
    samples["setup_s"] = [
        r["setup_s"] * REFERENCE_S / statistics.median(r["setup_reference_s"])
        for r in bench.setup]
    samples["failed_frac"] = [sum(1 for r in bench.solves if r["problems"]) / len(bench.solves)]
    if trace:
        for r in bench.ok("trace"):
            for name, value in r["layers"].items():
                samples.setdefault(name, []).append(value)
        samples["cli.parse_s"] = [r["parse_s"] for r in bench.setup]
        samples["cli.verify_s"] = bench.verify_s
        traced = [r["solve_s"] * REFERENCE_S / reference(r) for r in bench.ok("trace")]
        if traced and samples.get("solve_s"):
            samples["trace.overhead_frac"] = [
                statistics.median(traced) / statistics.median(samples["solve_s"]) - 1]
    return {name: (statistics.median(v), len(v)) for name, v in samples.items() if v}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="names the instance's item types (the search is the same)")
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--solver-seed", type=int, default=SOLVER_SEED,
                        help="held-out check: solve another search tree")
    args = parser.parse_args(argv)
    if not (SRC / "patternpack" / "__init__.py").is_file():
        print(f"perfbench: no patternpack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(args.workload, args.seed, args.solver_seed, Path(tmp))
        measure(bench, args.seconds, bool(args.trace))
    summary = summarize(bench, bool(args.trace))
    for k, r in enumerate(bench.solves):
        print(f"{r['mode']} {k}: " + ("; ".join(r["problems"]) or
                                      f"ok {r['solve_s']:.3f} s unscaled, "
                                      f"reference slice {reference(r):.5f} s, "
                                      f"{r['nodes']} nodes"))
    for name, (value, n) in summary.items():
        print(f"{name:28s} {value:14.6g} {UNITS[name]:6s} median of {n}")

    reported = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for r in bench.solves if r["problems"])
    correct = failed == 0 and all(name in summary for name in reported)
    print(json.dumps({
        "correct": correct,
        "attempted": len(bench.solves),
        "failed": failed,
        "metrics": {name: {"value": summary[name][0], "unit": UNITS[name]}
                    for name in reported if name in summary},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
