import importlib
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

from patternpack import cli, search
from patternpack.model import SolverConfig

import run as bench_run
from solve import NodeBudget, SpeedSampler, layer_metrics
from tracer import TARGETS, Tracer
from workloads import WORKLOADS, instance_data, rename_types

# Branches and finds an incumbent within 10 best-first nodes in ~0.1 s.
SMALL = {"bin": {"width": 60, "height": 40}, "spacing": 1,
         "items": [{"id": "a", "width": 12, "height": 9, "from": 30},
                   {"id": "b", "width": 20, "height": 13, "from": 14},
                   {"id": "c", "width": 7, "height": 25, "from": 9}]}
CFG = SolverConfig(rng_seed=0)


def _solve(data=SMALL, traced=False):
    instance = cli.parse_instance_data(data)
    if not traced:
        return search.run(instance, CFG, progress=NodeBudget(10))
    with Tracer() as tracer:
        report = tracer.run(search.run, instance, CFG, progress=NodeBudget(10))
    return report, tracer


def _emit(report, path):
    cli.emit_solution(report, CFG, path)
    return json.loads(path.read_text())


def test_tracer_restores_every_wrapper_even_after_an_error():
    owners = []
    for module, owner, attr, _, _ in TARGETS:
        target = importlib.import_module(module)
        owners.append((getattr(target, owner) if owner else target, attr))
    before = [vars(target)[attr] for target, attr in owners]
    with pytest.raises(RuntimeError):
        with Tracer():
            assert all(vars(target)[attr] is not fn
                       for (target, attr), fn in zip(owners, before))
            raise RuntimeError("boom")
    assert [vars(target)[attr] for target, attr in owners] == before


def test_traced_counts_match_search_stats_and_self_times_sum_to_wall():
    report, tracer = _solve(traced=True)
    wall = tracer.total_s["search.run"]
    metrics, problems = layer_metrics(tracer, report, wall)
    assert problems == []
    assert metrics["master.rmp_solves"] == report.stats.cg_iterations
    assert metrics["search.nodes"] == report.stats.nodes_explored
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert metrics["placement.place_calls"] > 0
    assert metrics["simplex.lp_solves"] == metrics["master.rmp_solves"]


def test_traced_and_untraced_solves_write_the_same_record(tmp_path):
    plain = _emit(_solve(), tmp_path / "plain.json")
    traced = _emit(_solve(traced=True)[0], tmp_path / "traced.json")
    assert bench_run.record_digest(plain) == bench_run.record_digest(traced)


def test_tampered_record_counts_as_failed(tmp_path):
    report = _solve()
    path = tmp_path / "record.json"
    record = _emit(report, path)
    problems, digest, _ = bench_run.check_record(path, record["objective"])
    assert problems == [] and digest

    record["pattern_blocks"][0]["placements"][0][1] = SMALL["bin"]["width"]
    path.write_text(json.dumps(record))
    problems, _, _ = bench_run.check_record(path, record["objective"])
    assert problems


def test_gate_fails_a_solve_whose_record_differs(tmp_path):
    bench = bench_run.Bench("wide-tree", 0, 0, tmp_path)
    bench.solves = [{"mode": "solve", "problems": [], "digest": d}
                    for d in ("a", "a", "b")]
    bench.gate()
    assert [bool(r["problems"]) for r in bench.solves] == [False, False, True]


def test_record_digest_ignores_runtime_seconds_only():
    record = {"runtime_seconds": 3, "bins": 7}
    assert bench_run.record_digest(record) == \
        bench_run.record_digest({**record, "runtime_seconds": 4})
    assert bench_run.record_digest(record) != \
        bench_run.record_digest({**record, "bins": 8})


def test_seed_renames_types_and_keeps_everything_else():
    workload = WORKLOADS["wide-tree"]
    a, b = instance_data(workload, 1), instance_data(workload, 2)
    assert a == instance_data(workload, 1)
    assert [i["id"] for i in a["items"]] != [i["id"] for i in b["items"]]
    assert [{**i, "id": ""} for i in a["items"]] == [{**i, "id": ""} for i in b["items"]]


def test_renamed_instance_gives_the_same_search():
    runs = [_solve(rename_types(SMALL, seed)) for seed in (1, 2)]
    assert len({(r.stats.nodes_explored, r.stats.cg_iterations,
                 r.solution.bins, r.solution.patterns) for r in runs}) == 1


def test_absent_incumbent_scores_worse_than_any_incumbent():
    result = {"first_incumbent": None, "nodes": 100, "solve_s": 2.5,
              "objective": None, "objective_absent": 999.0,
              "root_lp_bins": 10.5, "peak_rss_mb": 40.0}
    m = bench_run.end_to_end(result, 1.0)
    assert m["first_incumbent_nodes"] == 101
    assert m["first_incumbent_s"] == m["solve_s"] == 2.5
    assert m["objective"] == 999.0


def test_times_are_scaled_and_counts_are_not():
    result = {"first_incumbent": (3, 1.0), "nodes": 10, "solve_s": 2.0,
              "objective": 5, "objective_absent": 99,
              "root_lp_bins": 4.5, "peak_rss_mb": 40.0}
    m = bench_run.end_to_end(result, 0.5)
    assert (m["solve_s"], m["first_incumbent_s"], m["nodes_per_s"]) == (1.0, 0.5, 10.0)
    assert (m["first_incumbent_nodes"], m["objective"], m["root_lp_bins"]) == (3, 5, 4.5)


def test_speed_sampler_takes_its_slices_out_of_the_clock_and_cleans_up():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        start, wall = sampler.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.6:
            pass
        work = sampler.clock() - start
    assert len(sampler.samples) >= 1 and sampler.spent > 0
    assert work == pytest.approx(0.6 - sampler.spent, abs=0.05)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(bench_run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-tree",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
