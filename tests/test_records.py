"""Pinned solution records: node-budgeted solves must give the same bytes.

A change that should not alter the search (a faster packer, a refactor)
proves it here.  A change that alters the search on purpose (a new
heuristic, a fixed budget) re-pins the records it moves, and only those,
so the digests that stay show which searches it left alone.  The solves
run in a child process with one BLAS thread, because the LP's results
depend on the thread count and numpy fixes it at import time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import patternpack

# SHA-256 of the canonical record after a solve of the given node budget with
# solver seed 0; r3 at 250 best-first and 100 depth-first nodes are the trees
# the benchmark's wide-tree and deep-dive workloads time, and r5 at 100
# best-first nodes goes twice as deep as the tiny-items workload, where
# pricing stops more fills early
PINNED = {
    ("r1", "heuristic_min_heap", 50):
        "b3b416660eeeeee1fd2b2bc46e4aafc32e7524f86975fe16aafb7e5e1ac69c4f",
    ("r2", "heuristic_min_heap", 50):
        "258f84158bc0bf82acf60aa16fc7f4c84e0d9aba5cab795d512604f828083638",
    ("r3", "heuristic_min_heap", 50):
        "df9cb458df0103543915c7528bda8aa7a45f85c6480ef1c80235d5989fedb731",
    ("r3", "depth_first", 50):
        "4c18a472538f436c209d42bca27a11e3c5b58490348a6152a3a7198d5dd7d74d",
    ("r4", "heuristic_min_heap", 50):
        "b8be652b2d935e61251a0a2a44834c593c48994eb616793f207351ee3c01a516",
    ("r5", "heuristic_min_heap", 50):
        "4017aefeca70abb4e9514704a27e778270ba957db8d7be806f4111484de22791",
    ("r3", "heuristic_min_heap", 250):
        "84d4b28492c4c94f894278bac3809fd119e730c137905c44431129ba74a4a407",
    ("r3", "depth_first", 100):
        "8a9d3954d343d219c65d62b889197a4132472773abab7e6422ae6d1ae22aef66",
    ("r5", "heuristic_min_heap", 100):
        "e54707a90f1d838cf49b5abe1c63e1648b21378e5fcde1dce5f6c46cdc12e2ca",
}

CHILD = """
import hashlib, json, sys
from patternpack import cli, search
from patternpack.model import SolverConfig

out = {}
for name, strategy, budget in json.loads(sys.argv[1]):
    cfg = SolverConfig(rng_seed=0, node_selection=strategy)
    report = search.run(cli.parse_instance(name), cfg,
                        progress=lambda event: event.nodes_explored >= budget)
    canonical = json.dumps(cli.solution_record(report, cfg), sort_keys=True,
                           separators=(",", ":"))
    out[f"{name} {strategy} {budget}"] = \
        hashlib.sha256(canonical.encode()).hexdigest()
print(json.dumps(out))
"""


def test_budgeted_records_match_their_pinned_digests():
    src = str(Path(patternpack.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(list(PINNED))],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert digests == {f"{name} {strategy} {budget}": digest
                       for (name, strategy, budget), digest in PINNED.items()}
