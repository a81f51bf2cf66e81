"""Pinned solution records: node-budgeted solves must give the same bytes.

A change that should not alter the search (a faster packer, a refactor)
proves it here.  The solves run in a child process with one BLAS thread,
because the LP's results depend on the thread count and numpy fixes it at
import time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import patternpack

# SHA-256 of the canonical record after a 50-node solve with solver seed 0
PINNED = {
    ("r2", "heuristic_min_heap"):
        "072d0826b20c80e2bfb96a3ef58230a7ef7e9b6d7db77650971d91a699fc9001",
    ("r3", "heuristic_min_heap"):
        "303817fb50f04a2148e9d1786e15cd74494827ee0254622da3dd8aeafc5f52bf",
    ("r3", "depth_first"):
        "1543e54848b60dfcea4443d74a236a2be4e7a9cb211ab454bf0e72a7f9fdb60e",
    ("r5", "heuristic_min_heap"):
        "824e7661463b61286b31fb5feefcf827380fd2c8055f9e3bc0f407672fcad3ad",
}

CHILD = """
import hashlib, json, sys
from patternpack import cli, search
from patternpack.model import SolverConfig

out = {}
for name, strategy in json.loads(sys.argv[1]):
    cfg = SolverConfig(rng_seed=0, node_selection=strategy)
    report = search.run(cli.parse_instance(name), cfg,
                        progress=lambda event: event.nodes_explored >= 50)
    canonical = json.dumps(cli.solution_record(report, cfg), sort_keys=True,
                           separators=(",", ":"))
    out[name + " " + strategy] = hashlib.sha256(canonical.encode()).hexdigest()
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
    assert digests == {f"{name} {strategy}": digest
                       for (name, strategy), digest in PINNED.items()}
