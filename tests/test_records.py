"""Pinned solution records: node-budgeted solves must give the same bytes,
and each record must pass ``verify_solution_file`` before it is hashed.

A change that should not alter the search (a faster packer, a refactor)
proves it here.  A change that alters the search on purpose (a new
heuristic, a fixed budget) re-pins the records it moves, and only those,
so the digests that stay show which searches it left alone.  The master
LPs' own bits are pinned too, because a change to the LP kernel can move
them in runs whose records stay the same.  The solves run in a child
process with one BLAS thread (``helpers.run_child``).
"""

import json

from helpers import run_child

# SHA-256 of the canonical record after a solve of the given node budget with
# solver seed 0; r3 at 250 best-first and 100 depth-first nodes are the trees
# the benchmark's wide-tree and deep-dive workloads time, and r5 at 100
# best-first nodes goes twice as deep as the tiny-items workload, where
# pricing stops more fills early
PINNED = {
    ("r1", "heuristic_min_heap", 50):
        "c28ae58b6b30e61c538db71aca5005a5b4732b501bc2f49e488e47654d8e36a2",
    ("r2", "heuristic_min_heap", 50):
        "6b0182502e760ec8e7959fe2345576d4c240df8f8c6ad0cfe0671f24583e964a",
    ("r3", "heuristic_min_heap", 50):
        "b341abe897ff6d45775616e58f3df0507434a82d8ff45492a9306fe26d974b65",
    ("r3", "depth_first", 50):
        "14ead47563de4c16e3bdae3eb09b138829da3835b2edfd561c294b89ec4f17a6",
    ("r4", "heuristic_min_heap", 50):
        "7e9fddb68912808bfdb03c611d568d8d43d331b3f12777d16d7222fff556b24d",
    ("r5", "heuristic_min_heap", 50):
        "266fa49493d141b4f1fea716aab0474a72662238e9834ba58dbe389740b7c4b1",
    ("r3", "heuristic_min_heap", 250):
        "cf6290694452446f4b488965fb775050fcbb2e73d509ab81cb03da448774b232",
    ("r3", "depth_first", 100):
        "71537134a1e370d6b541d3f0294a6fc8cac0cb92639dd4f1a8bd86e5ef614cc9",
    ("r5", "heuristic_min_heap", 100):
        "009f5b0fd5610642cfe1a60a246260a9e66a2f015fc2a50fb5ad6ffeda041e83",
}

CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from patternpack import cli, search
from patternpack.model import SolverConfig

out = []
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "record.json"
    for name, strategy, budget in json.loads(sys.argv[1]):
        cfg = SolverConfig(rng_seed=0, node_selection=strategy)
        report = search.run(cli.parse_instance(name), cfg,
                            progress=lambda event: event.nodes_explored >= budget)
        cli.emit_solution(report, cfg, path)
        problems = cli.verify_solution_file(path)
        assert problems == [], (name, strategy, budget, problems)
        canonical = json.dumps(cli.solution_record(report, cfg), sort_keys=True,
                               separators=(",", ":"))
        out.append([name, strategy, budget,
                    hashlib.sha256(canonical.encode()).hexdigest()])
print(json.dumps(out))
"""


# SHA-256 over the bytes of ``x``, ``duals`` and ``basis`` of every master LP
# that a solve of the given node budget returns, in order: a kernel change
# that moves the LP's bits fails here before it moves a final record; r3 is
# pinned under both node orders, which solve different masters
PINNED_LP_BITS = {
    ("r3", "depth_first", 20):
        "4c053867f10a5dc3704eee250b36cf85575ad9cd632b2b106ac3e89b92f51536",
    ("r5", "heuristic_min_heap", 20):
        "9fd8c50ed2757a64cee605cc8582fa30ef7f1b3e5071d4d6e88dfc63f3b98186",
    ("r3", "heuristic_min_heap", 20):
        "442ad08998c230e93f515e05c9813750d4c9fd1e2026f90bfa8a89ca3c5bb691",
}

LP_CHILD = """
import hashlib, json, sys
import numpy as np
from patternpack import cli, search
from patternpack.model import SolverConfig

out = []
for name, strategy, budget in json.loads(sys.argv[1]):
    digest = hashlib.sha256()
    solve_rmp = search.solve_rmp

    def hashed(*args, **kwargs):
        outcome = solve_rmp(*args, **kwargs)
        res = outcome.lp_result
        for part in (res.x, res.duals, np.array(res.basis, dtype=np.int64)):
            digest.update(part.size.to_bytes(4, "little") + part.tobytes())
        return outcome

    search.solve_rmp = hashed
    cfg = SolverConfig(rng_seed=0, node_selection=strategy)
    search.run(cli.parse_instance(name), cfg,
               progress=lambda event: event.nodes_explored >= budget)
    search.solve_rmp = solve_rmp
    out.append([name, strategy, budget, digest.hexdigest()])
print(json.dumps(out))
"""


def _repin(moved):
    """The moved digests as pin entries, ready to paste."""
    return "".join(f'    ("{name}", "{strategy}", {budget}):\n        "{digest}",\n'
                   for (name, strategy, budget), digest in moved.items())


def _assert_pinned(code, pinned, what):
    """Run ``code`` in a child over the keys of ``pinned`` and compare the
    ``[name, strategy, budget, digest]`` rows it prints with the pins."""
    digests = {(name, strategy, budget): digest
               for name, strategy, budget, digest in run_child(code, list(pinned))}
    moved = {key: digest for key, digest in digests.items()
             if pinned.get(key) != digest}
    assert digests == pinned, f"{what} moved; their new digests:\n" + _repin(moved)


def test_budgeted_records_match_their_pinned_digests():
    _assert_pinned(CHILD, PINNED, "records")


def test_master_lp_bits_match_their_pinned_digest():
    _assert_pinned(LP_CHILD, PINNED_LP_BITS, "LP bits")


REGISTRY_CHILD = """
import json, sys
from patternpack import cli, search
from patternpack.model import SolverConfig

name, strategy, budget = json.loads(sys.argv[1])
report = search.run(cli.parse_instance(name),
                    SolverConfig(rng_seed=0, node_selection=strategy),
                    progress=lambda event: event.nodes_explored >= budget)
print(json.dumps([len(report.registry)] + [
    t.constituents for t in report.registry if t.is_compound]))
"""


def test_a_budgeted_solve_registers_each_pair_compound_once():
    """Together branches reuse a pair's compound, so the compounds that pile
    up on the benchmark's depth-first r3 path have distinct constituents."""
    size, *compounds = run_child(REGISTRY_CHILD, ["r3", "depth_first", 100])
    assert size == 68 and len(compounds) > 1
    assert len({json.dumps(c) for c in compounds}) == len(compounds)


PACKER_CHILD = """
import json, sys
from patternpack import branching, cli, search
from patternpack.model import SolverConfig
from patternpack.placement import BottomLeftPacker

calls = {"packers": 0, "first_layout": 0, "place_ids": 0}
init = BottomLeftPacker.__init__

def built(self, *args):
    calls["packers"] += 1
    init(self, *args)

def counted(name, step):
    def wrapper(*args):
        calls[name] += 1
        return step(*args)
    return wrapper

BottomLeftPacker.__init__ = built
for name in ("first_layout", "place_ids"):
    setattr(branching, name, counted(name, getattr(branching, name)))
name, strategy, budget = json.loads(sys.argv[1])
search.run(cli.parse_instance(name), SolverConfig(rng_seed=0, node_selection=strategy),
           progress=lambda event: event.nodes_explored >= budget)
print(json.dumps(calls))
"""


def test_a_budgeted_solve_builds_one_packer():
    """Every layout of the benchmark's depth-first r3 run places through one
    packer: the fills and the compound units, those of more than seven
    rectangles (``place_ids``) and the others (``first_layout``)."""
    calls = run_child(PACKER_CHILD, ["r3", "depth_first", 100])
    assert calls["packers"] == 1
    assert calls["first_layout"] > 0 and calls["place_ids"] > 0
