"""Benchmark workloads: a bundled instance, a node-selection strategy and a
node budget, all solved with one fixed solver seed.

Why each workload exists is written down in README.md next to this file.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "patternpack" / "data"

# The solver seed steers randomized pricing and with it the whole search
# tree.  Across solver seeds 0..9 one workload's solve time ranges over a
# factor of five and tiny-items finds an incumbent only at seed 0, so the
# seed that picks the tree is part of the workload, not of the run.
SOLVER_SEED = 0


@dataclass(frozen=True)
class Workload:
    instance: str    # bundled dataset name
    strategy: str    # SolverConfig.node_selection
    max_nodes: int   # node budget, enforced through the progress callback


WORKLOADS = {
    "tiny-items": Workload("r5", "heuristic_min_heap", 50),
    "wide-tree": Workload("r3", "heuristic_min_heap", 250),
    "deep-dive": Workload("r3", "depth_first", 100),
}

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def instance_data(workload: Workload, seed: int) -> dict:
    """The workload's instance with item types renamed from ``seed``."""
    data = json.loads((DATA / f"{workload.instance}.json").read_text(encoding="utf-8"))
    return rename_types(data, seed)


def rename_types(data: dict, seed: int) -> dict:
    """Give every item type a name of six random letters drawn from ``seed``.

    Names carry no meaning for the solver (it orders types by position), so
    every seed yields the same search from a different instance file.  A
    solver whose search depended on the names would show as spread in the
    count metrics (objective, first_incumbent_nodes) across seeds.
    """
    rng = random.Random(seed)
    names: list[str] = []
    while len(names) < len(data["items"]):
        name = "".join(rng.choice(_LETTERS) for _ in range(6))
        if name not in names:
            names.append(name)
    items = [{**item, "id": name} for item, name in zip(data["items"], names)]
    return {**data, "items": items}
