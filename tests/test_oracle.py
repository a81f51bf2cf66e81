import hashlib
import json
import random

import pytest

from patternpack.model import Instance, ItemType
from patternpack.oracle import OracleGuardError, exact_solve, feasible_patterns
from patternpack.placement import verify_layout

from helpers import random_small_instance, tiny_instance

# SHA-256 of the canonical JSON list of the oracle's full answers, one per
# instance: [bins, patterns, assignment], or the guard's message
PINNED_ANSWERS = "fde45f94bc9a39f1ec856385f7aa81e91ad3a1f29e6b35dc45291477bc430637"


def test_vector_guard_refuses():
    inst = Instance(100, 100, 0, tuple(
        ItemType(f"t{k}", 1, 1, 0, 30) for k in range(4)))
    # 31^4 count vectors
    with pytest.raises(OracleGuardError,
                       match=r"^923521 candidate vectors exceed the guard of 10000$"):
        exact_solve(inst)


def test_rectangle_guard_refuses():
    inst = Instance(100, 100, 0, (ItemType("A", 1, 1, 9, 9),))
    with pytest.raises(OracleGuardError, match=r"^candidate with 9 rectangles "
                                               r"exceeds the guard of 8$"):
        exact_solve(inst)


def test_exact_solve_perfect_tiling():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 4, 4),))
    result = exact_solve(inst)
    assert (result.bins, result.patterns) == (1, 1)


def test_exact_solve_with_spacing():
    inst = Instance(10, 10, 2, (ItemType("A", 4, 4, 8, 9),))
    result = exact_solve(inst)
    assert (result.bins, result.patterns) == (2, 1)


def test_exact_solve_zero_demand():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 4),))
    result = exact_solve(inst)
    assert (result.bins, result.patterns) == (0, 0)


def test_exact_solve_mixed_vs_pure():
    # one of each fits one bin; forced one of each
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 1, 1), ItemType("B", 5, 5, 1, 1)))
    result = exact_solve(inst)
    assert (result.bins, result.patterns) == (1, 1)
    assert dict(result.assignment[0][0]) == {"A": 1, "B": 1}


def test_feasible_patterns_have_verifying_witnesses():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 4), ItemType("B", 9, 4, 0, 2)))
    pats = feasible_patterns(inst)
    assert pats
    for vec, layout in pats.items():
        counts = {t.id: n for t, n in zip(inst.item_types, vec) if n}
        assert verify_layout(layout, counts, inst, inst.registry())


def test_answers_stay_pinned():
    """The full answers, assignments included, on 200 small instances: the
    search's differential test compares only bins and a pattern bound, so a
    change to the reference's assignments would otherwise go unnoticed."""
    rng = random.Random(1)
    instances = ([tiny_instance(k) for k in range(100)]
                 + [random_small_instance(rng) for _ in range(100)])
    answers = []
    for inst in instances:
        try:
            result = exact_solve(inst)
        except OracleGuardError as exc:
            answers.append(str(exc))
            continue
        answers.append([result.bins, result.patterns, result.assignment])
    canonical = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_ANSWERS
