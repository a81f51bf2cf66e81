import hashlib
import json

import pytest

from patternpack.model import Instance, ItemType
from patternpack.oracle import OracleGuardError, exact_solve, feasible_patterns
from patternpack.placement import verify_layout

from helpers import oracle_sample

# SHA-256 of the canonical JSON list of the oracle's full answers, one per
# instance: [bins, patterns, assignment], or the guard's message
PINNED_ANSWERS = "ee0452965c469e2bb7c47e7daf29144dc75dcfeea8704fd023944dc20b69a53f"


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


def test_a_vector_places_although_one_with_a_unit_fewer_does_not():
    """Bottom-left placeability is not downward closed: (1, 3, 2) places, in
    the order B, B, C, C, A, B, while (0, 3, 2) places in no order, so every
    vector has to be tried.  One bin holds the whole instance."""
    inst = Instance(7, 5, 0, (ItemType("A", 1, 2, 1, 1), ItemType("B", 5, 1, 3, 3),
                              ItemType("C", 2, 3, 2, 2)))
    pats = feasible_patterns(inst)
    assert (0, 3, 2) not in pats
    assert verify_layout(pats[1, 3, 2], {"A": 1, "B": 3, "C": 2}, inst)
    result = exact_solve(inst)
    assert (result.bins, result.patterns) == (1, 1)


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
    answers = []
    for inst in oracle_sample():
        try:
            result = exact_solve(inst)
        except OracleGuardError as exc:
            answers.append(str(exc))
            continue
        answers.append([result.bins, result.patterns, result.assignment])
    canonical = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_ANSWERS
