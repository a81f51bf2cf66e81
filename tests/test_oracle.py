import hashlib
import json

import pytest

from patternpack import oracle
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


def _seven_singletons():
    """Seven types, one item each, no two of which share a 10x10 bin."""
    return Instance(10, 10, 0, tuple(
        ItemType(f"t{i}", 6 + i % 3, 6, 1, 1) for i in range(7)))


def test_pattern_subset_guard_bounds_each_size(monkeypatch):
    """The guard counts the subsets of one size: the seven singleton patterns
    give C(7, 3) = C(7, 4) = 35 subsets at most, so 34 refuses and 35 answers."""
    inst = _seven_singletons()
    monkeypatch.setattr(oracle, "_MAX_PATTERN_SUBSETS", 34)
    with pytest.raises(OracleGuardError,
                       match=r"^pattern-subset enumeration guard exceeded$"):
        exact_solve(inst)
    monkeypatch.setattr(oracle, "_MAX_PATTERN_SUBSETS", 35)
    result = exact_solve(inst)
    assert (result.bins, result.patterns) == (7, 7)


def _five_full_bins_and_a_pair():
    """Five types that each fill a 10x8 bin, then a 10x4 (from 1 to 2), c 7x4
    (2) and d 6x5 (1), eight bins.  The breadth-first witness adds {a, c},
    {c} and {d} to the five full bins, eight patterns; {a, c} twice and {d}
    once make seven."""
    full = tuple(ItemType(f"b{i}", 10, 8, 1, 1) for i in range(5))
    return Instance(10, 8, 0, full + (ItemType("a", 10, 4, 1, 2),
                                      ItemType("c", 7, 4, 2, 2),
                                      ItemType("d", 6, 5, 1, 1)))


@pytest.mark.parametrize("inst, bins", [(_seven_singletons(), 7),
                                        (_five_full_bins_and_a_pair(), 8)],
                         ids=["seven-singletons", "five-full-bins-and-a-pair"])
def test_pattern_count_is_proven_past_six_patterns(inst, bins):
    result = exact_solve(inst)
    assert (result.bins, result.patterns) == (bins, 7)
    assert sum(x for _, x in result.assignment) == bins
    totals = {}
    for counts, x in result.assignment:
        for tid, n in counts:
            totals[tid] = totals.get(tid, 0) + n * x
    for t in inst.item_types:
        assert t.from_count <= totals.get(t.id, 0) <= t.to_count


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
