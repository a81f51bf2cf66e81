import numpy as np
import pytest

from patternpack.branching import (BranchingStuck, _place_compound_unit, affinity,
                                   make_left_child, make_right_child,
                                   select_branching_pair)
from patternpack.model import Instance, ItemType, Layout, expand_counts
from patternpack.placement import place_ids, verify_layout

from helpers import build_node


def _two_type_instance(**kw):
    return Instance(kw.get("w", 20), kw.get("h", 20), kw.get("d", 0),
                    (ItemType("A", kw.get("aw", 4), kw.get("ah", 4), 0, 6),
                     ItemType("B", kw.get("bw", 4), kw.get("bh", 4), 0, 6)))


def test_affinity_zero_for_unit_column():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1}])
    rho = affinity(node, np.array([1.0]))
    assert np.allclose(rho, 0.0)


def test_affinity_formula():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2, "B": 1}])
    rho = affinity(node, np.array([1.5]))
    ids = tuple(node.multiplicities)
    a, b = ids.index("A"), ids.index("B")
    assert rho[a, a] == pytest.approx(1.5)   # 2*1/2*1.5
    assert rho[a, b] == pytest.approx(3.0)   # 2*1*1.5
    assert rho[b, b] == pytest.approx(0.0)


def test_affinity_integral_for_integral_inputs():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 3, "B": 2}, {"A": 1}])
    rho = affinity(node, np.array([2.0, 5.0]))
    assert np.allclose(rho, np.round(rho))


def test_select_pair_prefers_fractional_affinity():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2, "B": 2}, {"A": 2}])
    # rho_AA = 3.0 and rho_AB = 6.0 are integral; rho_BB = 1.5 is not
    pair = select_branching_pair(node, np.array([1.5, 1.5]))
    assert pair == ("B", "B")


def test_select_pair_ties_break_in_registry_order():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2, "B": 2}])
    # rho_AA = rho_BB = 1.5 tie at |frac| = 0.5; rho_AB = 6.0
    pair = select_branching_pair(node, np.array([1.5]))
    assert pair == ("A", "A")


def test_select_pair_fallback_area_dominant_with_to_one():
    inst = Instance(20, 20, 0, (ItemType("A", 2, 2, 0, 1),
                                ItemType("B", 6, 6, 0, 1)))
    node = build_node(inst, [{"A": 1, "B": 1}, {"A": 1}],
                      mult={"A": (0, 1), "B": (0, 1)})
    # rho_AB = 1.0 integral, diagonals zero; x is still fractional
    pair = select_branching_pair(node, np.array([1.0, 0.5]))
    assert pair == ("B", "A")  # B covers the larger area, to_B == 1


def test_select_pair_fallback_diagonal_when_to_allows():
    inst = _two_type_instance()
    node = build_node(inst, [{"B": 3}], mult={"A": (0, 6), "B": (0, 3)})
    # rho_BB = 3*2/2 * 7/3 = 7.0 integral although x is fractional
    pair = select_branching_pair(node, np.array([7.0 / 3.0]))
    assert pair == ("B", "B")


def test_select_pair_stuck_when_no_candidate():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1}], mult={"A": (0, 1), "B": (0, 6)})
    with pytest.raises(BranchingStuck):
        select_branching_pair(node, np.array([0.5]))


def test_right_child_drops_mixed_columns():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1, "B": 1}, {"A": 1}])
    child = make_right_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    assert [c.counts_dict() for c in child.columns] == [{"A": 1}]
    assert child.has_conflict("A", "B")


def test_right_child_cap_drops_multiples():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2}, {"A": 1}])
    child = make_right_child(node, "A", "A", child_id=1, seed=0, instance=inst)
    assert [c.counts_dict() for c in child.columns] == [{"A": 1}]
    assert child.has_cap("A")


def test_right_child_keeps_clean_pool():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1}, {"B": 2}])
    child = make_right_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    assert [c.counts_dict() for c in child.columns] == [{"A": 1}, {"B": 2}]


def test_right_child_rescues_coverage():
    inst = Instance(20, 20, 0, (ItemType("A", 4, 4, 2, 6),))
    node = build_node(inst, [{"A": 3}], mult={"A": (2, 6)})
    child = make_right_child(node, "A", "A", child_id=1, seed=0, instance=inst)
    # {A:3} violates the new cap; a single-item rescue column keeps from=2 coverable
    assert [c.counts_dict() for c in child.columns] == [{"A": 1}]


def test_left_child_creates_compound_and_unit_column():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2}, {"B": 2}])
    reg = node.registry
    child = make_left_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    cid = reg.find_compound("A", "B").id
    assert child.multiplicities[cid] == (1, 1)
    assert child.multiplicities["A"] == (0, 5)
    assert child.multiplicities["B"] == (0, 5)
    unit = [c for c in child.columns if c.counts_dict() == {cid: 1}]
    assert len(unit) == 1
    assert verify_layout(unit[0].witness, unit[0].counts_dict(), inst, reg)


def test_left_child_adjusts_columns_preserving_expansion():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2, "B": 1}])
    reg = node.registry
    before = expand_counts({"A": 2, "B": 1}, reg)
    child = make_left_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    cid = reg.find_compound("A", "B").id
    adjusted = [c for c in child.columns
                if c.counts_dict().get(cid, 0) and c.counts_dict().get("A", 0)]
    assert adjusted, "the mixed column should have been rewritten"
    assert expand_counts(adjusted[0].counts_dict(), reg) == before


def test_left_child_rebranch_increments_existing_compound():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2}, {"B": 2}])
    reg = node.registry
    child = make_left_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    grand = make_left_child(child, "A", "B", child_id=2, seed=0, instance=inst)
    cid = reg.find_compound("A", "B").id
    assert child.registry is reg and grand.registry is reg
    assert grand.multiplicities[cid] == (2, 2)
    assert grand.multiplicities["A"] == (0, 4)
    assert len(reg) == 3  # no second compound registered


def test_left_child_diagonal_decrements_twice():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 3}], mult={"A": (2, 6), "B": (0, 6)})
    reg = node.registry
    child = make_left_child(node, "A", "A", child_id=1, seed=0, instance=inst)
    assert child.multiplicities["A"] == (0, 4)  # from: 2->1->0, to: 6->4
    cid = reg.find_compound("A", "A").id
    assert child.multiplicities[cid] == (1, 1)
    rewritten = [c for c in child.columns if c.counts_dict().get(cid, 0)]
    assert {"A": 1, cid: 1} in [c.counts_dict() for c in rewritten]


def test_left_child_infeasible_when_pair_cannot_share_a_bin():
    inst = Instance(614, 512, 6, (ItemType("A", 400, 400, 0, 2),
                                  ItemType("B", 400, 400, 0, 2)))
    node = build_node(inst, [{"A": 1}, {"B": 1}])
    child = make_left_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    assert child is None


def test_compound_unit_tries_other_orders_after_the_canonical_one():
    inst = Instance(10, 10, 0, (ItemType("A", 4, 5, 0, 1), ItemType("B", 4, 6, 0, 1),
                                ItemType("C", 7, 3, 0, 1)))
    reg = inst.registry()
    reg.add(ItemType("ABC", constituents=(("A", 1), ("B", 1), ("C", 1)),
                     from_count=1, to_count=1))
    assert reg.expansion("ABC") == ("A", "B", "C")
    assert place_ids(("A", "B", "C"), inst, reg) is None
    # (A, C, B) fails too; (B, A, C) is the first order that places
    assert _place_compound_unit(reg["ABC"], inst, reg) == Layout(
        (("B", 0, 0), ("A", 4, 0), ("C", 0, 6)))


def test_children_partition_respects_rules():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1, "B": 1}, {"A": 2}])
    reg = node.registry
    right = make_right_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    left = make_left_child(node, "A", "B", child_id=2, seed=0, instance=inst)
    for col in right.columns:
        assert not (col.counts_dict().get("A", 0) and col.counts_dict().get("B", 0))
    cid = reg.find_compound("A", "B").id
    assert any(col.counts_dict().get(cid, 0) for col in left.columns)
