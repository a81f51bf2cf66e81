import pytest

from patternpack.branching import make_left_child, make_right_child
from patternpack.model import Instance, ItemType
from patternpack.placement import verify_layout
from patternpack.pricing import greedy_fill, make_sequences, price, reduced_cost

from helpers import build_node


def test_reduced_cost_examples():
    scores = {"j": 0.5}
    assert reduced_cost({}, scores) == pytest.approx(-1.0)
    assert reduced_cost({"j": 3}, scores) == pytest.approx(0.5)
    assert reduced_cost({"j": 1}, {"j": 0.0}) == pytest.approx(-1.0)
    assert reduced_cost({"k": 2}, scores) == pytest.approx(-1.0)  # unscored type


def _three_type_instance():
    return Instance(30, 30, 0, (ItemType("t1", 2, 2, 0, 5),
                                ItemType("t2", 2, 2, 0, 5),
                                ItemType("t3", 1, 1, 0, 5)))


def test_sequences_score_sorted():
    inst = _three_type_instance()
    node = build_node(inst, [])
    scores = {"t1": 3.0, "t2": 1.0, "t3": 2.0}
    seqs = make_sequences(scores, node)
    assert seqs[0] == ("t1", "t3", "t2")


def test_sequences_density_sorted():
    inst = Instance(30, 30, 0, (ItemType("t1", 2, 2, 0, 5),   # area 4
                                ItemType("t2", 1, 1, 0, 5)))  # area 1
    node = build_node(inst, [])
    scores = {"t1": 2.0, "t2": 2.0}
    seqs = make_sequences(scores, node)
    assert seqs[1] == ("t2", "t1")


def test_sequences_random_are_permutations_and_deterministic():
    inst = _three_type_instance()
    scores = {"t1": -1.0, "t2": 0.0, "t3": -2.0}
    seqs_a = make_sequences(scores, build_node(inst, [], seed=9))
    seqs_b = make_sequences(scores, build_node(inst, [], seed=9))
    assert seqs_a == seqs_b
    for s in seqs_a:
        assert sorted(s) == ["t1", "t2", "t3"]


def test_sequences_skip_exhausted_types():
    inst = _three_type_instance()
    node = build_node(inst, [], mult={"t1": (0, 5), "t2": (0, 0), "t3": (0, 5)})
    scores = {"t1": 1.0, "t2": 9.0, "t3": 2.0}
    seqs = make_sequences(scores, node)
    for s in seqs:
        assert "t2" not in s


def test_greedy_fill_maximizes_single_type():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 10),))
    node = build_node(inst, [])
    col = greedy_fill(("A",), node, inst)
    assert col.counts_dict() == {"A": 4}
    assert verify_layout(col.witness, col.counts_dict(), inst, node.registry)


def test_greedy_fill_respects_conflicts():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 10), ItemType("B", 5, 5, 0, 10)))
    node = build_node(inst, [], conflicts=frozenset({("A", "B")}),
                      mult={"A": (0, 2), "B": (0, 10)})
    col = greedy_fill(("A", "B"), node, inst)
    assert col.counts_dict() == {"A": 2}


def test_greedy_fill_respects_caps():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 1),))
    node = build_node(inst, [], caps=frozenset({"A"}))
    col = greedy_fill(("A",), node, inst)
    assert col.counts_dict() == {"A": 1}


def test_greedy_fill_places_compound_units_atomically():
    inst = Instance(10, 10, 0, (ItemType("A", 6, 6, 0, 4), ItemType("B", 3, 3, 0, 4)))
    reg = inst.registry()
    reg.add(ItemType("C", constituents=(("A", 1), ("B", 1)), from_count=1, to_count=2))
    node = build_node(inst, [], registry=reg,
                      mult={"A": (0, 4), "B": (0, 4), "C": (0, 2)})
    col = greedy_fill(("C", "B"), node, inst)
    # one 6x6 + 3x3 bundle fits; a second 6x6 cannot, so one C then extra Bs
    assert col.counts_dict().get("C", 0) == 1
    assert verify_layout(col.witness, col.counts_dict(), inst, reg)


def test_fill_table_belongs_to_its_node():
    """A child never reads the table its parent built: a right child sees
    its new apart rule, a left child's compound gets an entry of its own."""
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 2), ItemType("B", 5, 5, 0, 4)))
    parent = build_node(inst, [])
    assert greedy_fill(("A", "B"), parent, inst).counts_dict() == {"A": 2, "B": 2}
    assert set(parent._fill_units) == {"A", "B"}

    apart = make_right_child(parent, "A", "B", child_id=1, seed=0, instance=inst)
    col = greedy_fill(("A", "B"), apart, inst)
    assert col.counts_dict() == {"A": 2}
    assert greedy_fill(("B", "A"), apart, inst).counts_dict() == {"B": 4}

    together = make_left_child(parent, "A", "B", child_id=2, seed=0, instance=inst)
    cid = next(t for t in together.multiplicities if t not in ("A", "B"))
    assert together.fill_unit(cid)[:2] == (("A", "B"), ((5, 5), (5, 5)))
    col = greedy_fill((cid, "A", "B"), together, inst)
    assert col.counts_dict() == {cid: 1, "A": 1, "B": 1}
    # three Bs leave one slot: the compound's two rectangles go in together or not at all
    col = greedy_fill(("B", cid), together, inst)
    assert col.counts_dict() == {"B": 3}
    assert [oid for oid, _, _ in col.witness.placements] == ["B", "B", "B"]
    assert verify_layout(col.witness, col.counts_dict(), inst, together.registry)
    assert greedy_fill(("A", "B"), parent, inst).counts_dict() == {"A": 2, "B": 2}


def test_price_zero_duals_returns_nothing():
    inst = _three_type_instance()
    node = build_node(inst, [])
    scores = {"t1": 0.0, "t2": 0.0, "t3": 0.0}
    assert price(node, scores, inst) == []


def test_price_filters_pool_duplicates():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 4),))
    node = build_node(inst, [{"A": 4}])
    assert price(node, {"A": 0.5}, inst) == []


def test_price_returns_positive_column():
    inst = Instance(15, 5, 0, (ItemType("A", 5, 5, 0, 9),))
    node = build_node(inst, [{"A": 1}])
    scores = {"A": 0.5}
    cols = price(node, scores, inst)
    assert len(cols) == 1
    assert cols[0].counts_dict() == {"A": 3}
    assert reduced_cost(cols[0].counts_dict(), scores) == pytest.approx(0.5)


def test_price_deterministic_for_fixed_seed():
    inst = _three_type_instance()
    scores = {"t1": 0.4, "t2": 0.19, "t3": 0.2}
    a = price(build_node(inst, [], seed=5), scores, inst)
    b = price(build_node(inst, [], seed=5), scores, inst)
    assert [c.counts for c in a] == [c.counts for c in b]
    for col in a:
        assert verify_layout(col.witness, col.counts_dict(), inst, inst.registry())
