import numpy as np
import pytest

from patternpack import branching, cli, search
from patternpack.branching import (BranchingStuck, _compound, _place_compound_unit,
                                   affinity, derive, make_left_child,
                                   make_right_child, select_branching_pair)
from patternpack.master import RmpSolveOutcome, build_rmp, count_matrix, solve_rmp
from patternpack.model import (Column, Instance, ItemType, Layout, SolverConfig,
                               expand_counts, violates_rules)
from patternpack.placement import place_ids, verify_layout
from patternpack.simplex import LpResult

from helpers import build_node, packer_for


def _two_type_instance(**kw):
    return Instance(kw.get("w", 20), kw.get("h", 20), kw.get("d", 0),
                    (ItemType("A", kw.get("aw", 4), kw.get("ah", 4), 0, 6),
                     ItemType("B", kw.get("bw", 4), kw.get("bh", 4), 0, 6)))


def _outcome(node, x):
    """A solved master of ``node`` whose primal values are ``x``."""
    x = np.asarray(x, dtype=float)
    return RmpSolveOutcome(lp=build_rmp(node), lp_result=LpResult("optimal", x),
                           x=x, bins=float(x.sum()),
                           fractional=bool(np.any(x != np.round(x))), scores={})


def test_affinity_zero_for_unit_column():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1}])
    rho = affinity(count_matrix(node), np.array([1.0]))
    assert np.allclose(rho, 0.0)


def test_affinity_formula():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2, "B": 1}])
    rho = affinity(count_matrix(node), np.array([1.5]))
    ids = tuple(node.multiplicities)
    a, b = ids.index("A"), ids.index("B")
    assert rho[a, a] == pytest.approx(1.5)   # 2*1/2*1.5
    assert rho[a, b] == pytest.approx(3.0)   # 2*1*1.5
    assert rho[b, b] == pytest.approx(0.0)


def test_affinity_integral_for_integral_inputs():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 3, "B": 2}, {"A": 1}])
    rho = affinity(count_matrix(node), np.array([2.0, 5.0]))
    assert np.allclose(rho, np.round(rho))


def test_select_pair_prefers_fractional_affinity():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2, "B": 2}, {"A": 2}])
    # rho_AA = 3.0 and rho_AB = 6.0 are integral; rho_BB = 1.5 is not
    pair = select_branching_pair(node, _outcome(node, [1.5, 1.5]))
    assert pair == ("B", "B")


def test_select_pair_ties_break_in_node_order():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2, "B": 2}])
    # rho_AA = rho_BB = 1.5 tie at |frac| = 0.5; rho_AB = 6.0
    assert select_branching_pair(node, _outcome(node, [1.5])) == ("A", "A")
    # the node's type order decides, not the registry's
    node.multiplicities = {"B": (0, 6), "A": (0, 6)}
    assert select_branching_pair(node, _outcome(node, [1.5])) == ("B", "B")


def test_select_pair_fallback_area_dominant_with_to_one():
    inst = Instance(20, 20, 0, (ItemType("A", 2, 2, 0, 1),
                                ItemType("B", 6, 6, 0, 1)))
    node = build_node(inst, [{"A": 1, "B": 1}, {"A": 1}],
                      mult={"A": (0, 1), "B": (0, 1)})
    # rho_AB = 1.0 integral, diagonals zero; x is still fractional
    pair = select_branching_pair(node, _outcome(node, [1.0, 0.5]))
    assert pair == ("B", "A")  # B covers the larger area, to_B == 1


def test_select_pair_fallback_diagonal_when_to_allows():
    inst = _two_type_instance()
    node = build_node(inst, [{"B": 3}], mult={"A": (0, 6), "B": (0, 3)})
    # rho_BB = 3*2/2 * 7/3 = 7.0 integral although x is fractional
    pair = select_branching_pair(node, _outcome(node, [7.0 / 3.0]))
    assert pair == ("B", "B")


def test_select_pair_stuck_when_no_candidate():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1}], mult={"A": (0, 1), "B": (0, 6)})
    with pytest.raises(BranchingStuck):
        select_branching_pair(node, _outcome(node, [0.5]))


def test_right_child_drops_mixed_columns():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1, "B": 1}, {"A": 1}])
    child = make_right_child(node, "A", "B", child_id=1, seed=0)
    assert [c.counts_dict() for c in child.columns] == [{"A": 1}]
    assert child.has_conflict("A", "B")


def test_right_child_cap_drops_multiples():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2}, {"A": 1}])
    child = make_right_child(node, "A", "A", child_id=1, seed=0)
    assert [c.counts_dict() for c in child.columns] == [{"A": 1}]
    assert child.has_cap("A")


def test_right_child_keeps_clean_pool():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1}, {"B": 2}, {"A": 1}])
    child = make_right_child(node, "A", "B", child_id=1, seed=0)
    # a repeated count vector is kept once, at its first position
    assert [c.counts_dict() for c in child.columns] == [{"A": 1}, {"B": 2}]


def test_right_child_rescues_coverage():
    inst = Instance(20, 20, 0, (ItemType("A", 4, 4, 2, 6),))
    node = build_node(inst, [{"A": 3}], mult={"A": (2, 6)})
    child = make_right_child(node, "A", "A", child_id=1, seed=0)
    # {A:3} violates the new cap; a single-item rescue column keeps from=2 coverable
    assert [c.counts_dict() for c in child.columns] == [{"A": 1}]


@pytest.mark.parametrize("compound_from, rescued", [(0, []), (1, [{"(A+B)": 1}])])
def test_right_child_rule_does_not_see_into_an_active_compound(
        compound_from, rescued):
    """The new rule's basis is the node's active types: a compound already
    active holds its A and B together by an earlier together branch, so a
    column carrying it does not break the apart rule on A and B."""
    inst = _two_type_instance()
    reg = inst.registry()
    cid = _compound("A", "B", reg).id
    node = build_node(inst, [{cid: 1, "A": 1}, {"A": 1, "B": 1}, {"A": 2}],
                      registry=reg,
                      mult={"A": (0, 5), "B": (0, 5), cid: (compound_from, 1)})
    child = make_right_child(node, "A", "B", child_id=1, seed=0)
    assert [c.counts_dict() for c in child.columns] == [
        {cid: 1, "A": 1}, {"A": 2}] + rescued


def test_children_and_their_rescue_fills_share_the_parent_packer():
    inst = Instance(20, 20, 0, (ItemType("A", 4, 4, 2, 6), ItemType("B", 4, 4, 2, 6)))
    node = build_node(inst, [{"A": 1, "B": 1}])
    packer = node.packer
    calls, place = [], packer.place
    packer.place = lambda w, h: calls.append((w, h)) or place(w, h)

    right = make_right_child(node, "A", "B", child_id=1, seed=0)
    assert right.packer is packer
    # {A: 1, B: 1} breaks the new rule; both rescue fills placed through it
    assert [c.counts_dict() for c in right.columns] == [{"A": 6}, {"B": 6}]
    assert calls == [(4, 4)] * 12  # six A, then six B, up to their to-bounds

    calls.clear()
    left = make_left_child(node, "A", "B", child_id=2, seed=0, instance=inst)
    assert left.packer is packer
    assert [c.counts_dict() for c in left.columns] == [
        {"(A+B)": 1}, {"A": 5}, {"B": 5}]
    assert calls == [(4, 4)] * 12  # the compound unit's two, then five A and five B


def test_left_child_creates_compound_and_unit_column():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 2}, {"A": 6}, {"B": 2}])
    reg = node.registry
    child = make_left_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    cid = "(A+B)"
    assert child.multiplicities[cid] == (1, 1)
    assert child.multiplicities["A"] == (0, 5)
    assert child.multiplicities["B"] == (0, 5)
    # {A: 6} exceeds the new to of A; the unit column comes after the pool
    assert [c.counts_dict() for c in child.columns] == [{"A": 2}, {"B": 2}, {cid: 1}]
    unit = child.columns[-1]
    assert verify_layout(unit.witness, unit.counts_dict(), inst, reg)


def test_left_child_adjusts_columns_preserving_expansion():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1, "B": 1}, {"A": 2, "B": 1}])
    reg = node.registry
    before = expand_counts({"A": 2, "B": 1}, reg)
    child = make_left_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    cid = "(A+B)"
    # {A: 1, B: 1} becomes {cid: 1}, which the unit column repeats: the
    # count vector is kept once, at its first position
    assert [c.counts_dict() for c in child.columns] == [{cid: 1}, {"A": 1, cid: 1}]
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
    cid = "(A+B)"
    assert child.registry is reg and grand.registry is reg
    assert grand.multiplicities[cid] == (2, 2)
    assert grand.multiplicities["A"] == (0, 4)
    assert len(reg) == 3  # no second compound registered


def test_a_checked_witness_still_has_its_counts_checked():
    """A column whose counts disagree with its witness raises in a together
    branch after another branch checked that witness's geometry."""
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1, "B": 1}])
    witness = node.columns[0].witness
    make_left_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    assert node.checked_witnesses == {witness}
    node.columns.append(Column((("A", 2), ("B", 1)), witness))
    with pytest.raises(RuntimeError, match="multiset"):
        make_left_child(node, "A", "B", child_id=2, seed=0, instance=inst)


def test_a_witness_with_overlapping_rectangles_raises_when_first_seen():
    inst = _two_type_instance()
    node = build_node(inst, [])
    node.columns.append(Column((("A", 1), ("B", 1)),
                               Layout((("A", 0, 0), ("B", 2, 2)))))
    for child_id in (1, 2):
        with pytest.raises(RuntimeError, match="multiset"):
            make_left_child(node, "A", "B", child_id=child_id, seed=0, instance=inst)
    assert not node.checked_witnesses


def test_a_together_path_sweeps_each_witness_once(monkeypatch):
    """Two together branches in a row rewrite columns with the same
    witnesses: ``verify_layout`` sweeps each distinct one once, and every
    rewrite after that still checks its multiset."""
    swept, counted = [], []
    verify, holds = branching.verify_layout, branching.holds_counts
    monkeypatch.setattr(branching, "verify_layout",
                        lambda layout, *a: swept.append(layout) or verify(layout, *a))
    monkeypatch.setattr(branching, "holds_counts",
                        lambda layout, *a: counted.append(layout) or holds(layout, *a))
    inst = Instance(20, 20, 0, tuple(ItemType(t, 4, 4, 0, 6) for t in "ABC"))
    root = build_node(inst, [{"A": 1, "B": 1, "C": 1}, {"A": 2, "B": 2}, {"A": 1, "B": 1}])
    child = make_left_child(root, "A", "B", child_id=1, seed=0, instance=inst)
    grand = make_left_child(child, "A", "B", child_id=2, seed=0, instance=inst)
    assert grand is not None and grand.checked_witnesses is root.checked_witnesses
    assert swept == [col.witness for col in root.columns]
    assert counted == [root.columns[1].witness]  # {A: 1, B: 1, (A+B): 1} again
    assert root.checked_witnesses == set(swept)


def test_a_left_child_activates_a_reused_compound_after_its_other_types():
    """A node's types come in the order its path activated them.  A compound
    registered in another subtree joins a node after the types it already
    has, one registered later included, and the master's row pairs follow."""
    inst = Instance(20, 20, 0, tuple(ItemType(t, 4, 4, 1, 6) for t in "ABC"))
    root = build_node(inst, [{"A": 1}, {"B": 1}, {"C": 1}, {"A": 1, "B": 1, "C": 1}])
    reg = root.registry
    make_left_child(root, "A", "B", child_id=1, seed=0, instance=inst)
    sibling = make_left_child(root, "B", "C", child_id=2, seed=0, instance=inst)
    grand = make_left_child(sibling, "A", "B", child_id=3, seed=0, instance=inst)
    ab, bc = "(A+B)", "(B+C)"
    assert [t.id for t in reg] == ["A", "B", "C", ab, bc]
    assert list(grand.multiplicities) == ["A", "B", "C", bc, ab]
    lp = build_rmp(grand)
    for t, (tid, (lo, hi)) in enumerate(grand.multiplicities.items()):
        assert lp.b[2 * t:2 * t + 2].tolist() == [-lo, hi]
        assert lp.A[2 * t + 1].tolist() == [col.counts_dict().get(tid, 0)
                                            for col in grand.columns]
    assert lp.A[-1].tolist() != lp.A[-3].tolist()  # the two compounds' rows differ
    outcome = solve_rmp(grand)
    assert list(outcome.scores) == list(grand.multiplicities)
    assert np.array_equal(outcome.counts, count_matrix(grand))


def test_left_child_diagonal_decrements_twice():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 3}], mult={"A": (2, 6), "B": (0, 6)})
    child = make_left_child(node, "A", "A", child_id=1, seed=0, instance=inst)
    assert child.multiplicities["A"] == (0, 4)  # from: 2->1->0, to: 6->4
    cid = "(A+A)"
    assert child.multiplicities[cid] == (1, 1)
    rewritten = [c for c in child.columns if c.counts_dict().get(cid, 0)]
    assert {"A": 1, cid: 1} in [c.counts_dict() for c in rewritten]


def test_a_pair_compound_is_found_by_its_id():
    """Both orders of a pair give one compound, named in registry order; a
    type that holds the pair's id with other constituents pushes the pair
    to the next suffix, where a second call finds it."""
    inst = _two_type_instance()
    reg = inst.registry()
    ab = _compound("B", "A", reg)
    assert (ab.id, ab.constituents) == ("(A+B)", (("A", 1), ("B", 1)))
    assert _compound("A", "B", reg) is ab
    aa = _compound("A", "A", reg)
    assert (aa.id, aa.constituents) == ("(A+A)", (("A", 2),))
    assert [t.id for t in reg] == ["A", "B", "(A+B)", "(A+A)"]

    for taken in (ItemType("(A+B)", constituents=(("A", 2), ("B", 1))),
                  ItemType("(A+B)", 5, 5, 1, 2)):
        reg = inst.registry()
        reg.add(taken)
        pair = _compound("A", "B", reg)
        assert (pair.id, pair.constituents) == ("(A+B)#2", (("A", 1), ("B", 1)))
        assert _compound("B", "A", reg) is pair
        assert len(reg) == 4


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
    packer = packer_for(inst)
    assert place_ids(("A", "B", "C"), packer, reg) is None
    # (A, C, B) fails too; (B, A, C) is the first order that places
    assert _place_compound_unit(reg["ABC"], packer, reg) == Layout(
        (("B", 0, 0), ("A", 4, 0), ("C", 0, 6)))


def test_a_compound_of_eight_rectangles_tries_largest_area_first():
    inst = Instance(8, 2, 0, (ItemType("S", 1, 1, 0, 7), ItemType("B", 4, 2, 0, 1)))
    reg = inst.registry()
    reg.add(ItemType("U", constituents=(("S", 7), ("B", 1)), from_count=1, to_count=1))
    # seven unit squares along the floor leave no room for B
    assert reg.expansion("U") == ("S",) * 7 + ("B",)
    packer = packer_for(inst)
    assert place_ids(reg.expansion("U"), packer, reg) is None
    layout = _place_compound_unit(reg["U"], packer, reg)
    assert layout is not None and layout == place_ids(("B",) + ("S",) * 7, packer, reg)


def test_a_compound_of_eight_rectangles_tries_only_two_orders():
    """Past seven rectangles the unit is a heuristic: an order that fits
    may go untried."""
    inst = Instance(8, 8, 0, (ItemType("P", 2, 5, 0, 3), ItemType("Q", 2, 2, 0, 3),
                              ItemType("R", 8, 1, 0, 2)))
    reg = inst.registry()
    reg.add(ItemType("U", constituents=(("P", 3), ("Q", 3), ("R", 2)),
                     from_count=1, to_count=1))
    canonical = ("P",) * 3 + ("Q",) * 3 + ("R",) * 2
    largest_first = ("P",) * 3 + ("R",) * 2 + ("Q",) * 3
    assert reg.expansion("U") == canonical
    packer = packer_for(inst)
    assert place_ids(canonical, packer, reg) is None
    assert place_ids(largest_first, packer, reg) is None
    assert place_ids(("Q",) + ("P",) * 3 + ("Q",) * 2 + ("R",) * 2, packer, reg) is not None
    assert _place_compound_unit(reg["U"], packer, reg) is None


def test_children_partition_respects_rules():
    inst = _two_type_instance()
    node = build_node(inst, [{"A": 1, "B": 1}, {"A": 2}])
    right = make_right_child(node, "A", "B", child_id=1, seed=0)
    left = make_left_child(node, "A", "B", child_id=2, seed=0, instance=inst)
    for col in right.columns:
        assert not (col.counts_dict().get("A", 0) and col.counts_dict().get("B", 0))
    cid = "(A+B)"
    assert any(col.counts_dict().get(cid, 0) for col in left.columns)


@pytest.mark.parametrize("strategy", ["heuristic_min_heap", "depth_first"])
def test_every_pool_of_a_budgeted_solve_obeys_its_node_rules(strategy, monkeypatch):
    """make_right_child checks inherited columns against its new rule only,
    which is exact only while every pool obeys the node's older rules: the
    pools children inherit and rescue, and the columns pricing adds."""
    rules_seen = []

    def obeyed(node):
        rules_seen.append(len(node.rules))
        return not any(violates_rules(col.counts_dict(), node.rules, node.registry)
                       for col in node.columns)

    def checked(step, solves):
        def wrapper(*args, **kwargs):
            result = step(*args, **kwargs)
            node = args[0] if solves else result  # a solved node or a child
            assert node is None or obeyed(node)
            return result
        return wrapper

    for name in ("column_generation", "make_left_child", "make_right_child"):
        monkeypatch.setattr(search, name, checked(getattr(search, name),
                                                  name == "column_generation"))
    search.run(cli.parse_instance("r3"),
               SolverConfig(rng_seed=0, node_selection=strategy),
               progress=lambda event: event.nodes_explored >= 50)
    assert len(rules_seen) > 100 and max(rules_seen) >= 1


def test_a_compound_id_that_an_original_type_holds_gets_a_suffix(tmp_path):
    """An original type may be named like the compound of a pair.  A together
    branch on that pair then registers the next free id, and a run that
    uses such a compound writes a record that verifies."""
    inst = Instance(10, 10, 0, (ItemType("A", 3, 3, 3, 5), ItemType("B", 2, 3, 3, 4),
                                ItemType("(A+B)", 5, 5, 1, 2)))
    node = build_node(inst, [{"A": 1, "B": 1}])
    left = make_left_child(node, "A", "B", child_id=1, seed=0, instance=inst)
    assert node.registry["(A+B)#2"].constituents == (("A", 1), ("B", 1))
    assert left.multiplicities["(A+B)#2"] == (1, 1)
    assert not node.registry["(A+B)"].is_compound

    cfg = SolverConfig()
    report = search.run(inst, cfg)
    assert "(A+B)#2" in report.registry
    out = tmp_path / "record.json"
    cli.emit_solution(report, cfg, out)
    assert cli.verify_solution_file(out) == []


def test_derive_gives_no_node_when_a_coverage_fill_cannot_place():
    """Two 6 x 6 rectangles do not share a 10 x 10 bin, so the compound's
    coverage fill places nothing and the node is infeasible."""
    inst = Instance(10, 10, 0, (ItemType("A", 6, 6, 0, 2),))
    registry = inst.registry()
    registry.add(ItemType("(A+A)", constituents=(("A", 2),), from_count=1,
                          to_count=1))
    node = build_node(inst, [], registry=registry, mult={"A": (0, 2)})
    assert derive(node, 1, 0, {"A": (0, 0), "(A+A)": (1, 1)}, [],
                  frozenset()) is None
