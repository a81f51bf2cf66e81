import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from patternpack import pricing
from patternpack.branching import make_left_child, make_right_child
from patternpack.master import build_rmp
from patternpack.model import (ApartRule, Instance, ItemType, Layout,
                               NodeProblem, SolverConfig, TypeRegistry,
                               make_column, node_rng, violates_rules)
from patternpack.oracle import OracleGuardError, feasible_patterns
from patternpack.placement import BottomLeftPacker, verify_layout
from patternpack.pricing import (EPS_PRICE, greedy_fill, make_sequences, price,
                                 reduced_cost)
from patternpack.search import column_generation, initial_columns
from patternpack.simplex import solve_lp

from helpers import build_node, oracle_sample, tiny_instance


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


def _ruled_node(seed=0):
    """A node with a compound (A+B), an apart rule on A and B, and a type C
    whose to is 0."""
    inst = Instance(20, 20, 0, tuple(ItemType(t, 4, 4, 0, 6) for t in "ABC"))
    reg = inst.registry()
    reg.add(ItemType("(A+B)", constituents=(("A", 1), ("B", 1))))
    return build_node(inst, [], registry=reg, conflicts=frozenset({("A", "B")}),
                      mult={"A": (0, 6), "B": (0, 6), "C": (0, 0),
                            "(A+B)": (0, 3)}, seed=seed)


def test_sequences_random_are_permutations_and_deterministic():
    """Every sequence, score-sorted, density-sorted and drawn, lists each
    type whose to is above 0 exactly once, as ``greedy_fill`` requires: on
    a three-type root, and on a node with a compound, an apart rule and a
    type whose to is 0."""
    inst = _three_type_instance()
    for build, scores, eligible in (
            (lambda: build_node(inst, [], seed=9),
             {"t1": -1.0, "t2": 0.0, "t3": -2.0}, ["t1", "t2", "t3"]),
            (lambda: _ruled_node(seed=9),
             {"A": 0.3, "B": -0.2, "C": 0.5, "(A+B)": 0.4}, ["(A+B)", "A", "B"])):
        node = build()
        seqs_a = make_sequences(scores, node)
        seqs_b = make_sequences(scores, build())
        assert seqs_a == seqs_b
        assert len(seqs_a) == 2 + pricing.RANDOM_SEQUENCES
        for s in seqs_a:
            assert sorted(s) == eligible


def test_random_sequences_are_weighted_draws_without_replacement():
    """The drawn sequences equal ``Random.choices`` draws from the node's
    generator, one pick at a time with weight max(score, EPS_PROB), each pick
    leaving the pool: on tiny instances and on a node of 24 types, with scores
    that include 0 and negative values.  A faster draw must match them;
    ``choices`` itself, in place of ``make_sequences``' scan, gives the same
    draws but was slower."""
    rng = random.Random(33)
    wide = Instance(300, 300, 1, tuple(
        ItemType(f"t{k}", 5 + k, 9 + k % 7, 0, 9) for k in range(24)))
    nodes = [build_node(tiny_instance(k), [], seed=k) for k in range(30)]
    nodes.append(build_node(wide, [], seed=7))
    assert len(nodes[-1].multiplicities) == 24
    seen = set()
    for node in nodes:
        types = [tid for tid, (_, hi) in node.multiplicities.items() if hi > 0]
        scores = {tid: rng.choice((0.0, -rng.random(), rng.random(), 3 * rng.random()))
                  for tid in types}
        seen |= {(score > 0) - (score < 0) for score in scores.values()}
        state = node.rng.getstate()
        drawn = make_sequences(scores, node)[2:]
        node.rng.setstate(state)
        expected = []
        for _ in range(pricing.RANDOM_SEQUENCES):
            pool = list(types)
            weights = [max(scores[tid], pricing.EPS_PROB) for tid in pool]
            sequence = []
            while pool:
                pick = pool.index(node.rng.choices(pool, weights)[0])
                sequence.append(pool.pop(pick))
                weights.pop(pick)
            expected.append(tuple(sequence))
        assert drawn == expected
    assert seen == {-1, 0, 1}


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
    col = greedy_fill(("A",), node)
    assert col.counts_dict() == {"A": 4}
    assert verify_layout(col.witness, col.counts_dict(), inst, node.registry)


def test_greedy_fill_respects_conflicts():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 10), ItemType("B", 5, 5, 0, 10)))
    node = build_node(inst, [], conflicts=frozenset({("A", "B")}),
                      mult={"A": (0, 2), "B": (0, 10)})
    col = greedy_fill(("A", "B"), node)
    assert col.counts_dict() == {"A": 2}


def test_greedy_fill_respects_caps():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 1),))
    node = build_node(inst, [], caps=frozenset({"A"}))
    col = greedy_fill(("A",), node)
    assert col.counts_dict() == {"A": 1}


def test_greedy_fill_places_compound_units_atomically():
    inst = Instance(10, 10, 0, (ItemType("A", 6, 6, 0, 4), ItemType("B", 3, 3, 0, 4)))
    reg = inst.registry()
    reg.add(ItemType("C", constituents=(("A", 1), ("B", 1)), from_count=1, to_count=2))
    node = build_node(inst, [], registry=reg,
                      mult={"A": (0, 4), "B": (0, 4), "C": (0, 2)})
    col = greedy_fill(("C", "B"), node)
    # one 6x6 + 3x3 bundle fits; a second 6x6 cannot, so one C then extra Bs
    assert col.counts_dict().get("C", 0) == 1
    assert verify_layout(col.witness, col.counts_dict(), inst, reg)


def test_fill_table_belongs_to_its_node():
    """A child never reads the table its parent built: a right child sees
    its new apart rule, a left child's compound gets an entry of its own."""
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 2), ItemType("B", 5, 5, 0, 4)))
    parent = build_node(inst, [])
    assert greedy_fill(("A", "B"), parent).counts_dict() == {"A": 2, "B": 2}
    assert set(parent._fill_units) == {"A", "B"}

    apart = make_right_child(parent, "A", "B", child_id=1, seed=0)
    col = greedy_fill(("A", "B"), apart)
    assert col.counts_dict() == {"A": 2}
    assert greedy_fill(("B", "A"), apart).counts_dict() == {"B": 4}

    together = make_left_child(parent, "A", "B", child_id=2, seed=0, instance=inst)
    cid = next(t for t in together.multiplicities if t not in ("A", "B"))
    assert together.fill_unit(cid)[:2] == (("A", "B"), ((5, 5), (5, 5)))
    col = greedy_fill((cid, "A", "B"), together)
    assert col.counts_dict() == {cid: 1, "A": 1, "B": 1}
    # three Bs leave one slot: the compound's two rectangles go in together or not at all
    col = greedy_fill(("B", cid), together)
    assert col.counts_dict() == {"B": 3}
    assert [oid for oid, _, _ in col.witness.placements] == ["B", "B", "B"]
    assert verify_layout(col.witness, col.counts_dict(), inst, together.registry)
    assert greedy_fill(("A", "B"), parent).counts_dict() == {"A": 2, "B": 2}


def test_fill_units_give_each_rule_its_tally_slot():
    """A cap on A sees two items of A in a later compound (A+A), and a pair
    rule on (A, B) sees the B in a later compound (B+C): each step names
    its rule's slot, and fills obey both rules as a unit-by-unit fill
    does."""
    inst = Instance(20, 20, 0, tuple(ItemType(t, 4, 4, 0, 6) for t in "ABC"))
    reg = inst.registry()
    basis = frozenset("ABC")
    cap, pair = ApartRule("A", "A", basis), ApartRule("A", "B", basis)
    reg.add(ItemType("(A+A)", constituents=(("A", 2),)))
    reg.add(ItemType("(B+C)", constituents=(("B", 1), ("C", 1))))
    node = build_node(inst, [], registry=reg,
                      mult={**{t: (0, 6) for t in "ABC"},
                            "(A+A)": (0, 2), "(B+C)": (0, 2)})
    node.rules = frozenset({cap, pair})
    slot = {rule: 2 * k for k, rule in enumerate(node.rules)}
    assert node.fill_unit("A")[4:] == (((slot[cap], 1),), ((slot[pair], 1, 0),))
    assert node.fill_unit("(A+A)")[4:] == (((slot[cap], 2),), ((slot[pair], 2, 0),))
    assert node.fill_unit("(B+C)")[4:] == ((), ((slot[pair], 0, 1),))
    assert node.fill_unit("B")[4:] == ((), ((slot[pair], 0, 1),))
    assert node.fill_unit("C")[4:] == ((), ())
    for seq, want in ((("A", "(B+C)", "(A+A)", "C"), {"A": 1, "C": 6}),
                      (("(B+C)", "A", "(A+A)"), {"(B+C)": 2}),
                      (("(A+A)", "B", "A"), {"B": 6})):
        col = greedy_fill(seq, node)
        assert col.counts_dict() == want, seq
        assert not violates_rules(col.counts_dict(), node.rules, reg)
        assert _with_place_calls(greedy_fill, seq, node) == \
            _with_place_calls(_fill_unit_by_unit, seq, node, inst)


def test_price_zero_duals_returns_nothing():
    inst = _three_type_instance()
    node = build_node(inst, [])
    scores = {"t1": 0.0, "t2": 0.0, "t3": 0.0}
    assert price(node, scores) == []


def test_price_filters_pool_duplicates():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 4),))
    node = build_node(inst, [{"A": 4}])
    assert price(node, {"A": 0.5}) == []


def test_price_returns_positive_column():
    inst = Instance(15, 5, 0, (ItemType("A", 5, 5, 0, 9),))
    node = build_node(inst, [{"A": 1}])
    scores = {"A": 0.5}
    cols = price(node, scores)
    assert len(cols) == 1
    assert cols[0].counts_dict() == {"A": 3}
    assert reduced_cost(cols[0].counts_dict(), scores) == pytest.approx(0.5)


def test_price_deterministic_for_fixed_seed():
    inst = _three_type_instance()
    scores = {"t1": 0.4, "t2": 0.19, "t3": 0.2}
    a = price(build_node(inst, [], seed=5), scores)
    b = price(build_node(inst, [], seed=5), scores)
    assert [c.counts for c in a] == [c.counts for c in b]
    for col in a:
        assert verify_layout(col.witness, col.counts_dict(), inst, inst.registry())


def _dense(col, registry):
    """The column's count vector over the whole registry, in its order."""
    counts = col.counts_dict()
    return tuple(counts.get(t.id, 0) for t in registry)


def _price_filling_to_the_end(node, scores):
    """``price`` without the bound: every sequence is filled to its end, then
    the same filters apply, and the columns sort by their dense count
    vectors."""
    seen = {col.counts for col in node.columns}
    fresh = []
    for seq in make_sequences(scores, node):
        col = greedy_fill(seq, node)
        if col is None or reduced_cost(col.counts_dict(), scores) <= EPS_PRICE \
                or col.counts in seen:
            continue
        seen.add(col.counts)
        fresh.append(col)
    fresh.sort(key=lambda c: _dense(c, node.registry))
    return fresh


@st.composite
def _registries_and_counts(draw):
    """A registry of originals and of compounds over earlier types, and
    distinct sparse count vectors over it."""
    registry = TypeRegistry(tuple(ItemType(f"t{k}", 1, 1, 0, 9)
                                  for k in range(draw(st.integers(1, 4)))))
    for k in range(draw(st.integers(0, 4))):
        ids = [t.id for t in registry]
        parts = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3,
                              unique=True))
        counts = [draw(st.integers(1, 2)) for _ in parts]
        if sum(counts) < 2:
            counts[0] = 2
        registry.add(ItemType(f"c{k}", constituents=tuple(zip(parts, counts))))
    ids = [t.id for t in registry]
    vectors = draw(st.lists(
        st.dictionaries(st.sampled_from(ids), st.integers(1, 3), min_size=1),
        max_size=12, unique_by=lambda v: tuple(sorted(v.items()))))
    return registry, vectors


@settings(max_examples=200, deadline=None)
@given(_registries_and_counts())
def test_price_orders_fresh_columns_by_their_dense_count_vectors(drawn):
    """``price`` sorts the fresh columns on their sparse counts, which orders
    distinct vectors as their dense vectors over the registry do."""
    registry, vectors = drawn
    columns = [make_column(v, Layout(), registry) for v in vectors]
    node = NodeProblem(id=0, parent_id=None, depth=0,
                       multiplicities={t.id: (0, 9) for t in registry},
                       columns=[], registry=registry, rng=node_rng(0, 0))
    scores = {t.id: 2.0 for t in registry}  # every column prices out
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pricing, "make_sequences",
                      lambda scores, node: list(range(len(columns))))
        patch.setattr(pricing, "greedy_fill",
                      lambda seq, node, scores: columns[seq])
        got = price(node, scores)
    assert got == sorted(columns, key=lambda c: _dense(c, registry))


def _tree_nodes(instance):
    """The root with its starting pool, then the left and right children of
    every type pair, and the right children of the left ones: compounds,
    apart rules and caps, and both together."""
    root = build_node(instance, [])
    root.columns = initial_columns(instance, root.registry, root)
    nodes = [root]
    types = list(root.multiplicities)
    child_ids = itertools.count(1)
    for i, j in itertools.combinations_with_replacement(types, 2):
        together = (root.to_of(i) >= 2 if i == j
                    else min(root.to_of(i), root.to_of(j)) >= 1)
        left = make_left_child(root, i, j, child_id=next(child_ids), seed=0,
                               instance=instance) if together else None
        right = make_right_child(root, i, j, child_id=next(child_ids), seed=0)
        nodes += [node for node in (left, right) if node is not None]
        if left is not None:
            grand = make_right_child(left, i, i, child_id=next(child_ids), seed=0)
            if grand is not None:
                nodes.append(grand)
    return nodes


def test_price_equals_filling_every_sequence_to_the_end(monkeypatch):
    """The bound only stops fills whose columns ``price`` would drop: on
    tiny-instance trees, with zero and negative scores among the positive
    ones, ``price`` returns the very columns of fills run to their end."""
    fills = []

    def recorded(seq, node, scores=None):
        col = greedy_fill(seq, node, scores)
        fills.append((seq, node, col))
        return col

    monkeypatch.setattr(pricing, "greedy_fill", recorded)
    rng = random.Random(4)
    kept = cut = 0
    for k in range(30):
        inst = tiny_instance(k)
        for node in _tree_nodes(inst):
            for _ in range(3):
                scores = {tid: rng.choice([0.0, -rng.uniform(0, 0.5),
                                           rng.uniform(0, 1.2)])
                          for tid in node.multiplicities}
                state = node.rng.getstate()
                fills.clear()
                got = price(node, scores)
                node.rng.setstate(state)
                assert got == _price_filling_to_the_end(node, scores)
                kept += len(got)
                # fills the bound stopped, though run to the end they place
                cut += sum(col is None and greedy_fill(*args) is not None
                           for *args, col in fills)
    assert kept > 50 and cut > 50


def _fill_unit_by_unit(sequence, node, instance, scores=None):
    """``greedy_fill`` one unit at a time: before each unit every rule of the
    node is asked whether the bin admits it, and a unit whose rectangles do
    not all place is rolled back to the packer's mark.  The unit's ids,
    sizes and rule items come from the registry and ``ApartRule.units``, its
    inflated area from the instance's clearance, not from ``fill_unit``."""
    registry = node.registry
    packer = BottomLeftPacker(instance.bin_width, instance.bin_height,
                              instance.spacing)
    tallies = {}
    d = instance.spacing
    limit = -math.inf if scores is None else pricing.CUT_PRICE
    scores = scores or {}
    terms, rho = [], 0.0
    for tid in reversed(sequence):
        score = scores.get(tid, 0.0)
        area = sum((registry[oid].width + d) * (registry[oid].height + d)
                   for oid in registry.expansion(tid))
        rho = max(rho, max(score, 0.0) / area)
        terms.append((score, area, rho, score - area * rho))
    terms.reverse()
    rc, room = -1.0, (instance.bin_width + d) * (instance.bin_height + d)
    counts, placed_ids = {}, []
    for tid, (score, area, rho, slope) in zip(sequence, terms):
        value = rc + room * rho
        if value < limit:
            return None
        _, hi = node.multiplicities[tid]
        n = start = counts.get(tid, 0)
        stop = min(hi, n + int(min((value - limit) / -slope, hi)) + 1) \
            if slope < 0 else hi
        unit = registry.expansion(tid)
        dims = [(registry[oid].width, registry[oid].height) for oid in unit]
        steps = [(rule, tallies.setdefault(rule, [0, 0]), *rule.units(tid, registry))
                 for rule in node.rules]
        while n < stop and all(rule.admits(tally[0] + da, tally[1] + db)
                               for rule, tally, da, db in steps):
            mark = packer.mark()
            if not all(packer.place(w, h) is not None for w, h in dims):
                packer.reset_to(mark)
                break
            n += 1
            placed_ids.extend(unit)
            for _, tally, da, db in steps:
                tally[0] += da
                tally[1] += db
        if n > start:
            if n == stop < hi:
                return None
            counts[tid] = n
            rc += (n - start) * score
            room -= (n - start) * area
    if not counts:
        return None
    return make_column(counts, packer.layout(placed_ids), node.registry)


def _with_place_calls(fill, *args):
    """What ``fill(*args)`` returns, and (w, h, answer) of every
    ``BottomLeftPacker.place`` call it made, in order."""
    calls = []
    place = BottomLeftPacker.place

    def recorded(packer, w, h):
        spot = place(packer, w, h)
        calls.append((w, h, spot))
        return spot

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BottomLeftPacker, "place", recorded)
        return fill(*args), calls


@st.composite
def ruled_nodes(draw):
    """A small instance, a path of together and apart branches below its
    root, and scores: compounds, caps and pair rules on one path."""
    width, height = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    types = []
    for k in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(0, 1))
        types.append(ItemType(f"t{k}", draw(st.integers(1, width // 2)),
                              draw(st.integers(1, height // 2)),
                              lo, lo + draw(st.integers(0, 6))))
    instance = Instance(width, height, draw(st.integers(0, 2)), tuple(types))
    branches = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                                       st.booleans()), max_size=4))
    scores = draw(st.lists(st.floats(-0.5, 1.2), min_size=12, max_size=12))
    return instance, branches, scores


@settings(max_examples=150, deadline=None)
@given(ruled_nodes())
def test_greedy_fill_equals_a_fill_unit_by_unit(case):
    """On every node of a random branch path, each sequence ``price`` fills
    gives the column of a fill that checks the rules and rolls back unit by
    unit, through the same ``place`` calls: without scores, and with the
    round's scores that ``price`` passes."""
    instance, branches, draws = case
    node = build_node(instance, [])
    nodes = [node]
    for child_id, (a, b, together) in enumerate(branches, 1):
        active = [tid for tid, (_, hi) in node.multiplicities.items() if hi > 0]
        if not active:
            break
        i, j = active[a % len(active)], active[b % len(active)]
        if together and node.to_of(i) >= (2 if i == j else 1) and node.to_of(j) >= 1:
            child = make_left_child(node, i, j, child_id=child_id, seed=0,
                                    instance=instance)
        else:
            child = make_right_child(node, i, j, child_id=child_id, seed=0)
        if child is not None:
            node = child
            nodes.append(node)
    fills = []

    def recorded(seq, node, scores=None):
        fills.append((seq, scores))
        return greedy_fill(seq, node, scores)

    for node in nodes:
        scores = dict(zip(node.multiplicities, draws))
        fills.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pricing, "greedy_fill", recorded)
            price(node, scores)
        for seq, given in fills + [(seq, None) for seq, _ in fills]:
            want = _with_place_calls(_fill_unit_by_unit, seq, node, instance, given)
            assert _with_place_calls(greedy_fill, seq, node, given) == want


def test_a_subnormal_negative_score_leaves_the_fill_uncut():
    """B's score of -5e-324 makes the bound's slope so flat that the number
    of B units before the cut is inf as a float; the fill then runs to B's
    to-bound instead of raising ``OverflowError``."""
    inst = Instance(3, 3, 0, (ItemType("A", 1, 1, 0, 4), ItemType("B", 1, 1, 0, 4)))
    col = greedy_fill(("A", "B"), build_node(inst, []), {"A": 1.0, "B": -5e-324})
    assert col.counts_dict() == {"A": 4, "B": 4}


def test_a_fill_is_cut_at_once_without_a_positive_score():
    """With every score at most 0 the bound is -1 < ``CUT_PRICE`` at the
    first type, so the fill returns None before its first ``place`` call;
    without scores the same sequence fills each type to its to-cap."""
    inst = Instance(20, 20, 0, (ItemType("A", 4, 4, 0, 3), ItemType("B", 2, 2, 0, 5)))
    node = build_node(inst, [])
    assert _with_place_calls(greedy_fill, ("A", "B"), node,
                             {"A": 0.0, "B": -0.3}) == (None, [])
    col, calls = _with_place_calls(greedy_fill, ("A", "B"), node)
    assert col.counts_dict() == {"A": 3, "B": 5}
    assert [size for *size, _ in calls] == [[4, 4]] * 3 + [[2, 2]] * 5


def test_a_priced_fill_looks_each_type_up_once(monkeypatch):
    """Through one ``price`` call on a node with rules, ``fill_unit`` runs
    once per type of each sequence filled, and never outside a fill."""
    node = _ruled_node(seed=3)
    assert node.rules
    lookups, lengths, open_fills = [], [], []
    fill_unit = NodeProblem.fill_unit

    def spied(self, tid):
        lookups.append(bool(open_fills))
        return fill_unit(self, tid)

    def recorded(seq, node, scores=None):
        lengths.append(len(seq))
        open_fills.append(seq)
        try:
            return greedy_fill(seq, node, scores)
        finally:
            open_fills.pop()

    monkeypatch.setattr(NodeProblem, "fill_unit", spied)
    monkeypatch.setattr(pricing, "greedy_fill", recorded)
    price(node, {"A": 0.3, "B": 0.1, "C": 0.5, "(A+B)": 0.45})
    assert len(lengths) == 2 + pricing.RANDOM_SEQUENCES
    assert len(lookups) == sum(lengths)
    assert all(lookups)


def test_price_keeps_a_column_that_its_last_units_lift_just_above_eps():
    """Two 6 x 5 A leave room for three 1 x 5 B but not for a third A, and
    only with the B does the column price out, by 2e-9.  B is denser, so the
    bound falls with each A the fill adds; a bound that stops the fill one A
    early, before the third A fails to place, loses the column."""
    inst = Instance(15, 5, 0, (ItemType("A", 6, 5, 0, 3), ItemType("B", 1, 5, 0, 15)))
    scores = {"A": 0.275 + EPS_PRICE, "B": 0.15}
    cols = price(build_node(inst, []), scores)
    assert [col.counts_dict() for col in cols] == [{"B": 15}, {"A": 2, "B": 3}]
    assert EPS_PRICE < reduced_cost(cols[1].counts_dict(), scores) < 3 * EPS_PRICE
    assert cols == _price_filling_to_the_end(build_node(inst, []), scores)


def _empty_root(instance) -> NodeProblem:
    """A root node without columns, built as ``search.run`` builds it."""
    return NodeProblem(
        id=0, parent_id=None, depth=0,
        multiplicities={t.id: (t.from_count, t.to_count) for t in instance.item_types},
        columns=[], registry=instance.registry(), rng=node_rng(0, 0))


def test_pricing_quality_against_every_placeable_pattern():
    """Heuristic pricing against the oracle's complete pattern set, on the
    oracle's sample.  The root LP can only be at or above the exact one; how
    often it stays above is pricing's measured quality.  A pricing change
    that moves these counts pins the new ones and says so."""
    admitted = above = ceiling_above = 0
    for instance in oracle_sample():
        try:
            patterns = feasible_patterns(instance)
        except OracleGuardError:
            continue
        admitted += 1
        # the exact root LP: the master over every placeable count vector
        root = _empty_root(instance)
        ids = [t.id for t in instance.item_types]
        root.columns = [make_column(dict(zip(ids, vec)), layout, root.registry)
                        for vec, layout in patterns.items()]
        res = solve_lp(build_rmp(root))
        assert res.status == "optimal"
        exact = -res.objective
        root = _empty_root(instance)
        root.columns = initial_columns(instance, root.registry, root)
        heuristic = column_generation(root, instance, SolverConfig(rng_seed=0),
                                      root.registry).bins
        assert heuristic >= exact - 1e-6
        above += heuristic > exact + 1e-6
        ceiling_above += math.ceil(heuristic - 1e-6) != math.ceil(exact - 1e-6)
    assert (admitted, above, ceiling_above) == (191, 9, 2)
