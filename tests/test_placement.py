import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from patternpack import placement
from patternpack.model import Instance, ItemType, Layout, TypeRegistry
from patternpack.placement import (BottomLeftPacker, first_layout, place_ids,
                                   separated, verify_layout)

from helpers import ReferencePacker, all_pairs_verify_layout, random_small_instance


def test_separated_examples():
    assert separated((0, 0, 4, 4), (5, 0, 4, 4), 1)
    assert not separated((0, 0, 4, 4), (4, 0, 4, 4), 1)
    assert separated((0, 0, 4, 4), (0, 5, 4, 4), 0)


rects = st.tuples(st.integers(0, 30), st.integers(0, 30),
                  st.integers(1, 10), st.integers(1, 10))


@given(rects, rects, st.integers(0, 5))
def test_separated_symmetric(r1, r2, d):
    assert separated(r1, r2, d) == separated(r2, r1, d)


def _sized(sizes, width, height, spacing):
    """An instance with one type per distinct rectangle size, and the type
    ids of ``sizes`` in order."""
    kinds = list(dict.fromkeys(sizes))
    inst = Instance(width, height, spacing, tuple(
        ItemType(f"s{k}", w, h, 0, len(sizes)) for k, (w, h) in enumerate(kinds)))
    return inst, [f"s{kinds.index(size)}" for size in sizes]


def test_bottom_left_empty():
    inst = _square_instance()
    assert place_ids([], inst, inst.registry()) == Layout(())


def test_bottom_left_four_squares():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 8),))
    layout = place_ids(["A"] * 4, inst, inst.registry())
    assert layout.placements == (("A", 0, 0), ("A", 5, 0), ("A", 0, 5), ("A", 5, 5))


def test_bottom_left_fifth_square_fails():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 8),))
    assert place_ids(["A"] * 5, inst, inst.registry()) is None


def test_bottom_left_oversize_fails():
    # an instance refuses a type larger than its bin; a registry does not
    registry = TypeRegistry((ItemType("A", 11, 4, 0, 1),))
    assert place_ids(["A"], Instance(10, 10, 0, ()), registry) is None
    assert BottomLeftPacker(10, 10, 0).place(11, 4) is None


def test_bottom_left_deterministic():
    inst, ids = _sized([(3, 2), (2, 5), (4, 1), (1, 1), (5, 2)], 9, 9, 1)
    registry = inst.registry()
    assert place_ids(ids, inst, registry) == place_ids(ids, inst, registry)


def test_failure_is_monotone_in_prefix():
    rng = random.Random(7)
    for _ in range(200):
        seq = [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(6)]
        inst, ids = _sized(seq, 10, 10, 1)
        if place_ids(ids[:4], inst, inst.registry()) is None:
            assert place_ids(ids, inst, inst.registry()) is None


def test_incremental_equals_batch_positions():
    rng = random.Random(13)
    for _ in range(100):
        d = rng.randint(0, 2)
        seq = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 8))]
        packer = ReferencePacker(12, 12, d)
        incremental = []
        for w, h in seq:
            pos = packer.place(w, h)
            if pos is None:
                incremental = None
                break
            incremental.append(pos)
        inst, ids = _sized(seq, 12, 12, d)
        layout = place_ids(ids, inst, inst.registry())
        assert incremental == (
            None if layout is None else [(x, y) for _, x, y in layout.placements])


def test_rollback_restores_state():
    packer = BottomLeftPacker(10, 10, 1)
    assert packer.place(4, 4) == (0, 0)
    mark = packer.mark()
    assert packer.place(4, 4) == (5, 0)
    packer.reset_to(mark)
    assert packer.place(4, 4) == (5, 0)  # same answer after rollback
    assert packer.place(6, 6) is None
    packer.reset_to(packer.mark())  # a rollback that removes nothing
    assert packer.place(4, 4) == (0, 5)
    assert packer.placements() == [(0, 0, 4, 4), (5, 0, 4, 4), (0, 5, 4, 4)]


def test_a_refused_size_can_fit_after_more_rectangles():
    """A blocked candidate stays blocked, but a later rectangle brings new
    corners, and a size refused before can fit at one of them."""
    packer = BottomLeftPacker(5, 5, 0)
    assert packer.place(2, 1) == (0, 0)
    assert packer.place(3, 2) == (2, 0)
    assert packer.place(4, 1) is None
    assert packer.place(1, 1) == (0, 1)
    assert packer.place(4, 1) == (0, 2)


def test_reset_to_refuses_a_mark_outside_the_placed_rectangles():
    packer = BottomLeftPacker(10, 10, 1)
    packer.place(4, 4)
    packer.place(4, 4)
    for bad in (-1, packer.mark() + 1):
        with pytest.raises(ValueError):
            packer.reset_to(bad)
    packer.reset_to(packer.mark())  # the top mark itself removes nothing
    assert packer.placements() == [(0, 0, 4, 4), (5, 0, 4, 4)]
    assert packer.place(4, 4) == (0, 5)


@st.composite
def packer_scripts(draw):
    """A bin, a few rectangle sizes (some larger than the bin) and a random
    interleaving of ``place``, ``mark`` and ``reset_to``."""
    width, height = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    spacing = draw(st.integers(0, 3))
    small = st.tuples(st.integers(1, max(1, width // 3)),
                      st.integers(1, max(1, height // 3)))
    any_size = st.tuples(st.integers(1, 90), st.integers(1, 90))
    sizes = draw(st.lists(st.one_of(small, any_size), min_size=1, max_size=4))
    size = st.sampled_from(sizes)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("place"), size),
        st.tuples(st.just("place_or_undo"), size),
        st.tuples(st.just("mark"), st.none()),
        st.tuples(st.just("reset"), st.integers(0, 7))), max_size=80))
    return width, height, spacing, ops


def _replay(ops, packer, ref):
    """Run one script on ``packer`` and ``ref`` and compare them after every
    operation."""
    marks = []
    for op, arg in ops:
        if op in ("place", "place_or_undo"):
            before = packer.mark(), ref.mark()
            got = packer.place(*arg)
            assert got == ref.place(*arg)
            if got is None and op == "place_or_undo":
                # greedy_fill's rollback after a failed place: removes nothing
                packer.reset_to(before[0])
                ref.reset_to(before[1])
        elif op == "mark":
            marks.append((packer.mark(), ref.mark()))
        elif marks:
            # back to an older mark; the marks taken after it lapse
            del marks[arg % len(marks) + 1:]
            packer.reset_to(marks[-1][0])
            ref.reset_to(marks[-1][1])
        assert packer.placements() == ref.placements()


def _searches(packer) -> list:
    """Records the size of each bottom-left search ``packer`` makes from now
    on, that is of each ``place`` its memo does not answer."""
    calls, search = [], packer._search

    def counted(w, h):
        calls.append((w, h))
        return search(w, h)

    packer._search = counted
    return calls


@settings(max_examples=300, deadline=None)
@given(packer_scripts())
# a packer fails these if a memo hit skips the running tops, if reset_to
# keeps the state ids of dropped rectangles, or if state ids repeat after
# a generation retires
@example((19, 7, 0, [("place", (6, 1)), ("mark", None), ("place", (6, 2)),
                     ("reset", 0), ("place", (6, 2)), ("place", (6, 1)),
                     ("place", (6, 2)), ("place", (6, 1))]))
@example((50, 66, 1, [("mark", None), ("place", (25, 53)), ("place", (25, 53)),
                      ("reset", 0), ("place", (25, 53))]))
@example((9, 5, 1, [("place", (2, 1)), ("place", (1, 1)), ("place", (2, 1)),
                    ("place", (1, 1))]))
def test_packer_equals_reference(script):
    """Each script runs twice on one packer, emptied by ``reset_to(0)`` in
    between, so the second run is answered from its memo: once with the memo
    as the solver sizes it, and once with two entries a generation, so
    generations retire mid-script."""
    width, height, spacing, ops = script
    for entries in (placement.MEMO_ENTRIES, 2):
        packer = BottomLeftPacker(width, height, spacing)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(placement, "MEMO_ENTRIES", entries)
            _replay(ops, packer, ReferencePacker(width, height, spacing))
            packer.reset_to(0)
            searches = _searches(packer)
            _replay(ops, packer, ReferencePacker(width, height, spacing))
        if entries > len(ops):
            # a run records at most one entry an operation, so none retired
            # and the second run found every answer in the memo
            assert searches == []


@settings(max_examples=200, deadline=None)
@given(packer_scripts(), st.data())
def test_a_reset_packer_places_another_script_as_the_reference(script, data):
    """After any script and ``reset_to(0)``, a packer places a second script,
    the first one's operations in another order, as a new reference does:
    its memo still holds the first script's answers."""
    width, height, spacing, ops = script
    packer = BottomLeftPacker(width, height, spacing)
    _replay(ops, packer, ReferencePacker(width, height, spacing))
    packer.reset_to(0)
    _replay(data.draw(st.permutations(ops)), packer,
            ReferencePacker(width, height, spacing))


def _uniform_script(rng):
    """A script of ``packer_scripts``' shape, each choice drawn uniformly."""
    width, height = rng.randint(1, 80), rng.randint(1, 80)
    spacing = rng.randint(0, 3)
    sizes = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.4:
            sizes.append((rng.randint(1, max(1, width // 3)),
                          rng.randint(1, max(1, height // 3))))
        elif kind < 0.8:
            sizes.append((rng.randint(1, 90), rng.randint(1, 90)))
        else:
            # as wide or as tall as the bin: the largest packed memo keys
            sizes.append(rng.choice([(width, rng.randint(1, height)),
                                     (rng.randint(1, width), height)]))
    ops = []
    for _ in range(rng.randint(0, 80)):
        op = rng.choice(("place", "place_or_undo", "mark", "reset"))
        arg = (rng.choice(sizes) if op.startswith("place")
               else rng.randint(0, 7) if op == "reset" else None)
        ops.append((op, arg))
    return width, height, spacing, ops


def test_packer_equals_reference_on_uniform_scripts():
    """Hypothesis seldom draws the long scripts whose rollbacks and memo hits
    interleave; uniform draws of the same shape reach them every run.  Each
    script runs twice on one packer, emptied by ``reset_to(0)`` in between,
    so sizes as wide or as tall as the bin are answered from its memo too."""
    for k in range(500):
        width, height, spacing, ops = _uniform_script(random.Random(k))
        packer = BottomLeftPacker(width, height, spacing)
        for _ in range(2):
            packer.reset_to(0)
            _replay(ops, packer, ReferencePacker(width, height, spacing))


def test_a_size_larger_than_the_bin_is_refused_before_the_memo():
    packer = BottomLeftPacker(10, 8, 1)
    searches = _searches(packer)
    for w, h in ((11, 1), (1, 9), (11, 9)):
        assert packer.place(w, h) is None
    assert searches == []
    assert packer.place(4, 4) == (0, 0)
    assert packer.place(11, 1) is None and packer.place(1, 9) is None
    assert searches == [(4, 4)] and packer.placements() == [(0, 0, 4, 4)]


def test_a_negative_side_is_refused():
    """A memo key packs (state, w, h) one to one only for 0 <= w <= W, so a
    negative side would read the answer of another state and size."""
    packer = BottomLeftPacker(10, 8, 1)
    searches = _searches(packer)
    assert packer.place(4, 4) == (0, 0)
    for w, h in ((-1, 4), (4, -1), (-11, 2), (-1, -1)):
        with pytest.raises(ValueError):
            packer.place(w, h)
    assert searches == [(4, 4)] and packer.placements() == [(0, 0, 4, 4)]


def test_a_zero_side_is_refused_at_clearance_zero():
    """At clearance 0 a 0 x 0 box covers nothing, not even its own anchor,
    so the anchor rule would refuse a second 0 x 0 at (0, 0) that a test
    against every placed rectangle accepts."""
    packer = BottomLeftPacker(10, 10, 0)
    for w, h in ((0, 0), (0, 3), (3, 0)):
        with pytest.raises(ValueError):
            packer.place(w, h)
    assert packer.placements() == []
    assert packer.place(1, 1) == (0, 0)


def test_a_size_of_the_whole_bin_places_at_the_origin():
    packer = BottomLeftPacker(10, 8, 1)
    searches = _searches(packer)
    for _ in range(2):  # the second answers come from the memo
        packer.reset_to(0)
        assert packer.place(10, 8) == (0, 0)
        assert packer.place(1, 1) is None
        assert packer.placements() == [(0, 0, 10, 8)]
    assert searches == [(10, 8), (1, 1)]


@pytest.mark.parametrize("first", [None, (159, 323)])
def test_packer_equals_reference_on_long_rows(first):
    """Rows of r5's 27 x 18 item until the bin is full, alone or after one
    159 x 323 item: hundreds of rectangles, far more than the scripts build."""
    packer = BottomLeftPacker(614, 512, 6)
    ref = ReferencePacker(614, 512, 6)
    sizes = [first] if first else []
    while True:
        size = sizes.pop() if sizes else (27, 18)
        got = packer.place(*size)
        assert got == ref.place(*size)
        assert packer.placements() == ref.placements()
        if got is None:
            break
    assert packer.mark() > 300


def _square_instance():
    return Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 8),))


def test_place_ids_single_item():
    inst = _square_instance()
    reg = inst.registry()
    layout = place_ids(["A"], inst, reg)
    assert layout.placements == (("A", 0, 0),)


def test_place_ids_compound_that_cannot_fit():
    inst = Instance(10, 10, 0, (ItemType("A", 6, 6, 0, 2), ItemType("B", 6, 6, 0, 2)))
    reg = inst.registry()
    reg.add(ItemType("C", constituents=(("A", 1), ("B", 1)), from_count=1, to_count=1))
    assert place_ids(reg.expansion("C"), inst, reg) is None


def test_place_ids_four_with_spacing():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 8),))
    layout = place_ids(["A"] * 4, inst, inst.registry())
    assert len(layout) == 4


def test_layout_labels_the_boxes_in_placement_order():
    packer = BottomLeftPacker(10, 10, 1)
    packer.place(4, 4)
    packer.place(3, 2)
    assert packer.layout(["A", "B"]) == Layout((("A", 0, 0), ("B", 5, 0)))
    with pytest.raises(ValueError):
        packer.layout(["A"])  # one label per placed rectangle


@pytest.mark.parametrize("ids", [
    (), ("A",), ("A", "A"), ("A", "B", "C"), ("A", "C", "A", "B"),
    ("B", "A", "B", "A", "C"), ("A", "A", "B", "A", "C", "B", "A")])
def test_distinct_orders_equals_deduplicated_permutations(ids):
    """``first_layout`` reaches the distinct orderings of ``ids`` in
    ``itertools.permutations`` order, ``ids`` itself first: a bin that holds
    everything, with the last rectangle of every ordering refused."""
    inst = Instance(20, 20, 0, (ItemType("A", 1, 1, 0, 4), ItemType("B", 1, 2, 0, 2),
                                ItemType("C", 2, 1, 0, 1)))
    name = {(1, 1): "A", (1, 2): "B", (2, 1): "C"}
    place, orders = BottomLeftPacker.place, []

    def refuse_last(packer, w, h):
        if packer.mark() < len(ids) - 1:
            return place(packer, w, h)
        orders.append(tuple(name[r[2:]] for r in packer.placements()) + (name[w, h],))
        return None

    with mock.patch.object(BottomLeftPacker, "place", refuse_last):
        found = first_layout(ids, inst, inst.registry())
    if found is not None:  # only the empty multiset has no last rectangle
        orders.append(tuple(oid for oid, _, _ in found.placements))
    assert orders == list(dict.fromkeys(itertools.permutations(ids)))
    assert orders[0] == ids


def _counting_place(calls: list):
    """Patches ``BottomLeftPacker.place`` to append each call's size."""
    place = BottomLeftPacker.place

    def counted(packer, w, h):
        calls.append((w, h))
        return place(packer, w, h)

    return mock.patch.object(BottomLeftPacker, "place", counted)


@st.composite
def multisets_to_lay_out(draw):
    """A bin, up to three types that may share a size, and up to six ids
    drawn from them with repeats; often nothing places."""
    width, height = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    sizes = draw(st.lists(st.tuples(st.integers(1, width), st.integers(1, height)),
                          min_size=1, max_size=3))
    inst = Instance(width, height, draw(st.integers(0, 1)), tuple(
        ItemType(f"t{k}", w, h, 0, 6) for k, (w, h) in enumerate(sizes)))
    ids = draw(st.lists(st.sampled_from([t.id for t in inst.item_types]), max_size=6))
    return inst, tuple(ids)


@settings(max_examples=200, deadline=None)
@given(multisets_to_lay_out())
@example((Instance(4, 4, 0, (ItemType("A", 4, 4, 0, 1), ItemType("B", 1, 1, 0, 3))),
          ("B", "A", "B", "B")))
def test_first_layout_is_the_first_ordering_that_places(case):
    """The first ordering, in ``itertools.permutations`` order without
    repeats, that ``place_ids`` lays out whole; and one ``place`` call per
    distinct prefix that those orderings try up to it."""
    inst, ids = case
    registry = inst.registry()
    expected, tried = None, set()
    for order in dict.fromkeys(itertools.permutations(ids)):
        packer = BottomLeftPacker(inst.bin_width, inst.bin_height, inst.spacing)
        for k, oid in enumerate(order, 1):
            tried.add(order[:k])
            if packer.place(registry[oid].width, registry[oid].height) is None:
                break
        else:
            expected = place_ids(order, inst, registry)
            break
    calls = []
    with _counting_place(calls):
        assert first_layout(ids, inst, registry) == expected
    assert len(calls) == len(tried)


def test_a_refused_prefix_costs_one_place_call_for_all_its_orderings():
    """Five squares the size of the bin: each of the 120 orderings is refused
    at its second rectangle, and the 24 that share a first square share its
    placement and the four refusals after it."""
    inst = Instance(4, 4, 0, tuple(ItemType(k, 4, 4, 0, 1) for k in "ABCDE"))
    calls = []
    with _counting_place(calls):
        assert first_layout("ABCDE", inst, inst.registry()) is None
    assert len(calls) == 5 + 5 * 4


def test_verify_layout_accepts_constructed_layout():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 8),))
    layout = place_ids(["A"] * 4, inst, inst.registry())
    assert verify_layout(layout, {"A": 4}, inst)


def test_verify_layout_rejects_separation_violation():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 8),))
    bad = Layout((("A", 0, 0), ("A", 4, 0), ("A", 0, 5), ("A", 5, 5)))
    assert not verify_layout(bad, {"A": 4}, inst)


def test_verify_layout_rejects_multiset_mismatch():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 8),))
    short = Layout((("A", 0, 0), ("A", 5, 0), ("A", 0, 5)))
    assert not verify_layout(short, {"A": 4}, inst)


def test_verify_layout_order_independent():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 8),))
    layout = place_ids(["A"] * 4, inst, inst.registry())
    rng = random.Random(3)
    for _ in range(10):
        shuffled = list(layout.placements)
        rng.shuffle(shuffled)
        assert verify_layout(Layout(tuple(shuffled)), {"A": 4}, inst)


def test_packer_outputs_always_verify():
    rng = random.Random(5)
    for _ in range(150):
        inst = random_small_instance(rng)
        reg = inst.registry()
        counts = {t.id: rng.randint(0, 3) for t in inst.item_types}
        order = [t.id for t in inst.item_types for _ in range(counts[t.id])]
        rng.shuffle(order)
        counts = {k: v for k, v in counts.items() if v}
        layout = place_ids(order, inst, reg)
        if layout is not None:
            assert verify_layout(layout, counts, inst, reg)


def test_verify_layout_rejects_negative_counts():
    inst = Instance(10, 10, 1, (ItemType("A", 4, 4, 0, 8), ItemType("B", 4, 4, 0, 8)))
    layout = Layout((("A", 0, 0), ("A", 5, 0)))
    assert verify_layout(layout, {"A": 2}, inst)
    assert not verify_layout(layout, {"A": 2, "B": -2}, inst)
    assert not verify_layout(layout, {"A": 2, "B": -2, "C": 1}, inst)  # unknown type


def test_verify_layout_raises_on_a_fault_inside_it():
    inst = _square_instance()
    registry = inst.registry()

    def broken(*args):
        raise ZeroDivisionError

    registry.expansion = broken
    with pytest.raises(ZeroDivisionError):
        verify_layout(Layout((("A", 0, 0),)), {"A": 1}, inst, registry)


@st.composite
def layouts_near_contact(draw):
    """An instance, a layout and counts.  The layout is a bottom-left packing
    of random rectangles, so neighbours sit exactly d apart and columns share
    x starts; then up to two rectangles move by one unit, which leaves a gap
    of d - 1 or a rectangle outside the bin; sometimes a count is off by one."""
    spacing = draw(st.integers(0, 3))
    width, height = draw(st.integers(4, 60)), draw(st.integers(4, 60))
    sizes = draw(st.lists(st.tuples(st.integers(1, max(1, width // 3)),
                                    st.integers(1, max(1, height // 3))),
                          min_size=1, max_size=3))
    inst = Instance(width, height, spacing, tuple(
        ItemType(f"t{k}", w, h, 0, 40) for k, (w, h) in enumerate(sizes)))
    packer = BottomLeftPacker(width, height, spacing)
    placed = []
    for k in draw(st.lists(st.integers(0, len(sizes) - 1), max_size=30)):
        pos = packer.place(*sizes[k])
        if pos is not None:
            placed.append([f"t{k}", *pos])
    for _ in range(draw(st.integers(0, 2)) if placed else 0):
        moved = draw(st.sampled_from(placed))
        moved[draw(st.sampled_from([1, 2]))] += draw(st.sampled_from([-1, 1]))
    layout = Layout(tuple(map(tuple, placed)))
    counts = Counter(tid for tid, _, _ in placed)
    if draw(st.booleans()):
        counts[f"t{draw(st.integers(0, len(sizes) - 1))}"] += draw(st.sampled_from([-1, 1]))
    return inst, layout, dict(counts)


@settings(max_examples=300, deadline=None)
@given(layouts_near_contact())
def test_sweep_verify_equals_all_pairs(case):
    inst, layout, counts = case
    assert verify_layout(layout, counts, inst) == all_pairs_verify_layout(layout, counts, inst)
