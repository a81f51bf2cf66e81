import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from patternpack.model import Instance, ItemType, Layout, TypeRegistry
from patternpack.placement import (BottomLeftPacker, distinct_orders, place_ids,
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


@settings(max_examples=300, deadline=None)
@given(packer_scripts())
def test_packer_equals_reference(script):
    width, height, spacing, ops = script
    packer = BottomLeftPacker(width, height, spacing)
    ref = ReferencePacker(width, height, spacing)
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
    orders = list(distinct_orders(ids))
    assert orders == list(dict.fromkeys(itertools.permutations(ids)))
    assert orders[0] == ids


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
