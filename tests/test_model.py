from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from patternpack.model import (ApartRule, InfeasibleInstanceError, Instance,
                               InvalidInstanceError, ItemType, RegistryError,
                               TypeRegistry, derive_to, expand_counts,
                               violates_rules)
from patternpack.pricing import greedy_fill

from helpers import build_node


def test_derive_to_examples():
    assert derive_to(2000, 0.15) == 2300
    assert derive_to(10, 0.15) == 11
    assert derive_to(0, 0.15) == 0


def test_derive_to_never_below_from():
    for lo in range(0, 200):
        assert derive_to(lo, 0.15) >= lo


@pytest.mark.parametrize("rate", [-0.01, float("nan"), float("inf"), float("-inf")])
def test_derive_to_rejects_a_rate_that_is_not_a_finite_number_at_least_zero(rate):
    with pytest.raises(ValueError, match=r"^overproduction rate .*: "
                                         r"must be a finite number >= 0$"):
        derive_to(5, rate)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_derive_to_monotone(a, b):
    lo, hi = sorted((a, b))
    assert derive_to(lo, 0.15) <= derive_to(hi, 0.15)


def _registry(*types):
    return TypeRegistry(types)


def test_expand_counts_identity_on_originals():
    reg = _registry(ItemType("A", 2, 3, 0, 5))
    assert expand_counts({"A": 2}, reg) == {"A": 2}


def test_expand_counts_single_compound():
    reg = _registry(ItemType("A", 2, 3, 0, 5), ItemType("B", 1, 1, 0, 5))
    reg.add(ItemType("C", constituents=(("A", 1), ("B", 1)), from_count=1, to_count=1))
    assert expand_counts({"C": 1}, reg) == {"A": 1, "B": 1}


def test_expand_counts_nested_compound():
    reg = _registry(ItemType("A", 2, 3, 0, 9), ItemType("B", 1, 1, 0, 9))
    reg.add(ItemType("C", constituents=(("A", 1), ("B", 1)), from_count=1, to_count=1))
    reg.add(ItemType("D", constituents=(("C", 1), ("A", 1)), from_count=1, to_count=1))
    assert expand_counts({"D": 2}, reg) == {"A": 4, "B": 2}


def test_registry_refuses_a_compound_naming_an_unregistered_type():
    """A type names only earlier types, so no compound reaches itself; a
    refused type leaves the registry as it was."""
    reg = _registry(ItemType("A", 2, 3, 0, 5))
    reg.add(ItemType("C", constituents=(("A", 2),)))
    before = list(reg)
    for refused in (ItemType("D", constituents=(("E", 1), ("A", 1))),
                    ItemType("D", constituents=(("D", 1), ("A", 1))),
                    ItemType("D", constituents=(("C", 1), ("D", 1)))):
        with pytest.raises(RegistryError, match="unregistered type"):
            reg.add(refused)
        assert len(reg) == 2 and list(reg) == before and "D" not in reg
    with pytest.raises(RegistryError):
        reg.expansion("D")
    reg.add(ItemType("D", constituents=(("C", 1), ("A", 1))))
    assert reg.expansion("D") == ("A", "A", "A")


@given(st.dictionaries(st.sampled_from(["A", "B", "C"]), st.integers(0, 6)),
       st.dictionaries(st.sampled_from(["A", "B", "C"]), st.integers(0, 6)))
def test_expand_counts_linear(u, v):
    reg = _registry(ItemType("A", 2, 3, 0, 9), ItemType("B", 1, 1, 0, 9))
    reg.add(ItemType("C", constituents=(("A", 2),), from_count=1, to_count=1))
    merged = {k: u.get(k, 0) + v.get(k, 0) for k in set(u) | set(v)}
    lhs = expand_counts(merged, reg)
    eu, ev = expand_counts(u, reg), expand_counts(v, reg)
    rhs = {k: eu.get(k, 0) + ev.get(k, 0) for k in set(eu) | set(ev)}
    assert lhs == {k: n for k, n in rhs.items() if n}


def test_item_must_fit_bin():
    with pytest.raises(InfeasibleInstanceError):
        Instance(614, 512, 6, (ItemType("big", 700, 100, 1, 1),))


def test_from_above_to_rejected():
    with pytest.raises(InvalidInstanceError):
        ItemType("A", 5, 5, 3, 2)


def test_negative_spacing_rejected():
    with pytest.raises(InvalidInstanceError):
        Instance(10, 10, -1, (ItemType("A", 5, 5, 0, 1),))


def test_compound_needs_two_constituents():
    with pytest.raises(InvalidInstanceError):
        ItemType("C", constituents=(("A", 1),), from_count=1, to_count=1)


def test_registry_rejects_duplicate_ids():
    with pytest.raises(InvalidInstanceError):
        Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 1), ItemType("A", 4, 4, 0, 1)))


def test_apart_rule_basis_sees_through_later_compounds():
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 0, 4), ItemType("B", 5, 5, 0, 4)))
    reg = inst.registry()
    see_through = ApartRule("A", "B", frozenset({"A", "B"}))
    reg.add(ItemType("C", constituents=(("A", 1), ("B", 1)), from_count=1, to_count=1))
    opaque = ApartRule("A", "B", frozenset({"A", "B", "C"}))
    cap = ApartRule("A", "A", frozenset({"A", "B"}))
    assert see_through.units("C", reg) == (1, 1)
    assert see_through.violated_by({"C": 1}, reg)
    assert opaque.units("C", reg) == (0, 0)
    assert not opaque.violated_by({"C": 1}, reg)
    assert opaque.violated_by({"C": 1, "A": 1, "B": 1}, reg)
    assert cap.admits(1, 1) and cap.admits(1, 0)
    assert not cap.admits(2, 2)
    assert cap.violated_by({"C": 1, "A": 1}, reg)

    node = build_node(inst, [], registry=reg,
                      mult={"A": (0, 4), "B": (0, 4), "C": (0, 1)})
    for rule, c_placed in ((see_through, 0), (opaque, 1), (cap, 1)):
        ruled = replace(node, rules=frozenset({rule}))
        col = greedy_fill(("C", "A", "B"), ruled)
        assert col is not None and col.counts_dict().get("C", 0) == c_placed, rule
        assert not violates_rules(col.counts_dict(), ruled.rules, reg), rule
