"""Domain model: item types, instances, columns, layouts, search nodes,
solutions.

Item types, instances, columns, layouts, rules, solutions and the solver
configuration are immutable after construction.  Two types are not: the
``TypeRegistry`` grows as branching registers compound types, and a
``NodeProblem``'s column pool grows during column generation.  Serialization
lives in :mod:`patternpack.cli`.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, inf, isfinite
from operator import mul
from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:
    from .placement import BottomLeftPacker


class InvalidInstanceError(ValueError):
    """Instance data violates a structural rule (bad range, bad dimension)."""


class InfeasibleInstanceError(ValueError):
    """Some item cannot be produced at all (larger than the bin)."""


class RegistryError(RuntimeError):
    """A type id the registry does not hold: looked up, or named as the
    constituent of a compound before it was registered."""


@dataclass(frozen=True)
class ItemType:
    """A rectangular item type, or a compound bundling items that must share a bin.

    Original types carry geometry and their production range.  Compound
    types carry only their id and constituent multiset, which names earlier
    types of the registry, and resolve recursively to original rectangles;
    the range of a compound lives in each node's ``multiplicities``.
    """

    id: str
    width: int = 0   # mm, originals only
    height: int = 0  # mm, originals only
    from_count: int = 0  # minimum number of items to produce
    to_count: int = 0    # production cap including overproduction
    constituents: tuple[tuple[str, int], ...] = ()  # (type id, multiplicity)

    @property
    def is_compound(self) -> bool:
        return bool(self.constituents)

    def __post_init__(self) -> None:
        if self.is_compound:
            if sum(n for _, n in self.constituents) < 2:
                raise InvalidInstanceError(
                    f"compound type {self.id!r} needs at least 2 constituent items")
            if any(n <= 0 for _, n in self.constituents):
                raise InvalidInstanceError(
                    f"compound type {self.id!r} has a non-positive constituent count")
        else:
            if self.width <= 0 or self.height <= 0:
                raise InvalidInstanceError(
                    f"item type {self.id!r}: width and height must be positive")
        if self.from_count < 0:
            raise InvalidInstanceError(f"item type {self.id!r}: from must be >= 0")
        if self.from_count > self.to_count:
            raise InvalidInstanceError(
                f"item type {self.id!r}: from ({self.from_count}) exceeds to ({self.to_count})")


def derive_to(from_count: int, rate: float) -> int:
    """Production cap for a type given its minimum and the overproduction rate.

    Uses exact decimal arithmetic so e.g. (2000, 0.15) gives 2300, not 2299.
    Floor rounding: the cap is never exceeded, and never below ``from_count``.
    """
    if not (isfinite(rate) and rate >= 0):
        raise ValueError(f"overproduction rate {rate!r}: must be a finite number >= 0")
    return floor(Fraction(from_count) * (1 + Fraction(str(rate))))


class TypeRegistry:
    """Append-only ordered registry of item types.

    Holds the instance's original types plus every compound type created
    during the search.  A type names only types registered before it, so no
    compound reaches itself.  Registry order (insertion order) is the
    canonical tie-breaking order everywhere.
    """

    def __init__(self, originals: tuple["ItemType", ...] = ()):
        self._types: list[ItemType] = []
        self._index: dict[str, int] = {}
        self._expansion_cache: dict[tuple[str, frozenset[str]], tuple[str, ...]] = {}
        self._unit_areas: dict[str, int] = {}
        for t in originals:
            self.add(t)

    def add(self, item_type: ItemType) -> None:
        if item_type.id in self._index:
            raise InvalidInstanceError(f"duplicate item type id {item_type.id!r}")
        for cid, _ in item_type.constituents:
            if cid not in self._index:
                raise RegistryError(
                    f"compound {item_type.id!r} names unregistered type {cid!r}")
        self._index[item_type.id] = len(self._types)
        self._types.append(item_type)

    def __contains__(self, type_id: str) -> bool:
        return type_id in self._index

    def __getitem__(self, type_id: str) -> ItemType:
        try:
            return self._types[self._index[type_id]]
        except KeyError:
            raise RegistryError(f"unknown item type {type_id!r}") from None

    def __iter__(self) -> Iterator[ItemType]:
        return iter(self._types)

    def __len__(self) -> int:
        return len(self._types)

    def order(self, type_id: str) -> int:
        """Position of a type in registry order."""
        try:
            return self._index[type_id]
        except KeyError:
            raise RegistryError(f"unknown item type {type_id!r}") from None

    def expansion(self, type_id: str,
                  basis: frozenset[str] = frozenset()) -> tuple[str, ...]:
        """Type ids realizing one unit of ``type_id``.

        Compounds outside ``basis`` are expanded into their constituents,
        recursively; originals and basis members stay opaque, so the default
        empty basis gives original type ids only.  The result concatenates
        the expansions of the constituents, taken in registry order and each
        repeated by its multiplicity.  A nested compound's ids are inlined,
        so equal ids need not be adjacent: with X = A+B, Z = C+X and
        W = A+Z, W expands to (A, C, A, B).  Constituents are registered
        before their compound, so the recursion ends.
        """
        key = (type_id, basis)
        cached = self._expansion_cache.get(key)
        if cached is None:
            t = self[type_id]
            if not t.is_compound or type_id in basis:
                cached = (type_id,)
            else:
                parts: list[str] = []
                ordered = sorted(t.constituents, key=lambda cn: self.order(cn[0]))
                for cid, n in ordered:
                    parts.extend(self.expansion(cid, basis) * n)
                cached = tuple(parts)
            self._expansion_cache[key] = cached
        return cached

    def unit_area(self, type_id: str) -> int:
        """Total constituent rectangle area of one unit of a type, in mm^2.
        Worked out on a type's first call: a registered type never changes."""
        area = self._unit_areas.get(type_id)
        if area is None:
            area = self._unit_areas[type_id] = sum(
                self[oid].width * self[oid].height for oid in self.expansion(type_id))
        return area


def expand_counts(counts: Mapping[str, int], registry: TypeRegistry) -> dict[str, int]:
    """Counts over original types only; the rectangle multiset is preserved."""
    out: dict[str, int] = {}
    for tid, n in counts.items():
        if n == 0:
            continue
        for oid in registry.expansion(tid):
            out[oid] = out.get(oid, 0) + n
    return out


@dataclass(frozen=True)
class ApartRule:
    """Apart-branch rule: items of a and b may not share a bin; when a == b,
    at most one item of a per bin.

    ``basis`` is the active type set when the rule was created.  The rule
    sees through compounds registered later (they cannot smuggle forbidden
    pairings past it) while compounds that were already active stay opaque:
    their internal pairings were forced by earlier together-branches and are
    exempt.
    """

    a: str
    b: str
    basis: frozenset[str]

    @property
    def is_cap(self) -> bool:
        return self.a == self.b

    def units(self, type_id: str, registry: TypeRegistry) -> tuple[int, int]:
        """Items of a and of b in one unit of ``type_id``, over the basis."""
        unit = registry.expansion(type_id, self.basis)
        return unit.count(self.a), unit.count(self.b)

    def admits(self, ca: int, cb: int) -> bool:
        """Whether a bin holding ca items of a and cb items of b obeys the rule."""
        if self.is_cap:
            return ca <= 1
        return ca <= 0 or cb <= 0

    def violated_by(self, counts: Mapping[str, int],
                    registry: TypeRegistry) -> bool:
        ca = cb = 0
        for tid, n in counts.items():
            if n:
                da, db = self.units(tid, registry)
                ca += n * da
                cb += n * db
        return not self.admits(ca, cb)


def violates_rules(counts: Mapping[str, int], rules,
                   registry: TypeRegistry) -> bool:
    """True iff the counts break any apart-branch rule."""
    return any(rule.violated_by(counts, registry) for rule in rules)


@dataclass(frozen=True)
class Instance:
    """A packing problem: bin dimensions, clearance, and original item types."""

    bin_width: int   # mm
    bin_height: int  # mm
    spacing: int     # mm, pairwise clearance between items
    item_types: tuple[ItemType, ...]

    def __post_init__(self) -> None:
        if self.bin_width <= 0 or self.bin_height <= 0:
            raise InvalidInstanceError("bin dimensions must be positive")
        if self.spacing < 0:
            raise InvalidInstanceError("spacing must be >= 0")
        seen: set[str] = set()
        for t in self.item_types:
            if t.is_compound:
                raise InvalidInstanceError(
                    f"item type {t.id!r}: instances hold original types only")
            if t.id in seen:
                raise InvalidInstanceError(f"duplicate item type id {t.id!r}")
            seen.add(t.id)
            if t.width > self.bin_width or t.height > self.bin_height:
                raise InfeasibleInstanceError(
                    f"item type {t.id!r} ({t.width}x{t.height}) does not fit "
                    f"the {self.bin_width}x{self.bin_height} bin")

    def registry(self) -> TypeRegistry:
        return TypeRegistry(self.item_types)


def dff_lower_bound(instance: Instance) -> Fraction:
    """Certified lower bound on the bins of ``instance``, from dual-feasible
    functions (Fekete & Schepers 2004, Math. Oper. Res. 29(2)).

    Every rectangle grows to (w + d) x (h + d) and the bin to
    (W + d) x (H + d), for the clearance d; the grown rectangles of a layout
    do not overlap, so a bound on the grown instance holds for this one.
    For a side s of a bin side S, f is the identity s / S or one of u^(k),
    k = 1..20: s / S when (k + 1) s / S is an integer, floor((k + 1) s / S) / k
    otherwise.  Under any pair (f, g) the values f(w) g(h) of one bin's
    rectangles sum to at most 1, so the bound is the largest sum of
    from_t f(w_t) g(h_t) over the 21 x 21 pairs.  Each f is kept as integer
    numerators over the denominator k S, and the pair sums are compared by
    cross-multiplication, so one ``Fraction`` is built, for the best."""
    d, types = instance.spacing, instance.item_types

    def dffs(sizes: list[int], side: int) -> list[tuple[list[int], int]]:
        """(numerators, denominator) of the identity and of each u^(k)."""
        return [(sizes, side)] + [
            ([k * s if (k + 1) * s % side == 0 else (k + 1) * s // side * side
              for s in sizes], k * side) for k in range(1, 21)]

    widths = dffs([t.width + d for t in types], instance.bin_width + d)
    heights = dffs([t.height + d for t in types], instance.bin_height + d)
    best, best_den = 0, 1
    for fw, dw in widths:
        weighted = [t.from_count * a for t, a in zip(types, fw)]
        for gh, dh in heights:
            num, den = sum(map(mul, weighted, gh)), dw * dh
            if num * best_den > best * den:
                best, best_den = num, den
    return Fraction(best, best_den)


@dataclass(frozen=True)
class Layout:
    """Axis-aligned placements (original type id, x, y) inside one bin; no rotation."""

    placements: tuple[tuple[str, int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.placements)


@dataclass(frozen=True)
class Column:
    """A pattern: item counts for one bin plus a placement witness.

    ``counts`` is sparse (positive entries only), sorted by registry order
    at creation time.  Count vectors are pairwise distinct inside one
    node's pool.
    """

    counts: tuple[tuple[str, int], ...]
    witness: Layout

    def counts_dict(self) -> dict[str, int]:
        return dict(self.counts)


def make_column(counts: Mapping[str, int], witness: Layout,
                registry: TypeRegistry) -> Column:
    """Column with counts canonicalized to registry order, zeros dropped."""
    items = sorted(((tid, n) for tid, n in counts.items() if n > 0),
                   key=lambda kv: registry.order(kv[0]))
    return Column(counts=tuple(items), witness=witness)


def dense_counts(counts: Mapping[str, int], registry: TypeRegistry) -> tuple[int, ...]:
    """Count vector over the full registry, for lexicographic ordering."""
    return tuple(counts.get(t.id, 0) for t in registry)


@dataclass
class NodeProblem:
    """One branch-and-bound node: inherited columns plus the rules added on
    the path from the root.  The rule set only grows downwards.  Every layout
    of the node is placed by ``packer``, which children share with their
    parent: ``search.initial_columns`` builds it for a root that has none.
    Children share ``checked_witnesses`` too: the witnesses whose geometry a
    together branch of the run has verified (``branching.make_left_child``).
    ``fill_unit`` holds what a fill needs of each type, its inflated area
    and to-cap included, for the node's life."""

    id: int
    parent_id: int | None
    depth: int
    multiplicities: dict[str, tuple[int, int]]  # in activation order: type -> (from, to)
    columns: list[Column]
    registry: TypeRegistry  # shared, append-only compound registry
    rules: frozenset[ApartRule] = frozenset()
    rng: random.Random = field(default_factory=random.Random)
    packer: "BottomLeftPacker | None" = field(default=None, repr=False,
                                              compare=False)
    checked_witnesses: set[Layout] = field(default_factory=set, repr=False,
                                           compare=False)
    # type -> fill_unit(type); valid for the node's life, as rules never change
    _fill_units: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def fill_unit(self, tid: str) -> tuple[tuple[str, ...], tuple[tuple[int, int], ...],
                                           int, int, tuple[tuple[int, int], ...],
                                           tuple[tuple[int, int, int], ...]]:
        """One unit of ``tid`` as a greedy fill adds it: its original type
        ids, their rectangle sizes, its area with every rectangle grown to
        (w + d) x (h + d) for the packer's clearance d, its to-cap (the most
        units of ``tid`` a column may hold), (slot, da) for each cap it adds
        da items of a to, and (slot, da, db) for each pair rule it adds da
        items of a and db items of b to.  The k-th of ``rules``, in their
        iteration order, owns slots 2k and 2k + 1 of a fill's tallies, the
        items of a and of b in the bin; a cap uses only the first.  Built
        once per node."""
        unit = self._fill_units.get(tid)
        if unit is None:
            registry = self.registry
            ids = registry.expansion(tid)
            dims = tuple((registry[oid].width, registry[oid].height) for oid in ids)
            d = self.packer.spacing
            area = sum((w + d) * (h + d) for w, h in dims)
            caps, pairs = [], []
            for k, rule in enumerate(self.rules):
                da, db = rule.units(tid, registry)
                if rule.is_cap:
                    if da:
                        caps.append((2 * k, da))
                elif da or db:
                    pairs.append((2 * k, da, db))
            unit = self._fill_units[tid] = (ids, dims, area, self.to_of(tid),
                                            tuple(caps), tuple(pairs))
        return unit

    def to_of(self, tid: str) -> int:
        return self.multiplicities[tid][1]

    def has_cap(self, i: str) -> bool:
        return any(r.is_cap and r.a == i for r in self.rules)

    def has_conflict(self, i: str, j: str) -> bool:
        return any(not r.is_cap and {r.a, r.b} == {i, j} for r in self.rules)


@dataclass(frozen=True)
class Solution:
    """An integral assignment of bins to patterns."""

    assignments: tuple[tuple[Column, int], ...]  # (pattern, x_l > 0)
    s: tuple[tuple[str, int], ...]               # produced totals, original types
    bins: int
    patterns: int


NODE_SELECTIONS = ("heuristic_min_heap", "depth_first")  # search.run's; default first


@dataclass(frozen=True)
class SolverConfig:
    """Weights, limits and the node order of a solver run.  Depth-first serves
    only the benchmark's deep-dive, until ROADMAP items 2 and 11."""

    c1: float = 1.0                      # weight on distinct patterns
    c2: float = 1.0                      # weight on bins
    time_limit_seconds: float | None = None
    rng_seed: int = 0
    node_selection: str = NODE_SELECTIONS[0]

    def __post_init__(self) -> None:
        if not (0 < self.c1 < inf and 0 < self.c2 < inf):
            raise ValueError("c1 and c2 must be finite and positive")
        if self.time_limit_seconds is not None and not self.time_limit_seconds >= 0:
            raise ValueError("time_limit_seconds must be >= 0")
        if self.node_selection not in NODE_SELECTIONS:
            raise ValueError(f"unknown node selection {self.node_selection!r}")


def node_rng(seed: int, node_id: int) -> random.Random:
    """Deterministic generator of node ``node_id`` under solver seed ``seed``.

    Not node-local for every seed: ``random.Random`` seeds with the absolute
    value of its argument, so at seed 0 the dive's residual node -k draws
    the same stream as tree node k.  Mending it moves every record whose
    run dives, so it waits for ROADMAP item 2."""
    return random.Random(seed * 1_000_003 + node_id)
