"""Shared test utilities: instance generators, node builders, independent oracles."""

import itertools
import random
from collections import Counter

import numpy as np

from patternpack.model import (ApartRule, Instance, ItemType, NodeProblem,
                               RegistryError, expand_counts, make_column, node_rng)
from patternpack.placement import BottomLeftPacker, place_ids, separated


def packer_for(instance):
    """A new packer for the instance's bin."""
    return BottomLeftPacker(instance.bin_width, instance.bin_height,
                            instance.spacing)


def build_node(instance, counts_list, registry=None, mult=None,
               conflicts=frozenset(), caps=frozenset(), node_id=0, seed=0):
    """Node with the given sparse count vectors.

    Each column gets a real bottom-left witness (types in registry order);
    the given counts must therefore actually fit one bin.  ``conflicts`` and
    ``caps`` become apart rules whose basis is the node's active type set.
    The node's packer, built for the instance's bin, lays out the witnesses.
    """
    registry = registry if registry is not None else instance.registry()
    if mult is None:
        mult = {t.id: (t.from_count, t.to_count) for t in instance.item_types}
    basis = frozenset(mult)
    rules = frozenset(
        {ApartRule(a, b, basis) for a, b in conflicts}
        | {ApartRule(i, i, basis) for i in caps})
    packer = packer_for(instance)
    cols = []
    for counts in counts_list:
        ids = [oid for t in registry
               for oid in registry.expansion(t.id) * counts.get(t.id, 0)]
        layout = place_ids(ids, packer, registry)
        if layout is None:
            raise AssertionError(f"test column {counts} does not fit one bin")
        cols.append(make_column(counts, layout, registry))
    return NodeProblem(id=node_id, parent_id=None, depth=0,
                       multiplicities=mult, columns=cols, registry=registry,
                       rules=rules, rng=node_rng(seed, node_id), packer=packer)


class ReferencePacker:
    """Reference bottom-left packer that ``BottomLeftPacker`` must match.

    Every ``place`` tests all stored candidate points against all placed
    rectangles in numpy; ``mark`` returns the pair (placed rectangles,
    candidates).
    """

    _GROW = 256

    def __init__(self, bin_width: int, bin_height: int, spacing: int):
        self.bin_width = bin_width
        self.bin_height = bin_height
        self.spacing = spacing
        cap = self._GROW
        self._px = np.zeros(cap, dtype=np.int64)
        self._py = np.zeros(cap, dtype=np.int64)
        self._pw = np.zeros(cap, dtype=np.int64)
        self._ph = np.zeros(cap, dtype=np.int64)
        self._cx = np.zeros(2 * cap + 1, dtype=np.int64)
        self._cy = np.zeros(2 * cap + 1, dtype=np.int64)
        self._n_placed = 0
        self._n_cand = 1  # the origin

    def _grow(self) -> None:
        for name in ("_px", "_py", "_pw", "_ph", "_cx", "_cy"):
            arr = getattr(self, name)
            setattr(self, name, np.concatenate([arr, np.zeros_like(arr)]))

    def mark(self) -> tuple[int, int]:
        return self._n_placed, self._n_cand

    def reset_to(self, mark: tuple[int, int]) -> None:
        self._n_placed, self._n_cand = mark

    def place(self, w: int, h: int) -> tuple[int, int] | None:
        """Place one w x h rectangle; returns its (x, y) or None if it cannot fit."""
        n, c, d = self._n_placed, self._n_cand, self.spacing
        cx, cy = self._cx[:c], self._cy[:c]
        ok = (cx + w <= self.bin_width) & (cy + h <= self.bin_height)
        if n:
            px, py = self._px[:n], self._py[:n]
            pw, ph = self._pw[:n], self._ph[:n]
            sep = ((cx[:, None] + (w + d) <= px[None, :])
                   | (px[None, :] + pw[None, :] + d <= cx[:, None])
                   | (cy[:, None] + (h + d) <= py[None, :])
                   | (py[None, :] + ph[None, :] + d <= cy[:, None]))
            ok &= sep.all(axis=1)
        if not ok.any():
            return None
        idx = np.flatnonzero(ok)
        best = idx[np.lexsort((cx[idx], cy[idx]))[0]]
        x, y = int(cx[best]), int(cy[best])
        if n + 1 > self._px.shape[0] or c + 2 > self._cx.shape[0]:
            self._grow()
        self._px[n], self._py[n], self._pw[n], self._ph[n] = x, y, w, h
        self._cx[c], self._cy[c] = x + w + d, y
        self._cx[c + 1], self._cy[c + 1] = x, y + h + d
        self._n_placed = n + 1
        self._n_cand = c + 2
        return x, y

    def placements(self) -> list[tuple[int, int, int, int]]:
        n = self._n_placed
        return [(int(self._px[i]), int(self._py[i]), int(self._pw[i]), int(self._ph[i]))
                for i in range(n)]


def all_pairs_verify_layout(layout, counts, instance, registry=None) -> bool:
    """Reference verifier that ``verify_layout`` must match: the same checks,
    with every pair of rectangles compared."""
    registry = registry if registry is not None else instance.registry()
    if any(n < 0 for n in counts.values()):
        return False
    try:
        expected = Counter({k: v for k, v in expand_counts(counts, registry).items()
                            if v > 0})
    except RegistryError:
        return False
    if Counter(oid for oid, _, _ in layout.placements) != expected:
        return False
    rects = []
    for oid, x, y in layout.placements:
        t = registry[oid]
        if t.is_compound or x < 0 or y < 0 or x + t.width > instance.bin_width \
                or y + t.height > instance.bin_height:
            return False
        rects.append((x, y, t.width, t.height))
    return all(separated(r1, r2, instance.spacing)
               for r1, r2 in itertools.combinations(rects, 2))


def tiny_instance(k: int) -> Instance:
    """Grid-aligned randomized instance with n <= 3 types and to <= 4.

    Item dimensions are a*(c+d)-d by b*(c+d)-d for a cell size c and spacing
    d, so packings live on a (c+d)-pitch grid and bottom-left placement can
    realize them.  Total to-bound is kept at <= 8 rectangles so the exact
    oracle's guards always hold.
    """
    rng = random.Random(9000 + k)
    cell = rng.choice([2, 3, 4])
    d = rng.choice([0, 1, 2])
    pitch = cell + d
    across = rng.choice([2, 3])
    up = rng.choice([2, 3])
    width = across * pitch - d
    height = up * pitch - d
    n = rng.randint(1, 3)
    rows = []
    for t in range(n):
        a = rng.randint(1, across)
        b = rng.randint(1, up)
        lo = rng.randint(0, 3)
        hi = min(lo + rng.randint(0, 2), 4)
        rows.append([f"t{t + 1}", a * pitch - d, b * pitch - d, lo, hi])
    while sum(r[4] for r in rows) > 8:
        rows.sort(key=lambda r: -r[4])
        rows[0][4] -= 1
        rows[0][3] = min(rows[0][3], rows[0][4])
    rows.sort(key=lambda r: r[0])
    return Instance(width, height, d, tuple(
        ItemType(r[0], r[1], r[2], r[3], r[4]) for r in rows))


def random_small_instance(rng: random.Random) -> Instance:
    """Small unconstrained-shape instance for placement fuzzing."""
    width = rng.randint(8, 24)
    height = rng.randint(8, 24)
    d = rng.randint(0, 3)
    n = rng.randint(1, 4)
    types = []
    for t in range(n):
        w = rng.randint(1, width)
        h = rng.randint(1, height)
        lo = rng.randint(0, 4)
        hi = lo + rng.randint(0, 4)
        types.append(ItemType(f"t{t + 1}", w, h, lo, hi))
    return Instance(width, height, d, tuple(types))


def lp_vertex_oracle(c, A, b, box: float = 1000.0):
    """Independent LP check by enumerating basic solutions.

    Returns ("optimal", value), ("infeasible", None) or ("unbounded", None)
    for max c.x s.t. A x <= b, x >= 0.  Vertices exist whenever the region is
    nonempty because x >= 0 keeps it pointed; unboundedness is decided on the
    recession cone boxed to [0, 1]^n.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    G = np.vstack([A, -np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])
    best = None
    for rows in itertools.combinations(range(m + n), n):
        M = G[list(rows)]
        rhs = h[list(rows)]
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if (G @ x <= h + 1e-8).all():
            value = float(c @ x)
            if best is None or value > best:
                best = value
    if best is None:
        return "infeasible", None
    G2 = np.vstack([A, -np.eye(n), np.eye(n)])
    h2 = np.concatenate([np.zeros(m), np.zeros(n), np.ones(n)])
    ray = 0.0
    for rows in itertools.combinations(range(m + 2 * n), n):
        M = G2[list(rows)]
        rhs = h2[list(rows)]
        try:
            t = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if (G2 @ t <= h2 + 1e-8).all():
            ray = max(ray, float(c @ t))
    if ray > 1e-7:
        return "unbounded", None
    return "optimal", best


def random_lp(rng: random.Random, max_vars: int = 4, max_rows: int = 6):
    """Random small LP with integer data; mixes feasible, infeasible and
    unbounded cases."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_rows)
    A = np.array([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
                 dtype=float)
    b = np.array([rng.randint(-5, 10) for _ in range(m)], dtype=float)
    c = np.array([rng.randint(-5, 5) for _ in range(n)], dtype=float)
    return c, A, b
