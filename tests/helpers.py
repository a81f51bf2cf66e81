"""Shared test utilities: instance generators, node builders, independent oracles."""

import itertools
import random

import numpy as np

from patternpack.branching import NodeProblem
from patternpack.model import (ApartRule, Instance, ItemType, Layout,
                               make_column, node_rng)


def build_node(instance, counts_list, registry=None, mult=None,
               conflicts=frozenset(), caps=frozenset(), node_id=0, seed=0):
    """Node with the given sparse count vectors.

    Each column gets a real bottom-left witness (types in registry order);
    the given counts must therefore actually fit one bin.  ``conflicts`` and
    ``caps`` become apart rules whose basis is the node's active type set.
    """
    from patternpack.placement import expansion_sequence, place_counts

    registry = registry if registry is not None else instance.registry()
    if mult is None:
        mult = {t.id: (t.from_count, t.to_count) for t in instance.item_types}
    basis = frozenset(mult)
    rules = frozenset(
        {ApartRule(a, b, basis) for a, b in conflicts}
        | {ApartRule(i, i, basis) for i in caps})
    cols = []
    for counts in counts_list:
        order = expansion_sequence(counts, [t.id for t in registry], registry)
        layout = place_counts(counts, order, instance, registry)
        if layout is None:
            raise AssertionError(f"test column {counts} does not fit one bin")
        cols.append(make_column(counts, layout, registry))
    return NodeProblem(id=node_id, parent_id=None, depth=0,
                       multiplicities=mult, columns=cols, registry=registry,
                       rules=rules, rng=node_rng(seed, node_id))


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
