"""Per-layer timing of one solve, taken from outside the solver.

Each public function a layer calls into another is replaced, in the module
where the caller looks it up, by a wrapper that times the call.  Wrappers
keep a stack of open spans, so every span's self time is its duration minus
the time of the spans it called; the self times of all spans under the root
span add up to the root's duration.  Spans are aggregated per name in memory
(a tiny-items solve makes ~10^5 ``place`` calls), never written one by one.
"""

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

ROOT_SPAN = "search.run"


def _lp_shape(tracer: "Tracer", caller, args, result) -> None:
    rows, cols = args[0].A.shape
    tracer.counts["simplex.rows"] += rows
    tracer.counts["simplex.cols"] += cols


def _place(tracer: "Tracer", caller, args, result) -> None:
    if result is None:
        tracer.counts["placement.place_fail"] += 1


def _fill(tracer: "Tracer", caller, args, result) -> None:
    if caller == "pricing.price":
        tracer.counts["pricing.fills_in_price"] += 1
    if result is not None:
        tracer.counts["pricing.filled"] += 1
        tracer.counts["pricing.rects"] += len(result.witness.placements)


def _price(tracer: "Tracer", caller, args, result) -> None:
    tracer.counts["pricing.kept"] += len(result)


def _child(tracer: "Tracer", caller, args, result) -> None:
    if result is not None:
        tracer.counts["branching.children_kept"] += 1


def _node_solved(tracer: "Tracer", caller, args, result) -> None:
    if tracer.root_done is None:
        tracer.root_done = perf_counter()


# (module, owner inside the module or "", attribute, span name, observer)
TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("patternpack.search", "", "initial_columns", "search.initial_columns", None),
    ("patternpack.search", "", "column_generation", "search.column_generation",
     _node_solved),
    ("patternpack.search", "", "solve_rmp", "master.rmp", None),
    ("patternpack.search", "", "price", "pricing.price", _price),
    ("patternpack.search", "", "greedy_fill", "pricing.fill", _fill),
    ("patternpack.pricing", "", "greedy_fill", "pricing.fill", _fill),
    ("patternpack.branching", "", "greedy_fill", "pricing.fill", _fill),
    ("patternpack.search", "", "verify_layout", "placement.verify", None),
    ("patternpack.branching", "", "verify_layout", "placement.verify", None),
    ("patternpack.placement", "BottomLeftPacker", "place", "placement.place", _place),
    ("patternpack.master", "", "solve_lp", "simplex.lp", _lp_shape),
    ("patternpack.search", "", "select_branching_pair", "branching.select", None),
    ("patternpack.search", "", "make_left_child", "branching.left", _child),
    ("patternpack.search", "", "make_right_child", "branching.right", _child),
)


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.root_start: float | None = None
        self.root_done: float | None = None
        self._stack: list[list] = []   # open spans: [name, time of children]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self, caller, args, result)
            return result

        return traced

    def run(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as the root span."""
        self.root_start = perf_counter()
        return self.wrap(ROOT_SPAN, fn)(*args, **kwargs)

    def __enter__(self) -> "Tracer":
        for module, owner, attr, name, observe in TARGETS:
            target = importlib.import_module(module)
            if owner:
                target = getattr(target, owner)
            original = target.__dict__[attr]
            self._saved.append((target, attr, original))
            setattr(target, attr, self.wrap(name, original, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)
