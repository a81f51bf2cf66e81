"""Command-line front end: instance files, bundled datasets, runs, reports.

Instance files are JSON documents::

    {"bin": {"width": 614, "height": 512},
     "spacing": 6,
     "items": [{"id": "t1", "width": 55, "height": 111, "from": 50}, ...]}

``to`` may be omitted per item; it is then derived from the overproduction
rate at load time.  Solution files are JSON as well, self-contained (they
embed the instance and the weights c1 and c2, so layouts, the objective and
the certified ``lower_bound`` can be checked again later) and free of
timings, so a fixed instance, seed and search give the same bytes on every
run with the same BLAS thread count.  The bits of the master LP depend on
that count (see ``search.run``), and some searches take another tree under
another.
"""

import argparse
import hashlib
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .master import report_objective
from .model import (InfeasibleInstanceError, Instance, InvalidInstanceError,
                    ItemType, Layout, NODE_SELECTIONS, SolverConfig, derive_to,
                    dff_lower_bound, expand_counts)
from .oracle import OracleGuardError, exact_solve
from .placement import verify_layout
from .search import STATUSES, SearchReport, run

EXIT_OK = 0
EXIT_NO_INCUMBENT = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4

BUNDLED = ("r1", "r2", "r3", "r4", "r5")

RECORD_FORMAT = "patternpack-solution-2"


class InstanceFormatError(ValueError):
    """Malformed instance file; the message names the offending field."""


_KIND_NAMES = {int: "an integer", str: "a string", dict: "an object",
               list: "a list"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise InstanceFormatError(f"{where}.{key}: missing")
    value = mapping[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise InstanceFormatError(f"{where}.{key}: must be {_KIND_NAMES[kind]}")
    return value


def parse_instance_data(data, overproduction_rate: float = 0.15,
                        where: str = "instance") -> Instance:
    if not (_is_number(overproduction_rate) and overproduction_rate >= 0):
        raise InstanceFormatError(f"overproduction rate {overproduction_rate!r}: "
                                  "must be a finite number >= 0")
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{where}: must be a JSON object")
    bin_spec = _require(data, "bin", dict, where)
    bin_w = _require(bin_spec, "width", int, f"{where}.bin")
    bin_h = _require(bin_spec, "height", int, f"{where}.bin")
    spacing = _require(data, "spacing", int, where)
    items = _require(data, "items", list, where)
    types = []
    for k, item in enumerate(items):
        at = f"{where}.items[{k}]"
        if not isinstance(item, dict):
            raise InstanceFormatError(f"{at}: must be an object")
        tid = _require(item, "id", str, at)
        width = _require(item, "width", int, at)
        height = _require(item, "height", int, at)
        lo = _require(item, "from", int, at)
        if "to" in item:
            hi = _require(item, "to", int, at)
        else:
            hi = derive_to(lo, overproduction_rate)
        try:
            types.append(ItemType(id=tid, width=width, height=height,
                                  from_count=lo, to_count=hi))
        except InvalidInstanceError as exc:
            raise InstanceFormatError(f"{at}: {exc}") from None
    try:
        return Instance(bin_width=bin_w, bin_height=bin_h, spacing=spacing,
                        item_types=tuple(types))
    except InvalidInstanceError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from None


def parse_instance(path: str | Path,
                   overproduction_rate: float = 0.15) -> Instance:
    """Load an instance file; ``to`` is derived where omitted.

    Bundled dataset names (r1..r5) resolve to the packaged data files.
    """
    name = str(path)
    if name in BUNDLED:
        text = resources.files("patternpack.data").joinpath(f"{name}.json") \
            .read_text(encoding="utf-8")
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise InstanceFormatError(f"{path}: no such file") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise InstanceFormatError(f"{path}: unreadable ({exc})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON ({exc})") from None
    return parse_instance_data(data, overproduction_rate, where=str(path))


def instance_to_data(instance: Instance) -> dict:
    return {
        "bin": {"width": instance.bin_width, "height": instance.bin_height},
        "spacing": instance.spacing,
        "items": [{"id": t.id, "width": t.width, "height": t.height,
                   "from": t.from_count, "to": t.to_count}
                  for t in instance.item_types],
    }


def instance_digest(instance: Instance) -> str:
    canonical = json.dumps(instance_to_data(instance), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def solution_record(report: SearchReport, cfg: SolverConfig) -> dict:
    """Serializable run record.  It holds no timings, so repeated identical
    runs give identical records."""
    instance = report.instance
    registry = report.registry  # knows the compound types the search created
    record = {
        "format": RECORD_FORMAT,
        "instance": instance_to_data(instance),
        "instance_digest": instance_digest(instance),
        "strategy": cfg.node_selection,
        "seed": cfg.rng_seed,
        "status": report.status,
        "lower_bound": report.lower_bound,
        "c1": cfg.c1,
        "c2": cfg.c2,
        "nodes_explored": report.stats.nodes_explored,
        "columns_generated": report.stats.columns_generated,
    }
    sol = report.solution
    if sol is None:
        record["gap"] = None
        record["patterns"] = None
        return record
    record["bins"] = sol.bins
    record["patterns"] = sol.patterns
    record["gap"] = round(report.gap, 9) if report.gap is not None else None
    record["objective"] = report_objective(sol, cfg)
    record["produced"] = {tid: n for tid, n in sol.s}
    blocks = []
    for col, x in sol.assignments:
        counts = expand_counts(col.counts_dict(), registry)
        blocks.append({
            "counts": {tid: n for tid, n in sorted(counts.items())},
            "x": x,
            "placements": [[oid, px, py] for oid, px, py in col.witness.placements],
        })
    record["pattern_blocks"] = blocks
    return record


def emit_solution(report: SearchReport, cfg: SolverConfig,
                  path: str | Path) -> None:
    """Write the run record as canonical JSON (sorted keys, trailing newline)."""
    record = solution_record(report, cfg)
    Path(path).write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _parse_block(block, at: str) -> tuple[Layout, dict[str, int], int]:
    """Layout, counts and multiplicity of one record block, type-checked."""
    if not isinstance(block, dict):
        raise InstanceFormatError(f"{at}: must be an object")
    counts = _require(block, "counts", dict, at)
    for tid in counts:
        if _require(counts, tid, int, f"{at}.counts") < 0:
            raise InstanceFormatError(f"{at}.counts.{tid}: must be >= 0")
    placements = []
    for p, entry in enumerate(_require(block, "placements", list, at)):
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and all(map(_is_int, entry[1:]))):
            raise InstanceFormatError(
                f"{at}.placements[{p}]: must be [type id, x, y]")
        placements.append(tuple(entry))
    return Layout(tuple(placements)), counts, _require(block, "x", int, at)


def verify_solution_file(path: str | Path) -> list[str]:
    """Re-check an emitted record; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"unreadable solution file: {exc}"]
    if not isinstance(record, dict):
        return ["solution record: must be a JSON object"]
    try:
        instance = parse_instance_data(record["instance"], where="instance")
    except (KeyError, InstanceFormatError, InfeasibleInstanceError) as exc:
        return [f"embedded instance invalid: {exc}"]
    if record.get("instance_digest") != instance_digest(instance):
        problems.append("instance digest mismatch")
    if record.get("format") != RECORD_FORMAT:
        problems.append(f"format: must be {RECORD_FORMAT!r}")
    if record.get("status") not in STATUSES:
        problems.append(f"status: must be one of {', '.join(STATUSES)}")
    bound = math.ceil(dff_lower_bound(instance))
    if not (_is_int(record.get("lower_bound")) and record["lower_bound"] == bound):
        problems.append(f"lower_bound: must be {bound}, the ceiling of the "
                        "instance's dual-feasible-function bound")
    c1, c2 = record.get("c1"), record.get("c2")
    for key, value in (("c1", c1), ("c2", c2)):
        if not (_is_number(value) and value > 0):
            problems.append(f"{key}: must be a finite positive number")
    if record.get("strategy") not in NODE_SELECTIONS:
        problems.append(f"strategy: must be one of {', '.join(NODE_SELECTIONS)}")
    if not _is_int(record.get("seed")):
        problems.append("seed: must be an integer")
    for key in ("nodes_explored", "columns_generated"):
        if not (_is_int(record.get(key)) and record[key] >= 0):
            problems.append(f"{key}: must be a non-negative integer")
    if record.get("patterns") is None:  # no incumbent was found
        problems += [f"{key}: present although the record has no incumbent"
                     for key in ("bins", "pattern_blocks", "produced", "objective")
                     if key in record]
        if record.get("gap") is not None:
            problems.append("gap: must be null without an incumbent")
        return problems
    registry = instance.registry()
    totals = {t.id: 0 for t in instance.item_types}
    bins = 0
    blocks = record.get("pattern_blocks", [])
    if not isinstance(blocks, list):
        return problems + ["pattern_blocks: must be a list"]
    for k, block in enumerate(blocks):
        try:
            layout, counts, x = _parse_block(block, f"pattern_blocks[{k}]")
        except InstanceFormatError as exc:
            problems.append(str(exc))
            continue
        if not verify_layout(layout, counts, instance, registry):
            problems.append(f"pattern_blocks[{k}]: layout fails verification")
        if x <= 0:
            problems.append(f"pattern_blocks[{k}]: x must be a positive integer")
            continue
        bins += x
        for tid, n in counts.items():
            totals[tid] = totals.get(tid, 0) + n * x
    if not (_is_int(record.get("bins")) and record["bins"] == bins):
        problems.append(f"bins field ({record.get('bins')!r}) != sum of x ({bins})")
    objective = record.get("objective")
    if not (_is_number(objective) and _is_number(c1) and _is_number(c2) and
            math.isclose(objective, c1 * len(blocks) + c2 * bins, rel_tol=1e-9)):
        problems.append("objective: must be c1 * patterns + c2 * bins")
    if bins < bound:
        problems.append(f"bins ({bins}) below the certified lower bound ({bound})")
    gap, expected = record.get("gap"), (bins - bound) / bins if bins > 0 else 0.0
    if not (_is_number(gap) and abs(gap - expected) <= 1e-8):
        problems.append(f"gap: must be (bins - lower_bound) / bins ({expected})")
    if not (_is_int(record.get("patterns")) and record["patterns"] == len(blocks)):
        problems.append("patterns field does not match the number of blocks")
    produced = record.get("produced")
    if not (isinstance(produced, dict) and all(map(_is_int, produced.values()))
            and produced == totals):
        problems.append("produced field does not match the totals of the blocks")
    for t in instance.item_types:
        if not (t.from_count <= totals.get(t.id, 0) <= t.to_count):
            problems.append(
                f"production of {t.id!r} ({totals.get(t.id, 0)}) outside "
                f"[{t.from_count}, {t.to_count}]")
    return problems


def render_pattern(block: dict, instance: Instance, path: str | Path) -> None:
    """One SVG drawing per pattern: bin outline plus labeled item rectangles,
    1 mm = 1 unit."""
    # imported here: xml.sax.saxutils pulls in urllib.request, http and ssl,
    # ~50 ms that every other command would pay at start-up
    from xml.sax.saxutils import escape

    W, H = instance.bin_width, instance.bin_height
    dims = {t.id: (t.width, t.height) for t in instance.item_types}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}" '
        f'width="{W}" height="{H}">',
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="white" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for oid, x, y in block.get("placements", []):
        w, h = dims[oid]
        ys = H - y - h  # SVG y axis points down
        font = max(4, min(w, h) // 3)
        parts.append(
            f'<rect x="{x}" y="{ys}" width="{w}" height="{h}" '
            f'fill="#9ecae1" stroke="#08306b" stroke-width="0.5"/>')
        parts.append(
            f'<text x="{x + w / 2}" y="{ys + h / 2}" font-size="{font}" '
            f'text-anchor="middle" dominant-baseline="middle">{escape(oid)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _gap_text(gap: float | None) -> str:
    return "n/a" if gap is None else f"{100 * gap:.1f}%"


def _input_error(exc: ValueError) -> int:
    """Print why the input cannot be solved and return the exit code:
    ``EXIT_INFEASIBLE`` for an infeasible instance, ``EXIT_INPUT`` for a
    malformed file or an out-of-range option."""
    if isinstance(exc, InfeasibleInstanceError):
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT


def _cmd_solve(args) -> int:
    try:
        instance = parse_instance(args.instance, args.overproduction)
        cfg = SolverConfig(c1=args.c1, c2=args.c2, rng_seed=args.seed,
                           time_limit_seconds=args.time_limit)
    except ValueError as exc:
        return _input_error(exc)

    def show(event) -> bool:
        gap = _gap_text(event.gap)
        inc = "-" if event.incumbent_bins is None else \
            f"{event.incumbent_bins}/{event.incumbent_patterns}"
        print(f"nodes={event.nodes_explored} incumbent(bins/patterns)={inc} "
              f"lower_bound={event.lower_bound} gap={gap}", file=sys.stderr)
        return False

    report = run(instance, cfg, progress=show if not args.quiet else None)
    sol = report.solution
    try:
        if args.out:
            emit_solution(report, cfg, args.out)
        if args.render and sol is not None:
            out_dir = Path(args.render)
            out_dir.mkdir(parents=True, exist_ok=True)
            record = solution_record(report, cfg)
            for k, block in enumerate(record["pattern_blocks"]):
                render_pattern(block, instance, out_dir / f"pattern_{k:03d}.svg")
    except OSError as exc:  # an unwritable --out or --render path
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    if sol is None:
        print(f"no solution found: status={report.status} "
              f"lower_bound={report.lower_bound}")
        return EXIT_NO_INCUMBENT
    print(f"bins={sol.bins} patterns={sol.patterns} "
          f"objective={report_objective(sol, cfg):.6g} "
          f"gap={_gap_text(report.gap)} "
          f"status={report.status} "
          f"time={report.stats.wall_time_seconds:.1f}s "
          f"nodes={report.stats.nodes_explored}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    problems = verify_solution_file(args.solution)
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print("OK: solution file verifies")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    try:
        instance = parse_instance(args.instance, args.overproduction)
    except ValueError as exc:
        return _input_error(exc)
    try:
        result = exact_solve(instance)
    except OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps({
        "bins": result.bins,
        "patterns": result.patterns,
        "assignment": [{"counts": dict(vec), "x": x}
                       for vec, x in result.assignment],
    }, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternpack",
        description="Bin packing with pattern-count minimization via "
                    "branch-and-price.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file or bundled dataset")
    solve.add_argument("instance", help="path to an instance JSON, or r1..r5")
    solve.add_argument("--time-limit", type=float, default=60.0, metavar="S",
                       help="wall-clock limit in seconds (default 60; inf: none)")
    solve.add_argument("--seed", type=int, default=0, metavar="N")
    solve.add_argument("--c1", type=float, default=1.0, metavar="X")
    solve.add_argument("--c2", type=float, default=1.0, metavar="Y")
    solve.add_argument("--out", default=None, metavar="FILE",
                       help="write the solution record to FILE")
    solve.add_argument("--render", default=None, metavar="DIR",
                       help="write one SVG per pattern into DIR")
    solve.add_argument("--overproduction", type=float, default=0.15)
    solve.add_argument("--quiet", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="re-verify a solution record")
    verify.add_argument("solution")
    verify.set_defaults(func=_cmd_verify)

    oracle = sub.add_parser("oracle", help="exact solve (tiny instances only)")
    oracle.add_argument("instance")
    oracle.add_argument("--overproduction", type=float, default=0.15)
    oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
