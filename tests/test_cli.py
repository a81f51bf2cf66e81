import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from math import ceil
from pathlib import Path

import pytest

import patternpack
from patternpack.cli import (InstanceFormatError, build_parser,
                             emit_solution, instance_digest,
                             instance_to_data, main, parse_instance,
                             parse_instance_data, render_pattern,
                             solution_record, verify_solution_file)
from patternpack.model import (InfeasibleInstanceError, Instance, ItemType,
                               SolverConfig, dff_lower_bound)
from patternpack.search import run

from helpers import tiny_instance


def test_parse_bundled_r1():
    inst = parse_instance("r1")
    assert (inst.bin_width, inst.bin_height, inst.spacing) == (614, 512, 6)
    assert len(inst.item_types) == 3
    t3 = inst.item_types[2]
    assert (t3.width, t3.height, t3.from_count, t3.to_count) == (28, 55, 2000, 2300)


def test_parse_bundled_r5():
    inst = parse_instance("r5")
    assert len(inst.item_types) == 10
    t10 = inst.item_types[9]
    assert (t10.width, t10.height, t10.from_count) == (27, 18, 5000)
    assert t10.to_count == 5750


def test_parse_rejects_oversized_item(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "bin": {"width": 614, "height": 512}, "spacing": 6,
        "items": [{"id": "x", "width": 700, "height": 100, "from": 1}],
    }))
    with pytest.raises(InfeasibleInstanceError):
        parse_instance(bad)


def test_parse_diagnostics_name_the_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "bin": {"width": 10, "height": 10}, "spacing": 0,
        "items": [{"id": "x", "width": 2, "from": 1}],
    }))
    with pytest.raises(InstanceFormatError, match=r"items\[0\].height"):
        parse_instance(bad)


def test_parse_rejects_from_above_to(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "bin": {"width": 10, "height": 10}, "spacing": 0,
        "items": [{"id": "x", "width": 2, "height": 2, "from": 5, "to": 3}],
    }))
    with pytest.raises(InstanceFormatError, match="exceeds"):
        parse_instance(bad)


def test_instance_round_trip():
    inst = parse_instance("r2")
    again = parse_instance_data(instance_to_data(inst))
    assert again == inst
    assert instance_digest(again) == instance_digest(inst)


def _solved_report(k=1):
    inst = tiny_instance(k)
    cfg = SolverConfig()
    return run(inst, cfg), cfg


def test_emit_and_verify_round_trip(tmp_path):
    report, cfg = _solved_report()
    out = tmp_path / "sol.json"
    emit_solution(report, cfg, out)
    assert verify_solution_file(out) == []


def test_emit_is_byte_stable(tmp_path):
    report1, cfg = _solved_report(4)
    report2, _ = _solved_report(4)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_solution(report1, cfg, a)
    emit_solution(report2, cfg, b)
    assert a.read_bytes() == b.read_bytes()
    record = json.loads(a.read_text())
    assert not [key for key in record if "time" in key or "second" in key]


def test_verify_reports_a_non_utf8_file(tmp_path):
    path = tmp_path / "sol.json"
    path.write_bytes(b"\xff\xfe")
    problems = verify_solution_file(path)
    assert len(problems) == 1
    assert problems[0].startswith("unreadable solution file: ")


def test_verify_flags_broken_layout(tmp_path):
    report, cfg = _solved_report(6)
    record = solution_record(report, cfg)
    block = record["pattern_blocks"][0]
    block["placements"].pop()  # layout no longer matches the counts
    out = tmp_path / "sol.json"
    out.write_text(json.dumps(record))
    assert verify_solution_file(out) != []


def _set_block(field, value):
    """Tamper: set (or, for None, delete) a field of the first block."""
    def tamper(record):
        block = record["pattern_blocks"][0]
        if value is None:
            del block[field]
        else:
            block[field] = value
        return record
    return tamper


def _block_not_an_object(record):
    record["pattern_blocks"][0] = ["t1", 0, 0]
    return record


def _negative_count_hides_overproduction(record):
    """4 B placed against a cap of 2, offset by a count of -2 B in a block
    that places only A: every total lands inside its range."""
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 4, 4), ItemType("B", 5, 5, 2, 2)))
    corners = [[0, 0], [5, 0], [0, 5], [5, 5]]
    return {**record, "instance": instance_to_data(inst),
            "instance_digest": instance_digest(inst), "bins": 2, "patterns": 2,
            "lower_bound": 2, "objective": 4.0, "gap": 0.0,
            "pattern_blocks": [
                {"counts": {"B": 4}, "x": 1,
                 "placements": [["B", *p] for p in corners]},
                {"counts": {"A": 4, "B": -2}, "x": 1,
                 "placements": [["A", *p] for p in corners]}]}


def _produced_overstated(record):
    return {**record, "produced": {"t1": 999}}


def _no_incumbent_but_bins_and_blocks(record):
    return {**record, "patterns": None, "pattern_blocks": "junk"}


def _set(field, value):
    """Tamper: set a top-level field of the record."""
    return pytest.param(lambda record: {**record, field: value},
                        id=f"{field}={value!r}")


def _drop(field):
    """Tamper: remove a top-level field of the record."""
    return pytest.param(
        lambda record: {k: v for k, v in record.items() if k != field},
        id=f"no-{field}")


def _no_incumbent_but_a_gap(record):
    record = {key: value for key, value in record.items() if key not in
              ("bins", "pattern_blocks", "produced", "objective")}
    return {**record, "patterns": None, "gap": 0.5}


def _shift(field, by):
    """Tamper: add ``by`` to a number field of the record."""
    return pytest.param(lambda record: {**record, field: record[field] + by},
                        id=f"{field}{by:+d}")


def _as_float(field):
    """Tamper: turn a count field, or each value of ``produced``, into a float
    that equals it."""
    def tamper(record):
        value = record[field]
        if isinstance(value, dict):
            return {**record, field: {k: float(n) for k, n in value.items()}}
        return {**record, field: float(value)}
    return pytest.param(tamper, id=f"{field}=float")


def _one_bin_record(record, **changes):
    """A valid record of one bin holding one item, with ``changes`` applied."""
    inst = Instance(10, 10, 0, (ItemType("A", 5, 5, 1, 1),))
    return {**record, "instance": instance_to_data(inst),
            "instance_digest": instance_digest(inst), "bins": 1, "patterns": 1,
            "produced": {"A": 1}, "lower_bound": 1, "objective": 2.0,
            "gap": 0.0,
            "pattern_blocks": [{"counts": {"A": 1}, "x": 1,
                                "placements": [["A", 0, 0]]}], **changes}


def _one_bin_true(field):
    """Tamper: a one-bin record whose count ``field`` is True, which == 1."""
    return pytest.param(lambda record: _one_bin_record(record, **{field: True}),
                        id=f"one-bin-{field}=True")


@pytest.mark.parametrize("tamper", [
    _set_block("x", None), _set_block("x", True),
    _set_block("placements", [["t1", 0]]), _set_block("counts", {"t1": "2"}),
    _block_not_an_object, lambda record: [record],
    _negative_count_hides_overproduction, _produced_overstated,
    _no_incumbent_but_bins_and_blocks,
    _set("objective", -5), _set("gap", 7.0), _set("gap", "x"),
    _set("lower_bound", None), _set("status", "bogus"),
    _drop("lower_bound"), _shift("lower_bound", 1), _shift("lower_bound", -1),
    _as_float("lower_bound"), _set("c1", 0), _drop("c2"), _shift("objective", 1),
    _set("format", "patternpack-solution-0"), _set("status", "infeasible"),
    _no_incumbent_but_a_gap,
    _as_float("bins"), _as_float("patterns"), _as_float("produced"),
    _one_bin_true("bins"), _one_bin_true("patterns"),
    _set("strategy", "bogus"), _set("strategy", "dfs"), _drop("strategy"),
    _set("seed", 1.5), _set("seed", None), _set("nodes_explored", -5),
    _set("nodes_explored", 2.0), _set("columns_generated", -1),
    _drop("columns_generated"),
])
def test_verify_reports_malformed_records(tmp_path, tamper):
    report, cfg = _solved_report(1)
    record = solution_record(report, cfg)
    assert record["pattern_blocks"][0]["x"] == 1
    out = tmp_path / "sol.json"
    out.write_text(json.dumps(tamper(record)))
    assert verify_solution_file(out) != []


def test_a_depth_first_record_verifies(tmp_path):
    """The benchmark's deep-dive solves depth-first and verifies each record
    it writes, though the CLI no longer offers that order."""
    cfg = SolverConfig(node_selection="depth_first")
    out = tmp_path / "sol.json"
    emit_solution(run(tiny_instance(1), cfg), cfg, out)
    assert json.loads(out.read_text())["strategy"] == "depth_first"
    assert verify_solution_file(out) == []


def test_one_bin_record_verifies(tmp_path):
    report, cfg = _solved_report(1)
    out = tmp_path / "sol.json"
    out.write_text(json.dumps(_one_bin_record(solution_record(report, cfg))))
    assert verify_solution_file(out) == []


def test_no_incumbent_record_omits_bins(tmp_path):
    inst = tiny_instance(2)
    cfg = SolverConfig(time_limit_seconds=0.0)
    report = run(inst, cfg)
    out = tmp_path / "none.json"
    emit_solution(report, cfg, out)
    record = json.loads(out.read_text())
    assert "bins" not in record
    assert record["patterns"] is None
    assert record["lower_bound"] == ceil(dff_lower_bound(inst))
    assert verify_solution_file(out) == []


def test_render_pattern_svg(tmp_path):
    report, cfg = _solved_report(1)
    record = solution_record(report, cfg)
    out = tmp_path / "p.svg"
    render_pattern(record["pattern_blocks"][0], report.instance, out)
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<rect") == 1 + len(record["pattern_blocks"][0]["placements"])
    ET.fromstring(text)

    # an id that parse_instance_data accepts but that is not XML text as is
    odd = parse_instance_data({
        "bin": {"width": 10, "height": 10}, "spacing": 0,
        "items": [{"id": "a<b&c", "width": 5, "height": 5, "from": 1}]})
    render_pattern({"placements": [["a<b&c", 0, 0]]}, odd, out)
    labels = [e.text for e in ET.fromstring(out.read_text())
              if e.tag.endswith("text")]
    assert labels == ["a<b&c"]


def test_cli_solve_exit_codes(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps({
        "bin": {"width": 10, "height": 10}, "spacing": 0,
        "items": [{"id": "A", "width": 5, "height": 5, "from": 4, "to": 4}],
    }))
    out = tmp_path / "sol.json"
    assert main(["solve", str(inst_file), "--quiet", "--out", str(out)]) == 0
    assert verify_solution_file(out) == []
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.endswith("OK: solution file verifies\n")
    record = json.loads(out.read_text())
    out.write_text(json.dumps({**record, "status": "bogus", "seed": None}))
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().out == (
        "FAIL: status: must be one of complete, time_limit, stopped\n"
        "FAIL: seed: must be an integer\n")

    missing = tmp_path / "missing.json"
    assert main(["solve", str(missing), "--quiet"]) == 4
    assert capsys.readouterr().err == f"error: {missing}: no such file\n"
    for cmd in (["solve", str(tmp_path), "--quiet"], ["oracle", str(tmp_path)]):
        assert main(cmd) == 4, cmd
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    assert main(["solve", str(binary), "--quiet"]) == 4
    assert capsys.readouterr().err.startswith(f"error: {binary}: ")

    giant = tmp_path / "giant.json"
    giant.write_text(json.dumps({
        "bin": {"width": 10, "height": 10}, "spacing": 0,
        "items": [{"id": "A", "width": 50, "height": 5, "from": 1}],
    }))
    for cmd in (["solve", str(giant), "--quiet"], ["oracle", str(giant)]):
        assert main(cmd) == 3, cmd
        assert capsys.readouterr().err.startswith("infeasible: "), cmd
    for bad in (["--c1", "0"], ["--c2", "-1"], ["--overproduction", "-1"]):
        assert main(["solve", "r1", "--quiet", *bad]) == 4, bad
        assert "error:" in capsys.readouterr().err
    for bad in (["--c1", "nan"], ["--c2", "inf"], ["--time-limit", "nan"],
                ["--time-limit", "-1"], ["--overproduction", "-1"],
                ["--overproduction", "nan"], ["--overproduction", "inf"]):
        assert main(["solve", str(inst_file), "--quiet", *bad]) == 4, bad
        assert "error:" in capsys.readouterr().err
    # every item of inst_file has its own ``to``, so no rate is ever applied
    for rate in ("-1", "nan", "inf"):
        assert main(["oracle", str(inst_file), "--overproduction", rate]) == 4
        assert capsys.readouterr().err.startswith(
            f"error: overproduction rate {float(rate)!r}: ")
    assert main(["solve", str(giant), "--quiet", "--c1", "0"]) == 3
    assert main(["oracle", "r1", "--overproduction", "-1"]) == 4
    assert "error:" in capsys.readouterr().err


def test_cli_solve_reports_progress_renders_and_names_the_status(
        tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps({
        "bin": {"width": 10, "height": 10}, "spacing": 0,
        "items": [{"id": "A", "width": 5, "height": 5, "from": 5, "to": 5},
                  {"id": "B", "width": 10, "height": 5, "from": 1, "to": 1}],
    }))
    svg = tmp_path / "svg"
    out = tmp_path / "sol.json"
    assert main(["solve", str(inst_file), "--render", str(svg),
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("bins=2 patterns=2 ")
    progress = captured.err.splitlines()
    assert progress and all(line.startswith("nodes=") for line in progress)
    assert "incumbent(bins/patterns)=2/2 " in progress[-1]
    blocks = json.loads(out.read_text())["pattern_blocks"]
    drawn = sorted(svg.iterdir())
    assert [path.name for path in drawn] == ["pattern_000.svg", "pattern_001.svg"]
    for path, block in zip(drawn, blocks):
        assert path.read_text().count("<rect") == 1 + len(block["placements"])

    # no incumbent means the time ran out, and the message says so
    assert main(["solve", str(inst_file), "--quiet", "--time-limit", "0"]) == 2
    assert capsys.readouterr().out == (
        "no solution found: status=time_limit lower_bound=2\n")


def test_cli_solve_reports_unwritable_outputs(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps({
        "bin": {"width": 10, "height": 10}, "spacing": 0,
        "items": [{"id": "A", "width": 5, "height": 5, "from": 4, "to": 4}],
    }))
    out = tmp_path / "missing" / "sol.json"
    assert main(["solve", str(inst_file), "--quiet", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert main(["solve", str(inst_file), "--quiet", "--render",
                 str(inst_file)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {inst_file}: ")


def test_cli_solve_has_no_strategy_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "r1", "--quiet", "--strategy", "dfs"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strategy dfs" in capsys.readouterr().err


def test_cli_solve_time_limit_defaults_to_60_seconds():
    parser = build_parser()
    assert parser.parse_args(["solve", "r1"]).time_limit == 60.0
    unlimited = parser.parse_args(["solve", "r1", "--time-limit", "inf"])
    cfg = SolverConfig(time_limit_seconds=unlimited.time_limit)
    assert cfg.time_limit_seconds == float("inf")


def test_cli_oracle_subcommand(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps({
        "bin": {"width": 10, "height": 10}, "spacing": 2,
        "items": [{"id": "A", "width": 4, "height": 4, "from": 8, "to": 9}],
    }))
    assert main(["oracle", str(inst_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["bins"], out["patterns"]) == (2, 1)

    # each size guard turns into an input error
    many = tmp_path / "many.json"
    many.write_text(json.dumps({
        "bin": {"width": 100, "height": 100}, "spacing": 0,
        "items": [{"id": "A", "width": 1, "height": 1, "from": 9, "to": 9}],
    }))
    assert main(["oracle", str(many)]) == 4
    assert capsys.readouterr().err == (
        "error: candidate with 9 rectangles exceeds the guard of 8\n")
    assert main(["oracle", "r1"]) == 4
    assert capsys.readouterr().err == (
        "error: 16281876 candidate vectors exceed the guard of 10000\n")


def test_every_package_export_exists():
    missing = [name for name in patternpack.__all__
               if not hasattr(patternpack, name)]
    assert missing == []


def test_cli_entry_point_runs():
    # the child must import the same patternpack as this process
    src = str(Path(patternpack.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "patternpack.cli", "--help"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "solve" in proc.stdout
