import ast
import functools
import gc
import json
import os
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from cantor_measure import cli, codes, errors, measure, names, stepfn
from cantor_measure.codes import nodes
from cantor_measure.dsl import MAX_CODE_BITS, MAX_CODE_NODES, MAX_RELOC_INDEX, parse_dsl
from cantor_measure.errors import (BudgetError, CantorMeasureError, CertificateError, ParseError,
                                   StatisticalGateError, ValidationError)
from cantor_measure.names import char_name
from cantor_measure.space import ClopenSet, SeededPoint
from cantor_measure.stepfn import StepFunction


def run_main(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_measure_exact_output(capsys):
    rc, out, _ = run_main(capsys, "measure", "inter(cyl(0),cyl(01))")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "cantor-measure/1"
    assert doc["command"] == "measure"
    assert doc["measure"] == "1/2^2"


def test_parse_reports_shape(capsys):
    rc, out, _ = run_main(capsys, "parse", "union(cyl(0),compl(cyl(11)))")
    assert rc == 0
    doc = json.loads(out)
    assert doc["complement_free"] is False
    assert "expr" in doc and "code" in doc


def test_eval_needs_point(capsys):
    rc, _, err = run_main(capsys, "eval", "cyl(0)")
    assert rc == 3
    assert "point" in err


def test_eval_member(capsys):
    rc, out, _ = run_main(capsys, "eval", "cyl(010)", "--point", "u=:v=01")
    assert rc == 0
    doc = json.loads(out)
    assert doc["member"] is True
    assert doc["eval_map"][""] == 1


def test_parse_error_exit_2(capsys):
    rc, _, err = run_main(capsys, "measure", "union(cyl(0)")
    assert rc == 2
    assert "expecting" in err


@pytest.mark.parametrize("expr", ["reloc(²,cyl(0))", "reloc(٣,cyl(0))", "cyl(٠١)"])
def test_non_ascii_digit_is_a_parse_error(expr, capsys):
    rc, out, err = run_main(capsys, "measure", expr)
    assert rc == 2 and out == ""
    assert "unexpected character" in err and "Traceback" not in err


@pytest.mark.parametrize("index", [MAX_RELOC_INDEX + 1, 99999999999999999999])
def test_reloc_index_over_its_limit_exit_3(index, capsys):
    rc, out, err = run_main(capsys, "measure", f"reloc({index},cyl(0))")
    assert rc == 3 and out == ""
    assert f"exceeds MAX_RELOC_INDEX = {MAX_RELOC_INDEX}" in err and "Traceback" not in err


def test_code_over_its_node_limit_exit_3(capsys):
    """65536 leaves under one union are one node over the limit, and 256
    unions of 256 leaves under another are over it too; 65535 leaves under
    one union are exactly at it."""
    for expr in ["bigunion(i,1,65536,cyl(0))", "bigunion(i,0,255,bigunion(j,0,255,cyl(0)))"]:
        rc, out, err = run_main(capsys, "decompose", expr)
        assert rc == 3 and out == ""
        assert f"code exceeds MAX_CODE_NODES = {MAX_CODE_NODES} nodes" in err
    assert len(parse_dsl("bigunion(i,1,65535,cyl(0))").children) == MAX_CODE_NODES - 1


def test_code_over_its_bit_limit_exit_3(capsys):
    """Each reloc of a one-bit leaf at index 2^24 builds 2^24 + 2 bits, so a
    bigunion of 200 of them is over the limit before its fourth is built;
    one of them is within it."""
    rc, out, err = run_main(capsys, "measure", "bigunion(i,0,199,reloc(16777216,cyl(0)))")
    assert rc == 3 and out == ""
    assert f"code exceeds MAX_CODE_BITS = {MAX_CODE_BITS} generator bits (line 1, col 40)" in err
    rc, out, _ = run_main(capsys, "measure", "reloc(16777216,cyl(0))")
    assert rc == 0 and json.loads(out)["measure"] == "1/2^16777218"


@pytest.mark.parametrize("argv", [
    ["measure", "reloc(%s,cyl(0))" % ("9" * 5000)],
    ["measure", "bigunion(i,2,%s,cyl(0))" % ("9" * 5000)],
    ["measure", "union(cyl(1),reloc(14300,cyl(0)))"],
    ["measure", "union(cyl(1),reloc(14300,cyl(0)))", "--mc", "10"],
    ["decompose", "union(cyl(1),reloc(14300,cyl(0)))"],
    ["report", "union(cyl(1),reloc(14300,cyl(0)))"],
])
def test_numbers_over_the_int_str_limit_exit_3(argv, capsys):
    """A nat, or the numerator of an exact value, with more digits than the
    interpreter converts between int and str is a validation error."""
    rc, out, err = run_main(capsys, *argv)
    assert rc == 3 and out == ""
    assert f"exceeds the int/str conversion limit of {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("argv", [
    ["parse", "cyl(0)", "--rank", "9" * 5000],
    ["parse", "cyl(0)", "--rank", "w^2*%s+1" % ("9" * 5000)],
    ["decorate", "cyl(0)", "--budget", "w^%s" % ("9" * 5000)],
    ["decorate", "cyl(0)", "--generator", "split", "--budget", "1,%s" % ("9" * 5000)],
])
def test_ordinal_digits_over_the_int_str_limit_exit_3(argv, capsys):
    """--rank and --budget numbers are read with the DSL's nat limit."""
    rc, out, err = run_main(capsys, *argv)
    assert rc == 3 and out == ""
    assert (f"5000-digit number exceeds the int/str conversion limit of"
            f" {sys.get_int_max_str_digits()} digits") in err


def test_int_str_limit_is_the_interpreters(capsys):
    """A lowered limit is the one checked and named; an exact value within
    the default limit still prints."""
    rc, out, _ = run_main(capsys, "measure", "union(cyl(1),reloc(14200,cyl(0)))")
    assert rc == 0 and len(out) == 4506
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        for expr in ["reloc(%s,cyl(0))" % ("1" * 1001), "union(cyl(1),reloc(14200,cyl(0)))"]:
            rc, out, err = run_main(capsys, "measure", expr)
            assert rc == 3 and out == ""
            assert "exceeds the int/str conversion limit of 1000 digits" in err
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("verb", ["measure", "report"])
def test_mc_trials_over_their_limit_exit_3(verb, capsys):
    limit = cli.MAX_MC_TRIALS
    rc, out, err = run_main(capsys, verb, "cyl(0)", "--mc", str(limit + 1))
    assert rc == 3 and out == ""
    assert f"--mc {limit + 1} exceeds MAX_MC_TRIALS = {limit}" in err
    rc, out, _ = run_main(capsys, verb, "full", "--mc", str(limit))
    assert rc == 0 and json.loads(out)["trials"] == limit


def test_bad_point_spec_exit_3(capsys):
    rc, _, err = run_main(capsys, "eval", "cyl(0)", "--point", "w=01")
    assert rc == 3


def test_rank_mismatch_exit_3(capsys):
    rc, out, _ = run_main(capsys, "parse", "union(cyl(0),cyl(1))", "--rank", "w")
    assert rc == 3
    doc = json.loads(out)
    bad = [a for a in doc["assertions"] if not a["pass"]]
    assert bad and bad[0]["name"] == "root rank"
    assert bad[0] == {"name": "root rank", "pass": False, "got": "2", "want": "w"}


def test_rank_match_ok(capsys):
    rc, out, _ = run_main(capsys, "parse", "union(cyl(0),cyl(1))", "--rank", "2")
    assert rc == 0
    assert all(a["pass"] for a in json.loads(out)["assertions"])


def test_certificate_and_gate_mapping(capsys, monkeypatch):
    def boom(args):
        raise CertificateError("tampered")

    monkeypatch.setitem(cli._COMMANDS, "measure", boom)
    rc, _, err = run_main(capsys, "measure", "cyl(0)")
    assert rc == 4 and "tampered" in err

    def gate(args):
        raise StatisticalGateError("too many captures")

    monkeypatch.setitem(cli._COMMANDS, "measure", gate)
    rc, _, err = run_main(capsys, "measure", "cyl(0)")
    assert rc == 5 and "captures" in err


# README's exit code and the stderr prefix of each error main catches
_EXITS = {
    ParseError: (2, "parse error: "),
    ValidationError: (3, "validation error: "),
    OSError: (3, "io error: "),
    CertificateError: (4, "certificate error: "),
    BudgetError: (4, "certificate error: "),
    StatisticalGateError: (5, "statistical gate: "),
}


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_every_package_error_exits_with_its_documented_code(capsys, monkeypatch):
    """Every error class errors.py defines, and OSError, raised inside a
    verb, exits with README's code, prints nothing on stdout and one line
    with its prefix on stderr, and no traceback.  A new class without an
    entry in _EXITS fails here, and no module raises the bare base class,
    which main does not catch."""
    classes = [c for c in _subclasses(CantorMeasureError) if c.__module__ == errors.__name__]
    assert {*classes, OSError} == set(_EXITS)
    for cls, (code, prefix) in _EXITS.items():
        def fail(args, cls=cls):
            raise cls("planted failure")

        monkeypatch.setitem(cli._COMMANDS, "measure", fail)
        rc, out, err = run_main(capsys, "measure", "cyl(0)")
        assert (rc, out) == (code, ""), cls
        assert err.startswith(prefix + "planted failure") and err.count("\n") == 1, (cls, err)
        assert "Traceback" not in err
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                assert name != "CantorMeasureError", f"{path.name}:{node.lineno}"


def test_json_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "out.json"
    rc, out, _ = run_main(capsys, "measure", "cyl(01)", "--json", str(path))
    assert rc == 0
    assert path.read_text() == out


def test_json_write_failure_exit_3(tmp_path, capsys):
    rc, _, err = run_main(capsys, "measure", "cyl(01)", "--json", str(tmp_path))
    assert rc == 3
    assert "error" in err


def test_reports_byte_stable(capsys):
    args = ("report", "union(cyl(0),cyl(11))", "--mc", "200", "--seed", "7")
    _, a, _ = run_main(capsys, *args)
    _, b, _ = run_main(capsys, *args)
    assert a == b
    assert a.endswith("\n")


def test_digest_tracks_inputs(capsys):
    _, a, _ = run_main(capsys, "measure", "cyl(0)")
    _, b, _ = run_main(capsys, "measure", "cyl(1)")
    da = json.loads(a)["digest"]
    db = json.loads(b)["digest"]
    assert da != db
    _, c, _ = run_main(capsys, "measure", "cyl(0)")
    assert json.loads(c)["digest"] == da


def test_decompose_rows(capsys):
    rc, out, _ = run_main(capsys, "decompose", "union(cyl(0),inter(cyl(1),cyl(11)))")
    assert rc == 0
    doc = json.loads(out)
    rows = doc["addresses"]
    assert doc["measure"] == "3/2^2"
    assert all(a["pass"] for a in doc["assertions"])
    root = next(r for r in rows if r["address"] == "")
    assert root["integral"] == "3/2^2"
    assert {r["address"] for r in rows} == {"", "0", "1", "1.0", "1.1"}


def test_tests_combine_budget_table(capsys):
    rc, out, _ = run_main(capsys, "tests-combine", "union(cyl(0),cyl(10))", "--depth", "2")
    assert rc == 0
    doc = json.loads(out)
    table = doc["stage_measures"]
    assert all(a["pass"] for a in doc["assertions"])
    assert len(table) == 3 and len(table[0]) == 3
    for n, row in enumerate(table):
        for entry in row:
            num, exp = entry.split("/2^")
            assert int(num) <= 2 ** (int(exp) - n)


def test_decorate_verb(capsys):
    rc, out, _ = run_main(
        capsys, "decorate", "union(cyl(0),inter(cyl(10),cyl(1)))",
        "--generator", "empty", "--depth", "1",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["preserved"] == doc["checked_points"] - len(doc["captured"])
    assert all(a["pass"] for a in doc["assertions"])
    assert "expr" in doc and doc["budgets"] == ["1", "2", "3"]
    assert doc["rank"] == "3"


def test_decorate_split_generator(capsys):
    rc, out, _ = run_main(
        capsys, "decorate", "union(cyl(0),inter(cyl(10),cyl(1)))",
        "--generator", "split", "--budget", "1,2", "--depth", "2",
    )
    assert rc == 0
    doc = json.loads(out)
    assert all(a["pass"] for a in doc["assertions"])


@pytest.mark.parametrize("content", ["{bad", "[1]", '[["0"], [7]]', '[["2"]]'])
def test_decorate_malformed_split_targets_exit_3(capsys, tmp_path, content):
    path = tmp_path / "targets.json"
    path.write_text(content)
    rc, out, err = run_main(
        capsys, "decorate", "union(cyl(0),inter(cyl(10),cyl(1)))",
        "--generator", f"split:{path}", "--budget", "1,2",
    )
    assert rc == 3 and out == ""
    assert str(path) in err and "Traceback" not in err


def test_decorate_split_targets_file(capsys, tmp_path):
    path = tmp_path / "targets.json"
    path.write_text('[["1"], ["01"]]')
    rc, out, _ = run_main(
        capsys, "decorate", "union(cyl(0),inter(cyl(10),cyl(1)))",
        "--generator", f"split:{path}", "--budget", "1,2",
    )
    assert rc == 0
    assert all(a["pass"] for a in json.loads(out)["assertions"])


def test_measure_depth_40_leaves_without_dense_tables(capsys):
    # a dense 2^40-cell table could not be built; step functions hold the
    # canonical partition, whose cells follow the generators, and Monte
    # Carlo bisects the cells' start indices
    expr = f"union(cyl({'0' * 40}),inter(cyl(1),cyl({'1' * 40})))"
    for extra in ((), ("--mc", "1000", "--seed", "3")):
        rc, out, _ = run_main(capsys, "measure", expr, *extra)
        assert rc == 0
        assert json.loads(out)["measure"] == "1/2^39"
    assert json.loads(out)["trials"] == 1000
    for verb in ("decompose", "report", "tests-combine"):
        rc, out, _ = run_main(capsys, verb, expr)
        assert rc == 0
        if verb != "tests-combine":
            assert json.loads(out)["measure"] == "1/2^39"


def test_verbs_leave_no_cyclic_garbage():
    # tree walks are loops or module-level functions, not closures that
    # call themselves, so a verb's garbage is freed without the cycle
    # collector.  The verbs run without _emit: json's indented encoder
    # builds cyclic closures of its own.
    expr = "union(cyl(0),inter(cyl(1),cyl(11)))"
    for argv in (["decompose", expr], ["report", expr, "--mc", "50"],
                 ["decorate", expr, "--alternating"]):
        args = cli._build_argparser().parse_args(argv)
        cli._COMMANDS[args.verb](args)  # first call warms caches
        gc.collect()
        gc.disable()
        try:
            cli._COMMANDS[args.verb](args)
            assert gc.collect() == 0, argv[0]
        finally:
            gc.enable()


def test_parser_built_once_per_process(capsys):
    run_main(capsys, "measure", "cyl(0)")
    before = cli._build_argparser.cache_info()
    rc, _, _ = run_main(capsys, "report", "cyl(1)", "--mc", "10")
    after = cli._build_argparser.cache_info()
    assert rc == 0 and after.misses == before.misses and after.hits == before.hits + 1
    # the shared parser still rejects a flag the verb does not take
    with pytest.raises(SystemExit) as exc:
        cli.main(["measure", "cyl(0)", "--depth", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_usage_errors_exit_2(capsys):
    for argv in (["measure", "cyl(0)", "--mc", "0"],
                 ["measure", "cyl(0)", "--mc", "-5"],
                 ["eval", "cyl(0)", "--point", "u=:v=0", "--mc", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("verb", ["tests-combine", "decorate"])
def test_negative_depth_is_a_usage_error(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "cyl(0)", "--depth", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "expected a nonnegative integer, got '-1'" in err
    rc, out, _ = run_main(capsys, verb, "cyl(0)", "--depth", "0")
    assert rc == 0 and json.loads(out)["assertions"][0]["pass"]


_NOT_ASCII_DECIMALS = ["٣", "１６", "1_6", " 7"]  # each of them int() reads


@pytest.mark.parametrize("value", _NOT_ASCII_DECIMALS)
@pytest.mark.parametrize("argv", [["tests-combine", "cyl(0)", "--depth"],
                                  ["decorate", "cyl(0)", "--depth"],
                                  ["measure", "cyl(0)", "--mc"],
                                  ["report", "cyl(0)", "--mc"],
                                  ["measure", "cyl(0)", "--mc", "8", "--seed"],
                                  ["report", "cyl(0)", "--mc", "8", "--seed"]])
def test_integer_flags_read_ascii_digits_only(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"integer, got {value!r}" in err


@pytest.mark.parametrize("value", _NOT_ASCII_DECIMALS)
def test_point_seed_reads_ascii_digits_only(value, capsys):
    rc, out, err = run_main(capsys, "eval", "cyl(0)", "--point", f"seed={value}")
    assert rc == 3 and out == "" and f"bad seed in point spec 'seed={value}'" in err


def test_negative_seeds_are_read(capsys):
    rc, out, _ = run_main(capsys, "measure", "cyl(0)", "--mc", "8", "--seed", "-3")
    assert rc == 0 and json.loads(out)["seed"] == -3
    rc, out, _ = run_main(capsys, "eval", "cyl(0)", "--point", "seed=-3")
    assert rc == 0 and json.loads(out)["point"] == SeededPoint(-3).describe()


@pytest.mark.parametrize("flags", [["--budget", str(MAX_CODE_NODES + 1)],
                                   ["--budget", "9" * 4000],
                                   ["--generator", "split", "--budget", "1,w+%d" % MAX_CODE_NODES]])
def test_decorate_budget_over_the_node_limit_exit_3(flags, capsys):
    """A budget with finite part n makes rank chains of about n nodes, one
    predecessor at a time; past MAX_CODE_NODES nodes a chain is refused
    before the rest of it is stepped through."""
    start = time.perf_counter()
    rc, out, err = run_main(capsys, "decorate", "cyl(0)", *flags)
    assert time.perf_counter() - start < 1
    assert rc == 3 and out == ""
    assert f"rank chain of a budget exceeds MAX_CODE_NODES = {MAX_CODE_NODES} nodes" in err


@pytest.mark.parametrize("flags", [["--budget", "30000,w+30000,w^2+30000"],
                                   ["--generator", "split", "--budget", "30000,w+30000,w^2+30000"],
                                   ["--generator", "split", "--budget", str(MAX_CODE_NODES // 2 + 1)]])
def test_decorate_counts_all_chains_of_a_generator_against_the_node_limit(flags, capsys):
    """The empty generator makes one rank chain per budget and a split
    generator two, and MAX_CODE_NODES bounds all of a generator's chains
    together: budgets each under the limit alone, or one finite split budget
    over half of it, exit 3 before the chains pass it."""
    start = time.perf_counter()
    rc, out, err = run_main(capsys, "decorate", "cyl(0)", *flags)
    assert time.perf_counter() - start < 2
    assert rc == 3 and out == "" and "Traceback" not in err
    assert f"exceeds MAX_CODE_NODES = {MAX_CODE_NODES} nodes, with the chains built before it" in err



def test_decorate_empty_generator_fits_one_budget_over_half_the_node_limit(capsys):
    """One chain serves as both inserts of an empty-generator entry, so a
    single finite budget over half of MAX_CODE_NODES decorates."""
    rc, out, err = run_main(capsys, "decorate", "cyl(0)", "--budget", str(MAX_CODE_NODES // 2 + 1))
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["budgets"] == [str(MAX_CODE_NODES // 2 + 1)]
    assert all(a["pass"] for a in doc["assertions"])


def test_decorate_audit_clause_clash_exits_4(capsys, monkeypatch):
    """A clopen-algebra fault that the decoration audit finds is a
    certificate error: exit 4 with the node's address, and no report."""
    monkeypatch.setattr(codes, "clopen_union", lambda first, *rest: first)
    rc, out, err = run_main(capsys, "decorate", "union(cyl(11),inter(cyl(0),cyl(01)))",
                            "--generator", "split", "--budget", "1,2")
    assert rc == 4 and out == ""
    assert "clause at" in err and "Traceback" not in err


@pytest.mark.parametrize("expr,depth", [
    ("union(cyl(0),cyl(10),cyl(111))", 21),
    ("inter(cyl(0),cyl(01),cyl(011))", 21),
    ("union(cyl(0),cyl(10),cyl(110),cyl(1110))", 23),
    ("union(cyl(0),cyl(10),cyl(111))", 40),
    ("union(cyl(0),cyl(10),cyl(111))", 300),
])
def test_fold_law_tests_stay_in_budget_past_their_start(expr, depth, capsys):
    """These exited 4 once the fold-law diagonal's wrong limit reached the
    inspected stages; every entry of a finite code's table is empty."""
    rc, out, err = run_main(capsys, "tests-combine", expr, "--depth", str(depth))
    assert rc == 0, err
    table = json.loads(out)["stage_measures"]
    assert len(table) == depth + 1 and {m for row in table for m in row} == {"0/2^0"}


def test_tests_combine_depth_over_its_limit_exit_3(capsys):
    limit = cli.MAX_TESTS_COMBINE_DEPTH
    rc, out, err = run_main(capsys, "tests-combine", "cyl(0)", "--depth", str(limit + 1))
    assert rc == 3 and out == ""
    assert f"--depth {limit + 1} exceeds MAX_TESTS_COMBINE_DEPTH = {limit}" in err
    rc, out, _ = run_main(capsys, "tests-combine", "cyl(0)", "--depth", str(limit))
    assert rc == 0 and len(json.loads(out)["stage_measures"]) == limit + 1


def test_decorate_depth_over_its_limit_exit_3(capsys, monkeypatch):
    """Checked before the expression is read; the limit itself runs."""
    limit = cli.MAX_DECORATE_DEPTH
    monkeypatch.setattr(cli, "parse_dsl", None)
    rc, out, err = run_main(capsys, "decorate", "cyl(0)", "--depth", str(limit + 1))
    assert rc == 3 and out == ""
    assert f"--depth {limit + 1} exceeds MAX_DECORATE_DEPTH = {limit}" in err
    monkeypatch.undo()
    rc, out, _ = run_main(capsys, "decorate", "cyl(0)", "--depth", str(limit))
    assert rc == 0 and json.loads(out)["checked_points"] > 4 ** limit


@pytest.mark.parametrize("argv", [["report", "union(cyl(0),cyl(10))"],
                                  ["tests-combine", "union(cyl(0),cyl(10))", "--depth", "6"]])
def test_failed_law_exits_4_before_staging(argv, capsys, monkeypatch):
    """A decomposition whose root names the empty set fails the union law:
    the verbs that stage its assembled test check every law first, and
    print no report."""
    real = cli.build_decomposition

    def wrong_root(code):
        d = real(code)
        d[()] = char_name(ClopenSet.empty())
        return d

    monkeypatch.setattr(cli, "build_decomposition", wrong_root)
    rc, out, err = run_main(capsys, *argv)
    assert rc == 4 and out == ""
    assert "decomposition fails the union law at address ()" in err


@pytest.mark.parametrize("verb", ["decompose", "report", "tests-combine"])
def test_verbs_compute_each_law_name_at_most_twice(verb, capsys, monkeypatch):
    """Exactly once per node: build_decomposition applies no law, and
    verify and the assembled test share one law pass."""
    calls = []
    real = measure.law_name

    def counting(node, kids):
        calls.append(node)
        return real(node, kids)

    monkeypatch.setattr(measure, "law_name", counting)
    expr = "union(cyl(0),inter(cyl(1),cyl(10),union(cyl(110),cyl(111))),cyl(0011))"
    rc, _, err = run_main(capsys, verb, expr)
    assert rc == 0, err
    assert len(calls) == len(nodes(parse_dsl(expr)))


@pytest.mark.parametrize("verb", ["report", "tests-combine"])
def test_staging_verbs_compare_each_limit_once_and_build_no_part(verb, capsys, monkeypatch):
    """After the build, one law pass walks the code and compares each node's
    exact limits once, and the assembled test, of height 0 on a valid code,
    builds no convergence or agreement test: every level the verbs read is
    empty without one."""
    built, compared, walks = [], [], []
    real_eq, real_nodes = StepFunction.__eq__, measure.nodes

    def counting_eq(a, b):
        compared.append(1)
        return real_eq(a, b)

    for name in ("convergence_test", "agreement_test"):
        monkeypatch.setattr(measure, name, lambda *a, _n=name: built.append(_n))
        monkeypatch.setattr(names, name, lambda *a, _n=name: built.append(_n))
    monkeypatch.setattr(StepFunction, "__eq__", counting_eq)
    monkeypatch.setattr(measure, "nodes", lambda code: walks.append(1) or real_nodes(code))
    expr = "union(cyl(0),inter(cyl(1),cyl(10),union(cyl(110),cyl(111))),cyl(0011))"
    rc, out, err = run_main(capsys, verb, expr)
    assert rc == 0, err
    assert built == [] and len(compared) == len(nodes(parse_dsl(expr)))
    assert len(walks) == 2  # build_decomposition's and the law pass's


def test_decompose_builds_each_leaf_table_once(capsys, monkeypatch):
    """build_decomposition and law_name both ask for the characteristic
    table of a leaf's label, the same set object; the table kept on the set
    is built by one char_partition.  No internal denotation here equals a
    leaf label, so each leaf's generators are partitioned exactly once."""
    calls = []
    real = stepfn.char_partition

    def counting(a):
        calls.append(a.generators)
        return real(a)

    monkeypatch.setattr(stepfn, "char_partition", counting)
    expr = "inter(union(cyl(00),cyl(1)),union(cyl(0),cyl(11)))"
    rc, out, err = run_main(capsys, "decompose", expr)
    assert rc == 0, err
    assert json.loads(out)["measure"] == "1/2^1"
    for leaf in ["00", "1", "0", "11"]:
        assert calls.count((leaf,)) == 1, calls


def test_report_samples_after_releasing_the_decomposition(capsys, monkeypatch):
    """report draws its --mc estimate once the decomposition and the
    assembled test are freed, by reference counting alone: no name of the
    decomposition is alive while it samples."""
    alive = []
    real_build, real_mc = cli.build_decomposition, cli.mc_integral

    def build(code):
        d = real_build(code)
        alive.extend(weakref.ref(name) for name in d.values())
        return d

    def sample(target, trials, seed):
        assert alive and not any(ref() for ref in alive)
        return real_mc(target, trials, seed)

    monkeypatch.setattr(cli, "build_decomposition", build)
    monkeypatch.setattr(cli, "mc_integral", sample)
    gc.disable()
    try:
        rc, out, err = run_main(capsys, "report", "union(cyl(0),inter(cyl(1),cyl(10)))",
                                "--mc", "64", "--seed", "5")
    finally:
        gc.enable()
    assert rc == 0, err
    assert json.loads(out)["trials"] == 64


def test_swapped_sup_and_inf_fail_the_law_check(capsys, monkeypatch):
    """The decomposition comes from the clopen fold and its laws from the
    step-function sup and inf, so a step-function algebra that swaps max
    and min is caught: every verb that checks the laws exits 4, while
    measure, which reads only the clopen fold, is unaffected."""
    real_max, real_min = StepFunction.max_with, StepFunction.min_with
    monkeypatch.setattr(StepFunction, "max_with", real_min)
    monkeypatch.setattr(StepFunction, "min_with", real_max)
    expr = "union(cyl(0),cyl(1))"
    for verb in ("decompose", "report", "tests-combine"):
        rc, out, err = run_main(capsys, verb, expr)
        assert rc == 4 and out == ""
        assert "decomposition fails the union law at address ()" in err
    rc, out, _ = run_main(capsys, "measure", expr)
    assert rc == 0 and json.loads(out)["measure"] == "1/2^0"


def test_report_aggregates(capsys):
    rc, out, _ = run_main(capsys, "report", "inter(cyl(0),cyl(01))", "--mc", "500")
    assert rc == 0
    r = json.loads(out)
    assert r["measure"] == "1/2^2"
    assert all(a["pass"] for a in r["assertions"])
    assert r["trials"] == 500
    assert "estimate" in r


def test_console_entry_point():
    # the child imports the package from wherever this process found it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "cantor_measure.cli", "measure", "cyl(0)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["measure"] == "1/2^1"


# every verb on fixed inputs, one usage of each flag family, and one failure
_VERB_RUNS = [
    ["parse", "union(cyl(0),compl(inter(cyl(1),cyl(10))))", "--alternating"],
    ["parse", "bigunion(i,0,2,reloc($i,cyl(1)))", "--rank", "2"],
    ["eval", "union(cyl(0),inter(cyl(1),cyl(11)))", "--point", "u=110:v=01"],
    ["eval", "reloc(2000,cyl(01))", "--point", "seed=9"],
    ["measure", "inter(cyl(0),compl(cyl(011)))", "--mc", "300", "--seed", "5"],
    ["decompose", "union(cyl(00),inter(cyl(1),cyl(10)))"],
    ["tests-combine", "union(cyl(0),cyl(10))", "--depth", "2"],
    ["decorate", "union(cyl(0),inter(cyl(1),cyl(11)))", "--generator", "split", "--budget", "1,2"],
    ["decorate", "union(cyl(00),inter(cyl(10),cyl(1)))", "--depth", "4", "--generator", "split",
     "--budget", "1,2"],
    ["report", "inter(cyl(0),union(cyl(01),cyl(001)))", "--mc", "200"],
    ["parse", "union(cyl(0)"],
]

# runs in a bare interpreter: no pytest there
_CHILD = """
import contextlib, io, json, sys
from cantor_measure.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    sys.stdout.write(f"exit {rc}\\n" + out.getvalue())
"""


@functools.cache
def _verb_output(python: str) -> bytes:
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([python, "-c", _CHILD, json.dumps(_VERB_RUNS)],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


def _python(version: str) -> str | None:
    """A working python<version>: the one on PATH, else (a pyenv shim that
    does not start, say) one installed under the pyenv root's versions."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = [shutil.which(f"python{version}")]
    found += sorted(map(str, root.glob(f"versions/{version}.*/bin/python{version}")))
    for python in filter(None, found):
        probe = subprocess.run(
            [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return python
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_reports_byte_identical_across_interpreters(version):
    python = _python(version)
    if python is None:
        pytest.skip(f"no working python{version} on PATH or under the pyenv root")
    assert _verb_output(python) == _verb_output(sys.executable)
