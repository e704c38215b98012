import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cantor_measure import cli
from cantor_measure.errors import CertificateError, StatisticalGateError


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
