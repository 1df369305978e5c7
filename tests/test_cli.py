"""Command line front end."""

import csv
import dataclasses
import hashlib
import time

import pytest

from helpers import FAMILIES
from omtq import cli, lra
from omtq.cli import main
from omtq.encodings import jobshop_instance

EX1 = """(declare-fun cost () Real)
(declare-fun a () Real)
(assert (>= cost (+ a 15)))
(assert (>= a 0))
(minimize cost)
"""


@pytest.fixture
def ex1(tmp_path):
    path = tmp_path / "ex1.smt2"
    path.write_text(EX1)
    return str(path)


def test_solve_reports_objective_and_model(ex1, capsys):
    code = main(
        ["solve", ex1, "--schema", "offline", "--search", "binary", "--lb", "0", "--ub", "16"]
    )
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "optimum"
    assert lines[1] == "(objective 15 :attained true)"
    assert "(= cost 15)" in out
    assert "(= a 0)" in out


def test_solve_output_is_byte_identical_across_runs(ex1, capsys):
    argv = ["solve", ex1, "--schema", "inline", "--search", "binary"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


# sha256 of the stdout of every run below, in order; it changes only when
# the search or the printed answer does
FAMILIES_STDOUT_SHA256 = "66e5007aa7b49b3f8387093815e149ebedc1c33573d4284ed51fa48cec87bafc"


def test_solve_output_on_the_families_is_pinned(capsys):
    # the four configurations, and the two inline ones with the pivot atom
    # let through to the simplex, where conflict generalization fires
    runs = [(schema, search, []) for schema in ("offline", "inline") for search in ("linear", "binary")]
    runs += [("inline", search, ["--no-pure-literal"]) for search in ("linear", "binary")]
    digest = hashlib.sha256()
    for path in sorted(FAMILIES.glob("*.smt2")):
        for schema, search, flags in runs:
            assert main(["solve", str(path), "--schema", schema, "--search", search, *flags]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == FAMILIES_STDOUT_SHA256


def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    """A file that starts with a UTF-8 byte-order mark, as some editors
    write one, solves and benches as the same file without it."""
    plain = FAMILIES / "strip-n6-w1-s1.smt2"
    marked = tmp_path / "bom.smt2"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        assert main(["solve", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", str(marked), "--jobs", "1", "-o", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        assert {r["status"] for r in csv.DictReader(fh)} == {"optimum"}


def test_all_configurations_agree_from_the_cli(ex1, capsys):
    for schema in ("offline", "inline"):
        for search in ("linear", "binary"):
            code = main(["solve", ex1, "--schema", schema, "--search", search])
            assert code == 0
            assert "(objective 15 :attained true)" in capsys.readouterr().out


def test_solve_writes_stats_csv(ex1, tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    code = main(["solve", ex1, "--stats", str(stats)])
    capsys.readouterr()
    assert code == 0
    with open(stats, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["decisions", "conflicts", "restarts"]
    assert len(rows) == 2
    assert all(cell.isdigit() for cell in rows[1])


def test_unwritable_stats_path_is_a_usage_error(ex1, tmp_path, capsys):
    code = main(["solve", ex1, "--stats", str(tmp_path / "missing" / "stats.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith("optimum")
    assert "error: cannot write stats:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["generate-strip", "generate-jobshop", "bench"])
def test_unwritable_output_path_is_a_usage_error(ex1, tmp_path, capsys, command):
    argv = {
        "generate-strip": ["generate", "strip-packing", "-n", "3"],
        "generate-jobshop": ["generate", "jobshop", "--jobs", "2", "--machines", "2"],
        "bench": ["bench", ex1, "--jobs", "1"],
    }[command]
    code = main([*argv, "-o", str(tmp_path / "missing" / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: cannot write output:" in captured.err
    assert "Traceback" not in captured.err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.smt2"
    bad.write_text("(assert (> x 0))\n")
    code = main(["solve", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def test_declared_numeral_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.smt2"
    bad.write_text("(declare-fun 3 () Real)(declare-fun c () Real)(assert (>= c 3))(minimize c)\n")
    code = main(["solve", str(bad)])
    captured = capsys.readouterr()
    assert code == 3
    assert "1:14: cannot declare the numeral '3'" in captured.err
    assert captured.out == ""


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.smt2")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "crosscheck"])
def test_deeply_nested_input_exit_code(tmp_path, capsys, command):
    deep = tmp_path / "deep.smt2"
    deep.write_text(
        "(declare-fun cost () Real)(declare-fun p () Bool)"
        "(assert " + "(and p " * 3000 + "p" + ")" * 3000 + ")(minimize cost)"
    )
    code = main([command, str(deep)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_timeout_reports_interrupted(ex1, capsys):
    code = main(["solve", ex1, "--timeout", "0"])
    out = capsys.readouterr().out
    assert code == 4
    assert out.splitlines()[0] == "interrupted"


def test_infinite_timeout_never_stops(ex1, capsys):
    assert main(["solve", ex1, "--timeout", "inf"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "optimum"


@pytest.mark.parametrize("command", ["solve", "crosscheck", "bench"])
@pytest.mark.parametrize("value", ["nan", "-1", "-inf", "soon"])
def test_timeout_must_be_seconds_not_below_zero(ex1, capsys, command, value):
    with pytest.raises(SystemExit) as info:
        main([command, ex1, f"--timeout={value}"])
    assert info.value.code == 2
    assert "is not a timeout" in capsys.readouterr().err


def test_crosscheck_pass(ex1, capsys):
    code = main(["crosscheck", ex1, "--schema", "offline", "--search", "linear"])
    out = capsys.readouterr().out
    assert code == 0
    assert "crosscheck: pass (optimum confirmed)" in out


def test_crosscheck_out_of_pivot_budget_is_interrupted(tmp_path, capsys, monkeypatch):
    path = tmp_path / "jobshop.smt2"
    path.write_text(jobshop_instance(3, 2, 0)[0])
    solve = cli.solve

    def solve_then_starve(problem, config):
        outcome = solve(problem, config)
        monkeypatch.setattr(lra, "MAX_PIVOTS", 0)  # only the decision queries starve
        return outcome

    monkeypatch.setattr(cli, "solve", solve_then_starve)
    code = main(["crosscheck", str(path)])
    out = capsys.readouterr().out
    assert code == 4
    assert out.splitlines()[0] == "optimum"
    assert out.splitlines()[-1] == "crosscheck: skipped (interrupted)"


def test_crosscheck_past_the_timeout_is_interrupted(tmp_path, capsys, monkeypatch):
    path = tmp_path / "jobshop.smt2"
    path.write_text(jobshop_instance(3, 2, 0)[0])
    solve = cli.solve

    def solve_past_the_timeout(problem, config):
        outcome = solve(problem, dataclasses.replace(config, timeout=None))
        time.sleep(config.timeout)  # the solve used up all of --timeout
        return outcome

    monkeypatch.setattr(cli, "solve", solve_past_the_timeout)
    code = main(["crosscheck", str(path), "--timeout", "0.05"])
    out = capsys.readouterr().out
    assert code == 4
    assert out.splitlines()[0] == "optimum"
    assert out.splitlines()[-1] == "crosscheck: skipped (interrupted)"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag", ["--lb", "--ub"])
def test_range_override_must_be_a_numeral(ex1, capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["solve", ex1, flag, "1e3"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "numeral such as 3, -7/2 or 2.5" in err
    assert "parse_rat" not in err


def test_range_override_ignores_surrounding_blanks(ex1, capsys):
    assert main(["solve", ex1, "--lb", " 3", "--ub", "16\t"]) == 0
    assert "(objective 15 :attained true)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(["solve", ex1, "--lb", "\x0b3"])
    assert info.value.code == 2


def test_generate_strip_is_deterministic(capsys):
    assert main(["generate", "strip-packing", "-n", "3", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "strip-packing", "-n", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert "(minimize length)" in first


def test_generate_to_file_round_trips(tmp_path, capsys):
    target = tmp_path / "strip.smt2"
    code = main(
        ["generate", "strip-packing", "-n", "3", "--width", "3/2", "--seed", "1", "-o", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    solved = main(["solve", str(target), "--schema", "offline", "--search", "binary"])
    out = capsys.readouterr().out
    assert solved == 0
    assert out.startswith("optimum")


def test_generate_jobshop(tmp_path, capsys):
    target = tmp_path / "js.smt2"
    code = main(
        ["generate", "jobshop", "--jobs", "2", "--machines", "2", "--seed", "3", "-o", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    assert main(["solve", str(target)]) == 0
    assert capsys.readouterr().out.startswith("optimum")


@pytest.mark.parametrize(
    "argv",
    [
        ["strip-packing", "-n", "3", "--width", "wide"],
        ["strip-packing", "-n", "0"],
        ["strip-packing", "-n", "3", "--width", "0"],
        ["strip-packing", "-n", "3", "--width", "-1"],
        ["jobshop", "--jobs", "0", "--machines", "2"],
        ["jobshop", "--jobs", "2", "--machines", "0"],
    ],
    ids=["width-wide", "n-0", "width-0", "width-minus-1", "jobs-0", "machines-0"],
)
def test_generate_rejects_bad_sizes(capsys, argv):
    code = main(["generate", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_bench_emits_one_row_per_configuration(ex1, tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", ex1, "--jobs", "1", "-o", str(out_csv)])
    capsys.readouterr()
    assert code == 0
    with open(out_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [
        "instance", "schema", "search", "status", "objective", "attained", "wall_ms",
        "decisions", "conflicts", "restarts", "theory_checks", "minimize_calls",
        "pivots", "loops", "simplex_pivots",
    ]
    assert len(rows) == 4
    assert {(r["schema"], r["search"]) for r in rows} == {
        ("offline", "linear"),
        ("offline", "binary"),
        ("inline", "linear"),
        ("inline", "binary"),
    }
    assert all(r["status"] == "optimum" for r in rows)
    assert all(r["objective"] == "15" for r in rows)
    assert all(r["attained"] == "true" for r in rows)


@pytest.mark.parametrize("jobs, workers", [("64", 4), ("4", 4), ("2", 2)])
def test_bench_starts_no_more_workers_than_tasks(ex1, tmp_path, capsys, monkeypatch, jobs, workers):
    sizes = []

    class InProcessPool:
        """Records ``max_workers`` and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", ex1, "--jobs", jobs, "-o", str(out_csv)]) == 0
    assert sizes == [workers]
    with open(out_csv, newline="") as fh:
        assert [r["objective"] for r in csv.DictReader(fh)] == ["15"] * 4
