import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import centdim
from centdim import cli, limits
from centdim.bijection import path_to_pair
from centdim.branch import alt_labels, induce_sym, restrict_sym
from centdim.cli import main
from centdim.dims import GroupModuleContext, block_dimension, parse_level
from centdim.oracle import multiplicity_oracle
from centdim.young import format_partition, partitions_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_values(capsys):
    code, out, err = run(
        capsys, "dim", "--group", "S", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "2,2",
    )
    assert (code, out, err) == (0, "5\n", "")
    code, out, _ = run(
        capsys, "dim", "--group", "A", "--module", "perm", "--n", "4",
        "--k", "7/2", "--lambda", "3",
    )
    assert (code, out) == (0, "22\n")
    code, out, _ = run(
        capsys, "dim", "--group", "A", "--module", "perm", "--n", "4",
        "--k", "3.5", "--lambda", "3",
    )
    assert (code, out) == (0, "22\n")
    code, out, _ = run(
        capsys, "dim", "--group", "S", "--module", "refl", "--n", "6",
        "--k", "4", "--lambda", "4,2",
    )
    assert (code, out) == (0, "13\n")
    code, out, _ = run(
        capsys, "dim", "--group", "A", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "2,2+",
    )
    assert (code, out) == (0, "5\n")


def test_decompose_text(capsys):
    code, out, _ = run(
        capsys, "decompose", "--group", "S", "--module", "perm",
        "--n", "4", "--k", "3",
    )
    assert code == 0
    assert out == "4:5  3,1:10  2,2:5  2,1,1:6  1,1,1,1:1\n"


def test_decompose_csv(capsys):
    code, out, _ = run(
        capsys, "decompose", "--group", "S", "--module", "perm",
        "--n", "4", "--k", "3", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "label,multiplicity\n"
        "4,5\n"
        '"3,1",10\n'
        '"2,2",5\n'
        '"2,1,1",6\n'
        '"1,1,1,1",1\n'
    )


def test_decompose_json(capsys):
    code, out, _ = run(
        capsys, "decompose", "--group", "A", "--module", "perm",
        "--n", "4", "--k", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "pair": "A:4",
        "module": "perm",
        "level": "3",
        "blocks": [
            {"label": "4", "multiplicity": "6"},
            {"label": "3,1", "multiplicity": "16"},
            {"label": "2,2+", "multiplicity": "5"},
            {"label": "2,2-", "multiplicity": "5"},
        ],
    }
    assert out.count("\n") == 1  # compact single line


def test_bratteli_text(capsys):
    code, out, _ = run(
        capsys, "bratteli", "--pair", "S:4", "--module", "perm",
        "--levels", "2",
    )
    assert code == 0
    assert "l=2    [4]:2 [3,1]:3 [2,2]:1 [2,1,1]:1 | 15" in out.splitlines()
    code, out, _ = run(
        capsys, "bratteli", "--pair", "S:4", "--module", "perm",
        "--levels", "0",
    )
    assert (code, out) == (0, "l=0  [4]:1 | 1\n")


def test_bratteli_other_formats(capsys):
    code, out, _ = run(
        capsys, "bratteli", "--pair", "A:6", "--module", "refl",
        "--levels", "3/2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"] == "A:6"
    assert doc["levels"][-1]["level"] == "3/2"
    code, out, _ = run(
        capsys, "bratteli", "--pair", "S:4", "--module", "perm",
        "--levels", "1", "--format", "dot",
    )
    assert code == 0
    assert out.startswith('digraph "S:4-perm"')


def test_bijection_to_pair(capsys):
    walk = [[4], [3], [3, 1], [2, 1], [3, 1], [2, 1], [2, 2]]
    code, out, _ = run(
        capsys, "bijection", "--n", "4", "--direction", "to-pair",
        "--input", json.dumps({"path": walk}),
    )
    assert code == 0
    assert out == '{"setPartition":[[1],[2,3]],"tableau":[[0,0],[1,3]]}\n'


def test_bijection_to_path(capsys):
    code, out, _ = run(
        capsys, "bijection", "--n", "4", "--direction", "to-path",
        "--input", '{"setPartition":[[1],[2,3]],"tableau":[[0,0],[1,3]]}',
    )
    assert code == 0
    assert out == '{"path":[[4],[3],[3,1],[2,1],[3,1],[2,1],[2,2]]}\n'


def test_bijection_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"path":[[3]]}'))
    code, out, _ = run(capsys, "bijection", "--n", "3", "--direction", "to-pair")
    assert code == 0
    assert out == '{"setPartition":[],"tableau":[[0,0,0]]}\n'


def test_bijection_takes_only_json_integers(capsys):
    for odd in (3.5, True, "3"):
        for direction, key, doc in (
            ("to-pair", "path", {"path": [[3], [2], [odd]]}),
            ("to-path", "setPartition", {"setPartition": [[odd]], "tableau": [[0, 0, 1]]}),
            ("to-path", "tableau", {"setPartition": [[1]], "tableau": [[0, 0, odd]]}),
        ):
            code, out, err = run(
                capsys, "bijection", "--n", "3", "--direction", direction,
                "--input", json.dumps(doc),
            )
            assert (code, out, err) == (
                3, "", f"error: '{key}' entries must be integers\n"
            ), doc


def test_exit_codes(capsys):
    code, _, err = run(
        capsys, "bijection", "--n", "4", "--direction", "to-pair",
        "--input", "{not json",
    )
    assert code == 2 and "bad json" in err
    code, _, err = run(
        capsys, "bijection", "--n", "4", "--direction", "to-pair",
        "--input", '{"path":[[4],[3]]}',
    )
    assert code == 3 and "malformed path" in err
    code, _, err = run(
        capsys, "bijection", "--n", "5", "--direction", "to-path",
        "--input", '{"setPartition":[[1]],"tableau":[[0,0,0,1]]}',
    )
    assert code == 3 and "incompatible pair" in err
    code, _, _ = run(
        capsys, "dim", "--group", "S", "--module", "perm", "--n", "4",
        "--k", "5/3", "--lambda", "2,2",
    )
    assert code == 2
    code, _, _ = run(
        capsys, "dim", "--group", "X", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "2,2",
    )
    assert code == 2
    code, _, err = run(
        capsys, "dim", "--group", "S", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "3,3",
    )
    assert code == 3
    code, _, err = run(
        capsys, "dim", "--group", "A", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "1,1,1,1",
    )
    assert code == 3  # well-formed but non-canonical label
    code, _, err = run(
        capsys, "dim", "--group", "A", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "2,2",
    )
    assert code == 3  # missing sign on a split label
    code, _, _ = run(capsys, "bratteli", "--pair", "S4", "--module", "perm",
                     "--levels", "2")
    assert code == 2
    code, _, _ = run(capsys, "bratteli", "--pair", "A:3", "--module", "perm",
                     "--levels", "2")
    assert code == 3


def test_undecodable_json_exits_2(capsys, monkeypatch):
    # too deep for the decoder, or an integer past the interpreter's digit
    # cap: unreadable like any other bad json, on stdin or from --input.
    # Python 3.13 decodes 3,000 levels; 100,000 is too deep on 3.10 to 3.13.
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(RecursionError):
        json.loads(deep)
    digits = '{"path":[[' + "9" * 5000 + "]]}"
    for doc in (deep, digits):
        for direction in ("to-pair", "to-path"):
            for source in ((), ("--input", doc)):
                monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
                code, out, err = run(
                    capsys, "bijection", "--n", "4", "--direction", direction, *source
                )
                assert (code, out) == (2, "")
                assert err.startswith("error: bad json input: ") and err.count("\n") == 1
    # other bad json keeps its exact line
    for source, message in (
        (("--input", "{not json"), "line 1 column 2 (char 1)"),
        ((), "line 2 column 1 (char 2)"),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{\n"))
        code, out, err = run(
            capsys, "bijection", "--n", "4", "--direction", "to-pair", *source
        )
        assert (code, out, err) == (
            2, "", "error: bad json input: Expecting property name enclosed in "
            f"double quotes: {message}\n"
        )


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "golden")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "summary: 6 suites, 0 failures"
    assert "golden S:4 perm: PASS (9 rows)" in lines
    # the golden suites ignore the oracle's window, even an empty one
    empty = ("--n-max", "0", "--k-max", "-1")
    assert run(capsys, "verify", "--scope", "golden", *empty)[:2] == (code, out)
    code, out, _ = run(
        capsys, "verify", "--scope", "oracle", "--n-max", "4", "--k-max", "2"
    )
    assert code == 0
    assert out.splitlines()[-1] == "summary: 4 suites, 0 failures"


def test_verify_reports_an_oracle_mismatch(capsys, monkeypatch):
    from centdim import verify

    real = verify.block_dimension

    def off_by_one(ctx, label):
        bump = (ctx.group, ctx.module, label) == ("S", "refl", (2, 1))
        return real(ctx, label) + bump

    monkeypatch.setattr(verify, "block_dimension", off_by_one)
    code, out, _ = run(
        capsys, "verify", "--scope", "oracle", "--n-max", "3", "--k-max", "1"
    )
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 5
    assert "oracle S refl: FAIL (n=3 level=0 label=2,1: formula 1, oracle 0)" in lines
    for suite in ("S perm", "A perm", "A refl"):
        pattern = rf"oracle {suite}: PASS \(\d+ checks\)"
        assert any(re.fullmatch(pattern, line) for line in lines), suite
    assert lines[-1] == "summary: 4 suites, 1 failures"


def test_verify_reports_levels_in_sweep_order(capsys, monkeypatch):
    # levels run 0, 1/2, 1, ...: a sweep that ran the integer levels before
    # the half levels would report level 1 first
    from centdim import verify

    real = verify.block_dimension

    def off_by_one(ctx, label):
        bump = (ctx.group, ctx.module, ctx.n) == ("A", "perm", 3) and ctx.level in (
            Fraction(1, 2), 1
        )
        return real(ctx, label) + bump

    monkeypatch.setattr(verify, "block_dimension", off_by_one)
    code, out, _ = run(
        capsys, "verify", "--scope", "oracle", "--n-max", "3", "--k-max", "1"
    )
    assert code == 1
    assert "oracle A perm: FAIL (n=3 level=1/2 label=2: formula 2, oracle 1)" in out
    assert out.splitlines()[-1] == "summary: 4 suites, 1 failures"


def test_oracle_sweep_lists_each_row_of_labels_once(monkeypatch):
    # one list per (group, label size), sizes 1 to n_max, built once: the
    # work count made before the sweep and every suite read the same lists
    from centdim import verify

    calls = []
    for name in ("partitions_of", "alt_labels"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda m, real=real: calls.append(m) or real(m))
    for k_max in (0, 1, 5):
        calls.clear()
        verify.run_oracle(4, k_max)
        assert len(calls) == 2 * 4, k_max


SINGLE_BUILD_PROBE = """
from centdim import oracle, verify
counts = {"classes": 0, "lists": 0}
class_size = oracle._class_size
def counted_class_size(n, ct):
    counts["classes"] += 1
    return class_size(n, ct)
def counted(real):
    def build(m):
        counts["lists"] += 1
        return real(m)
    return build
oracle._class_size = counted_class_size
verify.partitions_of = counted(verify.partitions_of)
verify.alt_labels = counted(verify.alt_labels)
assert all(passed for _, passed, _ in verify.run_oracle(8, 3))
print(counts["classes"], counts["lists"], oracle._class_table.cache_info().currsize)
oracle.conjugacy_classes(3)
try:
    oracle.conjugacy_classes(3.0)
except ValueError as exc:
    print(exc)
"""


def test_oracle_sweep_builds_each_table_and_list_once_in_a_fresh_process():
    # n <= 8 has 16 (n, parity) class tables holding 103 classes, and 16
    # (group, size) label lists; a filled memo still refuses a float n
    proc = run_python("-c", SINGLE_BUILD_PROBE)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "103 16 16\nconjugacy_classes: need an integer n >= 1, got 3.0\n"
    )


@pytest.mark.parametrize(
    "tamper, detail",
    [
        ("count", "row 1/2: [('3', 2)] != [('3', 1)]"),
        ("last-row", "row count mismatch"),
        ("extra-row", "row count mismatch"),
    ],
)
def test_verify_reports_a_golden_mismatch(capsys, monkeypatch, tamper, detail):
    # The rows both sides have are compared first, so a tower built one row
    # too deep reports the row count rather than a missing GOLDEN level.
    from centdim import verify

    real = verify.build_diagram

    def build(group, n, module, max_level):
        diagram = real(group, n, module, max_level)
        if (group, n, module) == ("S", 4, "perm"):
            if tamper == "count":
                diagram.rows[1] = [((3,), 2)]  # the level-1/2 count is 1
            elif tamper == "last-row":
                diagram.rows.pop()
            else:
                diagram.rows.append([((3,), 1)])
        return diagram

    monkeypatch.setattr(verify, "build_diagram", build)
    code, out, _ = run(capsys, "verify", "--scope", "golden")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[0] == f"golden S:4 perm: FAIL ({detail})"
    assert all(": PASS (" in line for line in lines[1:-1])
    assert lines[-1] == "summary: 6 suites, 1 failures"


@pytest.mark.parametrize(
    "window, got",
    [
        (["--scope", "oracle", "--n-max", "1"], "1 and 4"),
        (["--scope", "all", "--n-max", "0"], "0 and 4"),
        (["--k-max", "-1"], "6 and -1"),
        (["--scope", "oracle", "--n-max", "-1", "--k-max", "-1"], "-1 and -1"),
    ],
)
def test_verify_refuses_a_window_without_checks(capsys, monkeypatch, window, got):
    from centdim import verify

    def unreachable(*args):
        raise AssertionError("verify did work before refusing its window")

    monkeypatch.setattr(verify, "build_diagram", unreachable)
    monkeypatch.setattr(verify, "block_dimension", unreachable)
    code, out, err = run(capsys, "verify", *window)
    assert (code, out) == (3, "")
    assert err == (
        f"error: empty oracle window: need n_max >= 2 and k_max >= 0, got {got}\n"
    )


def refusal(n_max, k_max, work, n, cap=55_000):
    return (
        f"oracle window too large: --n-max {n_max} --k-max {k_max} needs {work} "
        f"checks and character values up to n = {n}, above the cap of {cap}"
    )


def refuse_without_work(monkeypatch):
    from centdim import verify

    def unreachable(*args):
        raise AssertionError("verify did work before refusing its window")

    for name in ("build_diagram", "block_dimension", "multiplicity_oracle"):
        monkeypatch.setattr(verify, name, unreachable)
    assert limits.CAPS["oracle_work"][0] == 55_000


@pytest.mark.parametrize(
    "window, got",
    [
        (["--scope", "oracle", "--n-max", "11", "--k-max", "43"], "11"),
        (["--scope", "all", "--n-max", "12", "--k-max", "26"], "12"),
        (["--n-max", "1000000"], "1000000"),
    ],
)
def test_verify_refuses_a_window_past_the_oracle(capsys, monkeypatch, window, got):
    # one n past the largest k the cap admits, and an n no sweep could reach:
    # its running total passes the cap at n = 14 and counts no further
    refuse_without_work(monkeypatch)
    work, k_max, n = {"11": (55211, 43, 11), "12": (55742, 26, 12), "1000000": (65274, 4, 14)}[got]
    code, out, err = run(capsys, "verify", *window)
    assert (code, out) == (3, "")
    assert err == f"error: {refusal(got, k_max, work, n)}\n"


def character_values(n_max):
    """What the oracle's work counts beside its checks, counted here from the
    class tables: for each group and label size m <= n_max, the labels times
    the classes, the even ones for A."""
    from centdim.oracle import conjugacy_classes

    return sum(
        len(labels) * len(conjugacy_classes(m, group == "A"))
        for m in range(1, n_max + 1)
        for group, labels in (("S", partitions_of(m)), ("A", alt_labels(m)))
    )


def test_oracle_check_count_is_what_the_sweep_runs(monkeypatch):
    # the work counted before the sweep is the checks each suite then reports
    # plus the character values: a cap equal to it admits the window, and a
    # cap one below it refuses the window at its last n
    from centdim import verify

    assert [character_values(n) for n in (2, 3, 6, 10, 13, 14)] == [
        7, 22, 291, 4720, 29465, 52658,
    ]
    for n_max, k_max in ((2, 0), (3, 2), (6, 4)):
        monkeypatch.undo()
        results = verify.run_oracle(n_max, k_max)
        checks = sum(int(detail.split()[0]) for _, _, detail in results)
        work = checks + character_values(n_max)
        monkeypatch.setitem(limits.CAPS, "oracle_work", (work, "checks and character values"))
        assert verify.run_oracle(n_max, k_max) == results
        monkeypatch.setitem(limits.CAPS, "oracle_work", (work - 1, "checks and character values"))
        with pytest.raises(ValueError) as info:
            verify.run_oracle(n_max, k_max)
        assert str(info.value) == refusal(n_max, k_max, work, n_max, work - 1)
    assert checks == 736


@pytest.mark.parametrize(
    "window, checks",
    [
        (["--scope", "oracle", "--n-max", "2", "--k-max", "20000"], 200006),
        (["--scope", "all", "--n-max", "3", "--k-max", "2000"], 56018),
        (["--scope", "oracle", "--n-max", "14", "--k-max", "1"], 4342),
        (["--n-max", "2", "--k-max", str(10**30)], 10 * 10**30 + 6),
    ],
)
def test_verify_refuses_a_window_above_the_check_cap(capsys, monkeypatch, window, checks):
    # --n-max 2 --k-max 20000 used to run every level up to 10,000 first
    refuse_without_work(monkeypatch)
    n_max, k_max = window[-3], window[-1]
    work = checks + character_values(int(n_max))
    code, out, err = run(capsys, "verify", *window)
    assert (code, out) == (3, "")
    assert err == f"error: {refusal(n_max, k_max, work, n_max)}\n"


@pytest.mark.parametrize(
    "window, summary",
    [
        (["--n-max", "2", "--k-max", "5000"], "10 suites"),
        (["--scope", "oracle", "--n-max", "11"], "4 suites"),
        (["--scope", "all", "--n-max", "12", "--k-max", "0"], "10 suites"),
    ],
)
def test_verify_runs_windows_the_oracle_used_to_refuse(capsys, window, summary):
    # refused by the old caps of 50,000 checks and n <= 10
    code, out, err = run(capsys, "verify", *window)
    assert (code, out.splitlines()[-1], err) == (0, f"summary: {summary}, 0 failures", "")


def test_verify_runs_a_window_at_the_check_cap(capsys, monkeypatch):
    # the default window: 736 checks and 291 character values
    monkeypatch.setitem(limits.CAPS, "oracle_work", (1027, "checks and character values"))
    code, out, _ = run(capsys, "verify", "--scope", "oracle")
    assert (code, out.splitlines()[-1]) == (0, "summary: 4 suites, 0 failures")
    monkeypatch.setitem(limits.CAPS, "oracle_work", (1026, "checks and character values"))
    code, out, err = run(capsys, "verify", "--scope", "oracle")
    assert (code, out) == (3, "")
    assert "needs 1027 checks and character values up to n = 6, above the cap of 1026" in err
    # the golden scope ignores the window
    code, _, _ = run(capsys, "verify", "--scope", "golden", "--k-max", "20000")
    assert code == 0


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "direction, doc",
    [
        ("to-pair", '{"path":[[]]}'),
        ("to-pair", '{"path":[[0]]}'),
        ("to-pair", '{"path":[[4]]}'),
        ("to-pair", '{"path":[[4],[3],[4]]}'),
        ("to-path", '{"setPartition":[],"tableau":[[]]}'),
        ("to-path", '{"setPartition":[[1]],"tableau":[[1]]}'),
    ],
)
def test_bijection_refuses_n_below_one(capsys, n, direction, doc):
    code, out, err = run(
        capsys, "bijection", "--n", n, "--direction", direction, "--input", doc
    )
    assert (code, out) == (3, "")
    assert err == f"error: n must be a positive integer, got {n}\n"


@pytest.mark.parametrize(
    "direction, doc",
    [("to-pair", '{"path":[[10001]]}'), ("to-path", '{"setPartition":[[1]],"tableau":[[1]]}')],
)
def test_bijection_refuses_n_above_the_cap_before_any_row(capsys, direction, doc):
    cap = limits.CAPS["bijection_n"][0]
    # a row of cap + 1 entries alone would take 8 bytes for each entry
    argv = ["bijection", "--n", str(cap + 1), "--direction", direction, "--input", doc]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"error: n = {cap + 1} is above the cap of {cap}\n"
    assert peak < 8 * (cap + 1)


def test_verify_refuses_an_unknown_scope():
    from centdim import verify

    with pytest.raises(ValueError, match="unknown verify scope 'bogus'"):
        verify.run("bogus")


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, shown stdout lines) for each `$ centdim` example in the
    README's "Command line" block, with backslash continuations joined."""
    block = README.read_text().split("## Command line", 1)[1].split("```\n", 2)[1]
    examples, lines = [], iter(block.splitlines())
    for line in lines:
        if line.startswith("$ centdim "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            examples.append((shlex.split(line)[2:], []))
        else:
            examples[-1][1].append(line)
    return examples


def test_readme_examples(capsys):
    # a "..." line stands for any run of lines
    examples = readme_examples()
    assert len(examples) == 8
    for argv, shown in examples:
        pattern = "".join(
            "(?:.*\n)*" if line == "..." else re.escape(line + "\n") for line in shown
        )
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert re.fullmatch(pattern, out), (argv, out)


def test_output_is_deterministic(capsys):
    argv = [
        "decompose", "--group", "A", "--module", "refl", "--n", "6",
        "--k", "7/2", "--format", "json",
    ]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0


def run_python(*args):
    """Run a fresh interpreter with args, importing the package under test."""
    src = Path(centdim.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    return run_python("-m", "centdim.cli", *argv)


def test_deep_level_in_a_fresh_process():
    # a cold Stirling cache at k = 1500 is deeper than a plain recursion goes
    proc = run_process("dim", "--group", "S", "--module", "perm", "--n", "5",
                       "--k", "1500", "--lambda", "3,2")
    assert (proc.returncode, proc.stderr) == (0, "")
    ctx = GroupModuleContext("S", 5, "perm", Fraction(1500))
    assert proc.stdout == f"{multiplicity_oracle(ctx, (3, 2))}\n"


def test_oracle_window_alike_under_python_o_in_a_fresh_process():
    # -O strips assert statements, so no runtime check may rest on one
    argv = ("-m", "centdim.cli", "verify", "--scope", "oracle", "--n-max", "6", "--k-max", "2")
    plain = run_python(*argv)
    assert (plain.returncode, plain.stderr) == (0, "")
    assert plain.stdout.endswith("\nsummary: 4 suites, 0 failures\n")
    optimized = run_python("-O", *argv)
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (0, plain.stdout, "")


def test_wide_label_at_a_low_level_in_a_fresh_process():
    # S2(2, t) vanishes for t > 2, so no Kostka term of depth n is needed
    proc = run_process("dim", "--group", "S", "--module", "perm", "--n", "1200",
                       "--k", "2", "--lambda", "1200")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")


PEAK_PROBE = """
import sys, tracemalloc
from centdim.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
sys.stderr.write(f"exit {code}, peak {tracemalloc.get_traced_memory()[1]}\\n")
"""


@pytest.mark.parametrize(
    "argv",
    [
        "dim --group {} --module perm --n 10000000 --k 1 --lambda 10000000",
        "decompose --group {} --module perm --n 10000000 --k 2",
        "bratteli --pair {}:3000000 --module perm --levels 2",
    ],
)
def test_a_request_costs_no_memory_linear_in_n_in_a_fresh_process(argv):
    # each label's conjugate is an n-long tuple; building them took 92 to 320 MB
    # and 5 to 27 s on a 2-core machine. The A answers equal the S answers here.
    runs = {g: run_python("-c", PEAK_PROBE, *argv.format(g).split()) for g in "SA"}
    assert runs["A"].stdout == runs["S"].stdout != ""
    code, peak = re.fullmatch(r"exit (\d+), peak (\d+)\n", runs["A"].stderr).groups()
    assert code == "0" and int(peak) < 4_000_000, peak  # an n-long tuple takes 24 to 80 MB


def test_answers_past_the_digit_cap_in_a_fresh_process():
    # the answer has 4335 digits, past the interpreter's default of 4300
    proc = run_process("dim", "--group", "S", "--module", "perm", "--n", "4",
                       "--k", "7200", "--lambda", "2,1,1")
    assert (proc.returncode, proc.stderr) == (0, "")
    ctx = GroupModuleContext("S", 4, "perm", Fraction(7200))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = f"{block_dimension(ctx, (2, 1, 1))}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 4301
    assert proc.stdout == expected
    proc = run_process("decompose", "--group", "S", "--module", "perm", "--n", "4",
                       "--k", "7200")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "2,1,1:" + expected.rstrip() in proc.stdout.split("  ")


def test_digit_cap_still_guards_argv(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "dim", "--group", "S", "--module", "perm", "--n", "4" * 5000,
        "--k", "3", "--lambda", "4",
    )
    assert (code, out) == (2, "") and "invalid int value" in err
    code, out, _ = run(
        capsys, "dim", "--group", "S", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "4",
    )
    assert (code, out) == (0, "5\n")
    assert sys.get_int_max_str_digits() == limit


def test_internal_error_exits_4_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("broken\nhandler")

    monkeypatch.setattr(cli, "_cmd_dim", broken)
    code, out, err = run(
        capsys, "dim", "--group", "S", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "4",
    )
    assert (code, out, err) == (4, "", "error: internal: RuntimeError: broken handler\n")


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupts_pass_the_guard(monkeypatch, exc):
    def interrupted(args):
        raise exc()

    monkeypatch.setattr(cli, "_cmd_dim", interrupted)
    with pytest.raises(exc):
        main(["dim", "--group", "S", "--module", "perm", "--n", "4", "--k", "3",
              "--lambda", "4"])


def test_library_names_are_looked_up_at_call_time(capsys, monkeypatch):
    # a caller that rebinds cli.block_dimension (a tracer, say) is what runs
    monkeypatch.setattr(cli, "block_dimension", lambda ctx, label: 42)
    code, out, _ = run(
        capsys, "dim", "--group", "S", "--module", "perm", "--n", "4",
        "--k", "3", "--lambda", "4",
    )
    assert (code, out) == (0, "42\n")


def test_internal_error_in_a_fresh_process():
    # the top-level guard, reached through the real entry point and sys.exit
    proc = run_python(
        "-c",
        "from centdim import cli\n"
        "def broken(ctx, label):\n"
        "    raise RuntimeError('kernel failed')\n"
        "cli.block_dimension = broken\n"
        "cli.entry()\n",
        "dim", "--group", "S", "--module", "perm", "--n", "4", "--k", "3",
        "--lambda", "4",
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: internal: RuntimeError: kernel failed\n"


def test_deep_label_in_a_fresh_process():
    # hook Kostka numbers need no stack: a 350-cell second row used to recurse
    # once per cell and exit 4
    proc = run_process("dim", "--group", "S", "--module", "perm", "--n", "700",
                       "--k", "700", "--lambda", "350,350")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert re.fullmatch(r"[1-9]\d*\n", proc.stdout)


@pytest.mark.parametrize("argv, message", [
    (["dim", "--group", "S", "--module", "perm", "--n", "5", "--k", "1e400",
      "--lambda", "5"], "level must be at most 10000"),
    (["dim", "--group", "S", "--module", "perm", "--n", "5", "--k", "1e6",
      "--lambda", "5"], "level must be at most 10000"),
    (["decompose", "--group", "S", "--module", "refl", "--n", "4", "--k", "1e400"],
     "level must be at most 10000"),
    (["bratteli", "--pair", "S:4", "--module", "perm", "--levels", "1e400"],
     "level must be at most 10000"),
    (["dim", "--group", "S", "--module", "perm", "--n", "1200", "--k", "1500",
      "--lambda", "1200"], "level 1500 with labels of size 1200 needs 1800000 "
     "Stirling numbers, above the cap of 500000"),
    (["bratteli", "--pair", "S:800", "--module", "refl", "--levels", "1000"],
     "level 1000 with labels of size 800 needs 800000 Stirling numbers, above "
     "the cap of 500000"),
    (["dim", "--group", "S", "--module", "perm", "--n", "5", "--k", "1e30000000",
      "--lambda", "5"], "level must be at most 10000"),
    (["bratteli", "--pair", "S:4", "--module", "perm", "--levels", "1e30000000"],
     "level must be at most 10000"),
])
def test_scale_caps_exit_3_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("group, module, line", [
    ("S", "perm", "200:2  199,1:3  198,2:1  198,1,1:1"),
    ("A", "refl", "200:1  199,1:1  198,2:1  198,1,1:1"),
])
def test_decompose_scores_only_the_stable_range_in_a_fresh_process(group, module, line):
    # at k = 2 only labels with a first part of at least n - 2 can be
    # nonzero; the squares sum to B(4) = 15 (perm) and to 4, the set
    # partitions of 4 points with no singleton (refl)
    start = time.perf_counter()
    proc = run_process("decompose", "--group", group, "--module", module, "--n", "200",
                       "--k", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, line + "\n", "")
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("argv", [
    ["decompose", "--group", "S", "--module", "perm", "--n", "100", "--k", "100"],
    ["bratteli", "--pair", "S:100", "--module", "perm", "--levels", "100"],
])
def test_label_cap_exits_3_at_once(capsys, argv):
    # p(100) = 190,569,292 labels: refused before any of them is built
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == ("error: level 100 with labels of size 100 has 190569292 candidate "
                   "labels, above the cap of 50000\n")
    assert time.perf_counter() - start < 1


def test_tower_cap_exits_3_at_once(capsys):
    # the top row's 44,583 labels pass the label cap; the tower's 83 rows
    # hold 1,059,571 labels in all, about 16 s and 760 MB of building
    start = time.perf_counter()
    code, out, err = run(capsys, "bratteli", "--pair", "S:41", "--module", "perm",
                         "--levels", "41")
    assert (code, out) == (3, "")
    assert err == ("error: tower to level 41 with labels of size 41 has 1059571 candidate "
                   "vertices, above the cap of 500000\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("level, line", [
    ("1e-5000", "error: bad level: level must be a nonnegative half-integer, got 1e-5000"),
    ("x", "error: bad level: cannot parse level 'x'"),
    ("1/3", "error: bad level: level must be a nonnegative half-integer, got 1/3"),
])
def test_bad_levels_exit_2_at_once(capsys, level, line):
    start = time.perf_counter()
    code, out, err = run(capsys, "dim", "--group", "S", "--module", "perm", "--n", "5",
                         "--k", level, "--lambda", "5")
    assert (code, out, err) == (2, "", line + "\n")
    assert time.perf_counter() - start < 2


def test_scale_caps_admit_their_bounds():
    # the caps refuse only what lies beyond them: a half level counts its floor
    max_level, max_cells = limits.CAPS["level"][0], limits.CAPS["stirling_cells"][0]
    assert (max_level, max_cells) == (10_000, 500_000)
    GroupModuleContext("A", 3, "refl", Fraction(2 * max_level + 1, 2))
    GroupModuleContext("S", 50, "perm", Fraction(max_level))
    GroupModuleContext("S", 701, "perm", Fraction(1401, 2))
    with pytest.raises(ValueError, match="at most"):
        GroupModuleContext("S", 3, "perm", Fraction(max_level + 1))
    with pytest.raises(ValueError, match="Stirling numbers"):
        GroupModuleContext("S", 51, "perm", Fraction(max_level))
    with pytest.raises(ValueError, match="Stirling numbers"):
        GroupModuleContext("S", 709, "refl", Fraction(708))


# The deepest level the fuzz draws per command and module: the reflection
# transform costs the square of the level and the tower grows with it, so
# those draws stop earlier to keep the whole test well under ten seconds.
FUZZ_DEPTH = {
    ("dim", "perm"): 2000,
    ("dim", "refl"): 400,
    ("decompose", "perm"): 2000,
    ("decompose", "refl"): 100,
    ("bratteli", "perm"): 60,
    ("bratteli", "refl"): 60,
}
# Text that is not a value: argparse would read a leading "-" as a flag.
JUNK = st.text(alphabet="0123456789,./e+x -", max_size=6).filter(
    lambda text: not text.startswith("-")
)


def halves(low, high):
    return st.integers(2 * low, 2 * high).map(lambda h: str(Fraction(h, 2)))


def label_size(n, level):
    """The size of a valid label for the drawn level text, or n if unreadable."""
    try:
        return n - 1 if parse_level(level).denominator == 2 else n
    except (ValueError, OverflowError):
        return n


@st.composite
def walk(draw, n):
    """A walk down the permutation tower of S_n from (n,), as JSON lists."""
    shapes = [(n,)]
    for step in range(2 * draw(st.integers(0, 5))):
        moves = restrict_sym(shapes[-1]) if step % 2 == 0 else induce_sym(shapes[-1], n)
        shapes.append(draw(st.sampled_from(moves)))
    return [list(shape) for shape in shapes]


def spoil(draw, rows):
    """rows, or rows with one entry changed, one row dropped or one added."""
    how = draw(st.sampled_from(["keep", "keep", "entry", "drop", "add"]))
    rows = [list(row) for row in rows]
    if how == "entry" and any(rows):
        row = draw(st.sampled_from([row for row in rows if row]))
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.one_of(st.integers(-1, 9), st.sampled_from([2.5, True, "1", None]))
        )
    elif how == "drop" and rows:
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    elif how == "add":
        rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(st.integers(0, 9), max_size=3)))
    return rows


@st.composite
def bijection_argv(draw):
    """A walk or its pair, right or spoilt, for n up to 8; or junk input."""
    n = draw(st.integers(-1, 8))
    path = draw(walk(max(n, 1)))
    direction = draw(st.sampled_from(["to-pair", "to-path"]))
    if direction == "to-pair":
        doc = {"path": spoil(draw, path)}
    else:
        blocks, tableau = path_to_pair([tuple(shape) for shape in path], max(n, 1))
        doc = {"setPartition": spoil(draw, blocks), "tableau": spoil(draw, tableau)}
    text = draw(st.sampled_from([json.dumps(doc)] * 4 + ["{", "[]", '{"path": 3}']))
    return ["bijection", "--n", str(n), "--direction", direction, "--input", text]


@st.composite
def command_argv(draw):
    """Argv for every subcommand: mostly valid, and otherwise off in one or
    more values (an unreadable or oversized level, a label of the wrong size
    or sign, a bad pair, a spoilt walk or pair, text that is not a value at
    all, a verify window past the oracle's reach). Sizes stay small enough
    for each example to finish in well under a second."""
    command = draw(st.sampled_from(["dim", "decompose", "bratteli", "bijection", "verify"]))
    if command == "bijection":
        return draw(bijection_argv())
    if command == "verify":
        return ["verify", "--scope", draw(st.sampled_from(["all", "golden", "oracle"])),
                "--n-max", str(draw(st.sampled_from([*range(-1, 12), 15]))),
                "--k-max", str(draw(st.integers(-1, 3)))]
    group = draw(st.sampled_from("SA"))
    module = draw(st.sampled_from(["perm", "refl"]))
    n = draw(st.sampled_from([*range(1, 10), *range(1, 10), 0, -1]))
    kind = draw(st.sampled_from(["small", "small", "deep", "deep", "beyond", "bad"]))
    level = draw({
        "small": halves(0, 12),
        "deep": halves(13, FUZZ_DEPTH[command, module]),
        "beyond": st.sampled_from(["1e400", str(10**6), "10001", "20003/2", "1e30000000"]),
        "bad": st.one_of(st.sampled_from(["x", "1/3", "-1", "", "2.25", "inf", "1e-5000"]), JUNK),
    }[kind])
    if command == "bratteli":
        pair = draw(st.sampled_from([f"{group}:{n}"] * 3 + ["Q:4", "S:x", "S4", "A:"]))
        fmt = draw(st.sampled_from(["text", "json", "dot"]))
        return ["bratteli", "--pair", pair, "--module", module, "--levels", level,
                "--format", fmt]
    argv = [command, "--group", group, "--module", module, "--n", str(n), "--k", level]
    if command == "decompose":
        return argv + ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    size = max(label_size(n, level) + draw(st.sampled_from([0, 0, 0, 1, -1])), 0)
    shape = format_partition(draw(st.sampled_from(list(partitions_of(size)))))
    sign = draw(st.sampled_from(["", "", "+", "-"])) if group == "A" else ""
    label = draw(JUNK) if draw(st.integers(0, 3)) == 0 else shape + sign
    return argv + ["--lambda", label]


# Flags argparse lets go missing; a missing --input reads stdin.
OPTIONAL_FLAGS = ("--format", "--input", "--scope", "--n-max", "--k-max")


@st.composite
def fuzz_argv(draw):
    """command_argv, or one of its argvs that argparse itself refuses: a
    required flag dropped, a flag's value replaced by text that starts with
    "-" or by one no int or choice reads, an unknown flag or subcommand, or
    no subcommand at all."""
    argv = draw(command_argv())
    how = draw(st.sampled_from(["keep"] * 9 + ["drop", "dash", "junk", "unknown", "none"]))
    spots = range(1, len(argv), 2)  # every flag; its value follows it
    required = [i for i in spots if argv[i] not in OPTIONAL_FLAGS]
    if how == "drop" and required:
        i = draw(st.sampled_from(required))
        return argv[:i] + argv[i + 2 :]
    if how in ("dash", "junk"):
        i = draw(st.sampled_from(spots))
        values = ["-inf", "-x", "-1e3", "-1/2"] if how == "dash" else ["x", "Q", ""]
        return argv[: i + 1] + [draw(st.sampled_from(values))] + argv[i + 2 :]
    if how == "unknown":
        return draw(st.sampled_from([argv + ["--bogus"], ["bogus"] + argv[1:]]))
    if how == "none":
        return argv[1:]
    return argv


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(fuzz_argv())
@example(["dim", "--group", "S", "--module", "perm", "--n", "x", "--k", "1", "--lambda", "4"])
@example(["dim", "--group", "Q", "--module", "perm", "--n", "4", "--k", "1", "--lambda", "4"])
@example(["dim", "--group", "S", "--module", "perm", "--n", "4", "--lambda", "4"])
@example(["dim", "--group", "S", "--module", "perm", "--n", "4", "--k", "-inf", "--lambda", "4"])
@example([])
@example(["verify", "a\nb"])  # argparse echoes an unrecognized argument as given
def test_every_argv_lands_on_a_documented_exit(argv):
    code, out, err = run_quietly(argv)
    assert code in (0, 2, 3), (argv, err)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    else:
        assert err == "" and out, argv
    assert run_quietly(argv) == (code, out, err), argv
