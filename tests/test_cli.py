import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import centdim
from centdim.cli import main
from centdim.dims import GroupModuleContext, block_dimension
from centdim.oracle import multiplicity_oracle


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


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "golden")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "summary: 6 suites, 0 failures"
    assert "golden S:4 perm: PASS (9 rows)" in lines
    code, out, _ = run(
        capsys, "verify", "--scope", "oracle", "--n-max", "4", "--k-max", "2"
    )
    assert code == 0
    assert out.splitlines()[-1] == "summary: 4 suites, 0 failures"


def test_output_is_deterministic(capsys):
    argv = [
        "decompose", "--group", "A", "--module", "refl", "--n", "6",
        "--k", "7/2", "--format", "json",
    ]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = Path(centdim.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "centdim.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )


def test_deep_level_in_a_fresh_process():
    # a cold Stirling cache at k = 1500 is deeper than a plain recursion goes
    proc = run_process("dim", "--group", "S", "--module", "perm", "--n", "5",
                       "--k", "1500", "--lambda", "3,2")
    assert (proc.returncode, proc.stderr) == (0, "")
    ctx = GroupModuleContext("S", 5, "perm", Fraction(1500))
    assert proc.stdout == f"{multiplicity_oracle(ctx, (3, 2))}\n"


def test_wide_label_at_a_low_level_in_a_fresh_process():
    # S2(2, t) vanishes for t > 2, so no Kostka term of depth n is needed
    proc = run_process("dim", "--group", "S", "--module", "perm", "--n", "1200",
                       "--k", "2", "--lambda", "1200")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")


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
