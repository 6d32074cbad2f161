"""The package surface, what each command loads, and what its entry points
refuse.

Importing centdim loads none of its modules; a public name imports its
module on first use, and each CLI subcommand imports only the modules it
runs. The footprint checks run in fresh interpreters, since this process
has long since loaded everything.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import centdim

SUBMODULES = ["arith", "bijection", "branch", "bratteli", "dims", "oracle", "young"]

PUBLIC = sorted(SUBMODULES + [
    "AltLabel", "BratteliDiagram", "GroupModuleContext",
    "alt_labels", "bell_restricted", "binomial", "block_dimension", "build_diagram",
    "character_mn", "conjugacy_classes", "conjugate", "decompose", "dim_model_block",
    "dim_partition_algebra_irr", "dim_qp_irr", "dim_qz", "dim_qz_alt", "dim_qz_alt_half",
    "dim_qz_half", "dim_z", "dim_z_algebra", "dim_z_alt", "dim_z_alt_half", "dim_z_half",
    "enumerate_paths", "export", "format_partition",
    "induce_alt", "induce_sym", "involutions_with_fixed_points",
    "kostka_hook_type", "multiplicity_oracle", "num_skew_syt", "num_syt",
    "odd_double_factorial", "pair_to_path", "parse_level",
    "parse_partition", "partitions_of", "path_to_pair", "restrict_alt", "restrict_sym",
    "restrict_sym_to_alt", "row_insert", "row_uninsert", "stirling2",
])

# Helpers that nothing in the package ran; tests/seed_reference.py keeps
# them as frozen references.
REMOVED = {
    "arith": ["bell", "set_partitions", "singleton_free_bell"],
    "young": ["hook_length"],
    "oracle": ["ScaleExceeded", "pair_count_oracle", "_fillings"],
}


def test_public_names_resolve():
    assert len(PUBLIC) == 53
    assert sorted(centdim.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(centdim))
    for name in PUBLIC:
        ns = {}
        exec(f"from centdim import {name}", ns)
        value = getattr(centdim, name)
        assert ns[name] is value
        if name in SUBMODULES:
            assert value is importlib.import_module(f"centdim.{name}")
        else:
            assert getattr(sys.modules[value.__module__], name) is value
    ns = {}
    exec("from centdim import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == PUBLIC
    assert centdim.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        centdim.no_such_name


def test_removed_helpers_are_gone():
    ns = {}
    exec("from centdim import *", ns)
    for module, names in REMOVED.items():
        home = importlib.import_module(f"centdim.{module}")
        for name in names:
            assert name not in centdim.__all__ and name not in ns, name
            assert not hasattr(centdim, name) and not hasattr(home, name), name
    with pytest.raises(ImportError):
        exec("from centdim import bell", {})


def fresh(code, *argv):
    """Run code in a fresh interpreter; returns its stdout lines."""
    src = Path(centdim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_star_import_in_a_fresh_process():
    lines = fresh(
        "import sys\n"
        "from centdim import *\n"
        "print(sorted(k for k in dir() if not k.startswith('_') and k != 'sys'))\n"
        "import centdim\n"
        "print(centdim.__version__)\n"
    )
    assert lines == [str(PUBLIC), "0.1.0"]


def test_memos_answer_alike_cold_and_warm():
    # (3, 1.0) == (3, 1) and 3.0 == 3, and each pair hashes alike: a memo
    # read before the argument check would answer the first once the second
    # had been asked
    lines = fresh(
        "from centdim.arith import signed_stirling2, stirling2\n"
        "from centdim.young import num_skew_syt, num_syt\n"
        "def outcome(f, args):\n"
        "    try:\n"
        "        return repr(f(*args))\n"
        "    except Exception as exc:\n"
        "        return f'{type(exc).__name__}: {exc}'\n"
        "cases = [(num_syt, ((3, 1.0),), ((3, 1),)),\n"
        "         (num_skew_syt, ((3, 1.0),), ((3, 1),)),\n"
        "         (stirling2, (3.0, 2), (3, 2)),\n"
        "         (signed_stirling2, (3.0, 2), (3, 2))]\n"
        "print(*[outcome(f, bad) for f, bad, _ in cases], sep='\\n')\n"
        "for f, _, good in cases:\n"
        "    f(*good)\n"
        "print(*[outcome(f, bad) for f, bad, _ in cases], sep='\\n')\n"
    )
    cold = [
        "ValueError: not a valid partition: (3, 1.0)",
        "ValueError: not a valid partition: (3, 1.0)",
        "ValueError: Stirling numbers need integers k and t, got 3.0, 2",
        "ValueError: Stirling numbers need integers k and t, got 3.0, 2",
    ]
    assert lines == cold + cold


def test_cli_resolves_its_entry_points_through_the_package():
    from centdim import cli, dims

    assert centdim.block_dimension is dims.block_dimension
    for name in cli._LIBRARY:
        assert getattr(cli, name) is getattr(centdim, name), name
    assert not hasattr(cli, "__path__")
    with pytest.raises(AttributeError, match="module 'centdim.cli' has no attribute 'dims'"):
        cli.dims


# Runs the CLI as `python -m centdim.cli` does, then prints the exit code and
# every loaded module on the last line.
RUN_CLI = """
import runpy, sys
sys.argv = ["centdim", *sys.argv[1:]]
try:
    runpy.run_module("centdim.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules))
"""


def cli_footprint(*argv):
    """(exit code, stdout lines before the last, loaded modules)."""
    lines = fresh(RUN_CLI, *argv)
    code, *modules = lines[-1].split()
    return int(code), lines[:-1], set(modules)


def test_importing_the_package_loads_no_module():
    lines = fresh(
        "import sys\n"
        "import centdim\n"
        "print(*sorted(m for m in sys.modules if m.startswith('centdim')))\n"
        "import centdim.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith('centdim')))\n"
        "centdim.stirling2\n"
        "print(*sorted(m for m in sys.modules if m.startswith('centdim')))\n"
    )
    assert lines == ["centdim", "centdim centdim.cli", "centdim centdim.arith centdim.cli"]


DIMS_ONLY = {
    "centdim.bratteli", "centdim.bijection", "centdim.oracle", "centdim.verify",
    "dataclasses", "csv", "json",
}


@pytest.mark.parametrize(
    "argv, stdout",
    [
        ("dim --group S --module perm --n 4 --k 3 --lambda 2,2", ["5"]),
        ("dim --group A --module refl --n 5 --k 2 --lambda 3,1,1+", ["1"]),
        (
            "decompose --group S --module perm --n 4 --k 3",
            ["4:5  3,1:10  2,2:5  2,1,1:6  1,1,1,1:1"],
        ),
        ("decompose --group A --module perm --n 4 --k 3", ["4:6  3,1:16  2,2+:5  2,2-:5"]),
    ],
)
def test_dim_and_decompose_load_only_the_kernel(argv, stdout):
    code, out, modules = cli_footprint(*argv.split())
    assert (code, out) == (0, stdout)
    assert "centdim.dims" in modules
    assert not modules & DIMS_ONLY


def test_bijection_loads_no_dimension_code():
    code, out, modules = cli_footprint(
        "bijection", "--n", "4", "--direction", "to-path",
        "--input", '{"setPartition":[[1],[2,3]],"tableau":[[0,0],[1,3]]}',
    )
    assert (code, out) == (0, ['{"path":[[4],[3],[3,1],[2,1],[3,1],[2,1],[2,2]]}'])
    assert "centdim.bijection" in modules
    assert not modules & {"centdim.dims", "centdim.branch", "dataclasses"}


def test_malformed_argv_loads_no_submodule():
    code, out, modules = cli_footprint(
        "dim", "--group", "Q", "--module", "perm", "--n", "4", "--k", "3", "--lambda", "4"
    )
    assert (code, out) == (2, [])
    assert {m for m in modules if m.split(".")[0] == "centdim"} == {"centdim"}


def test_bad_pair_loads_no_submodule():
    code, out, modules = cli_footprint(
        "bratteli", "--pair", "Q:4", "--module", "perm", "--levels", "3"
    )
    assert (code, out) == (2, [])
    assert {m for m in modules if m.split(".")[0] == "centdim"} == {"centdim"}


@pytest.mark.parametrize("argv, loads_json", [
    ("bratteli --pair S:4 --module perm --levels 2", False),
    ("bratteli --pair A:5 --module refl --levels 3/2 --format dot", False),
    ("verify --scope golden", False),
    ("bratteli --pair S:4 --module perm --levels 1 --format json", True),
])
def test_only_the_json_export_loads_json(argv, loads_json):
    code, out, modules = cli_footprint(*argv.split())
    assert code == 0 and out
    assert "centdim.bratteli" in modules
    assert ("json" in modules) == loads_json


def _refused_inputs():
    from centdim import bratteli, branch, dims, verify

    return [
        (verify.run_oracle, (2.5, 1)),
        (verify.run_oracle, (3, 1.5)),
        (verify.run_oracle, ("3", 1)),
        (verify.run, ("oracle", 2.5, 1)),
        (verify.run, ("all", 3, "1")),
        (branch.restrict_alt, ((3,),)),
        (branch.induce_sym, ((3,), 4.0)),
        (branch.induce_sym, ((3,), "4")),
        (branch.induce_alt, (branch.AltLabel((3,)), "4")),
        (bratteli.build_diagram, ("S", "4", "perm", 1)),
        (bratteli.build_diagram, ("S", None, "perm", 1)),
        (bratteli.build_diagram, ("S", 4, "perm", None)),
        (dims.GroupModuleContext, ("S", 3, "perm", None)),
    ]


@pytest.mark.parametrize(
    "call, args", _refused_inputs(), ids=[f"{f.__name__}{a!r}" for f, a in _refused_inputs()]
)
def test_window_label_tower_and_level_inputs_are_refused_with_value_error(call, args):
    # each used to raise TypeError or AttributeError, or (induce_sym with a
    # float n) to answer
    with pytest.raises(ValueError) as info:
        call(*args)
    assert "\n" not in str(info.value)
