"""The one table of scale caps: every row guards a boundary, the README's
table matches it, and no runtime invariant rests on assert."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from centdim import limits, verify
from centdim.bijection import path_to_pair
from centdim.dims import GroupModuleContext, decompose, stable_count
from centdim.oracle import conjugacy_classes

PACKAGE = Path(limits.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"


def context(group, n, level):
    return lambda: GroupModuleContext(group, n, "perm", Fraction(level))


# cap -> [(request at the cap, request one past it, the cap to patch in or
# None for the real one), ...]. A patched case runs the same request under a
# cap equal to its count, then one below it: the real boundary costs too much.
# conjugacy_classes counts its p(n) classes against the label cap: p(41) =
# 44,583 and p(42) = 53,174. The oracle window n <= 3, k <= 1 holds 46 checks
# and 22 character values: sum over m <= 3 of p(m)^2 for S, and for A its
# 1, 1 and 3 labels of size 1, 2 and 3 times its 1, 1 and 2 even classes.
BOUNDARIES = {
    "level": [(context("S", 3, 10_000), context("S", 3, 10_001), None)],
    "stirling_cells": [(context("S", 50, 10_000), context("S", 51, 10_000), None)],
    "labels": [
        (lambda: decompose(GroupModuleContext("S", 6, "perm", 6)), None, stable_count(6, 6)),
        (lambda: conjugacy_classes(41), lambda: conjugacy_classes(42), None),
    ],
    "oracle_work": [(lambda: verify.run_oracle(3, 1), None, 46 + 22)],
    "bijection_n": [(lambda: path_to_pair([(10_000,)], 10_000),
                     lambda: path_to_pair([(10_001,)], 10_001), None)],
}


@pytest.mark.parametrize("cap", sorted(limits.CAPS))
def test_each_cap_admits_its_value_and_refuses_one_past(monkeypatch, cap):
    for at, past, patched in BOUNDARIES[cap]:  # a new row needs a case here
        monkeypatch.undo()
        unit = limits.CAPS[cap][1]
        if patched is not None:
            monkeypatch.setitem(limits.CAPS, cap, (patched, unit))
        at()
        if patched is not None:
            monkeypatch.setitem(limits.CAPS, cap, (patched - 1, unit))
            past = at
        with pytest.raises(ValueError) as info:
            past()
        assert str(info.value).endswith(f" {limits.CAPS[cap][0]}")


def test_every_cap_has_a_boundary_case():
    assert set(BOUNDARIES) == set(limits.CAPS)


def test_limits_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "limits.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_no_runtime_assert_in_the_package():
    # python -O strips assert statements, so no invariant may rest on one
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], path.name


def test_the_readme_table_is_the_table_of_caps():
    rows = re.findall(r"^\| `(\w+)` \| ([\d,]+) \| ([^|]+?) \| .+ \|$", README.read_text(), re.M)
    table = {name: (int(value.replace(",", "")), unit) for name, value, unit in rows}
    assert table == limits.CAPS
    assert len(rows) == len(table)
