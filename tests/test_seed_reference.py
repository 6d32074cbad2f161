"""Rewritten code against frozen copies of what it replaced
(seed_reference.py): the one-pass tower builder and walk replay, the pruned
path enumeration, induce_alt, the dimension kernel and the label classes.
Same rows, edges and exports, same paths, pairs and walks, same inductions
and dimensions, same label behaviour, same error messages."""

import ast
import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import seed_reference as ref
from hypothesis import given, strategies as st

import centdim
from centdim import bijection, dims
from centdim.branch import AltLabel, alt_labels, induce_alt
from centdim.bratteli import build_diagram, enumerate_paths, export
from centdim.dims import GroupModuleContext, decompose, labels_for
from centdim.young import partitions_of


def outcome(fn, *args):
    """A call's result, or the type and message of the ValueError it raised."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("group", ["S", "A"])
@pytest.mark.parametrize("module", ["perm", "refl"])
def test_builder_matches_reference(group, module):
    for n in range(4, 11):
        for top in (Fraction(1, 2), Fraction(3), Fraction(9, 2), Fraction(5)):
            new = build_diagram(group, n, module, top)
            old = ref.build_diagram(group, n, module, top)
            assert new.rows == old.rows, (group, module, n, top)
            assert new.edges == old.edges, (group, module, n, top)
            for fmt in ("text", "json", "dot"):
                assert export(new, fmt) == export(old, fmt), (group, module, n, top, fmt)


def test_builder_rejects_like_reference():
    for args in (("S", 1, "perm", 2), ("A", 3, "perm", 2), ("X", 4, "perm", 2),
                 ("S", 4, "standard", 2), ("S", 4, "perm", Fraction(1, 3)),
                 ("S", 4, "perm", -1)):
        got = outcome(build_diagram, *args)
        assert got[0] == "ValueError"
        assert got == outcome(ref.build_diagram, *args), args


def test_enumerate_paths_matches_reference():
    vertices = 0
    for group, module in (("S", "perm"), ("S", "refl"), ("A", "perm"), ("A", "refl")):
        for n in range(2 if group == "S" else 4, 10):
            diagram = build_diagram(group, n, module, 4 if n >= 8 else 5)
            for level in diagram.levels():
                for lab, _ in diagram.row(level):
                    got = enumerate_paths(diagram, level, lab)
                    assert got == ref.enumerate_paths(diagram, level, lab), (
                        group, module, n, level, lab,
                    )
                    vertices += 1
            missing = (n + 1,) if group == "S" else AltLabel((n + 1,))
            got = outcome(enumerate_paths, diagram, Fraction(1, 2), missing)
            assert got[0] == "ValueError"
            assert got == outcome(ref.enumerate_paths, diagram, Fraction(1, 2), missing)
    assert vertices == 1136


def test_bijection_matches_reference():
    walks = 0
    for n in range(2, 8):
        diagram = build_diagram("S", n, "perm", Fraction(5))
        for level in range(6):
            for lab, _ in diagram.row(level):
                for path in enumerate_paths(diagram, level, lab):
                    pair = bijection.path_to_pair(path, n)
                    assert pair == ref.path_to_pair(path, n), path
                    walk = bijection.pair_to_path(*pair, n)
                    assert walk == ref.pair_to_path(*pair, n) == path
                    walks += 1
    assert walks == 3996


MALFORMED_PATHS = [
    ((), 4),
    (((4,), (3,)), 4),
    (((3,),), 4),
    (((4,), (3, 1), (4,)), 4),
    (((4,), (2,), (3,)), 4),
    (((4,), (3,), (1, 3)), 4),
    (((4,), (3,), (3,)), 4),
    (((4,), (3,), (5,)), 4),
    (((4,), (4,), (4,)), 4),
    (((4,), (3,), (2, 2)), 4),
    (((4,), (3, 0), (4,)), 4),
    (((4,), (), (4,)), 4),
    (((4,), (3,), (3, 1), (2, 1), (3, 1, 1)), 4),
    (((2, 2), (2, 1), (2, 2)), 4),
    (((4,), (3,), (3, 1.0)), 4),
]

MALFORMED_PAIRS = [
    (((1,), (3,)), ((0, 0, 1, 3),), 4),
    (((1, 2),), ((0, 0, 0, 1),), 4),
    (((1, 2),), ((0, 2), (2,)), 3),
    (((1,),), ((1, 0, 0),), 3),
    (((), (1,)), ((0, 0, 1),), 3),
    (((1,),), ((0, 0), (0,)), 3),
    (((1,),), (), 3),
    (((1,), (2,), (3,), (4,), (5,)), ((1, 2, 3, 4, 5),), 4),
    (((1,), (2,), (3,)), ((1, 2), (3,)), 2),
    (((1, 1),), ((0, 1),), 2),
]


def test_malformed_paths_raise_like_reference():
    for path, n in MALFORMED_PATHS:
        got = outcome(bijection.path_to_pair, path, n)
        assert got[0] == "ValueError", path
        assert got == outcome(ref.path_to_pair, path, n), path


def test_malformed_pairs_raise_like_reference():
    for blocks, tableau, n in MALFORMED_PAIRS:
        got = outcome(bijection.pair_to_path, blocks, tableau, n)
        assert got[0] == "ValueError", (blocks, tableau)
        assert got == outcome(ref.pair_to_path, blocks, tableau, n), (blocks, tableau)


# Entries of other numeric types, accepted or refused today: whatever the
# frozen copies do, the rewrites do too.
ODD_PATHS = [
    (((2,), (1,), (1, True)), 2),
    (((2,), (True,), (2,)), 2),
]

ODD_PAIRS = [
    (((1,),), ((0, 0, 1.0),), 3),
    (((1,),), ((0.0, 0, 1),), 3),
    (((1, 2),), ((0.0, 2),), 2),
]


def test_odd_entries_match_reference():
    for path, n in ODD_PATHS:
        assert outcome(bijection.path_to_pair, path, n) == outcome(
            ref.path_to_pair, path, n
        ), path
    for blocks, tableau, n in ODD_PAIRS:
        assert outcome(bijection.pair_to_path, blocks, tableau, n) == outcome(
            ref.pair_to_path, blocks, tableau, n
        ), (blocks, tableau)


small_shape = st.lists(st.integers(min_value=-1, max_value=4), max_size=4).map(tuple)


@given(st.lists(small_shape, max_size=6), st.integers(min_value=1, max_value=4), st.booleans())
def test_random_paths_match_reference(rest, n, start_right):
    path = [(n,)] * start_right + rest
    assert outcome(bijection.path_to_pair, path, n) == outcome(ref.path_to_pair, path, n)


@given(small_shape, small_shape)
def test_one_box_difference_matches_reference(bigger, smaller):
    assert bijection._one_box_difference(bigger, smaller) == ref._one_box_difference(
        bigger, smaller
    )


@given(
    st.lists(st.lists(st.integers(min_value=1, max_value=5), max_size=3), max_size=3),
    st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=4), max_size=3),
    st.integers(min_value=1, max_value=5),
)
def test_random_pairs_match_reference(blocks, tableau, n):
    assert outcome(bijection.pair_to_path, blocks, tableau, n) == outcome(
        ref.pair_to_path, blocks, tableau, n
    )


def test_induce_alt_matches_reference():
    for m in range(1, 13):
        for label in alt_labels(m):
            assert induce_alt(label, m + 1) == ref.induce_alt(label, m + 1), label
    for label, n in ((AltLabel((2, 1), "+"), 3), (AltLabel((3,)), 5)):
        assert outcome(induce_alt, label, n) == outcome(ref.induce_alt, label, n)


FAMILIES = [
    ("dim_z", "S", False),
    ("dim_z_half", "S", True),
    ("dim_z_alt", "A", False),
    ("dim_z_alt_half", "A", True),
    ("dim_qz", "S", False),
    ("dim_qz_half", "S", True),
    ("dim_qz_alt", "A", False),
    ("dim_qz_alt_half", "A", True),
]


def labels_near(group, m):
    """Every label of size m, plus the labels one size off on either side."""
    sizes = range(max(m - 1, 0), m + 2)
    if group == "S":
        return [lam for size in sizes for lam in partitions_of(size)]
    return [lab for size in sizes for lab in alt_labels(size)]


@pytest.mark.parametrize("name, group, half", FAMILIES)
def test_dimension_families_match_reference(name, group, half):
    new, old = getattr(dims, name), getattr(ref, name)
    checked = 0
    for n in range(1, 10):
        labels = labels_near(group, n - 1 if half else n)
        if group == "S":
            labels += [(1, 2), (3, 0), [2, 1]]
        for k in range(9):
            for label in labels:
                got = outcome(new, n, k, label)
                assert got == outcome(old, n, k, label), (name, n, k, label)
                checked += got[0] == "ok"
    assert checked > 0


def test_decompose_matches_reference():
    for group in ("S", "A"):
        for module in ("perm", "refl"):
            for n in range(1, 10):
                for twice in range(17):
                    ctx = GroupModuleContext(group, n, module, Fraction(twice, 2))
                    expected = []
                    for label in labels_for(ctx):
                        d = ref.block_dimension(ctx, label)
                        if d:
                            expected.append((label, d))
                    assert decompose(ctx) == expected, ctx


def test_rewritten_modules_have_no_assert():
    for info in pkgutil.iter_modules(centdim.__path__):
        module = importlib.import_module(f"centdim.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Assert)], module


def test_uninsert_raises_under_optimize():
    code = (
        "from centdim.bijection import row_uninsert\n"
        "try:\n"
        "    row_uninsert(((1,), (0,)), (2, 1))\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    src = Path(centdim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ValueError\n", "")


def _all_outcomes(make, args_list):
    """The repr, str and hash of make(*args) for each args, or the type and
    message of what it raised."""
    out = []
    for args in args_list:
        try:
            out.append(("ok", _value_view(make(*args))))
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def _value_view(x):
    return repr(x), str(x), hash(x)


def _assert_same_records(new, old, extra):
    """Same repr, str, hash, extra fields, and the same == on every pair."""
    assert [_value_view(a) + extra(a) for a in new] == [
        _value_view(b) + extra(b) for b in old
    ]
    for i, a in enumerate(new):
        assert a != old[i] and old[i] != a  # different classes never compare equal
        assert a.__eq__((a,)) is NotImplemented
        assert [a == b for b in new] == [old[i] == b for b in old]


def _assert_frozen_like_reference(new, old, fields):
    for name in (*fields, "other"):
        for act in (lambda x: setattr(x, name, 0), lambda x: delattr(x, name)):
            seen = []
            for x in (new, old):
                with pytest.raises(AttributeError) as info:
                    act(x)
                seen.append(str(info.value))
            assert seen[0] == seen[1]


def _assert_round_trips(values):
    copies = [copy.copy, copy.deepcopy] + [
        lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for x in values:
        for make_copy in copies:
            y = make_copy(x)
            assert type(y) is type(x) and y == x
            assert _value_view(y) == _value_view(x)


def test_alt_label_matches_reference():
    args = [(lab.base, lab.sign) for m in range(11) for lab in alt_labels(m)]
    new = [AltLabel(*a) for a in args]
    old = [ref.SeedAltLabel(*a) for a in args]
    _assert_same_records(new, old, lambda x: (x.base, x.sign, x.size, x.sort_key()))
    assert [AltLabel(base=b, sign=s) for b, s in args] == new
    bad = [
        ((1, 2), None), ((2, 1, 1), None), ((3,), "x"), ((3,), "+"), ((2, 2), None),
        ((2, 2), "*"), ((0,), None), ((-1,), None), ((2, 0), None), ([3, 1], None),
        ("3", None), (None, None), ((2.0,), None), ((2, 1), "+-"), ((3, 1, 1), None),
    ]
    assert _all_outcomes(AltLabel, bad) == _all_outcomes(ref.SeedAltLabel, bad)
    _assert_frozen_like_reference(new[-1], old[-1], ("base", "sign"))
    assert AltLabel.__match_args__ == ref.SeedAltLabel.__match_args__
    _assert_round_trips(new[:40])


def test_group_module_context_matches_reference():
    args = [
        (group, n, module, Fraction(twice, 2))
        for group in ("S", "A")
        for module in ("perm", "refl")
        for n in range(1, 5)
        for twice in range(7)
    ]
    new = [GroupModuleContext(*a) for a in args]
    old = [ref.SeedGroupModuleContext(*a) for a in args]
    _assert_same_records(
        new, old, lambda c: (c.group, c.n, c.module, c.level, c.k, c.half, c.label_size)
    )
    keyword = [GroupModuleContext(group=g, n=n, module=m, level=lv) for g, n, m, lv in args]
    assert keyword == new
    bad = [
        ("Q", 3, "perm", 1), ("S", 3, "x", 1), ("S", 0, "perm", 1), ("S", -2, "refl", 1),
        ("A", 2.0, "perm", 1), ("S", "3", "perm", 1), ("S", 3, "perm", -1),
        ("S", 3, "perm", Fraction(1, 3)), ("S", 3, "perm", "7/2"), ("S", 3, "perm", "x"),
        ("Q", 0, "x", -1), ("S", 3, "perm", 2.5), ("S", True, "perm", 0),
    ]
    assert _all_outcomes(GroupModuleContext, bad) == _all_outcomes(
        ref.SeedGroupModuleContext, bad
    )
    _assert_frozen_like_reference(new[-1], old[-1], ("group", "n", "module", "level"))
    assert GroupModuleContext.__match_args__ == ref.SeedGroupModuleContext.__match_args__
    _assert_round_trips(new)
