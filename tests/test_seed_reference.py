"""Rewritten code against frozen copies of what it replaced
(seed_reference.py): the one-pass tower builder and walk replay, the pruned
path enumeration, the direct JSON writer, the folded alternating branching
rules, the dimension kernel with its signed reflection weights and the label
classes. Same rows, edges and exports, same paths, pairs and walks, same
branchings and dimensions, same label behaviour, same error messages."""

import ast
import copy
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
import seed_reference as ref
from hypothesis import given, strategies as st

import centdim
from centdim import bijection, dims
from centdim.branch import AltLabel, alt_labels, induce_alt, restrict_alt
from centdim.bratteli import build_diagram, enumerate_paths, export
from centdim.dims import GroupModuleContext, decompose, labels_for
from centdim.young import involutions_with_fixed_points, num_syt, partitions_of


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
    # every walk to every vertex of the S perm towers n 2-8 up to level 5,
    # which covers the towers the tower-walk benchmark walks (n 5-8)
    walks = 0
    for n in range(2, 9):
        diagram = build_diagram("S", n, "perm", Fraction(5))
        for level in range(6):
            for lab, _ in diagram.row(level):
                for path in enumerate_paths(diagram, level, lab):
                    pair = bijection.path_to_pair(path, n)
                    assert pair == ref.path_to_pair(path, n), path
                    walk = bijection.pair_to_path(*pair, n)
                    assert walk == ref.pair_to_path(*pair, n) == path
                    walks += 1
    assert walks == 5194


# S/A x perm/refl, n from the group's minimum to 12, tops 0..6 by halves
# (given as twice the top): level 0 has no edges, and refl rows keep vertices
# whose count is 0.
EXPORT_GRID = [
    (group, module, n, twice)
    for group in ("S", "A")
    for module in ("perm", "refl")
    for n in range(2 if group == "S" else 4, 13)
    for twice in range(13)
]


def test_json_export_matches_reference():
    exports = zero_counts = 0
    for group, module, n, top in EXPORT_GRID:
        diagram = build_diagram(group, n, module, Fraction(top, 2))
        text = export(diagram, "json")
        assert text == ref._export_json(diagram), (group, module, n, top)
        assert json.loads(text) == ref.json_document(diagram)
        exports += 1
        zero_counts += sum(c == 0 for _, c in diagram.rows[-1])
    assert exports == 520
    assert zero_counts > 0


def test_dot_export_matches_reference():
    for group, module, n, top in EXPORT_GRID:
        diagram = build_diagram(group, n, module, Fraction(top, 2))
        assert export(diagram, "dot") == ref._export_dot(diagram), (group, module, n, top)
    assert len(EXPORT_GRID) == 520


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
    (((1, 2.0),), ((0, 2),), 2),
    (((True, 2),), ((0, 2),), 2),
    (((1, Fraction(2)), (3,)), ((0, 2, 3),), 3),
    (((1, Decimal(2), 3),), ((0, 3),), 2),
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


def run_fresh(code, *flags, hash_seed=None):
    """Run code in a new interpreter that imports the package under test and
    the frozen copies, with the given PYTHONHASHSEED if one is given."""
    paths = (Path(centdim.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


STEP_MEMO_PROBE = """
from decimal import Decimal
from fractions import Fraction

import seed_reference as ref
from centdim.bijection import _step, path_to_pair


def outcome(fn, path, n):
    try:
        return "ok", fn(path, n)
    except ValueError as exc:
        return "ValueError", str(exc)


def mismatches(paths):
    return [i for i, (path, n) in enumerate(paths)
            if outcome(path_to_pair, path, n) != outcome(ref.path_to_pair, path, n)]


walk = ((4,), (3,), (3, 1), (3,), (4,))
report = {"cold size": _step.cache_info().currsize}
report["odd before warming"] = mismatches(ODD_PATHS)
path_to_pair(walk, 4)
report["malformed"] = mismatches(MALFORMED_PATHS)
warm = _step.cache_info()
spoilt = [(((4,), (3,), (3, x), (3,), (4,)), 4) for x in (1.0, Fraction(1), Decimal(1))]
spoilt += [(((4,), (4,), (3, x)), 4) for x in (1.0, Fraction(1), Decimal(1))]
report["spoilt"] = [outcome(path_to_pair, path, n) for path, n in spoilt]
report["spoilt unlike reference"] = mismatches(spoilt)
report["odd after warming"] = mismatches(ODD_PATHS)
report["malformed again"] = mismatches(MALFORMED_PATHS)
path_to_pair(walk, 4)
end = _step.cache_info()
report["grown"] = end.currsize - warm.currsize
report["new misses"] = end.misses - warm.misses
print(repr(report))
"""


def test_step_memo_takes_only_checked_shapes_in_a_fresh_process():
    # (3, 1.0) == (3, 1) and both hash alike: once the integer step is in the
    # memo, only the shape check keeps a float, Fraction or Decimal walk out.
    proc = run_fresh(
        f"ODD_PATHS = {ODD_PATHS!r}\nMALFORMED_PATHS = {MALFORMED_PATHS!r}\n"
        + STEP_MEMO_PROBE
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = ast.literal_eval(proc.stdout)
    assert report.pop("cold size") == 0
    spoilt = report.pop("spoilt")
    assert [kind for kind, _ in spoilt] == ["ValueError"] * 6
    assert [text.split(" (")[0] for _, text in spoilt] == ["malformed path: bad shape"] * 6
    assert report == {
        "odd before warming": [],
        "malformed": [],
        "spoilt unlike reference": [],
        "odd after warming": [],
        "malformed again": [],
        "grown": 0,
        "new misses": 0,
    }


GUARD_PROBE = """
from decimal import Decimal
from fractions import Fraction

import seed_reference as ref
from centdim.bijection import _step, path_to_pair


class Int(int):
    pass


def outcome(fn, path, n):
    try:
        return "ok", fn(path, n)
    except ValueError as exc:
        return "ValueError", str(exc)


spoilt = []  # (kind, walk, n): one entry of an integer walk made another type
for path, n in WALKS:
    for i, shape in enumerate(path):
        for j, x in enumerate(shape):
            for kind in (bool, Int, float, Fraction, Decimal):
                if kind is not bool or x == 1:
                    walk = path[:i] + (shape[:j] + (kind(x),) + shape[j + 1:],) + path[i + 1:]
                    spoilt += [(kind, walk, n), (kind, [list(s) for s in walk], n)]
report = {"sent": len(spoilt)}
kinds = {kind.__name__: set() for kind in (bool, Int, float, Fraction, Decimal)}
for kind, walk, n in spoilt:
    kinds[kind.__name__].add(outcome(path_to_pair, walk, n)[0])
report["kinds"] = {name: sorted(seen) for name, seen in kinds.items()}
report["cold size"] = _step.cache_info().currsize
for path, n in WALKS:
    path_to_pair(path, n)
warm = _step.cache_info()
report["warm size"] = warm.currsize
sends = [(walk, n) for _, walk, n in spoilt] + [([list(s) for s in p], n) for p, n in WALKS]
report["unlike reference"] = [
    i for i, (walk, n) in enumerate(sends)
    if outcome(path_to_pair, walk, n) != outcome(ref.path_to_pair, walk, n)
]
end = _step.cache_info()
report["grown"] = end.currsize - warm.currsize
report["new misses"] = end.misses - warm.misses
print(repr(report))
"""


def test_step_memo_guard_holds_on_a_warm_memo_in_a_fresh_process():
    # Integer walks with one entry a bool, an int subclass, a float, a
    # Fraction or a Decimal, as tuples and as lists: sent to a cold memo, then
    # again, with the plain walks as lists, once every integer step is in the
    # memo. Each answers as the frozen copy does, and none reaches the memo.
    diagram = build_diagram("S", 4, "perm", 3)
    walks = [
        (path, 4)
        for level in (2, 3)
        for lab, _ in diagram.row(level)
        for path in enumerate_paths(diagram, level, lab)
    ]
    proc = run_fresh(f"WALKS = {walks!r}\n" + GUARD_PROBE)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = ast.literal_eval(proc.stdout)
    assert report.pop("warm size") > 0
    assert report.pop("sent") > 10 * len(walks)
    assert report == {
        "cold size": 0,
        "unlike reference": [],
        "kinds": {
            "bool": ["ok"],
            "Int": ["ok"],
            "float": ["ValueError"],
            "Fraction": ["ValueError"],
            "Decimal": ["ValueError"],
        },
        "grown": 0,
        "new misses": 0,
    }


BRANCH_MEMO_PROBE = """
from decimal import Decimal
from fractions import Fraction

import seed_reference as ref
from centdim.branch import AltLabel
from centdim.bratteli import _inductions, _restriction, build_diagram


def memo_info():
    return [(f.cache_info().currsize, f.cache_info().misses) for f in (_restriction, _inductions)]


def odd_outcomes():
    out = []
    for group in ("S", "A"):
        for n in (8.0, Fraction(8), Decimal(8)):
            for twice in (0, 1, 2):
                try:
                    build_diagram(group, n, "perm", Fraction(twice, 2))
                    out.append("built")
                except ValueError as exc:
                    out.append(str(exc))
    return out


def tower(group, module, n, twice):
    diagram = build_diagram(group, n, module, Fraction(twice, 2))
    return diagram.rows, diagram.edges


report = {"cold": memo_info(), "odd before warming": odd_outcomes()}
report["cold after odd"] = memo_info()
first = {}
report["unlike reference"] = []
for group, module, n, twice in GRID:
    first[group, module, n, twice] = built = tower(group, module, n, twice)
    old = ref.build_diagram(group, n, module, Fraction(twice, 2))
    if built != (old.rows, old.edges):
        report["unlike reference"].append((group, module, n, twice))
warm = memo_info()
report["odd after warming"] = odd_outcomes()
report["types"] = [type(_restriction("S", (8,))).__name__,
                   type(_inductions("S", (7,), 8)).__name__,
                   type(_restriction("A", AltLabel((8,)))).__name__]
report["rebuilt unlike first"] = [key for key in GRID if tower(*key) != first[key]]
report["grown"] = [(size - s0, miss - m0) for (size, miss), (s0, m0) in zip(memo_info(), warm)]
report["warm"] = warm
print(repr(report))
"""


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_branch_memo_takes_only_checked_roots_in_a_fresh_process(order):
    # (8.0,) == (8,) and both hash alike: once the integer tower is in the
    # memo, only the root check keeps a float, Fraction or Decimal n out.
    grid = EXPORT_GRID if order == "ascending" else EXPORT_GRID[::-1]
    proc = run_fresh(f"GRID = {grid!r}\n" + BRANCH_MEMO_PROBE)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = ast.literal_eval(proc.stdout)
    odd = [
        f"not a valid partition: ({n!r},)"
        for _ in ("S", "A")
        for n in (8.0, Fraction(8), Decimal(8))
        for _ in range(3)
    ]
    warm = report.pop("warm")
    assert all(size > 0 for size, _ in warm), warm
    assert report == {
        "cold": [(0, 0), (0, 0)],
        "odd before warming": odd,
        "cold after odd": [(0, 0), (0, 0)],
        "unlike reference": [],
        "odd after warming": odd,
        "types": ["tuple", "tuple", "tuple"],
        "rebuilt unlike first": [],
        "grown": [(0, 0), (0, 0)],
    }


def test_alt_label_hash_survives_a_pickle_between_processes():
    # A stored hash must not travel in a pickle: str hashes differ between
    # processes, as they do under these two hash seeds.
    head = "import pickle, sys\nfrom centdim.branch import AltLabel\nlabel = AltLabel((2, 2), '+')\n"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        dumped = run_fresh(
            head + f"print(pickle.dumps(label, {protocol}).hex())", hash_seed=1
        )
        loaded = run_fresh(
            head + f"x = pickle.loads(bytes.fromhex({dumped.stdout.strip()!r}))\n"
            "print(x in {label}, hash(x) == hash(label))",
            hash_seed=2,
        )
        assert (loaded.stdout, loaded.stderr) == ("True True\n", ""), protocol


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


def test_alt_fold_matches_reference():
    for m in range(13):
        labels = alt_labels(m)
        assert labels == ref.alt_labels(m), m
        for label in labels:
            assert outcome(restrict_alt, label) == outcome(ref.restrict_alt, label), label
            for n in (m, m + 2):
                assert outcome(induce_alt, label, n) == outcome(ref.induce_alt, label, n)
    # the one change: inducing from A_0 used to restrict A_1, which has no subgroup
    assert outcome(ref.induce_alt, AltLabel(()), 1) == (
        "ValueError", "cannot restrict 1: the subgroup is trivial"
    )


def test_signed_weights_match_the_frozen_transform():
    for group in ("S", "A"):
        for n in range(1, 6):
            for module in ("perm", "refl"):
                for twice in range(81):
                    ctx = GroupModuleContext(group, n, module, Fraction(twice, 2))
                    assert dims.dim_z_algebra(ctx) == ref.dim_z_algebra(ctx), ctx
                    for label in labels_for(ctx):
                        new = dims.block_dimension(ctx, label)
                        assert new == ref.block_dimension(ctx, label), (ctx, label)
    for k in range(41):
        for size in range(min(k, 5) + 1):
            for nu in partitions_of(size):
                assert dims.dim_qp_irr(k, nu) == ref.dim_qp_irr(k, nu), (k, nu)
    for bad in ((2, (3,)), (-1, ()), (Fraction(1, 2), ())):
        assert outcome(dims.dim_qp_irr, *bad) == outcome(ref.dim_qp_irr, *bad)
    # the other stable-range sums read the same memoized entries
    for k in range(15):
        for size in range(k + 1):
            for nu in partitions_of(size):
                for shift, level in ((0, Fraction(k)), (1, Fraction(2 * k + 1, 2))):
                    want = num_syt(nu) * ref._abacus_sum(k, shift, size)
                    assert dims.dim_partition_algebra_irr(level, nu) == want, (level, nu)
            for p in range(size % 2, size + 1, 2):
                want = involutions_with_fixed_points(size, p) * ref._abacus_sum(k, 0, size)
                assert dims.dim_model_block(k, size, p) == want, (k, size, p)


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
            for n in range(1, 13):
                for twice in range(21):
                    ctx = GroupModuleContext(group, n, module, Fraction(twice, 2))
                    expected = []
                    for label in labels_for(ctx):
                        d = ref.block_dimension(ctx, label)
                        if d:
                            expected.append((label, d))
                    assert decompose(ctx) == expected, ctx


def test_rewritten_modules_have_no_assert():
    # python -O strips assert, so no runtime invariant may rest on one; every
    # source file of the package is parsed, imported or not
    files = sorted(Path(centdim.__file__).resolve().parent.rglob("*.py"))
    names = {info.name for info in pkgutil.iter_modules(centdim.__path__)}
    assert {f.stem for f in files} == names | {"__init__"}
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Assert)], path


def test_uninsert_raises_under_optimize():
    code = (
        "from centdim.bijection import row_uninsert\n"
        "try:\n"
        "    row_uninsert(((1,), (0,)), (2, 1))\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    proc = run_fresh(code, "-O")
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
