import ast
import inspect
import math
from fractions import Fraction
from itertools import permutations

import pytest
from seed_reference import ScaleExceeded, pair_count_oracle

from centdim import oracle, verify
from centdim.branch import AltLabel, alt_labels
from centdim.dims import GroupModuleContext, block_dimension, labels_for
from centdim.oracle import character_mn, conjugacy_classes, multiplicity_oracle
from centdim.young import num_syt, partitions_of


def classes_as_dict(n, even_only=False):
    return dict(conjugacy_classes(n, even_only))


def test_conjugacy_class_tables():
    assert classes_as_dict(3) == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}
    assert classes_as_dict(1) == {(1,): 1}
    assert classes_as_dict(4, even_only=True) == {
        (1, 1, 1, 1): 1,
        (2, 2): 3,
        (3, 1): 8,
    }
    with pytest.raises(ValueError):
        conjugacy_classes(0)
    assert len(conjugacy_classes(11)) == 56
    with pytest.raises(ValueError):
        conjugacy_classes(42)


def cycle_type(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size = 0
        spot = start
        while not seen[spot]:
            seen[spot] = True
            spot = perm[spot]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def test_class_sizes_against_enumeration():
    for n in range(1, 7):
        counted = {}
        for perm in permutations(range(n)):
            ct = cycle_type(perm)
            counted[ct] = counted.get(ct, 0) + 1
        assert classes_as_dict(n) == counted
        even = {
            ct: size
            for ct, size in counted.items()
            if (n - len(ct)) % 2 == 0
        }
        assert classes_as_dict(n, even_only=True) == even


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(size for _, size in conjugacy_classes(n)) == math.factorial(n)
        if n >= 2:
            assert sum(
                size for _, size in conjugacy_classes(n, even_only=True)
            ) == math.factorial(n) // 2


def test_character_basics():
    for n in range(1, 8):
        for ct, _ in conjugacy_classes(n):
            assert character_mn((n,), ct) == 1
            sign = (-1) ** (n - len(ct))
            assert character_mn((1,) * n, ct) == sign
    for n in range(1, 9):
        ones = (1,) * n
        for lam in partitions_of(n):
            assert character_mn(lam, ones) == num_syt(lam)
    with pytest.raises(ValueError):
        character_mn((2, 1), (2, 2))


def test_character_inputs_are_checked_before_the_memo():
    # (1, 2) is no partition, and (3, 1.0) hashes like (3, 1), whose value
    # the memo would otherwise hand back
    assert character_mn((3, 1), (4,)) == -1
    bad = [
        (((1, 2), (3,)), "not a valid partition: (1, 2)"),
        (((2, -1, 2), (3,)), "not a valid partition: (2, -1, 2)"),
        ((None, ()), "not a valid partition: None"),
        (((3, 1.0), (4,)), "not a valid partition: (3, 1.0)"),
        (((3,), (1, 2)), "not a valid cycle type: (1, 2)"),
        (((4,), (3, 1.0)), "not a valid cycle type: (3, 1.0)"),
        (((2,), None), "not a valid cycle type: None"),
    ]
    misses = character_mn.cache_info().misses
    for args, message in bad:
        with pytest.raises(ValueError) as info:
            character_mn(*args)
        assert str(info.value) == message, args
    assert character_mn.cache_info().misses == misses


@pytest.mark.parametrize("n", [2.5, 2.0, "3", None, Fraction(3)])
def test_conjugacy_classes_refuse_a_non_integer_n(n):
    with pytest.raises(ValueError) as info:
        conjugacy_classes(n)
    assert str(info.value) == f"conjugacy_classes: need an integer n >= 1, got {n}"


def test_conjugacy_classes_count_their_classes_before_building_any():
    # p(42) = 53,174 passes the label cap; a huge n stops counting there
    for n in (42, 10**9):
        with pytest.raises(ValueError) as info:
            conjugacy_classes(n)
        assert str(info.value) == (
            f"conjugacy_classes: n = {n} has at least 53174 classes, above the cap of 50000"
        )


def test_kernel_matches_the_oracle_on_every_label_up_to_n_13():
    # past the old cap of n <= 10; k <= 2 keeps the sweep under a second
    results = verify.run_oracle(13, 2)
    assert [(name, ok) for name, ok, _ in results] == [
        (f"oracle {group} {module}", True) for group in "SA" for module in ("perm", "refl")
    ]
    assert [detail for _, _, detail in results] == [
        "1655 checks", "1655 checks", "962 checks", "962 checks",
    ]


def test_character_small_table():
    # the full character table of S_4, rows by shape, columns by class
    table = {
        (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
        (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
        (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
        (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
        (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
    }
    for lam, row in table.items():
        for ct, value in row.items():
            assert character_mn(lam, ct) == value, (lam, ct)


def test_column_orthogonality():
    for n in range(1, 7):
        classes = conjugacy_classes(n)
        for ct, size in classes:
            total = sum(character_mn(lam, ct) ** 2 for lam in partitions_of(n))
            assert total == math.factorial(n) // size, (n, ct)


def test_row_orthogonality():
    for n in range(1, 7):
        classes = conjugacy_classes(n)
        shapes = list(partitions_of(n))
        for i, lam in enumerate(shapes):
            for mu in shapes[i:]:
                inner = sum(
                    size * character_mn(lam, ct) * character_mn(mu, ct)
                    for ct, size in classes
                )
                expected = math.factorial(n) if lam == mu else 0
                assert inner == expected, (lam, mu)


def test_multiplicity_known_values():
    c = GroupModuleContext("S", 4, "perm", Fraction(3))
    assert multiplicity_oracle(c, (2, 2)) == 5
    c = GroupModuleContext("A", 4, "perm", Fraction(3))
    assert multiplicity_oracle(c, alt_labels(4)[1]) == 16  # the [3,1] label
    c = GroupModuleContext("S", 6, "refl", Fraction(4))
    assert multiplicity_oracle(c, (3, 3)) == 5


def test_oracle_matches_formulas_small_sweep():
    # the heavy sweep lives in the acceptance suite; spot-check a lattice here
    for group in ("S", "A"):
        for module in ("perm", "refl"):
            for n in (1, 2, 3, 4, 5):
                for twice in range(7):
                    c = GroupModuleContext(group, n, module, Fraction(twice, 2))
                    for label in labels_for(c):
                        assert multiplicity_oracle(c, label) == block_dimension(
                            c, label
                        ), (group, module, n, twice, label)


@pytest.mark.parametrize(
    "group, level, label",
    [
        ("S", Fraction(2), ()),
        ("S", Fraction(2), (3,)),
        ("S", Fraction(2), (3, 2)),
        ("S", Fraction(5, 2), (4,)),
        ("S", Fraction(5, 2), (1, 1)),
        ("A", Fraction(2), AltLabel((3,))),
        ("A", Fraction(2), AltLabel((2, 1), "+")),
        ("A", Fraction(5, 2), AltLabel((4,))),
        ("A", Fraction(5, 2), AltLabel((2, 2), "-")),
    ],
)
def test_oracle_refuses_wrong_size_labels_like_the_formulas(group, level, label):
    # the oracle restates the formulas' label-size rule rather than import it
    ctx = GroupModuleContext(group, 4, "perm", level)
    with pytest.raises(ValueError) as formula:
        block_dimension(ctx, label)
    with pytest.raises(ValueError) as by_characters:
        multiplicity_oracle(ctx, label)
    assert str(by_characters.value) == str(formula.value)
    assert str(formula.value).startswith("expected a ")


def test_pair_count_examples():
    assert pair_count_oracle(4, 3, (2, 2)) == 5
    assert pair_count_oracle(4, 3, (3, 1)) == 10
    for n in range(1, 6):
        assert pair_count_oracle(n, 0, (n,)) == 1


def test_pair_count_caps():
    with pytest.raises(ScaleExceeded):
        pair_count_oracle(7, 3, (7,))
    with pytest.raises(ScaleExceeded):
        pair_count_oracle(4, 9, (4,))
    with pytest.raises(ValueError):
        pair_count_oracle(4, 3, (2, 1))


def test_oracle_shares_no_code_with_the_formulas():
    # verify means something only while the oracle stays independent
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert not imported & {"dims", "bratteli", "verify"}, imported
