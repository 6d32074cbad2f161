import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from seed_reference import bell, kostka, singleton_free_bell

import centdim
from centdim import limits
from centdim.arith import bell_restricted, binomial, stirling2
from centdim.branch import AltLabel, alt_labels, induce_alt, induce_sym, restrict_alt, restrict_sym
from centdim.dims import (
    GroupModuleContext,
    block_dimension,
    check_labels,
    decompose,
    dim_model_block,
    dim_partition_algebra_irr,
    dim_qp_irr,
    dim_qz,
    dim_qz_alt,
    dim_qz_alt_half,
    dim_qz_half,
    dim_z,
    dim_z_algebra,
    dim_z_alt,
    dim_z_alt_half,
    dim_z_half,
    parse_level,
    stable_count,
    stable_shapes,
)
from centdim.oracle import multiplicity_oracle
from centdim.young import (
    conjugate,
    kostka_hook_type,
    num_skew_syt,
    num_syt,
    partitions_of,
)


def ctx(group, n, module, level):
    return GroupModuleContext(group, n, module, Fraction(level))


def test_level_parsing():
    assert parse_level("7/2") == Fraction(7, 2)
    assert parse_level("3.5") == Fraction(7, 2)
    assert parse_level("3") == Fraction(3)
    assert str(parse_level("7/2")) == "7/2"
    with pytest.raises(ValueError):
        parse_level("5/3")
    with pytest.raises(ValueError):
        parse_level("-1")
    with pytest.raises(ValueError):
        parse_level("x")
    # exponents up to a thousand past the text's length are expanded exactly
    assert parse_level("1e400") == 10**400
    assert parse_level("25e-1") == Fraction(5, 2)
    assert parse_level("0.5e1_0") == 5 * 10**9
    # longer ones are judged from the mantissa, at once
    assert parse_level("0e30000000") == parse_level("-0.0e-30000000") == 0
    with pytest.raises(OverflowError, match="^level must be at most 10000$"):
        parse_level("1e30000000")
    for text in ("1e-5000", "-1e30000000", "-2.5e-30000000"):
        with pytest.raises(ValueError, match=f"^level must be a nonnegative half-integer, got {text}$"):
            parse_level(text)
    for text in ("1/2e30000000", "e30000000", "1 e30000000", "1e3e30000000"):
        with pytest.raises(ValueError, match="^cannot parse level"):
            parse_level(text)


def test_context_validation():
    with pytest.raises(ValueError):
        GroupModuleContext("X", 4, "perm", Fraction(1))
    with pytest.raises(ValueError):
        GroupModuleContext("S", 4, "standard", Fraction(1))
    with pytest.raises(ValueError):
        GroupModuleContext("S", 0, "perm", Fraction(1))
    with pytest.raises(ValueError):
        GroupModuleContext("S", 4, "perm", Fraction(1, 3))


def test_dim_z_known_values():
    assert dim_z(4, 3, (2, 2)) == 5
    assert dim_z(6, 4, (3, 2, 1)) == 20
    assert dim_z(4, 3, (1, 1, 1, 1)) == 1
    assert dim_z(4, 0, (4,)) == 1
    assert dim_z(4, 0, (3, 1)) == 0
    with pytest.raises(ValueError):
        dim_z(4, 3, (3, 3))


def test_trivial_block_is_restricted_bell_for_wide_n():
    # K((n), hook(n, t)) = 1, and only t <= k contributes
    for n in (300, 1200):
        for k in range(4):
            assert dim_z(n, k, (n,)) == bell_restricted(k, n), (n, k)


def test_dim_z_half_known_values():
    assert dim_z_half(4, 3, (2, 1)) == 21
    assert dim_z_half(6, 3, (4, 1)) == 22
    for n in range(2, 7):
        assert dim_z_half(n, 0, (n - 1,)) == 1
    assert dim_z_half(1, 2, ()) == 1
    with pytest.raises(ValueError):
        dim_z_half(4, 3, (2, 2))


def test_dim_z_alt_known_values():
    assert dim_z_alt(4, 3, AltLabel((4,))) == 6
    assert dim_z_alt(4, 3, AltLabel((3, 1))) == 16
    assert dim_z_alt(4, 3, AltLabel((2, 2), "+")) == 5
    assert dim_z_alt(4, 3, AltLabel((2, 2), "-")) == 5


def test_dim_z_alt_half_known_values():
    assert dim_z_alt_half(4, 3, AltLabel((3,))) == 22
    assert dim_z_alt_half(4, 2, AltLabel((2, 1), "+")) == 5
    assert dim_z_alt_half(6, 3, AltLabel((3, 1, 1), "+")) == 9


def test_dim_qz_known_values():
    assert dim_qz(6, 1, (6,)) == 0
    assert dim_qz(6, 3, (3, 2, 1)) == 2
    assert dim_qz(6, 4, (4, 2)) == 13
    assert dim_qz_half(6, 3, (4, 1)) == 10
    assert dim_qz_half(6, 0, (5,)) == 1
    assert dim_qz_half(6, 3, (2, 2, 1)) == 2
    assert dim_qz_alt(6, 4, AltLabel((4, 1, 1))) == 19
    assert dim_qz_alt(6, 4, AltLabel((3, 2, 1), "+")) == 12
    assert dim_qz_alt_half(6, 3, AltLabel((3, 1, 1), "-")) == 6


def test_algebra_dimension_known_values():
    assert dim_z_algebra(ctx("S", 4, "perm", 3)) == 187
    assert dim_z_algebra(ctx("A", 4, "perm", Fraction(7, 2))) == 1366
    assert dim_z_algebra(ctx("S", 6, "refl", 4)) == 694
    assert dim_z_algebra(ctx("A", 6, "refl", 4)) == 1114
    for k in (1, 2, 3):
        n = 2 * k + 1
        assert dim_z_algebra(ctx("A", n, "perm", k)) == bell(2 * k) + 1


def hook_content(n, t):
    return (n - t,) + (1,) * t if t < n else (1,) * n


def dim_z_by_general_kostka(n, k, lam):
    return sum(stirling2(k, t) * kostka(lam, hook_content(n, t)) for t in range(n + 1))


def dim_z_by_skew_counts(n, k, lam):
    below = n - lam[0]
    total = 0
    for t in range(below, n + 1):
        inner = (n - t,) if t < n else ()
        total += stirling2(k, t) * num_skew_syt(lam, inner)
    return total


def dim_z_split_form(n, k, lam):
    trunk = lam[1:]
    lam2 = lam[1] if len(lam) > 1 else 0
    head = num_syt(trunk) * sum(
        binomial(t, sum(trunk)) * stirling2(k, t)
        for t in range(sum(trunk), n - lam2 + 1)
    )
    tail = 0
    for t in range(n - lam2 + 1, n + 1):
        inner = (n - t,) if t < n else ()
        tail += stirling2(k, t) * num_skew_syt(lam, inner)
    return head + tail


def test_three_expressions_agree():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for k in range(7):
                value = dim_z(n, k, lam)
                assert value == dim_z_by_general_kostka(n, k, lam), (n, k, lam)
                assert value == dim_z_by_skew_counts(n, k, lam), (n, k, lam)
                assert value == dim_z_split_form(n, k, lam), (n, k, lam)


@pytest.mark.parametrize("group, n, level", [
    ("S", 25, 25), ("S", 25, Fraction(51, 2)), ("S", 30, Fraction(7, 2)),
    ("S", 12, Fraction(15, 2)), ("S", 9, 9),
    ("A", 20, 20), ("A", 20, Fraction(41, 2)), ("A", 12, 12), ("A", 9, 9),
    ("A", 7, Fraction(15, 2)),
])
@pytest.mark.parametrize("module", ["perm", "refl"])
def test_rows_add_up_to_the_tensor_power(group, n, module, level):
    # V^k is the sum over labels of irrep(label) times its block dimension,
    # counted with no Kostka number; half levels restrict V^k to the subgroup
    c = ctx(group, n, module, level)
    total = 0
    for label, d in decompose(c):
        if group == "S":
            total += num_syt(label) * d
        else:
            irrep = num_syt(label.base)
            total += (irrep // 2 if label.sign else irrep) * d
    rank = n if module == "perm" else n - 1
    assert total == rank ** math.floor(c.level)


def test_deep_labels_need_no_stack_in_a_fresh_process():
    src = Path(centdim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from fractions import Fraction\n"
         "from centdim.arith import bell_restricted\n"
         "from centdim.dims import GroupModuleContext, block_dimension\n"
         "sys.setrecursionlimit(80)\n"
         "c = GroupModuleContext('S', 700, 'perm', Fraction(700))\n"
         "for lam in [(700,), (350, 350), (400, 300), (234, 233, 233),\n"
         "            (3,) * 233 + (1,), (2,) * 349 + (1, 1), (1,) * 700]:\n"
         "    print(block_dimension(c, lam))\n"
         "print(bell_restricted(700, 700))\n"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    *values, bell_700 = [int(line) for line in proc.stdout.split()]
    assert len(values) == 7 and min(values) > 0
    assert values[0] == bell_700
    assert values[-1] == 700 * 699 // 2 + 1


def test_half_level_binomial_cross_expression():
    # restriction to the subgroup spreads over binomial coefficients
    for n in range(2, 7):
        for mu in partitions_of(n - 1):
            for k in range(6):
                direct = dim_z_half(n, k, mu)
                spread = sum(
                    binomial(k, s) * dim_z(n - 1, s, mu) for s in range(k + 1)
                )
                assert direct == spread, (n, k, mu)


def test_pascal_recursions_sym():
    for n in range(2, 7):
        for k in range(6):
            for mu in partitions_of(n - 1):
                parents = [
                    lam for lam in partitions_of(n) if mu in restrict_sym(lam)
                ]
                assert dim_z_half(n, k, mu) == sum(
                    dim_z(n, k, lam) for lam in parents
                )
            for lam in partitions_of(n):
                assert dim_z(n, k + 1, lam) == sum(
                    dim_z_half(n, k, mu) for mu in restrict_sym(lam)
                )


def test_pascal_recursions_alt():
    for n in range(3, 7):
        for k in range(6):
            for mu in alt_labels(n - 1):
                parents = [
                    lab for lab in alt_labels(n) if mu in restrict_alt(lab)
                ]
                assert dim_z_alt_half(n, k, mu) == sum(
                    dim_z_alt(n, k, lab) for lab in parents
                )
            for lab in alt_labels(n):
                assert dim_z_alt(n, k + 1, lab) == sum(
                    dim_z_alt_half(n, k, mu) for mu in restrict_alt(lab)
                )


def test_pascal_recursions_quasi():
    # half rows are plain Pascal; integer rows subtract the level below
    for n in range(2, 7):
        for k in range(5):
            for mu in partitions_of(n - 1):
                parents = [
                    lam for lam in partitions_of(n) if mu in restrict_sym(lam)
                ]
                assert dim_qz_half(n, k, mu) == sum(
                    dim_qz(n, k, lam) for lam in parents
                )
            for lam in partitions_of(n):
                assert dim_qz(n, k + 1, lam) == sum(
                    dim_qz_half(n, k, mu) for mu in restrict_sym(lam)
                ) - dim_qz(n, k, lam)


def test_sum_of_squares_is_algebra_dimension():
    for group in ("S", "A"):
        for module in ("perm", "refl"):
            for n in range(2, 7):
                for twice in range(9):
                    c = ctx(group, n, module, Fraction(twice, 2))
                    total = sum(d * d for _, d in decompose(c))
                    assert total == dim_z_algebra(c), (group, module, n, twice)


def test_quasi_inversion_roundtrip():
    for n in range(2, 7):
        for k in range(6):
            for lam in partitions_of(n):
                assert dim_z(n, k, lam) == sum(
                    binomial(k, low) * dim_qz(n, low, lam) for low in range(k + 1)
                )
            for mu in partitions_of(n - 1):
                assert dim_z_half(n, k, mu) == sum(
                    binomial(k, low) * dim_qz_half(n, low, mu)
                    for low in range(k + 1)
                )
        for k in range(5):
            for lab in alt_labels(n):
                assert dim_z_alt(n, k, lab) == sum(
                    binomial(k, low) * dim_qz_alt(n, low, lab)
                    for low in range(k + 1)
                )


def test_reflection_half_levels_are_permutation_levels_one_letter_down():
    # R restricted to S_{n-1} is M_{n-1}, so level k + 1/2 of R on n letters
    # is level k of M on n - 1 letters, block by block
    blocks = 0
    for group in ("S", "A"):
        for n in range(2, 11):
            for k in range(13):
                refl = ctx(group, n, "refl", Fraction(2 * k + 1, 2))
                perm = ctx(group, n - 1, "perm", k)
                assert dim_z_algebra(refl) == dim_z_algebra(perm), (group, n, k)
                m = perm.label_size
                for label in partitions_of(m) if group == "S" else alt_labels(m):
                    assert block_dimension(refl, label) == block_dimension(perm, label)
                    blocks += 1
    assert blocks == 2054


def test_partition_algebra_stable_range():
    for k in range(5):
        for r in range(k + 1):
            for nu in partitions_of(r):
                stable = dim_partition_algebra_irr(Fraction(k), nu)
                for n in range(2 * k, 2 * k + 3):
                    if n - r < (nu[0] if nu else 0) or n == 0:
                        continue
                    lam = (n - r,) + nu
                    assert dim_z(n, k, lam) == stable, (k, nu, n)
                half_stable = dim_partition_algebra_irr(Fraction(2 * k + 1, 2), nu)
                for n in range(2 * k + 1, 2 * k + 4):
                    head = n - 1 - r
                    if head < (nu[0] if nu else 0):
                        continue
                    mu = (head,) + nu if head else nu
                    assert dim_z_half(n, k, mu) == half_stable, (k, nu, n)


def test_partition_algebra_irr_values():
    assert dim_partition_algebra_irr(Fraction(2), ()) == bell(2)
    assert dim_partition_algebra_irr(Fraction(4), (4,)) == 1
    for k in range(1, 6):
        for nu in partitions_of(k):
            assert dim_partition_algebra_irr(Fraction(k), nu) == num_syt(nu)
    with pytest.raises(ValueError):
        dim_partition_algebra_irr(Fraction(2), (2, 1))


def test_stable_dimensions_refuse_the_scale_caps_before_any_table():
    # the stable large-n values are blocks at label size 2k + 1, so a level
    # k reads k * k Stirling cells: k = 707 is the last under the cap
    calls = (
        lambda k: dim_partition_algebra_irr(k, ()),
        lambda k: dim_partition_algebra_irr(Fraction(2 * k + 1, 2), (1,)),
        lambda k: dim_qp_irr(k, (2,)),
        lambda k: dim_model_block(k, 2, 0),
    )
    refusals = [
        (708, "level 708 with labels of size 1417 needs 501264 Stirling numbers, "
              "above the cap of 500000"),
        (1500, "level 1500 with labels of size 3001 needs 2250000 Stirling numbers, "
               "above the cap of 500000"),
        (10_001, "level must be at most 10000"),
    ]
    tracemalloc.start()
    try:
        for k, message in refusals:
            for call in calls:
                with pytest.raises(ValueError) as info:
                    call(k)
                assert str(info.value) == message, k
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row of a level-1500 table would hold 1500 integers of 28 bytes or more
    assert peak < 28 * 1500, peak
    # the argument checks still come first
    with pytest.raises(ValueError, match=r"^\|\(2, 1\)\| exceeds the level floor 2$"):
        dim_partition_algebra_irr(Fraction(5, 2), (2, 1))
    with pytest.raises(ValueError, match="^not a valid partition: None$"):
        dim_qp_irr(1500, None)
    with pytest.raises(ValueError, match="^r - p must be even, got r=2, p=1$"):
        dim_model_block(10_001, 2, 1)


def test_stable_dimensions_answer_up_to_the_cap_in_a_fresh_process():
    src = Path(centdim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "from centdim.dims import dim_model_block, dim_partition_algebra_irr, dim_qp_irr\n"
         "from centdim.arith import bell_restricted\n"
         "assert dim_model_block(707, 0, 0) == bell_restricted(707, 707)\n"
         "print(dim_qp_irr(707, ()) > 0, dim_partition_algebra_irr(707, (707,)))\n"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True 1\n", "")


def test_algebra_dimension_refuses_its_level_2k_table_before_any_read():
    # the whole algebra reads the Stirling table at level 2k: n = k = 600
    # needs 1200 * 600 cells, though each block's level-600 table passes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            dim_z_algebra(ctx("S", 600, "perm", 600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "the algebra of S:600 perm at level 600 needs 720000 Stirling numbers, "
        "above the cap of 500000"
    )
    # one row of the level-1200 table would hold 600 integers of 28 bytes or more
    assert peak < 28 * 600, peak


def test_algebra_dimension_answers_under_the_cap_in_a_fresh_process():
    # n = k = 400 reads 800 * 400 cells; S_2 at level 6000 reads two columns
    src = Path(centdim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "from centdim.arith import bell_restricted\n"
         "from centdim.dims import GroupModuleContext, dim_z_algebra\n"
         "big = dim_z_algebra(GroupModuleContext('S', 400, 'perm', 400))\n"
         "wide = dim_z_algebra(GroupModuleContext('S', 2, 'perm', 6000))\n"
         "print(big == bell_restricted(800, 400), wide == 2 ** 11999)\n"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True\n", "")


def test_lam2small_closed_form():
    # second part at most 2: the tail collapses to two Stirling terms
    for n in range(2, 8):
        for lam in partitions_of(n):
            lam2 = lam[1] if len(lam) > 1 else 0
            if lam2 > 2 or lam[0] == 1:
                continue
            trunk = lam[1:]
            for k in range(7):
                head = num_syt(trunk) * sum(
                    binomial(t, sum(trunk)) * stirling2(k, t)
                    for t in range(sum(trunk), n - 1)
                )
                tail = num_syt(lam) * (stirling2(k, n - 1) + stirling2(k, n))
                assert dim_z(n, k, lam) == head + tail, (lam, k)
    for n in range(2, 8):
        ones = (1,) * n
        for k in range(7):
            assert dim_z(n, k, ones) == stirling2(k, n - 1) + stirling2(k, n)


def test_quasi_algebra_total_is_singleton_free_bell():
    assert singleton_free_bell(6) == 41
    assert singleton_free_bell(8) == 715
    for k in range(5):
        for n in range(2 * k, 2 * k + 3):
            if n < 2:
                continue
            value = dim_z_algebra(ctx("S", n, "refl", k))
            assert value == singleton_free_bell(2 * k), (k, n)
            telescoped = 1 + sum(
                (-1) ** (j - 1) * bell(2 * k - j) for j in range(1, 2 * k + 1)
            )
            assert value == telescoped, (k, n)


def test_quasi_partition_algebra_irr():
    assert dim_qp_irr(3, (2, 1)) == 2
    assert dim_qp_irr(2, (1,)) == 1
    for k in range(6):
        for r in range(k + 1):
            for nu in partitions_of(r):
                # inverts back onto the stable dimensions
                assert dim_partition_algebra_irr(Fraction(k), nu) == sum(
                    binomial(k, low) * dim_qp_irr(low, nu)
                    for low in range(r, k + 1)
                )
                # agrees with the finite quasi dimension once n >= 2k
                for n in (2 * k, 2 * k + 1):
                    if n - r < (nu[0] if nu else 0) or n < 2:
                        continue
                    assert dim_qz(n, k, (n - r,) + nu) == dim_qp_irr(k, nu)
    with pytest.raises(ValueError):
        dim_qp_irr(1, (2,))


def odd_columns(nu):
    return sum(1 for part in conjugate(nu) if part % 2)


def test_model_block_dimensions():
    assert dim_model_block(3, 3, 3) == 1
    for k in range(7):
        assert dim_model_block(k, 0, 0) == bell(k)
    assert dim_model_block(4, 2, 0) == sum(
        dim_partition_algebra_irr(Fraction(4), nu)
        for nu in partitions_of(2)
        if odd_columns(nu) == 0
    )
    # blocks group the stable irreducibles by odd-column count
    for k in range(7):
        for r in range(min(k, 6) + 1):
            for p in range(r % 2, r + 1, 2):
                expected = sum(
                    dim_partition_algebra_irr(Fraction(k), nu)
                    for nu in partitions_of(r)
                    if odd_columns(nu) == p
                )
                assert dim_model_block(k, r, p) == expected, (k, r, p)
    with pytest.raises(ValueError):
        dim_model_block(3, 2, 1)
    with pytest.raises(ValueError):
        dim_model_block(2, 3, 1)


def test_model_block_refuses_non_integer_r_and_p():
    # checked as k is, before the range and parity checks
    with pytest.raises(ValueError, match=r"^need integers r and p, got r=1\.0, p=1$"):
        dim_model_block(3, 1.0, 1)
    with pytest.raises(ValueError, match=r"^need integers r and p, got r=2, p=0\.0$"):
        dim_model_block(3, 2, 0.0)


def test_decompose_known_rows():
    assert decompose(ctx("S", 4, "perm", 3)) == [
        ((4,), 5),
        ((3, 1), 10),
        ((2, 2), 5),
        ((2, 1, 1), 6),
        ((1, 1, 1, 1), 1),
    ]
    assert decompose(ctx("A", 4, "perm", 3)) == [
        (AltLabel((4,)), 6),
        (AltLabel((3, 1)), 16),
        (AltLabel((2, 2), "+"), 5),
        (AltLabel((2, 2), "-"), 5),
    ]
    assert decompose(ctx("S", 5, "perm", 0)) == [((5,), 1)]
    assert decompose(ctx("A", 6, "perm", 0)) == [(AltLabel((6,)), 1)]


def test_mult_zero_labels_are_legal_queries():
    assert dim_z(5, 1, (3, 2)) == 0
    assert dim_qz(6, 1, (6,)) == 0
    assert all(d > 0 for _, d in decompose(ctx("S", 5, "perm", 1)))


def test_block_dimension_dispatch():
    assert block_dimension(ctx("S", 4, "perm", 3), (2, 2)) == 5
    assert block_dimension(ctx("A", 4, "perm", Fraction(7, 2)), AltLabel((3,))) == 22
    assert block_dimension(ctx("S", 6, "refl", 4), (4, 2)) == 13
    assert block_dimension(ctx("A", 6, "refl", 4), AltLabel((3, 2, 1), "-")) == 12


def test_a_label_of_the_wrong_kind_is_refused():
    # an S context given an AltLabel, an A context given a tuple: the kernel
    # and the oracle both refuse it as bad input, not with a TypeError
    cases = (
        (ctx("S", 4, "perm", 3), AltLabel((3, 1)),
         "not a valid partition: AltLabel((3, 1), None)"),
        (ctx("A", 4, "refl", Fraction(5, 2)), (3, 1),
         "an A label must be an AltLabel, got (3, 1)"),
    )
    for fn in (block_dimension, multiplicity_oracle):
        for context, label, message in cases:
            with pytest.raises(ValueError) as info:
                fn(context, label)
            assert str(info.value) == message
    # both sides share one label check: falsy labels, float parts and wrong
    # sizes are refused alike, in S and A, at label size 0 and above
    contexts = [
        ctx(group, n, module, level)
        for group in ("S", "A")
        for n, module, level in ((1, "perm", Fraction(1, 2)), (4, "refl", 3), (5, "perm", Fraction(5, 2)))
    ]
    seen = {}
    for context in contexts:
        m = context.label_size
        for label in (None, 0, False, (3, 1.0), (m + 1,), AltLabel((m + 1,))):
            messages = []
            for fn in (block_dimension, multiplicity_oracle):
                with pytest.raises(ValueError) as info:
                    fn(context, label)
                messages.append(str(info.value))
            assert messages[0] == messages[1], (context, label, messages)
            seen[context.group, m, repr(label)] = messages[0]
    assert seen["S", 0, "None"] == "not a valid partition: None"
    assert seen["S", 0, "False"] == "not a valid partition: False"
    assert seen["S", 4, "(3, 1.0)"] == "not a valid partition: (3, 1.0)"
    assert seen["S", 0, "(1,)"] == "expected a partition of 0, got (1,)"
    assert seen["A", 0, "0"] == "an A label must be an AltLabel, got 0"
    assert seen["A", 4, "AltLabel((5,), None)"] == "expected a label of size 4, got 5"


def test_entry_points_refuse_a_missing_shape():
    # no entry point reads a falsy shape as the empty partition
    calls = [
        (lambda: induce_sym(None, 1), "not a valid partition: None"),
        (lambda: num_skew_syt(None), "not a valid partition: None"),
        (lambda: num_skew_syt((2,), None), "not a valid partition: None"),
        (lambda: dim_partition_algebra_irr(2, None), "not a valid partition: None"),
        (lambda: dim_qp_irr(2, None), "not a valid partition: None"),
        (lambda: dim_z_half(1, 0, None), "not a valid partition: None"),
        (lambda: kostka_hook_type(None, 0, 0), "not a valid partition: None"),
        (lambda: induce_alt((3,), 4), "an A label must be an AltLabel, got (3,)"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    # the shape is checked before its size and before t
    for call in (lambda: kostka_hook_type((3, 1.0), 5, 9), lambda: induce_sym((3, 1.0), 9)):
        with pytest.raises(ValueError, match=r"not a valid partition: \(3, 1\.0\)"):
            call()


def _forged(cls, **fields):
    """An instance of cls holding the given fields, made without __init__."""
    x = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(x, name, value)
    return x


COPIES = [copy.copy, copy.deepcopy] + [
    lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)
]


def test_copies_and_pickles_rebuild_through_the_constructor():
    # a context stored with only its four fields derives k, half and label_size
    fresh = ctx("A", 5, "refl", Fraction(7, 2))
    four = _forged(GroupModuleContext, group="A", n=5, module="refl", level=Fraction(7, 2))
    for make_copy in COPIES:
        loaded = make_copy(four)
        assert (loaded.k, loaded.half, loaded.label_size) == (3, True, 4)
        assert loaded == fresh
        assert block_dimension(loaded, AltLabel((3, 1))) == block_dimension(fresh, AltLabel((3, 1)))
    # values the constructors refuse are refused on load with the same message
    forged = [
        (_forged(GroupModuleContext, group="S", n=-5, module="perm", level=Fraction(1)),
         "n must be a positive integer, got -5"),
        (_forged(AltLabel, base=(1, 1, 1), sign=None),
         "label base (1, 1, 1) is not canonical; use (3,)"),
    ]
    for value, message in forged:
        for make_copy in COPIES:
            with pytest.raises(ValueError) as info:
                make_copy(value)
            assert str(info.value) == message


def test_stable_shapes_are_the_first_row_range_in_order():
    # decompose scores these: hook_terms(lam, top) is empty unless
    # lam_1 >= m - top; the count builds none of them
    for n in range(1, 13):
        for m in (n, n - 1):
            for k in range(11):
                shapes = stable_shapes(k, m)
                assert shapes == [lam for lam in partitions_of(m) if not lam or lam[0] >= m - k]
                assert stable_count(k, m) == len(shapes), (k, m)


def pentagonal_partition_numbers(top):
    """p(0..top) by Euler's recurrence over the generalized pentagonal numbers."""
    p = [1]
    for m in range(1, top + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= m:
                    total += sign * p[m - g]
            j += 1
        p.append(total)
    return p


def test_stable_count_is_every_partition_once_k_reaches_m():
    p = pentagonal_partition_numbers(100)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[100] == 190_569_292
    for m in range(101):
        for k in (m, m + 1, 2 * m + 3):
            assert stable_count(k, m) == p[m], (k, m)


def test_label_cap_admits_its_bound():
    assert limits.CAPS["labels"][0] == 50_000
    check_labels(Fraction(41), 41)  # p(41) = 44,583
    check_labels(Fraction(83, 2), 41)  # a half level counts its floor
    check_labels(Fraction(2), 10_000)
    with pytest.raises(ValueError, match="has 53174 candidate labels, above the cap of 50000"):
        check_labels(Fraction(42), 42)
    with pytest.raises(ValueError, match="candidate labels"):
        decompose(ctx("S", 100, "perm", 100))
