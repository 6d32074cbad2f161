import itertools
import os
import random
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from seed_reference import Dominance, dominance_compare, hook_length, kostka

import centdim
from centdim.young import (
    conjugate,
    format_partition,
    hook_terms,
    involutions_with_fixed_points,
    kostka_hook_type,
    num_skew_syt,
    num_syt,
    parse_partition,
    partition_count,
    partitions_of,
)


@st.composite
def partitions(draw, max_size=10):
    n = draw(st.integers(min_value=0, max_value=max_size))
    return draw(st.sampled_from(partitions_of(n))) if n else ()


def syt_by_growth(shape):
    """Count standard tableaux by placing 1..n one cell at a time."""

    def rec(filled):
        if filled == shape:
            return 1
        total = 0
        for i in range(len(shape)):
            if filled[i] < shape[i] and (i == 0 or filled[i - 1] > filled[i]):
                total += rec(filled[:i] + (filled[i] + 1,) + filled[i + 1 :])
        return total

    return rec((0,) * len(shape))


def syt_by_filter(shape):
    """Count standard tableaux the slow way: filter all fillings."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    count = 0
    for perm in itertools.permutations(range(len(cells))):
        grid = dict(zip(cells, perm))
        ok = all(
            (j + 1 >= shape[i] or grid[(i, j + 1)] > v)
            and (i + 1 >= len(shape) or shape[i + 1] <= j or grid[(i + 1, j)] > v)
            for (i, j), v in grid.items()
        )
        count += ok
    return count


def test_conjugate_examples():
    assert conjugate((6, 4, 3, 2, 2)) == (5, 5, 3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


@given(partitions(max_size=12))
def test_conjugate_is_involutive(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_conjugate_refuses_non_partitions_before_its_memo_in_a_fresh_process():
    # the memo is read only after the check, so no refusal leaves an answer
    # behind for a later caller, as (2,) for (1, 2) once was
    src = Path(centdim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "from centdim.young import _conjugate, conjugate\n"
         "for bad in ((1, 2), None, (2, 0)):\n"
         "    try:\n"
         "        conjugate(bad)\n"
         "    except ValueError as exc:\n"
         "        print(exc)\n"
         "print(_conjugate.cache_info().currsize)\n"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "not a valid partition: (1, 2)",
        "not a valid partition: None",
        "not a valid partition: (2, 0)",
        "0",
    ]


def test_dominance_examples():
    assert dominance_compare((3, 1), (2, 2)) == Dominance.GREATER
    assert dominance_compare((2, 2), (3, 1)) == Dominance.LESS
    assert dominance_compare((3, 1, 1, 1), (2, 2, 2)) == Dominance.INCOMPARABLE
    assert dominance_compare((2, 1), (2, 1)) == Dominance.EQUAL
    with pytest.raises(ValueError):
        dominance_compare((3, 1), (2, 2, 2))


@given(partitions(max_size=9), partitions(max_size=9))
def test_dominance_antisymmetry(lam, mu):
    if sum(lam) != sum(mu):
        return
    a = dominance_compare(lam, mu)
    b = dominance_compare(mu, lam)
    flip = {
        Dominance.LESS: Dominance.GREATER,
        Dominance.GREATER: Dominance.LESS,
        Dominance.EQUAL: Dominance.EQUAL,
        Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
    }
    assert b == flip[a]
    assert (a == Dominance.EQUAL) == (lam == mu)


def test_hook_length_examples():
    assert hook_length((6, 4, 3, 2, 2), 2, 2) == 6
    assert hook_length((2, 2), 1, 1) == 3
    assert hook_length((1,), 1, 1) == 1
    with pytest.raises(ValueError):
        hook_length((6, 4, 3, 2, 2), 2, 5)
    with pytest.raises(ValueError):
        hook_length((2, 2), 3, 1)


def test_num_syt_small_shapes_brute_force():
    for n in range(9):
        for lam in partitions_of(n):
            assert num_syt(lam) == syt_by_growth(lam), lam
    for n in range(6):
        for lam in partitions_of(n):
            assert num_syt(lam) == syt_by_filter(lam), lam


def test_num_syt_squares_sum_to_factorial():
    for n in range(15):
        assert sum(num_syt(lam) ** 2 for lam in partitions_of(n)) == factorial(n)
    for n in range(13):
        for lam in partitions_of(n):
            hooks = 1
            for row, part in enumerate(lam, 1):
                for col in range(1, part + 1):
                    hooks *= hook_length(lam, row, col)
            assert num_syt(lam) * hooks == factorial(n), lam


def test_num_skew_syt_examples():
    assert num_skew_syt((2, 2), (1,)) == 2
    assert num_skew_syt((2, 2), (2,)) == 1
    assert num_skew_syt((2, 2)) == num_syt((2, 2)) == 2
    assert num_skew_syt((3, 1), (3, 1)) == 1
    with pytest.raises(ValueError):
        num_skew_syt((2, 2), (3,))


def test_kostka_examples():
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2
    assert kostka((2, 2), (3, 1)) == 0
    assert kostka((), ()) == 1
    with pytest.raises(ValueError):
        kostka((2, 2), (2, 1))


@given(partitions(max_size=8))
def test_kostka_standard_content_is_syt_count(lam):
    assert kostka(lam, (1,) * sum(lam)) == num_syt(lam)


def test_kostka_vanishes_below_dominance():
    for n in range(8):
        for lam in partitions_of(n):
            for gamma in partitions_of(n):
                rel = dominance_compare(lam, gamma)
                if rel in (Dominance.LESS, Dominance.INCOMPARABLE):
                    assert kostka(lam, gamma) == 0, (lam, gamma)
                else:
                    assert kostka(lam, gamma) >= 1, (lam, gamma)


def test_kostka_hook_type_examples():
    assert kostka_hook_type((2, 2), 4, 2) == 1
    assert kostka_hook_type((2, 2), 4, 1) == 0
    for n in range(1, 7):
        for t in range(n + 1):
            assert kostka_hook_type((n,), n, t) == 1
    with pytest.raises(ValueError):
        kostka_hook_type((2, 2), 5, 1)
    with pytest.raises(ValueError):
        kostka_hook_type((2, 2), 4, 5)


def test_kostka_hook_type_cross_checked_against_kostka():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for t in range(n + 1):
                hook = (n - t,) + (1,) * t if t < n else (1,) * n
                assert kostka_hook_type(lam, n, t) == kostka(lam, hook), (lam, t)
            # the two spellings of the all-ones type agree
            assert kostka_hook_type(lam, n, n) == kostka_hook_type(lam, n, n - 1)


def skew_count(lam, n, t):
    """K(lam, (n-t, 1^t)) as f^(lam/(n-t)), counted by peeling corners."""
    if lam and lam[0] < n - t:
        return 0
    return num_skew_syt(lam, (n - t,) if t < n else ())


def test_kostka_hook_type_matches_skew_counts():
    for n in range(15):
        for lam in partitions_of(n):
            for t in range(n + 1):
                assert kostka_hook_type(lam, n, t) == skew_count(lam, n, t), (lam, t)
    # larger shapes, where rows past the first add terms (lam_i - i >= n - t)
    rng = random.Random(2016)
    overlaps = 0
    for _ in range(300):
        n = rng.randint(20, 40)
        lam = rng.choice(partitions_of(n))
        t = rng.randint(n - lam[0], n)
        assert kostka_hook_type(lam, n, t) == skew_count(lam, n, t), (lam, t)
        assert kostka_hook_type(lam, n, n) == kostka_hook_type(lam, n, n - 1) == num_syt(lam)
        overlaps += len(lam) > 1 and lam[1] - 1 >= n - t
    assert overlaps >= 100


def test_hook_terms_truncate_where_the_binomials_vanish():
    # the kernel sums the terms of hook_terms(lam, top) once for every t <= top
    assert list(hook_terms((), 0)) == [(1, 0, 1)]
    for m in range(11):
        for lam in partitions_of(m):
            for top in range(m + 1):
                terms = list(hook_terms(lam, top))
                sizes = [size for _, size, _ in terms]
                assert sizes == sorted(set(sizes)) and all(s <= top for s in sizes)
                for t in range(top + 1):
                    got = sum(sign * comb(t, size) * f for sign, size, f in terms)
                    assert got == skew_count(lam, m, t), (lam, top, t)


def test_hook_terms_check_their_shape_once(monkeypatch):
    from centdim import young

    checked = []
    real = young.check_partition
    monkeypatch.setattr(young, "check_partition", lambda lam: checked.append(lam) or real(lam))
    lam = (5, 4, 3, 2, 1)
    terms = list(hook_terms(lam, 18))
    assert len(terms) == 5 and checked == [lam]  # not once more for each term
    # the shape is checked even when no term is needed
    for call in (lambda: list(hook_terms((1, 3), 0)), lambda: kostka_hook_type((1, 3), 4, 2)):
        with pytest.raises(ValueError, match=r"not a valid partition: \(1, 3\)"):
            call()


def test_partitions_of_order_and_counts():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(6)) == 11
    for n in range(10):
        parts = partitions_of(n)
        assert list(parts) == sorted(parts, reverse=True)


def brute_force_involutions(r):
    by_fixed = {}
    for perm in itertools.permutations(range(r)):
        if all(perm[perm[i]] == i for i in range(r)):
            fixed = sum(1 for i in range(r) if perm[i] == i)
            by_fixed[fixed] = by_fixed.get(fixed, 0) + 1
    return by_fixed


def test_involutions_with_fixed_points():
    assert involutions_with_fixed_points(4, 4) == 1
    assert involutions_with_fixed_points(4, 2) == 6
    assert involutions_with_fixed_points(4, 0) == 3
    assert involutions_with_fixed_points(5, 2) == 0
    with pytest.raises(ValueError):
        involutions_with_fixed_points(3, 4)
    for r in range(8):
        counts = brute_force_involutions(r)
        for p in range(r + 1):
            assert involutions_with_fixed_points(r, p) == counts.get(p, 0), (r, p)


def test_parse_and_format_partition():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("empty") == ()
    assert format_partition((3, 1, 1)) == "3,1,1"
    assert format_partition(()) == "empty"
    with pytest.raises(ValueError):
        parse_partition("1,3")
    with pytest.raises(ValueError):
        parse_partition("3,x")
    with pytest.raises(ValueError):
        parse_partition("3,0")


@given(partitions(max_size=12))
def test_partition_text_roundtrip(lam):
    assert parse_partition(format_partition(lam)) == lam


def test_partition_count_is_p_n_or_stops_past_its_bound():
    for n in range(40):
        assert partition_count(n, 10**9) == len(partitions_of(n)), n
        counted = partition_count(n, 100)  # p(13) = 101 is the first above 100
        assert counted == (len(partitions_of(n)) if n <= 13 else 101), n
    assert partition_count(10**9, 50_000) == 53_174  # p(42), at once
