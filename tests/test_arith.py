import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import seed_reference as ref
from hypothesis import given, settings, strategies as st
from seed_reference import bell, set_partitions, singleton_free_bell

import centdim
from centdim import arith
from centdim.arith import (
    bell_restricted,
    binomial,
    odd_double_factorial,
    signed_stirling2,
    stirling2,
)
from centdim.young import involutions_with_fixed_points, kostka_hook_type, partitions_of


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


FLOAT_CALLS = [  # (function, integer arguments, the same with a float)
    (partitions_of, (2,), (2.0,)),
    (involutions_with_fixed_points, (3, 1), (3.0, 1)),
    (kostka_hook_type, ((2, 1), 3, 1), ((2, 1), 3, 1.0)),
    (binomial, (3, 1), (3.0, 1)),
    (odd_double_factorial, (3,), (3.0,)),
    (stirling2, (3, 2), (3.0, 2)),
    (signed_stirling2, (3, 2), (3.0, 2)),
    (bell_restricted, (3, 2), (3.0, 2)),
]


@pytest.mark.parametrize("f, good, bad", [pytest.param(*c, id=c[0].__name__) for c in FLOAT_CALLS])
def test_a_float_argument_is_refused_with_value_error(f, good, bad):
    # 3.0 == 3 and both hash alike: with the integer call warm, a memo or
    # table read before the check would answer for the float
    f(*good)
    info = f.cache_info() if hasattr(f, "cache_info") else None
    with pytest.raises(ValueError, match=r"need (integers|an integer) .*, got "):
        f(*bad)
    assert (f.cache_info() if info else None) == info


def test_stirling2_known_values():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(3, 5) == 0
    assert stirling2(5, 0) == 0
    assert stirling2(6, 6) == 1


def test_stirling2_matches_sympy():
    sympy_numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for k in range(61):
        for t in range(-1, k + 2):
            expected = sympy_numbers.stirling(k, t) if t >= 0 else 0
            assert stirling2(k, t) == expected, (k, t)


def test_stirling2_has_no_depth_limit():
    # far deeper than the interpreter's recursion limit allows a plain
    # recursion to go; the recurrence still holds at the top
    stirling2.cache_clear()
    assert stirling2(3000, 4) == 4 * stirling2(2999, 4) + stirling2(2999, 3)
    assert stirling2(3000, 1) == 1
    assert stirling2(3000, 2999) == 3000 * 2999 // 2


def test_stirling2_triangle_recurrence():
    # S2(k+1, t) = t*S2(k, t) + S2(k, t-1)
    for k in range(1, 17):
        for t in range(1, k + 1):
            assert stirling2(k + 1, t) == t * stirling2(k, t) + stirling2(k, t - 1)


def test_stirling2_binomial_sum_identity():
    # S2(k+1, t+1) = sum_r C(k, r) * S2(r, t)
    for k in range(13):
        for t in range(k + 1):
            lhs = stirling2(k + 1, t + 1)
            rhs = sum(binomial(k, r) * stirling2(r, t) for r in range(t, k + 1))
            assert lhs == rhs, (k, t)


def test_stirling2_matches_enumeration():
    for k in range(10):
        by_blocks = {}
        for p in set_partitions(k):
            by_blocks[len(p)] = by_blocks.get(len(p), 0) + 1
        for t in range(k + 2):
            assert stirling2(k, t) == by_blocks.get(t, 0)


def test_bell_values():
    assert bell(0) == 1
    assert bell(4) == 15
    assert bell(7) == 877


def test_bell_is_row_sum():
    for k in range(15):
        assert bell(k) == sum(stirling2(k, t) for t in range(k + 1))
        assert bell_restricted(k, k) == bell(k)
        assert bell_restricted(k, k + 3) == bell(k)


def test_bell_restricted_values():
    assert bell_restricted(8, 4) == 2795
    assert bell_restricted(7, 4) == 715
    assert bell_restricted(5, 4) == 51
    assert bell_restricted(3, 1) == 1


def test_odd_double_factorial():
    assert odd_double_factorial(-1) == 1
    assert odd_double_factorial(0) == 1
    assert odd_double_factorial(1) == 1
    assert odd_double_factorial(5) == 15
    assert odd_double_factorial(7) == 105
    with pytest.raises(ValueError):
        odd_double_factorial(4)
    with pytest.raises(ValueError):
        odd_double_factorial(-3)


def test_set_partitions_canonical_and_complete():
    seen = set(set_partitions(4))
    assert len(seen) == bell(4)
    for blocks in seen:
        mins = [b[0] for b in blocks]
        assert mins == sorted(mins)
        assert all(b == tuple(sorted(b)) for b in blocks)
        assert sorted(x for b in blocks for x in b) == [1, 2, 3, 4]
    assert list(set_partitions(0)) == [()]


def test_singleton_free_values():
    assert [singleton_free_bell(m) for m in range(9)] == [1, 0, 1, 1, 4, 11, 41, 162, 715]


def test_singleton_free_pairs_with_bell():
    # the closed form against direct enumeration, each m enumerated once
    counted = [
        sum(1 for p in set_partitions(m) if all(len(b) >= 2 for b in p))
        for m in range(12)
    ]
    assert [singleton_free_bell(m) for m in range(12)] == counted
    # dropping the block of a designated element splits the count
    for m in range(11):
        assert counted[m] + counted[m + 1] == bell(m)


def signed_by_binomial_sum(k, t):
    return sum((-1) ** (k - j) * binomial(k, j) * ref.stirling2(j, t) for j in range(k + 1))


def test_signed_stirling2_is_the_binomial_transform():
    for k in range(61):
        for t in range(-3, k + 4):
            assert signed_stirling2(k, t) == signed_by_binomial_sum(k, t), (k, t)


def test_signed_stirling2_row_sums_are_singleton_free():
    for k in range(41):
        assert sum(signed_stirling2(k, t) for t in range(k + 1)) == singleton_free_bell(k)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=-3, max_value=43))
def test_binomial_symmetry(n, k):
    assert binomial(n, k) == binomial(n, n - k)


@given(st.integers(min_value=0, max_value=30))
def test_stirling2_extremes(k):
    assert stirling2(k, k) == 1
    assert stirling2(k, 1) == (1 if k >= 1 else 0)
    if k >= 2:
        assert stirling2(k, k - 1) == binomial(k, 2)


def fresh_arith():
    """A new copy of centdim.arith, with an empty Stirling table and cache."""
    spec = importlib.util.spec_from_file_location("fresh_arith", arith.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def stirling_index(draw):
    k = draw(st.integers(min_value=0, max_value=150))
    t = draw(st.one_of(
        st.integers(min_value=0, max_value=k),
        st.integers(min_value=max(k - 3, -3), max_value=k + 3),
        st.integers(min_value=-3, max_value=3),
    ))
    return draw(st.booleans()), k, t


@settings(max_examples=60, deadline=None)
@given(st.lists(stirling_index(), min_size=1, max_size=25))
def test_stirling2_table_is_independent_of_call_order(calls):
    # signed calls fill their own table, interleaved with the unsigned ones
    table = fresh_arith()
    for signed, k, t in calls:
        if signed:
            assert table.signed_stirling2(k, t) == signed_by_binomial_sum(k, t), (k, t)
        else:
            assert table.stirling2(k, t) == ref.stirling2(k, t), (k, t)


def run_python(code):
    """Run code in a fresh interpreter that imports the package under test."""
    src = Path(centdim.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )


def explicit_stirling2(k, t, shift=0):
    """S2(k, t) = sum_j (-1)^(t-j) C(t, j) j^k / t!, with no table at all.
    With shift -1, (j - 1)^k in place of j^k gives signed_stirling2(k, t)."""
    total = sum((-1) ** (t - j) * binomial(t, j) * (j + shift) ** k for j in range(t + 1))
    return total // math.factorial(t)


def bell_triangle(k):
    """B(k) from Aitken's array: each row starts with the last entry of the
    row before, and each entry adds its left neighbour and the one above."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_stirling2_needs_no_stack_in_a_fresh_process():
    proc = run_python(
        "import sys\n"
        "from centdim.arith import bell_restricted, signed_stirling2, stirling2\n"
        "sys.setrecursionlimit(60)\n"
        "print(stirling2(5000, 7), stirling2(3000, 2999), bell_restricted(400, 400))\n"
        "print(signed_stirling2(5000, 7), signed_stirling2(3000, 2999))\n"
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == [
        str(explicit_stirling2(5000, 7)), str(3000 * 2999 // 2), str(bell_triangle(400)),
        str(explicit_stirling2(5000, 7, -1)), str(3000 * 2999 // 2 - 3000),
    ]


def test_stirling2_table_is_a_staircase_in_a_fresh_process():
    # S2(3000, 2999) needs 2,999 rows of two cells; a full triangle of rows
    # S2(k, 0..k) for k <= 3000 would hold about 4.5 million big integers.
    # signed_stirling2 fills the same staircase in its own table.
    proc = run_python(
        "import tracemalloc\n"
        "from centdim.arith import signed_stirling2, stirling2\n"
        "tracemalloc.start()\n"
        "stirling2(3000, 2999)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
        "tracemalloc.reset_peak()\n"
        "signed_stirling2(3000, 2999)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    peaks = [int(x) for x in proc.stdout.split()]
    assert len(peaks) == 2 and max(peaks) < 10 * 2**20
