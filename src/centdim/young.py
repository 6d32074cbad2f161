"""Partitions, tableaux counts, and Kostka numbers.

Partitions are tuples of weakly decreasing positive ints; () is the empty
partition. Text form is comma-separated parts ("3,1,1") with "empty" for ().
"""

from functools import cache
from math import factorial
from operator import neg

from .arith import binomial, odd_double_factorial


def is_partition(seq):
    prev = None
    for p in seq:
        if not isinstance(p, int) or p <= 0 or (prev is not None and p > prev):
            return False
        prev = p
    return True


def check_partition(seq, what="partition"):
    lam = tuple(seq)
    if not is_partition(lam):
        raise ValueError(f"not a valid {what}: {lam!r}")
    return lam


def parse_partition(text):
    """Inverse of format_partition: "3,1,1" -> (3, 1, 1), "empty" -> ()."""
    text = text.strip()
    if text == "empty":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}") from None
    return check_partition(parts)


def format_partition(lam):
    return ",".join(map(str, lam)) if lam else "empty"


def partition_sort_key(lam):
    """Sort key putting partitions in decreasing lexicographic order."""
    return tuple(map(neg, lam))


@cache
def conjugate(lam):
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def hook_length(lam, row, col):
    """Hook length at 1-based (row, col); raises if outside the diagram."""
    lam = tuple(lam)
    if not (1 <= row <= len(lam)) or not (1 <= col <= lam[row - 1]):
        raise ValueError(f"cell ({row},{col}) outside shape {lam}")
    arm = lam[row - 1] - col
    leg = sum(1 for i in range(row, len(lam)) if lam[i] >= col)
    return arm + leg + 1


@cache
def num_syt(lam):
    """Number of standard Young tableaux of shape lam, by the hook formula."""
    lam = check_partition(lam)
    n = sum(lam)
    denom = 1
    for r in range(1, len(lam) + 1):
        for c in range(1, lam[r - 1] + 1):
            denom *= hook_length(lam, r, c)
    if factorial(n) % denom:
        raise RuntimeError(f"hook product {denom} of {lam} does not divide {n}!")
    return factorial(n) // denom


def contains(outer, inner):
    """Whether the diagram of inner fits inside the diagram of outer."""
    return all(
        (inner[i] if i < len(inner) else 0) <= (outer[i] if i < len(outer) else 0)
        for i in range(max(len(outer), len(inner)))
    )


@cache
def num_skew_syt(outer, inner=()):
    """Number of standard tableaux of the skew shape outer/inner.

    Counted by peeling removable corners, memoized on the shape pair. The
    corner being removed may not dig into the inner shape.
    """
    outer = check_partition(outer) if outer else ()
    inner = check_partition(inner) if inner else ()
    if not contains(outer, inner):
        raise ValueError(f"shape {inner} does not fit inside {outer}")
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for i, part in enumerate(outer):
        inner_i = inner[i] if i < len(inner) else 0
        below = outer[i + 1] if i + 1 < len(outer) else 0
        if part > below and part > inner_i:
            smaller = outer[:i] + ((part - 1,) if part > 1 else ()) + outer[i + 1 :]
            total += num_skew_syt(smaller, inner)
    return total


def kostka_hook_type(lam, n, t):
    """Kostka number of lam against the hook type (n-t, 1^t).

    lam must be a partition of n; only its size is checked, since this runs
    once per term of every block dimension. t = n-1 and t = n both mean the
    type (1^n). The value is the number of standard tableaux of lam with the
    first a = n-t cells lying in row one, f^(lam/(a)). Aitken's determinant
    for that skew shape has one column that depends on a; expanding along
    it, with 0-based rows i,

        K = sum_i (-1)^i C(t, n - lam_i + i) f^(mu_i),
        mu_i = (lam_0 + 1, ..., lam_(i-1) + 1, lam_(i+1), ...),

    where |mu_i| = n - lam_i + i and the binomial vanishes from the first row
    with lam_i - i < a on. The i = 0 term C(t, n - lam_0) f^(lam_1, ...) is
    the stable-range term, and the whole sum once a >= lam_1. The mu_i do
    not depend on t, so num_syt's memo is the only per-shape state.
    num_skew_syt counts the same skew shape independently and serves as the
    reference in the test suite.
    """
    lam = tuple(lam)
    if sum(lam) != n:
        raise ValueError(f"expected a partition of {n}, got {lam}")
    if t < 0 or t > n:
        raise ValueError(f"hook parameter t = {t} outside 0..{n}")
    a = n - t
    total = 0 if lam else 1
    for i, part in enumerate(lam):
        if part - i < a:
            break
        mu = tuple(p + 1 for p in lam[:i]) + lam[i + 1 :]
        total += (-1) ** i * binomial(t, n - part + i) * num_syt(mu)
    return total


@cache
def partitions_of(n):
    """All partitions of n, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError(f"partitions_of: need n >= 0, got {n}")
    result = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(result)


def involutions_with_fixed_points(r, p):
    """Involutions of S_r with exactly p fixed points.

    C(r, p) * (r-p-1)!! when r - p is even, otherwise 0.
    """
    if not 0 <= p <= r:
        raise ValueError(f"need 0 <= p <= r, got p={p}, r={r}")
    if (r - p) % 2:
        return 0
    return binomial(r, p) * odd_double_factorial(r - p - 1)
