"""Partitions, tableaux counts, and Kostka numbers.

Partitions are tuples of weakly decreasing positive ints; () is the empty
partition. Text form is comma-separated parts ("3,1,1") with "empty" for ().
"""

import enum
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


class Dominance(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def dominance_compare(lam, mu):
    """Compare partitions of the same size in the dominance order.

    Uses partial sums, not lexicographic order: lam dominates mu when every
    prefix sum of lam is >= the matching prefix sum of mu. Unequal sizes are
    a domain error since dominance only relates partitions of equal weight.
    """
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError(
            f"dominance is only defined for equal sizes: |{lam}| != |{mu}|"
        )
    length = max(len(lam), len(mu))
    geq = leq = True
    a = b = 0
    for i in range(length):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            geq = False
        if a > b:
            leq = False
    if geq and leq:
        return Dominance.EQUAL
    if geq:
        return Dominance.GREATER
    if leq:
        return Dominance.LESS
    return Dominance.INCOMPARABLE


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


def _horizontal_strip_predecessors(lam, size):
    """All mu inside lam with lam/mu a horizontal strip of the given size.

    Interlacing characterization: lam[i+1] <= mu[i] <= lam[i] for all rows.
    """
    results = []
    row_count = len(lam)

    def rec(i, removed, prefix):
        if removed > size:
            return
        if i == row_count:
            if removed == size:
                mu = tuple(p for p in prefix if p > 0)
                results.append(mu)
            return
        low = lam[i + 1] if i + 1 < row_count else 0
        for mu_i in range(lam[i], low - 1, -1):
            rec(i + 1, removed + lam[i] - mu_i, prefix + (mu_i,))

    rec(0, 0, ())
    return results


@cache
def kostka(lam, content):
    """Kostka number: semistandard tableaux of shape lam and given content.

    content is any tuple of nonnegative ints summing to |lam| (entry i appears
    content[i-1] times). Computed by stripping the largest entry, which must
    occupy a horizontal strip.
    """
    lam = tuple(lam)
    content = tuple(content)
    if sum(lam) != sum(content):
        raise ValueError(f"content {content} does not sum to |{lam}| = {sum(lam)}")
    if not content:
        return 1 if not lam else 0
    total = 0
    for mu in _horizontal_strip_predecessors(lam, content[-1]):
        total += kostka(mu, content[:-1])
    return total


def kostka_hook_type(lam, n, t):
    """Kostka number of lam against the hook type (n-t, 1^t).

    t = n-1 and t = n both mean the type (1^n). Computed through skew
    standard tableaux: the value equals the number of standard tableaux of
    lam with the first n-t cells lying in row one, which is f^(lam/(n-t)).
    The general kostka() routine serves as an independent cross-check in the
    test suite.
    """
    lam = tuple(lam)
    if sum(lam) != n:
        raise ValueError(f"expected a partition of {n}, got {lam}")
    if t < 0 or t > n:
        raise ValueError(f"hook parameter t = {t} outside 0..{n}")
    first = lam[0] if lam else 0
    if t < n - first:
        return 0
    inner = (n - t,) if t < n else ()
    return num_skew_syt(lam, inner)


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
