"""Exact integer combinatorics: binomials, Stirling numbers, Bell numbers.

Everything returns plain Python ints, so all arithmetic is arbitrary
precision by construction. Out-of-range indices give 0 rather than raising,
which keeps the summation code elsewhere free of edge-case guards.
"""

from functools import cache
from math import comb


def binomial(n, k):
    """C(n, k), with 0 for k outside 0..n."""
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


# One staircase table per shift c: table[t][e] = W(t + e, t) for
# W(k, t) = (t + c) W(k - 1, t) + W(k - 1, t - 1), W(0, 0) = 1, filled
# bottom-up. Row t grows only as far as some call has needed, so row lengths
# never increase with t: a table holds exactly the cells a recursion from the
# requested values would reach (at most t blocks, at most k - t extras).
_TABLE = [[1]]
_SIGNED_TABLE = [[1]]


def _staircase(table, c, k, t):
    """W(k, t) read from table, 0 whenever t < 0 or t > k. A miss extends
    only the rows that are too short, from the lowest one up."""
    if t < 0 or t > k:
        return 0
    e = k - t
    while len(table) <= t:
        table.append([1])
    low = t
    while low > 0 and len(table[low - 1]) <= e:
        low -= 1
    if low == 0:
        table[0].extend(c**x for x in range(len(table[0]), e + 1))
        low = 1
    for r in range(low, t + 1):
        row, below = table[r], table[r - 1]
        value = row[-1]
        for x in range(len(row), e + 1):
            value = (r + c) * value + below[x]
            row.append(value)
    return table[t][e]


@cache
def stirling2(k, t):
    """Stirling number of the second kind: partitions of a k-set into t blocks.

    Uses the recurrence S2(k, t) = t*S2(k-1, t) + S2(k-1, t-1) with
    S2(0, 0) = 1. Total: returns 0 whenever t < 0 or t > k. Values are read
    from a table filled bottom-up, so there is no recursion and no depth
    limit.
    """
    return _staircase(_TABLE, 0, k, t)


@cache
def signed_stirling2(k, t):
    """sum_j (-1)^(k-j) C(k, j) S2(j, t), from the recurrence with c = -1,
    so W(k, 0) = (-1)^k. Summed over t it counts the singleton-free set
    partitions of a k-set. Total and table-backed like stirling2."""
    return _staircase(_SIGNED_TABLE, -1, k, t)


def bell(k):
    """Bell number B(k): all set partitions of a k-set."""
    return sum(stirling2(k, t) for t in range(k + 1))


def bell_restricted(k, n):
    """B(k, n): set partitions of a k-set into at most n blocks."""
    return sum(stirling2(k, t) for t in range(min(k, n) + 1))


def odd_double_factorial(m):
    """m!! for odd m, counting perfect matchings on m+1 points.

    Defined as 1 for m in {-1, 0}; positive even m is a domain error.
    """
    if m in (-1, 0):
        return 1
    if m < -1 or m % 2 == 0:
        raise ValueError(f"odd_double_factorial: need odd m >= -1, got {m}")
    result = 1
    for j in range(1, m + 1, 2):
        result *= j
    return result


def set_partitions(n):
    """Yield all set partitions of {1, ..., n} as tuples of tuples.

    Blocks are ordered by their minimum and sorted internally, so each
    partition comes out in canonical form exactly once. n = 0 yields the
    empty partition.
    """
    blocks = []

    def rec(i):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def singleton_free_bell(m):
    """Set partitions of an m-set with every block of size at least 2.

    Inclusion-exclusion over the singletons, sum_j (-1)^j C(m, j) B(m - j),
    which is O(m^2) through the Stirling triangle. The test suite checks it
    against direct enumeration.
    """
    if m < 0:
        raise ValueError(f"singleton_free_bell: need m >= 0, got {m}")
    return sum((-1) ** j * binomial(m, j) * bell(m - j) for j in range(m + 1))
