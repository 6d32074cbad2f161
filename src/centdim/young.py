"""Partitions, tableaux counts, and Kostka numbers.

Partitions are tuples of weakly decreasing positive ints; () is the empty
partition. Text form is comma-separated parts ("3,1,1") with "empty" for ().
"""

from functools import cache
from math import factorial, isqrt
from operator import neg

from .arith import binomial, check_integers, odd_double_factorial


def is_partition(seq):
    prev = None
    for p in seq:
        if not isinstance(p, int) or p <= 0 or (prev is not None and p > prev):
            return False
        prev = p
    return True


def check_partition(seq, what="partition"):
    try:
        lam = tuple(seq)
    except TypeError:  # not a sequence at all, such as an AltLabel
        raise ValueError(f"not a valid {what}: {seq!r}") from None
    if not is_partition(lam):
        raise ValueError(f"not a valid {what}: {lam!r}")
    return lam


def check_partition_of(seq, size):
    """check_partition, then the size: seq must be a partition of size."""
    lam = check_partition(seq)
    if sum(lam) != size:
        raise ValueError(f"expected a partition of {size}, got {lam}")
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


def conjugate(lam):
    """Transpose of the Young diagram, lam checked before the memo is read
    (as num_syt's is); a caller that checked lam may read _conjugate."""
    return _conjugate(check_partition(lam))


@cache
def _conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def num_syt(lam):
    """Number of standard Young tableaux of shape lam, by the hook formula.

    lam is checked before the memo is read: (3, 1.0) == (3, 1) and both hash
    alike, so the memo would otherwise answer for it once (3, 1) was asked.
    """
    return _num_syt(check_partition(lam))


@cache
def _num_syt(lam):
    n = sum(lam)
    cols = _conjugate(lam)
    denom = 1
    for i, part in enumerate(lam):
        for j in range(part):
            denom *= part - j + cols[j] - i - 1  # arm + leg + 1 at (i, j)
    if factorial(n) % denom:
        raise RuntimeError(f"hook product {denom} of {lam} does not divide {n}!")
    return factorial(n) // denom


def num_skew_syt(outer, inner=()):
    """Number of standard tableaux of the skew shape outer/inner.

    Counted by peeling removable corners, memoized on the checked shape
    pair (as num_syt is). The corner being removed may not dig into the
    inner shape.
    """
    outer = check_partition(outer)
    inner = check_partition(inner)
    if len(inner) > len(outer) or any(p > q for p, q in zip(inner, outer)):
        raise ValueError(f"shape {inner} does not fit inside {outer}")
    return _num_skew_syt(outer, inner)


@cache
def _num_skew_syt(outer, inner):
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for i, part in enumerate(outer):
        inner_i = inner[i] if i < len(inner) else 0
        below = outer[i + 1] if i + 1 < len(outer) else 0
        if part > below and part > inner_i:
            smaller = outer[:i] + ((part - 1,) if part > 1 else ()) + outer[i + 1 :]
            total += _num_skew_syt(smaller, inner)
    return total


num_skew_syt.cache_info = _num_skew_syt.cache_info


def hook_terms(lam, top):
    """Aitken's terms (sign, |mu_i|, f^(mu_i)) of lam with |mu_i| <= top.

    With n = |lam| and 0-based rows i, the standard tableaux of lam whose
    first a = n - t cells lie in row one number, by Aitken's determinant for
    lam/(a) expanded along its one a-dependent column,

        f^(lam/(a)) = sum_i (-1)^i C(t, |mu_i|) f^(mu_i),
        mu_i = (lam_0 + 1, ..., lam_(i-1) + 1, lam_(i+1), ...),

    with |mu_i| = n - lam_i + i strictly increasing, so the rows with
    |mu_i| <= top hold every nonzero term for each t <= top. The i = 0 term
    is the stable-range term. The empty shape has one term, (1, 0, 1).
    lam is checked once: each mu_i built from it is a partition, read from _num_syt.
    """
    lam = check_partition(lam)
    n = sum(lam)
    for i, part in enumerate(lam or (0,)):  # () as one row of length 0
        size = n - part + i
        if size > top:
            return
        mu = tuple(p + 1 for p in lam[:i]) + lam[i + 1 :]
        yield (-1) ** i, size, _num_syt(mu)


def kostka_hook_type(lam, n, t):
    """Kostka number of lam against the hook type (n-t, 1^t), f^(lam/(n-t)),
    from hook_terms(lam, t); t = n-1 and t = n both mean (1^n). lam must be
    a partition of n, checked before t even when no term is needed."""
    lam = check_partition_of(lam, n)
    check_integers("kostka_hook_type: need integers n and t", n, t)
    if t < 0 or t > n:
        raise ValueError(f"hook parameter t = {t} outside 0..{n}")
    return sum(sign * binomial(t, size) * f for sign, size, f in hook_terms(lam, t))


def partitions_of(n):
    """All partitions of n, in decreasing lexicographic order; n is checked
    before the memo is read."""
    check_integers("partitions_of: need an integer n", n)
    return _partitions_of(n)


@cache
def _partitions_of(n):
    if n < 0:
        raise ValueError(f"partitions_of: need n >= 0, got {n}")
    return tuple(bounded_partitions(n, n))


partitions_of.cache_info = _partitions_of.cache_info  # perfbench/tracing.py reads it


def partition_count(n, stop):
    """p(n), by Euler's pentagonal recurrence; p never falls as n grows, so
    once some p(j), j <= n, is above stop, that p(j) is returned."""
    counts = [1]
    while len(counts) <= n and counts[-1] <= stop:
        j = len(counts)
        terms = ((i, i * (3 * i + s) // 2) for i in range(1, isqrt(j) + 1) for s in (-1, 1))
        counts.append(sum((-1) ** (i + 1) * counts[j - g] for i, g in terms if g <= j))
    return counts[-1]


def bounded_partitions(n, cap):
    """The partitions of n with no part above cap, in decreasing
    lexicographic order, as a list."""
    result = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, cap, ())
    return result


def involutions_with_fixed_points(r, p):
    """Involutions of S_r with exactly p fixed points.

    C(r, p) * (r-p-1)!! when r - p is even, otherwise 0.
    """
    check_integers("involutions_with_fixed_points: need integers r and p", r, p)
    if not 0 <= p <= r:
        raise ValueError(f"need 0 <= p <= r, got p={p}, r={r}")
    if (r - p) % 2:
        return 0
    return binomial(r, p) * odd_double_factorial(r - p - 1)
