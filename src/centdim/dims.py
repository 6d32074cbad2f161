"""Closed-form dimensions of tensor-power centralizer algebras.

The permutation module M of S_n on n letters has centralizer algebras
End(M^k) whose irreducible blocks are indexed by partitions of n; half
levels k+1/2 restrict the action to S_{n-1} and are indexed by partitions
of n-1. Every dimension sums Stirling-type weights through one memoized
stable-range sum, _abacus_sum; the block kernel, block_dimension, weighs it
by Aitken's terms of hook Kostka numbers, and A_n folds each label with its
conjugate. The reflection module R needs no second algorithm: M = trivial +
R makes R^k the alternating binomial transform of M^j over j <= k, and the
weights carry that transform (see _weight). Every dim_* function is that
kernel, the stable large-n ones at label size 2k + 1. decompose scores
only the stable range, the labels whose first part is at least m - k, and
refuses more than MAX_LABELS of them before building any.

Levels are fractions.Fraction values with denominator 1 or 2.
"""

import math
import re
from fractions import Fraction
from functools import cache

# bell_restricted and kostka_hook_type are unused; the bench tracer binds them.
from .arith import bell_restricted, binomial, signed_stirling2, stirling2
from .branch import _Frozen, _fold, alt_labels, check_label
from .young import (
    bounded_partitions,
    check_partition,
    conjugate,
    hook_terms,
    involutions_with_fixed_points,
    kostka_hook_type,
    partitions_of,
)

GROUPS = ("S", "A")
MODULES = ("perm", "refl")


_EXPONENT = re.compile(r"(.*)e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)


def parse_level(text):
    """Read a level: "3", "7/2", or "3.5" (halves only). A positive literal
    whose exponent is too long to expand raises OverflowError."""
    text = str(text).strip()
    try:
        match = _EXPONENT.fullmatch(text)
        exponent = int(match[2]) if match else 0
        huge = abs(exponent) > len(text) + 1000  # nonzero: > 10**1000 or < 10**-1000
        level = Fraction(match[1] + "e0" if huge else text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse level {text!r}") from None
    if huge and level:
        if exponent > 0 and level > 0:
            raise OverflowError(f"level must be at most {MAX_LEVEL}")
        raise ValueError(f"level must be a nonnegative half-integer, got {text}")
    return check_level(level)


def check_level(level):
    level = Fraction(level)
    if level < 0 or level.denominator not in (1, 2):
        raise ValueError(f"level must be a nonnegative half-integer, got {level}")
    return level


# Scale caps, checked before any work. A level-k block with labels of size m
# reads a Stirling table of about k * min(k, m) cells, each of up to
# k * log2(m) bits; the tower's subscripts are the same numbers.
MAX_LEVEL = 10_000
MAX_STIRLING_CELLS = 500_000


def check_scale(level, size):
    """Refuse a level above MAX_LEVEL, or one whose Stirling table for labels
    of the given size has more than MAX_STIRLING_CELLS cells."""
    k = level_floor(level)
    if k > MAX_LEVEL:
        raise ValueError(f"level must be at most {MAX_LEVEL}")
    cells = k * min(k, size)
    if cells > MAX_STIRLING_CELLS:
        raise ValueError(
            f"level {k} with labels of size {size} needs {cells} Stirling "
            f"numbers, above the cap of {MAX_STIRLING_CELLS}"
        )


# Label cap, checked before any label is built. decompose scores, and a
# tower row holds, the partitions of m in the stable range, those with a
# first part of at least m - k; for k >= m that is all p(m) of them, and
# n = k = 40 has p(40) = 37,338.
MAX_LABELS = 50_000


def stable_shapes(k, m):
    """The partitions of m with a first part of at least m - k, in display
    order: r = m - lam_1 ascending, then the rest of lam, a partition of r
    with no part above m - r, in decreasing lexicographic order."""
    if m == 0:
        return [()]
    return [
        (m - r, *nu)
        for r in range(min(k, m - 1) + 1)
        for nu in bounded_partitions(r, m - r)
    ]


def stable_count(k, m):
    """len(stable_shapes(k, m)), counted without building the shapes, in
    O(min(k, m)^2) additions: the partitions of r with no part above m - r,
    summed over r = 0..min(k, m - 1)."""
    if m == 0:
        return 1
    top = min(k, m - 1)
    ways = [1] + [0] * top  # ways[x]: partitions of x into parts <= j
    total = 0
    for j in range(1, top + 1):
        for x in range(j, top + 1):
            ways[x] += ways[x - j]
        if j < m - j <= top:  # r = m - j, whose bound j lies below r
            total += ways[m - j]
    return total + sum(ways[: min(top, m // 2) + 1])  # r <= m - r: any parts


def check_labels(level, size):
    """Refuse a level whose stable-range labels of the given size number
    more than MAX_LABELS."""
    k = level_floor(level)
    count = stable_count(k, size)
    if count > MAX_LABELS:
        raise ValueError(
            f"level {k} with labels of size {size} has {count} candidate "
            f"labels, above the cap of {MAX_LABELS}"
        )


def check_tower(level, size):
    """Refuse a tower to level whose rows hold more than MAX_STIRLING_CELLS
    stable-range labels in all: integer rows hold labels of the given size,
    half rows labels of size - 1. Every row from k = m - 1 on holds all the
    partitions of m, so that count is read once."""
    k = level_floor(level)
    total = 0
    for top, m in ((k, size), (int(2 * level) - k - 1, size - 1)):
        counts = [stable_count(j, m) for j in range(min(top, m - 1) + 1)]
        total += sum(counts) + (top + 1 - len(counts)) * counts[-1] if counts else 0
    if total > MAX_STIRLING_CELLS:
        raise ValueError(
            f"tower to level {format_level(level)} with labels of size {size} has "
            f"{total} candidate vertices, above the cap of {MAX_STIRLING_CELLS}"
        )


def format_level(level):
    return str(Fraction(level))


def level_floor(level):
    return int(math.floor(level))


class GroupModuleContext(_Frozen):
    """Which algebra: group 'S' or 'A' on n letters, module 'perm' or 'refl',
    at an integer or half-integer level.

    Immutable; equal and hashed by (group, n, module, level), and equal only
    to contexts. Stores k (the level's floor), half and label_size (the size
    of the partitions indexing blocks at this level) too, derived once."""

    __match_args__ = ("group", "n", "module", "level")

    def __init__(self, group, n, module, level):
        if group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
        if module not in MODULES:
            raise ValueError(f"module must be one of {MODULES}, got {module!r}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        level = check_level(level)
        half = level.denominator == 2
        for name, value in (
            ("group", group), ("n", n), ("module", module), ("level", level),
            ("k", level_floor(level)), ("half", half), ("label_size", n - 1 if half else n),
        ):
            object.__setattr__(self, name, value)
        check_scale(level, self.label_size)

    def _fields(self):
        return (self.group, self.n, self.module, self.level)

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(group={self.group!r}, n={self.n!r}, "
            f"module={self.module!r}, level={self.level!r})"
        )


def _shapes(ctx, label):
    """Check label against ctx and return the S-shapes whose blocks make it up.

    An S label is its own shape. An unsigned A label is the fold of its base
    with the conjugate (once, when they coincide, as for A_0 and A_1); a
    signed half of a split label counts its base once. A conjugate (first
    part len(base)) outside the stable range has no terms and is not built.
    """
    m = ctx.label_size
    base, sign = check_label(ctx.group, label, m)
    if ctx.group == "A" and sign is None and len(base) >= m - min(m, ctx.k):
        star = conjugate(base)
        if star != base:
            return (base, star)
    return (base,)


def _weight(ctx):
    """(weight, s) such that ctx's terms at level k and hook index t are
    weight(k + s, t + s) * K(shape, hook(m, t)): S2(k + 1, t + 1) for M on
    half levels, S2(k, t) for M on integer levels and for R on half levels,
    and signed_stirling2(k, t) for R on integer levels."""
    if ctx.module == "refl" and not ctx.half:
        return signed_stirling2, 0
    return stirling2, 1 if ctx.half and ctx.module == "perm" else 0


def _nonnegative(value):
    """value, checked: with signed weights only a bug makes it negative."""
    if value < 0:
        raise RuntimeError(f"a dimension came out negative: {value}")
    return value


def block_dimension(ctx, label):
    """Dimension of the block at label of the algebra described by ctx.

    With m = ctx.label_size, the sum over shapes and t <= min(m, k) of
    _weight's weight times K(shape, hook(m, t)); for R = M - trivial the
    weight is the alternating binomial transform of M's over levels j <= k.
    K is Aitken's sum over young.hook_terms, whose binomials move the t sum
    into _abacus_sum.
    """
    shapes = _shapes(ctx, label)
    weight, s = _weight(ctx)
    k, top = ctx.k, min(ctx.label_size, ctx.k)
    return _nonnegative(sum(
        sign * f * _abacus_sum(weight, k, s, top, size)
        for shape in shapes
        for sign, size, f in hook_terms(shape, top)
    ))


def _family(group, module, half):
    """block_dimension as a function of (n, k, label) at level k (+ 1/2)."""

    def dim(n, k, label):
        level = Fraction(2 * k + half, 2)
        return block_dimension(GroupModuleContext(group, n, module, level), label)

    return dim


dim_z = _family("S", "perm", 0)
dim_z_half = _family("S", "perm", 1)
dim_z_alt = _family("A", "perm", 0)
dim_z_alt_half = _family("A", "perm", 1)
dim_qz = _family("S", "refl", 0)
dim_qz_half = _family("S", "refl", 1)
dim_qz_alt = _family("A", "refl", 0)
dim_qz_alt_half = _family("A", "refl", 1)


def dim_z_algebra(ctx):
    """Dimension of the whole centralizer algebra described by ctx.

    It is _abacus_sum at j = 0, the sum of _weight's weights at level 2k
    over t <= m = ctx.label_size. With S2 that is the restricted Bell number
    B(2k + s, m + s): for M, and for R on half levels, where R restricted to
    S_{n-1} is M_{n-1}. For R on integer levels it is the row sum of
    signed_stirling2(2k, t), the alternating binomial transform of the M
    values over exponents j <= 2k (M = trivial + R). For A two more
    weights, at t = m - 1 and t = m, appear, except when the acting group
    has at most one letter (A_0 and A_1 coincide with S_0 and S_1, so the S
    value stands). The table at level 2k holds about 2k * min(2k, m) cells,
    refused above MAX_STIRLING_CELLS before any is read.
    """
    weight, s = _weight(ctx)
    k, m = 2 * ctx.k, ctx.label_size
    cells = k * min(k, m)
    if cells > MAX_STIRLING_CELLS:
        raise ValueError(
            f"the algebra of {ctx.group}:{ctx.n} {ctx.module} at level {ctx.level} needs "
            f"{cells} Stirling numbers, above the cap of {MAX_STIRLING_CELLS}"
        )
    value = _abacus_sum(weight, k, s, min(k, m), 0)
    if ctx.group == "A" and m >= 2:
        value += weight(k + s, m + s - 1) + weight(k + s, m + s)
    return _nonnegative(value)


@cache
def _abacus_sum(weight, k, s, top, j):
    """The stable-range sum of C(t, j) * weight(k + s, t + s) over
    j <= t <= top; s is _weight's shift."""
    return sum(binomial(t, j) * weight(k + s, t + s) for t in range(j, top + 1))


def _stable_block(level, module, nu):
    """S's block at (m - |nu|, nu), m = 2k + 1: P_k(n) = Z_k(n) once n >= 2k."""
    ctx = GroupModuleContext("S", int(2 * level) + 1, module, level)
    return block_dimension(ctx, (ctx.label_size - sum(nu), *nu))


def dim_partition_algebra_irr(level, nu):
    """Dimension of the partition-algebra irreducible labeled nu at the
    given (possibly half-integer) level.

    This is the stable large-n limit of dim_z at lam = (n - |nu|, nu):
    f^nu * sum_t C(t, |nu|) * S2(k, t), with the shifted Stirling numbers
    at half levels. Requires |nu| <= floor(level).
    """
    level = check_level(level)
    nu = check_partition(nu)
    k = level_floor(level)
    if sum(nu) > k:
        raise ValueError(f"|{nu}| exceeds the level floor {k}")
    return _stable_block(level, "perm", nu)


def dim_qp_irr(k, nu):
    """Dimension of the quasi partition algebra irreducible at nu, integer
    levels only: the stable large-n limit of dim_qz at lam = (n - |nu|, nu)."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"need an integer level k >= 0, got {k!r}")
    nu = check_partition(nu)
    if sum(nu) > k:
        raise ValueError(f"|{nu}| exceeds the level {k}")
    return _stable_block(k, "refl", nu)


def dim_model_block(k, r, p):
    """Multiplicity-side block dimension of the partition algebra model:
    involutions with p fixed points among r points, times the stable block at (r).

    Integer levels only; requires 0 <= p <= r <= k and r - p even.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"need an integer level k >= 0, got {k!r}")
    if not (isinstance(r, int) and isinstance(p, int)):
        raise ValueError(f"need integers r and p, got r={r!r}, p={p!r}")
    if not 0 <= p <= r <= k:
        raise ValueError(f"need 0 <= p <= r <= k, got p={p}, r={r}, k={k}")
    if (r - p) % 2:
        raise ValueError(f"r - p must be even, got r={r}, p={p}")
    return involutions_with_fixed_points(r, p) * _stable_block(k, "perm", (r,) if r else ())


def labels_for(ctx):
    """All candidate labels at ctx's level, in display order."""
    if ctx.group == "S":
        return list(partitions_of(ctx.label_size))
    return alt_labels(ctx.label_size)


def decompose(ctx):
    """Nonzero blocks of the ctx algebra as (label, dimension) pairs.

    Only the stable range is scored: hook_terms(shape, top) is empty unless
    shape's first part is at least m - top, with m = ctx.label_size and
    top = min(m, k), so an S block can be nonzero only there, and an A
    block only when its base or the base's conjugate is. Order is
    decreasing lexicographic on the base partition, unsigned then '+' then
    '-'.
    """
    check_labels(ctx.level, ctx.label_size)
    shapes = stable_shapes(ctx.k, ctx.label_size)
    out = []
    for label in shapes if ctx.group == "S" else _fold(shapes):
        d = block_dimension(ctx, label)
        if d:
            out.append((label, d))
    return out
