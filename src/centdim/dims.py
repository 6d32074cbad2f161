"""Closed-form dimensions of tensor-power centralizer algebras.

The permutation module M of S_n on n letters has centralizer algebras
End(M^k) whose irreducible blocks are indexed by partitions of n; half
levels k+1/2 restrict the action to S_{n-1} and are indexed by partitions
of n-1. One kernel, block_dimension, computes every block: a finite sum of
Stirling numbers against Kostka numbers of hook type, with the Stirling
indices shifted by one on half levels. Two transforms give the other cases:
A_n folds each label with its conjugate, and the reflection module is the
alternating binomial transform of the permutation module over lower levels.
The eight dim_* families are that kernel at a fixed (group, module, half).

Levels are fractions.Fraction values with denominator 1 or 2.
"""

import math
from fractions import Fraction

from .arith import bell_restricted, binomial, stirling2
from .branch import alt_labels
from .young import (
    check_partition,
    conjugate,
    involutions_with_fixed_points,
    num_syt,
    kostka_hook_type,
    partitions_of,
)

GROUPS = ("S", "A")
MODULES = ("perm", "refl")


def parse_level(text):
    """Read a level: "3", "7/2", or "3.5" (halves only)."""
    try:
        level = Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse level {text!r}") from None
    return check_level(level)


def check_level(level):
    level = Fraction(level)
    if level < 0 or level.denominator not in (1, 2):
        raise ValueError(f"level must be a nonnegative half-integer, got {level}")
    return level


def format_level(level):
    return str(Fraction(level))


def level_floor(level):
    return int(math.floor(level))


def is_half(level):
    return Fraction(level).denominator == 2


class GroupModuleContext:
    """Which algebra: group 'S' or 'A' on n letters, module 'perm' or 'refl',
    at an integer or half-integer level.

    Immutable; equal and hashed by (group, n, module, level), and equal only
    to contexts."""

    __match_args__ = ("group", "n", "module", "level")

    def __init__(self, group, n, module, level):
        if group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
        if module not in MODULES:
            raise ValueError(f"module must be one of {MODULES}, got {module!r}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        set_field = object.__setattr__
        set_field(self, "group", group)
        set_field(self, "n", n)
        set_field(self, "module", module)
        set_field(self, "level", check_level(level))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self):
        return (self.group, self.n, self.module, self.level)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(group={self.group!r}, n={self.n!r}, "
            f"module={self.module!r}, level={self.level!r})"
        )

    @property
    def k(self):
        return level_floor(self.level)

    @property
    def half(self):
        return is_half(self.level)

    @property
    def label_size(self):
        """Size of the partitions indexing blocks at this level."""
        return self.n - 1 if self.half else self.n


def _shapes(ctx, label):
    """Check label against ctx and return the S-shapes whose blocks make it up.

    An S label is its own shape. An unsigned A label is the fold of its base
    with the conjugate (once, when they coincide, as for A_0 and A_1); a
    signed half of a split label counts its base once.
    """
    m = ctx.label_size
    if ctx.group == "S":
        lam = check_partition(label) if label else ()
        if sum(lam) != m:
            raise ValueError(f"expected a partition of {m}, got {lam}")
        return (lam,)
    if label.size != m:
        raise ValueError(f"expected a label of size {m}, got {label}")
    base = label.base
    if label.sign is None:
        star = conjugate(base)
        if star != base:
            return (base, star)
    return (base,)


def _alternating_transform(k, value):
    """sum_j (-1)^(k-j) C(k, j) * value(j), j ascending.

    Moves permutation-module data to the reflection module: M = trivial + R,
    so a value for R^k is this transform of the values for M^j.
    """
    return sum(
        (-1) ** (k - j) * binomial(k, j) * value(j) for j in range(k + 1)
    )


def block_dimension(ctx, label):
    """Dimension of the block at label of the algebra described by ctx.

    With m = ctx.label_size and s = 1 on half levels (0 otherwise), the
    permutation module at level j gives sum over shapes and t of
    S2(j + s, t + s) * K(shape, hook(m, t)); the Stirling factor vanishes
    for t > j. The reflection module is its alternating transform over j.
    """
    shapes = _shapes(ctx, label)
    m = ctx.label_size
    s = 1 if ctx.half else 0

    def perm(j):
        return sum(
            stirling2(j + s, t + s) * kostka_hook_type(shape, m, t)
            for shape in shapes
            for t in range(min(m, j) + 1)
        )

    if ctx.module == "perm":
        return perm(ctx.k)
    return _alternating_transform(ctx.k, perm)


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


def _perm_algebra_dim(group, n, tensor_exponent, acting_letters):
    """Multiplicity of the acting group's trivial module in M tensored
    tensor_exponent times; this is the algebra dimension at level
    tensor_exponent / 2.

    For S this is the restricted Bell number B(j, n). For A two extra
    Stirling terms appear, except when the acting group has at most one
    letter (A_0 and A_1 coincide with S_0 and S_1, so the S value stands).
    The acting letter count is passed explicitly because inside the
    alternating transform the exponent varies while the group does not.
    """
    value = bell_restricted(tensor_exponent, n)
    if group == "A" and acting_letters >= 2:
        value += stirling2(tensor_exponent, n - 1) + stirling2(tensor_exponent, n)
    return value


def dim_z_algebra(ctx):
    """Dimension of the whole centralizer algebra described by ctx."""
    s = 1 if ctx.half else 0

    def perm(j):
        return _perm_algebra_dim(ctx.group, ctx.n, j + s, ctx.label_size)

    if ctx.module == "perm":
        return perm(2 * ctx.k)
    return _alternating_transform(2 * ctx.k, perm)


def _abacus_sum(k, shift, nu_size):
    """sum_t C(t, |nu|) * S2(k + shift, t + shift); shift 1 on half levels."""
    return sum(
        binomial(t, nu_size) * stirling2(k + shift, t + shift)
        for t in range(nu_size, k + 1)
    )


def dim_partition_algebra_irr(level, nu):
    """Dimension of the partition-algebra irreducible labeled nu at the
    given (possibly half-integer) level.

    This is the stable large-n limit of dim_z at lam = (n - |nu|, nu):
    f^nu * sum_t C(t, |nu|) * S2(k, t), with the shifted Stirling numbers
    at half levels. Requires |nu| <= floor(level).
    """
    level = check_level(level)
    nu = check_partition(nu) if nu else ()
    k = level_floor(level)
    if sum(nu) > k:
        raise ValueError(f"|{nu}| exceeds the level floor {k}")
    return num_syt(nu) * _abacus_sum(k, 1 if is_half(level) else 0, sum(nu))


def dim_qp_irr(k, nu):
    """Dimension of the quasi partition algebra irreducible at nu, integer
    levels only: the alternating binomial transform of the stable sums."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"need an integer level k >= 0, got {k!r}")
    nu = check_partition(nu) if nu else ()
    if sum(nu) > k:
        raise ValueError(f"|{nu}| exceeds the level {k}")
    return num_syt(nu) * _alternating_transform(k, lambda j: _abacus_sum(j, 0, sum(nu)))


def dim_model_block(k, r, p):
    """Multiplicity-side block dimension of the partition algebra model:
    involutions with p fixed points among r points, against the stable sums.

    Integer levels only; requires 0 <= p <= r <= k and r - p even.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"need an integer level k >= 0, got {k!r}")
    if not 0 <= p <= r <= k:
        raise ValueError(f"need 0 <= p <= r <= k, got p={p}, r={r}, k={k}")
    if (r - p) % 2:
        raise ValueError(f"r - p must be even, got r={r}, p={p}")
    return involutions_with_fixed_points(r, p) * _abacus_sum(k, 0, r)


def labels_for(ctx):
    """All candidate labels at ctx's level, in display order."""
    if ctx.group == "S":
        return list(partitions_of(ctx.label_size))
    return alt_labels(ctx.label_size)


def decompose(ctx):
    """Nonzero blocks of the ctx algebra as (label, dimension) pairs.

    Labels with multiplicity 0 are dropped; order is decreasing
    lexicographic on the base partition, unsigned then '+' then '-'.
    """
    out = []
    for label in labels_for(ctx):
        d = block_dimension(ctx, label)
        if d:
            out.append((label, d))
    return out
