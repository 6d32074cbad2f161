"""Independent multiplicity computations used to check the closed formulas.

Two oracles, deliberately sharing no formula with dims (they share only
branch.check_label, so both sides accept exactly the same labels):

* multiplicity_oracle counts irreducibles by exact character inner products.
  The module character value on a class is just a fixed-point count (minus
  one for the reflection module), raised to the tensor exponent, so the
  whole inner product stays in integer arithmetic. It depends on the class
  only through its fixed points f, so the class sum is grouped once per
  label into sums a_f of |C| chi(C), and each level is one dot product of
  the a_f with the powers of the module values.

* pair_count_oracle counts set-partition / tableau pairs directly, which is
  the combinatorial object the permutation-module dimensions enumerate.

Both are brute force on purpose and are capped at desk scale.
"""

from functools import cache
from math import factorial

from .arith import set_partitions
from .branch import check_label
from .young import check_partition_of, partitions_of


# conjugacy_classes lists the classes of S_n only up to this n
MAX_N = 10


class ScaleExceeded(ValueError):
    """Raised when an oracle is asked for more than it is sized to do."""


def _class_size(n, ct):
    mult = {}
    for part in ct:
        mult[part] = mult.get(part, 0) + 1
    z = 1
    for j, m in mult.items():
        z *= factorial(m) * j**m
    if factorial(n) % z:
        raise RuntimeError(f"centralizer order {z} of {ct} does not divide {n}!")
    return factorial(n) // z


def conjugacy_classes(n, even_only=False):
    """Cycle types of S_n with class sizes, as (cycle_type, size) pairs.

    even_only keeps only the classes landing in A_n (even permutations,
    meaning n minus the number of cycles is even). Sizes are always taken
    in S_n; splitting of A_n classes never matters here because the
    characters being integrated are restrictions from S_n.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"conjugacy_classes: need 1 <= n <= {MAX_N}, got {n}")
    out = []
    for ct in partitions_of(n):
        if even_only and (n - len(ct)) % 2:
            continue
        out.append((ct, _class_size(n, ct)))
    return out


def _beta_set(lam):
    length = len(lam)
    return tuple(lam[i] + (length - 1 - i) for i in range(length))


def _beta_to_partition(beta):
    beta = sorted(beta, reverse=True)
    length = len(beta)
    parts = tuple(b - (length - 1 - i) for i, b in enumerate(beta))
    return tuple(p for p in parts if p > 0)


@cache
def character_mn(lam, ct):
    """Irreducible S_n character value chi_lam on cycle type ct.

    Murnaghan-Nakayama over border strips, phrased on the first-column
    hook lengths (beta set): removing a strip of size r moves some beta
    element b down to b - r, legal when b - r is free, with sign given by
    the number of occupied slots jumped over.
    """
    lam = tuple(lam)
    ct = tuple(ct)
    if sum(lam) != sum(ct):
        raise ValueError(f"size mismatch: |{lam}| != |{ct}|")
    if not ct:
        return 1
    r, rest = ct[0], ct[1:]
    beta = _beta_set(lam)
    occupied = set(beta)
    total = 0
    for b in beta:
        target = b - r
        if target < 0 or target in occupied:
            continue
        jumped = sum(1 for c in beta if target < c < b)
        smaller = tuple(target if c == b else c for c in beta)
        total += (-1) ** jumped * character_mn(_beta_to_partition(smaller), rest)
    return total


@cache
def _fixed_point_sums(base, group):
    """The order of S_m (A_m for group 'A'), m = |base|, and (f, a_f) pairs:
    a_f sums |C| chi_base(C) over its classes C with f fixed points.
    Memoized per label, as a tuple; callers check the label first."""
    m = sum(base)
    order = 0
    sums = {}
    for ct, size in conjugacy_classes(m, group == "A") if m else [((), 1)]:
        f = ct.count(1)
        sums[f] = sums.get(f, 0) + size * character_mn(base, ct)
        order += size
    return order, tuple(sums.items())


def multiplicity_oracle(ctx, label):
    """Multiplicity of label in the ctx tensor power, by characters.

    Half levels embed the acting group on the first n-1 letters of the n
    the module lives on, so fixed-point counts include the extra letter.
    Split alternating labels are handled by the paired sum: the S-character
    of the base integrates to mult('+') + mult('-'), which is even, and the
    two halves are equal.
    """
    m = ctx.label_size
    k = ctx.k
    base, sign = check_label(ctx.group, label, m)
    order, sums = _fixed_point_sums(base, ctx.group)
    # a class with f fixed points among the m letters has module character f + shift
    shift = ctx.n - m - (1 if ctx.module == "refl" else 0)
    total = sum(a * (f + shift) ** k for f, a in sums)
    if total % order:
        raise ValueError(
            f"non-integer multiplicity for {label} in {ctx}: {total}/{order}"
        )
    mult = total // order
    if ctx.group == "A" and sign is not None:
        if mult % 2:
            raise RuntimeError(f"split label {label} got odd paired sum {mult}")
        mult //= 2
    return mult


def _fillings(shape, values):
    """Count semistandard fillings of shape using exactly the given values
    (weakly increasing rows, strictly increasing columns), cell by cell."""
    rows = len(shape)
    grid = [[None] * shape[i] for i in range(rows)]
    cells = [(i, j) for i in range(rows) for j in range(shape[i])]
    remaining = sorted(values)

    def rec(idx, pool):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        count = 0
        last = None
        for choice in range(len(pool)):
            v = pool[choice]
            if v == last:
                continue
            last = v
            if j > 0 and grid[i][j - 1] > v:
                continue
            if i > 0 and grid[i - 1][j] >= v:
                continue
            grid[i][j] = v
            count += rec(idx + 1, pool[:choice] + pool[choice + 1 :])
            grid[i][j] = None
        return count

    return rec(0, remaining)


def pair_count_oracle(n, k, lam):
    """Count (set partition of {1..k}, filled tableau) pairs of shape lam.

    The tableau uses n - t zeros and the t block maxima, each exactly once,
    where t is the number of blocks; rows weakly increase and columns
    strictly increase with zeros ranked below every positive entry. This is
    a direct enumeration of the objects behind the level-k block dimension.
    """
    lam = check_partition_of(lam, n)
    if k > 8 or n > 6:
        raise ScaleExceeded("pair_count_oracle capped at k <= 8, n <= 6")
    total = 0
    for blocks in set_partitions(k):
        t = len(blocks)
        if t > n:
            continue
        values = [0] * (n - t) + [max(b) for b in blocks]
        total += _fillings(lam, values)
    return total
