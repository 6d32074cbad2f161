"""The character oracle that verify checks the closed formulas against.

multiplicity_oracle counts irreducibles by exact character inner products,
deliberately sharing no formula with dims (it shares only
branch.check_label, so both sides accept exactly the same labels). The
module character value on a class is just a fixed-point count (minus one
for the reflection module), raised to the tensor exponent, so the whole
inner product stays in integer arithmetic. It depends on the class only
through its fixed points f, so the class sum is grouped once per label into
sums a_f of |C| chi(C), and each level is one dot product of the a_f with
the powers of the module values. Each class table is built once per size
and parity, and is capped by its size.
"""

from collections import Counter
from functools import cache
from math import factorial, prod

from .branch import check_label
from .limits import CAPS, check
from .young import check_partition, partition_count, partitions_of


def _class_size(n, ct):
    z = prod(factorial(m) * j**m for j, m in Counter(ct).items())
    if factorial(n) % z:
        raise RuntimeError(f"centralizer order {z} of {ct} does not divide {n}!")
    return factorial(n) // z


def conjugacy_classes(n, even_only=False):
    """Cycle types of S_n with class sizes, a tuple of (cycle_type, size) pairs.

    even_only keeps only the classes landing in A_n (even permutations,
    meaning n minus the number of cycles is even). Sizes are always taken
    in S_n; splitting of A_n classes never matters here because the
    characters being integrated are restrictions from S_n. The p(n) cycle
    types are counted against the label cap before the memo is read.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"conjugacy_classes: need an integer n >= 1, got {n}")
    count = partition_count(n, CAPS["labels"][0])
    check("labels", count,
          f"conjugacy_classes: n = {n} has at least {count} classes, above the cap of")
    return _class_table(n, bool(even_only))


@cache
def _class_table(n, even_only):
    return tuple((ct, _class_size(n, ct)) for ct in partitions_of(n)
                 if not (even_only and (n - len(ct)) % 2))


def _beta_set(lam):
    length = len(lam)
    return tuple(lam[i] + (length - 1 - i) for i in range(length))


def _beta_to_partition(beta):
    beta = sorted(beta, reverse=True)
    length = len(beta)
    parts = tuple(b - (length - 1 - i) for i, b in enumerate(beta))
    return tuple(p for p in parts if p > 0)


def character_mn(lam, ct):
    """Irreducible S_n character value chi_lam on cycle type ct.

    Murnaghan-Nakayama over border strips, phrased on the first-column
    hook lengths (beta set): removing a strip of size r moves some beta
    element b down to b - r, legal when b - r is free, with sign given by
    the number of occupied slots jumped over. Both partitions are checked
    before the memo is read, as num_syt does.
    """
    return _character_mn(check_partition(lam), check_partition(ct, "cycle type"))


@cache
def _character_mn(lam, ct):
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
        total += (-1) ** jumped * _character_mn(_beta_to_partition(smaller), rest)
    return total


# perfbench/tracing.py reads character_mn.cache_info().
character_mn.cache_info = _character_mn.cache_info


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
        sums[f] = sums.get(f, 0) + size * _character_mn(base, ct)
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
        raise ValueError(f"non-integer multiplicity for {label} in {ctx}: {total}/{order}")
    mult = total // order
    if ctx.group == "A" and sign is not None:
        if mult % 2:
            raise RuntimeError(f"split label {label} got odd paired sum {mult}")
        mult //= 2
    return mult
