"""Branching rules for symmetric and alternating groups.

Irreducibles of S_n are partitions of n. For A_n the picture folds under
conjugation: a pair {lam, lam*} with lam != lam* gives a single irreducible,
named here by the lexicographically greater of the two, while a
self-conjugate lam of size >= 2 splits into two halves that we tag '+' and
'-'. Sizes 0 and 1 are degenerate (A_m = S_m there, so nothing splits even
though the unique partition is self-conjugate); such labels stay unsigned.

AltLabel carries (base, sign) with base always the canonical representative.
Text form appends the sign to the partition: "2,2+", "3,1,1-", "4".
"""

from .young import (
    check_partition,
    conjugate,
    format_partition,
    parse_partition,
    partition_sort_key,
    partitions_of,
)

_SIGN_ORDER = {None: 0, "+": 1, "-": 2}


def canonical_base(lam):
    """The chosen name for the conjugation class {lam, lam*}."""
    lam = tuple(lam)
    star = conjugate(lam)
    return lam if lam >= star else star


def splits_over_alt(lam):
    """Whether the S-irreducible lam breaks in two on restriction to Alt."""
    lam = tuple(lam)
    return lam == conjugate(lam) and sum(lam) >= 2


class AltLabel:
    """An irreducible label for an alternating group.

    base: canonical partition (lexicographically >= its conjugate).
    sign: '+', '-' for the two halves of a split label, None otherwise.

    Immutable; equal and hashed by (base, sign), and equal only to labels.
    """

    __match_args__ = ("base", "sign")

    def __init__(self, base, sign=None):
        base = check_partition(base, "alternating label base")
        if base != canonical_base(base):
            raise ValueError(
                f"label base {base} is not canonical; use {canonical_base(base)}"
            )
        if sign not in (None, "+", "-"):
            raise ValueError(f"bad sign {sign!r}")
        if (sign is not None) != splits_over_alt(base):
            raise ValueError(
                f"label {base} must carry a sign iff it is self-conjugate "
                f"of size >= 2 (got sign={sign!r})"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.sign) == (other.base, other.sign)

    def __hash__(self):
        return hash((self.base, self.sign))

    @property
    def size(self):
        return sum(self.base)

    def sort_key(self):
        return (partition_sort_key(self.base), _SIGN_ORDER[self.sign])

    def __str__(self):
        return format_alt_label(self)

    def __repr__(self):
        return f"AltLabel({self.base!r}, {self.sign!r})"


def format_alt_label(label):
    text = format_partition(label.base)
    return text + (label.sign or "")


def format_label(label):
    """Text form of an S label (a partition) or an AltLabel."""
    if isinstance(label, AltLabel):
        return format_alt_label(label)
    return format_partition(label)


def parse_alt_label(text):
    text = text.strip()
    sign = None
    if text and text[-1] in "+-":
        sign = text[-1]
        text = text[:-1]
    return AltLabel(parse_partition(text), sign)


def restrict_sym(lam):
    """Restriction of the S_n irreducible lam to S_{n-1}.

    Returns the partitions obtained by removing one corner cell, in
    decreasing lexicographic order (the branching rule is multiplicity-free).
    """
    lam = check_partition(lam)
    if not lam:
        raise ValueError("cannot restrict the empty partition")
    out = []
    for i, part in enumerate(lam):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if part > below:
            out.append(lam[:i] + ((part - 1,) if part > 1 else ()) + lam[i + 1 :])
    out.sort(key=partition_sort_key)
    return out


def induce_sym(mu, n):
    """Induction of the S_{n-1} irreducible mu to S_n: add one cell."""
    mu = check_partition(mu) if mu else ()
    if sum(mu) != n - 1:
        raise ValueError(f"expected a partition of {n - 1}, got {mu}")
    out = []
    for i in range(len(mu) + 1):
        above = mu[i - 1] if i > 0 else None
        here = mu[i] if i < len(mu) else 0
        if above is None or above > here:
            out.append(mu[:i] + (here + 1,) + mu[i + 1 :])
    out.sort(key=partition_sort_key)
    return out


def restrict_sym_to_alt(lam):
    """Restriction of the S_n irreducible lam to A_n, as AltLabels."""
    lam = check_partition(lam)
    if splits_over_alt(lam):
        return [AltLabel(lam, "+"), AltLabel(lam, "-")]
    return [AltLabel(canonical_base(lam))]


def restrict_alt(label):
    """Restriction of an A_n irreducible to A_{n-1}.

    Corners of the base are folded under conjugation: a conjugate pair of
    corners contributes one unsigned label, a self-conjugate corner either
    both signs (when the input is unsigned) or the matching sign (when the
    input is signed). Multiplicity-free in all cases.
    """
    if label.size < 2:
        raise ValueError(f"cannot restrict {label}: the subgroup is trivial")
    out = []
    seen = set()
    for mu in restrict_sym(label.base):
        rep = canonical_base(mu)
        if rep in seen:
            continue
        seen.add(rep)
        if splits_over_alt(mu):
            if label.sign is None:
                out.append(AltLabel(mu, "+"))
                out.append(AltLabel(mu, "-"))
            else:
                out.append(AltLabel(mu, label.sign))
        else:
            out.append(AltLabel(rep))
    out.sort(key=AltLabel.sort_key)
    return out


def induce_alt(label, n):
    """Induction of an A_{n-1} irreducible to A_n.

    Candidates come from adding a cell to the base (adding one to its
    conjugate gives the conjugate shapes, which fold to the same labels);
    a candidate is kept exactly when the given label appears in its
    restriction, which keeps induction adjoint to restrict_alt by
    construction.
    """
    if label.size != n - 1:
        raise ValueError(f"expected a label of size {n - 1}, got {label}")
    candidates = []
    for bigger in induce_sym(label.base, n):
        for cand in restrict_sym_to_alt(bigger):
            if cand not in candidates:
                candidates.append(cand)
    out = [cand for cand in candidates if label in restrict_alt(cand)]
    out.sort(key=AltLabel.sort_key)
    return out


def alt_labels(m):
    """All irreducible labels of A_m, in display order."""
    out = []
    for lam in partitions_of(m):
        if splits_over_alt(lam):
            out.append(AltLabel(lam, "+"))
            out.append(AltLabel(lam, "-"))
        elif lam == canonical_base(lam):
            out.append(AltLabel(lam))
    return out
