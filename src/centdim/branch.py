"""Branching rules for symmetric and alternating groups.

Irreducibles of S_n are partitions of n. For A_n the picture folds under
conjugation: a pair {lam, lam*} with lam != lam* gives a single irreducible,
named here by the lexicographically greater of the two, while a
self-conjugate lam of size >= 2 splits into two halves that we tag '+' and
'-'. Sizes 0 and 1 are degenerate (A_m = S_m there, so nothing splits even
though the unique partition is self-conjugate); such labels stay unsigned.

AltLabel carries (base, sign) with base always the canonical representative.
Text form appends the sign to the partition: "2,2+", "3,1,1-", "4".

The A rules are S rules folded once (_fold): each S-shape maps to A by
restrict_sym_to_alt, each label is kept once, and a signed label keeps only
its own half of a split one. alt_labels folds the partitions of m.
"""

from .arith import check_integers
from .young import (
    check_partition,
    check_partition_of,
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
    if lam and lam[0] > len(lam):  # lam* starts with len(lam), so lam > lam*
        return lam
    star = conjugate(lam)
    return lam if lam >= star else star


def splits_over_alt(lam):
    """Whether the S-irreducible lam breaks in two on restriction to Alt."""
    lam = tuple(lam)
    return lam[:1] == (len(lam),) and lam == conjugate(lam) and sum(lam) >= 2


class _Frozen:
    """An immutable value, equal only to its own class and hashed by _fields().

    Copies and pickles rebuild through __init__ from the __match_args__
    fields, so they pass the constructor's checks and derive the rest anew.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setstate__(self, state):
        self.__init__(*(state[name] for name in self.__match_args__))


class AltLabel(_Frozen):
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

    def _fields(self):
        return (self.base, self.sign)

    @property
    def size(self):
        return sum(self.base)

    def sort_key(self):
        return (partition_sort_key(self.base), _SIGN_ORDER[self.sign])

    def __str__(self):
        return format_alt_label(self)

    def __repr__(self):
        return f"AltLabel({self.base!r}, {self.sign!r})"


def check_label(group, label, size):
    """(base, sign) of a label of group 'S' or 'A' whose irreducible has the
    given size: an S label is a partition of size, with sign None; an A
    label is an AltLabel of that size. Anything else raises ValueError."""
    if group == "S":
        return check_partition_of(label, size), None
    if not isinstance(label, AltLabel):
        raise ValueError(f"an A label must be an AltLabel, got {label!r}")
    if label.size != size:
        raise ValueError(f"expected a label of size {size}, got {label}")
    return label.base, label.sign


def format_alt_label(label):
    text = format_partition(label.base)
    return text + (label.sign or "")


def format_label(label):
    """Text form of an S label (a partition) or an AltLabel."""
    if isinstance(label, AltLabel):
        return format_alt_label(label)
    return format_partition(label)


def split_alt_sign(text):
    """Split label text into the partition text and its trailing sign, or None."""
    text = text.strip()
    if text and text[-1] in "+-":
        return text[:-1], text[-1]
    return text, None


def parse_alt_label(text):
    body, sign = split_alt_sign(text)
    return AltLabel(parse_partition(body), sign)


def restrict_sym(lam):
    """Restriction of the S_n irreducible lam to S_{n-1}.

    Returns the partitions obtained by removing one corner cell, in
    decreasing lexicographic order (a lower corner leaves a larger shape, so
    rows are walked bottom up); the branching rule is multiplicity-free.
    """
    lam = check_partition(lam)
    if not lam:
        raise ValueError("cannot restrict the empty partition")
    out = []
    for i, part in reversed(list(enumerate(lam))):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if part > below:
            out.append(lam[:i] + ((part - 1,) if part > 1 else ()) + lam[i + 1 :])
    return out


def induce_sym(mu, n):
    """Induction of the S_{n-1} irreducible mu to S_n: add one cell. A higher
    cell gives a larger shape, so rows walked top down give display order."""
    check_integers("induce_sym: need an integer n", n)
    mu = check_partition_of(mu, n - 1)
    out = []
    for i in range(len(mu) + 1):
        above = mu[i - 1] if i > 0 else None
        here = mu[i] if i < len(mu) else 0
        if above is None or above > here:
            out.append(mu[:i] + (here + 1,) + mu[i + 1 :])
    return out


def restrict_sym_to_alt(lam):
    """Restriction of the S_n irreducible lam to A_n, as AltLabels."""
    lam = check_partition(lam)
    if splits_over_alt(lam):
        return [AltLabel(lam, "+"), AltLabel(lam, "-")]
    return [AltLabel(canonical_base(lam))]


def _fold(shapes, sign=None):
    """The A labels that the given S-shapes restrict to, each once, in
    display order. With a sign, a split label keeps only that half."""
    out = {}
    for shape in shapes:
        for label in restrict_sym_to_alt(shape):
            if sign is None or label.sign in (None, sign):
                out[label] = None
    return sorted(out, key=AltLabel.sort_key)


def restrict_alt(label):
    """Restriction of an A_n irreducible to A_{n-1}: the base's S-restriction
    folded. A conjugate pair of corners gives one unsigned label, and a
    self-conjugate corner both signs, or only the input's sign when it has
    one. Multiplicity-free in all cases.
    """
    if not isinstance(label, AltLabel):
        raise ValueError(f"an A label must be an AltLabel, got {label!r}")
    if label.size < 2:
        raise ValueError(f"cannot restrict {label}: the subgroup is trivial")
    return _fold(restrict_sym(label.base), label.sign)


def induce_alt(label, n):
    """Induction of an A_{n-1} irreducible to A_n: the base's S-induction
    folded (inducing the conjugate gives the conjugate shapes, which fold
    the same). A signed label reaches only its own half of a split shape.
    """
    check_integers("induce_alt: need an integer n", n)
    base, sign = check_label("A", label, n - 1)
    return _fold(induce_sym(base, n), sign)


def alt_labels(m):
    """All irreducible labels of A_m, in display order."""
    return _fold(partitions_of(m))
