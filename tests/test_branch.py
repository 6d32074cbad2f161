import pytest
from hypothesis import given, strategies as st

from centdim.branch import (
    AltLabel,
    alt_labels,
    canonical_base,
    format_alt_label,
    induce_alt,
    induce_sym,
    parse_alt_label,
    restrict_alt,
    restrict_sym,
    restrict_sym_to_alt,
    splits_over_alt,
)
from centdim.young import conjugate, num_syt, partitions_of


def alt_dim(label):
    """Dimension of the irreducible named by label: f for a folded pair or
    a degenerate label, f/2 for each half of a split one."""
    f = num_syt(label.base)
    if label.sign is None:
        return f
    assert f % 2 == 0
    return f // 2


def test_restrict_sym_examples():
    assert restrict_sym((3, 1)) == [(3,), (2, 1)]
    assert restrict_sym((2, 2)) == [(2, 1)]
    assert restrict_sym((1,)) == [()]
    with pytest.raises(ValueError):
        restrict_sym(())


def test_induce_sym_examples():
    assert induce_sym((3,), 4) == [(4,), (3, 1)]
    assert induce_sym((), 1) == [(1,)]
    assert induce_sym((2, 1), 4) == [(3, 1), (2, 2), (2, 1, 1)]
    with pytest.raises(ValueError):
        induce_sym((3,), 5)


def test_sym_reciprocity():
    for n in range(2, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n - 1):
                assert (mu in restrict_sym(lam)) == (lam in induce_sym(mu, n))


def test_restriction_preserves_dimension():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert sum(num_syt(mu) for mu in restrict_sym(lam)) == num_syt(lam)


def test_alt_label_validation():
    assert AltLabel((3, 1)).sign is None
    assert AltLabel((2, 2), "+").sign == "+"
    with pytest.raises(ValueError):
        AltLabel((2, 1, 1))  # non-canonical: conjugate of (3,1) names the class
    with pytest.raises(ValueError):
        AltLabel((3, 1), "+")  # not self-conjugate, no sign allowed
    with pytest.raises(ValueError):
        AltLabel((2, 2))  # self-conjugate of size 4 must be signed
    with pytest.raises(ValueError):
        AltLabel((2, 2), "x")
    # size-one degeneracy: self-conjugate but unsigned
    assert AltLabel((1,)).sign is None
    with pytest.raises(ValueError):
        AltLabel((1,), "+")


def test_alt_label_text():
    assert format_alt_label(AltLabel((2, 2), "+")) == "2,2+"
    assert format_alt_label(AltLabel((3, 1))) == "3,1"
    assert parse_alt_label("2,2+") == AltLabel((2, 2), "+")
    assert parse_alt_label("3,1,1-") == AltLabel((3, 1, 1), "-")
    assert parse_alt_label("4") == AltLabel((4,))
    with pytest.raises(ValueError):
        parse_alt_label("2,1,1")


def test_restrict_sym_to_alt_examples():
    assert restrict_sym_to_alt((3, 1)) == [AltLabel((3, 1))]
    assert restrict_sym_to_alt((2, 2)) == [AltLabel((2, 2), "+"), AltLabel((2, 2), "-")]
    assert restrict_sym_to_alt((1, 1, 1, 1)) == [AltLabel((4,))]
    assert restrict_sym_to_alt((1,)) == [AltLabel((1,))]


def test_restrict_alt_examples():
    assert restrict_alt(AltLabel((3, 1))) == [
        AltLabel((3,)),
        AltLabel((2, 1), "+"),
        AltLabel((2, 1), "-"),
    ]
    assert restrict_alt(AltLabel((2, 2), "+")) == [AltLabel((2, 1), "+")]
    assert restrict_alt(AltLabel((2, 2), "-")) == [AltLabel((2, 1), "-")]
    for n in range(2, 8):
        assert restrict_alt(AltLabel((n,))) == [AltLabel((n - 1,))]
    with pytest.raises(ValueError):
        restrict_alt(AltLabel((1,)))


def test_restrict_alt_edges_from_reference_towers():
    assert restrict_alt(AltLabel((4, 1, 1))) == [
        AltLabel((4, 1)),
        AltLabel((3, 1, 1), "+"),
        AltLabel((3, 1, 1), "-"),
    ]
    assert restrict_alt(AltLabel((3, 2, 1), "+")) == [
        AltLabel((3, 2)),
        AltLabel((3, 1, 1), "+"),
    ]
    assert restrict_alt(AltLabel((3, 1, 1), "+")) == [AltLabel((3, 1))]
    assert restrict_alt(AltLabel((3, 1, 1), "-")) == [AltLabel((3, 1))]


def test_induce_alt_examples():
    assert induce_alt(AltLabel((3,)), 4) == [AltLabel((4,)), AltLabel((3, 1))]
    assert induce_alt(AltLabel((2, 1), "+"), 4) == [
        AltLabel((3, 1)),
        AltLabel((2, 2), "+"),
    ]
    with pytest.raises(ValueError):
        induce_alt(AltLabel((3,)), 5)
    # A_0 and A_1 are both trivial: the one label induces to the one label
    assert induce_alt(AltLabel(()), 1) == [AltLabel((1,))]
    assert induce_alt(AltLabel((1,)), 2) == [AltLabel((2,))]


def test_alt_reciprocity():
    # restriction and induction are separate folds, so adjointness is a check
    for n in range(2, 11):
        for label in alt_labels(n - 1):
            for parent in alt_labels(n):
                assert (label in restrict_alt(parent)) == (
                    parent in induce_alt(label, n)
                )


def test_alt_restriction_preserves_dimension():
    for n in range(3, 8):
        for label in alt_labels(n):
            children = restrict_alt(label)
            assert len(set(children)) == len(children)
            assert sum(alt_dim(c) for c in children) == alt_dim(label), label


def test_alt_labels_inventory():
    # sum of squared dimensions is the group order (half of n! once n >= 2)
    from math import factorial

    for n in range(2, 9):
        labels = alt_labels(n)
        assert sum(alt_dim(l) ** 2 for l in labels) == factorial(n) // 2
    assert alt_labels(1) == [AltLabel((1,))]
    assert alt_labels(2) == [AltLabel((2,))]
    assert alt_labels(4) == [
        AltLabel((4,)),
        AltLabel((3, 1)),
        AltLabel((2, 2), "+"),
        AltLabel((2, 2), "-"),
    ]


@given(st.integers(min_value=0, max_value=10))
def test_canonical_base_folds_conjugation(n):
    for lam in partitions_of(n):
        rep = canonical_base(lam)
        assert rep in (lam, conjugate(lam))
        assert canonical_base(conjugate(lam)) == rep
        assert rep >= conjugate(rep)
        if splits_over_alt(lam):
            assert lam == conjugate(lam) and sum(lam) >= 2
