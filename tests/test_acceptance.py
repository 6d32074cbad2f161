"""Acceptance suite: one test per shipped criterion, timed where promised.

Each test is self-contained against the frozen tables in golden.py, the
general Kostka count, the Bell numbers and the brute-force pair count
frozen in seed_reference.py and the package's public API; pytest -v shows
one pass/fail line per criterion.
"""

import time
from fractions import Fraction

import golden
from seed_reference import (
    bell,
    kostka,
    pair_count_oracle,
    set_partitions,
    singleton_free_bell,
)

from centdim.arith import binomial, stirling2
from centdim.branch import alt_labels, restrict_alt, restrict_sym
from centdim.bratteli import build_diagram, enumerate_paths, format_label
from centdim.bijection import pair_to_path, path_to_pair
from centdim.dims import (
    GroupModuleContext,
    block_dimension,
    decompose,
    dim_model_block,
    dim_partition_algebra_irr,
    dim_qz,
    dim_qz_alt,
    dim_qz_half,
    dim_z,
    dim_z_algebra,
    dim_z_alt,
    dim_z_alt_half,
    dim_z_half,
)
from centdim.oracle import multiplicity_oracle
from centdim.young import (
    conjugate,
    num_skew_syt,
    num_syt,
    partitions_of,
)


def build_and_check(group, n, module, table):
    top = Fraction(len(table["totals"]) - 1, 2)
    diagram = build_diagram(group, n, module, top)
    got_rows = {
        str(level): [
            (format_label(lab), count) for lab, count in diagram.row(level)
        ]
        for level in diagram.levels()
    }
    assert got_rows == table["rows"], (group, n, module)
    totals = [diagram.square_sum(level) for level in diagram.levels()]
    assert totals == table["totals"], (group, n, module)
    return diagram


def test_criterion_1_golden_tower_s4():
    start = time.perf_counter()
    build_and_check("S", 4, "perm", golden.S4_PERM)
    assert golden.S4_PERM["totals"] == [1, 1, 2, 5, 15, 51, 187, 715, 2795]
    assert time.perf_counter() - start < 1.0


def test_criterion_2_golden_tower_a4():
    start = time.perf_counter()
    build_and_check("A", 4, "perm", golden.A4_PERM)
    assert golden.A4_PERM["totals"] == [1, 1, 2, 6, 22, 86, 342, 1366]
    assert time.perf_counter() - start < 1.0


def test_criterion_3_big_sym_tower():
    start = time.perf_counter()
    diagram = build_and_check("S", 6, "perm", golden.S6_PERM)
    assert [c for _, c in diagram.row(4)] == [15, 37, 31, 31, 9, 20, 10, 2, 3, 1]
    assert golden.S6_PERM["totals"][-2:] == [876, 4111]
    # one dimension short of the generic pattern at level 7/2
    assert diagram.square_sum(Fraction(7, 2)) == bell(7) - 1 == 876
    assert time.perf_counter() - start < 5.0


def test_criterion_4_big_quasi_tower():
    diagram = build_and_check("S", 6, "refl", golden.S6_REFL)
    assert golden.S6_REFL["totals"] == [1, 1, 1, 2, 4, 15, 41, 202, 694]
    assert [c for _, c in diagram.row(4)] == [4, 11, 13, 13, 5, 12, 6, 2, 3, 1]
    assert diagram.vertex_count(1, (6,)) == 0
    assert ((6,), 0) in diagram.row(1)


def test_criterion_5_big_alt_towers():
    perm = build_and_check("A", 6, "perm", golden.A6_PERM)
    refl = build_and_check("A", 6, "refl", golden.A6_REFL)
    assert golden.A6_PERM["totals"][-3:] == [219, 1037, 5427]
    assert golden.A6_REFL["totals"][-3:] == [51, 282, 1114]
    assert perm.square_sum(4) == 5427
    assert refl.square_sum(4) == 1114


def test_criterion_6_bijection():
    start = time.perf_counter()
    diagram = build_diagram("S", 4, "perm", Fraction(3))
    walks = enumerate_paths(diagram, Fraction(3), (2, 2))
    assert len(walks) == 5
    expected = {walk: pair for walk, pair in golden.FIVE_WALKS}
    assert {path_to_pair(w, 4) for w in walks} == set(expected.values())
    for walk in walks:
        assert path_to_pair(walk, 4) == expected[walk]
        assert pair_to_path(*expected[walk], 4) == walk
    # exhaustive roundtrip across every vertex, n in 2..6, levels <= 3
    checked = 0
    for n in range(2, 7):
        diagram = build_diagram("S", n, "perm", Fraction(3))
        for k in range(4):
            for lab, count in diagram.row(Fraction(k)):
                paths = enumerate_paths(diagram, Fraction(k), lab)
                assert len(paths) == count
                pairs = set()
                for path in paths:
                    pair = path_to_pair(path, n)
                    assert pair_to_path(*pair, n) == path
                    pairs.add(pair)
                assert len(pairs) == count
                checked += count
    assert checked > 0
    assert time.perf_counter() - start < 30.0


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    mismatches = []
    checks = 0
    for group in ("S", "A"):
        for module in ("perm", "refl"):
            for n in range(2, 7):
                for twice in range(9):
                    ctx = GroupModuleContext(group, n, module, Fraction(twice, 2))
                    labels = (
                        partitions_of(ctx.label_size)
                        if group == "S"
                        else alt_labels(ctx.label_size)
                    )
                    for label in labels:
                        formula = block_dimension(ctx, label)
                        oracle = multiplicity_oracle(ctx, label)
                        checks += 1
                        if formula != oracle:
                            mismatches.append((group, module, n, twice, label))
    assert not mismatches
    assert checks > 700
    assert time.perf_counter() - start < 300.0


def hook_content(n, t):
    return (n - t,) + (1,) * t if t < n else (1,) * n


def test_criterion_8_property_suites():
    # Stirling recurrences, k <= 12
    for k in range(13):
        for t in range(k + 2):
            assert stirling2(k + 1, t) == t * stirling2(k, t) + stirling2(k, t - 1)
        for t in range(k + 1):
            assert stirling2(k + 1, t + 1) == sum(
                binomial(k, j) * stirling2(j, t) for j in range(k + 1)
            )

    # three expressions for a block dimension agree
    for n in range(1, 7):
        for lam in partitions_of(n):
            trunk = lam[1:]
            lam2 = lam[1] if len(lam) > 1 else 0
            for k in range(7):
                value = dim_z(n, k, lam)
                assert value == sum(
                    stirling2(k, t) * kostka(lam, hook_content(n, t))
                    for t in range(n + 1)
                )
                assert value == sum(
                    stirling2(k, t)
                    * num_skew_syt(lam, (n - t,) if t < n else ())
                    for t in range(n - lam[0], n + 1)
                )
                head = num_syt(trunk) * sum(
                    binomial(t, sum(trunk)) * stirling2(k, t)
                    for t in range(sum(trunk), n - lam2 + 1)
                )
                tail = sum(
                    stirling2(k, t)
                    * num_skew_syt(lam, (n - t,) if t < n else ())
                    for t in range(n - lam2 + 1, n + 1)
                )
                assert value == head + tail

    # restriction-induction recursion read off the diagrams
    for group, n in (("S", 4), ("S", 5), ("A", 5)):
        diagram = build_diagram(group, n, "perm", Fraction(3))
        counts = [dict(row) for row in diagram.rows]
        for i in range(1, len(diagram.rows)):
            for lab, count in diagram.rows[i]:
                above = [src for src, dst in diagram.edges[i] if dst == lab]
                assert count == sum(counts[i - 1][src] for src in above)
    diagram = build_diagram("S", 5, "refl", Fraction(3))
    counts = [dict(row) for row in diagram.rows]
    for i in range(1, len(diagram.rows)):
        for lab, count in diagram.rows[i]:
            above = sum(
                counts[i - 1][src]
                for src, dst in diagram.edges[i]
                if dst == lab
            )
            if i % 2 == 1:
                assert count == above
            else:
                assert count == above - counts[i - 2].get(lab, 0)

    # sum of squared block dimensions equals the algebra dimension
    for group in ("S", "A"):
        for module in ("perm", "refl"):
            for n in range(2, 7):
                for twice in range(9):
                    ctx = GroupModuleContext(group, n, module, Fraction(twice, 2))
                    assert sum(d * d for _, d in decompose(ctx)) == dim_z_algebra(
                        ctx
                    )

    # binomial inversion: quasi dimensions transform back
    for n in range(2, 7):
        for k in range(6):
            for lam in partitions_of(n):
                assert dim_z(n, k, lam) == sum(
                    binomial(k, j) * dim_qz(n, j, lam) for j in range(k + 1)
                )
            for mu in partitions_of(n - 1):
                assert dim_z_half(n, k, mu) == sum(
                    binomial(k, j) * dim_qz_half(n, j, mu) for j in range(k + 1)
                )
        for k in range(5):
            for lab in alt_labels(n):
                assert dim_z_alt(n, k, lab) == sum(
                    binomial(k, j) * dim_qz_alt(n, j, lab) for j in range(k + 1)
                )

    # stable range: one long first row makes the dimension independent of n
    for k in range(5):
        for r in range(k + 1):
            for nu in partitions_of(r):
                stable = dim_partition_algebra_irr(Fraction(k), nu)
                if r == k:
                    assert stable == num_syt(nu)
                for n in range(2 * k, 2 * k + 3):
                    head = n - r
                    if n == 0 or head < (nu[0] if nu else 1):
                        continue
                    assert dim_z(n, k, (head,) + nu) == stable

    # collapsed form when the second part is at most 2
    for n in range(2, 8):
        for lam in partitions_of(n):
            lam2 = lam[1] if len(lam) > 1 else 0
            if lam2 > 2:
                continue
            trunk = lam[1:]
            for k in range(7):
                if lam[0] == 1:
                    expected = stirling2(k, n - 1) + stirling2(k, n)
                else:
                    expected = num_syt(trunk) * sum(
                        binomial(t, sum(trunk)) * stirling2(k, t)
                        for t in range(sum(trunk), n - 1)
                    ) + num_syt(lam) * (
                        stirling2(k, n - 1) + stirling2(k, n)
                    )
                assert dim_z(n, k, lam) == expected, (lam, k)

    # model blocks group stable irreducibles by odd column count
    for k in range(7):
        for r in range(min(k, 6) + 1):
            for p in range(r % 2, r + 1, 2):
                expected = sum(
                    dim_partition_algebra_irr(Fraction(k), nu)
                    for nu in partitions_of(r)
                    if sum(1 for c in conjugate(nu) if c % 2) == p
                )
                assert dim_model_block(k, r, p) == expected

    # quasi algebra dimension: both closed forms, with the spot values
    assert singleton_free_bell(6) == 41
    assert singleton_free_bell(8) == 715
    for k in range(5):
        for n in (2 * k, 2 * k + 1, 2 * k + 2):
            if n < 2:
                continue
            value = dim_z_algebra(GroupModuleContext("S", n, "refl", Fraction(k)))
            assert value == singleton_free_bell(2 * k)
            assert value == 1 + sum(
                (-1) ** (j - 1) * bell(2 * k - j) for j in range(1, 2 * k + 1)
            )


def test_criterion_9_three_way_count_agreement():
    start = time.perf_counter()
    for k in range(5):
        assert pair_count_oracle(1, k, (1,)) == dim_z(1, k, (1,))
    for n in range(2, 6):
        diagram = build_diagram("S", n, "perm", Fraction(4))
        for k in range(5):
            for lam in partitions_of(n):
                direct = dim_z(n, k, lam)
                brute = pair_count_oracle(n, k, lam)
                try:
                    paths = len(enumerate_paths(diagram, Fraction(k), lam))
                except ValueError:
                    paths = 0
                assert direct == brute == paths, (n, k, lam)
    assert time.perf_counter() - start < 60.0


def test_set_partition_sanity_for_the_oracle():
    # the pair oracle's partition stream matches the Bell numbers it sums to
    for k in range(7):
        assert len(list(set_partitions(k))) == bell(k)
