from fractions import Fraction

import golden
import pytest
from hypothesis import given, strategies as st

from centdim.arith import set_partitions, stirling2
from centdim.bijection import (
    is_semistandard,
    pair_to_path,
    path_to_pair,
    row_insert,
    row_uninsert,
    tableau_shape,
)
from centdim.bratteli import build_diagram, enumerate_paths
from centdim.dims import dim_z
from centdim.young import kostka_hook_type, partitions_of


def test_row_insert_examples():
    assert row_insert(((0, 0), (2,)), 1) == (((0, 0, 1), (2,)), (1, 3))
    assert row_insert(((0, 0, 1),), 0) == (((0, 0, 0), (1,)), (2, 1))
    assert row_insert((), 3) == (((3,),), (1, 1))
    assert row_insert(((1, 3), (2,)), 2) == (((1, 2), (2, 3)), (2, 2))


def test_row_uninsert_examples():
    assert row_uninsert(((0, 0, 0, 1),), (1, 4)) == (((0, 0, 0),), 1)
    assert row_uninsert(((0, 0, 0), (1,)), (2, 1)) == (((0, 0, 1),), 0)
    assert row_uninsert(((1, 2), (2, 3)), (2, 2)) == (((1, 3), (2,)), 2)


def test_uninsert_rejects_non_corners():
    with pytest.raises(ValueError):
        row_uninsert(((0, 0), (1, 2)), (1, 2))
    with pytest.raises(ValueError):
        row_uninsert(((0, 0), (1,)), (1, 1))
    with pytest.raises(ValueError):
        row_uninsert(((0, 0), (1,)), (3, 1))


def test_semistandard_predicate():
    assert is_semistandard(((0, 0, 1), (1, 2)))
    assert not is_semistandard(((1, 0),))
    assert not is_semistandard(((0, 0), (0, 1)))
    assert not is_semistandard(((0,), (1, 2)))
    assert is_semistandard(())


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=7),
    st.integers(min_value=0, max_value=4),
)
def test_insert_uninsert_roundtrip(seed, value):
    rows = ()
    for x in seed:
        rows, _ = row_insert(rows, x)
    assert is_semistandard(rows) or rows == ()
    bigger, box = row_insert(rows, value)
    assert is_semistandard(bigger)
    back, ejected = row_uninsert(bigger, box)
    assert back == rows
    assert ejected == value


def test_five_figure_walks():
    for walk, (blocks, tableau) in golden.FIVE_WALKS:
        assert path_to_pair(walk, 4) == (blocks, tableau)
        assert pair_to_path(blocks, tableau, 4) == walk


def test_trivial_walks():
    assert path_to_pair(((4,),), 4) == ((), ((0, 0, 0, 0),))
    assert pair_to_path((), ((0, 0, 0, 0),), 4) == ((4,),)


def test_walk_errors():
    with pytest.raises(ValueError, match="malformed path"):
        path_to_pair(((4,), (3,)), 4)
    with pytest.raises(ValueError, match="malformed path"):
        path_to_pair(((3,),), 4)
    with pytest.raises(ValueError, match="malformed path"):
        path_to_pair(((4,), (3, 1), (4,)), 4)
    with pytest.raises(ValueError, match="malformed path"):
        path_to_pair(((4,), (2,), (3,)), 4)
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got 2\.0$"):
        path_to_pair(((2,), (1,), (2,)), 2.0)
    assert path_to_pair(((1,), (), (1,)), True) == path_to_pair(((1,), (), (1,)), 1)


def test_pair_errors():
    with pytest.raises(ValueError, match="incompatible pair"):
        pair_to_path(((1,), (3,)), ((0, 0, 1, 3),), 4)
    with pytest.raises(ValueError, match="incompatible pair"):
        pair_to_path(((1, 2),), ((0, 0, 0, 1),), 4)
    with pytest.raises(ValueError, match="incompatible pair"):
        pair_to_path(((1, 2),), ((0, 2), (2,)), 3)
    with pytest.raises(ValueError, match="incompatible pair"):
        pair_to_path(((1,),), ((1, 0, 0),), 3)
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got 2\.0$"):
        pair_to_path(((1,),), ((0, 1),), 2.0)


NEED_ODD = "malformed path: need shapes at levels 0, 1/2, ..., k"

# (path, n, outcome): the walk's result, or the exact type and message of
# what it raises. The rules run in this order: n, the number of shapes,
# every shape, the start, then every step.
WALK_TABLE = [
    # each rule broken alone
    (((4,), (3,), (3, 1)), 0, (ValueError, "n must be a positive integer, got 0")),
    (((4,), (3,), (3, 1)), "4", (ValueError, "n must be a positive integer, got 4")),
    ((), 4, (ValueError, NEED_ODD)),
    (((4,), (3,)), 4, (ValueError, NEED_ODD)),
    (((4,), (3,), (1, 3)), 4, (ValueError, "malformed path: bad shape (1, 3)")),
    (((4,), (3, 0), (4,)), 4, (ValueError, "malformed path: bad shape (3, 0)")),
    (((3,),), 4, (ValueError, "malformed path: must start at (4,)")),
    (
        ((4,), (4,), (4,)), 4,
        (ValueError, "malformed path: step 1 must remove one cell ((4,) -> (4,))"),
    ),
    (
        ((4,), (3,), (3,)), 4,
        (ValueError, "malformed path: step 2 must add one cell ((3,) -> (3,))"),
    ),
    (
        ((4,), (3,), (5,)), 4,
        (ValueError, "malformed path: step 2 must add one cell ((3,) -> (5,))"),
    ),
    (
        ((4,), (3,), (3, 1), (2, 1), (3, 1, 1)), 4,
        (ValueError, "malformed path: step 4 must add one cell ((2, 1) -> (3, 1, 1))"),
    ),
    # two rules broken at once: the earlier rule speaks
    ((), 0, (ValueError, "n must be a positive integer, got 0")),
    (((4,), (1, 3)), 4, (ValueError, NEED_ODD)),
    (((3,), (1, 3), (3,)), 4, (ValueError, "malformed path: bad shape (1, 3)")),
    (((3,), (3,), (3,)), 4, (ValueError, "malformed path: must start at (4,)")),
    (
        ((4,), (4,), (5,)), 4,
        (ValueError, "malformed path: step 1 must remove one cell ((4,) -> (4,))"),
    ),
    (
        ((4,), (4,), (3, 1), (2, 1), (2, 1.5)), 4,
        (ValueError, "malformed path: bad shape (2, 1.5)"),
    ),
    # bool entries are ints; float entries and a float n are not
    (((2,), (1,), (1, True)), 2, (((1,),), ((0,), (1,)))),
    (((2,), (True,), (2,)), 2, (((1,),), ((0, 1),))),
    (((1,), (), (1,)), True, (((1,),), ((1,),))),
    (((4,), (3,), (3, 1.0)), 4, (ValueError, "malformed path: bad shape (3, 1.0)")),
    (((4.0,),), 4, (ValueError, "malformed path: bad shape (4.0,)")),
    (((2,), (1,), (2,)), 2.0, (ValueError, "n must be a positive integer, got 2.0")),
    # n above MAX_N is refused before the walk is read; MAX_N itself is not
    (((10001,),), 10001, (ValueError, "n must be at most 10000, got 10001")),
    ((), 10**9, (ValueError, "n must be at most 10000, got 1000000000")),
    (((10000,),), 10000, ((), ((0,) * 10000,))),
]

ENTRIES = "incompatible pair: tableau entries must be the block maxima with "

# (blocks, tableau, n, outcome), as above. The rules run in this order: n,
# the blocks, semistandardness, the number of cells, then the entries.
PAIR_TABLE = [
    # each rule broken alone
    (((1,),), ((0, 1),), 0, (ValueError, "n must be a positive integer, got 0")),
    (((1,),), ((0, 0, 1),), "3", (ValueError, "n must be a positive integer, got 3")),
    (((1,), (3,)), ((0, 1, 3),), 3, (ValueError, "incompatible pair: blocks must partition 1..2")),
    (((1, 1),), ((0, 1),), 2, (ValueError, "incompatible pair: blocks must partition 1..2")),
    (((1,),), (), 3, (ValueError, "incompatible pair: tableau is not semistandard")),
    (((1,),), ((1, 0, 0),), 3, (ValueError, "incompatible pair: tableau is not semistandard")),
    (((1,),), ((0, 0), ()), 3, (ValueError, "incompatible pair: tableau is not semistandard")),
    (((1,),), ((0, 1),), 3, (ValueError, "incompatible pair: tableau must have 3 cells")),
    (
        ((1, 2),), ((0, 0, 0, 1),), 4,
        (ValueError, ENTRIES + "4 - t zeros (got [0, 0, 0, 1], wanted [0, 0, 0, 2])"),
    ),
    (
        ((1,), (2,), (3,)), ((2, 3),), 2,
        (ValueError, ENTRIES + "2 - t zeros (got [2, 3], wanted [1, 2, 3])"),
    ),
    # two rules broken at once: the earlier rule speaks
    (((1,), (3,)), ((0, 1),), 0, (ValueError, "n must be a positive integer, got 0")),
    (((1,), (3,)), ((1, 0),), 3, (ValueError, "incompatible pair: blocks must partition 1..2")),
    (((1,),), ((1, 0),), 3, (ValueError, "incompatible pair: tableau is not semistandard")),
    (((1,),), ((0, 2),), 3, (ValueError, "incompatible pair: tableau must have 3 cells")),
    # an empty block, blocks out of order, bool and float entries, a float n
    (((), (1,)), ((0, 0, 1),), 3, (ValueError, "incompatible pair: blocks must partition 1..1")),
    (((3,), (2, 1)), ((0, 2, 3),), 3, ((3,), (2,), (3,), (2,), (2, 1), (2,), (3,))),
    (((True, 2),), ((0, 2),), 2, ((2,), (1,), (2,), (1,), (2,))),
    (((1, 2.0),), ((0, 2),), 2, ((2,), (1,), (2,), (1,), (2,))),
    (((1,),), ((0, 0, 1.0),), 3, ((3,), (2,), (3,))),
    (((1,),), ((0.0, 0, 1),), 3, ((3,), (2,), (3,))),
    (((1, 2.5),), ((0, 2),), 2, (ValueError, "incompatible pair: blocks must partition 1..2")),
    (((1,),), ((0, 1),), 2.0, (ValueError, "n must be a positive integer, got 2.0")),
    # n above MAX_N is refused before the pair is read; MAX_N itself is not
    (((1,),), ((0,) * 10000 + (1,),), 10001, (ValueError, "n must be at most 10000, got 10001")),
    (((1, 1),), (), 10**9, (ValueError, "n must be at most 10000, got 1000000000")),
    (((1,),), ((0,) * 9999 + (1,),), 10000, ((10000,), (9999,), (10000,))),
]


def outcome(fn, *args):
    """fn's result, or the exact type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("path, n, expected", WALK_TABLE)
def test_walk_table(path, n, expected):
    assert outcome(path_to_pair, path, n) == expected


@pytest.mark.parametrize("blocks, tableau, n, expected", PAIR_TABLE)
def test_pair_table(blocks, tableau, n, expected):
    assert outcome(pair_to_path, blocks, tableau, n) == expected


def fillings_of_shape(lam, values):
    """All semistandard fillings of lam using exactly the given multiset."""
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    results = []
    distinct = sorted(set(values))

    def extend(grid, remaining, spot):
        if spot == len(cells):
            results.append(tuple(tuple(row) for row in grid))
            return
        r, c = cells[spot]
        for x in distinct:
            if not remaining[x]:
                continue
            if c > 0 and grid[r][c - 1] > x:
                continue
            if r > 0 and grid[r - 1][c] >= x:
                continue
            grid[r][c] = x
            remaining[x] -= 1
            extend(grid, remaining, spot + 1)
            remaining[x] += 1

    counts = {x: values.count(x) for x in distinct}
    extend([[None] * row_len for row_len in lam], counts, 0)
    return results


def test_walks_biject_with_pairs():
    for n in range(2, 6):
        diagram = build_diagram("S", n, "perm", Fraction(3))
        for k in range(4):
            for lam in partitions_of(n):
                try:
                    walks = enumerate_paths(diagram, Fraction(k), lam)
                except ValueError:
                    walks = []
                pairs = {path_to_pair(walk, n) for walk in walks}
                assert len(pairs) == len(walks) == dim_z(n, k, lam), (n, k, lam)
                for walk in walks:
                    assert pair_to_path(*path_to_pair(walk, n), n) == walk
                # block counts refine the count through the hook Kostka numbers
                by_blocks = {}
                for blocks, _ in pairs:
                    by_blocks[len(blocks)] = by_blocks.get(len(blocks), 0) + 1
                for t in range(n + 1):
                    expected = stirling2(k, t) * kostka_hook_type(lam, n, t)
                    assert by_blocks.get(t, 0) == expected, (n, k, lam, t)


def test_pairs_enumerate_to_walks():
    # build every legal pair directly and confirm each maps to a valid walk
    n, k = 4, 3
    for lam in partitions_of(n):
        total = 0
        for blocks in set_partitions(k):
            values = [0] * (n - len(blocks)) + sorted(b[-1] for b in blocks)
            if len(blocks) > n:
                continue
            for tableau in fillings_of_shape(lam, values):
                walk = pair_to_path(blocks, tableau, n)
                assert path_to_pair(walk, n) == (
                    tuple(tuple(b) for b in blocks),
                    tableau,
                )
                total += 1
        assert total == dim_z(n, k, lam), lam


def test_walk_prefixes_stay_semistandard():
    # replaying any walk keeps the working tableau semistandard throughout
    for walk, _ in golden.FIVE_WALKS:
        for stop in range(4):
            blocks, tableau = path_to_pair(walk[: 2 * stop + 1], 4)
            assert is_semistandard(tableau)
            zeros = sum(1 for row in tableau for x in row if x == 0)
            assert zeros == 4 - len(blocks)


def test_tableau_shape():
    assert tableau_shape(((0, 0, 1), (2,))) == (3, 1)
    assert tableau_shape(()) == ()
