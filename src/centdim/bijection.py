"""Paths in the permutation-module tower versus set-partition pairs.

A walk of length 2k in the symmetric-group diagram (remove a cell at each
half step, add one back at each full step, starting from the one-row shape
(n)) matches a pair (P, T): P a set partition of {1..k} and T a filling of
the final shape by n - t zeros together with the t block maxima of P, each
used once, weakly increasing along rows and strictly increasing down
columns with zeros ranked below every positive value.

The walk is replayed by row insertion. Step i first uninserts the cell
lost at the half step, ejecting a value b: b = 0 opens the block {i},
otherwise i joins the block of b. It then writes i into the cell gained at
the full step. Reversing from (P, T) removes the entries k down to 1,
reinserting 0 for a singleton block and the second-largest member
otherwise.

Both directions refuse n above its cap before reading the input. Each
direction checks its input in the function that replays it, on the
state the replay then uses, so a walk of length 2k costs O(k) row
operations after one checking pass. _step is the one function that turns
a remove/add step pair into the record the replay follows. path_to_pair
reads it through its memo, keyed on the pair's three shapes, when every
entry of the walk is of type int, and unmemoized otherwise. When the start
is wrong, a record is missing or the walk is not all-int, the rules are
checked one by one, only to name the first one broken. pair_to_path checks
the sorted blocks and the working copy of the tableau it edits, and
reinserts each entry's predecessor in its block, read from one table.

Tableaux are tuples of tuples of ints; set partitions are tuples of tuples,
blocks ordered by minimum.
"""

from bisect import bisect_left, bisect_right
from functools import cache
from itertools import chain, zip_longest

from .limits import check
from .young import is_partition


def tableau_shape(rows):
    return tuple(map(len, rows))


def is_semistandard(rows):
    """Weakly increasing rows, strictly increasing columns, valid shape."""
    for row in rows:
        if not row:
            return False
    for upper, lower in zip(rows, rows[1:]):
        if len(upper) < len(lower):
            return False
    for row in rows:
        for j in range(1, len(row)):
            if row[j - 1] > row[j]:
                return False
    for upper, lower in zip(rows, rows[1:]):
        for j in range(len(lower)):
            if upper[j] >= lower[j]:
                return False
    return True


def _insert(work, value):
    """Row-insert value into a list-of-lists tableau in place; returns the
    0-based row of the cell it adds, which ends that row."""
    for level, row in enumerate(work):
        j = bisect_right(row, value)
        if j == len(row):
            row.append(value)
            return level
        row[j], value = value, row[j]
    work.append([value])
    return len(work) - 1


def row_insert(rows, value):
    """Insert a value by row bumping; returns (new tableau, (row, col)).

    The entering value displaces the leftmost entry strictly greater than
    it (equal entries are passed over), so inserting 0 into a row of zeros
    appends. 1-based cell coordinates.
    """
    work = [list(r) for r in rows]
    row = _insert(work, value)
    return tuple(tuple(r) for r in work), (row + 1, len(work[row]))


def _uninsert(work, r):
    """Reverse-bump the last cell of row r (1-based) out of a list-of-lists
    tableau in place; returns the value ejected from row one."""
    value = work[r - 1].pop()
    if not work[r - 1]:
        work.pop()
    for i in range(r - 2, -1, -1):
        row = work[i]
        j = bisect_left(row, value) - 1
        if j < 0:
            raise ValueError(
                f"reverse bump fell off row {i + 1}: the tableau is not semistandard"
            )
        row[j], value = value, row[j]
    return value


def row_uninsert(rows, corner):
    """Inverse bumping from a removable corner; returns (tableau, ejected).

    Walking upward, the removed value swaps with the rightmost entry
    strictly smaller than it in each row above; whatever leaves row one is
    the ejected value. Exact inverse of row_insert: reinserting the ejected
    value recreates the tableau and the corner.
    """
    r, c = corner
    if not (1 <= r <= len(rows)) or c != len(rows[r - 1]) or (
        r < len(rows) and len(rows[r]) >= c
    ):
        raise ValueError(f"({r},{c}) is not a removable corner of {tableau_shape(rows)}")
    work = [list(x) for x in rows]
    value = _uninsert(work, r)
    return tuple(tuple(x) for x in work), value


def _one_box_difference(bigger, smaller):
    """The 1-based (row, col) of the single cell in bigger but not smaller,
    or None when the shapes do not differ by exactly one cell. Both are
    tuples; smaller reads as padded with zeros to the length of bigger."""
    if len(smaller) > len(bigger):
        return None
    cell = None
    for i, (a, b) in enumerate(zip_longest(bigger, smaller, fillvalue=0)):
        if a != b:
            if a != b + 1 or cell:
                return None
            cell = (i + 1, a)
    return cell


@cache
def _step(before, middle, after):
    """One remove/add step pair of a walk: the row of the cell removed from
    before and the (row, col) of the cell added to middle to reach after, or
    None when a shape is not a partition or a half step does not move
    exactly one cell. Memoized per shape triple.

    The memo is only for shapes whose entries are all of type int: (3, 1.0)
    == (3, 1) and both hash alike, so a lookup on other entries could accept
    a float. Other shapes go through _step.__wrapped__.
    """
    if not (is_partition(before) and is_partition(middle) and is_partition(after)):
        return None
    removed = _one_box_difference(before, middle)
    added = _one_box_difference(after, middle)
    if removed is None or added is None:
        return None
    return removed[0], added


def _check_n(n):
    """n checked before any input is read: the replays hold a row of n
    entries, and the answer prints it."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    check("bijection_n", n, f"n = {n} is above the cap of")


def _check_path_in_order(shapes, n):
    """Raise for the first rule a walk breaks, unmemoized: every shape, then
    the start, then every step."""
    for s in shapes:
        if not is_partition(s):
            raise ValueError(f"malformed path: bad shape {s}")
    if shapes[0] != (n,):
        raise ValueError(f"malformed path: must start at ({n},)")
    for i, (before, after) in enumerate(zip(shapes, shapes[1:]), 1):
        bigger, smaller, verb = (before, after, "remove") if i % 2 else (after, before, "add")
        if _one_box_difference(bigger, smaller) is None:
            raise ValueError(
                f"malformed path: step {i} must {verb} one cell ({before} -> {after})"
            )


def path_to_pair(path, n):
    """Replay a walk into its (set partition, zeroed tableau) pair.

    _step gives, for each remove/add step pair, the row of the cell it
    removes and the 1-based cell it adds; the replay follows those records
    on one mutable tableau.
    """
    _check_n(n)
    shapes = tuple(map(tuple, path))
    if len(shapes) % 2 == 0:
        raise ValueError("malformed path: need shapes at levels 0, 1/2, ..., k")
    memo = shapes[0] == (n,) and set(map(type, chain.from_iterable(shapes))) <= {int}
    step = _step if memo else _step.__wrapped__
    steps = list(map(step, shapes[::2], shapes[1::2], shapes[2::2]))
    if not memo or None in steps:
        _check_path_in_order(shapes, n)
    work = [[0] * n]
    blocks = []
    by_max = {}  # each open block, keyed by its current maximum
    for i, (removed, (row, col)) in enumerate(steps, 1):
        ejected = _uninsert(work, removed)
        if ejected == 0:
            home = [i]
            blocks.append(home)
        else:
            home = by_max.pop(ejected, None)
            if home is None:
                raise RuntimeError(f"ejected value {ejected} is not a block maximum")
            home.append(i)
        by_max[i] = home
        if row == len(work) + 1:
            work.append([i])
        else:
            work[row - 1].append(i)
        if len(work[row - 1]) != col:
            raise RuntimeError(f"entry {i} missed the cell ({row},{col}) its step adds")
    return tuple(map(tuple, blocks)), tuple(map(tuple, work))


def pair_to_path(blocks, tableau, n):
    """Rebuild the walk from a (set partition, zeroed tableau) pair.

    The pair is checked on the lists the replay then edits: each block
    sorted, the rows copied into work and their lengths into shape.
    """
    _check_n(n)
    blocks = [sorted(b) for b in blocks]
    members = sorted(chain.from_iterable(blocks))
    k = len(members)
    if members != list(range(1, k + 1)) or [] in blocks:
        raise ValueError(f"incompatible pair: blocks must partition 1..{k}")
    work = [list(r) for r in tableau]
    if not work or not is_semistandard(work):
        raise ValueError("incompatible pair: tableau is not semistandard")
    shape = list(map(len, work))  # row lengths of work, kept in step with it
    if sum(shape) != n:
        raise ValueError(f"incompatible pair: tableau must have {n} cells")
    entries = sorted(chain.from_iterable(work))
    expected = [0] * (n - len(blocks)) + sorted([b[-1] for b in blocks])
    if len(blocks) > n or entries != expected:
        raise ValueError(
            "incompatible pair: tableau entries must be the block maxima "
            f"with {n} - t zeros (got {entries}, wanted {expected})"
        )
    # each entry's predecessor in its block; a block minimum has none
    before = {
        upper: lower for b in blocks if len(b) > 1 for lower, upper in zip(b, b[1:])
    }
    shapes = [tuple(shape)]
    for i in range(k, 0, -1):
        # i is the largest entry left and entries are distinct, so it ends
        # its row: only the row ends need looking at
        for r, row in enumerate(work):
            if row[-1] == i:
                break
        else:
            raise RuntimeError(f"entry {i} missing despite validation")
        row.pop()
        shape[r] -= 1
        if not row:
            work.pop()
            shape.pop()
        shapes.append(tuple(shape))
        # i is its block's maximum once every larger entry has left, so the
        # block's new maximum goes back in, or 0 when i was its only member
        r = _insert(work, before.get(i, 0))
        if r == len(shape):
            shape.append(1)
        else:
            shape[r] += 1
        shapes.append(tuple(shape))
    if work != [[0] * n]:
        raise RuntimeError("reverse replay did not end at the one-row zero tableau")
    return tuple(reversed(shapes))
