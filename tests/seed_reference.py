"""Frozen copies of code the package has since rewritten.

* The first, quadratic tower builder and walk replay. The package's
  build_diagram and bijection replay now do one branching call per vertex
  and one validating pass per walk.
* _sort_key as it was, the frozen tower builder's row order, choosing the
  key per vertex by its type. The package's build_diagram picks the key
  once per build from the group.
* is_semistandard as it was, with generator passes.
* enumerate_paths as it was, extending paths to every vertex of every row.
  The package's walks only the target's ancestors.
* induce_alt as it was, inducing both the base and its conjugate, and
  restrict_alt and alt_labels as they were, each folding S-shapes under
  conjugation in its own loop. The package folds once, in branch._fold.
  The frozen tower builder and induce_alt use this restrict_alt.
* The eight hand-written dim_* families with _fold_alt, _quasi and the
  block_dimension dispatch table. The package computes them with one kernel.
* AltLabel and GroupModuleContext as frozen dataclasses. The package writes
  them as plain classes, so that importing it does not load dataclasses.
* stirling2 as it was, a cached recursion that warms a grid of entries when
  it runs out of stack. The package reads a table filled bottom-up. The
  frozen dim_* families use this copy.
* _alternating_transform as it was, with one binomial call per term, and
  dim_z_algebra, _perm_algebra_dim, _abacus_sum and dim_qp_irr as they were,
  taking that transform over lower levels for the reflection module. The
  package weighs by signed Stirling numbers instead; these copies use the
  frozen transform and the frozen stirling2.
* _export_json as it was, a dict document (json_document here) passed to
  json.dumps with indent=2. The package writes that layout directly.
* _export_dot and _node_id as they were, formatting a label for every node
  and both ends of every edge. The package formats each label once per
  export.
* Dominance, dominance_compare, _horizontal_strip_predecessors and the
  general kostka as they were in centdim.young. The package counts only
  hook-type Kostka numbers, by an alternating sum of hook-formula counts,
  and no longer carries these; the tests use them as independent
  references for it.
* multiplicity_oracle as it was, with _module_value and _group_order,
  summing over every class again at every level. The package groups the
  classes by fixed-point count once per label.

These copies keep the earlier code exactly as it was, so the tests can
demand byte-identical rows, edges, exports, pairs, walks, dimensions and
error messages from the rewrites. Only code that the rewrites left alone
(binomials, the other branching rules, the shape predicates, the class
tables and character values) and the hook
Kostka numbers, which tests/test_young.py pins against num_skew_syt, are
imported from the package. Do not edit.
"""

import enum
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from centdim.arith import bell_restricted, binomial
from centdim.bijection import tableau_shape
from centdim.bratteli import BratteliDiagram, format_label, row_square_sum
from centdim.branch import (
    _SIGN_ORDER,
    AltLabel,
    canonical_base,
    format_alt_label,
    induce_sym,
    restrict_sym,
    restrict_sym_to_alt,
    splits_over_alt,
)
from centdim.dims import GROUPS, MODULES, check_level, format_level, is_half, level_floor
from centdim.oracle import character_mn, conjugacy_classes
from centdim.young import (
    check_partition,
    conjugate,
    is_partition,
    kostka_hook_type,
    num_syt,
    partition_sort_key,
    partitions_of,
)


def _sort_key(label):
    if isinstance(label, AltLabel):
        return label.sort_key()
    return (partition_sort_key(label), 0)


def _restriction(group, label):
    if group == "S":
        return restrict_sym(label)
    return restrict_alt(label)


def _inductions(group, label, to_size):
    if group == "S":
        return induce_sym(label, to_size)
    return induce_alt(label, to_size)


def build_diagram(group, n, module, max_level):
    if group not in ("S", "A"):
        raise ValueError(f"group must be 'S' or 'A', got {group!r}")
    if module not in ("perm", "refl"):
        raise ValueError(f"module must be 'perm' or 'refl', got {module!r}")
    minimum = 2 if group == "S" else 4
    if n < minimum:
        raise ValueError(f"group {group} needs n >= {minimum}, got {n}")
    max_level = check_level(max_level)

    if group == "S":
        root = (n,)
    else:
        (root,) = restrict_sym_to_alt((n,))
    rows = [[(root, 1)]]
    edges = [[]]

    for idx in range(1, int(2 * max_level) + 1):
        above = rows[idx - 1]
        above_counts = dict(above)
        half_row = idx % 2 == 1
        if half_row:
            vertices = []
            for lab, _ in above:
                for child in _restriction(group, lab):
                    if child not in vertices:
                        vertices.append(child)
        else:
            vertices = []
            for lab, _ in above:
                for parent in _inductions(group, lab, n):
                    if parent not in vertices:
                        vertices.append(parent)
        vertices.sort(key=_sort_key)

        row = []
        row_edges = []
        for vert in vertices:
            if half_row:
                neighbors = [
                    lab for lab, _ in above if vert in _restriction(group, lab)
                ]
            else:
                neighbors = [
                    lab
                    for lab in _restriction(group, vert)
                    if lab in above_counts
                ]
            count = sum(above_counts[lab] for lab in neighbors)
            if module == "refl" and not half_row:
                count -= dict(rows[idx - 2]).get(vert, 0)
            assert count >= 0, (
                f"negative count for {format_label(vert)} at row {idx}"
            )
            row.append((vert, count))
            row_edges.extend((lab, vert) for lab in neighbors)
        rows.append(row)
        edges.append(row_edges)

    return BratteliDiagram(group, n, module, max_level, rows, edges)


def enumerate_paths(diagram, level, label):
    idx = diagram._row_index(level)
    if all(lab != label for lab, _ in diagram.rows[idx]):
        raise ValueError(
            f"no vertex {format_label(label)} at level {format_level(Fraction(level))}"
        )
    paths = {diagram.rows[0][0][0]: [()]}
    for i in range(1, idx + 1):
        nxt = {}
        for src, dst in diagram.edges[i]:
            if src in paths:
                nxt.setdefault(dst, []).extend(
                    path + (src,) for path in paths[src]
                )
        paths = nxt
    return [path + (label,) for path in paths.get(label, [])]


def is_semistandard(rows):
    lengths = [len(r) for r in rows]
    if any(not row for row in rows):
        return False
    if any(lengths[i] < lengths[i + 1] for i in range(len(rows) - 1)):
        return False
    for row in rows:
        if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(rows) - 1):
        if any(rows[i][j] >= rows[i + 1][j] for j in range(lengths[i + 1])):
            return False
    return True


def row_insert(rows, value):
    work = [list(r) for r in rows]
    level = 0
    while True:
        if level == len(work):
            work.append([value])
            box = (level + 1, 1)
            break
        row = work[level]
        j = bisect_right(row, value)
        if j == len(row):
            row.append(value)
            box = (level + 1, j + 1)
            break
        row[j], value = value, row[j]
        level += 1
    return tuple(tuple(r) for r in work), box


def row_uninsert(rows, corner):
    r, c = corner
    if not (1 <= r <= len(rows)) or c != len(rows[r - 1]) or (
        r < len(rows) and len(rows[r]) >= c
    ):
        raise ValueError(f"({r},{c}) is not a removable corner of {tableau_shape(rows)}")
    work = [list(x) for x in rows]
    value = work[r - 1].pop()
    if not work[r - 1]:
        work.pop()
    for i in range(r - 2, -1, -1):
        row = work[i]
        j = bisect_left(row, value) - 1
        assert j >= 0, "reverse bump fell off the row"
        row[j], value = value, row[j]
    return tuple(tuple(x) for x in work), value


def _one_box_difference(bigger, smaller):
    big = tuple(bigger)
    small = tuple(smaller) + (0,) * (len(bigger) - len(smaller))
    if len(small) > len(big) or sum(big) - sum(tuple(smaller)) != 1:
        return None
    spot = None
    for i, (a, b) in enumerate(zip(big, small)):
        if a == b:
            continue
        if a != b + 1 or spot is not None:
            return None
        spot = (i + 1, a)
    return spot


def check_path(path, n):
    shapes = tuple(tuple(p) for p in path)
    if len(shapes) % 2 == 0 or not shapes:
        raise ValueError("malformed path: need shapes at levels 0, 1/2, ..., k")
    for s in shapes:
        if s and not is_partition(s):
            raise ValueError(f"malformed path: bad shape {s}")
    if shapes[0] != (n,):
        raise ValueError(f"malformed path: must start at ({n},)")
    for i in range(1, len(shapes)):
        removing = i % 2 == 1
        down, up = (shapes[i - 1], shapes[i]) if removing else (shapes[i], shapes[i - 1])
        if _one_box_difference(down, up) is None:
            verb = "remove" if removing else "add"
            raise ValueError(
                f"malformed path: step {i} must {verb} one cell "
                f"({shapes[i - 1]} -> {shapes[i]})"
            )
    return shapes


def path_to_pair(path, n):
    shapes = check_path(path, n)
    k = (len(shapes) - 1) // 2
    tableau = ((0,) * n,)
    blocks = []
    for i in range(1, k + 1):
        prev, mid, nxt = shapes[2 * i - 2], shapes[2 * i - 1], shapes[2 * i]
        corner = _one_box_difference(prev, mid)
        tableau, ejected = row_uninsert(tableau, corner)
        if ejected == 0:
            blocks.append([i])
        else:
            home = next((b for b in blocks if b[-1] == ejected), None)
            assert home is not None, f"ejected value {ejected} is not a block maximum"
            home.append(i)
        row, col = _one_box_difference(nxt, mid)
        work = [list(r) for r in tableau]
        if row == len(work) + 1:
            work.append([i])
        else:
            work[row - 1].append(i)
        assert len(work[row - 1]) == col
        tableau = tuple(tuple(r) for r in work)
    return tuple(tuple(b) for b in blocks), tableau


def _check_pair(blocks, tableau, n):
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    members = sorted(x for b in blocks for x in b)
    k = len(members)
    if members != list(range(1, k + 1)) or any(not b for b in blocks):
        raise ValueError(f"incompatible pair: blocks must partition 1..{k}")
    blocks = tuple(sorted(blocks, key=lambda b: b[0]))
    rows = tuple(tuple(r) for r in tableau)
    if not rows or not is_semistandard(rows):
        raise ValueError("incompatible pair: tableau is not semistandard")
    if sum(tableau_shape(rows)) != n:
        raise ValueError(f"incompatible pair: tableau must have {n} cells")
    entries = sorted(x for r in rows for x in r)
    maxima = sorted(b[-1] for b in blocks)
    expected = [0] * (n - len(blocks)) + maxima
    if len(blocks) > n or entries != expected:
        raise ValueError(
            "incompatible pair: tableau entries must be the block maxima "
            f"with {n} - t zeros (got {entries}, wanted {expected})"
        )
    return blocks, rows, k


def pair_to_path(blocks, tableau, n):
    blocks, rows, k = _check_pair(blocks, tableau, n)
    working = [list(b) for b in blocks]
    shapes = [tableau_shape(rows)]
    for i in range(k, 0, -1):
        spot = next(
            (
                (ri + 1, ci + 1)
                for ri, row in enumerate(rows)
                for ci, x in enumerate(row)
                if x == i
            ),
            None,
        )
        assert spot is not None, f"entry {i} missing despite validation"
        work = [list(r) for r in rows]
        work[spot[0] - 1].pop()
        if not work[spot[0] - 1]:
            work.pop()
        rows = tuple(tuple(r) for r in work)
        shapes.append(tableau_shape(rows))
        home = next(b for b in working if b[-1] == i)
        if len(home) == 1:
            working.remove(home)
            reinsert = 0
        else:
            reinsert = home[-2]
            home.pop()
        rows, _ = row_insert(rows, reinsert)
        shapes.append(tableau_shape(rows))
    assert shapes[-1] == (n,) and all(x == 0 for r in rows for x in r)
    return tuple(reversed(shapes))


def induce_alt(label, n):
    """Induction of an A_{n-1} irreducible to A_n.

    Candidates come from adding a cell to the base or to its conjugate;
    a candidate is kept exactly when the given label appears in its
    restriction, which keeps induction adjoint to restrict_alt by
    construction.
    """
    if label.size != n - 1:
        raise ValueError(f"expected a label of size {n - 1}, got {label}")
    candidates = []
    for shape in (label.base, conjugate(label.base)):
        for bigger in induce_sym(shape, n):
            for cand in restrict_sym_to_alt(bigger):
                if cand not in candidates:
                    candidates.append(cand)
    out = [cand for cand in candidates if label in restrict_alt(cand)]
    out.sort(key=AltLabel.sort_key)
    return out


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


def _alternating_transform(k, value):
    """sum_j (-1)^(k-j) C(k, j) * value(j), j ascending.

    Moves permutation-module data to the reflection module: M = trivial + R,
    so a value for R^k is this transform of the values for M^j.
    """
    return sum(
        (-1) ** (k - j) * binomial(k, j) * value(j) for j in range(k + 1)
    )


_WARM_STEP = 100
_warming = False


@cache
def stirling2(k, t):
    global _warming
    if t < 0 or t > k:
        return 0
    if k == 0:
        return 1
    if k <= _WARM_STEP or _warming:
        return t * stirling2(k - 1, t) + stirling2(k - 1, t - 1)
    _warming = True
    try:
        return t * stirling2(k - 1, t) + stirling2(k - 1, t - 1)
    except RecursionError:
        for j in range(k % _WARM_STEP or _WARM_STEP, k, _WARM_STEP):
            for col in range(t, max(-1, t - (k - j) - 1), -_WARM_STEP):
                if col <= j:
                    stirling2(j, col)
        return t * stirling2(k - 1, t) + stirling2(k - 1, t - 1)
    finally:
        _warming = False


def dim_z(n, k, lam):
    lam = check_partition(lam)
    if sum(lam) != n:
        raise ValueError(f"expected a partition of {n}, got {lam}")
    return sum(
        stirling2(k, t) * kostka_hook_type(lam, n, t) for t in range(n + 1)
    )


def dim_z_half(n, k, mu):
    mu = check_partition(mu) if mu else ()
    if sum(mu) != n - 1:
        raise ValueError(f"expected a partition of {n - 1}, got {mu}")
    return sum(
        stirling2(k + 1, t + 1) * kostka_hook_type(mu, n - 1, t)
        for t in range(n)
    )


def _fold_alt(base_dim, n, k, label):
    lam = label.base
    if label.sign is not None:
        return base_dim(n, k, lam)
    star = conjugate(lam)
    if star == lam:
        # degenerate self-conjugate label (size <= 1): nothing to fold
        return base_dim(n, k, lam)
    return base_dim(n, k, lam) + base_dim(n, k, star)


def dim_z_alt(n, k, label):
    if label.size != n:
        raise ValueError(f"expected a label of size {n}, got {label}")
    return _fold_alt(dim_z, n, k, label)


def dim_z_alt_half(n, k, label):
    if label.size != n - 1:
        raise ValueError(f"expected a label of size {n - 1}, got {label}")
    return _fold_alt(dim_z_half, n, k, label)


def _quasi(base_dim, n, k, lam):
    return sum(
        (-1) ** (k - low) * binomial(k, low) * base_dim(n, low, lam)
        for low in range(k + 1)
    )


def dim_qz(n, k, lam):
    return _quasi(dim_z, n, k, lam)


def dim_qz_half(n, k, mu):
    return _quasi(dim_z_half, n, k, mu)


def dim_qz_alt(n, k, label):
    return _quasi(dim_z_alt, n, k, label)


def dim_qz_alt_half(n, k, label):
    return _quasi(dim_z_alt_half, n, k, label)


def block_dimension(ctx, label):
    n, k = ctx.n, ctx.k
    if ctx.group == "S":
        table = {
            ("perm", False): dim_z,
            ("perm", True): dim_z_half,
            ("refl", False): dim_qz,
            ("refl", True): dim_qz_half,
        }
    else:
        table = {
            ("perm", False): dim_z_alt,
            ("perm", True): dim_z_alt_half,
            ("refl", False): dim_qz_alt,
            ("refl", True): dim_qz_alt_half,
        }
    return table[(ctx.module, ctx.half)](n, k, label)


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


def dim_qp_irr(k, nu):
    """Dimension of the quasi partition algebra irreducible at nu, integer
    levels only: the alternating binomial transform of the stable sums."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"need an integer level k >= 0, got {k!r}")
    nu = check_partition(nu) if nu else ()
    if sum(nu) > k:
        raise ValueError(f"|{nu}| exceeds the level {k}")
    return num_syt(nu) * _alternating_transform(k, lambda j: _abacus_sum(j, 0, sum(nu)))


@dataclass(frozen=True)
class SeedAltLabel:
    """An irreducible label for an alternating group.

    base: canonical partition (lexicographically >= its conjugate).
    sign: '+', '-' for the two halves of a split label, None otherwise.
    """

    base: tuple
    sign: str | None = None

    def __post_init__(self):
        base = check_partition(self.base, "alternating label base")
        object.__setattr__(self, "base", base)
        if base != canonical_base(base):
            raise ValueError(
                f"label base {base} is not canonical; use {canonical_base(base)}"
            )
        if self.sign not in (None, "+", "-"):
            raise ValueError(f"bad sign {self.sign!r}")
        if (self.sign is not None) != splits_over_alt(base):
            raise ValueError(
                f"label {base} must carry a sign iff it is self-conjugate "
                f"of size >= 2 (got sign={self.sign!r})"
            )

    @property
    def size(self):
        return sum(self.base)

    def sort_key(self):
        return (partition_sort_key(self.base), _SIGN_ORDER[self.sign])

    def __str__(self):
        return format_alt_label(self)

    def __repr__(self):
        return f"AltLabel({self.base!r}, {self.sign!r})"


@dataclass(frozen=True)
class SeedGroupModuleContext:
    """Which algebra: group 'S' or 'A' on n letters, module 'perm' or 'refl',
    at an integer or half-integer level."""

    group: str
    n: int
    module: str
    level: Fraction

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}, got {self.group!r}")
        if self.module not in MODULES:
            raise ValueError(f"module must be one of {MODULES}, got {self.module!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "level", check_level(self.level))

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


# The dataclass repr prints the class's qualified name; this is the name it had.
SeedGroupModuleContext.__qualname__ = "GroupModuleContext"


def json_document(diagram):
    levels = []
    for i, row in enumerate(diagram.rows):
        levels.append(
            {
                "level": format_level(Fraction(i, 2)),
                "vertices": [
                    {"label": format_label(lab), "count": str(count)}
                    for lab, count in row
                ],
                "edges": [
                    {"from": format_label(src), "to": format_label(dst)}
                    for src, dst in diagram.edges[i]
                ],
                "squareSum": str(row_square_sum(row)),
            }
        )
    return {
        "pair": f"{diagram.group}:{diagram.n}",
        "module": diagram.module,
        "levels": levels,
    }


def _export_json(diagram):
    return json.dumps(json_document(diagram), indent=2) + "\n"


def _node_id(row_index, label):
    return f"{row_index}:{format_label(label)}"


def _export_dot(diagram):
    lines = [f'digraph "{diagram.group}:{diagram.n}-{diagram.module}" {{']
    lines.append("  rankdir=TB;")
    for i, row in enumerate(diagram.rows):
        level_text = format_level(Fraction(i, 2))
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="l={level_text}";')
        for lab, count in row:
            node = _node_id(i, lab)
            lines.append(f'    "{node}" [label="[{format_label(lab)}]:{count}"];')
        lines.append("  }")
    for i, row_edges in enumerate(diagram.edges):
        for src, dst in row_edges:
            lines.append(f'  "{_node_id(i - 1, src)}" -> "{_node_id(i, dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


class Dominance(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def dominance_compare(lam, mu):
    """Compare partitions of the same size in the dominance order.

    Uses partial sums, not lexicographic order: lam dominates mu when every
    prefix sum of lam is >= the matching prefix sum of mu. Unequal sizes are
    a domain error since dominance only relates partitions of equal weight.
    """
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError(
            f"dominance is only defined for equal sizes: |{lam}| != |{mu}|"
        )
    length = max(len(lam), len(mu))
    geq = leq = True
    a = b = 0
    for i in range(length):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            geq = False
        if a > b:
            leq = False
    if geq and leq:
        return Dominance.EQUAL
    if geq:
        return Dominance.GREATER
    if leq:
        return Dominance.LESS
    return Dominance.INCOMPARABLE


def _horizontal_strip_predecessors(lam, size):
    """All mu inside lam with lam/mu a horizontal strip of the given size.

    Interlacing characterization: lam[i+1] <= mu[i] <= lam[i] for all rows.
    """
    results = []
    row_count = len(lam)

    def rec(i, removed, prefix):
        if removed > size:
            return
        if i == row_count:
            if removed == size:
                mu = tuple(p for p in prefix if p > 0)
                results.append(mu)
            return
        low = lam[i + 1] if i + 1 < row_count else 0
        for mu_i in range(lam[i], low - 1, -1):
            rec(i + 1, removed + lam[i] - mu_i, prefix + (mu_i,))

    rec(0, 0, ())
    return results


@cache
def kostka(lam, content):
    """Kostka number: semistandard tableaux of shape lam and given content.

    content is any tuple of nonnegative ints summing to |lam| (entry i appears
    content[i-1] times). Computed by stripping the largest entry, which must
    occupy a horizontal strip.
    """
    lam = tuple(lam)
    content = tuple(content)
    if sum(lam) != sum(content):
        raise ValueError(f"content {content} does not sum to |{lam}| = {sum(lam)}")
    if not content:
        return 1 if not lam else 0
    total = 0
    for mu in _horizontal_strip_predecessors(lam, content[-1]):
        total += kostka(mu, content[:-1])
    return total


def _module_value(ct, n, module):
    """Character of the tensor factor on a class of the acting group,
    evaluated on its natural n letters: fixed points for the permutation
    module, fixed points minus one for the reflection module."""
    fixed = sum(1 for part in ct if part == 1) + (n - sum(ct))
    return fixed - (1 if module == "refl" else 0)


def _group_order(group, m):
    if group == "A":
        return factorial(m) // 2 if m >= 2 else 1
    return factorial(m)


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
    if ctx.group == "S":
        lam = check_partition(label)
        if sum(lam) != m:
            raise ValueError(f"expected a partition of {m}, got {lam}")
        base, sign = lam, None
    else:
        if not isinstance(label, AltLabel):
            raise ValueError(f"an A label must be an AltLabel, got {label!r}")
        base, sign = label.base, label.sign
        if sum(base) != m:
            raise ValueError(f"expected a label of size {m}, got {label}")
    order = _group_order(ctx.group, m)
    if m == 0:
        classes = [((), 1)]
    else:
        classes = conjugacy_classes(m, even_only=ctx.group == "A")
    total = 0
    for ct, size in classes:
        value = _module_value(ct, ctx.n, ctx.module)
        total += size * value**k * character_mn(base, ct)
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
