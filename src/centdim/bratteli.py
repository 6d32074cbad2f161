"""Bratteli diagrams for the tensor-power towers.

Rows sit at levels 0, 1/2, 1, 3/2, ...; row 0 holds the single label (n)
(its folded image for the alternating group) and each half step restricts
to the subgroup on n-1 letters while each full step induces back up. All
edges carry multiplicity 1, so permutation-module subscripts follow the
Pascal rule: a vertex count is the sum of the counts of its neighbors one
row up.

Reflection-module (quasi) subscripts use the same vertex and edge structure
but a corrected rule on integer rows: Pascal sum minus the same label's
count two rows up (0 when absent). Those subscripts are not path counts,
and vertices whose count reaches 0 are kept in the diagram.

Building costs one branching call per vertex: each label of a row is
restricted once (half step) or induced once (integer step), and the
neighbor lists and counts of the row below are collected from those
calls in one sweep.
"""

import json
from fractions import Fraction

from .branch import (
    AltLabel,
    format_label,
    induce_alt,
    induce_sym,
    restrict_alt,
    restrict_sym,
    restrict_sym_to_alt,
)
from .dims import check_level, format_level
from .young import partition_sort_key


def _sort_key(label):
    if isinstance(label, AltLabel):
        return label.sort_key()
    return (partition_sort_key(label), 0)


class BratteliDiagram:
    """Levels, labeled vertices with subscripts, and edges between rows.

    rows[i] is the row at level i/2 as a list of (label, count) in display
    order; edges[i] connects row i-1 to row i as (label_above, label_below)
    pairs, with edges[0] empty.
    """

    def __init__(self, group, n, module, max_level, rows, edges):
        self.group = group
        self.n = n
        self.module = module
        self.max_level = max_level
        self.rows = rows
        self.edges = edges

    def levels(self):
        return [Fraction(i, 2) for i in range(len(self.rows))]

    def _row_index(self, level):
        level = Fraction(level)
        idx = int(2 * level)
        if Fraction(idx, 2) != level or not 0 <= idx < len(self.rows):
            raise ValueError(f"no row at level {format_level(level)}")
        return idx

    def row(self, level):
        return list(self.rows[self._row_index(level)])

    def vertex_count(self, level, label):
        for lab, count in self.rows[self._row_index(level)]:
            if lab == label:
                return count
        raise ValueError(
            f"no vertex {format_label(label)} at level {format_level(level)}"
        )

    def square_sum(self, level):
        return row_square_sum(self.rows[self._row_index(level)])


def row_square_sum(row):
    """Sum of the squared counts of a row of (label, count) pairs."""
    return sum(c * c for _, c in row)


def _restriction(group, label):
    if group == "S":
        return restrict_sym(label)
    return restrict_alt(label)


def _inductions(group, label, to_size):
    if group == "S":
        return induce_sym(label, to_size)
    return induce_alt(label, to_size)


def build_diagram(group, n, module, max_level):
    """Build the diagram for (group on n letters, module) up to max_level.

    Requires n >= 2 for 'S' and n >= 4 for 'A' (smaller alternating towers
    degenerate; their dimensions are still available through dims). Counts
    follow the Pascal rule, with the quasi correction on integer rows for
    the reflection module. Each vertex is restricted or induced once, when
    the row below it is built.
    """
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
        above_counts = dict(rows[idx - 1])
        half_row = idx % 2 == 1
        # Each label above is branched once. Rows are kept in sort-key
        # order, so every vertex collects its neighbors in row order, which
        # on an integer row is also the order its restriction lists them in.
        neighbors = {}
        for lab in above_counts:
            if half_row:
                below = _restriction(group, lab)
            else:
                below = _inductions(group, lab, n)
            for vert in below:
                neighbors.setdefault(vert, []).append(lab)
        two_up = dict(rows[idx - 2]) if module == "refl" and not half_row else {}

        row = []
        row_edges = []
        for vert in sorted(neighbors, key=_sort_key):
            labs = neighbors[vert]
            count = sum(above_counts[lab] for lab in labs) - two_up.get(vert, 0)
            if count < 0:
                raise RuntimeError(
                    f"negative count for {format_label(vert)} at row {idx}"
                )
            row.append((vert, count))
            row_edges.extend((lab, vert) for lab in labs)
        rows.append(row)
        edges.append(row_edges)

    return BratteliDiagram(group, n, module, max_level, rows, edges)


def enumerate_paths(diagram, level, label):
    """All root-to-vertex paths, each a tuple of labels row by row.

    For permutation-module diagrams the number of paths equals the vertex
    subscript; for reflection-module diagrams it does not (the quasi
    subscripts are not path counts) but the graph walk is still defined.

    Only the target's ancestors are walked: a backward pass over the edges
    collects, row by row, the vertices that reach the target, and the
    forward sweep extends a path along an edge only when the edge's head is
    one of them. The paths into a vertex depend only on the paths into its
    ancestors, so the list and its order are those of a sweep over every
    vertex, at a fraction of the partial paths.
    """
    idx = diagram._row_index(level)
    if all(lab != label for lab, _ in diagram.rows[idx]):
        raise ValueError(
            f"no vertex {format_label(label)} at level {format_level(Fraction(level))}"
        )
    ancestors = [None] * (idx + 1)
    ancestors[idx] = {label}
    for i in range(idx, 0, -1):
        below = ancestors[i]
        ancestors[i - 1] = {src for src, dst in diagram.edges[i] if dst in below}
    paths = {diagram.rows[0][0][0]: [()]}
    for i in range(1, idx + 1):
        keep = ancestors[i]
        nxt = {}
        for src, dst in diagram.edges[i]:
            if dst in keep and src in paths:
                nxt.setdefault(dst, []).extend(
                    path + (src,) for path in paths[src]
                )
        paths = nxt
    return [path + (label,) for path in paths.get(label, [])]


def export(diagram, fmt):
    """Render the diagram as 'text', 'json', or 'dot'."""
    if fmt == "text":
        return _export_text(diagram)
    if fmt == "json":
        return _export_json(diagram)
    if fmt == "dot":
        return _export_dot(diagram)
    raise ValueError(f"unknown export format {fmt!r}")


def _export_text(diagram):
    lines = []
    prefixes = [f"l={format_level(lv)}" for lv in diagram.levels()]
    width = max(len(p) for p in prefixes) + 2
    for prefix, row in zip(prefixes, diagram.rows):
        cells = " ".join(f"[{format_label(lab)}]:{count}" for lab, count in row)
        total = row_square_sum(row)
        lines.append(f"{prefix.ljust(width)}{cells} | {total}")
    return "\n".join(lines) + "\n"


def _export_json(diagram):
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
    doc = {
        "pair": f"{diagram.group}:{diagram.n}",
        "module": diagram.module,
        "levels": levels,
    }
    return json.dumps(doc, indent=2) + "\n"


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
