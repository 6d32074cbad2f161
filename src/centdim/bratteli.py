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

Building costs one branching call per distinct label per process: each
label of a row is restricted (half step) or induced (integer step) through
a memo, and the neighbor lists and counts of the row below are collected
from those results in one sweep. A label's neighbors depend only on the
label (and, for an induction, on n), not on the module, the top level or
the build, so the perm and refl towers of a pair and every deeper tower
reuse them. The memo only ever sees labels reached from a root that
passed check_partition: (8.0,) == (8,) and both hash alike, so an
unchecked root could read the integer tower's entries.

Every export formats each distinct label once. The JSON export is written
directly, line for line in the layout json.dumps(doc, indent=2) gives the
document: json.dumps with indent runs the pure-Python encoder, which cost
several times the rest of an export.
"""

from fractions import Fraction
from functools import cache

from .branch import (
    AltLabel,
    format_label,
    induce_alt,
    induce_sym,
    restrict_alt,
    restrict_sym,
    restrict_sym_to_alt,
)
from .dims import check_labels, check_level, check_scale, check_tower, format_level
from .young import check_partition, partition_sort_key


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


# The branching rules are read from this module's globals on a miss, so a
# caller that rebinds them here (a tracer, say) sees every miss. Results are
# tuples: a cached value is shared by every later build.
@cache
def _restriction(group, label):
    return tuple(restrict_sym(label) if group == "S" else restrict_alt(label))


@cache
def _inductions(group, label, to_size):
    return tuple(induce_sym(label, to_size) if group == "S" else induce_alt(label, to_size))


def build_diagram(group, n, module, max_level):
    """Build the diagram for (group on n letters, module) up to max_level.

    Requires n >= 2 for 'S' and n >= 4 for 'A' (smaller alternating towers
    degenerate; their dimensions are still available through dims). Counts
    follow the Pascal rule, with the quasi correction on integer rows for
    the reflection module. Each distinct label is restricted or induced
    once per process, when the first row below it is built; later rows and
    builds read the memo. Rows k and k + 1/2 hold the stable-range labels
    of dims.decompose; a top row above the label cap, or rows above the
    Stirling cell cap in all (see limits), are refused before any row is built.
    The root is built before any cap reads n, so a non-integer n is refused
    as a partition at every level, 0 included.
    """
    if group not in ("S", "A"):
        raise ValueError(f"group must be 'S' or 'A', got {group!r}")
    if module not in ("perm", "refl"):
        raise ValueError(f"module must be 'perm' or 'refl', got {module!r}")
    minimum = 2 if group == "S" else 4
    if isinstance(n, int) and n < minimum:  # any other n is refused as a partition
        raise ValueError(f"group {group} needs n >= {minimum}, got {n}")
    if group == "S":
        root = check_partition((n,))
        sort_key = partition_sort_key
    else:
        (root,) = restrict_sym_to_alt((n,))
        sort_key = AltLabel.sort_key
    max_level = check_level(max_level)
    check_scale(max_level, n)
    check_labels(max_level, n)
    check_tower(max_level, n)
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
        for vert in sorted(neighbors, key=sort_key):
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
    diagram.vertex_count(level, label)  # raises when the row lacks the vertex
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
    names = _label_texts(diagram, format_label)
    lines = []
    prefixes = [f"l={format_level(lv)}" for lv in diagram.levels()]
    width = max(len(p) for p in prefixes) + 2
    for prefix, row in zip(prefixes, diagram.rows):
        cells = " ".join(f"[{names[lab]}]:{count}" for lab, count in row)
        total = row_square_sum(row)
        lines.append(f"{prefix.ljust(width)}{cells} | {total}")
    return "\n".join(lines) + "\n"


def _export_json(diagram):
    """The text json.dumps(doc, indent=2) gives the tower's document, with
    "pair", "module" and, per row, "level", "vertices", "edges" and
    "squareSum"; counts and square sums are strings."""
    import json

    quoted = _label_texts(diagram, lambda label: json.dumps(format_label(label)))
    levels = []
    for i, row in enumerate(diagram.rows):
        vertices = ",\n".join(
            [
                f'        {{\n          "label": {quoted[lab]},\n'
                f'          "count": "{count}"\n        }}'
                for lab, count in row
            ]
        )
        edges = ",\n".join(
            [
                f'        {{\n          "from": {quoted[src]},\n'
                f'          "to": {quoted[dst]}\n        }}'
                for src, dst in diagram.edges[i]
            ]
        )
        levels.append(
            "    {\n"
            f'      "level": {json.dumps(format_level(Fraction(i, 2)))},\n'
            f'      "vertices": {_json_list(vertices)},\n'
            f'      "edges": {_json_list(edges)},\n'
            f'      "squareSum": "{row_square_sum(row)}"\n'
            "    }"
        )
    pair = json.dumps(f"{diagram.group}:{diagram.n}")
    levels = _json_list(",\n".join(levels), "  ")
    return (
        "{\n"
        f'  "pair": {pair},\n'
        f'  "module": {json.dumps(diagram.module)},\n'
        f'  "levels": {levels}\n'
        "}\n"
    )


def _label_texts(diagram, render):
    """Label -> render(label) for each distinct label of the diagram, so that
    an export formats each label once however many rows and edges show it."""
    labels = {lab for row in diagram.rows for lab, _ in row}
    return {lab: render(lab) for lab in labels}


def _json_list(items, indent="      "):
    """A JSON array of already-written items, closed at the given indent."""
    return f"[\n{items}\n{indent}]" if items else "[]"


def _export_dot(diagram):
    names = _label_texts(diagram, format_label)
    lines = [f'digraph "{diagram.group}:{diagram.n}-{diagram.module}" {{']
    lines.append("  rankdir=TB;")
    for i, row in enumerate(diagram.rows):
        level_text = format_level(Fraction(i, 2))
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="l={level_text}";')
        for lab, count in row:
            name = names[lab]
            lines.append(f'    "{i}:{name}" [label="[{name}]:{count}"];')
        lines.append("  }")
    for i, row_edges in enumerate(diagram.edges):
        for src, dst in row_edges:
            lines.append(f'  "{i - 1}:{names[src]}" -> "{i}:{names[dst]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
