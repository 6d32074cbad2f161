import json
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import golden
import pytest

from centdim.bratteli import (
    BratteliDiagram,
    build_diagram,
    enumerate_paths,
    export,
    format_label,
)
from centdim.branch import restrict_alt, restrict_sym
from centdim.dims import GroupModuleContext, block_dimension, dim_z_algebra


def rendered_rows(diagram):
    return {
        str(level): [(format_label(lab), count) for lab, count in diagram.row(level)]
        for level in diagram.levels()
    }


def test_golden_towers():
    for group, n, module, table in golden.TOWERS:
        top = Fraction(len(table["totals"]) - 1, 2)
        diagram = build_diagram(group, n, module, top)
        assert rendered_rows(diagram) == table["rows"], (group, n, module)
        totals = [diagram.square_sum(level) for level in diagram.levels()]
        assert totals == table["totals"], (group, n, module)


def test_counts_are_block_dimensions():
    for group in ("S", "A"):
        for module in ("perm", "refl"):
            for n in (4, 5, 6):
                diagram = build_diagram(group, n, module, Fraction(4))
                for level in diagram.levels():
                    ctx = GroupModuleContext(group, n, module, level)
                    for lab, count in diagram.row(level):
                        assert count == block_dimension(ctx, lab), (
                            group,
                            module,
                            n,
                            level,
                            lab,
                        )
                    assert diagram.square_sum(level) == dim_z_algebra(ctx)


def test_edges_follow_branching():
    for group, n, module in (
        ("S", 5, "perm"), ("A", 5, "perm"), ("S", 5, "refl"), ("A", 5, "refl"),
    ):
        diagram = build_diagram(group, n, module, Fraction(3))
        restriction = restrict_sym if group == "S" else restrict_alt
        for i in range(1, len(diagram.rows)):
            above = [lab for lab, _ in diagram.rows[i - 1]]
            below = [lab for lab, _ in diagram.rows[i]]
            expected = set()
            for src in above:
                for dst in below:
                    # down-steps restrict the upper label, up-steps the lower
                    joined = (
                        dst in restriction(src)
                        if i % 2 == 1
                        else src in restriction(dst)
                    )
                    if joined:
                        expected.add((src, dst))
            assert set(diagram.edges[i]) == expected, (group, n, module, i)


def test_path_counts_match_subscripts():
    for group, sizes in (("S", (2, 3, 4, 5)), ("A", (4, 5))):
        for n in sizes:
            diagram = build_diagram(group, n, "perm", Fraction(3))
            for level in diagram.levels():
                for lab, count in diagram.row(level):
                    assert len(enumerate_paths(diagram, level, lab)) == count, (
                        group,
                        n,
                        level,
                        lab,
                    )


def test_paths_are_edge_walks():
    diagram = build_diagram("S", 4, "perm", Fraction(3))
    paths = enumerate_paths(diagram, Fraction(3), (2, 2))
    assert len(paths) == 5
    for path in paths:
        assert path[0] == (4,)
        assert path[-1] == (2, 2)
        for i in range(1, len(path)):
            assert (path[i - 1], path[i]) in diagram.edges[i]
    assert enumerate_paths(diagram, 0, (4,)) == [((4,),)]


def test_path_memory_is_bounded_by_the_answer():
    # Extending paths to every vertex of every row peaks near 40 MB here;
    # walking only the ancestors of (6) keeps the peak near the answer's size.
    diagram = build_diagram("S", 6, "perm", 8)
    tracemalloc.start()
    try:
        paths = enumerate_paths(diagram, 8, (6,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(paths) == diagram.vertex_count(8, (6,)) == 4111
    assert peak < 10 * 2**20, peak


def test_zero_count_vertices_are_kept():
    diagram = build_diagram("S", 6, "refl", Fraction(2))
    assert diagram.vertex_count(1, (6,)) == 0
    assert ((6,), 0) in diagram.row(1)


def test_row_and_level_access():
    diagram = build_diagram("S", 4, "perm", Fraction(3, 2))
    assert diagram.levels() == [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    assert diagram.row(Fraction(1, 2)) == [((3,), 1)]
    with pytest.raises(ValueError):
        diagram.row(Fraction(2))
    with pytest.raises(ValueError):
        diagram.row(Fraction(1, 3))
    with pytest.raises(ValueError):
        diagram.vertex_count(1, (2, 2))
    with pytest.raises(ValueError):
        enumerate_paths(diagram, 1, (2, 2))


def test_build_rejects_degenerate_towers():
    with pytest.raises(ValueError):
        build_diagram("S", 1, "perm", Fraction(2))
    with pytest.raises(ValueError):
        build_diagram("A", 3, "perm", Fraction(2))
    with pytest.raises(ValueError):
        build_diagram("X", 4, "perm", Fraction(2))
    with pytest.raises(ValueError):
        build_diagram("S", 4, "standard", Fraction(2))


def test_build_refuses_a_non_integer_n_at_every_level():
    for group in ("S", "A"):
        for n in (8.0, Fraction(8), Decimal(8)):
            for top in (Fraction(i, 2) for i in range(41)):
                with pytest.raises(ValueError) as info:
                    build_diagram(group, n, "perm", top)
                assert str(info.value) == f"not a valid partition: ({n!r},)"


def test_tower_cap_counts_every_vertex(monkeypatch):
    # an S perm row holds exactly the stable-range labels its count sums, so
    # a cap equal to the tower's vertex total admits it and one less refuses it
    for n, top in ((2, Fraction(5)), (6, Fraction(7, 2)), (9, Fraction(12))):
        monkeypatch.undo()
        vertices = sum(map(len, build_diagram("S", n, "perm", top).rows))
        monkeypatch.setattr("centdim.dims.MAX_STIRLING_CELLS", vertices)
        build_diagram("S", n, "perm", top)
        monkeypatch.setattr("centdim.dims.MAX_STIRLING_CELLS", vertices - 1)
        with pytest.raises(ValueError) as info:
            build_diagram("S", n, "perm", top)
        assert str(info.value).endswith(
            f"has {vertices} candidate vertices, above the cap of {vertices - 1}"
        )


def test_text_export():
    diagram = build_diagram("S", 4, "perm", Fraction(2))
    text = export(diagram, "text")
    lines = text.splitlines()
    assert lines[0] == "l=0    [4]:1 | 1"
    assert lines[3] == "l=3/2  [3]:2 [2,1]:1 | 5"
    assert lines[4] == "l=2    [4]:2 [3,1]:3 [2,2]:1 [2,1,1]:1 | 15"
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        export(diagram, "svg")


def test_json_export():
    diagram = build_diagram("A", 4, "perm", Fraction(3, 2))
    doc = json.loads(export(diagram, "json"))
    assert doc["pair"] == "A:4"
    assert doc["module"] == "perm"
    assert [entry["level"] for entry in doc["levels"]] == ["0", "1/2", "1", "3/2"]
    last = doc["levels"][-1]
    assert last["vertices"] == [
        {"label": "3", "count": "2"},
        {"label": "2,1+", "count": "1"},
        {"label": "2,1-", "count": "1"},
    ]
    assert last["squareSum"] == "6"
    assert {"from": "3,1", "to": "2,1+"} in last["edges"]
    assert doc["levels"][0]["edges"] == []


def test_dot_export_roundtrips():
    diagram = build_diagram("S", 4, "perm", Fraction(2))
    dot = export(diagram, "dot")
    node_re = re.compile(r'^\s*"(\d+):([^"]+)" \[label="\[([^]]+)\]:(\d+)"\];$')
    edge_re = re.compile(r'^\s*"(\d+):([^"]+)" -> "(\d+):([^"]+)";$')
    rows = {}
    arrows = []
    for line in dot.splitlines():
        node = node_re.match(line)
        if node:
            idx, ident, shown, count = node.groups()
            assert ident == shown
            rows.setdefault(int(idx), []).append((shown, int(count)))
        edge = edge_re.match(line)
        if edge:
            src_idx, src, dst_idx, dst = edge.groups()
            assert int(dst_idx) == int(src_idx) + 1
            arrows.append((int(dst_idx), src, dst))
    assert len(rows) == len(diagram.rows)
    for i, row in enumerate(diagram.rows):
        assert rows[i] == [(format_label(lab), c) for lab, c in row]
    expected = [
        (i, format_label(src), format_label(dst))
        for i in range(len(diagram.edges))
        for src, dst in diagram.edges[i]
    ]
    assert arrows == expected


def test_diagram_is_plain_data():
    diagram = build_diagram("S", 4, "perm", Fraction(1))
    clone = BratteliDiagram(
        diagram.group,
        diagram.n,
        diagram.module,
        diagram.max_level,
        diagram.rows,
        diagram.edges,
    )
    assert clone.row(1) == diagram.row(1)
