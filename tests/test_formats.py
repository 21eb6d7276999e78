import tracemalloc

import pytest

from radiomesh import Labeling, ProductParams, build_path, build_product_graph
from radiomesh.formats import (
    FormatError,
    format_graph,
    format_labeling,
    format_product_graph,
    parse_graph,
    parse_labeling,
)


def test_plain_graph_roundtrip():
    g = build_path(4)
    parsed, coords = parse_graph(format_graph(g))
    assert parsed == g
    assert coords is None


def test_product_graph_roundtrip_with_coords():
    pg = build_product_graph(ProductParams(2, 2))
    text = format_product_graph(pg)
    assert text.startswith("vertices 12\n")
    parsed, coords = parse_graph(text)
    assert parsed == pg.graph
    assert coords == {vid: pg.coord_of(vid) for vid in range(12)}


def test_product_graph_text_allocates_little_beyond_itself():
    pg = build_product_graph(ProductParams(12, 4))
    pg.graph.adjacency  # lay the adjacency out before measuring
    tracemalloc.start()
    try:
        text = format_product_graph(pg)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no per-vertex coordinate objects and no one-string-per-edge list
    assert peak < 10 * len(text)


def test_edges_are_sorted_and_normalized():
    g = build_path(3)
    lines = format_graph(g).splitlines()
    assert lines == ["vertices 3", "0 1", "1 2"]


def test_parser_ignores_plain_comments_and_blanks():
    text = "# a file\n\nvertices 2\n# anything\n0 1\n"
    parsed, _ = parse_graph(text)
    assert parsed == build_path(2)


def test_parser_rejects_missing_header():
    with pytest.raises(FormatError):
        parse_graph("0 1\n")


def test_parser_rejects_reversed_edge():
    with pytest.raises(FormatError):
        parse_graph("vertices 2\n1 0\n")


def test_labeling_roundtrip_with_span_comment():
    labeling = Labeling((0, 4, 9))
    text = format_labeling(labeling)
    assert text.endswith("# span 9\n")
    assert parse_labeling(text).labels == (0, 4, 9)


def test_labeling_span_comment_is_verified():
    with pytest.raises(FormatError, match="span"):
        parse_labeling("0 0\n1 5\n# span 7\n")


def test_labeling_rejects_gaps_and_duplicates():
    with pytest.raises(FormatError, match="^vertex ids must be exactly 0..N-1$"):
        parse_labeling("0 0\n2 1\n")
    with pytest.raises(FormatError, match="^line 2: duplicate vertex id 0$"):
        parse_labeling("0 0\n0 1\n")
    with pytest.raises(FormatError, match="^empty labeling file$"):
        parse_labeling("# span 0\n")


def test_labeling_rejects_a_second_span_comment():
    # the true span is 9, so the later comment alone would pass
    with pytest.raises(FormatError, match="^line 4: second span comment$"):
        parse_labeling("0 0\n1 9\n# span 7\n# span 9\n")
    with pytest.raises(FormatError, match="^line 3: second span comment$"):
        parse_labeling("# span 9\n0 0\n# span 9\n1 9\n")


def test_labeling_parser_reports_the_first_bad_line():
    lines = ["0 0", "  1 5", "1 -6", "2 x", "3 -1", "4", "# span", "#span 5", "# span 5", "\t2 3 "]
    expected = [
        "line 3: duplicate vertex id 1",
        "line 4: expected integers, got '2 x'",
        "line 5: negative label -1",
        "line 6: expected '<vertex_id> <label>'",
        "line 7: malformed span comment",
        "line 9: second span comment",
    ]
    # blanking each reported line keeps the numbering and exposes the next one
    for message in expected:
        with pytest.raises(FormatError) as info:
            parse_labeling("\n".join(lines))
        assert str(info.value) == message
        lines[int(message.split()[1][:-1]) - 1] = ""
    assert parse_labeling("\n".join(lines)).labels == (0, 5, 3)


@pytest.mark.parametrize(
    "text, line",
    [
        ("vertices x\n", 1),
        ("vertices 2\n0 a\n", 2),
        ("vertices 2\n# coord 1 2 x 0\n0 1\n", 2),
    ],
)
def test_graph_parser_reports_non_integer_fields_with_line(text, line):
    with pytest.raises(FormatError, match=f"line {line}: expected integers"):
        parse_graph(text)


def test_labeling_parser_reports_non_integer_fields_with_line():
    with pytest.raises(FormatError, match="line 2: expected integers"):
        parse_labeling("0 0\n1 x\n")
    with pytest.raises(FormatError, match="line 3: expected integers"):
        parse_labeling("0 0\n1 4\n# span x\n")


def test_graph_parser_rejects_coord_id_outside_graph():
    # the coord comment precedes the header, so the check runs after parsing
    with pytest.raises(FormatError, match="line 1: coord id 99"):
        parse_graph("# coord 99 0 0 0\nvertices 3\n0 1\n1 2\n")


def test_graph_parser_rejects_duplicate_coord_at_second_comment():
    text = "vertices 2\n# coord 0 0 0 0\n# coord 1 0 0 1\n# coord 0 0 0 1\n0 1\n"
    with pytest.raises(FormatError, match="line 4: second coord comment for vertex 0"):
        parse_graph(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices 2\n# coord 0 -1 7 99\n# coord 1 0 0 1\n0 1\n", "line 2: negative coordinate"),
        ("vertices 2\n# coord 0 0 0 0\n# coord 1 0 0 -1\n0 1\n", "line 3: negative coordinate"),
        (
            "vertices 2\n# coord 0 1 7 99\n# coord 1 1 7 99\n0 1\n",
            "line 3: coordinate \\(1, 7, 99\\) already belongs to vertex 0",
        ),
    ],
)
def test_graph_parser_rejects_impossible_coords(text, message):
    with pytest.raises(FormatError, match=message):
        parse_graph(text)


def test_graph_parser_rejects_partial_coords():
    with pytest.raises(FormatError, match="cover 1 of 2 vertices"):
        parse_graph("vertices 2\n# coord 0 0 0 0\n0 1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices 3\n0 5\n", "line 2: edge \\(0, 5\\) outside 0..2"),
        ("vertices 3\n-1 2\n", "line 2: edge \\(-1, 2\\) outside 0..2"),
        ("vertices 3\n0 1\n1 2\n0 1\n", "line 4: duplicate edge \\(0, 1\\)"),
        ("vertices 0\n", "line 1: vertex count must be >= 1"),
        ("# header next\nvertices -2\n", "line 2: vertex count must be >= 1"),
        ("# big\nvertices 1000000\n", "line 2: 1000000 vertices but 0 edges"),
        ("vertices 4\n0 1\n2 3\n", "line 1: 4 vertices but 2 edges"),
    ],
)
def test_graph_parser_rejects_bad_edges_and_counts_with_line(text, message):
    with pytest.raises(FormatError, match=message):
        parse_graph(text)


def test_labeling_parser_rejects_negative_label():
    with pytest.raises(FormatError, match="line 2: negative label -3"):
        parse_labeling("0 0\n1 -3\n")
