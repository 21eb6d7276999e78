import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiomesh import (
    Labeling,
    ProductParams,
    build_construction_labeling,
    build_path,
    build_product_graph,
    vertex_coord,
)
from radiomesh import formats
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
    assert coords == {vid: vertex_coord(pg.params, vid) for vid in range(12)}


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
    parsed = parse_labeling(text)
    assert parsed.labels.tolist() == [0, 4, 9]
    assert isinstance(parsed.labels, np.ndarray) and parsed.labels.dtype == np.int64


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
    assert parse_labeling("\n".join(lines)).labels.tolist() == [0, 5, 3]


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


def reference_parse_labeling(text: str) -> Labeling:
    """The labeling parser as one pass over the lines, one dict entry per label line.

    The reference that :func:`parse_labeling`'s bulk checks must agree
    with: the same labeling, or a FormatError with the same message.
    """
    entries: dict[int, int] = {}
    declared_span = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if fields[0][0] == "#":
            words = line.lstrip()[1:].split()
            if words[:1] == ["span"]:
                if declared_span is not None:
                    raise FormatError(f"line {lineno}: second span comment")
                if len(words) != 2:
                    raise FormatError(f"line {lineno}: malformed span comment")
                try:
                    declared_span = int(words[1])
                except ValueError:
                    raise FormatError(f"line {lineno}: expected integers, got {words[1]!r}") from None
            continue
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected '<vertex_id> <label>'")
        try:
            vid, label = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: expected integers, got {' '.join(fields)!r}") from None
        if vid in entries:
            raise FormatError(f"line {lineno}: duplicate vertex id {vid}")
        if label < 0:
            raise FormatError(f"line {lineno}: negative label {label}")
        entries[vid] = label
    if not entries:
        raise FormatError("empty labeling file")
    if min(entries) != 0 or max(entries) != len(entries) - 1:
        raise FormatError("vertex ids must be exactly 0..N-1")
    labeling = Labeling(tuple(entries[v] for v in range(len(entries))))
    if declared_span is not None and declared_span != labeling.span:
        raise FormatError(f"span comment says {declared_span}, labels span {labeling.span}")
    return labeling


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


# Fields and separators that reach every line rule: signs, digit
# separators, non-ASCII digits and spaces, labels past int64, "#" inside
# and at the start of fields, and every kind of line break.
_field = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(
        ["+5", "1_0", "1__0", "-0", "007", "\u0663", "\uff15", "\u00b2", str(2**63), str(10**30),
         "x", "1.5", "#", "#x", "1#", "span"]
    ),
)
_space = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000"])
_break = st.sampled_from(
    ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)


@st.composite
def _labeling_line(draw):
    kind = draw(st.sampled_from(["label", "label", "span", "comment", "fields"]))
    if kind == "label":
        words = [draw(_field), draw(_field)]
    elif kind == "span":
        words = [draw(st.sampled_from(["# span", "#span", "#\tspan"])), draw(_field)]
    elif kind == "comment":
        words = ["#" + draw(st.text(max_size=6))]
    else:
        words = draw(st.lists(_field, max_size=4))
    lead = draw(st.sampled_from(["", "", " ", "\t"]))
    return lead + draw(_space).join(words) + draw(st.sampled_from(["", "", " "]))


@st.composite
def _labeling_text(draw):
    lines = draw(st.lists(_labeling_line(), max_size=10))
    return "".join(line + draw(_break) for line in lines) + draw(st.sampled_from(["", "0 0", "# span 0"]))


@st.composite
def _mutated_file(draw):
    """A written labeling file with one line dropped, repeated or swapped, or ids shuffled."""
    labels = draw(st.lists(st.integers(0, 40), min_size=1, max_size=10))
    lines = formats.format_labeling(Labeling(tuple(labels))).splitlines(keepends=True)
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["drop", "repeat", "swap", "shuffle"]))
    if mutation == "drop":
        del lines[i]
    elif mutation == "repeat":
        lines.insert(j, lines[i])
    elif mutation == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[:-1] = draw(st.permutations(lines[:-1]))
    return "".join(lines)


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(st.text(max_size=120), _labeling_text(), _mutated_file()),
    st.sampled_from([1, 5, 64, formats._CHUNK]),
)
def test_labeling_parser_agrees_with_the_line_loop(text, chunk):
    # small pieces put the bulk checks' piece boundaries between any two lines
    with mock.patch.object(formats, "_CHUNK", chunk):
        got = _outcome(parse_labeling, text)
    assert got == _outcome(reference_parse_labeling, text)


# "<id> 0" label lines of 9 characters that fill the parser's first piece exactly
_FIRST_PIECE_LINES = -(-(formats._CHUNK + 1) // 9)


def _across_pieces(middle: str) -> str:
    """Label lines filling the first piece, then ``middle`` opening the second, then one more label line."""
    lines = "".join(f"{vid:06d} 0\n" for vid in range(_FIRST_PIECE_LINES))
    assert next(formats._line_chunks(lines + middle)) == lines
    return f"{lines}{middle}{_FIRST_PIECE_LINES} 0\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0 0 1\n1\n", "FormatError: line 1: expected '<vertex_id> <label>'"),
        ("0 0\n1 5 7\n2\n", "FormatError: line 2: expected '<vertex_id> <label>'"),
        ("0 0\n# a note\n1 5\n# span 5\n", (0, 5)),
        ("0 0\n1 5\n# span 5\n# span 5\n", "FormatError: line 4: second span comment"),
        ("0 0\r\n\r\n1 5\r\n\r\n# span 5\r\n", (0, 5)),
        ("1 5\n0 0\n", (0, 5)),
        ("0 +5\n1 1_0\n2 \u0663\n", (5, 10, 3)),
        (f"0 {2**70}\n1 0\n# span {2**70}\n", (2**70, 0)),
        ("0 0\n1 5 # note\n", "FormatError: line 2: expected '<vertex_id> <label>'"),
        ("0 0\n1 #5\n", "FormatError: line 2: expected integers, got '1 #5'"),
        ("0 0\n1 4\n1 -1\n", "FormatError: line 3: duplicate vertex id 1"),
        ("0 0\n2 3\n1 -1\n", "FormatError: line 3: negative label -1"),
        # the edges of the bulk kernel: fields of 18 and 19 digits, tabs, "\r\n" and a lone "\r"
        (f"0 {10**18 - 1}\n1 0\n# span {10**18 - 1}\n", (10**18 - 1, 0)),
        (f"0 {10**18}\n1 0\n", (10**18, 0)),
        (f"0 {10**19 - 1}\n", (10**19 - 1,)),
        ("0000000000000000000 5\n", (5,)),
        ("0\t0\r\n\t1 \t5\t\r\n#\tspan\t5\r\n", (0, 5)),
        ("0 0\r1 5\n", (0, 5)),
        ("0\r0\n1 5\n", "FormatError: line 1: expected '<vertex_id> <label>'"),
        ("0 0\n# a note\r1 5\n", (0, 5)),
        ("0 0\r1 5\r\n1 5\n", "FormatError: line 3: duplicate vertex id 1"),
        ("0 0\n# span\x0b5\n", "FormatError: line 2: malformed span comment"),
        # blank lines and comments that open the parser's second piece
        pytest.param(_across_pieces("\n\n"), (0,) * (_FIRST_PIECE_LINES + 1), id="blank-lines-open-a-piece"),
        pytest.param(_across_pieces("\r\n"), (0,) * (_FIRST_PIECE_LINES + 1), id="crlf-blank-line-opens-a-piece"),
        pytest.param(_across_pieces("# a note\n"), (0,) * (_FIRST_PIECE_LINES + 1), id="comment-opens-a-piece"),
        pytest.param(
            _across_pieces("# span 0\n# span 0\n"),
            f"FormatError: line {_FIRST_PIECE_LINES + 2}: second span comment",
            id="second-span-comment-in-a-later-piece",
        ),
    ],
)
def test_labeling_parser_edge_cases(text, expected):
    outcome = _outcome(parse_labeling, text)
    assert outcome == _outcome(reference_parse_labeling, text)
    if isinstance(outcome, str):
        assert outcome == expected
    else:
        assert outcome.labels.tolist() == list(expected)


@pytest.mark.parametrize(
    "text, in_bulk",
    [
        ("0\t0\r\n\n 1  5 \r\n# note\n\t# span 5\r\n", False),
        ("1 5\n0 0\n", False),
        # the last line is the only comment the kernel reads
        ("0\t0\r\n1\t5\r\n#\tspan 5\r\n", False),
        ("0\t0\n1\t5\n#\tspan 5\n", True),
        ("0 0\n1 5\n# note\n", True),
        ("0 0\n1 5\n# span 5", True),
        ("0 0\n# note\n1 5\n", False),
        ("0 0\n# span\x0b5\n", False),
        ("0 0\n# span 5\n1 5\n", False),
        (f"0 {10**18 - 1}\n", True),
        (f"0 {10**18}\n", False),
        ("0 +5\n", False),
        ("0 1_0\n", False),
        ("0 \u0663\n", False),
        ("0 0\n# \u00e9\n", False),
        ("0 0\r1 5\n", False),
        ("0 0\n\x0c", False),
        ("0 0 # note\n", False),
        ("0 0\n0 1\n", False),
        ("0 0\n2 1\n", False),
        ("# span 0\n", False),
    ],
)
def test_labeling_kernel_takes_its_alphabet_and_declines_the_rest(text, in_bulk):
    assert (formats._parse_in_bulk(text) is not None) == in_bulk
    assert _outcome(parse_labeling, text) == _outcome(reference_parse_labeling, text)


def test_read_text_hands_the_kernel_no_carriage_return(tmp_path):
    # the kernel takes "\n" line ends only: a "\r\n" file reaches it through read_text
    path = tmp_path / "labeling.txt"
    raw = b"0\t0\r\n1\t5\r\n#\tspan 5\r\n"
    path.write_bytes(raw)
    text = formats.read_text(path)
    assert "\r" not in text
    assert formats._parse_in_bulk(text) is not None
    assert parse_labeling(text) == parse_labeling(raw.decode())


def reference_format_labeling(labeling: Labeling) -> str:
    """The labeling writer as one f-string per vertex, joined once."""
    lines = [f"{vid} {label}" for vid, label in enumerate(labeling.labels)]
    lines.append(f"# span {labeling.span}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(0, 10**18 - 1), st.integers(0, 2**70)), min_size=1, max_size=50),
    st.sampled_from([1, 5, 64]),
    st.sampled_from([3, formats._BLOCK]),
)
@example([0, 5, 3], 1, 3)  # int64
@example([2**70, 0, 2**63], 1, 3)  # object
def test_labeling_round_trip(labels, chunk, block):
    labeling = Labeling(tuple(labels))
    # int64 when every label fits, else exact Python ints
    assert labeling.labels.dtype == (np.int64 if max(labels) < 2**63 else object)
    again = Labeling(tuple(labeling.labels.tolist()))
    assert again == labeling and hash(again) == hash(labeling)
    with mock.patch.object(formats, "_BLOCK", block):
        text = format_labeling(labeling)
    assert text == reference_format_labeling(labeling)
    with mock.patch.object(formats, "_CHUNK", chunk):
        assert parse_labeling(text) == labeling
        # the writer's text takes the kernel whenever its labels fit in 18 digits
        assert (formats._parse_in_bulk(text) is None) == (max(labels) >= 10**18)


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("1499 x", "line 1500: expected integers, got '1499 x'"),
        ("12 7", "line 1500: duplicate vertex id 12"),
        ("1499 7 7", "line 1500: expected '<vertex_id> <label>'"),
    ],
)
@pytest.mark.parametrize("chunk", [64, formats._CHUNK])
def test_labeling_parser_names_one_bad_line_in_a_full_size_file(bad_line, message, chunk):
    built = build_construction_labeling(ProductParams(19, 5))
    lines = formats.format_labeling(built.greedy).splitlines()
    assert len(lines) == 2167
    lines[1499] = bad_line
    with mock.patch.object(formats, "_CHUNK", chunk):
        with pytest.raises(FormatError) as info:
            parse_labeling("\n".join(lines) + "\n")
    assert str(info.value) == message
