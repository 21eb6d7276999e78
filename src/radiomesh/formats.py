"""Text formats for graphs and labelings.

Graph files: UTF-8 lines, ``#`` starts a comment, first non-comment line
``vertices N``, then one ``u v`` edge per line with 0-based decimal ids,
u < v, sorted lexicographically. Product graphs additionally carry one
``# coord <id> <row> <col> <star>`` comment per vertex.

Labeling files: one ``<vertex_id> <label>`` line per vertex, sorted by
id, plus a trailing ``# span <S>`` comment that is re-checked on parse;
a second span comment is an error.

A file that breaks these rules raises :class:`FormatError`, naming the
offending line when there is one.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, NoReturn

from .graphs import Graph
from .labeling import Labeling
from .product import ProductGraph, VertexCoord


class FormatError(ValueError):
    """The text does not follow the expected file format."""


def format_graph(g: Graph, coords: Iterable[str] = ()) -> str:
    """Graph file text; ``coords`` are its ``# coord`` lines, without newlines."""
    parts = [f"vertices {g.num_vertices}\n"]
    parts.extend(f"{line}\n" for line in coords)
    # one string per vertex holding all its edge lines, not one per edge
    parts.extend("".join(f"{u} {v}\n" for v in nbrs if u < v) for u, nbrs in enumerate(g.adjacency))
    return "".join(parts)


def format_product_graph(pg: ProductGraph) -> str:
    m, stars = pg.params.m, pg.params.n + 1

    def coords():
        for vid in range(pg.graph.num_vertices):
            cell, star = divmod(vid, stars)
            row, col = divmod(cell, m)
            yield f"# coord {vid} {row} {col} {star}"

    return format_graph(pg.graph, coords())


def _not_integers(fields: list[str], lineno: int) -> FormatError:
    return FormatError(f"line {lineno}: expected integers, got {' '.join(fields)!r}")


def _ints(fields: list[str], lineno: int) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise _not_integers(fields, lineno) from None


def parse_graph(text: str) -> tuple[Graph, dict[int, VertexCoord] | None]:
    """Parse a graph file; returns the graph and coordinates when present.

    Coordinates are all-or-nothing: either every vertex has exactly one
    coord comment or none has. Coordinates are non-negative and distinct.
    Every consumer needs a connected graph, so a file with fewer than
    N - 1 edges is rejected.
    """
    num_vertices: int | None = None
    header_line = 0
    coords: dict[int, VertexCoord] = {}
    coord_lines: dict[int, int] = {}
    coord_owner: dict[VertexCoord, int] = {}
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if fields[:1] == ["coord"]:
                if len(fields) != 5:
                    raise FormatError(f"line {lineno}: malformed coord comment")
                vid, row, col, star = _ints(fields[1:], lineno)
                if vid in coords:
                    raise FormatError(f"line {lineno}: second coord comment for vertex {vid}")
                if min(row, col, star) < 0:
                    raise FormatError(f"line {lineno}: negative coordinate ({row}, {col}, {star})")
                coord = VertexCoord(row, col, star)
                if coord in coord_owner:
                    raise FormatError(
                        f"line {lineno}: coordinate ({row}, {col}, {star}) "
                        f"already belongs to vertex {coord_owner[coord]}"
                    )
                coords[vid] = coord
                coord_lines[vid] = lineno
                coord_owner[coord] = vid
            continue
        fields = line.split()
        if num_vertices is None:
            if len(fields) != 2 or fields[0] != "vertices":
                raise FormatError(f"line {lineno}: expected 'vertices N' header")
            (num_vertices,) = _ints(fields[1:], lineno)
            if num_vertices < 1:
                raise FormatError(f"line {lineno}: vertex count must be >= 1, got {num_vertices}")
            header_line = lineno
            continue
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'u v' edge line")
        u, v = _ints(fields, lineno)
        if u >= v:
            raise FormatError(f"line {lineno}: edges must satisfy u < v")
        if u < 0 or v >= num_vertices:
            raise FormatError(f"line {lineno}: edge ({u}, {v}) outside 0..{num_vertices - 1}")
        if (u, v) in edges:
            raise FormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        edges.add((u, v))
    if num_vertices is None:
        raise FormatError("missing 'vertices N' header")
    # checked before anything is allocated per vertex: a header alone
    # cannot make the program reserve memory for N vertices
    if num_vertices > len(edges) + 1:
        raise FormatError(
            f"line {header_line}: {num_vertices} vertices but {len(edges)} edges; "
            "a connected graph needs at least N - 1"
        )
    for vid, lineno in coord_lines.items():
        if not 0 <= vid < num_vertices:
            raise FormatError(f"line {lineno}: coord id {vid} outside 0..{num_vertices - 1}")
    if coords and len(coords) != num_vertices:
        raise FormatError(f"coord comments cover {len(coords)} of {num_vertices} vertices")
    graph = Graph.from_edges(num_vertices, edges)
    return graph, (coords or None)


def format_labeling(labeling: Labeling) -> str:
    lines = [f"{vid} {label}" for vid, label in enumerate(labeling.labels)]
    lines.append(f"# span {labeling.span}")
    return "\n".join(lines) + "\n"


# characters per bulk step of the labeling parser: bounds its temporaries
_CHUNK = 1 << 12


def _line_chunks(text: str) -> Iterator[str]:
    """Pieces of ``text`` of about :data:`_CHUNK` characters, cut after a newline.

    A newline always ends a line, so no line is split between pieces.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def _label_columns(text: str) -> tuple[list[int], list[int], int | None] | None:
    """Vertex ids, labels and declared span of a labeling file, in file order.

    Checked in bulk, a piece at a time: one field count per line and one
    flat list of the piece's fields, once the comment lines are taken
    out of pieces holding a ``#``. Returns None when a line breaks a
    line rule, apart from a repeated id, which the caller checks.
    """
    vids: list[int] = []
    labels: list[int] = []
    spans = []  # the words after the "#" of each span comment
    for chunk in _line_chunks(text):
        lines = chunk.splitlines()
        if "#" in chunk:
            comments = [line.lstrip() for line in lines if "#" in line]
            if any(line[:1] != "#" for line in comments):
                return None  # a "#" in a label line, whose fields are then not integers
            spans += [words for words in (line[1:].split() for line in comments) if words[:1] == ["span"]]
            lines = [line for line in lines if "#" not in line]
            chunk = "\n".join(lines)
        # the lines left are blank or hold two fields each
        counts = list(map(len, map(str.split, lines)))
        if counts.count(0) + counts.count(2) < len(counts):
            return None
        fields = chunk.split()  # line breaks are whitespace too
        try:
            vids += map(int, fields[0::2])
            labels += map(int, fields[1::2])
        except ValueError:
            return None
    if len(spans) > 1 or any(len(words) != 2 for words in spans):
        return None
    try:
        declared_span = int(spans[0][1]) if spans else None
    except ValueError:
        return None
    if min(labels, default=0) < 0:
        return None
    return vids, labels, declared_span


def _raise_first_bad_line(lines: list[str]) -> NoReturn:
    """Raise the error of the first line that breaks a line rule of labeling files."""
    seen: set[int] = set()
    span_seen = False
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if fields[0][0] == "#":
            words = line.lstrip()[1:].split()
            if words[:1] == ["span"]:
                if span_seen:
                    raise FormatError(f"line {lineno}: second span comment")
                if len(words) != 2:
                    raise FormatError(f"line {lineno}: malformed span comment")
                _ints(words[1:], lineno)
                span_seen = True
            continue
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected '<vertex_id> <label>'")
        vid, label = _ints(fields, lineno)
        if vid in seen:
            raise FormatError(f"line {lineno}: duplicate vertex id {vid}")
        if label < 0:
            raise FormatError(f"line {lineno}: negative label {label}")
        seen.add(vid)
    raise AssertionError("the bulk checks rejected a labeling file with no bad line")


def parse_labeling(text: str) -> Labeling:
    """Parse a labeling file, re-checking the span comment when present.

    Line rules: a line is blank, a comment (its first field starts with
    ``#``) or ``<vertex_id> <label>`` with integer fields; every vertex
    id appears once, labels are non-negative, and at most one
    ``# span <S>`` comment is allowed. A file that breaks one raises
    :class:`FormatError` naming the first bad line. The whole file must
    then hold at least one label, ids exactly 0..N-1 and, when declared,
    the true span.

    The line rules are checked in bulk by :func:`_label_columns`; the
    lines are walked one by one, by :func:`_raise_first_bad_line`, only
    to name the first bad line of a file those checks reject.
    """
    columns = _label_columns(text)
    if columns is None:
        _raise_first_bad_line(text.splitlines())
    vids, labels, declared_span = columns
    ordered = sorted(vids)
    if ordered != list(range(len(ordered))):
        if len(set(ordered)) < len(ordered):
            _raise_first_bad_line(text.splitlines())  # a repeated id
        raise FormatError("vertex ids must be exactly 0..N-1")
    if not vids:
        raise FormatError("empty labeling file")
    if vids != ordered:
        labels = [label for _, label in sorted(zip(vids, labels))]
    labeling = Labeling(tuple(labels))
    if declared_span is not None and declared_span != labeling.span:
        raise FormatError(
            f"span comment says {declared_span}, labels span {labeling.span}"
        )
    return labeling


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def read_text(path: str | Path) -> str:
    return Path(path).read_text(encoding="utf-8")
