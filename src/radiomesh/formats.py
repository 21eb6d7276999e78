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
from typing import Iterable

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


def parse_labeling(text: str) -> Labeling:
    """Parse a labeling file, re-checking the span comment when present.

    One pass over the lines, one ``split()`` and two ``int()`` calls per
    label line. Every vertex id appears once, ids are exactly 0..N-1,
    labels are non-negative, and at most one ``# span`` comment is
    allowed; a bad line raises :class:`FormatError` naming the first
    such line.
    """
    entries: dict[int, int] = {}
    declared_span: int | None = None
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
                (declared_span,) = _ints(words[1:], lineno)
            continue
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected '<vertex_id> <label>'")
        try:
            vid, label = int(fields[0]), int(fields[1])
        except ValueError:
            raise _not_integers(fields, lineno) from None
        if vid in entries:
            raise FormatError(f"line {lineno}: duplicate vertex id {vid}")
        if label < 0:
            raise FormatError(f"line {lineno}: negative label {label}")
        entries[vid] = label
    if not entries:
        raise FormatError("empty labeling file")
    # the ids are distinct, so N of them in 0..N-1 are each id once
    if min(entries) != 0 or max(entries) != len(entries) - 1:
        raise FormatError("vertex ids must be exactly 0..N-1")
    labeling = Labeling(tuple(map(entries.__getitem__, range(len(entries)))))
    if declared_span is not None and declared_span != labeling.span:
        raise FormatError(
            f"span comment says {declared_span}, labels span {labeling.span}"
        )
    return labeling


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def read_text(path: str | Path) -> str:
    return Path(path).read_text(encoding="utf-8")
