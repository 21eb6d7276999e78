"""Mesh-by-star product graphs with explicit vertex coordinates.

A product instance is fixed by the mesh order ``m`` and the star leaf
count ``n``: every cell of an m x m grid carries a star fiber of n + 1
vertices (one hub plus n leaves), same-position vertices of adjacent
cells are joined, and within a cell the hub is joined to its leaves.
Vertices are flat integers; the (row, col, star) coordinate bijection
is fixed by (m, n) as well.

Fibers are also addressed by a 1-based cell index (the "t-index") used
by the pairing constructions and the claims catalog. Nothing canonical
maps t-indices to grid cells, so the mapping is an explicit, selectable
scheme, passed to what pairs cells rather than kept on the graph; the
claims harness runs the distance case tables under all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, InvalidParameterError, build_path, build_star, cartesian_product, checked_int


class ParityError(InvalidParameterError):
    """The operation requires the other parity of the mesh order."""


class CellIndexing(Enum):
    """Bijection schemes between t-index 1..m*m and grid cells."""

    ROW_MAJOR = "row-major"
    COL_MAJOR = "col-major"
    SERPENTINE = "serpentine"


@dataclass(frozen=True)
class ProductParams:
    """Parameters (m, n) of the product of an m x m mesh and an n-leaf star."""

    m: int
    n: int

    def __post_init__(self):
        # a numpy integer is kept as a Python int
        for name, value in (("m", self.m), ("n", self.n)):
            object.__setattr__(self, name, checked_int(name, value))
        if self.m < 2:
            raise InvalidParameterError(f"mesh order m must be >= 2, got {self.m}")
        if self.n < 1:
            raise InvalidParameterError(f"star leaf count n must be >= 1, got {self.n}")

    @property
    def num_vertices(self) -> int:
        return self.m * self.m * (self.n + 1)


@dataclass(frozen=True)
class VertexCoord:
    """(row, col, star) coordinate; star 0 is the fiber hub, star s >= 1 leaf s."""

    row: int
    col: int
    star: int


def cells_of(t, m: int, indexing: CellIndexing):
    """Grid rows and columns of t-indices ``t``, an int or an int array, unchecked.

    Integer arithmetic only, so the same lines serve one t-index and a
    numpy array of them.
    """
    q, r = divmod(t - 1, m)
    if indexing is CellIndexing.ROW_MAJOR:
        return q, r
    if indexing is CellIndexing.COL_MAJOR:
        return r, q
    # serpentine: odd rows run right to left, r -> m - 1 - r
    return q, r + q % 2 * (m - 1 - 2 * r)


def cell_of(i: int, params: ProductParams, indexing: CellIndexing) -> tuple[int, int]:
    """Grid cell (row, col) addressed by t-index ``i`` under a scheme."""
    m = params.m
    i = checked_int("t-index", i)
    if not 1 <= i <= m * m:
        raise InvalidParameterError(f"t-index {i} outside [1, {m * m}]")
    return cells_of(i, m, indexing)


def vertex_id(params: ProductParams, row: int, col: int, star: int) -> int:
    """Flat id of coordinate (row, col, star)."""
    m, n = params.m, params.n
    row, col, star = checked_int("row", row), checked_int("col", col), checked_int("star coordinate", star)
    if not (0 <= row < m and 0 <= col < m):
        raise InvalidParameterError(f"cell ({row}, {col}) outside the {m} x {m} grid")
    if not 0 <= star <= n:
        raise InvalidParameterError(f"star coordinate {star} outside [0, {n}]")
    return (row * m + col) * (n + 1) + star


def vertex_coord(params: ProductParams, vid: int) -> VertexCoord:
    """Coordinate of a flat vertex id."""
    vid = checked_int("vertex id", vid)
    if not 0 <= vid < params.num_vertices:
        raise InvalidParameterError(f"vertex id {vid} out of range")
    cell, star = divmod(vid, params.n + 1)
    row, col = divmod(cell, params.m)
    return VertexCoord(row, col, star)


def pair_offset(params: ProductParams) -> int:
    """t-index offset between the two fibers of a construction pair.

    Even m pairs t(j) with t(j + m*m/2); odd m pairs t(x) with
    t(x + m*(m-1)/2) over the first m*(m-1) cells.
    """
    m = params.m
    return m * m // 2 if m % 2 == 0 else m * (m - 1) // 2


def fiber_vertex_id(params: ProductParams, indexing: CellIndexing, t_index: int, position: int) -> int:
    """Flat id of fiber ``t_index``'s vertex at 1-based ``position``.

    Position 1 is the hub; position k >= 2 is leaf k - 1.
    """
    position = checked_int("fiber position", position)
    if not 1 <= position <= params.n + 1:
        raise InvalidParameterError(f"fiber position {position} outside [1, {params.n + 1}]")
    row, col = cell_of(t_index, params, indexing)
    return vertex_id(params, row, col, position - 1)


@dataclass(frozen=True)
class ProductGraph:
    """A built product graph and the parameters that fix it."""

    graph: Graph
    params: ProductParams


def build_product_graph(params: ProductParams) -> ProductGraph:
    """Construct the mesh-by-star product for ``params``."""
    p = build_path(params.m)
    graph = cartesian_product([p, p, build_star(params.n)])
    return ProductGraph(graph, params)
