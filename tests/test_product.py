import re

import numpy as np
import pytest

from radiomesh import (
    CellIndexing,
    InvalidParameterError,
    ProductParams,
    VertexCoord,
    build_product_graph,
    cell_of,
    fiber_vertex_id,
    vertex_coord,
    vertex_id,
)

ALL_SCHEMES = list(CellIndexing)
RM = CellIndexing.ROW_MAJOR


@pytest.mark.parametrize(
    "m,n,count", [(4, 5, 96), (5, 5, 150), (2, 1, 8), (3, 2, 27)]
)
def test_vertex_counts(m, n, count):
    params = ProductParams(m, n)
    assert params.num_vertices == count
    assert build_product_graph(params).graph.num_vertices == count


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(2, 7))
def test_product_adjacency_follows_the_cartesian_rule(m, n):
    # the rule read off coordinates alone: at one star position, grid
    # neighbours; in one cell, the hub and each leaf
    params = ProductParams(m, n)
    coords = [vertex_coord(params, v) for v in range(params.num_vertices)]
    rows, cols, stars = np.array([(c.row, c.col, c.star) for c in coords]).T
    grid_steps = abs(rows[:, None] - rows) + abs(cols[:, None] - cols)
    hub_and_leaf = (stars[:, None] == 0) != (stars == 0)
    rule = np.where(stars[:, None] == stars, grid_steps == 1, (grid_steps == 0) & hub_and_leaf)
    expected = tuple(tuple(np.flatnonzero(row).tolist()) for row in rule)
    assert build_product_graph(params).graph.adjacency == expected


def test_smallest_product_edge_count():
    # 4 mesh edges in each of 2 layers plus one star edge per cell
    g = build_product_graph(ProductParams(2, 1)).graph
    assert g.num_edges == 12


def test_param_validation():
    with pytest.raises(InvalidParameterError):
        ProductParams(1, 2)
    with pytest.raises(InvalidParameterError):
        ProductParams(3, 0)


@pytest.mark.parametrize("m,n", [(4, True), (4.0, 2), ("4", 2), (4, 2.0)])
def test_params_reject_non_integers(m, n):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        ProductParams(m, n)


def test_params_store_numpy_integers_as_int():
    params = ProductParams(np.int64(4), np.int64(2))
    assert type(params.m) is int and type(params.n) is int
    assert params == ProductParams(4, 2)
    assert hash(params) == hash(ProductParams(4, 2))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_cell_index_roundtrip(scheme, m):
    params = ProductParams(m, 1)
    seen = set()
    for i in range(1, m * m + 1):
        row, col = cell_of(i, params, scheme)
        assert 0 <= row < m and 0 <= col < m
        seen.add((row, col))
    assert len(seen) == m * m


def test_row_major_examples():
    assert cell_of(1, ProductParams(6, 1), CellIndexing.ROW_MAJOR) == (0, 0)
    assert cell_of(19, ProductParams(6, 1), CellIndexing.ROW_MAJOR) == (3, 0)
    assert cell_of(9, ProductParams(4, 1), CellIndexing.ROW_MAJOR) == (2, 0)


def test_serpentine_reverses_odd_rows():
    params = ProductParams(3, 1)
    cells = [cell_of(i, params, CellIndexing.SERPENTINE) for i in range(1, 10)]
    assert cells[:3] == [(0, 0), (0, 1), (0, 2)]
    assert cells[3:6] == [(1, 2), (1, 1), (1, 0)]
    assert cells[6:] == [(2, 0), (2, 1), (2, 2)]


def test_cell_index_out_of_range():
    params = ProductParams(3, 1)
    with pytest.raises(InvalidParameterError):
        cell_of(0, params, CellIndexing.ROW_MAJOR)
    with pytest.raises(InvalidParameterError):
        cell_of(10, params, CellIndexing.ROW_MAJOR)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 3)])
def test_coordinate_roundtrip(m, n):
    params = ProductParams(m, n)
    for vid in range(params.num_vertices):
        c = vertex_coord(params, vid)
        assert vertex_id(params, c.row, c.col, c.star) == vid


def test_coordinate_range_checks():
    params = ProductParams(3, 2)
    with pytest.raises(InvalidParameterError):
        vertex_id(params, 3, 0, 0)
    with pytest.raises(InvalidParameterError):
        vertex_id(params, 0, 0, 3)
    with pytest.raises(InvalidParameterError):
        vertex_coord(params, params.num_vertices)


def test_degree_law():
    params = ProductParams(3, 2)
    graph = build_product_graph(params).graph
    mesh_degree = lambda r, c: sum(
        0 <= r + dr < 3 and 0 <= c + dc < 3
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0))
    )
    for vid in range(params.num_vertices):
        coord = vertex_coord(params, vid)
        expected = mesh_degree(coord.row, coord.col) + (
            params.n if coord.star == 0 else 1
        )
        assert graph.degree(vid) == expected


def test_fiber_vertex_addressing():
    params = ProductParams(3, 2)
    # hub of t(1) is the star-0 vertex of cell (0, 0)
    assert fiber_vertex_id(params, CellIndexing.ROW_MAJOR, 1, 1) == vertex_id(params, 0, 0, 0)
    assert fiber_vertex_id(params, CellIndexing.ROW_MAJOR, 1, 2) == vertex_id(params, 0, 0, 1)
    with pytest.raises(InvalidParameterError):
        fiber_vertex_id(params, CellIndexing.ROW_MAJOR, 1, 4)


# the integer rule of graphs.checked_int, before each range check
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: cell_of(1.5, p, RM), "t-index must be an integer, got 1.5"),
        (lambda p: vertex_id(p, 0.5, 0, 0), "row must be an integer, got 0.5"),
        (lambda p: vertex_id(p, True, 0, 0), "row must be an integer, got True"),
        (lambda p: vertex_coord(p, 2.5), "vertex id must be an integer, got 2.5"),
        (lambda p: vertex_coord(p, "3"), "vertex id must be an integer, got '3'"),
        (lambda p: fiber_vertex_id(p, RM, 1.5, 1), "t-index must be an integer, got 1.5"),
        (lambda p: fiber_vertex_id(p, RM, 1, 1.0), "fiber position must be an integer, got 1.0"),
        (lambda p: vertex_id(p, 0, 0, False), "star coordinate must be an integer, got False"),
    ],
    ids=[
        "float t-index",
        "float row",
        "bool row",
        "float vertex id",
        "str vertex id",
        "float fiber t-index",
        "float fiber position",
        "bool star",
    ],
)
def test_addressing_rejects_ids_that_are_not_integers(call, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        call(ProductParams(3, 2))


def test_addressing_takes_numpy_integers_as_int():
    params = ProductParams(3, 2)
    cell = cell_of(np.int64(4), params, CellIndexing.ROW_MAJOR)
    assert cell == (1, 0) and all(type(x) is int for x in cell)
    vid = vertex_id(params, np.int8(1), np.int64(2), np.int32(1))
    assert vid == 16 and type(vid) is int
    coord = vertex_coord(params, np.uint16(16))
    assert coord == VertexCoord(1, 2, 1) and all(type(x) is int for x in (coord.row, coord.col, coord.star))
    vid = fiber_vertex_id(params, CellIndexing.SERPENTINE, np.int64(5), np.int64(2))
    assert vid == vertex_id(params, 1, 1, 1) and type(vid) is int
