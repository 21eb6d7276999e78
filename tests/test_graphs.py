import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from radiomesh import (
    UNREACHABLE,
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    InvalidParameterError,
    all_pairs_distances,
    bfs_all_pairs,
    build_mesh,
    build_path,
    build_star,
    cartesian_product,
    exact_rn,
    gap_matrix,
)
from radiomesh import graphs
from radiomesh.product import ProductParams, build_product_graph, vertex_id


def test_path_basics():
    p1 = build_path(1)
    assert p1.num_vertices == 1 and p1.num_edges == 0

    p2 = build_path(2)
    assert p2.edges() == [(0, 1)]
    assert bfs_all_pairs(p2).diameter == 1

    assert bfs_all_pairs(build_path(5)).diameter == 4


def test_path_rejects_zero():
    with pytest.raises(InvalidParameterError):
        build_path(0)


def test_star_basics():
    s4 = build_star(4)
    assert bfs_all_pairs(s4).diameter == 2
    assert s4.degree(0) == 4
    assert all(s4.degree(leaf) == 1 for leaf in range(1, 5))

    # K_{1,1} is a single edge, K_{1,2} a path on three vertices
    assert build_star(1).edges() == [(0, 1)]
    s2 = build_star(2)
    assert s2.num_edges == 2 and bfs_all_pairs(s2).diameter == 2


def test_star_rejects_zero():
    with pytest.raises(InvalidParameterError):
        build_star(0)


def test_product_of_two_paths_is_four_cycle():
    c4 = cartesian_product([build_path(2), build_path(2)])
    assert c4.num_vertices == 4
    assert c4.num_edges == 4
    assert all(c4.degree(v) == 2 for v in range(4))


def test_product_degree_is_sum_of_factor_degrees():
    factors = [build_path(2), build_path(2), build_star(1)]
    g = cartesian_product(factors)
    assert g.num_vertices == 8
    for a in range(2):
        for b in range(2):
            for c in range(2):
                vid = (a * 2 + b) * 2 + c
                expected = (
                    factors[0].degree(a) + factors[1].degree(b) + factors[2].degree(c)
                )
                assert g.degree(vid) == expected


def test_product_rejects_bad_factor_lists():
    with pytest.raises(InvalidParameterError):
        cartesian_product([build_path(3)])
    with pytest.raises(InvalidParameterError):
        cartesian_product([])


def test_bfs_on_path_and_star():
    assert bfs_all_pairs(build_path(3)).matrix[0].tolist() == [0, 1, 2]
    # from a leaf of K_{1,3}: center at 1, the other leaves at 2
    assert bfs_all_pairs(build_star(3)).matrix[1].tolist() == [1, 0, 2, 2]


def test_bfs_hub_to_hub_across_product():
    params = ProductParams(2, 1)
    bfs = bfs_all_pairs(build_product_graph(params).graph)
    assert bfs[vertex_id(params, 0, 0, 0), vertex_id(params, 1, 1, 0)] == 2


def test_diameter_of_products():
    assert bfs_all_pairs(build_product_graph(ProductParams(4, 5)).graph).diameter == 8
    assert bfs_all_pairs(build_product_graph(ProductParams(5, 4)).graph).diameter == 10
    # one-leaf stars only add 1 to the mesh diameter
    assert bfs_all_pairs(build_product_graph(ProductParams(3, 1)).graph).diameter == 5


def test_disconnected_graph_is_an_error_not_a_sentinel():
    bfs = bfs_all_pairs(Graph(4, [(0, 1), (2, 3)]))
    assert bfs[0, 2] == UNREACHABLE
    with pytest.raises(DisconnectedGraphError):
        bfs.diameter


@pytest.mark.parametrize("pm", [2, 3, 4, 5])
@pytest.mark.parametrize("sn", [1, 2, 3, 4])
def test_diameter_additivity(pm, sn):
    path = build_path(pm)
    star = build_star(sn)
    product = bfs_all_pairs(cartesian_product([path, star]))
    assert product.diameter == bfs_all_pairs(path).diameter + bfs_all_pairs(star).diameter


def test_mesh_diameter():
    for m in (2, 3, 4):
        assert bfs_all_pairs(build_mesh(m)).diameter == 2 * (m - 1)


def test_distance_matrix_symmetry():
    g = build_product_graph(ProductParams(3, 2)).graph
    dm = all_pairs_distances(g)
    assert np.array_equal(dm.matrix, dm.matrix.T)
    assert np.all(np.diag(dm.matrix) == 0)


def _traced_peak(fn):
    """Result of ``fn()`` and the most memory it held above the start."""
    tracemalloc.start()
    try:
        result = fn()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_product_distances_allocate_little_beyond_the_matrix():
    g = build_product_graph(ProductParams(12, 4)).graph
    nbytes = g.num_vertices**2 * np.dtype(np.int16).itemsize
    # two factor matrices, 12 x 12 and 60 x 60: no N x N matrix
    dm, build_peak = _traced_peak(lambda: all_pairs_distances(g))
    assert build_peak < nbytes / 20
    # the diameter is the factors' sum, read off the factors
    diam, diam_peak = _traced_peak(lambda: dm.diameter)
    assert diam == 24 and diam_peak < 64 * 1024
    # the first .matrix access builds it: the matrix plus the na x N
    # repeated block, a fifth of it at n = 4
    matrix, matrix_peak = _traced_peak(lambda: dm.matrix)
    assert matrix.nbytes == nbytes and matrix_peak < 1.4 * nbytes
    assert dm.matrix is matrix
    assert np.array_equal(matrix, bfs_all_pairs(g).matrix)


def _searched(g):
    """``all_pairs_distances(g)`` and the graphs it ran BFS on, in order."""
    with mock.patch.object(graphs, "bfs_all_pairs", wraps=graphs.bfs_all_pairs) as spy:
        dm = all_pairs_distances(g)
    return dm, [call.args[0] for call in spy.call_args_list]


def test_bfs_runs_only_on_the_leaf_factors():
    # P_5 x (P_5 x S_3) is built from one P_5 object in both places:
    # each distinct factor is searched once, on its own, so the path
    # once and the star once, and no product is ever searched
    g = build_product_graph(ProductParams(5, 3)).graph
    dm, searched = _searched(g)
    assert [leaf.num_vertices for leaf in searched] == [5, 4]
    assert not any(leaf.factors for leaf in searched)
    assert np.array_equal(dm.matrix, bfs_all_pairs(g).matrix)


def test_equal_but_distinct_factors_are_each_searched():
    # reuse goes by identity, so two equal path objects are two searches,
    # and comparing them lays out no product adjacency
    g = cartesian_product([build_path(5), build_path(5), build_star(3)])
    dm, searched = _searched(g)
    assert [leaf.num_vertices for leaf in searched] == [5, 5, 4]
    assert "adjacency" not in vars(g) and "adjacency" not in vars(g.factors[1])
    assert np.array_equal(dm.matrix, bfs_all_pairs(g).matrix)


def test_a_repeated_disconnected_factor_falls_back_to_whole_graph_bfs():
    split = Graph(2, [])
    g = cartesian_product([split, split])
    dm, searched = _searched(g)
    assert searched == [split, g]
    expected = bfs_all_pairs(g).matrix
    assert (expected == UNREACHABLE).any()
    assert np.array_equal(dm.matrix, expected)


def test_cartesian_product_nests_to_the_right():
    a, b, c = build_path(2), build_path(3), build_star(2)
    g = cartesian_product([a, b, c])
    assert g.factors[0] is a and g.factors[1].factors == (b, c)
    assert cartesian_product([a, b, c, a]).factors[1].factors[1].factors == (c, a)


# small rows, among them (2,2), (2,3) and (3,3) with n + 1 > m, where the
# mesh-by-star product was once grouped as (P_m x P_m) x S_n; mixed radix
# moves no id either way
@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (2, 3), (3, 3), (4, 1)])
def test_right_nested_product_equals_the_left_nested_one(m, n):
    p, s = build_path(m), build_star(n)
    nested = build_product_graph(ProductParams(m, n)).graph
    left = cartesian_product([cartesian_product([p, p]), s])
    assert nested.edges() == left.edges()
    bfs = gap_matrix(bfs_all_pairs(left))
    assert gap_matrix(all_pairs_distances(nested)) == bfs
    assert gap_matrix(all_pairs_distances(left)) == bfs


@pytest.mark.parametrize(
    "lookup, message",
    [
        (lambda dm: dm[-1, 0], "vertex id -1 out of range"),
        (lambda dm: dm[0, 3], "vertex id 3 out of range"),
        (lambda dm: dm[True, 2], "vertex id must be an integer, got True"),
        (lambda dm: dm[0, 2.0], "vertex id must be an integer, got 2.0"),
    ],
    ids=["negative id", "id past N", "bool id", "float id"],
)
def test_distance_lookups_reject_ids_outside_the_graph(lookup, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        lookup(all_pairs_distances(build_path(3)))


def test_distance_lookups_take_numpy_integers():
    dm = all_pairs_distances(build_path(3))
    assert dm[np.int64(0), np.uint8(2)] == 2 and type(dm[np.int64(0), 2]) is int


def test_dense_diameter_allocates_no_matrix_sized_temporary():
    g = build_product_graph(ProductParams(12, 4)).graph
    bfs = bfs_all_pairs(g)
    diam, peak = _traced_peak(lambda: bfs.diameter)
    # an N x N bool mask alone would be 506 KiB
    assert diam == 24 and peak < 64 * 1024


def test_dense_distance_matrix_is_its_one_factor():
    matrix = bfs_all_pairs(build_path(4)).matrix
    dm = DistanceMatrix(matrix)
    # the one-factor case keeps the matrix as given, and looks it up
    assert dm.matrix is matrix
    assert dm.num_vertices == 4 and dm.diameter == 3 and dm[0, 3] == 3
    assert dm.pairs(np.array([0, 1, 3]), np.array([2, 1, 0])).tolist() == [2, 0, 3]


@pytest.mark.parametrize(
    "matrix",
    [
        np.zeros((2, 3), np.int16),
        np.zeros(3, np.int16),
        np.array([[0, 1.5], [1.5, 0]]),
        np.zeros((2, 2), bool),
        [[0, 1], [1, 0]],
    ],
    ids=["not square", "1-d", "float", "bool", "list"],
)
def test_distance_matrix_takes_only_square_integer_arrays(matrix):
    # unchecked, these would read as 2, 3 and 2 vertices, the float's diameter as 1
    with pytest.raises(InvalidParameterError, match="^not a square integer distance matrix"):
        DistanceMatrix(matrix)
    with pytest.raises(InvalidParameterError, match="^not a square integer distance matrix"):
        DistanceMatrix.from_factors(matrix, np.zeros((1, 1), np.int16))


def test_distance_matrix_needs_at_least_one_vertex():
    # unchecked, .diameter and from_factors' connectivity check would
    # raise numpy's ValueError on an empty min()
    empty, one = np.zeros((0, 0), np.int16), np.zeros((1, 1), np.int16)
    for make in (
        lambda: DistanceMatrix(empty),
        lambda: DistanceMatrix.from_factors(empty, one),
        lambda: DistanceMatrix.from_factors(one, empty),
    ):
        with pytest.raises(InvalidParameterError, match="^distance matrix needs at least one vertex$"):
            make()


def test_factor_matrices_must_share_a_dtype():
    # summed in int16, .matrix would read 40001 as -25535
    a = np.array([[0, 1], [1, 0]], np.int16)
    b = np.array([[0, 40000], [40000, 0]], np.int64)
    for first, second in ((a, b), (b, a)):
        with pytest.raises(InvalidParameterError, match="^factor matrices must share a dtype"):
            DistanceMatrix.from_factors(first, second)
    dm = DistanceMatrix.from_factors(a.astype(np.int64), b)
    assert dm[0, 3] == dm.matrix[0, 3] == 40001
    for dtype in (np.int8, np.uint16, np.int32):
        dense = np.array([[0, 1], [1, 0]], dtype)
        assert DistanceMatrix(dense).matrix is dense


def test_from_edges_validation():
    with pytest.raises(InvalidParameterError, match=r"self-loop at vertex 0"):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParameterError, match=r"duplicate edge \(1, 0\)"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidParameterError, match=r"edge \(0, 5\) out of range"):
        Graph(3, [(0, 5)])


# each row keeps the id it had when Graph took neighbour lists
@pytest.mark.parametrize(
    "num_vertices, edges, message",
    [
        (0, [], "graph needs at least one vertex"),
        (3, [(0, 0)], "self-loop at vertex 0"),
        (3, [(0, 3)], "edge (0, 3) out of range"),
        (3, [(0, -1)], "edge (0, -1) out of range"),
    ],
    ids=[
        "0-adjacency0-graph needs at least one vertex",
        "3-adjacency1-self-loop at vertex 0",
        "3-adjacency6-edge (0, 3) out of range",
        "3-adjacency7-edge (0, -1) out of range",
    ],
)
def test_graph_rejects_an_adjacency_that_is_not_simple_and_undirected(num_vertices, edges, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        Graph(num_vertices, edges)


# one integer rule for every size and id: a Python or numpy int, not a bool
@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph(3, [(0, 1.0)]),
        lambda: Graph(2.5, []),
        lambda: Graph(3, [(True, 2)]),
        lambda: build_path(2.5),
        lambda: build_path(True),
        lambda: build_star(2.5),
        lambda: build_star(True),
    ],
    ids=["float id", "float count", "bool id", "float path", "bool path", "float star", "bool star"],
)
def test_a_size_or_id_that_is_not_an_integer_is_rejected(build):
    with pytest.raises(InvalidParameterError, match="must be an integer, got (2.5|1.0|True)"):
        build()


@pytest.mark.parametrize("m", ["3", 2.5, True], ids=["str", "float", "bool"])
def test_mesh_order_is_held_to_the_integer_rule_before_its_range(m):
    with pytest.raises(InvalidParameterError, match=f"^mesh order must be an integer, got {re.escape(repr(m))}$"):
        build_mesh(m)


def test_numpy_integer_sizes_and_ids_are_kept_as_python_ints():
    g = Graph(np.int64(2), [(np.int32(0), np.int64(1))])
    assert g == build_path(2)
    assert type(g.num_vertices) is int and type(g.adjacency[0][0]) is int
    assert type(build_path(np.int64(3)).num_vertices) is int
    assert type(build_star(np.int16(2)).num_vertices) is int


def test_graph_accepts_simple_undirected_adjacency_and_built_graphs_skip_the_check():
    assert Graph(3, [(1, 0), (1, 2)]) == build_path(3)
    assert Graph(3, []).num_edges == 0
    # a product is fixed by its factors, so its edges are never checked
    path, star = build_path(3), build_star(2)
    with mock.patch.object(graphs.Graph, "__init__", side_effect=AssertionError("checked")):
        product = cartesian_product([path, path, star])
        assert product.num_edges == 3 * 3 * 2 + 2 * 3 * 2 * 3


def test_product_records_factors_outside_equality():
    path, star = build_path(3), build_star(2)
    product = cartesian_product([path, star])
    assert product.factors == (path, star)
    plain = Graph(product.num_vertices, product.edges())
    assert plain == product and hash(plain) == hash(product)


def test_only_cartesian_product_records_factors():
    # two disjoint edges (2K2), which a caller once could label P2 x P2 = C4
    two_edges = [(0, 1), (2, 3)]
    p2 = build_path(2)
    with pytest.raises(TypeError):
        Graph(4, two_edges, factors=(p2, p2))
    g = Graph(4, two_edges)
    assert g.factors == () and g != build_mesh(2)
    with pytest.raises(DisconnectedGraphError):
        exact_rn(g)


def test_factored_distances_reject_a_disconnected_factor():
    connected = bfs_all_pairs(build_path(2)).matrix
    split = bfs_all_pairs(Graph(2, [])).matrix
    for a, b in ((connected, split), (split, connected)):
        with pytest.raises(DisconnectedGraphError):
            DistanceMatrix.from_factors(a, b)


def test_products_of_equal_factors_are_equal_without_a_layout():
    first = build_product_graph(ProductParams(4, 2)).graph
    second = build_product_graph(ProductParams(4, 2)).graph
    assert first == second
    assert "adjacency" not in vars(first) and "adjacency" not in vars(second)
    assert first != build_product_graph(ProductParams(4, 3)).graph
    assert first == Graph(first.num_vertices, second.edges())


def test_product_adjacency_is_laid_out_on_first_read_and_kept():
    path, star = build_path(3), build_star(2)
    product = cartesian_product([path, star])
    assert "adjacency" not in vars(product)
    adjacency = product.adjacency
    assert product.adjacency is adjacency
    assert adjacency == Graph(product.num_vertices, product.edges()).adjacency


def test_graphs_are_frozen():
    lazy = cartesian_product([build_path(2), build_star(1)])
    for g in (lazy, build_path(3)):
        for name in ("num_vertices", "adjacency", "factors", "_adjacency", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)
    assert "adjacency" not in vars(lazy) and lazy.num_vertices == 4
