import gc
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from radiomesh import (
    CellIndexing,
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    InvalidParameterError,
    OracleSizeError,
    OrderingPlan,
    ProductParams,
    RnStatus,
    all_pairs_distances,
    build_mesh,
    build_path,
    build_product_graph,
    build_star,
    exact_rn,
    fiber_vertex_id,
    gap_matrix,
    greedy_assign,
    minimize_span,
    permutation_oracle,
    validate,
)
from radiomesh import search
from radiomesh.search import _automorphisms, _image_columns, _shape

# values computed with the brute-force oracle and frozen
KNOWN_RN = {
    "P2": 1,
    "P3": 3,
    "P4": 5,
    "P5": 10,
    "K1,1": 1,
    "K1,2": 3,
    "K1,3": 4,
    "K1,4": 5,
    "C4": 4,
    "C4xK1,1": 10,
}

# the oracle's witness labels by vertex id, the first optimal ordering's
ORACLE_WITNESSES = {
    "P2": [0, 1],
    "P3": [0, 3, 1],
    "P4": [3, 0, 5, 2],
    "P5": [0, 5, 10, 2, 7],
    "K1,1": [0, 1],
    "K1,2": [0, 2, 3],
    "K1,3": [0, 2, 3, 4],
    "K1,4": [0, 2, 3, 4, 5],
    "C4": [0, 3, 4, 1],
    "C4xK1,1": [0, 3, 9, 6, 7, 10, 4, 1],
}


def _small_graphs():
    yield "P2", build_path(2)
    yield "P3", build_path(3)
    yield "P4", build_path(4)
    yield "P5", build_path(5)
    yield "K1,1", build_star(1)
    yield "K1,2", build_star(2)
    yield "K1,3", build_star(3)
    yield "K1,4", build_star(4)
    yield "C4", build_mesh(2)
    yield "C4xK1,1", build_product_graph(ProductParams(2, 1)).graph


@pytest.mark.parametrize("name,graph", list(_small_graphs()))
def test_oracle_matches_frozen_values(name, graph):
    oracle = permutation_oracle(graph)
    assert oracle.value == KNOWN_RN[name]
    assert oracle.witness.labels.tolist() == ORACLE_WITNESSES[name]


@pytest.mark.parametrize("name,graph", list(_small_graphs()))
def test_search_agrees_with_oracle(name, graph):
    oracle = permutation_oracle(graph)
    search = exact_rn(graph)
    assert search.status is RnStatus.EXACT
    assert search.value == oracle.value


@pytest.mark.parametrize("name,graph", list(_small_graphs()))
def test_witnesses_are_valid_and_tight(name, graph):
    dm = all_pairs_distances(graph)
    for result in (permutation_oracle(graph), exact_rn(graph)):
        assert result.witness is not None
        assert validate(graph, dm, result.witness).valid
        assert result.witness.span == result.value
        # the witness labels are one int64 array, as every labeling's are
        assert isinstance(result.witness.labels, np.ndarray) and result.witness.labels.dtype == np.int64


def test_oracle_refuses_large_graphs():
    with pytest.raises(OracleSizeError):
        permutation_oracle(build_path(10))


def test_search_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        exact_rn(g)


def test_minimize_span_rejects_empty():
    with pytest.raises(InvalidParameterError):
        minimize_span([])


def test_search_is_deterministic():
    g = build_product_graph(ProductParams(2, 1)).graph
    first = exact_rn(g)
    second = exact_rn(g)
    assert first.value == second.value
    assert first.witness.labels.tolist() == second.witness.labels.tolist()
    assert first.nodes == second.nodes


def test_exact_rn_lower_bounds_any_greedy_span():
    g = build_star(4)
    dm = all_pairs_distances(g)
    rn = exact_rn(g).value
    for seq in [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)]:
        assert rn <= greedy_assign(g, dm, OrderingPlan(seq)).span


def test_node_budget_below_one_branch_keeps_hint_witness():
    g = build_product_graph(ProductParams(3, 2)).graph  # 27 vertices
    dm = all_pairs_distances(g)
    # a complete branch takes 27 nodes, so 10 cannot finish one
    result = exact_rn(g, node_limit=10)
    assert result.status is RnStatus.UPPER_BOUND_ONLY
    assert result.nodes == 10
    assert result.witness is not None
    assert validate(g, dm, result.witness).valid
    assert result.witness.span == result.value


def test_negative_node_budgets_are_rejected():
    req = gap_matrix(all_pairs_distances(build_path(4)))
    for node_limit in (-1, -5):
        with pytest.raises(InvalidParameterError, match="node limit must be >= 0"):
            minimize_span(req, node_limit)
    with pytest.raises(InvalidParameterError):
        exact_rn(build_path(4), node_limit=-1)
    # a zero budget is a search that stops at the root
    assert minimize_span(req, 0)[2:] == (RnStatus.UPPER_BOUND_ONLY, 0)


@pytest.mark.parametrize("node_limit", [2.5, True, "3", 3.0], ids=["float", "bool", "str", "integral-float"])
def test_node_budgets_that_are_not_integers_are_rejected(node_limit):
    # 2.5 would let the search report 3 nodes, True a budget of 1
    with pytest.raises(InvalidParameterError, match="^node limit must be an integer"):
        minimize_span([[0, 2], [2, 0]], node_limit)
    with pytest.raises(InvalidParameterError, match="^node limit must be an integer"):
        exact_rn(build_path(3), node_limit=node_limit)


def test_numpy_integer_node_budgets_are_taken():
    req = [[0, 2], [2, 0]]
    assert minimize_span(req, np.int64(5)) == minimize_span(req, 5)
    assert exact_rn(build_path(3), node_limit=np.int64(5)) == exact_rn(build_path(3), node_limit=5)


def test_one_vertex_system_keeps_the_root_budget_check():
    # a zero budget stops at the root, as for every larger system
    assert minimize_span([[0]], 0) == (0, [0], RnStatus.UPPER_BOUND_ONLY, 0)
    for node_limit in (1, None):
        assert minimize_span([[0]], node_limit) == (0, [0], RnStatus.EXACT, 1)
    g = build_path(1)
    assert exact_rn(g, node_limit=0).status is RnStatus.UPPER_BOUND_ONLY
    result = exact_rn(g)
    assert (result.value, result.status, result.nodes) == (0, RnStatus.EXACT, 1)


def test_budgeted_search_past_a_byte_of_positions():
    # 300 unplaced vertices at the root: more floor positions than a byte holds
    g = build_path(300)
    dm = all_pairs_distances(g)
    result = exact_rn(g, node_limit=50)
    assert (result.status, result.nodes) == (RnStatus.UPPER_BOUND_ONLY, 50)
    assert validate(g, dm, result.witness).valid
    assert result.witness.span == result.value


def test_node_budget_yields_upper_bound_only():
    g = build_path(8)
    full = exact_rn(g)
    truncated = exact_rn(g, node_limit=50)
    assert truncated.status is RnStatus.UPPER_BOUND_ONLY
    assert truncated.value >= full.value
    # node-limited runs are reproducible
    again = exact_rn(g, node_limit=50)
    assert again.value == truncated.value
    assert again.witness.labels.tolist() == truncated.witness.labels.tolist()


def test_the_oracle_reads_no_distances_the_search_reads(monkeypatch):
    # the complete graph's metric in place of the cube's: the search,
    # which reads it, finds 7, while the oracle reads BFS and keeps 10
    g = build_product_graph(ProductParams(2, 1)).graph

    def complete_metric(graph):
        return DistanceMatrix(1 - np.eye(graph.num_vertices, dtype=np.int16))

    monkeypatch.setattr(search, "all_pairs_distances", complete_metric)
    assert permutation_oracle(g).value == KNOWN_RN["C4xK1,1"]
    assert exact_rn(g).value == g.num_vertices - 1


def test_the_oracle_shares_no_gap_lookup_with_the_search(monkeypatch):
    # every gap 1, as on the complete graph: the search, which reads
    # gap_matrix, finds 7, while the oracle takes its gaps from BFS
    g = build_product_graph(ProductParams(2, 1)).graph
    n = g.num_vertices
    monkeypatch.setattr(search, "gap_matrix", lambda dm, vertices=None: [[1] * n] * n)
    assert exact_rn(g).value == n - 1
    assert permutation_oracle(g).value == KNOWN_RN["C4xK1,1"]


def test_gap_matrix_rejects_an_id_outside_the_graph():
    dm = all_pairs_distances(build_path(3))
    # -1 would read vertex 2's gaps as a numpy index, 5 numpy's IndexError
    for vertices, first in (([-1, 0], -1), ([0, 5], 5), ([1, 3, -2], 3)):
        with pytest.raises(InvalidParameterError, match=rf"^vertex {first} outside 0\.\.2$"):
            gap_matrix(dm, vertices)
    for vertices in ([2, 0], (2, 0), [np.int64(2), 0], np.array([2, 0], dtype=np.uint8)):
        assert gap_matrix(dm, vertices) == [[3, 1], [1, 3]]


def test_gap_matrix_rejects_a_repeated_id():
    # unchecked, [0, 0] on P3 would give [[3, 3], [3, 3]], two copies of
    # one vertex that need a gap from each other, which minimize_span
    # would report as EXACT with span 3
    dm = all_pairs_distances(build_path(3))
    for vertices, named in (([0, 0], 0), ([2, 1, 2, 1], 1), (np.array([1, 0, 1]), 1)):
        with pytest.raises(InvalidParameterError, match=rf"^vertex {named} repeated$"):
            gap_matrix(dm, vertices)


@pytest.mark.parametrize(
    "vertices",
    [
        [0.7, 1],
        [True, 2],
        ["1", 0],
        np.array([0.0, 2.0]),
        np.array([[0, 1]]),
        1,
        b"\x00\x01",
        bytearray(b"\x00\x01"),
    ],
    ids=["float", "bool", "str", "float-array", "2-d-array", "scalar", "bytes", "bytearray"],
)
def test_gap_matrix_rejects_ids_that_are_not_integers(vertices):
    # a cast to intp would read these as [0, 1], [1, 2], [1, 0] and [0, 2]
    dm = all_pairs_distances(build_path(3))
    with pytest.raises(InvalidParameterError, match="^vertex ids must be integers"):
        gap_matrix(dm, vertices)


def test_minimize_span_rejects_a_gap_below_one_or_a_ragged_matrix():
    # the sorted-floor bound takes unplaced labels to be distinct: with
    # zero gaps it would report (4, [0, 0, 3, 4], EXACT) for this
    # system, while the order 2, 3, 1, 0 realises span 3
    zero_gaps = [[0, 3, 3, 0], [0, 0, 2, 3], [2, 3, 0, 1], [2, 0, 2, 0]]
    with pytest.raises(InvalidParameterError, match="distinct vertices must be >= 1, got 0"):
        minimize_span(zero_gaps)
    with pytest.raises(InvalidParameterError, match="must be >= 1, got -2"):
        minimize_span([[0, -2], [1, 0]])
    with pytest.raises(InvalidParameterError, match="must be square"):
        minimize_span([[0, 1], [1, 0, 1]])
    # every gap at least 1: the diagonal is never read
    assert minimize_span([[-5, 1], [1, 0]]) == (1, [0, 1], RnStatus.EXACT, 3)


@pytest.mark.parametrize(
    "req",
    [
        [[0, 1.5], [1.5, 0]],
        [[0, True], [True, 0]],
        [[0, "2"], ["2", 0]],
        [[0, np.float64(2.0)], [np.float64(2.0), 0]],
        [b"\x00\x01", b"\x01\x00"],
        [bytearray(b"\x00\x01"), bytearray(b"\x01\x00")],
    ],
    ids=["float", "bool", "str", "numpy-float", "bytes-rows", "bytearray-rows"],
)
def test_minimize_span_rejects_gaps_that_are_not_integers(req):
    # 1.5 would come back as an EXACT span of 1.5, True as one of 1
    with pytest.raises(InvalidParameterError, match="^gaps must be integers"):
        minimize_span(req)


def test_minimize_span_takes_numpy_integer_gaps_as_python_ints():
    req = [[0, 3, 1], [3, 0, 2], [1, 2, 0]]
    expected = minimize_span(req)
    for numpy_req in ([[np.int64(g) for g in row] for row in req], np.array(req, dtype=np.int64)):
        result = minimize_span(numpy_req)
        assert result == expected
        assert type(result[0]) is int and all(type(label) is int for label in result[1])


def test_gap_matrix_subset_keeps_host_metric():
    params = ProductParams(2, 1)
    dm = all_pairs_distances(build_product_graph(params).graph)
    subset = [fiber_vertex_id(params, CellIndexing.ROW_MAJOR, t, 1) for t in (1, 3)]
    req = gap_matrix(dm, vertices=subset)
    expected = dm.diameter + 1 - dm[subset[0], subset[1]]
    assert req[0][1] == req[1][0] == expected
    assert req[0][0] == dm.diameter + 1


def test_pair_system_brute_force_agreement():
    # 4-vertex pair system under the host metric, checked against a
    # from-scratch enumeration over orderings
    import itertools

    params = ProductParams(2, 1)
    dm = all_pairs_distances(build_product_graph(params).graph)
    vertices = [fiber_vertex_id(params, CellIndexing.ROW_MAJOR, t, k) for t in (1, 3) for k in (1, 2)]
    req = gap_matrix(dm, vertices=vertices)

    best = None
    for perm in itertools.permutations(range(4)):
        labels = {perm[0]: 0}
        for v in perm[1:]:
            labels[v] = max(labels[u] + req[v][u] for u in labels)
        best = min(best, max(labels.values())) if best is not None else max(labels.values())

    value, _, status, _ = minimize_span(req)
    assert status is RnStatus.EXACT
    assert value == best


# The greedy hint primes the search's pruning, so these node counts pin
# the hint as well as the search order.
def test_search_tree_of_c4_x_k11_is_frozen():
    result = exact_rn(build_product_graph(ProductParams(2, 1)).graph)
    assert (result.value, result.status, result.nodes) == (10, RnStatus.EXACT, 1879)


def test_search_tree_of_row_major_pair_system_is_frozen():
    params = ProductParams(2, 2)
    dm = all_pairs_distances(build_product_graph(params).graph)
    # the Cor5 pair t(1), t(1 + m*m/2): both hubs and their two leaves
    vertices = [
        fiber_vertex_id(params, CellIndexing.ROW_MAJOR, t, k) for t in (1, 3) for k in (1, 2, 3)
    ]
    value, _, status, nodes = minimize_span(gap_matrix(dm, vertices=vertices))
    assert (value, status, nodes) == (13, RnStatus.EXACT, 589)


def test_search_tree_of_c4_x_k12_is_frozen():
    # the gap matrix is built before tracing, so the peak is the search's own
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(2, 2)).graph))
    # a small search first makes the allocations a process pays once, so
    # the peak is the same run alone or after other tests; the witnesses
    # are pinned too, as a key matching a state that is not an image of
    # the stored one could skip the first optimal completion
    small = exact_rn(build_product_graph(ProductParams(2, 1)).graph)
    assert small.witness.labels.tolist() == [0, 3, 9, 6, 7, 10, 4, 1]
    tracemalloc.start()
    try:
        value, labels, status, nodes = minimize_span(req)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (value, status, nodes) == (22, RnStatus.EXACT, 6_444_838)
    assert labels == [0, 8, 4, 18, 14, 10, 12, 20, 16, 6, 2, 22]
    # measured 1.78 MB, nearly all of it the subtree table and the
    # per-mask least images, each with a list of floor positions
    assert peak < 1_900_000


# The property tests stop at 9 vertices; the 18-vertex (3,1) search
# fills its table and is cut by the budget before any completion, so the
# greedy hint is the witness.
@pytest.mark.parametrize("budget", [10**5, 10**6])
def test_truncated_search_at_m3_n1_is_frozen(budget):
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(3, 1)).graph))
    value, labels, status, nodes = minimize_span(req, budget)
    assert (value, status, nodes) == (42, RnStatus.UPPER_BOUND_ONLY, budget)
    assert list(labels) == [15, 10, 0, 21, 27, 4, 6, 25, 33, 38, 12, 17, 19, 2, 42, 29, 23, 8]


def test_minimize_span_frees_its_table_on_return():
    # the table can hold 65,536 states; a reference cycle through the
    # search closure would keep it alive until the next garbage collection
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(2, 1)).graph))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = minimize_span(req)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert result[2] is RnStatus.EXACT
    assert unreachable == 0


@pytest.mark.parametrize("mn,order", [((2, 1), 48), ((2, 2), 16), ((3, 1), 16)])
def test_automorphism_group_orders(mn, order):
    # (2,1) is the cube; (2,2) and (3,1) have the mesh's 8 symmetries
    # times the 2 of the star's leaves
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(*mn)).graph))
    vertices = range(len(req))
    group = _automorphisms(req)
    assert len(group) == order
    assert group[0] == list(vertices)
    assert len(set(map(tuple, group))) == order
    for p in group:
        assert sorted(p) == list(vertices)
        assert all(req[p[a]][p[b]] == req[a][b] for a in vertices for b in vertices)


_DIRECTED_5_CYCLE = [
    [4 if a == b else 1 if b == (a + 1) % 5 else 3 if a == (b + 1) % 5 else 2 for b in range(5)]
    for a in range(5)
]


@pytest.mark.parametrize(
    "req,group",
    [
        # gap 1 forward, 3 backward and 2 across: the rotations keep it,
        # the reflections swap forward and backward
        (_DIRECTED_5_CYCLE, [[(a + s) % 5 for a in range(5)] for s in range(5)]),
        # every row holds one 1 and two 0s, so the row multisets tell no
        # vertex apart; checking only the pairs (a, c) with c <= a, or
        # only those with c >= a, would accept a transposition
        ([[0, 1, 0], [1, 0, 0], [1, 0, 0]], [[0, 1, 2]]),
    ],
)
def test_automorphisms_of_asymmetric_systems(req, group):
    assert sorted(_automorphisms(req)) == group


def test_automorphisms_keep_the_diagonal():
    # the 4-cycle's gaps with a larger diagonal entry at vertex 0: only
    # the identity and the reflection through 0 and 2 fix it
    req = [[3, 2, 1, 2], [2, 3, 2, 1], [1, 2, 3, 2], [2, 1, 2, 3]]
    assert len(_automorphisms(req)) == 8
    req[0][0] = 5
    assert _automorphisms(req) == [[0, 1, 2, 3], [0, 3, 2, 1]]


def _direct_shape(mask, group):
    """Least image of a placed set, each image built whole, and the field
    order of the first permutation reaching it, read off that permutation."""
    nv = len(group[0])
    unplaced = [x for x in range(nv) if not mask >> x & 1]
    images = [sum(1 << p[x] for x in range(nv) if mask >> x & 1) for p in group]
    least = min(images)
    p = group[images.index(least)]
    source = {p[x]: x for x in unplaced}
    kept = [y for y in range(nv) if not least >> y & 1]
    return images, least, [unplaced.index(source[y]) for y in kept]


@pytest.mark.parametrize("mn,steps,order", [((2, 1), None, 48), ((2, 2), None, 16), ((2, 1), 100, 5)])
def test_shapes_derived_from_parent_images_match_the_whole_group(mn, steps, order):
    # the search ORs one column into its parent's packed images per
    # placed vertex; every placed set with two or more vertices left
    # must get the whole group's images, its least image, and the order
    # of the first permutation that reaches it, under a capped
    # enumeration too (five of the cube's 48, no group)
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(*mn)).graph))
    nv = len(req)
    with mock.patch.object(search, "_GROUP_STEPS", steps or search._GROUP_STEPS):
        group = _automorphisms(req)
    assert len(group) == order
    columns = _image_columns(group)
    full = (1 << nv) - 1
    images = [0] * (1 << nv)
    for mask in range(1, 1 << nv):
        lowest = mask & -mask
        images[mask] = images[mask ^ lowest] | columns[lowest.bit_length() - 1]
    for mask in range(1 << nv):
        if nv - bin(mask).count("1") < 2:
            continue
        whole, least, fields = _direct_shape(mask, group)
        assert [images[mask] >> i * nv & full for i in range(len(group))] == whole
        assert _shape(mask, images[mask], group) == (least, fields)


def _visits(req):
    """Calls of the search's inner dfs during one unlimited minimize_span."""
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "dfs":
            calls += 1

    sys.setprofile(count)
    try:
        minimize_span(req, None)
    finally:
        sys.setprofile(None)
    return calls


def test_symmetric_states_share_one_walk():
    # the cube's 48 automorphisms cut the nodes visited (342 with the
    # identity alone, 38 with the group) while the counted tree stays put
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(2, 1)).graph))
    with mock.patch.object(search, "_GROUP_LIMIT", 1):
        plain = _visits(req)
    assert _visits(req) * 5 < plain


def test_huge_unread_gaps_keep_states_shared():
    # the search never reads the diagonal, so gaps of 2**60 there change
    # neither the group nor the tree; the state key has no width to outgrow
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(2, 1)).graph))
    huge = [row.copy() for row in req]
    for v, row in enumerate(huge):
        row[v] = 1 << 60
    assert len(_automorphisms(huge)) == 48
    assert minimize_span(huge, None) == minimize_span(req, None)
    assert _visits(huge) == _visits(req) == 38
