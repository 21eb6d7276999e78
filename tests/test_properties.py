"""Property-based checks over the small-graph corpus."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radiomesh import (
    CellIndexing,
    Labeling,
    OrderingPlan,
    ProductParams,
    all_pairs_distances,
    build_mesh,
    build_path,
    build_product_graph,
    build_star,
    cell_of,
    consecutive_only_assign,
    greedy_assign,
    index_of,
    validate,
    vertex_coord,
    vertex_id,
)
from radiomesh.formats import FormatError, format_labeling, parse_graph, parse_labeling

# connected family graphs with at most 12 vertices
corpus = st.one_of(
    st.integers(1, 7).map(build_path),
    st.integers(1, 6).map(build_star),
    st.sampled_from([2, 3]).map(build_mesh),
    st.sampled_from([(2, 1), (2, 2)]).map(
        lambda mn: build_product_graph(ProductParams(*mn)).graph
    ),
)


@st.composite
def graph_with_order(draw):
    g = draw(corpus)
    order = draw(st.permutations(range(g.num_vertices)))
    return g, OrderingPlan(tuple(order))


@settings(max_examples=60, deadline=None)
@given(graph_with_order())
def test_greedy_assign_is_always_valid(case):
    g, plan = case
    dm = all_pairs_distances(g)
    labeling = greedy_assign(g, dm, plan)
    assert validate(g, dm, labeling).valid


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 2), (3, 1)])
    .map(lambda mn: build_product_graph(ProductParams(*mn)).graph)
    .flatmap(lambda g: st.tuples(st.just(g), st.permutations(range(g.num_vertices))))
)
def test_greedy_assign_matches_naive_max_over_placed(case):
    g, order = case
    dm = all_pairs_distances(g)
    base = dm.diameter + 1
    expected = {order[0]: 0}
    for i in range(1, len(order)):
        v = order[i]
        expected[v] = max(expected[u] + base - dm[u, v] for u in order[:i])
    labeling = greedy_assign(g, dm, OrderingPlan(tuple(order)))
    assert labeling.labels == tuple(expected[v] for v in range(g.num_vertices))
    assert validate(g, dm, labeling).valid


@settings(max_examples=60, deadline=None)
@given(graph_with_order())
def test_consecutive_final_label_telescopes(case):
    g, plan = case
    dm = all_pairs_distances(g)
    labeling = consecutive_only_assign(g, dm, plan)
    base = dm.diameter + 1
    seq = plan.sequence
    total = sum(base - dm[seq[i - 1], seq[i]] for i in range(1, len(seq)))
    assert labeling.labels[seq[-1]] == total


@settings(max_examples=40, deadline=None)
@given(graph_with_order(), st.integers(0, 50))
def test_validate_is_shift_invariant(case, shift):
    g, plan = case
    dm = all_pairs_distances(g)
    labeling = greedy_assign(g, dm, plan)
    shifted = Labeling(tuple(x + shift for x in labeling.labels), graph=g)
    assert validate(g, dm, shifted).valid


@settings(max_examples=60, deadline=None)
@given(corpus)
def test_bfs_distances_are_symmetric(g):
    dm = all_pairs_distances(g)
    assert np.array_equal(dm.matrix, dm.matrix.T)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(1, 5),
    st.sampled_from(list(CellIndexing)),
    st.data(),
)
def test_coordinate_bijections_roundtrip(m, n, scheme, data):
    params = ProductParams(m, n)
    vid = data.draw(st.integers(0, params.num_vertices - 1))
    c = vertex_coord(params, vid)
    assert vertex_id(params, c.row, c.col, c.star) == vid

    t_index = data.draw(st.integers(1, m * m))
    row, col = cell_of(t_index, params, scheme)
    assert index_of(row, col, params, scheme) == t_index


# Lines assembled from the graph and labeling grammars' own tokens, so
# inputs reach the structural checks and not only the integer parsing.
# Vertex counts stay small because a header allocates one adjacency set
# per declared vertex.
_number = st.integers(-3, 12).map(str)
_token = st.one_of(
    st.sampled_from(["vertices", "#", "coord", "span", "x", "-", "0x1", "1.5"]), _number
)
_grammar_line = st.one_of(
    st.tuples(st.just("vertices"), _number),
    st.tuples(_number, _number),
    st.tuples(st.just("# coord"), _number, _number, _number, _number),
    st.tuples(st.just("# span"), _number),
    st.lists(_token, max_size=6),
).map(" ".join)
_grammar_text = st.lists(_grammar_line, max_size=12).map("\n".join)
_any_text = st.one_of(st.text(max_size=200), _grammar_text)


@settings(max_examples=300, deadline=None)
@given(_any_text)
def test_graph_parser_raises_only_format_errors(text):
    try:
        graph, coords = parse_graph(text)
    except FormatError:
        return
    assert graph.num_vertices >= 1
    assert coords is None or sorted(coords) == list(range(graph.num_vertices))


@settings(max_examples=300, deadline=None)
@given(_any_text)
def test_labeling_parser_raises_only_format_errors(text):
    try:
        labeling = parse_labeling(text)
    except FormatError:
        return
    assert min(labeling.labels) >= 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
def test_labeling_format_parse_roundtrip(labels):
    labeling = Labeling(tuple(labels))
    assert parse_labeling(format_labeling(labeling)) == labeling
