"""Property-based checks over the small-graph corpus."""
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiomesh import (
    UNREACHABLE,
    CellIndexing,
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    InvalidParameterError,
    Labeling,
    OrderingPlan,
    ProductParams,
    all_pairs_distances,
    bfs_all_pairs,
    build_mesh,
    build_path,
    build_product_graph,
    build_star,
    cartesian_product,
    cell_of,
    certify_distances,
    consecutive_only_assign,
    exact_rn,
    gap_matrix,
    greedy_assign,
    validate,
    vertex_coord,
    vertex_id,
)
from radiomesh import search
from radiomesh.claims import VerifyConfig
from radiomesh.formats import FormatError, format_labeling, parse_labeling
from radiomesh.labeling import _short_pairs
from radiomesh.search import (
    RnStatus,
    _automorphisms,
    _chain_labels,
    _heuristic_hint,
    minimize_span,
    permutation_oracle,
)


@st.composite
def connected_graph(draw, max_vertices):
    """A random connected simple graph: a random spanning tree plus random edges."""
    nv = draw(st.integers(1, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, nv)}
    extra = draw(st.sets(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))))
    edges |= {(min(p), max(p)) for p in extra if p[0] != p[1]}
    return Graph(nv, edges)


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


# products; paths, whose diameter is large against their vertex count;
# stars; complete graphs (diameter 1, K_2 among them); random connected graphs
greedy_graphs = st.one_of(
    st.sampled_from([(2, 1), (2, 2), (3, 1)]).map(
        lambda mn: build_product_graph(ProductParams(*mn)).graph
    ),
    st.integers(1, 12).map(build_path),
    st.integers(1, 8).map(build_star),
    st.integers(1, 8).map(lambda k: Graph(k, itertools.combinations(range(k), 2))),
    connected_graph(10),
)


@settings(max_examples=200, deadline=None)
@given(
    greedy_graphs.flatmap(
        lambda g: st.tuples(st.just(g), st.permutations(range(g.num_vertices)))
    )
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
    assert labeling.labels.tolist() == [expected[v] for v in range(g.num_vertices)]
    assert validate(g, dm, labeling).valid


@st.composite
def gap_system(draw, gaps=(1, 30), max_vertices=9):
    """A random symmetric gap-requirement matrix with entries in the ``gaps`` range."""
    nv = draw(st.integers(1, max_vertices))
    upper = draw(st.lists(st.integers(*gaps), min_size=nv * nv, max_size=nv * nv))
    return [[upper[min(i, j) * nv + max(i, j)] for j in range(nv)] for i in range(nv)]


@st.composite
def gap_system_with_start(draw):
    """A random symmetric gap-requirement matrix (entries >= 1) and a start."""
    req = draw(gap_system())
    return req, draw(st.integers(0, len(req) - 1))


@settings(max_examples=100, deadline=None)
@given(gap_system_with_start())
def test_chain_labels_match_cubic_reference(case):
    req, start = case
    labels = {start: 0}
    while len(labels) < len(req):
        forced = {
            v: max(labels[u] + req[v][u] for u in labels) for v in range(len(req)) if v not in labels
        }
        pick = min(forced, key=lambda v: (forced[v], v))  # ties go to the lowest id
        labels[pick] = forced[pick]
    expected = [labels[v] for v in range(len(req))]
    assert _chain_labels(req, start) == expected


# Every gap off the diagonal is at least 1, so greedy labels are distinct
# and the root's bound, N - 1, never reaches the hint's cutoff; asymmetric
# systems too.
@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from([(1, 1), (1, 2), (1, 30)]).flatmap(gap_system),
        st.integers(1, 9).flatmap(
            lambda nv: st.lists(
                st.lists(st.integers(1, 3), min_size=nv, max_size=nv), min_size=nv, max_size=nv
            )
        ),
    )
)
def test_the_greedy_hint_spans_at_least_n_minus_one(req):
    assert _heuristic_hint(req)[0] >= len(req) - 1


node_limits = st.one_of(st.none(), st.integers(0, 1000))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(1, 2), (1, 5), (1, 30)]).flatmap(lambda gaps: gap_system(gaps, max_vertices=7)),
    node_limits,
    node_limits,
)
def test_a_larger_budget_never_gives_a_worse_span(req, first, second):
    # None is the unlimited budget, larger than any other
    small, large = sorted((first, second), key=lambda b: math.inf if b is None else b)
    result = minimize_span(req, small)
    larger = minimize_span(req, large)
    assert larger[0] <= result[0]
    if result[2] is RnStatus.EXACT:
        # a search that finished under the smaller budget never met it
        assert larger == result


@settings(max_examples=75, deadline=None)
@given(connected_graph(7))
def test_exact_rn_equals_the_permutation_oracle_with_its_witness(g):
    # both return the greedy labeling of the lexicographically first
    # optimal visit order: the oracle keeps the first strictly better
    # permutation, and the search's first optimal completion, children in
    # ascending id, is never pruned by the hint's threshold
    result, oracle = exact_rn(g), permutation_oracle(g)
    assert result.status is RnStatus.EXACT
    assert (result.value, result.witness) == (oracle.value, oracle.witness)


def _uncached_minimize_span(req, node_limit, checks=None):
    """The branch-and-bound without its subtree-size table, as a reference.

    ``checks``, if given, receives (nodes, best value, best labels) at
    every budget check.
    """
    nv = len(req)
    # a one-vertex system takes the root's budget check like any other
    hint_value, hint_labels = _heuristic_hint(req)
    threshold = hint_value + 1
    best_val = best_labels = None
    labels, earliest, placed = [0] * nv, [0] * nv, [False] * nv
    nodes = 0

    def dfs(depth, current):
        nonlocal best_val, best_labels, nodes
        if depth == nv:
            if best_val is None or current < best_val or (
                current == best_val and labels < best_labels
            ):
                best_val, best_labels = current, labels.copy()
            return True
        if checks is not None:
            checks.append((nodes, best_val, best_labels))
        if node_limit is not None and nodes >= node_limit:
            return False
        cutoff = threshold if best_val is None else best_val
        remaining = sorted(earliest[x] for x in range(nv) if not placed[x])
        k = len(remaining)
        if max(low + (k - 1 - j) for j, low in enumerate(remaining)) >= cutoff:
            return True
        for v in range(nv):
            if placed[v]:
                continue
            nodes += 1
            value = earliest[v]
            placed[v], labels[v] = True, value
            saved = earliest.copy()
            for x in range(nv):
                if not placed[x]:
                    earliest[x] = max(earliest[x], value + req[v][x])
            keep_going = dfs(depth + 1, value)
            earliest[:] = saved
            placed[v] = False
            if not keep_going:
                return False
        return True

    status = RnStatus.EXACT if dfs(0, 0) else RnStatus.UPPER_BOUND_ONLY
    if best_val is None:
        return hint_value, hint_labels, status, nodes
    return best_val, best_labels, status, nodes


def _below_one_off_the_diagonal(req):
    return any(gap < 1 for v, row in enumerate(req) for x, gap in enumerate(row) if x != v)


# Tables of 1 and 8 states fill and are emptied again and again. Gaps
# up to 300 give large offsets; gaps below 1 (no graph has them) are
# rejected.
@pytest.mark.parametrize("slots", [None, 1, 8])
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(1, 2), (1, 5), (1, 300), (-4, 4)]).flatmap(gap_system),
    st.one_of(st.none(), st.integers(0, 300)),
)
def test_minimize_span_matches_uncached_search(slots, req, node_limit):
    if _below_one_off_the_diagonal(req):
        with pytest.raises(InvalidParameterError, match="distinct vertices must be >= 1"):
            minimize_span(req, node_limit)
        return
    expected = _uncached_minimize_span(req, node_limit)
    with mock.patch.object(search, "_CACHE_SLOTS", slots or search._CACHE_SLOTS):
        assert minimize_span(req, node_limit) == expected


def test_minimize_span_matches_uncached_search_past_a_key_field():
    # negative gaps would let labels fall and an offset outgrow every
    # gap, so the system is rejected. Lifted so every gap is at least 1,
    # a floor minus the least floor stays below the gap that set it, and
    # the search matches the uncached one.
    req = [
        [5, 3, 3, 3, -4, 7, -2, 5],
        [3, -8, 3, 0, -2, 2, -8, 0],
        [3, 3, -4, 4, 3, 2, 4, 7],
        [3, 0, 4, 7, -4, -2, 4, 4],
        [-4, -2, 3, -4, -6, 4, -8, -8],
        [7, 2, 2, -2, 4, -5, -6, -1],
        [-2, -8, 4, 4, -8, -6, -3, -6],
        [5, 0, 7, 4, -8, -1, -6, -6],
    ]
    with pytest.raises(InvalidParameterError, match="must be >= 1, got -8"):
        minimize_span(req, None)
    lifted = [[gap + 9 for gap in row] for row in req]
    assert minimize_span(lifted, None) == _uncached_minimize_span(lifted, None)


def test_minimize_span_matches_uncached_search_at_every_budget():
    # a cached subtree that would end exactly on the budget must be walked;
    # six vertices of the (2,2) product give a 589-node tree with hits
    dm = all_pairs_distances(build_product_graph(ProductParams(2, 2)).graph)
    req = gap_matrix(dm, vertices=[0, 1, 2, 3, 4, 5])
    full = minimize_span(req, None)[3]
    for node_limit in range(full + 2):
        assert minimize_span(req, node_limit) == _uncached_minimize_span(req, node_limit)


def _uncached_at_every_budget(req, budgets):
    """The reference's result for each ``node_limit`` in ``budgets``, from one walk.

    A budgeted walk is the unlimited one up to its first budget check
    with nodes >= node_limit, where it stops with the incumbent (or the
    hint) and the node count of that check.
    """
    checks = []
    unlimited = _uncached_minimize_span(req, None, checks)
    hint_value, hint_labels = _heuristic_hint(req)
    results = []
    for node_limit in budgets:
        stop = next((check for check in checks if check[0] >= node_limit), None)
        if stop is None:
            results.append(unlimited)
        else:
            nodes, best_val, best_labels = stop
            if best_val is None:
                best_val, best_labels = hint_value, hint_labels
            results.append((best_val, best_labels, RnStatus.UPPER_BOUND_ONLY, nodes))
    return results


# Gap matrices of graph metrics have automorphisms, the random matrices
# above almost never do; products of small factors have many.
symmetric_gap_system = st.one_of(
    connected_graph(7),
    st.lists(connected_graph(4), min_size=2, max_size=3)
    .filter(lambda factors: np.prod([f.num_vertices for f in factors]) <= 9)
    .map(cartesian_product),
).map(lambda g: gap_matrix(all_pairs_distances(g)))


@pytest.mark.parametrize("slots", [None, 1, 8])
@settings(max_examples=60, deadline=None)
@given(symmetric_gap_system, st.one_of(st.none(), st.integers(0, 300)))
def test_minimize_span_matches_uncached_search_on_symmetric_systems(slots, req, node_limit):
    expected = _uncached_minimize_span(req, node_limit)
    with mock.patch.object(search, "_CACHE_SLOTS", slots or search._CACHE_SLOTS):
        assert minimize_span(req, node_limit) == expected


def test_minimize_span_matches_uncached_search_at_every_budget_of_a_symmetric_system():
    # the (2,1) product is the cube Q3: 48 automorphisms, a 1879-node tree
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(2, 1)).graph))
    assert len(_automorphisms(req)) == 48
    budgets = range(1881)
    expected = _uncached_at_every_budget(req, budgets)
    assert expected[-1][2:] == (RnStatus.EXACT, 1879)
    for node_limit in budgets[::47]:
        assert _uncached_minimize_span(req, node_limit) == expected[node_limit]
    for node_limit in budgets:
        assert minimize_span(req, node_limit) == expected[node_limit]


@pytest.mark.parametrize("limit,steps,kept", [(1, None, 1), (2, None, 2), (None, 100, 5)])
def test_capped_automorphisms_keep_the_search_exact(limit, steps, kept):
    # a few elements of the cube's 48 are not a group; any subset keys
    # the table correctly
    req = gap_matrix(all_pairs_distances(build_product_graph(ProductParams(2, 1)).graph))
    budgets = range(0, 1881, 47)
    expected = _uncached_at_every_budget(req, budgets)
    with mock.patch.multiple(
        search,
        _GROUP_LIMIT=limit or search._GROUP_LIMIT,
        _GROUP_STEPS=steps or search._GROUP_STEPS,
    ):
        group = _automorphisms(req)
        assert group[0] == list(range(8)) and len(group) == kept
        for node_limit, result in zip(budgets, expected):
            assert minimize_span(req, node_limit) == result


@st.composite
def system_with_automorphism(draw):
    """A gap matrix, not always symmetric, kept by a random permutation.

    Each orbit of ordered pairs, diagonal pairs included, under the
    permutation gets one random value.
    """
    nv = draw(st.integers(1, 6))
    sigma = draw(st.permutations(range(nv)))
    top = draw(st.sampled_from([1, 3]))
    req = [[None] * nv for _ in range(nv)]
    for a, b in itertools.product(range(nv), repeat=2):
        value = draw(st.integers(0, top))
        x, y = a, b
        while req[x][y] is None:
            req[x][y] = value
            x, y = sigma[x], sigma[y]
    return req, list(sigma)


@settings(max_examples=200, deadline=None)
@given(system_with_automorphism())
def test_automorphisms_match_brute_force(case):
    req, sigma = case
    nv = len(req)
    expected = [
        list(p)
        for p in itertools.permutations(range(nv))
        if all(req[p[a]][p[b]] == req[a][b] for a in range(nv) for b in range(nv))
    ]
    group = _automorphisms(req)
    assert group[0] == list(range(nv))
    if len(expected) <= search._GROUP_LIMIT:
        assert sorted(group) == expected
        assert sigma in group
    else:
        assert len(group) == search._GROUP_LIMIT
        assert all(p in expected for p in group)


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


@st.composite
def ranked_vertices(draw):
    """A connected graph, its vertices in some order, and ascending labels
    for them with repeats, as int64 or as an object array above int64."""
    g = draw(connected_graph(8))
    ids = np.array(draw(st.permutations(range(g.num_vertices))), dtype=np.intp)
    ranked = np.cumsum(draw(st.lists(st.integers(0, 4), min_size=len(ids), max_size=len(ids))))
    if draw(st.booleans()):
        ranked = np.array([2**70 + int(x) for x in ranked], dtype=object)
    return g, ids, ranked


@settings(max_examples=150, deadline=None)
@given(ranked_vertices(), st.sampled_from([1, 2, 3]))
def test_short_pairs_match_a_double_loop(case, first):
    g, ids, ranked = case
    dm = all_pairs_distances(g)
    expected = []
    for p in range(len(ranked)):
        for q in range(p + first, len(ranked)):
            gap, required = ranked[q] - ranked[p], dm.diameter + 1 - dm[int(ids[p]), int(ids[q])]
            if gap < required:
                expected.append((p, q, int(gap), required))
    short = _short_pairs(dm, ids, ranked, first)
    assert (short is None) == (not expected)
    if short is not None:
        assert sorted(zip(*(a.tolist() for a in short))) == expected


@settings(max_examples=60, deadline=None)
@given(corpus)
def test_bfs_distances_are_symmetric(g):
    dm = all_pairs_distances(g)
    assert np.array_equal(dm.matrix, dm.matrix.T)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 5))
def test_factored_product_distances_equal_bfs(m, n):
    g = build_product_graph(ProductParams(m, n)).graph
    factored = all_pairs_distances(g).matrix
    assert factored.dtype == np.int16
    assert np.array_equal(factored, bfs_all_pairs(g).matrix)


# small simple graphs, connected or not, so UNREACHABLE entries occur
small_graphs = st.integers(1, 5).flatmap(
    lambda nv: st.sets(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)))
    .map(lambda pairs: Graph(nv, {(min(p), max(p)) for p in pairs if p[0] != p[1]}))
)


@settings(max_examples=60, deadline=None)
# up to four factors, so the right-nested products recurse two levels deep
@given(
    st.lists(small_graphs, min_size=2, max_size=4).filter(
        lambda fs: math.prod(f.num_vertices for f in fs) <= 64
    )
)
@example([Graph(2, []), build_path(2)])  # a disconnected factor: refused
@example([build_path(2), Graph(2, []), build_path(2)])  # disconnected inside the inner product
@example([build_path(2), build_star(1), Graph(3, [(0, 1)]), build_path(2)])  # disconnected two levels down
@example([build_path(3), build_path(1)])  # a one-vertex second factor, summed like any other
def test_factored_distances_equal_bfs_on_random_products(factors):
    g = cartesian_product(factors)
    # the product's adjacency is laid out from the factors' adjacency
    assert g.adjacency == Graph(g.num_vertices, g.edges()).adjacency
    bfs = bfs_all_pairs(g)
    if bfs.matrix.min() == UNREACHABLE:
        # a sum with an UNREACHABLE term is not a distance, and no
        # matrix of a disconnected graph meets the certificate
        with pytest.raises(DisconnectedGraphError):
            all_pairs_distances(g)
        assert not certify_distances(g, bfs)
        with pytest.raises(DisconnectedGraphError):
            bfs.diameter
        return
    factored = all_pairs_distances(g)
    nv = g.num_vertices
    # the certificate through the factors agrees with the dense check of
    # BFS's matrix on the same edges, a plain graph with no factors
    assert certify_distances(g, factored) == certify_distances(Graph(nv, g.edges()), bfs)
    # the single and vectorised factor lookups, before any N x N matrix
    us, vs = np.divmod(np.arange(nv * nv), nv)
    looked_up = factored.pairs(us, vs)
    assert looked_up.dtype == bfs.matrix.dtype
    assert np.array_equal(looked_up.reshape(nv, nv), bfs.matrix)
    assert [factored[u, v] for u in range(nv) for v in range(nv)] == bfs.matrix.ravel().tolist()
    assert np.array_equal(factored.matrix, bfs.matrix)
    # the factored diameter is the factors' sum, BFS's is the matrix maximum
    assert factored.diameter == bfs.diameter


# every product the default verify grid builds
_GRID = VerifyConfig()
grid_products = st.sampled_from(
    [(m, n) for m in _GRID.even_m + _GRID.odd_m for n in _GRID.ns]
).map(lambda mn: build_product_graph(ProductParams(*mn)).graph)


@settings(max_examples=100, deadline=None)
@given(connected_graph(12))
def test_certificate_accepts_the_bfs_matrix(g):
    assert certify_distances(g, bfs_all_pairs(g))


@pytest.mark.parametrize("m", _GRID.even_m + _GRID.odd_m)
@pytest.mark.parametrize("n", _GRID.ns)
def test_certificate_accepts_every_default_grid_product(m, n):
    g = build_product_graph(ProductParams(m, n)).graph
    factored, bfs = all_pairs_distances(g), bfs_all_pairs(g)
    assert certify_distances(g, factored)
    # BFS's dense matrix takes the dense check, with or without the factors
    assert certify_distances(g, bfs)
    assert certify_distances(Graph(g.num_vertices, g.edges()), bfs)
    assert np.array_equal(factored.matrix, bfs.matrix)


@settings(max_examples=200, deadline=None)
@given(st.one_of(connected_graph(12), grid_products), st.data())
def test_certificate_rejects_an_entry_changed_by_one_or_two(g, data):
    matrix = bfs_all_pairs(g).matrix.copy()
    nv = g.num_vertices
    u, w = data.draw(st.integers(0, nv - 1)), data.draw(st.integers(0, nv - 1))
    delta = data.draw(st.sampled_from([-2, -1, 1, 2]))
    matrix[u, w] += delta
    if data.draw(st.booleans()) and u != w:
        matrix[w, u] += delta  # the same change, kept symmetric
    assert not certify_distances(g, DistanceMatrix(matrix))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int8, np.int16])
def test_certificate_takes_every_integer_dtype(dtype):
    path = build_path(5)
    dense = bfs_all_pairs(path).matrix.astype(dtype)
    assert certify_distances(path, DistanceMatrix(dense))
    g = build_product_graph(ProductParams(3, 2)).graph
    tables = [bfs_all_pairs(f).matrix.astype(dtype) for f in g.factors]
    assert certify_distances(g, DistanceMatrix.from_factors(*tables))
    # one entry raised, in the dense table and in a factor
    dense[1, 3] += 1
    assert not certify_distances(path, DistanceMatrix(dense))
    tables[1][0, 2] += 1
    assert not certify_distances(g, DistanceMatrix.from_factors(*tables))


@settings(max_examples=100, deadline=None)
@given(st.one_of(connected_graph(12), grid_products), st.data())
def test_certificate_rejects_an_unreachable_entry_and_a_nonzero_diagonal(g, data):
    bfs = bfs_all_pairs(g).matrix
    nv = g.num_vertices
    u, w = data.draw(st.integers(0, nv - 1)), data.draw(st.integers(0, nv - 1))
    unreachable = bfs.copy()
    unreachable[u, w] = UNREACHABLE
    assert not certify_distances(g, DistanceMatrix(unreachable))
    diagonal = bfs.copy()
    diagonal[u, u] = data.draw(st.integers(1, 2 * nv))
    assert not certify_distances(g, DistanceMatrix(diagonal))


@settings(max_examples=100, deadline=None)
@given(st.lists(connected_graph(6), min_size=2, max_size=3), st.integers(0, 20))
@example([build_path(1), build_path(1)], 0)  # two isolated vertices
def test_certificate_rejects_a_disconnected_graph(parts, fill):
    # the disjoint union of the parts, so no pair across two parts is reachable
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.num_vertices
    g = Graph(offset, edges)
    bfs = bfs_all_pairs(g).matrix
    assert bfs.min() == UNREACHABLE
    assert not certify_distances(g, DistanceMatrix(bfs))
    # no matrix of entries >= 0 passes either: the layer condition
    # would walk every vertex to every other
    filled = np.where(bfs == UNREACHABLE, fill, bfs).astype(bfs.dtype)
    assert not certify_distances(g, DistanceMatrix(filled))


def test_certificate_rejects_another_graphs_matrix():
    path, star = build_path(4), build_star(3)
    assert certify_distances(path, bfs_all_pairs(path))
    assert certify_distances(star, bfs_all_pairs(star))
    assert not certify_distances(path, bfs_all_pairs(star))
    assert not certify_distances(star, bfs_all_pairs(path))
    assert not certify_distances(path, bfs_all_pairs(build_path(3)))
    # a product's factor matrices of swapped sizes are P_4 x P_3's
    g = cartesian_product([build_path(3), path])
    p3, p4 = bfs_all_pairs(build_path(3)).matrix, bfs_all_pairs(path).matrix
    assert certify_distances(g, DistanceMatrix.from_factors(p3, p4))
    assert not certify_distances(g, DistanceMatrix.from_factors(p4, p3))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(1, 5), st.data())
def test_factor_certificate_rejects_a_factor_entry_off_by_one(m, n, data):
    g = build_product_graph(ProductParams(m, n)).graph
    tables = [bfs_all_pairs(f).matrix.astype(np.int16) for f in g.factors]
    assert certify_distances(g, DistanceMatrix.from_factors(*tables))
    table = tables[data.draw(st.integers(0, 1))]
    u, w = (data.draw(st.integers(0, len(table) - 1)) for _ in range(2))
    # a 0 lowered would be UNREACHABLE, which from_factors refuses
    table[u, w] += data.draw(st.sampled_from([-1, 1])) if table[u, w] else 1
    assert not certify_distances(g, DistanceMatrix.from_factors(*tables))


def test_certificate_rejects_a_star_whose_hub_is_not_vertex_0():
    star, path = build_star(3), build_path(3)
    true_star, p = bfs_all_pairs(star).matrix, bfs_all_pairs(path).matrix
    moved = true_star[np.ix_([1, 0, 2, 3], [1, 0, 2, 3])]  # the hub is vertex 1
    assert not certify_distances(star, DistanceMatrix(moved))
    # as a factor, and inside the mesh-by-star product's fiber row
    product = cartesian_product([path, star])
    assert certify_distances(product, DistanceMatrix.from_factors(p, true_star))
    assert not certify_distances(product, DistanceMatrix.from_factors(p, moved))
    g = build_product_graph(ProductParams(3, 3)).graph
    for star_table, certified in ((true_star, True), (moved, False)):
        row = DistanceMatrix.from_factors(p, star_table).matrix
        assert certify_distances(g, DistanceMatrix.from_factors(p, row)) is certified


@settings(max_examples=100, deadline=None)
@given(grid_products, st.data())
def test_certificate_rejects_the_product_with_one_edge_dropped(g, data):
    edges = g.edges()
    drop = data.draw(st.integers(0, len(edges) - 1))
    dropped = Graph(g.num_vertices, edges[:drop] + edges[drop + 1:])
    assert not certify_distances(dropped, all_pairs_distances(g))



@st.composite
def gap_case(draw):
    """A connected graph, random or a product of 2-3 connected factors; its
    factored or dense BFS matrix; and a vertex list: none (the default),
    the whole graph, a subset, one with a repeated id, or empty."""
    g = draw(
        st.one_of(
            connected_graph(8),
            st.lists(connected_graph(3), min_size=2, max_size=3).map(cartesian_product),
        )
    )
    dm = draw(st.sampled_from([all_pairs_distances, bfs_all_pairs]))(g)
    ids = st.integers(0, g.num_vertices - 1)
    vertices = draw(
        st.one_of(
            st.none(),
            st.just(list(range(g.num_vertices))),
            st.lists(ids, unique=True),
            st.lists(ids, min_size=1).map(lambda vs: vs + vs[:1]),
            st.just([]),
        )
    )
    return dm, vertices


@settings(max_examples=150, deadline=None)
@given(gap_case())
def test_gap_matrix_equals_the_dense_definition(case):
    dm, vertices = case
    if vertices is not None and len(set(vertices)) < len(vertices):  # rejected, naming the least repeat
        least = min(v for v in vertices if vertices.count(v) > 1)
        with pytest.raises(InvalidParameterError, match=f"^vertex {least} repeated$"):
            gap_matrix(dm, vertices)
        return
    req = gap_matrix(dm, vertices)
    # looked up pair by pair: the dense matrix is not built
    assert "matrix" not in vars(dm)
    v = list(range(dm.num_vertices)) if vertices is None else vertices
    assert req == (dm.diameter + 1 - dm.matrix[np.ix_(v, v)]).tolist()
    if vertices == []:
        with pytest.raises(InvalidParameterError, match="empty constraint system"):
            minimize_span(req)


def _naive_violations(dm, labels):
    base = dm.diameter + 1
    found = []
    for u in range(len(labels)):
        for v in range(u + 1, len(labels)):
            required = base - dm[u, v]
            actual = abs(labels[u] - labels[v])
            if actual < required:
                found.append((u, v, required, actual))
    return tuple(found)


# products, random connected graphs, and paths, whose diameter is large
# against their vertex count
validate_graphs = st.one_of(
    st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]).map(
        lambda mn: build_product_graph(ProductParams(*mn)).graph
    ),
    connected_graph(10),
    st.integers(1, 12).map(build_path),
)
# corrupted labels, including values at and past the int64 limit
_corruption = st.one_of(st.integers(0, 60), st.sampled_from([2**63 - 1, 2**63, 10**30]))


@st.composite
def labeled_graph(draw):
    """A graph, its distances and a labeling that is often invalid.

    Besides greedy labelings, labels are random in [0, 3N], drawn from
    three values, all equal, or spaced diam - 1, diam or diam + 1 apart
    in a random order, so pairs sit on both sides of the label window.
    A shift may then put the largest label at the int64 limit or just
    past it, or add 10**30.
    """
    g = draw(validate_graphs)
    nv = g.num_vertices
    dm = all_pairs_distances(g)
    diam = dm.diameter
    kind = draw(st.sampled_from(["greedy", "random", "few values", "equal", "window edges"]))
    if kind == "greedy":
        order = draw(st.permutations(range(nv)))
        # Python ints: a shift below may pass int64
        labels = greedy_assign(g, dm, OrderingPlan(tuple(order))).labels.tolist()
    elif kind == "random":
        labels = draw(st.lists(st.integers(0, 3 * nv), min_size=nv, max_size=nv))
    elif kind == "few values":
        labels = draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv))
    elif kind == "equal":
        labels = [draw(st.integers(0, 5))] * nv
    else:
        order = draw(st.permutations(range(nv)))
        gaps = draw(
            st.lists(st.sampled_from([diam - 1, diam, diam + 1]), min_size=nv, max_size=nv)
        )
        labels = [0] * nv
        total = 1  # the first gap is -1 on a single vertex
        for v, gap in zip(order, gaps):
            total += gap
            labels[v] = total
    for v, label in draw(st.lists(st.tuples(st.integers(0, nv - 1), _corruption), max_size=4)):
        labels[v] = label
    top = max(labels)
    shift = draw(st.sampled_from([0, max(0, 2**63 - 1 - top), max(0, 2**63 - top), 10**30]))
    return g, dm, [x + shift for x in labels]


@settings(max_examples=200, deadline=None)
@given(labeled_graph())
def test_validate_matches_naive_double_loop(case):
    g, dm, labels = case
    report = validate(g, dm, Labeling(tuple(labels)))
    assert report.violations == _naive_violations(dm, labels)
    assert report.valid == (not report.violations)


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
    assert 0 <= row < m and 0 <= col < m


# Lines assembled from grammar tokens, so inputs reach the labeling
# parser's structural checks and not only its integer parsing. Numbers
# stop at 10**6 so that a regression costs a few hundred MB, not all
# memory.
_number = st.one_of(st.integers(-3, 12), st.integers(13, 10**6)).map(str)
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
