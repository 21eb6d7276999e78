import pytest

from radiomesh import (
    CellIndexing,
    ParityError,
    ProductParams,
    all_pairs_distances,
    build_construction_labeling,
    build_product_graph,
    consecutive_only_assign,
    construction_ordering,
    even_pair_ordering,
    exact_rn,
    fiber_vertex_id,
    odd_three_phase_ordering,
    validate,
    vertex_coord,
)
from radiomesh.orderings import _hubs, _interior_sides, _zigzag_sides
from radiomesh.product import pair_offset

RM = CellIndexing.ROW_MAJOR


@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("n", range(1, 5))
def test_orderings_are_permutations(m, n):
    params = ProductParams(m, n)
    plan = construction_ordering(params)
    assert sorted(plan.sequence) == list(range(params.num_vertices))


def _fiber_walk(params, indexing, t_a, t_b, seq_a, seq_b):
    out = []
    for ka, kb in zip(seq_a, seq_b):
        out.append(fiber_vertex_id(params, indexing, t_a, ka))
        out.append(fiber_vertex_id(params, indexing, t_b, kb))
    return out


def _per_vertex_construction_ordering(params, indexing):
    """The construction order with one range-checked fiber_vertex_id call per vertex."""
    m, n = params.m, params.n
    half = pair_offset(params)
    sequence = []
    for x in range(1, half + 1):
        sequence += _fiber_walk(params, indexing, x, x + half, *_zigzag_sides(n))
    if m % 2 == 0:
        return tuple(sequence)
    base = m * (m - 1)
    shift = (m - 1) // 2
    for d in range(2, (m - 1) // 2 + 1):
        sequence += _fiber_walk(params, indexing, base + d, base + d + shift, *_interior_sides(n))
    t_first, t_mid, t_last = base + 1, base + (m + 1) // 2, base + m
    paths = [
        [(t_first, 1), (t_last, 2), (t_mid, 3)],
        [(t_last, 1), (t_first, 3), (t_mid, 2)],
        [(t_first, 2), (t_last, 3), (t_mid, 1)],
    ]
    for position in range(4, n + 2):
        paths.append([(t_first, position), (t_last, position), (t_mid, position)])
    for path in paths:
        for t_index, position in path:
            if position <= n + 1:
                sequence.append(fiber_vertex_id(params, indexing, t_index, position))
    return tuple(sequence)


@pytest.mark.parametrize("scheme", list(CellIndexing))
@pytest.mark.parametrize("m", range(2, 10))
def test_construction_ordering_equals_per_vertex_walk(scheme, m):
    # n = 10 is the leaf count of the full-size checks; the benchmark runs n = 5
    for n in [*range(1, 7), *([10] if m <= 5 else [])]:
        params = ProductParams(m, n)
        expected = _per_vertex_construction_ordering(params, scheme)
        assert construction_ordering(params, scheme).sequence.tolist() == list(expected)


@pytest.mark.parametrize("scheme", list(CellIndexing))
def test_hubs_equal_fiber_vertex_ids(scheme):
    # the array layout against the range-checked one-cell path, over
    # both row parities of the serpentine flip and odd and even m
    for m in range(2, 13):
        for n in range(1, 5):
            params = ProductParams(m, n)
            hubs = _hubs(params, scheme)
            assert len(hubs) == m * m + 1
            for t in range(1, m * m + 1):
                assert hubs[t] == fiber_vertex_id(params, scheme, t, 1)


@pytest.mark.parametrize("scheme", list(CellIndexing))
def test_orderings_are_permutations_under_every_scheme(scheme):
    for m, n in [(4, 3), (5, 3)]:
        params = ProductParams(m, n)
        plan = construction_ordering(params, scheme)
        assert sorted(plan.sequence) == list(range(params.num_vertices))


def test_even_ordering_parity_guard():
    with pytest.raises(ParityError):
        even_pair_ordering(ProductParams(3, 2))
    with pytest.raises(ParityError):
        odd_three_phase_ordering(ProductParams(4, 2))


def test_even_ordering_smallest_case_starts_with_paired_hubs():
    params = ProductParams(2, 1)
    plan = even_pair_ordering(params)
    assert plan.sequence[0] == fiber_vertex_id(params, RM, 1, 1)
    assert plan.sequence[1] == fiber_vertex_id(params, RM, 3, 1)


def test_even_ordering_first_pair_for_m6():
    params = ProductParams(6, 4)
    plan = even_pair_ordering(params)
    assert plan.sequence[0] == fiber_vertex_id(params, RM, 1, 1)
    assert plan.sequence[1] == fiber_vertex_id(params, RM, 19, 1)


def test_even_zigzag_prefix_positions():
    # pair walk starts hub, hub, leaf 1, leaf 2 across alternating copies
    params = ProductParams(6, 4)
    plan = even_pair_ordering(params)
    positions = [vertex_coord(params, v).star for v in plan.sequence[:6]]
    assert positions == [0, 0, 1, 2, 3, 4]


def test_consecutive_label_after_half_mesh_hop():
    # hub-to-hub distance is m/2 under row-major, so the second label is
    # diam + 1 - m/2 = 3m/2 + 1 = 10 at m = 6
    params = ProductParams(6, 4)
    pg = build_product_graph(params)
    dm = all_pairs_distances(pg.graph)
    plan = even_pair_ordering(params)
    labels = consecutive_only_assign(pg.graph, dm, plan)
    assert labels.labels[plan.sequence[1]] == 10


def test_odd_ordering_phase1_pairs_m3():
    params = ProductParams(3, 1)
    plan = odd_three_phase_ordering(params)
    assert len(plan.sequence) == 18
    assert plan.sequence[0] == fiber_vertex_id(params, RM, 1, 1)
    assert plan.sequence[1] == fiber_vertex_id(params, RM, 4, 1)


def test_odd_ordering_phase3_cells_m5():
    params = ProductParams(5, 4)
    plan = odd_three_phase_ordering(params)
    tail = plan.sequence[-3 * (params.n + 1):]
    cells = {vertex_coord(params, v).row * 5 + vertex_coord(params, v).col + 1 for v in tail}
    assert cells == {21, 23, 25}


def test_odd_ordering_phase2_avoids_distinguished_cells():
    params = ProductParams(7, 1)
    plan = odd_three_phase_ordering(params)
    phase1_len = 7 * 6 * (params.n + 1)
    phase2_len = 2 * 2 * (params.n + 1)  # (m - 3)/2 pairs of two fibers
    phase2 = plan.sequence[phase1_len : phase1_len + phase2_len]
    cells = {vertex_coord(params, v).row * 7 + vertex_coord(params, v).col + 1 for v in phase2}
    assert cells == {44, 45, 47, 48}


def test_construction_greedy_is_valid_and_consecutive_reported():
    params = ProductParams(2, 2)
    built = build_construction_labeling(params)
    pg = build_product_graph(params)
    dm = all_pairs_distances(pg.graph)
    assert validate(pg.graph, dm, built.greedy).valid
    assert isinstance(built.consecutive_valid, bool)
    assert built.greedy.span <= built.consecutive.span


def test_greedy_span_upper_bounds_exact_rn():
    params = ProductParams(2, 1)
    pg = build_product_graph(params)
    built = build_construction_labeling(params)
    assert exact_rn(pg.graph).value <= built.greedy.span
