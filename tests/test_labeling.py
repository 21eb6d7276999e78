import random
from unittest import mock

import numpy as np
import pytest

from radiomesh import (
    CellIndexing,
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    InvalidParameterError,
    Labeling,
    LabelingContractError,
    OrderingPlan,
    ProductParams,
    all_pairs_distances,
    build_construction_labeling,
    build_path,
    build_product_graph,
    build_star,
    consecutive_only_assign,
    construction_ordering,
    greedy_assign,
    validate,
)
from radiomesh import labeling


@pytest.fixture
def p3():
    g = build_path(3)
    return g, all_pairs_distances(g)


def test_single_edge_labeling_is_valid():
    g = build_path(2)
    dm = all_pairs_distances(g)
    assert validate(g, dm, Labeling((0, 1))).valid


def test_p3_valid_and_invalid(p3):
    g, dm = p3
    assert validate(g, dm, Labeling((0, 3, 1))).valid

    report = validate(g, dm, Labeling((0, 1, 2)))
    assert not report.valid
    # the adjacent pair (0, 1) needs a gap of diam + 1 - 1 = 2
    assert (0, 1, 2, 1) in report.violations


def test_star_labeling_hub_zero():
    g = build_star(2)
    dm = all_pairs_distances(g)
    labeling = Labeling((0, 2, 3))
    assert validate(g, dm, labeling).valid
    assert labeling.span == 3


def test_validate_contract_errors(p3):
    g, dm = p3
    with pytest.raises(LabelingContractError):
        validate(g, dm, Labeling((0, 1)))
    other = build_star(2)
    with pytest.raises(LabelingContractError):
        validate(g, dm, Labeling((0, 1, 2), graph=other))


@pytest.mark.parametrize("nv", [2, 5])
def test_validate_rejects_distance_matrix_of_another_size(p3, nv):
    g, _dm = p3
    with pytest.raises(InvalidParameterError):
        validate(g, all_pairs_distances(build_path(nv)), Labeling((0, 3, 1)))


def test_labels_must_be_non_negative():
    with pytest.raises(InvalidParameterError):
        Labeling((0, -1))


@pytest.mark.parametrize(
    "labels",
    [
        (0.5, 1.4),
        (0.0, 2.0),
        (0, 1.0),
        (0, 2, 4.5),
        ("a", "b"),
        (0, "1"),
        (0, None),
        (True, False),
        (0, True),
        (np.bool_(True), 0),
        np.array([True, False]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0], dtype=object),
        ((0, 1), (2, 3)),
        np.arange(4).reshape(2, 2),
        5,
        np.array(5),
    ],
    ids=[
        "float",
        "integral-float",
        "int-then-float",
        "mixed-last",
        "string",
        "int-then-string",
        "none",
        "bool",
        "int-then-bool",
        "numpy-bool",
        "bool-array",
        "float-array",
        "float-object-array",
        "nested",
        "2-d-array",
        "scalar",
        "0-d-array",
    ],
)
def test_labels_must_be_integers(labels):
    # a float label would be truncated by validate and the file writer,
    # and a bool would validate as 0 or 1
    with pytest.raises(InvalidParameterError, match="labels must be integers"):
        Labeling(labels)


def test_numpy_integer_labels_are_accepted():
    labeling = Labeling((np.int64(0), np.int32(3), np.uint8(5), 2))
    assert labeling.span == 5


@pytest.mark.parametrize("values", [(0, 7, 3), (2**62, 0, 9)])
def test_labels_are_one_read_only_int64_array_from_any_integer_container(values):
    labeling = Labeling(values)
    assert labeling.labels.dtype == np.int64 and not labeling.labels.flags.writeable
    assert labeling.labels.tolist() == list(values)
    with pytest.raises(ValueError):
        labeling.labels[:1] = 0
    assert type(labeling.span) is int and labeling.span == max(values) - min(values)
    sources = [list(values), np.array(values, dtype=np.int64), np.array(values, dtype=object)]
    if max(values) < 2**15:
        sources += [np.array(values, dtype=np.int32), np.array(values, dtype=np.uint16)]
    for source in sources:
        built = Labeling(source, graph=build_path(3))
        # equal and hashed alike whatever the container, and the graph takes no part
        assert built == labeling and hash(built) == hash(labeling)
        assert built.labels.dtype == np.int64
        if isinstance(source, np.ndarray):
            # a copy: writing to the caller's array leaves the labeling as it was
            source[0] = 1
            assert built.labels.tolist() == list(values)
    assert Labeling((0, 7, 4)) != Labeling((0, 7, 3))


@pytest.mark.parametrize(
    "values, exact",
    [
        ((np.uint64(2**63 + 5), 0), [2**63 + 5, 0]),
        ((2**70, 3), [2**70, 3]),
        ((np.uint64(2**64 - 1), np.int8(2), 2**63), [2**64 - 1, 2, 2**63]),
        (np.array([2**64 - 1, 4], dtype=np.uint64), [2**64 - 1, 4]),
    ],
    ids=["uint64-beside-int", "python-int", "mixed", "uint64-array"],
)
def test_labels_above_int64_are_an_object_array_of_python_ints(values, exact):
    labeling = Labeling(values)
    assert labeling.labels.dtype == object and not labeling.labels.flags.writeable
    assert labeling.labels.tolist() == exact
    assert all(type(label) is int for label in labeling.labels.tolist())
    assert type(labeling.span) is int and labeling.span == max(exact) - min(exact)
    # hashed by value: a second array of the same ints holds other objects
    again = Labeling(tuple(labeling.labels.tolist()))
    assert again == labeling and hash(again) == hash(labeling)


@pytest.mark.parametrize("label", [np.int64(0), np.uint64(2**64 - 1), 2**70])
def test_violation_fields_are_python_ints(label):
    g = build_path(2)
    report = validate(g, all_pairs_distances(g), Labeling((label, label)))
    assert report.violations == ((0, 1, 1, 0),)
    assert all(type(field) is int for field in report.violations[0])


def test_ordering_plan_must_be_permutation():
    with pytest.raises(InvalidParameterError):
        OrderingPlan((0, 0, 1))


@pytest.mark.parametrize(
    "sequence",
    [
        (0, 2, 2),
        (0, 1, 3),
        (0, -1, 1),
        (0, 1, 2, 4),
        (1, 2, 3),
        (-1, 0, 1),
        (0, 2, 1, 3, 3),
        (0.0, 1.0, 2.0),
        ("0", "1", "2"),
        np.arange(4).reshape(2, 2),
        np.arange(3).reshape(3, 1),
        np.zeros((0, 3), dtype=np.int64),
        np.arange(3.0),
        (0, True),
        (0, 1, 2**64),
        3,
        np.array(3),
    ],
    ids=[
        "duplicate",
        "missing",
        "negative",
        "too-large",
        "shifted",
        "negative-shifted",
        "duplicate-last",
        "float",
        "string",
        "2-d-array",
        "column-array",
        "empty-2-d-array",
        "float-array",
        "int-then-bool",
        "above-int64",
        "scalar",
        "0-d-array",
    ],
)
def test_ordering_plan_rejects_every_non_permutation(sequence):
    with pytest.raises(InvalidParameterError, match="not a permutation"):
        OrderingPlan(sequence)


@pytest.mark.parametrize("sequence", [(), (0,), (2, 0, 1), tuple(range(720))[::-1]])
def test_ordering_plan_accepts_permutations(sequence):
    plan = OrderingPlan(sequence)
    # the plan is one read-only int64 array, compared and hashed by value
    assert plan.sequence.tolist() == list(sequence)
    assert plan.sequence.dtype == np.int64 and not plan.sequence.flags.writeable
    with pytest.raises(ValueError):
        plan.sequence[:1] = 0
    assert plan == OrderingPlan(sequence) and hash(plan) == hash(OrderingPlan(sequence))
    assert repr(plan) == f"OrderingPlan(sequence={np.array(sequence, dtype=np.int64)!r})"
    for dtype in (np.int64, np.int32, np.uint16):
        source = np.array(sequence, dtype=dtype)
        from_array = OrderingPlan(source)
        assert from_array == plan and hash(from_array) == hash(plan)
        # a copy: writing to the caller's array leaves the plan as it was
        source += 1
        assert from_array.sequence.tolist() == list(sequence)


def test_greedy_on_p2():
    g = build_path(2)
    dm = all_pairs_distances(g)
    out = greedy_assign(g, dm, OrderingPlan((0, 1)))
    assert out.labels.tolist() == [0, 1]
    assert isinstance(out.labels, np.ndarray) and out.labels.dtype == np.int64


def test_greedy_p3_endpoints_first(p3):
    g, dm = p3
    out = greedy_assign(g, dm, OrderingPlan((0, 2, 1)))
    assert out.labels.tolist() == [0, 3, 1]
    assert out.span == 3
    assert validate(g, dm, out).valid


def test_greedy_star_leaves_first():
    g = build_star(2)
    dm = all_pairs_distances(g)
    out = greedy_assign(g, dm, OrderingPlan((1, 2, 0)))
    # leaves get 0 and 1, the hub must clear both by 2
    assert out.labels.tolist() == [3, 0, 1]
    assert out.span == 3


def test_greedy_rejects_short_plan(p3):
    g, dm = p3
    with pytest.raises(InvalidParameterError):
        greedy_assign(g, dm, OrderingPlan((0, 1)))


@pytest.mark.parametrize("nv", [2, 5])
def test_greedy_rejects_distance_matrix_of_another_size(p3, nv):
    g, _dm = p3
    with pytest.raises(InvalidParameterError):
        greedy_assign(g, all_pairs_distances(build_path(nv)), OrderingPlan((0, 2, 1)))


@pytest.mark.parametrize("nv", [2, 5])
def test_consecutive_only_rejects_distance_matrix_of_another_size(p3, nv):
    g, _dm = p3
    with pytest.raises(InvalidParameterError):
        consecutive_only_assign(g, all_pairs_distances(build_path(nv)), OrderingPlan((0, 2, 1)))


def test_greedy_rejects_disconnected_matrix():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        greedy_assign(g, all_pairs_distances(g), OrderingPlan((0, 1, 2, 3)))


def _recorded_lookups(monkeypatch):
    """Every (u, v) that ``DistanceMatrix.pairs`` is asked for, in call order."""
    lookups = []
    original = DistanceMatrix.pairs

    def pairs(self, us, vs):
        lookups.extend(zip(us.tolist(), vs.tolist()))
        return original(self, us, vs)

    monkeypatch.setattr(DistanceMatrix, "pairs", pairs)
    return lookups


def _window_pairs(seq, consecutive, diam):
    """(u, v) pairs greedy must look up: the consecutive pairs of the plan,
    then every later pair whose consecutive-only labels lie within diam."""
    along = [consecutive[v] for v in seq]
    pairs = [(seq[i - 1], seq[i]) for i in range(1, len(seq))]
    for i in range(len(seq)):
        pairs += [(seq[j], seq[i]) for j in range(i - 1) if along[i] - along[j] < diam]
    return sorted(pairs)


def test_greedy_looks_up_only_the_label_window(monkeypatch):
    lookups = _recorded_lookups(monkeypatch)
    # star with the leaves first: the consecutive labels 0, 1, 2, 3, 4, 6
    # put no vertex within diam = 2 of the one two places before it
    g = build_star(5)
    out = greedy_assign(g, all_pairs_distances(g), OrderingPlan((1, 2, 3, 4, 5, 0)))
    assert out.labels.tolist() == [6, 0, 1, 2, 3, 4]
    assert lookups == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]

    g = build_product_graph(ProductParams(12, 4)).graph
    dm = all_pairs_distances(g)
    for seed in range(3):
        seq = list(range(g.num_vertices))
        random.Random(seed).shuffle(seq)
        plan = OrderingPlan(tuple(seq))
        consecutive = consecutive_only_assign(g, dm, plan).labels
        lookups.clear()
        greedy_assign(g, dm, plan)
        assert sorted(lookups) == _window_pairs(seq, consecutive, dm.diameter)
        assert len(lookups) < 4 * g.num_vertices


@pytest.mark.parametrize("indexing", list(CellIndexing))
def test_greedy_is_consecutive_exactly_when_consecutive_is_valid(indexing):
    invalid = []
    for m in range(2, 10):
        for n in range(1, 6):
            params = ProductParams(m, n)
            graph = build_product_graph(params).graph
            dm = all_pairs_distances(graph)
            built = build_construction_labeling(params, indexing)
            assert built.consecutive_valid == (built.greedy == built.consecutive)
            if not built.consecutive_valid:
                invalid.append((m, n))
            # the shared consecutive pass gives what separate calls give
            consecutive = consecutive_only_assign(graph, dm, built.ordering)
            assert built.greedy == greedy_assign(graph, dm, built.ordering)
            assert built.consecutive == consecutive
            assert built.consecutive_valid == validate(graph, dm, consecutive).valid
            # a span kept on one of two equal labelings leaves them equal
            assert "span" not in vars(built.consecutive)
            assert consecutive.span == max(consecutive.labels)
            assert consecutive == built.consecutive
            assert hash(consecutive) == hash(built.consecutive)
    expected = [(m, n) for m in (2, 3) for n in range(2, 6)] + [
        (m, n) for m in (6, 7) for n in range(1, 6)
    ]
    assert invalid == (expected if indexing is CellIndexing.SERPENTINE else [])


def test_construction_labelings_share_one_consecutive_pass():
    params = ProductParams(7, 3)
    graph = build_product_graph(params).graph
    dm = all_pairs_distances(graph)
    with mock.patch.object(labeling, "_consecutive_steps", wraps=labeling._consecutive_steps) as steps:
        build_construction_labeling(params, CellIndexing.SERPENTINE)
        assert steps.call_count == 1
    # greedy_assign on its own lays out no consecutive-only labeling
    with mock.patch.object(labeling, "_by_vertex", wraps=labeling._by_vertex) as by_vertex:
        greedy_assign(graph, dm, construction_ordering(params))
        assert by_vertex.call_count == 1


def test_greedy_counts_earlier_repairs():
    # P5 visited 2, 1, 4, 0, 3 (diam 4): the consecutive labels 0, 4, 6, 7,
    # 9 leave the pairs (1, 0) and (4, 3) one short each. Raising vertex 0
    # by one raises vertex 3 by one too, which already repairs (4, 3).
    g = build_path(5)
    dm = all_pairs_distances(g)
    seq = (2, 1, 4, 0, 3)
    consecutive = consecutive_only_assign(g, dm, OrderingPlan(seq)).labels
    assert [consecutive[v] for v in seq] == [0, 4, 6, 7, 9]
    base = dm.diameter + 1
    expected = [0] * g.num_vertices
    for i in range(1, len(seq)):
        expected[seq[i]] = max(expected[u] + base - dm[u, seq[i]] for u in seq[:i])
    labels = greedy_assign(g, dm, OrderingPlan(seq)).labels
    assert labels.tolist() == expected
    assert [labels[v] for v in seq] == [0, 4, 6, 8, 10]


def test_consecutive_only_on_p2():
    g = build_path(2)
    dm = all_pairs_distances(g)
    out = consecutive_only_assign(g, dm, OrderingPlan((0, 1)))
    assert out.labels.tolist() == [0, 1]


def test_consecutive_only_telescopes(p3):
    g, dm = p3
    plan = OrderingPlan((1, 0, 2))
    out = consecutive_only_assign(g, dm, plan)
    base = dm.diameter + 1
    total = sum(
        base - dm[plan.sequence[i - 1], plan.sequence[i]]
        for i in range(1, len(plan.sequence))
    )
    assert out.labels[plan.sequence[-1]] == total


def test_validate_is_shift_invariant(p3):
    g, dm = p3
    plan = OrderingPlan((2, 0, 1))
    labeling = greedy_assign(g, dm, plan)
    shifted = Labeling(tuple(x + 7 for x in labeling.labels), graph=g)
    assert validate(g, dm, labeling).valid
    assert validate(g, dm, shifted).valid


@pytest.mark.parametrize("kind", ["identity", "reversed", "shuffled"])
def test_greedy_labels_pass_int16(kind):
    g = build_path(300)  # diameter 299, so spans pass the int16 distances
    dm = all_pairs_distances(g)
    seq = list(range(g.num_vertices))
    if kind == "reversed":
        seq.reverse()
    elif kind == "shuffled":
        random.Random(5).shuffle(seq)
    base = dm.diameter + 1
    dist = dm.matrix.tolist()
    expected = [0] * g.num_vertices
    for i in range(1, len(seq)):
        v = seq[i]
        expected[v] = max(expected[u] + base - dist[u][v] for u in seq[:i])
    labeling = greedy_assign(g, dm, OrderingPlan(tuple(seq)))
    assert labeling.span > np.iinfo(np.int16).max
    assert labeling.labels.tolist() == expected
    assert validate(g, dm, labeling).valid


def _floor_greedy(dm, seq):
    """The running-floor greedy: each placement raises every vertex's floor."""
    gaps = dm.diameter + 1 - dm.matrix.astype(np.int64)
    floor = np.zeros(dm.num_vertices, dtype=np.int64)
    labels = [0] * dm.num_vertices
    for v in seq:
        labels[v] = int(floor[v])
        np.maximum(floor, gaps[v] + labels[v], out=floor)
    return labels


def test_greedy_matches_floor_loop_at_12_4():
    params = ProductParams(12, 4)
    g = build_product_graph(params).graph  # 720 vertices
    dm = all_pairs_distances(g)
    orders = [list(construction_ordering(params).sequence)]
    for seed in range(4):
        seq = list(range(g.num_vertices))
        random.Random(seed).shuffle(seq)
        orders.append(seq)
    for seq in orders:
        assert greedy_assign(g, dm, OrderingPlan(tuple(seq))).labels.tolist() == _floor_greedy(dm, seq)


def test_validate_label_window():
    g = build_product_graph(ProductParams(12, 4)).graph  # 720 vertices
    dm = all_pairs_distances(g)
    diam = dm.diameter
    labels = list(greedy_assign(g, dm, OrderingPlan(tuple(range(g.num_vertices)))).labels)
    labels[700] = labels[10]  # a late vertex takes an early vertex's label
    labels[5] = labels[300]  # and an early one a later one's
    labels[650] = labels[400]
    # adjacent pairs (requirement diam) planted far above every greedy
    # label: a gap of diam - 1 breaks, a gap of diam does not
    short, exact, apart = (
        (a, int(np.flatnonzero(dm.matrix[a] == 1)[0])) for a in (100, 200, 500)
    )
    top = max(labels) + 10 * diam
    labels[short[0]], labels[short[1]] = top, top + diam - 1
    labels[exact[0]], labels[exact[1]] = top + 10 * diam, top + 11 * diam
    # an adjacent pair two places apart in label order, with vertex 600
    # between them, so only offset 2 reaches it
    last = top + 20 * diam
    labels[apart[0]], labels[600], labels[apart[1]] = last, last + 1, last + 2
    report = validate(g, dm, Labeling(tuple(labels)))

    arr = np.array(labels)
    required = diam + 1 - dm.matrix.astype(np.int64)
    actual = np.abs(arr[:, None] - arr[None, :])
    us, vs = np.nonzero(np.triu(actual < required, k=1))
    expected = tuple(
        zip(us.tolist(), vs.tolist(), required[us, vs].tolist(), actual[us, vs].tolist())
    )
    assert report.violations == expected
    reported = {(u, v): (req, act) for u, v, req, act in report.violations}
    assert {(10, 700), (5, 300), (400, 650)} <= reported.keys()
    assert reported[tuple(sorted(short))] == (diam, diam - 1)
    assert tuple(sorted(exact)) not in reported
    assert reported[tuple(sorted(apart))] == (diam, 2)
