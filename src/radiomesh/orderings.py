"""Pair-walk vertex orderings over the mesh-by-star product.

For even mesh order the construction pairs fiber t(j) with
t(j + m*m/2) and walks each pair in a strict two-copy zigzag. For odd
mesh order it runs three phases: zigzag pairs over the first m*(m-1)
cells, paired walks over the interior of the last row, and three
distinguished last-row fibers traversed by short hub/leaf paths.

Greedy realization of these orderings always yields a valid labeling;
the consecutive-only realization reproduces the telescoped sums that the
closed-form span claims rest on, and is generally invalid. Both spans
are reported side by side so the claims harness can compare them with
the catalog values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import all_pairs_distances
from .labeling import Labeling, OrderingPlan, greedy_and_consecutive, validate
from .product import (
    CellIndexing,
    ParityError,
    ProductParams,
    build_product_graph,
    cells_of,
    pair_offset,
)


def _zigzag_sides(n: int) -> tuple[list[int], list[int]]:
    """Per-copy visit sequences (1-based fiber positions) for one pair.

    Side A: hub, even positions ascending, then odd leaf positions; side
    B: hub, odd positions from 3, then even positions. Interleaved
    strictly A, B, A, B this is the unique alternation whose prefix is
    A(1), B(1), A(2), B(3), A(4), ... and which still covers both fibers.
    """
    side_a = [1] + list(range(2, n + 2, 2)) + list(range(3, n + 2, 2))
    side_b = [1] + list(range(3, n + 2, 2)) + list(range(2, n + 2, 2))
    return side_a, side_b


def _interior_sides(n: int) -> tuple[list[int], list[int]]:
    """Visit sequences for a last-row interior pair (odd mesh order).

    The walk raises the fiber position by one at every step, alternating
    copies (x1, y2, x3, y4, ...), then continues the alternation over the
    complementary positions of each copy.
    """
    side_x = list(range(1, n + 2, 2)) + list(range(2, n + 2, 2))
    side_y = list(range(2, n + 2, 2)) + list(range(1, n + 2, 2))
    return side_x, side_y


def _hubs(params: ProductParams, indexing: CellIndexing) -> np.ndarray:
    """Hub id of every fiber, by t-index; fiber t's position k is ``hubs[t] + k - 1``.

    Position 1 is the hub and position k >= 2 leaf k - 1, as in
    :func:`fiber_vertex_id`, but laid out for every cell at once from
    :func:`cells_of`'s t-index arithmetic. Entry 0 is unused, so
    t-indices read as they are.
    """
    m = params.m
    rows, cols = cells_of(np.arange(1, m * m + 1, dtype=np.int64), m, indexing)
    hubs = np.zeros(m * m + 1, dtype=np.int64)
    hubs[1:] = (rows * m + cols) * (params.n + 1)
    return hubs


def _pair_walks(hubs_a: np.ndarray, hubs_b: np.ndarray, seq_a: list[int], seq_b: list[int]) -> np.ndarray:
    """Walks of the fiber pairs (hubs_a[i], hubs_b[i]), one pair after the other.

    Each walk alternates a, b, a, b, ... through positions ``seq_a`` of
    fiber a and ``seq_b`` of fiber b: every id is a hub plus a position
    offset, laid out at once for all pairs.
    """
    walks = np.empty((len(hubs_a), len(seq_a), 2), dtype=np.int64)
    walks[:, :, 0] = hubs_a[:, None] + np.subtract(seq_a, 1)
    walks[:, :, 1] = hubs_b[:, None] + np.subtract(seq_b, 1)
    return walks.ravel()


def _zigzag_pairs(params: ProductParams, hubs: np.ndarray) -> np.ndarray:
    """Zigzag walks of the pairs (t(j), t(j + h)) for j in [1, h], h = :func:`pair_offset`.

    Built from the hub ids of the two runs of fibers and the side
    sequences of :func:`_zigzag_sides`, not one pair at a time.
    """
    half = pair_offset(params)
    return _pair_walks(hubs[1 : half + 1], hubs[half + 1 : 2 * half + 1], *_zigzag_sides(params.n))


def even_pair_ordering(
    params: ProductParams, indexing: CellIndexing = CellIndexing.ROW_MAJOR
) -> OrderingPlan:
    """Visit order for even mesh order: zigzag the pairs (t(j), t(j + m*m/2))."""
    if params.m % 2:
        raise ParityError(f"even pair ordering needs even mesh order, got m={params.m}")
    return OrderingPlan(_zigzag_pairs(params, _hubs(params, indexing)))


def odd_three_phase_ordering(
    params: ProductParams, indexing: CellIndexing = CellIndexing.ROW_MAJOR
) -> OrderingPlan:
    """Visit order for odd mesh order, in three phases.

    Phase 1 zigzags the pairs (t(x), t(x + m*(m-1)/2)) over the first
    m*(m-1) cells. Phase 2 pairs the last-row interior cells d and
    d + (m-1)/2 for d in [2, (m-1)/2]; that offset (not (m+1)/2, which
    would collide with the distinguished last cell) is the one tiling
    the row around the three distinguished cells. Phase 3 walks the
    distinguished fibers t(1), t((m+1)/2), t(m) of the last row along
    endpoint-endpoint-midpoint paths, one fiber position triple at a
    time; positions beyond the fiber size are skipped, which also covers
    the empty leaf-path range when n < 3. Each phase is one array, and
    the plan is their concatenation.
    """
    m, n = params.m, params.n
    if m % 2 == 0:
        raise ParityError(f"three-phase ordering needs odd mesh order, got m={m}")
    hubs = _hubs(params, indexing)
    phase1 = _zigzag_pairs(params, hubs)

    base = m * (m - 1)
    shift = (m - 1) // 2
    interior = hubs[base + 2 : base + shift + 1]  # d in [2, (m-1)/2]
    phase2 = _pair_walks(interior, hubs[base + 2 + shift : base + 2 * shift + 1], *_interior_sides(n))

    # the (t-index, position) path table: three fixed paths over the
    # distinguished fibers, then one triple per position from 4
    first, last, mid = base + 1, base + m, base + (m + 1) // 2
    t_index = np.concatenate([
        [first, last, mid, last, first, mid, first, last, mid],
        np.tile([first, last, mid], max(n - 2, 0)),
    ])
    position = np.concatenate([[1, 2, 3, 1, 3, 2, 2, 3, 1], np.repeat(np.arange(4, n + 2), 3)])
    keep = position <= n + 1
    phase3 = hubs[t_index[keep]] + position[keep] - 1

    return OrderingPlan(np.concatenate([phase1, phase2, phase3]))


def construction_ordering(
    params: ProductParams, indexing: CellIndexing = CellIndexing.ROW_MAJOR
) -> OrderingPlan:
    """Parity-appropriate construction ordering."""
    if params.m % 2 == 0:
        return even_pair_ordering(params, indexing)
    return odd_three_phase_ordering(params, indexing)


@dataclass(frozen=True)
class ConstructionLabelings:
    """Both realizations of the construction ordering, with verdicts."""

    ordering: OrderingPlan
    greedy: Labeling
    consecutive: Labeling
    consecutive_valid: bool


def build_construction_labeling(
    params: ProductParams, indexing: CellIndexing = CellIndexing.ROW_MAJOR
) -> ConstructionLabelings:
    """Run both assignments over the construction ordering of the graph ``params`` fixes.

    Both labelings come from one consecutive pass over the ordering. The
    greedy labeling is valid by construction; the consecutive-only
    labeling is validated and reported as-is.
    """
    plan = construction_ordering(params, indexing)
    graph = build_product_graph(params).graph
    dm = all_pairs_distances(graph)
    greedy, consecutive = greedy_and_consecutive(graph, dm, plan)
    verdict = validate(graph, dm, consecutive)
    return ConstructionLabelings(plan, greedy, consecutive, verdict.valid)
