"""Claim adjudication: catalog values versus computed ground truth.

Each claim instantiates one catalog entry at concrete (m, n), computes
the corresponding observable with an oracle (BFS distance, BFS diameter,
exact span search, or exact rational evaluation), and issues a verdict:

* ``Match``       - the catalog value equals the oracle value exactly.
* ``Mismatch``    - they differ; for span bounds this includes the case
                    where a concrete valid labeling undercuts the claimed
                    bound, refuting it.
* ``Unverifiable``- no oracle settled the claim: the node budget ran
                    out, or the instance is above the exact-search size
                    limit, and no valid labeling refutes the claim.

A failure inside a claim is a programming error and propagates; it is
never recorded as a verdict.

Verdict rows are pure data and sort deterministically, so a re-run with
the same configuration reproduces the same table byte for byte (minus
the timestamp comment).
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import formulas
from .graphs import DistanceMatrix, all_pairs_distances, bfs_all_pairs
from .labeling import OrderingPlan, greedy_assign
from .orderings import construction_ordering
from .product import (
    CellIndexing,
    ProductGraph,
    ProductParams,
    build_product_graph,
    fiber_vertex_id,
    pair_offset,
)
from .search import RnStatus, exact_rn, gap_matrix, minimize_span

EXAMPLE_31_CLAIMED = Fraction(304)
EXAMPLE_32_CLAIMED = Fraction(648)


class Verdict(Enum):
    MATCH = "Match"
    MISMATCH = "Mismatch"
    UNVERIFIABLE = "Unverifiable"


@dataclass(frozen=True)
class ClaimVerdict:
    """One catalog claim instantiated and adjudicated at concrete parameters."""

    claim_id: str
    m: int
    n: int
    indexing: str
    expected: Fraction
    observed: Fraction | None
    verdict: Verdict

    def sort_key(self):
        return (self.claim_id, self.m, self.n, self.indexing)


@dataclass(frozen=True)
class VerifyConfig:
    """Verification grid; defaults keep a full run well under a minute."""

    even_m: tuple[int, ...] = (2, 4, 6)
    odd_m: tuple[int, ...] = (3, 5)
    ns: tuple[int, ...] = (1, 2, 3)
    indexings: tuple[CellIndexing, ...] = tuple(CellIndexing)
    exact_vertex_limit: int = 12


def _equality_verdict(expected: Fraction, observed: Fraction) -> Verdict:
    return Verdict.MATCH if expected == observed else Verdict.MISMATCH


def _row(claim_id, params, indexing, expected, observed) -> ClaimVerdict:
    verdict = (
        Verdict.UNVERIFIABLE if observed is None else _equality_verdict(expected, observed)
    )
    return ClaimVerdict(claim_id, params.m, params.n, indexing, expected, observed, verdict)


def diameter_claim(params: ProductParams, dm: DistanceMatrix) -> ClaimVerdict:
    """Claimed diameter 2m versus the BFS diameter.

    Stated without restriction on n, so the n = 1 instances (true
    diameter 2m - 1) surface as Mismatch rows rather than being skipped.
    """
    return _row("Cor3.Diameter", params, "-", Fraction(2 * params.m), Fraction(dm.diameter))


def _pair_fibers(params: ProductParams, indexing: CellIndexing) -> tuple[list[int], list[int]]:
    """Vertex ids of the construction pair (t(1), t(1 + offset)), each fiber by position."""
    return tuple(
        [fiber_vertex_id(params, indexing, t, k) for k in range(1, params.n + 2)]
        for t in (1, 1 + pair_offset(params))
    )


def _canonical_pairs(params: ProductParams, indexing: CellIndexing):
    """The three witness pairs the pair-walk arguments rest on.

    Hub/hub, hub/first-leaf, and first-leaf/second-leaf across the pair
    (t(1), t(1 + offset)). With a single leaf there is no distinct-leaf
    pair, so the no-centers witness degrades to the same-leaf pair.
    """
    first, other = _pair_fibers(params, indexing)
    return {
        "BothCenters": (first[0], other[0]),
        "OneCenter": (other[0], first[1]),
        "NoCenters": (first[1], other[2 if params.n >= 2 else 1]),
    }


def distance_claims(
    params: ProductParams, indexing: CellIndexing, dm: DistanceMatrix
) -> list[ClaimVerdict]:
    """Case-table claims for the canonical cross-pair distances.

    Even m yields the Eq2 rows; odd m yields the literal Eq13 and the
    operative Eq14 readings of the same case table.
    """
    m = params.m
    pairs = _canonical_pairs(params, indexing)
    rows = []
    for case, u_is_center, v_is_center in formulas.PAIR_DISTANCE_CASES:
        if m % 2 == 0:
            claimed = {"Eq2": formulas.even_pair_distance(m, u_is_center, v_is_center).predicted}
        else:
            prediction = formulas.odd_pair_distance(m, u_is_center, v_is_center)
            claimed = {"Eq13": prediction.predicted, "Eq14": prediction.operative}
        u, v = pairs[case]
        observed = Fraction(dm[u, v])
        for prefix, expected in claimed.items():
            rows.append(_row(f"{prefix}.{case}", params, indexing.value, expected, observed))
    return rows


def pair_bound_claim(
    params: ProductParams, indexing: CellIndexing, dm: DistanceMatrix
) -> ClaimVerdict:
    """Claimed pair span versus the exact minimum span of the pair system.

    The pair keeps the whole graph's metric: gap requirements use the
    full-graph diameter and full-graph distances, matching how the
    telescoped pair sums are formed.
    """
    if params.m % 2 == 0:
        claim_id = "Cor5.PairBound"
        expected = Fraction(formulas.cor5_pair_bound(params))
    else:
        claim_id = "Cor8.PairBound"
        expected = formulas.cor8_pair_bound(params)
    first, other = _pair_fibers(params, indexing)
    req = gap_matrix(dm, vertices=first + other)
    value, _labels, status, _nodes = minimize_span(req)
    observed = Fraction(value) if status is RnStatus.EXACT else None
    return _row(claim_id, params, indexing.value, expected, observed)


def _heuristic_upper_bound(pg: ProductGraph, dm: DistanceMatrix) -> int:
    """Best deterministic greedy span: construction order and identity order."""
    graph = pg.graph
    construction = construction_ordering(pg.params, CellIndexing.ROW_MAJOR)
    identity = OrderingPlan(np.arange(graph.num_vertices))
    return min(greedy_assign(graph, dm, construction).span, greedy_assign(graph, dm, identity).span)


def full_bound_claim(
    pg: ProductGraph, dm: DistanceMatrix, config: VerifyConfig
) -> ClaimVerdict:
    """Claimed whole-graph bound versus exact search or a refuting labeling.

    Small instances are settled exactly. Larger ones fall back to the
    sandwich: a valid labeling with span below the claimed lower bound
    refutes it (the radio number cannot reach the claim); otherwise the
    claim stays Unverifiable at this scale.
    """
    params = pg.params
    claim_id = "Thm18.Bound" if params.m % 2 else "Thm6.Bound"
    expected = formulas.combined_bound(params)
    indexing = CellIndexing.ROW_MAJOR.value
    if params.num_vertices <= config.exact_vertex_limit:
        result = exact_rn(pg.graph, dm)
        if result.status is RnStatus.EXACT:
            return _row(claim_id, params, indexing, expected, Fraction(result.value))
    upper = _heuristic_upper_bound(pg, dm)
    observed = Fraction(upper) if upper < expected else None
    return _row(claim_id, params, indexing, expected, observed)


def example_claims() -> list[ClaimVerdict]:
    """The two worked-example figures versus what their formulas evaluate to."""
    p45 = ProductParams(4, 5)
    p55 = ProductParams(5, 5)
    return [
        _row("Ex3.1.Value", p45, "-", EXAMPLE_31_CLAIMED, formulas.combined_bound(p45)),
        _row("Ex3.2.Value", p55, "-", EXAMPLE_32_CLAIMED, formulas.combined_bound(p55)),
    ]


def run_verification(config: VerifyConfig = VerifyConfig()) -> list[ClaimVerdict]:
    """Adjudicate the whole grid; an error in any claim propagates.

    Each grid point's factored distance matrix must equal its BFS matrix
    entry for entry, or the run raises.
    """
    rows: list[ClaimVerdict] = []
    for m in sorted(config.even_m + config.odd_m):
        for n in config.ns:
            params = ProductParams(m, n)
            pg = build_product_graph(params)
            dm = all_pairs_distances(pg.graph)
            # distance and diameter claims are observed by whole-graph BFS,
            # never by the factored metric the bounds use
            bfs = bfs_all_pairs(pg.graph)
            if not np.array_equal(dm.matrix, bfs.matrix):
                raise RuntimeError(f"factored distances differ from BFS at m={m} n={n}")
            rows.append(diameter_claim(params, bfs))
            for indexing in config.indexings:
                rows.extend(distance_claims(params, indexing, bfs))
            rows.append(pair_bound_claim(params, CellIndexing.ROW_MAJOR, dm))
            rows.append(full_bound_claim(pg, dm, config))
    rows.extend(example_claims())
    rows.sort(key=ClaimVerdict.sort_key)
    return rows


def render_fraction(value: Fraction | None) -> str:
    if value is None:
        return "unavailable"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


VERDICT_CSV_HEADER = "claim_id,m,n,indexing,expected_num,expected_den,observed,verdict"


def verdicts_to_csv(rows: Iterable[ClaimVerdict], timestamp: bool = True) -> str:
    lines = []
    if timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# generated {stamp}")
    lines.append(VERDICT_CSV_HEADER)
    for row in rows:
        lines.append(
            f"{row.claim_id},{row.m},{row.n},{row.indexing},"
            f"{row.expected.numerator},{row.expected.denominator},"
            f"{render_fraction(row.observed)},{row.verdict.value}"
        )
    return "\n".join(lines) + "\n"


def verdicts_to_text(rows: Iterable[ClaimVerdict]) -> str:
    lines = []
    counts = {Verdict.MATCH: 0, Verdict.MISMATCH: 0, Verdict.UNVERIFIABLE: 0}
    for row in rows:
        counts[row.verdict] += 1
        lines.append(
            f"{row.claim_id:<18} m={row.m} n={row.n} indexing={row.indexing:<10} "
            f"expected={render_fraction(row.expected):>8} "
            f"observed={render_fraction(row.observed):>12} {row.verdict.value}"
        )
    lines.append(
        f"total: {counts[Verdict.MATCH]} match, {counts[Verdict.MISMATCH]} mismatch, "
        f"{counts[Verdict.UNVERIFIABLE]} unverifiable"
    )
    return "\n".join(lines) + "\n"
