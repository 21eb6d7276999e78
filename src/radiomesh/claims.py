"""Claim adjudication: catalog values versus computed ground truth.

Each claim instantiates one catalog entry at concrete (m, n), computes
the corresponding observable with an oracle (a certified distance, a
certified diameter, exact span search, or exact rational evaluation),
and issues a verdict:

* ``Match``       - the catalog value equals the oracle value exactly.
* ``Mismatch``    - they differ.
* ``Unverifiable``- no oracle settled the claim: the instance is above
                    the exact-search size limit, or the search ran out
                    of its node budget.

A failure inside a claim is a programming error and propagates; it is
never recorded as a verdict.

Every claim at a grid point reads one :class:`DistanceMatrix`, the
graph's factored distances, once
:func:`~radiomesh.graphs.certify_distances` has checked them with the
BFS layer condition, which only the BFS matrix meets, through the
product's two factors (:func:`certified_distances`). Its diameter is
the sum of the certified factors' diameters, and both span claims
search a gap matrix of it with :func:`~radiomesh.search.minimize_span`.
No N x N matrix is built and no BFS of the whole graph runs on the
verdict path; BFS stays the oracle the tests hold the certificate and
the factored matrix to.

Verdict rows are pure data and sort deterministically, so a re-run with
the same configuration reproduces the same table byte for byte (minus
the timestamp comment).
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence

from . import formulas
from .graphs import DistanceMatrix, InvalidParameterError, all_pairs_distances, certify_distances, checked_int
from .product import (
    CellIndexing,
    ParityError,
    ProductGraph,
    ProductParams,
    build_product_graph,
    fiber_vertex_id,
    pair_offset,
)
from .search import RnStatus, gap_matrix, minimize_span


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
    """Verification grid; defaults keep a full run well under a minute.

    Each field takes a sequence of integers (see
    :func:`~radiomesh.graphs.checked_int`), not ``bytes`` or
    ``bytearray``, and is stored as a tuple; anything else raises
    InvalidParameterError. Each grid point runs the distance claims
    under every :class:`CellIndexing`, and settles its whole-graph bound
    by exact search if it has at most ``exact_vertex_limit`` vertices,
    on any grid only the (2,1) and (2,2) products; every larger product
    leaves that bound Unverifiable.
    """

    even_m: tuple[int, ...] = (2, 4, 6)
    odd_m: tuple[int, ...] = (3, 5)
    ns: tuple[int, ...] = (1, 2, 3)
    exact_vertex_limit: ClassVar[int] = 12

    def __post_init__(self) -> None:
        for field in ("even_m", "odd_m", "ns"):
            values = getattr(self, field)
            # bytes iterate to ints but hold text or binary data, not a grid
            if isinstance(values, (bytes, bytearray)) or not isinstance(values, Sequence):
                raise InvalidParameterError(f"{field} must be a sequence of integers, got {values!r}")
            object.__setattr__(self, field, tuple(checked_int(f"{field} entry", v) for v in values))
        # the grid merges both lists, and each m is judged by its own
        # parity's claims, so a misfiled order would run unasked-for claims
        for field, parity in (("even_m", 0), ("odd_m", 1)):
            wrong = [m for m in getattr(self, field) if m % 2 != parity]
            if wrong:
                kind = ("even", "odd")[parity]
                raise ParityError(f"{field} needs {kind} mesh orders, got {wrong}")


def _row(claim_id, params, indexing, expected, observed) -> ClaimVerdict:
    if observed is None:
        verdict = Verdict.UNVERIFIABLE
    else:
        verdict = Verdict.MATCH if expected == observed else Verdict.MISMATCH
    return ClaimVerdict(claim_id, params.m, params.n, indexing, expected, observed, verdict)


def diameter_claim(params: ProductParams, dm: DistanceMatrix) -> ClaimVerdict:
    """Claimed diameter versus the diameter of certified distances.

    Stated without restriction on n, so the n = 1 instances (true
    diameter 2m - 1) surface as Mismatch rows rather than being skipped.
    """
    expected = Fraction(formulas.diam_formula(params))
    return _row("Cor3.Diameter", params, "-", expected, Fraction(dm.diameter))


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
    pairs = _canonical_pairs(params, indexing)
    rows = []
    for claim_id, expected in formulas.pair_distances(params.m).items():
        u, v = pairs[claim_id.partition(".")[2]]
        rows.append(_row(claim_id, params, indexing.value, expected, Fraction(dm[u, v])))
    return rows


def _exact_span(dm: DistanceMatrix, vertices: list[int] | None = None) -> Fraction | None:
    """The minimum span of the gap matrix over ``vertices``; None if the search ran out of budget."""
    value, _labels, status, _nodes = minimize_span(gap_matrix(dm, vertices))
    return Fraction(value) if status is RnStatus.EXACT else None


def pair_bound_claim(params: ProductParams, dm: DistanceMatrix) -> ClaimVerdict:
    """Claimed pair span versus the exact minimum span of the row-major pair system.

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
    first, other = _pair_fibers(params, CellIndexing.ROW_MAJOR)
    observed = _exact_span(dm, first + other)
    return _row(claim_id, params, CellIndexing.ROW_MAJOR.value, expected, observed)


def full_bound_claim(params: ProductParams, dm: DistanceMatrix) -> ClaimVerdict:
    """Claimed whole-graph bound versus the exact radio number.

    Instances of at most ``VerifyConfig.exact_vertex_limit`` vertices
    are settled by exact search; a larger instance, or a search that
    runs out of budget, leaves the claim Unverifiable.
    """
    claim_id = "Thm18.Bound" if params.m % 2 else "Thm6.Bound"
    expected = formulas.combined_bound(params)
    observed = _exact_span(dm) if params.num_vertices <= VerifyConfig.exact_vertex_limit else None
    return _row(claim_id, params, CellIndexing.ROW_MAJOR.value, expected, observed)


def example_claims() -> list[ClaimVerdict]:
    """The worked-example figures versus what their formulas evaluate to."""
    rows = []
    for claim_id, m, n, stated in formulas.WORKED_EXAMPLES:
        params = ProductParams(m, n)
        rows.append(_row(claim_id, params, "-", Fraction(stated), formulas.combined_bound(params)))
    return rows


def certified_distances(pg: ProductGraph) -> DistanceMatrix:
    """The product's factored distances, once :func:`~radiomesh.graphs.certify_distances` accepts them.

    The certificate holds exactly when they equal the BFS matrix entry
    for entry; if it fails, this raises RuntimeError.
    """
    dm = all_pairs_distances(pg.graph)
    if not certify_distances(pg.graph, dm):
        raise RuntimeError(f"factored distances differ from BFS at m={pg.params.m} n={pg.params.n}")
    return dm


def run_verification(config: VerifyConfig = VerifyConfig()) -> list[ClaimVerdict]:
    """Adjudicate the whole grid; an error in any claim propagates.

    Each m and n is taken once, however often the grid repeats it.
    Every claim at a grid point reads its :func:`certified_distances`,
    so a grid point whose factored distances fail the certificate
    raises.
    """
    rows: list[ClaimVerdict] = []
    for m in sorted(set(config.even_m + config.odd_m)):
        for n in dict.fromkeys(config.ns):
            params = ProductParams(m, n)
            pg = build_product_graph(params)
            dm = certified_distances(pg)
            rows.append(diameter_claim(params, dm))
            for indexing in CellIndexing:
                rows.extend(distance_claims(params, indexing, dm))
            rows.append(pair_bound_claim(params, dm))
            rows.append(full_bound_claim(params, dm))
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
