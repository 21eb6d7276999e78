"""Closed-form catalog: claimed diameters, pair distances, and span bounds.

Every entry is evaluated with exact rational arithmetic; nothing is
rounded, and non-integral values are surfaced as fractions so callers
can flag them. Where a catalog entry exists in two stated forms that
disagree, both are computed and exposed; the harness reports the
discrepancy instead of choosing a side. A second stated form that is
algebraically the same as the first is not evaluated here; the tests
hold the two equal. None of these evaluators look at a graph: ground
truth comes from BFS and search elsewhere.

Each claimed value is held here once: :data:`CATALOG` lists every
bound-table entry with the verdict id it is checked under, if any, and
the mesh parity and least n it is stated for, :func:`pair_distances`
gives the cross-pair distance case tables, and :data:`WORKED_EXAMPLES`
the stated worked-example figures. The claims, the CLI and the demos
read them from here. Which entries apply at (m, n) is decided once, by
:func:`applicable`, for the bound table and the claims alike; a claim
finds its entry by the case after its verdict id's dot
(:func:`checked_claim`), as the distance claims find theirs in
:func:`pair_distances`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graphs import InvalidParameterError
from .product import ParityError, ProductParams


def _require_even(m: int) -> None:
    if m % 2:
        raise ParityError(f"mesh order must be even, got {m}")


def _require_odd(m: int) -> None:
    if m % 2 == 0:
        raise ParityError(f"mesh order must be odd, got {m}")


def diam_formula(params: ProductParams) -> int:
    """Claimed product diameter 2*m, stated for every n.

    A one-leaf star has diameter 1, not 2, so at n = 1 the true diameter
    is 2*m - 1 and the claims report the difference as a Mismatch.
    """
    return 2 * params.m


def pair_distances(m: int) -> dict[str, Fraction]:
    """Claimed cross-pair distance for each verdict id, by case after the dot.

    Even m: the Eq2 table across (t(j), t(j + m*m/2)); it does not split
    the no-centers case by leaf identity. Odd m: across
    (t(x), t(x + m*(m-1)/2)), the Eq13 table as cataloged, whose hub
    cases m/2 - 1 and m/2 + 1 are never integral, and the Eq14 table the
    walk-through actually uses, (m-1)/2, (m+1)/2 and (m+3)/2.
    """
    if m % 2 == 0:
        return {
            "Eq2.BothCenters": Fraction(m, 2),
            "Eq2.OneCenter": Fraction(m - 1),
            "Eq2.NoCenters": Fraction(m),
        }
    return {
        "Eq13.BothCenters": Fraction(m, 2) - 1,
        "Eq13.OneCenter": Fraction(m, 2) + 1,
        "Eq13.NoCenters": Fraction(m + 3, 2),
        "Eq14.BothCenters": Fraction(m - 1, 2),
        "Eq14.OneCenter": Fraction(m + 1, 2),
        "Eq14.NoCenters": Fraction(m + 3, 2),
    }


def cor5_pair_bound(params: ProductParams) -> int:
    """Claimed span of one even-order fiber pair: 3m/2 + 2 + mn + n."""
    _require_even(params.m)
    m, n = params.m, params.n
    return 3 * m // 2 + 2 + m * n + n


def thm6_even_bound(params: ProductParams) -> int:
    """Claimed whole-graph bound for even m: 3m^3/4 + (2m^2 + m^3 n + m^2 n)/2.

    Even m makes both terms integers. The pairwise form, m^2/2 pairs
    each at the pair bound, is algebraically the same.
    """
    _require_even(params.m)
    m, n = params.m, params.n
    return 3 * m**3 // 4 + (2 * m**2 + m**3 * n + m**2 * n) // 2


def cor8_pair_bound(params: ProductParams) -> Fraction:
    """Claimed span of one odd-order fiber pair: (3mn - n + 2)/2."""
    _require_odd(params.m)
    m, n = params.m, params.n
    return Fraction(3 * m * n - n + 2, 2)


@dataclass(frozen=True)
class Thm9Values:
    """Both stated forms of the paired-region total for odd m.

    The statement form's expanded fraction is algebraically the same;
    the closing form replaces the leading m^3 n term with 3 m^3 n and
    genuinely disagrees.
    """

    statement: Fraction
    closing: Fraction


def thm9_gstar_bound(params: ProductParams) -> Thm9Values:
    """Claimed total over all odd-order fiber pairs, in both stated forms."""
    _require_odd(params.m)
    m, n = params.m, params.n
    statement = Fraction(m * m - m * m * n - m) + Fraction(m**3 * n + m * n, 4)
    closing = Fraction(3 * m**3 * n - 4 * m * m * n + 4 * m * m + m * n - 4 * m, 4)
    return Thm9Values(statement, closing)


def span_f1(params: ProductParams) -> Fraction:
    """Claimed span over the three short distinguished paths: 6m + (3m + 3)/2."""
    _require_odd(params.m)
    m = params.m
    return Fraction(6 * m) + Fraction(3 * m + 3, 2)


def span_f2(params: ProductParams) -> Fraction:
    """Claimed span over the leaf paths: (5mn - 10m - n + 2)/2; needs n >= 2."""
    _require_odd(params.m)
    if params.n < 2:
        raise InvalidParameterError("leaf-path span needs n >= 2")
    m, n = params.m, params.n
    return Fraction(5 * m * n - 10 * m - n + 2, 2)


def cor13_span_f3(params: ProductParams) -> Fraction:
    """Claimed combined path span (5mn + 5m - n + 5)/2, which is f1 + f2."""
    _require_odd(params.m)
    if params.n < 2:
        raise InvalidParameterError("combined path span needs n >= 2")
    m, n = params.m, params.n
    return Fraction(5 * m * n + 5 * m - n + 5, 2)


def span_f4(params: ProductParams) -> Fraction:
    """Claimed residual pair span (mn + n)/2."""
    _require_odd(params.m)
    m, n = params.m, params.n
    return Fraction(m * n + n, 2)


def thm14_bound(params: ProductParams) -> Fraction:
    """Claimed span of the three distinguished fibers: (6mn + 5m + 5)/2."""
    _require_odd(params.m)
    m, n = params.m, params.n
    return Fraction(6 * m * n + 5 * m + 5, 2)


def thm16_bound(params: ProductParams) -> Fraction:
    """Claimed last-row interior total: (3m^2 n - 10mn + 4m + 3n)/2.

    The closing form is algebraically the same. For m = 3 the
    construction has zero interior pairs; the value is still returned.
    """
    _require_odd(params.m)
    m, n = params.m, params.n
    return Fraction(3 * m * m * n - 10 * m * n + 4 * m + 3 * n, 2)


def thm17_bound(params: ProductParams) -> Fraction:
    """Claimed last-row total: (3m^2 n - 4mn + 12m + 3n + 8)/2."""
    _require_odd(params.m)
    m, n = params.m, params.n
    return Fraction(3 * m * m * n - 4 * m * n + 12 * m + 3 * n + 8, 2)


def thm17_proof_line_value(params: ProductParams) -> Fraction:
    """The cubic intermediate (3m^3 n - 10mn + 7m + 3n + 3)/2, as cataloged.

    The quadratic statement of :func:`thm17_bound` only follows from the
    quadratic reading of this line; the cubic literal is kept so the
    discrepancy stays visible.
    """
    _require_odd(params.m)
    m, n = params.m, params.n
    return Fraction(3 * m**3 * n - 10 * m * n + 7 * m + 3 * n + 3, 2)


def thm18_odd_bound(params: ProductParams) -> Fraction:
    """Claimed whole-graph bound for odd m: 5m + 4 + m^2 + (3m^3 n + 2m^2 n + 6n - 7mn)/4."""
    _require_odd(params.m)
    m, n = params.m, params.n
    return Fraction(5 * m + 4 + m * m) + Fraction(
        3 * m**3 * n + 2 * m * m * n + 6 * n - 7 * m * n, 4
    )


def combined_bound(params: ProductParams) -> Fraction:
    """The whole-graph bound stated for m's parity: Thm6's for even m, Thm18's for odd m."""
    return checked_claim(params, "Bound")[1]


@dataclass(frozen=True)
class ComparisonRow:
    """One row of the capacity comparison between product families."""

    m: int
    n: int
    product_vertices: int
    star_path_vertices: int

    @property
    def ratio(self) -> int:
        return self.product_vertices // self.star_path_vertices


def vertex_count_comparison(m_values: Iterable[int], n: int) -> list[ComparisonRow]:
    """Vertex counts of mesh-by-star (m^2 (n+1)) versus star-by-path (m (n+1))."""
    rows = []
    for m in m_values:
        params = ProductParams(m, n)
        rows.append(
            ComparisonRow(params.m, params.n, params.num_vertices, params.m * (params.n + 1))
        )
    return rows


# (verdict id, m, n, stated value) of each worked example; the claims
# compare the stated value with the whole-graph bound at (m, n)
WORKED_EXAMPLES = (
    ("Ex3.1.Value", 4, 5, 304),
    ("Ex3.2.Value", 5, 5, 648),
)


# (id, verdict id the entry is checked under or None, mesh parity the
# entry is stated for or None for both, least n, evaluator), in
# bounds-table order. Cor15's last-row interior pair has the same
# closed form as Cor8's phase-1 pair.
CATALOG = (
    ("DiamCor3", "Cor3.Diameter", None, 1, diam_formula),
    ("Cor5PairBound", "Cor5.PairBound", 0, 1, cor5_pair_bound),
    ("Thm6EvenBound", "Thm6.Bound", 0, 1, thm6_even_bound),
    ("Cor8PairBound", "Cor8.PairBound", 1, 1, cor8_pair_bound),
    ("Thm9GStar", None, 1, 1, lambda params: thm9_gstar_bound(params).statement),
    ("SpanF1", None, 1, 1, span_f1),
    ("SpanF2", None, 1, 2, span_f2),
    ("Cor13SpanF3", None, 1, 2, cor13_span_f3),
    ("SpanF4", None, 1, 1, span_f4),
    ("Thm14GStarStar", None, 1, 1, thm14_bound),
    ("Cor15GI", None, 1, 1, cor8_pair_bound),
    ("Thm16GStarStarStar", None, 1, 1, thm16_bound),
    ("Thm17GDblStar", None, 1, 1, thm17_bound),
    ("Thm18OddBound", "Thm18.Bound", 1, 1, thm18_odd_bound),
    ("Eq58Combined", None, None, 1, combined_bound),
)


def applicable(params: ProductParams) -> list[tuple]:
    """(id, verdict id, evaluator) of each :data:`CATALOG` entry stated for m's parity and n, in order."""
    return [(bound_id, verdict_id, evaluate) for bound_id, verdict_id, parity, least_n, evaluate in CATALOG
            if parity in (None, params.m % 2) and params.n >= least_n]


def checked_claim(params: ProductParams, case: str) -> tuple[str, Fraction]:
    """(verdict id, claimed value) of the applicable entry checked under an id ending in ``.case``.

    Raises LookupError when no applicable entry is checked under such an
    id, so a claim never makes a row without its catalog entry.
    """
    for _, verdict_id, evaluate in applicable(params):
        if verdict_id is not None and verdict_id.partition(".")[2] == case:
            return verdict_id, Fraction(evaluate(params))
    raise LookupError(f"no catalog entry is checked as {case!r} at m={params.m} n={params.n}")


@dataclass(frozen=True)
class BoundsRow:
    bound_id: str
    m: int
    n: int
    value: Fraction

    @property
    def integral(self) -> bool:
        return self.value.denominator == 1


def bounds_table(params: ProductParams) -> list[BoundsRow]:
    """Every :data:`CATALOG` entry :func:`applicable` at (m, n), as exact fractions."""
    return [BoundsRow(bound_id, params.m, params.n, Fraction(evaluate(params)))
            for bound_id, _, evaluate in applicable(params)]


def bounds_table_csv(rows: Iterable[BoundsRow]) -> str:
    """Render bounds rows as CSV with exact reduced fractions."""
    lines = ["bound_id,m,n,value_num,value_den,integral"]
    for row in rows:
        lines.append(
            f"{row.bound_id},{row.m},{row.n},"
            f"{row.value.numerator},{row.value.denominator},{str(row.integral).lower()}"
        )
    return "\n".join(lines) + "\n"
