import re
from fractions import Fraction

import pytest

from radiomesh import InvalidParameterError, ParityError, ProductParams
from radiomesh import formulas as F


def P(m, n):
    return ProductParams(m, n)


def test_diam_formula():
    assert F.diam_formula(P(4, 5)) == 8
    assert F.diam_formula(P(2, 2)) == 4
    assert F.diam_formula(P(5, 4)) == 10


def test_diam_formula_at_single_leaf():
    # stated for every n: the claim is 2m at n = 1 too, where BFS finds 2m - 1
    assert F.diam_formula(P(4, 1)) == 8


@pytest.mark.parametrize(
    "params,expected",
    [(P(2, 1), 8), (P(6, 4), 39), (P(4, 5), 33)],
)
def test_cor5_pair_bound(params, expected):
    assert F.cor5_pair_bound(params) == expected


def test_cor5_pair_bound_parity():
    with pytest.raises(ParityError):
        F.cor5_pair_bound(P(3, 2))


@pytest.mark.parametrize(
    "params,expected",
    [(P(2, 1), 16), (P(4, 5), 264), (P(2, 2), 22)],
)
def test_thm6_even_bound(params, expected):
    assert F.thm6_even_bound(params) == expected


@pytest.mark.parametrize(
    "params,expected",
    [(P(3, 2), 9), (P(5, 5), 36), (P(5, 4), 29)],
)
def test_cor8_pair_bound(params, expected):
    assert F.cor8_pair_bound(params) == expected


def test_thm9_both_forms():
    values = F.thm9_gstar_bound(P(5, 5))
    assert values.statement == Fraction(115, 2)
    assert values.statement.denominator == 2  # non-integral, surfaced as-is
    assert values.closing == 370
    assert F.thm9_gstar_bound(P(3, 1)).statement == Fraction(9, 2)


def test_thm9_statement_and_closing_genuinely_differ():
    for m in (3, 5, 7):
        for n in (1, 2, 5):
            values = F.thm9_gstar_bound(P(m, n))
            assert values.closing - values.statement == Fraction(2 * m**3 * n, 4)


def test_path_span_components():
    assert F.cor13_span_f3(P(5, 5)) == 75
    assert F.span_f1(P(5, 5)) == 39
    assert F.span_f2(P(5, 5)) == 36
    assert F.span_f4(P(3, 2)) == 4


# (mesh parity, least n, evaluated form, second stated form) of each
# catalog entry whose two forms are algebraically the same; only the
# first is evaluated by formulas
SECOND_FORMS = {
    "thm6-pairwise": (
        0, 1, F.thm6_even_bound, lambda m, n: Fraction(m * m, 2) * F.cor5_pair_bound(P(m, n)),
    ),
    "thm9-expanded": (
        1, 1, lambda p: F.thm9_gstar_bound(p).statement,
        lambda m, n: Fraction(m**3 * n - 4 * m * m * n + 4 * m * m + m * n - 4 * m, 4),
    ),
    "cor13-f1-plus-f2": (1, 2, F.cor13_span_f3, lambda m, n: F.span_f1(P(m, n)) + F.span_f2(P(m, n))),
    "thm16-closing": (
        1, 1, F.thm16_bound, lambda m, n: Fraction(2 * m - 5 * m * n) + Fraction(3 * m * m * n + 3 * n, 2),
    ),
}


@pytest.mark.parametrize("parity, least_n, evaluated, second", SECOND_FORMS.values(), ids=SECOND_FORMS)
def test_second_stated_forms_equal_the_evaluated_ones(parity, least_n, evaluated, second):
    for m in range(2 + parity, 52, 2):
        for n in range(least_n, 51):
            assert evaluated(P(m, n)) == second(m, n), (m, n)


def test_f2_needs_two_leaves():
    with pytest.raises(InvalidParameterError):
        F.span_f2(P(5, 1))


@pytest.mark.parametrize(
    "params,expected",
    [(P(5, 5), 90), (P(3, 2), 28), (P(3, 1), 19)],
)
def test_thm14_bound(params, expected):
    assert F.thm14_bound(params) == expected


@pytest.mark.parametrize(
    "params,expected",
    [(P(5, 5), 80), (P(5, 4), 66), (P(7, 2), 94)],
)
def test_thm16_bound(params, expected):
    assert F.thm16_bound(params) == expected


@pytest.mark.parametrize(
    "params,expected",
    [(P(5, 5), 179), (P(3, 2), 40), (P(5, 1), 63)],
)
def test_thm17_bound(params, expected):
    assert F.thm17_bound(params) == expected


def test_thm17_proof_line_is_cubic_and_differs():
    params = P(5, 2)
    assert F.thm17_proof_line_value(params) != F.thm17_bound(params)
    # the cubic literal at (5, 2): (750 - 100 + 35 + 6 + 3)/2
    assert F.thm17_proof_line_value(params) == Fraction(694, 2)


@pytest.mark.parametrize(
    "params,expected",
    [(P(5, 5), 549), (P(3, 1), 49), (P(3, 2), 70)],
)
def test_thm18_odd_bound(params, expected):
    assert F.thm18_odd_bound(params) == expected


@pytest.mark.parametrize(
    "params,expected",
    [(P(4, 5), 264), (P(5, 5), 549), (P(2, 1), 16)],
)
def test_combined_bound_dispatch(params, expected):
    assert F.combined_bound(params) == expected


def test_combined_bound_matches_parity_evaluators():
    for m in range(2, 8):
        for n in range(1, 5):
            params = P(m, n)
            direct = (
                Fraction(F.thm6_even_bound(params))
                if m % 2 == 0
                else F.thm18_odd_bound(params)
            )
            assert F.combined_bound(params) == direct


# (id, evaluator, mesh parity) of each catalog entry stated for one parity
SINGLE_PARITY = [(row[0], row[4], row[2]) for row in F.CATALOG if row[2] is not None]


@pytest.mark.parametrize("bound_id, evaluate, parity", SINGLE_PARITY, ids=[row[0] for row in SINGLE_PARITY])
def test_a_single_parity_entry_refuses_the_other_parity(bound_id, evaluate, parity):
    for m in (3 - parity, 5 - parity):
        with pytest.raises(ParityError, match=f"mesh order must be {('even', 'odd')[parity]}, got {m}"):
            evaluate(P(m, 2))


@pytest.mark.parametrize("bound_id, evaluate", [(row[0], row[4]) for row in F.CATALOG if row[3] == 2])
def test_an_entry_stated_from_two_leaves_refuses_one(bound_id, evaluate):
    with pytest.raises(InvalidParameterError, match="needs n >= 2"):
        evaluate(P(5, 1))


def test_catalog_names_the_verdict_id_of_each_checked_entry():
    assert all(len(row) == 5 for row in F.CATALOG)
    assert {row[0]: row[1] for row in F.CATALOG if row[1] is not None} == {
        "DiamCor3": "Cor3.Diameter",
        "Cor5PairBound": "Cor5.PairBound",
        "Thm6EvenBound": "Thm6.Bound",
        "Cor8PairBound": "Cor8.PairBound",
        "Thm18OddBound": "Thm18.Bound",
    }


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_claimed_case_has_one_applicable_entry(m, n):
    params = P(m, n)
    checked = [verdict_id for _, verdict_id, _ in F.applicable(params) if verdict_id is not None]
    assert sorted(verdict_id.partition(".")[2] for verdict_id in checked) == ["Bound", "Diameter", "PairBound"]
    assert [row.bound_id for row in F.bounds_table(params)] == [bound_id for bound_id, _, _ in F.applicable(params)]


@pytest.mark.parametrize(
    "params, case, expected",
    [
        (P(4, 5), "Diameter", ("Cor3.Diameter", 8)),
        (P(4, 5), "PairBound", ("Cor5.PairBound", 33)),
        (P(5, 5), "PairBound", ("Cor8.PairBound", 36)),
        (P(4, 5), "Bound", ("Thm6.Bound", 264)),
        (P(5, 5), "Bound", ("Thm18.Bound", 549)),
    ],
)
def test_checked_claim_reads_the_entry_by_the_case_after_the_dot(params, case, expected):
    claim_id, value = F.checked_claim(params, case)
    assert (claim_id, value) == expected and type(value) is Fraction


@pytest.mark.parametrize("case", ["Value", "BothCenters", "", "Cor3.Diameter"])
def test_checked_claim_without_an_entry_raises(case):
    with pytest.raises(LookupError, match=f"no catalog entry is checked as {re.escape(repr(case))} at m=4 n=2"):
        F.checked_claim(P(4, 2), case)


def test_even_pair_distance_cases():
    assert F.pair_distances(4)["Eq2.BothCenters"] == 2
    assert F.pair_distances(4)["Eq2.OneCenter"] == 3
    assert F.pair_distances(6)["Eq2.NoCenters"] == 6
    assert F.pair_distances(6)["Eq2.BothCenters"] == 3
    assert list(F.pair_distances(6)) == ["Eq2.BothCenters", "Eq2.OneCenter", "Eq2.NoCenters"]


def test_odd_pair_distance_literal_vs_operative():
    cases = F.pair_distances(5)
    assert cases["Eq13.BothCenters"] == Fraction(3, 2)
    assert cases["Eq13.BothCenters"].denominator != 1
    assert cases["Eq14.BothCenters"] == 2
    assert cases["Eq13.OneCenter"] == Fraction(7, 2) and cases["Eq14.OneCenter"] == 3
    assert cases["Eq13.NoCenters"] == cases["Eq14.NoCenters"] == 4
    assert sorted(cases) == sorted(
        f"{table}.{case}" for table in ("Eq13", "Eq14") for case in ("BothCenters", "OneCenter", "NoCenters")
    )


def test_vertex_count_comparison():
    rows = F.vertex_count_comparison(range(2, 7), 5)
    by_m = {row.m: row for row in rows}
    assert by_m[4].product_vertices == 96
    assert by_m[4].star_path_vertices == 24
    assert all(row.ratio == row.m for row in rows)
    with pytest.raises(InvalidParameterError):
        F.vertex_count_comparison([1], 5)


@pytest.mark.parametrize("m_values,n", [([2.5], 2), ([2], True), ([True], 2), (["3"], 2), ([3], 0)])
def test_vertex_count_comparison_takes_only_product_parameters(m_values, n):
    # each row is built from ProductParams, which rejects what it rejects
    with pytest.raises(InvalidParameterError):
        F.vertex_count_comparison(m_values, n)


def test_vertex_count_comparison_of_no_orders_is_empty():
    # no row is built, so n is not checked
    assert F.vertex_count_comparison([], 0) == []


def test_bounds_table_contents():
    even_rows = {row.bound_id for row in F.bounds_table(P(4, 2))}
    assert "Thm6EvenBound" in even_rows
    assert "Cor8PairBound" not in even_rows

    odd_rows = F.bounds_table(P(5, 5))
    by_id = {row.bound_id: row for row in odd_rows}
    assert by_id["Thm9GStar"].value == Fraction(115, 2)
    assert not by_id["Thm9GStar"].integral

    csv = F.bounds_table_csv(odd_rows)
    assert csv.splitlines()[0] == "bound_id,m,n,value_num,value_den,integral"
    assert "Thm9GStar,5,5,115,2,false" in csv


ODD_TAIL = [
    "SpanF4", "Thm14GStarStar", "Cor15GI", "Thm16GStarStarStar", "Thm17GDblStar",
    "Thm18OddBound", "Eq58Combined",
]


@pytest.mark.parametrize(
    "params,ids",
    [
        (P(2, 1), ["DiamCor3", "Cor5PairBound", "Thm6EvenBound", "Eq58Combined"]),
        (P(2, 2), ["DiamCor3", "Cor5PairBound", "Thm6EvenBound", "Eq58Combined"]),
        (P(3, 1), ["DiamCor3", "Cor8PairBound", "Thm9GStar", "SpanF1", *ODD_TAIL]),
        (P(3, 2), ["DiamCor3", "Cor8PairBound", "Thm9GStar", "SpanF1", "SpanF2", "Cor13SpanF3", *ODD_TAIL]),
    ],
)
def test_bounds_table_ids_by_parity_and_leaf_count(params, ids):
    # a one-leaf star drops only the two leaf-path spans; the diameter
    # claim is stated for every n
    assert [row.bound_id for row in F.bounds_table(params)] == ids
