import dataclasses
import functools
import itertools
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import radiomesh.claims
import radiomesh.formulas
import radiomesh.graphs
import radiomesh.search
from radiomesh import (
    CellIndexing,
    DistanceMatrix,
    InvalidParameterError,
    ParityError,
    ProductParams,
    all_pairs_distances,
    bfs_all_pairs,
    build_product_graph,
    fiber_vertex_id,
)
from radiomesh.claims import (
    VERDICT_CSV_HEADER,
    ClaimVerdict,
    Verdict,
    VerifyConfig,
    diameter_claim,
    distance_claims,
    example_claims,
    full_bound_claim,
    pair_bound_claim,
    run_verification,
    verdicts_to_csv,
    verdicts_to_text,
)

REFERENCE_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify_verdicts.csv"
# ``radiomesh verify --format csv`` past the default grid, less its
# "# generated" line; CI compares the command's output with these files
GRID_CSVS = {
    "verify_m7-10_n4.csv": VerifyConfig(even_m=(8, 10), odd_m=(7, 9), ns=(4,)),
    "verify_m50-51_n10.csv": VerifyConfig(even_m=(50,), odd_m=(51,), ns=(10,)),
}

# n = 3 keeps the 12-vertex (2,2) product, and its 6,444,838-node search, out
SMALL = VerifyConfig(even_m=(2,), odd_m=(3,), ns=(1, 3))


@pytest.fixture(scope="module")
def small_rows():
    return run_verification(SMALL)


def test_rows_are_sorted_and_deterministic(small_rows):
    assert small_rows == sorted(small_rows, key=ClaimVerdict.sort_key)
    assert run_verification(SMALL) == small_rows


def test_match_means_exact_equality(small_rows):
    for row in small_rows:
        if row.verdict is Verdict.MATCH:
            assert row.observed == row.expected
        if row.observed is None:
            assert row.verdict is Verdict.UNVERIFIABLE


@pytest.mark.parametrize(
    "expected, observed, verdict",
    [
        (Fraction(3), Fraction(3), Verdict.MATCH),
        (Fraction(3), Fraction(4), Verdict.MISMATCH),
        (Fraction(3, 2), Fraction(1), Verdict.MISMATCH),
        (Fraction(3), None, Verdict.UNVERIFIABLE),
    ],
    ids=["equal", "unequal", "fraction", "unobserved"],
)
def test_a_row_reads_its_verdict_from_its_claimed_and_observed_values(expected, observed, verdict):
    assert ClaimVerdict("X.Y", 2, 1, "-", expected, observed).verdict is verdict
    assert "verdict" not in [f.name for f in dataclasses.fields(ClaimVerdict)]


def test_diameter_claim_flags_single_leaf_deviation():
    params = ProductParams(3, 1)
    dm = bfs_all_pairs(build_product_graph(params).graph)
    row = diameter_claim(params, dm)
    assert row.expected == 6 and row.observed == 5
    assert row.verdict is Verdict.MISMATCH

    params = ProductParams(3, 2)
    dm = bfs_all_pairs(build_product_graph(params).graph)
    assert diameter_claim(params, dm).verdict is Verdict.MATCH


def test_even_distance_claims_row_major_m4():
    params = ProductParams(4, 2)
    dm = bfs_all_pairs(build_product_graph(params).graph)
    rows = {r.claim_id: r for r in distance_claims(params, CellIndexing.ROW_MAJOR, dm)}
    # hub-to-hub across the pair is exactly m/2 mesh hops under row-major
    assert rows["Eq2.BothCenters"].verdict is Verdict.MATCH
    assert rows["Eq2.OneCenter"].verdict is Verdict.MATCH
    assert rows["Eq2.NoCenters"].verdict is Verdict.MATCH


def test_odd_literal_cases_auto_mismatch_on_fractions():
    params = ProductParams(5, 2)
    dm = bfs_all_pairs(build_product_graph(params).graph)
    rows = {r.claim_id: r for r in distance_claims(params, CellIndexing.ROW_MAJOR, dm)}
    literal = rows["Eq13.BothCenters"]
    assert literal.expected == Fraction(3, 2)
    assert literal.verdict is Verdict.MISMATCH  # fraction vs integer hop count
    assert rows["Eq14.BothCenters"].verdict is Verdict.MATCH
    assert rows["Eq14.OneCenter"].verdict is Verdict.MATCH
    assert rows["Eq14.NoCenters"].verdict is Verdict.MATCH


def test_pair_bound_claim_against_inline_enumeration():
    # independent check: enumerate orderings of the 4-vertex pair system
    params = ProductParams(2, 1)
    pg = build_product_graph(params)
    dm = all_pairs_distances(pg.graph)
    vertices = [fiber_vertex_id(params, CellIndexing.ROW_MAJOR, t, k) for t in (1, 3) for k in (1, 2)]
    base = dm.diameter + 1
    best = None
    for perm in itertools.permutations(vertices):
        labels = {perm[0]: 0}
        for v in perm[1:]:
            labels[v] = max(labels[u] + base - dm[u, v] for u in labels)
        span = max(labels.values())
        best = span if best is None else min(best, span)

    row = pair_bound_claim(params, dm)
    assert row.claim_id == "Cor5.PairBound"
    assert row.observed == best
    assert row.expected == 8
    assert row.verdict is (Verdict.MATCH if best == 8 else Verdict.MISMATCH)


def test_full_bound_claim_exact_at_eight_vertices():
    params = ProductParams(2, 1)
    dm = all_pairs_distances(build_product_graph(params).graph)
    row = full_bound_claim(params, dm)
    assert row.claim_id == "Thm6.Bound"
    assert row.expected == 16
    assert row.observed == 10  # exact radio number of the 8-vertex product
    assert row.verdict is Verdict.MISMATCH


@pytest.mark.parametrize("m, n, claim_id", [(3, 1, "Thm18.Bound"), (2, 3, "Thm6.Bound")])
def test_full_bound_claim_above_the_exact_limit_is_unverifiable(m, n, claim_id):
    # 18 and 16 vertices: no search runs, and no greedy span stands in for one
    params = ProductParams(m, n)
    assert params.num_vertices > VerifyConfig.exact_vertex_limit
    row = full_bound_claim(params, all_pairs_distances(build_product_graph(params).graph))
    assert row.claim_id == claim_id and row.expected == radiomesh.formulas.combined_bound(params)
    assert row.verdict is Verdict.UNVERIFIABLE and row.observed is None


def test_a_budget_cut_search_leaves_the_span_claims_unverifiable(monkeypatch):
    # a search stopped by its node budget holds an upper bound, not the
    # minimum span, so neither span claim may read it as observed
    params = ProductParams(2, 2)
    dm = all_pairs_distances(build_product_graph(params).graph)
    cut = functools.partial(radiomesh.search.minimize_span, node_limit=10)
    assert cut(radiomesh.search.gap_matrix(dm))[2] is not radiomesh.search.RnStatus.EXACT
    monkeypatch.setattr(radiomesh.claims, "minimize_span", cut)
    for claim in (pair_bound_claim, full_bound_claim):
        row = claim(params, dm)
        assert row.verdict is Verdict.UNVERIFIABLE and row.observed is None, row


@pytest.mark.parametrize("m, verdict_id", [(2, "Cor5.PairBound"), (3, "Cor8.PairBound")])
def test_a_claim_without_its_catalog_entry_raises(m, verdict_id, monkeypatch):
    # the pair claim at m's parity with that entry's verdict id taken away
    catalog = tuple(
        (row[0], None, *row[2:]) if row[1] == verdict_id else row for row in radiomesh.formulas.CATALOG
    )
    monkeypatch.setattr(radiomesh.formulas, "CATALOG", catalog)
    params = ProductParams(m, 1)
    dm = all_pairs_distances(build_product_graph(params).graph)
    with pytest.raises(LookupError, match=f"no catalog entry is checked as 'PairBound' at m={m} n=1"):
        pair_bound_claim(params, dm)


def test_example_claims_preserve_both_values():
    rows = {r.claim_id: r for r in example_claims()}
    ex31 = rows["Ex3.1.Value"]
    assert (ex31.m, ex31.n) == (4, 5)
    assert ex31.expected == 304 and ex31.observed == 264
    assert ex31.verdict is Verdict.MISMATCH
    ex32 = rows["Ex3.2.Value"]
    assert (ex32.m, ex32.n) == (5, 5)
    assert ex32.expected == 648 and ex32.observed == 549
    assert ex32.verdict is Verdict.MISMATCH


def test_example_rows_always_present(small_rows):
    ids = {r.claim_id for r in small_rows}
    assert {"Ex3.1.Value", "Ex3.2.Value"} <= ids


def test_csv_rendering(small_rows):
    csv = verdicts_to_csv(small_rows)
    lines = csv.splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == VERDICT_CSV_HEADER
    assert len(lines) == len(small_rows) + 2
    # re-render without timestamp is byte-identical
    assert verdicts_to_csv(small_rows, timestamp=False) == "\n".join(lines[1:]) + "\n"
    body = "\n".join(lines[1:])
    assert "Ex3.1.Value,4,5,-,304,1,264,Mismatch" in body
    assert "Eq13.BothCenters,3,1,row-major,1,2," in body  # fraction preserved


def test_text_rendering_has_summary(small_rows):
    text = verdicts_to_text(small_rows)
    assert "total:" in text.splitlines()[-1]


def test_claim_error_propagates_instead_of_becoming_a_row(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in a claim")

    monkeypatch.setattr(radiomesh.claims, "distance_claims", broken)
    with pytest.raises(RuntimeError, match="bug in a claim"):
        run_verification(VerifyConfig(even_m=(2,), odd_m=(), ns=(1,)))


def test_factored_distances_disagreeing_with_bfs_raise(monkeypatch):
    def dense(graph):
        matrix = all_pairs_distances(graph).matrix.copy()
        matrix[0, 1] += 1
        return DistanceMatrix(matrix)

    def factored(graph):
        # the fiber row's factor, the dense check inside the factor certificate
        a, b = (bfs_all_pairs(f).matrix.copy() for f in graph.factors)
        b[0, 1] += 1
        return DistanceMatrix.from_factors(a, b)

    for perturbed in (dense, factored):
        monkeypatch.setattr(radiomesh.claims, "all_pairs_distances", perturbed)
        with pytest.raises(RuntimeError, match="differ from BFS at m=2 n=1"):
            run_verification(VerifyConfig(even_m=(2,), odd_m=(), ns=(1,)))


def test_verification_runs_no_bfs_on_the_whole_product(monkeypatch):
    searched = []
    bfs_row = radiomesh.graphs._bfs_row

    def spy(adjacency, source):
        searched.append(len(adjacency))
        return bfs_row(adjacency, source)

    monkeypatch.setattr(radiomesh.graphs, "_bfs_row", spy)
    run_verification(VerifyConfig(even_m=(4,), odd_m=(), ns=(2,)))
    # only the leaf factors P_4 and S_2 are searched, never the 48-vertex product
    assert searched and max(searched) == 4


def test_verdicts_never_read_a_clock(small_rows, monkeypatch):
    def no_clock():
        raise AssertionError("the verdict path read a clock")

    monkeypatch.setattr(time, "monotonic", no_clock)
    monkeypatch.setattr(time, "perf_counter", no_clock)
    assert run_verification(SMALL) == small_rows


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"even_m": (3,), "odd_m": ()}, r"even_m needs even mesh orders, got \[3\]"),
        ({"even_m": (2, 5, 4, 7)}, r"even_m needs even mesh orders, got \[5, 7\]"),
        ({"odd_m": (3, 4)}, r"odd_m needs odd mesh orders, got \[4\]"),
    ],
)
def test_a_mesh_order_of_the_wrong_parity_is_rejected(fields, message):
    # the grid merges both lists, so an odd m filed as even would run
    # the odd claims instead of failing
    with pytest.raises(ParityError, match=message):
        VerifyConfig(**fields, ns=(1,))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"even_m": ("2",)}, "even_m entry must be an integer, got '2'"),
        ({"odd_m": (3.0,)}, "odd_m entry must be an integer, got 3.0"),
        ({"ns": (True,)}, "ns entry must be an integer, got True"),
        ({"ns": 5}, "ns must be a sequence of integers, got 5"),
        ({"even_m": b"\x02"}, "even_m must be a sequence of integers, got b'\\x02'"),
        ({"ns": bytearray(b"\x01")}, "ns must be a sequence of integers, got bytearray(b'\\x01')"),
    ],
)
def test_grid_fields_take_sequences_of_integers(fields, message):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        VerifyConfig(**fields)


def test_grid_fields_are_stored_as_tuples():
    config = VerifyConfig(even_m=[2], odd_m=(), ns=[np.int64(1)])
    assert (config.even_m, config.odd_m, config.ns) == ((2,), (), (1,))
    assert type(config.ns[0]) is int
    assert config.even_m + config.odd_m == (2,)
    assert run_verification(config) == run_verification(VerifyConfig(even_m=(2,), odd_m=(), ns=(1,)))


def test_a_repeated_grid_value_is_taken_once():
    once = run_verification(VerifyConfig(even_m=(2,), odd_m=(), ns=(1,)))
    assert len(once) == 14
    repeated = VerifyConfig(even_m=(2, 2), odd_m=(), ns=(1, 1))
    assert run_verification(repeated) == once


def _moved_rows(reference: str, csv: str) -> str:
    """Each row of two verdict CSVs that differs, as ``claim_id m n indexing: old -> new``."""

    def keyed(text: str) -> dict[tuple[str, ...], str]:
        rows = (line.split(",") for line in text.splitlines()[1:])
        return {tuple(row[:4]): ",".join(row[4:]) for row in rows}

    old, new = keyed(reference), keyed(csv)
    return "\n".join(
        f"{' '.join(key)}: {old.get(key, 'absent')} -> {new.get(key, 'absent')}"
        for key in dict.fromkeys([*old, *new])
        if old.get(key) != new.get(key)
    )


def test_csv_matches_reference_rows_byte_for_byte():
    # the reference table covers the default grid
    csv = verdicts_to_csv(run_verification(VerifyConfig()), timestamp=False)
    reference = REFERENCE_CSV.read_text(encoding="utf-8")
    assert csv == reference, _moved_rows(reference, csv)


@pytest.mark.parametrize("name", list(GRID_CSVS))
def test_csv_past_the_default_grid_matches_its_reference(name):
    csv = verdicts_to_csv(run_verification(GRID_CSVS[name]), timestamp=False)
    reference = (Path(__file__).parent / "reference" / name).read_text(encoding="utf-8")
    assert csv == reference, _moved_rows(reference, csv)


def test_moved_rows_name_each_changed_added_and_dropped_row():
    header = "claim_id,m,n,indexing,expected_num,expected_den,observed,verdict\n"
    reference = header + "A,2,1,-,5,1,5,Match\nB,2,1,row,3,1,3,Match\nC,2,1,-,4,1,,Unverifiable\n"
    csv = header + "A,2,1,-,5,1,5,Match\nB,2,1,row,3,1,4,Mismatch\nD,2,1,-,1,1,1,Match\n"
    assert _moved_rows(reference, csv) == (
        "B 2 1 row: 3,1,3,Match -> 3,1,4,Mismatch\n"
        "C 2 1 -: 4,1,,Unverifiable -> absent\n"
        "D 2 1 -: absent -> 1,1,1,Match"
    )
