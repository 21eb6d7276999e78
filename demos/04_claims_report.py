#!/usr/bin/env python3
"""Walkthrough: adjudicating the claims catalog against ground truth.

Runs the verification pipeline on a small grid and prints the verdict
table: every claim instantiated at concrete (m, n), its cataloged value,
the oracle value (BFS distance, BFS diameter, exact search, or exact
arithmetic), and a Match / Mismatch / Unverifiable verdict.

The constructions behind the catalog depend on how fiber indices map to
mesh cells, which is never pinned down, so distance claims run under
three candidate schemes; the mixed verdicts below show that no single
scheme satisfies every case table.
"""
from radiomesh import ProductParams, all_pairs_distances, build_construction_labeling, build_product_graph
from radiomesh import formulas as F
from radiomesh.claims import VerifyConfig, run_verification, verdicts_to_text

config = VerifyConfig(even_m=(2, 4), odd_m=(3, 5), ns=(1, 2), exact_vertex_limit=8)
rows = run_verification(config)
print(verdicts_to_text(rows))

print("== construction spans next to the claimed whole-graph bounds ==")
for m, n in [(2, 2), (4, 2), (3, 2), (5, 2)]:
    params = ProductParams(m, n)
    pg = build_product_graph(params)
    dm = all_pairs_distances(pg.graph)
    built = build_construction_labeling(params, dm=dm)
    print(
        f"(m={m}, n={n}): greedy span {built.greedy_span}"
        f" (valid), consecutive-only span {built.consecutive_span}"
        f" ({'valid' if built.consecutive_valid else 'invalid'}),"
        f" claimed bound {F.combined_bound(params)}"
    )
