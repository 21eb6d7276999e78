#!/usr/bin/env python3
"""Walkthrough: adjudicating the claims catalog against ground truth.

Runs the verification pipeline on a small grid and prints the verdict
table: every claim instantiated at concrete (m, n), its cataloged value,
the oracle value (certified distance, certified diameter, exact search,
or exact arithmetic), and a Match / Mismatch / Unverifiable verdict.

The constructions behind the catalog depend on how fiber indices map to
mesh cells, which is never pinned down, so distance claims run under
three candidate schemes; the mixed verdicts below show that no single
scheme satisfies every case table.
"""
from radiomesh import ProductParams, build_construction_labeling
from radiomesh import formulas as F
from radiomesh.claims import VerifyConfig, run_verification, verdicts_to_text

config = VerifyConfig(even_m=(2, 4), odd_m=(3, 5), ns=(1, 2))
rows = run_verification(config)
print(verdicts_to_text(rows))

print("== construction spans next to the claimed whole-graph bounds ==")
for m, n in [(2, 2), (4, 2), (3, 2), (5, 2)]:
    params = ProductParams(m, n)
    built = build_construction_labeling(params)
    print(
        f"(m={m}, n={n}): greedy span {built.greedy.span}"
        f" (valid), consecutive-only span {built.consecutive.span}"
        f" ({'valid' if built.consecutive_valid else 'invalid'}),"
        f" claimed bound {F.combined_bound(params)}"
    )
