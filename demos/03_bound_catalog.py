#!/usr/bin/env python3
"""Walkthrough: the closed-form catalog and its internal tensions.

Evaluates every cataloged bound at sample parameters with exact rational
arithmetic, demonstrates the identities that do hold, and surfaces the
entries that disagree with each other or with their own worked examples.
"""
from radiomesh import ProductParams
from radiomesh import formulas as F

print("== full catalog at (m=5, n=5) ==")
print(F.bounds_table_csv(F.bounds_table(ProductParams(5, 5))))

print("== identities that hold exactly ==")
params = ProductParams(6, 4)
print(
    f"even m: whole-graph bound {F.thm6_even_bound(params)}"
    f" = (m^2/2) pairs x pair bound {F.cor5_pair_bound(params)}"
)
params = ProductParams(7, 3)
print(
    f"odd m: combined path span {F.cor13_span_f3(params)}"
    f" = {F.span_f1(params)} + {F.span_f2(params)}"
)

print("\n== entries that disagree with themselves ==")
values = F.thm9_gstar_bound(ProductParams(5, 5))
print(f"paired-region total at (5,5): statement {values.statement} vs closing {values.closing}")
print(
    f"last-row total at (5,2): statement {F.thm17_bound(ProductParams(5, 2))}"
    f" vs cubic intermediate {F.thm17_proof_line_value(ProductParams(5, 2))}"
)
cases = F.pair_distances(5)
literal, operative = cases["Eq13.BothCenters"], cases["Eq14.BothCenters"]
print(
    f"odd hub-to-hub distance: literal {literal}"
    f" (integral: {literal.denominator == 1}) vs operative {operative}"
)

print("\n== worked-example figures vs their own formulas ==")
for _, m, n, stated in F.WORKED_EXAMPLES:
    bound = F.combined_bound(ProductParams(m, n))
    print(f"({m},{n}): stated {stated}, formula evaluates to {bound}")

print("\n== capacity comparison (n = 5) ==")
print(f"{'m':>3}{'mesh-by-star':>14}{'star-by-path':>14}{'ratio':>7}")
for row in F.vertex_count_comparison(range(2, 7), 5):
    print(f"{row.m:>3}{row.product_vertices:>14}{row.star_path_vertices:>14}{row.ratio:>7}")
