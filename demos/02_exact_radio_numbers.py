#!/usr/bin/env python3
"""Walkthrough: radio labelings, exact radio numbers, and the two oracles.

Shows what the gap constraint means on a tiny path, then computes exact
radio numbers two independent ways (brute-force enumeration versus
branch-and-bound) on every family member small enough for both.
"""
from radiomesh import (
    Labeling,
    OrderingPlan,
    ProductParams,
    all_pairs_distances,
    build_mesh,
    build_path,
    build_product_graph,
    build_star,
    exact_rn,
    greedy_assign,
    permutation_oracle,
    validate,
)

print("== the gap constraint on P3 ==")
g = build_path(3)
dm = all_pairs_distances(g)
for labels in [(0, 1, 2), (0, 3, 1)]:
    report = validate(g, dm, Labeling(labels))
    print(f"labels {labels}: {'valid' if report.valid else 'invalid'}")
    for v in report.violations:
        print(f"  pair ({v.u}, {v.v}) needs gap {v.required}, has {v.actual}")

print("\n== greedy realization of an ordering ==")
plan = OrderingPlan((0, 2, 1))
labeling = greedy_assign(g, dm, plan)
print(f"visit order {plan.sequence.tolist()} -> labels {tuple(labeling.labels.tolist())}, span {labeling.span}")

print("\n== exact radio numbers, two independent ways ==")
cases = (
    [(f"P{m}", build_path(m)) for m in range(2, 8)]
    + [(f"star({n})", build_star(n)) for n in range(1, 7)]
    + [("P(2,2)", build_mesh(2)), ("P(2,2) x star(1)", build_product_graph(ProductParams(2, 1)).graph)]
)
print(f"{'graph':<18}{'enumeration':>12}{'search':>8}")
for name, graph in cases:
    oracle = permutation_oracle(graph)
    search = exact_rn(graph)
    marker = "" if oracle.value == search.value else "  <-- disagree!"
    print(f"{name:<18}{oracle.value:>12}{search.value:>8}{marker}")

print("\n== a search witness is a concrete optimal labeling ==")
result = exact_rn(build_star(4))
print(f"rn(star(4)) = {result.value}, witness labels {tuple(result.witness.labels.tolist())}")
