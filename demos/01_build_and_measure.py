#!/usr/bin/env python3
"""Walkthrough: building the graph families and measuring them.

Constructs paths, stars, meshes, and mesh-by-star products, then checks
the structural facts everything else relies on: vertex counts, degrees,
BFS distances, and diameter additivity across product factors.
"""
import sys

from radiomesh import (
    ProductParams,
    all_pairs_distances,
    bfs_distances,
    build_mesh,
    build_path,
    build_product_graph,
    build_star,
    cartesian_product,
    diameter,
    vertex_coord,
    vertex_id,
)

print("== families ==")
for m in (2, 3, 5):
    print(f"path P{m}: {build_path(m).num_vertices} vertices, diameter {diameter(build_path(m))}")
for n in (1, 2, 4):
    s = build_star(n)
    print(f"star with {n} leaves: {s.num_vertices} vertices, diameter {diameter(s)}")
print(f"mesh P(3,3): {build_mesh(3).num_vertices} vertices, diameter {diameter(build_mesh(3))}")

print("\n== diameter additivity over products ==")
broken = 0
for pm in (2, 3, 4):
    for sn in (1, 2, 3):
        path, star = build_path(pm), build_star(sn)
        product = cartesian_product([path, star])
        total = diameter(path) + diameter(star)
        additive = diameter(product) == total
        broken += not additive
        print(
            f"P{pm} x star({sn}): diameter {diameter(product)}"
            f" = {diameter(path)} + {diameter(star)} -> {'ok' if additive else 'BROKEN'}"
        )

print("\n== mesh-by-star products ==")
for m, n in [(2, 1), (4, 5), (5, 5)]:
    pg = build_product_graph(ProductParams(m, n))
    dm = all_pairs_distances(pg.graph)
    print(
        f"(m={m}, n={n}): {pg.graph.num_vertices} vertices,"
        f" {pg.graph.num_edges} edges, diameter {dm.diameter}"
        f" (2m = {2 * m}{', single-leaf deviation' if dm.diameter != 2 * m else ''})"
    )

print("\n== coordinates and a sample BFS row ==")
params = ProductParams(2, 1)
pg = build_product_graph(params)
hub = vertex_id(params, 0, 0, 0)
row = bfs_distances(pg.graph, hub)
for vid in range(pg.graph.num_vertices):
    c = vertex_coord(params, vid)
    print(f"vertex {vid} = (row {c.row}, col {c.col}, star {c.star}), dist from hub {row[vid]}")

if broken:
    sys.exit(f"{broken} product diameters are not additive")
