"""Immutable graphs, family generators, and exact hop distances.

Two exact routes give all-pairs distances. :func:`bfs_all_pairs` runs
breadth-first search from every vertex of the whole graph; claims that
observe a distance or a diameter use it as their ground truth.
:func:`all_pairs_distances` serves search, construction, validation and
bounds: for a Cartesian product it adds the factors' matrices, since
product distance is the sum of the factor distances (Kchikech, Khennoufa
& Togni, DMGT 28, 2008), and otherwise it falls back to BFS. For the
same reason a connected product's diameter is the sum of its factors'
diameters, which that route records instead of scanning the matrix.

Construction is strict: simple undirected graphs only, validated on
creation, and frozen afterwards.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import reduce
from math import prod
from typing import Iterable, Sequence

import numpy as np

UNREACHABLE = -1


class InvalidParameterError(ValueError):
    """An operation was called with arguments outside its contract."""


class DisconnectedGraphError(Exception):
    """The operation needs a connected graph and the input is not one."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex ids ``0..num_vertices-1``.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``. Instances
    are immutable and safe to share between threads.

    ``factors`` is set on a Cartesian product to its two factors, whose
    vertex ids combine in mixed radix; it takes no part in equality, so
    a product equals the same graph parsed from its edge list.
    """

    num_vertices: int
    adjacency: tuple[tuple[int, ...], ...]
    factors: tuple["Graph", ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.factors and prod(f.num_vertices for f in self.factors) != self.num_vertices:
            raise InvalidParameterError("factor orders do not multiply to the vertex count")

    @staticmethod
    def from_edges(num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, rejecting loops and duplicates."""
        if num_vertices <= 0:
            raise InvalidParameterError("graph needs at least one vertex")
        neighbors: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            if v in neighbors[u]:
                raise InvalidParameterError(f"duplicate edge ({u}, {v})")
            neighbors[u].add(v)
            neighbors[v].add(u)
        return Graph(num_vertices, tuple(tuple(sorted(s)) for s in neighbors))

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        return [(u, v) for u in range(self.num_vertices) for v in self.adjacency[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def build_path(m: int) -> Graph:
    """Path on ``m`` vertices: 0 - 1 - ... - m-1."""
    if m < 1:
        raise InvalidParameterError(f"path order must be >= 1, got {m}")
    return Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def build_star(n: int) -> Graph:
    """Star with hub 0 adjacent to the ``n`` leaves 1..n."""
    if n < 1:
        raise InvalidParameterError(f"star leaf count must be >= 1, got {n}")
    return Graph.from_edges(n + 1, [(0, leaf) for leaf in range(1, n + 1)])


def cartesian_product(factors: Sequence[Graph]) -> Graph:
    """Cartesian product of two or more graphs, folded left to right.

    Vertices are tuples flattened in mixed radix (leftmost factor most
    significant); two tuples are adjacent iff they agree in all
    coordinates but one and differ by an edge there.
    """
    factors = list(factors)
    if len(factors) < 2:
        raise InvalidParameterError("cartesian product needs at least two factors")
    for g in factors:
        if g.num_vertices == 0:
            raise InvalidParameterError("cartesian product factors must be non-empty")
    return reduce(_binary_product, factors)


def _binary_product(a: Graph, b: Graph) -> Graph:
    nb = b.num_vertices
    edges = []
    for u in range(a.num_vertices):
        for v in range(b.num_vertices):
            base = u * nb + v
            for w in a.adjacency[u]:
                if w > u:
                    edges.append((base, w * nb + v))
            for x in b.adjacency[v]:
                if x > v:
                    edges.append((base, u * nb + x))
    return replace(Graph.from_edges(a.num_vertices * nb, edges), factors=(a, b))


def build_mesh(m: int) -> Graph:
    """Square mesh (m x m grid graph), the product of two order-m paths."""
    if m < 2:
        raise InvalidParameterError(f"mesh order must be >= 2, got {m}")
    p = build_path(m)
    return cartesian_product([p, p])


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop counts from ``source``; UNREACHABLE marks unreached vertices."""
    if not 0 <= source < g.num_vertices:
        raise InvalidParameterError(f"source {source} out of range")
    dist = np.full(g.num_vertices, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du + 1
                queue.append(w)
    return dist


class DistanceMatrix:
    """All-pairs hop counts for one graph, with the diameter cached.

    Entries equal to UNREACHABLE mark pairs in different components; the
    ``diameter`` property refuses to summarize such a matrix.
    """

    __slots__ = ("matrix", "_diameter")

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self._diameter: int | None = None

    def __getitem__(self, pair: tuple[int, int]) -> int:
        u, v = pair
        return int(self.matrix[u, v])

    def row(self, u: int) -> np.ndarray:
        return self.matrix[u]

    @property
    def num_vertices(self) -> int:
        return self.matrix.shape[0]

    @property
    def diameter(self) -> int:
        if self._diameter is None:
            # min() allocates nothing; an == UNREACHABLE mask would be N x N
            if self.matrix.min() == UNREACHABLE:
                raise DisconnectedGraphError("graph is disconnected; diameter undefined")
            self._diameter = int(self.matrix.max())
        return self._diameter


def _distance_dtype(num_vertices: int) -> type:
    """Smallest integer type holding every hop count (at most N - 1) and UNREACHABLE."""
    return np.int16 if num_vertices <= np.iinfo(np.int16).max else np.int32


def bfs_all_pairs(g: Graph) -> DistanceMatrix:
    """BFS from every source of the whole graph, one matrix row each."""
    nv = g.num_vertices
    matrix = np.empty((nv, nv), dtype=_distance_dtype(nv))
    for s in range(nv):
        matrix[s] = bfs_distances(g, s)
    return DistanceMatrix(matrix)


def _summed_distances(g: Graph) -> DistanceMatrix:
    if not g.factors:
        return bfs_all_pairs(g)
    fa, fb = (_summed_distances(f) for f in g.factors)
    dtype = _distance_dtype(g.num_vertices)
    da = fa.matrix.astype(dtype, copy=False)
    db = fb.matrix.astype(dtype, copy=False)
    na, nb = len(da), len(db)
    nv = na * nb
    # row (u, v) of the product is d_a(u, .) with each entry repeated nb
    # times plus d_b(v, .) tiled na times, so each add runs over a whole
    # N-entry row and the only temporary is the na x N repeated block
    out = np.empty((na, nb, nv), dtype=dtype)
    np.add(np.repeat(da, nb, axis=1)[:, None, :], np.tile(db, na)[None, :, :], out=out)
    dm = DistanceMatrix(out.reshape(nv, nv))
    u, w = np.nonzero(da == UNREACHABLE)
    v, x = np.nonzero(db == UNREACHABLE)
    if len(u) or len(v):
        grid = out.reshape(na, nb, na, nb)
        grid[u, :, w, :] = UNREACHABLE
        grid[:, v, :, x] = UNREACHABLE
    else:
        # the farthest pair takes each coordinate's farthest pair at once
        dm._diameter = fa.diameter + fb.diameter
    return dm


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Exact all-pairs hop counts; a product sums its factors' matrices.

    Equal entry for entry to :func:`bfs_all_pairs`, UNREACHABLE included.
    A connected product's diameter is set to the sum of its factors'
    diameters, so reading it never scans the N x N matrix.
    """
    return _summed_distances(g)


def is_connected(g: Graph) -> bool:
    return bool((bfs_distances(g, 0) != UNREACHABLE).all())


def diameter(g: Graph) -> int:
    """Exact diameter by BFS from every vertex; raises on disconnected input.

    Keeps only the largest eccentricity, so memory stays O(N); the time
    is still N pure-Python BFS runs.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("graph is disconnected; diameter undefined")
    return max(int(bfs_distances(g, s).max()) for s in range(g.num_vertices))
