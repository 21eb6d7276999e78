"""Immutable graphs, family generators, and exact hop distances.

Two exact routes give all-pairs distances. :func:`bfs_all_pairs` runs
breadth-first search from every vertex of the whole graph; it is the
oracle the tests hold every other route to. :func:`all_pairs_distances`
serves search, construction, validation and bounds: for a product of
connected factors it keeps two factor matrices, since product distance
is the sum of the factor distances (Kchikech, Khennoufa & Togni, DMGT
28, 2008), and otherwise, a disconnected factor included, it falls back
to BFS. For the same reason a connected product's diameter is the sum
of its factors' diameters. A :class:`DistanceMatrix` answers single
and vectorised lookups from its factors, which is all that labeling,
validation and the gap matrices read; the dense N x N matrix is built
from the factors only when ``.matrix`` is first read, which only
``claims.run_verification`` does. It passes that matrix to
:func:`certify_distances`, which checks it against the whole graph's
adjacency with the BFS layer condition in a few numpy passes instead
of a BFS from every vertex, so the distance and diameter claims read a
matrix certified equal to BFS's.

Construction is strict: a plain graph is made from an edge list, which
:class:`Graph` checks on creation, and every graph is frozen
afterwards. A product is made only by
:func:`cartesian_product`, so its factors always match its adjacency;
it is simple by construction and fixed by its factors, so its adjacency
is laid out straight from the factors' on the first read of
``.adjacency`` and then kept. Labeling and validation never read it: a
product graph costs nothing per vertex until BFS, the certificate or
:meth:`Graph.edges` asks for its edges.
"""
from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError
from functools import reduce
from math import prod
from typing import Iterable, Sequence

import numpy as np

UNREACHABLE = -1


class InvalidParameterError(ValueError):
    """An operation was called with arguments outside its contract."""


class DisconnectedGraphError(Exception):
    """The operation needs a connected graph and the input is not one."""


def checked_int(name: str, value) -> int:
    """``value`` as a Python int, for a Python or numpy integer that is not a bool.

    A bool would pass for 0 or 1 and a float would fail only later, so
    any other value raises InvalidParameterError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


class Graph:
    """Simple undirected graph on vertex ids ``0..num_vertices-1``.

    ``Graph(num_vertices, edges)`` takes an edge list and rejects a
    vertex count or id that is not an integer (see :func:`checked_int`),
    fewer than one vertex, an id out of range, a self-loop and a
    repeated edge. ``adjacency[v]`` is the sorted tuple of neighbors of
    ``v``. Instances are immutable: assigning an attribute raises.

    ``factors`` is set only by :func:`cartesian_product`, to a product's
    two factors, whose vertex ids combine in mixed radix. Products of
    equal factors are equal, and a product also equals the same graph
    built from its edge list. A product is fixed by its factors, so it
    is made with no adjacency and lays its adjacency out from theirs, by
    :func:`_product_adjacency`, on the first read of ``.adjacency``, then
    keeps it. Only BFS, :func:`certify_distances`, :meth:`edges`,
    :meth:`degree`, :attr:`num_edges`, hashing and equality with a graph
    of other factors read it; labeling and validation read none of
    them. Sharing a graph between threads is safe: two first reads at
    once may each lay out the adjacency, but they build equal tuples and
    either is kept.
    """

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]]):
        num_vertices = checked_int("vertex count", num_vertices)
        if num_vertices <= 0:
            raise InvalidParameterError("graph needs at least one vertex")
        neighbors: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in edges:
            u, v = checked_int("vertex id", u), checked_int("vertex id", v)
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            if v in neighbors[u]:
                raise InvalidParameterError(f"duplicate edge ({u}, {v})")
            neighbors[u].add(v)
            neighbors[v].add(u)
        self._fill(num_vertices, tuple(tuple(sorted(s)) for s in neighbors), ())

    def _fill(self, num_vertices, adjacency, factors) -> None:
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "_adjacency", adjacency)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self._adjacency is None:
            object.__setattr__(self, "_adjacency", _product_adjacency(*self.factors))
        return self._adjacency

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        if self.factors and self.factors == other.factors:
            return True  # a product is fixed by its factors
        return self.num_vertices == other.num_vertices and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((self.num_vertices, self.adjacency))

    def __repr__(self):
        return f"Graph(num_vertices={self.num_vertices}, factors={self.factors!r})"

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        return [(u, v) for u in range(self.num_vertices) for v in self.adjacency[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _unchecked(num_vertices: int, factors: tuple[Graph, Graph]) -> Graph:
    """The product of ``factors``, with no adjacency until it is read.

    Both factors are simple, so the product is too, and the edge checks
    of :class:`Graph` are skipped; :func:`cartesian_product` is the only
    caller.
    """
    g = object.__new__(Graph)
    g._fill(num_vertices, None, factors)
    return g


def build_path(m: int) -> Graph:
    """Path on ``m`` vertices: 0 - 1 - ... - m-1."""
    m = checked_int("path order", m)
    if m < 1:
        raise InvalidParameterError(f"path order must be >= 1, got {m}")
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def build_star(n: int) -> Graph:
    """Star with hub 0 adjacent to the ``n`` leaves 1..n."""
    n = checked_int("star leaf count", n)
    if n < 1:
        raise InvalidParameterError(f"star leaf count must be >= 1, got {n}")
    return Graph(n + 1, [(0, leaf) for leaf in range(1, n + 1)])


def cartesian_product(factors: Sequence[Graph]) -> Graph:
    """Cartesian product of two or more graphs, folded left to right.

    Vertices are tuples flattened in mixed radix (leftmost factor most
    significant); two tuples are adjacent iff they agree in all
    coordinates but one and differ by an edge there. Each fold records
    its two factors; no adjacency is laid out until it is read.
    """
    factors = list(factors)
    if len(factors) < 2:
        raise InvalidParameterError("cartesian product needs at least two factors")
    return reduce(lambda a, b: _unchecked(a.num_vertices * b.num_vertices, (a, b)), factors)


def _product_adjacency(a: Graph, b: Graph) -> tuple[tuple[int, ...], ...]:
    """Adjacency of the product of ``a`` and ``b``, laid out from theirs.

    Vertex (u, v) has id u * |B| + v, and its sorted neighbours are its
    A-neighbours w < u as w * |B| + v, then its B-neighbours x as
    u * |B| + x, then its A-neighbours w > u. Both factors are simple,
    so the product is too, and no sets or sorts are needed.
    """
    nb = b.num_vertices
    adjacency = []
    for u, a_nbrs in enumerate(a.adjacency):
        below = [w * nb for w in a_nbrs if w < u]
        above = [w * nb for w in a_nbrs if w > u]
        base = u * nb
        for v, b_nbrs in enumerate(b.adjacency):
            adjacency.append(
                tuple([w + v for w in below] + [base + x for x in b_nbrs] + [w + v for w in above])
            )
    return tuple(adjacency)


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
    return np.array(_bfs_row(g.adjacency, source), dtype=np.int64)


def _bfs_row(adjacency: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Hop counts from ``source`` as a list, UNREACHABLE where unreached."""
    # a Python list: reading and writing numpy elements one at a time
    # costs several times as much
    dist = [UNREACHABLE] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du
                queue.append(w)
    return dist


def _sum_tables(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Distance matrix of the product of two graphs with matrices ``da``, ``db``.

    Entry ((u, v), (w, x)) is d_a(u, w) + d_b(v, x). Both graphs must be
    connected: a sum with an UNREACHABLE term is not a distance. A
    one-vertex factor adds nothing, so the other matrix comes back as it
    is.
    """
    if len(da) == 1:
        return db
    if len(db) == 1:
        return da
    na, nb = len(da), len(db)
    nv = na * nb
    # row (u, v) of the product is d_a(u, .) with each entry repeated nb
    # times plus d_b(v, .) tiled na times, so each add runs over a whole
    # N-entry row and the only temporary is the na x N repeated block
    out = np.empty((na, nb, nv), dtype=da.dtype)
    np.add(np.repeat(da, nb, axis=1)[:, None, :], np.tile(db, na)[None, :, :], out=out)
    return out.reshape(nv, nv)


class DistanceMatrix:
    """All-pairs hop counts for one graph, kept as two factor matrices A, B.

    Vertex u is the pair (u div |B|, u mod |B|), and d(u, v) is the A
    entry of the first coordinates plus the B entry of the second;
    :meth:`from_factors` takes only connected factors, so every sum is a
    hop count. For the mesh-by-star product at (100, 10), N = 110,000,
    A and B are 100 x 100 and 1100 x 1100, where an N x N matrix would
    take 48 GB. A dense matrix M is the one-factor case:
    ``DistanceMatrix(M)`` has A = [[0]] and B = M, and reads UNREACHABLE
    where M does.

    ``dm[u, v]`` and :meth:`pairs` read only the factors; labeling,
    validation and the gap matrices use nothing but :meth:`pairs`.
    :attr:`matrix` is the dense N x N matrix, built from the factors on
    first access and then kept; only ``claims.run_verification`` reads
    it, to certify it with :func:`certify_distances`. ``diameter`` is the
    sum of the factors' diameters, and refuses to summarize a
    disconnected graph.
    """

    __slots__ = ("_a", "_b", "_matrix", "_diameter", "_index")

    def __init__(self, matrix: np.ndarray):
        self._a = np.zeros((1, 1), dtype=matrix.dtype)
        self._b = matrix
        self._matrix: np.ndarray | None = None
        self._diameter: int | None = None
        self._index: tuple | None = None

    @classmethod
    def from_factors(cls, a: np.ndarray, b: np.ndarray) -> "DistanceMatrix":
        """Distances of the product of connected graphs with matrices ``a`` and ``b`` (same dtype)."""
        if min(a.min(), b.min()) == UNREACHABLE:
            raise DisconnectedGraphError("a factor is disconnected; its sums are not distances")
        dm = cls(b)
        dm._a = a
        return dm

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _sum_tables(self._a, self._b)
        return self._matrix

    def __getitem__(self, pair: tuple[int, int]) -> int:
        u, v = pair
        nb = len(self._b)
        return self._a.item(u // nb, v // nb) + self._b.item(u % nb, v % nb)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``d(u, v)`` over ``us`` and ``vs`` broadcast together, in the matrix's dtype.

        Each factor is read flat: u's row starts at offset ``oa[u]`` and
        v is column ``ia[v]``. These per-vertex arrays are worked out on
        the first call and kept.
        """
        if self._index is None:
            na, nb = len(self._a), len(self._b)
            ia = np.repeat(np.arange(na), nb)
            ib = np.tile(np.arange(nb), na)
            self._index = (self._a.ravel(), ia * na, ia, self._b.ravel(), ib * nb, ib)
        fa, oa, ia, fb, ob, ib = self._index
        return fa.take(oa.take(us) + ia.take(vs)) + fb.take(ob.take(us) + ib.take(vs))

    @property
    def num_vertices(self) -> int:
        return len(self._a) * len(self._b)

    @property
    def diameter(self) -> int:
        if self._diameter is None:
            # min() allocates nothing; an == UNREACHABLE mask would be a
            # whole factor. The farthest pair takes each factor's farthest
            # pair at once, so the diameter is the sum of the factors'.
            if min(self._a.min(), self._b.min()) == UNREACHABLE:
                raise DisconnectedGraphError("graph is disconnected; diameter undefined")
            self._diameter = int(self._a.max()) + int(self._b.max())
        return self._diameter


def _distance_dtype(num_vertices: int) -> type:
    """Smallest integer type holding every hop count (at most N - 1) and UNREACHABLE."""
    return np.int16 if num_vertices <= np.iinfo(np.int16).max else np.int32


def bfs_all_pairs(g: Graph) -> DistanceMatrix:
    """BFS from every source of the whole graph, each row's list written straight into the matrix."""
    nv = g.num_vertices
    matrix = np.empty((nv, nv), dtype=_distance_dtype(nv))
    adjacency = g.adjacency
    for s in range(nv):
        matrix[s] = _bfs_row(adjacency, s)
    return DistanceMatrix(matrix)


def certify_distances(g: Graph, matrix: np.ndarray) -> bool:
    """Whether ``matrix`` is the hop-count matrix of ``g``, checked against its adjacency alone.

    The certificate is the BFS layer condition: every entry is at least
    0, the diagonal is 0, and each off-diagonal entry D(u, w) is 1 plus
    the least D(u, v) over the neighbours v of w. Only the true distance
    matrix d meets it, so a disconnected graph has none:

    - D <= d, by induction along a shortest path from u to w;
    - D >= d, because from w the neighbour that decreases D, one step
      at a time, reaches the only zero of row u, u itself, in D(u, w) steps.

    The check gathers one neighbour slot at a time in the matrix's own
    dtype, so it runs no search and allocates two N x N arrays of that
    dtype. Neighbour rows are padded to the largest degree with the
    vertex w itself. That adds D(u, w) to the entries whose least D(u, w)
    must exceed by 1, which changes nothing where the condition holds,
    and fails where D(u, w) would be the least, as D(u, w) is never
    D(u, w) + 1; so an isolated vertex fails its column off the diagonal.
    An overflowing ``+ 1`` wraps negative and never matches an entry.
    """
    nv = g.num_vertices
    # entries >= 0 follow from the rest, as a row's least entry off the
    # diagonal would be 1 plus a smaller one; one min() rejects
    # UNREACHABLE before any gather
    if matrix.shape != (nv, nv) or matrix.min() < 0:
        return False
    adjacency = g.adjacency
    width = max(1, *map(len, adjacency))  # an edgeless graph gets one slot
    slots = np.array([row + (w,) * (width - len(row)) for w, row in enumerate(adjacency)], dtype=np.intp)
    # least[u, w] is the least D(u, v) over the neighbours v of w
    least = matrix[:, slots[:, 0]]
    for k in range(1, width):
        np.minimum(least, matrix[:, slots[:, k]], out=least)
    np.fill_diagonal(least, -1)  # so the diagonal must read 0
    least += 1
    return np.array_equal(least, matrix)


def _leaves(g: Graph) -> list[Graph]:
    """The factors of ``g`` that are not products, in mixed-radix order."""
    return [leaf for f in g.factors for leaf in _leaves(f)] if g.factors else [g]


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Exact all-pairs hop counts from BFS on each non-product factor.

    Equal entry for entry to :func:`bfs_all_pairs`, UNREACHABLE included:
    a graph with no factors, or a product any of whose leaf factors is
    disconnected, gets :func:`bfs_all_pairs` itself. Mixed radix is
    associative, so the leaf factors can be regrouped into any two runs;
    they are split where the larger run has the fewest vertices
    (P_m x (P_m x S_n) for a mesh-by-star product), and each run's
    matrix is the sum of its leaves'. A leaf that occurs more
    than once as the same object, like P_m in the mesh, is searched once.
    The N x N matrix is built only if ``.matrix`` is read, and the
    diameter is the sum of the two runs' diameters, so neither scans
    N x N entries.
    """
    if not g.factors:
        return bfs_all_pairs(g)
    dtype = _distance_dtype(g.num_vertices)
    leaves = _leaves(g)
    # every leaf is held by g, so no id is reused while this runs
    distinct = {id(leaf): leaf for leaf in leaves}
    matrices = {key: bfs_all_pairs(leaf).matrix.astype(dtype, copy=False) for key, leaf in distinct.items()}
    # checked on the leaves: a sum of their entries can hide a -1
    if min(t.min() for t in matrices.values()) == UNREACHABLE:
        return bfs_all_pairs(g)
    tables = [matrices[id(leaf)] for leaf in leaves]
    sizes = [len(t) for t in tables]
    split = min(range(len(tables)), key=lambda i: max(prod(sizes[:i]), prod(sizes[i:])))
    one = np.zeros((1, 1), dtype=dtype)
    return DistanceMatrix.from_factors(
        reduce(_sum_tables, tables[:split], one), reduce(_sum_tables, tables[split:])
    )


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
