"""Immutable graphs, family generators, and exact hop distances.

Two exact routes give all-pairs distances. :func:`bfs_all_pairs` runs
breadth-first search from every vertex of the whole graph; it is the
oracle the tests hold every other route to. :func:`all_pairs_distances`
serves every command: search, construction, validation, bounds and the
claims. A product has two factors, and its distance is the sum of
theirs (Kchikech, Khennoufa & Togni, DMGT 28, 2008; Hammack, Imrich &
Klavzar, Handbook of Product Graphs, 2011, Cor. 5.2), so for a product
of connected factors it keeps the two factors' dense matrices, each
worked out the same way down to BFS on the factors that are not
products, and each distinct factor once per call, so the one P_m in
both places of the mesh-by-star product is searched once. A product
with a disconnected factor is refused, as a sum with an UNREACHABLE
term is not a distance. For the same reason a connected product's
diameter is the sum of its factors' diameters. The mesh-by-star
product is P_m x (P_m x S_n), so its factor matrices are m x m and
m(n + 1) x m(n + 1). A :class:`DistanceMatrix` answers single and vectorised lookups from its
factors, which is all that labeling, validation, the gap matrices and
the claims read. :func:`certify_distances` checks such a matrix against
the graph with the BFS layer condition, a product through its two
factors, so neither the verdicts nor the ``diam`` command build an
N x N matrix or run a BFS of the whole graph.

Construction is strict: a plain graph is made from an edge list, which
:class:`Graph` checks on creation, and every graph is frozen
afterwards. A product is made only by
:func:`cartesian_product`, so its factors always match its adjacency;
it is simple by construction and fixed by its factors, so its adjacency
is laid out straight from the factors' on the first read of
``.adjacency`` and then kept. Labeling, validation and the certificate
of a product never read it: a product graph costs nothing per vertex
until BFS or :meth:`Graph.edges` asks for its edges.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
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


def _checked_vertex(name: str, value, num_vertices: int) -> int:
    """``value`` as a vertex id 0..num_vertices-1, by :func:`checked_int` and a range check."""
    value = checked_int(name, value)
    if not 0 <= value < num_vertices:
        raise InvalidParameterError(f"{name} {value} out of range")
    return value


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Graph:
    """Simple undirected graph on vertex ids ``0..num_vertices-1``.

    ``Graph(num_vertices, edges)`` takes an edge list and rejects a
    vertex count or id that is not an integer (see :func:`checked_int`),
    fewer than one vertex, an id out of range, a self-loop and a
    repeated edge. ``adjacency[v]`` is the sorted tuple of neighbors of
    ``v``. Instances are immutable: assigning an attribute raises.

    ``factors`` is set only by :func:`cartesian_product`, to a product's
    two factors, whose vertex ids combine in mixed radix; the second is
    itself a product when more than two graphs were multiplied. Products of
    equal factors are equal, and a product also equals the same graph
    built from its edge list. A product is fixed by its factors, so it
    is made with no adjacency and lays its adjacency out from theirs, by
    :func:`_product_adjacency`, on the first read of ``.adjacency``, then
    keeps it. Only BFS, :meth:`edges`, :meth:`degree`,
    :attr:`num_edges`, hashing, equality with a graph of other factors
    and the dense check of :func:`certify_distances` read it; labeling,
    validation and the certificate of a product read none of them.
    Sharing a graph between threads is safe: ``adjacency`` is a
    :class:`~functools.cached_property`, whose first reads are
    serialised on Python 3.10 and 3.11; from 3.12 two first reads at
    once may each lay out the adjacency, but they build equal tuples
    and either is kept.
    """

    num_vertices: int
    factors: tuple[Graph, Graph] | tuple[()]

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
        # the adjacency goes where its cached_property would keep it
        adjacency = tuple(tuple(sorted(s)) for s in neighbors)
        vars(self).update(num_vertices=num_vertices, factors=(), adjacency=adjacency)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _product_adjacency(*self.factors)

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
    vars(g).update(num_vertices=num_vertices, factors=factors)
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
    """Cartesian product of two or more graphs, folded right to left.

    Vertices are tuples flattened in mixed radix (leftmost factor most
    significant); two tuples are adjacent iff they agree in all
    coordinates but one and differ by an edge there. Each fold records
    its two factors, so ``cartesian_product([a, b, c]).factors`` is
    ``(a, b x c)``: the mesh-by-star product is P_m x (P_m x S_n), whose
    second factor is one mesh row of fibers. Mixed radix is associative,
    so the fold order moves no vertex id. No adjacency is laid out until
    it is read.
    """
    factors = list(factors)
    if len(factors) < 2:
        raise InvalidParameterError("cartesian product needs at least two factors")
    return reduce(lambda b, a: _unchecked(a.num_vertices * b.num_vertices, (a, b)), reversed(factors))


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
    m = checked_int("mesh order", m)
    if m < 2:
        raise InvalidParameterError(f"mesh order must be >= 2, got {m}")
    p = build_path(m)
    return cartesian_product([p, p])


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
    one-vertex first factor adds nothing, so ``db`` comes back as it is,
    which keeps a dense matrix its own :attr:`DistanceMatrix.matrix`.
    """
    if len(da) == 1:
        return db
    na, nb = len(da), len(db)
    nv = na * nb
    # row (u, v) of the product is d_a(u, .) with each entry repeated nb
    # times plus d_b(v, .) tiled na times, so each add runs over a whole
    # N-entry row and the only temporary is the na x N repeated block
    out = np.empty((na, nb, nv), dtype=da.dtype)
    np.add(np.repeat(da, nb, axis=1)[:, None, :], np.tile(db, na)[None, :, :], out=out)
    return out.reshape(nv, nv)


def _checked_table(matrix: np.ndarray, plus: int = 0) -> np.ndarray:
    """``matrix`` itself, if it is a square 2-D numpy array of an integer dtype, not bool, and not 0 x 0.

    Its dtype must also hold its largest entry plus ``plus`` plus one:
    the gaps diam + 1 - d and the certificate's D + 1 are worked out in
    that dtype, so a narrower one would wrap or overflow.
    """
    shape, dtype = getattr(matrix, "shape", None), getattr(matrix, "dtype", None)
    if dtype is None or dtype.kind not in "iu" or len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidParameterError(f"not a square integer distance matrix: {dtype} of shape {shape}")
    if not shape[0]:
        raise InvalidParameterError("distance matrix needs at least one vertex")
    if (largest := int(matrix.max()) + plus) >= np.iinfo(dtype).max:
        raise InvalidParameterError(f"{dtype} cannot hold the largest distance {largest} plus one")
    return matrix


class DistanceMatrix:
    """All-pairs hop counts for one graph, kept as two factor matrices A, B.

    A and B are the dense matrices of a product's two factors. Vertex u
    is the pair (u div |B|, u mod |B|), and d(u, v) is the A entry of the
    first coordinates plus the B entry of the second;
    :meth:`from_factors` takes only connected factors, so every sum is a
    hop count. For the mesh-by-star product P_m x (P_m x S_n) at
    (100, 10), N = 110,000, A and B are 100 x 100 and 1100 x 1100, where
    an N x N matrix would take 48 GB. A dense matrix M is the one-factor case:
    ``DistanceMatrix(M)`` has A = [[0]] and B = M itself, uncopied, and
    reads UNREACHABLE where M does. M must be a square 2-D numpy array
    of an integer dtype, not bool, with at least one row, whose dtype
    holds its largest entry plus one, or InvalidParameterError is raised.

    ``dm[u, v]`` and :meth:`pairs` read only the factors; labeling,
    validation, the gap matrices and the claims use nothing else, and
    :func:`certify_distances` checks a product's two factors one at a
    time. :attr:`matrix` is the dense N x N matrix, a
    :class:`~functools.cached_property` summed from the factors on the
    first read and kept in the instance ``__dict__``; the dense check
    reads it, which for the mesh-by-star product means the
    m(n + 1)-vertex fiber row's, never the whole product's. ``diameter``
    is the sum of the factors' diameters, cached the same way, and
    refuses to summarize a disconnected graph.
    """

    def __init__(self, matrix: np.ndarray):
        self._b = _checked_table(matrix)
        self._a = np.zeros((1, 1), dtype=matrix.dtype)

    @classmethod
    def from_factors(cls, a: np.ndarray, b: np.ndarray) -> "DistanceMatrix":
        """Distances of the product of connected graphs with matrices ``a`` and ``b``.

        Each factor is held to the dense matrix's checks, and the two must
        share a dtype, the one :meth:`pairs` and :attr:`matrix` add in,
        which must hold the sum of their largest entries plus one.
        """
        dm = cls(b)
        if _checked_table(a).dtype != b.dtype:
            raise InvalidParameterError(f"factor matrices must share a dtype, got {a.dtype} and {b.dtype}")
        _checked_table(a, plus=int(b.max()))
        if min(a.min(), b.min()) == UNREACHABLE:
            raise DisconnectedGraphError("a factor is disconnected; its sums are not distances")
        dm._a = a
        return dm

    @cached_property
    def matrix(self) -> np.ndarray:
        return _sum_tables(self._a, self._b)

    def __getitem__(self, pair: tuple[int, int]) -> int:
        u, v = (_checked_vertex("vertex id", x, self.num_vertices) for x in pair)
        nb = len(self._b)
        return self._a.item(u // nb, v // nb) + self._b.item(u % nb, v % nb)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``d(u, v)`` over ``us`` and ``vs`` broadcast together, in the matrix's dtype.

        Each factor is read flat: u's row starts at offset ``oa[u]`` and
        v is column ``ia[v]``. These per-vertex arrays are the
        ``_pairs_index`` cached property, worked out on the first call.

        The ids are not range-checked: a negative id wraps, as in
        ``dm.pairs([-1], [0])``, which reads d(N - 1, 0), and an id of N
        or more raises a bare IndexError. Callers check first:
        :func:`~radiomesh.search.gap_matrix` and
        :class:`~radiomesh.labeling.OrderingPlan` check their ids, and
        ``validate``'s come from ``argsort``.
        """
        fa, oa, ia, fb, ob, ib = self._pairs_index
        return fa.take(oa.take(us) + ia.take(vs)) + fb.take(ob.take(us) + ib.take(vs))

    @cached_property
    def _pairs_index(self) -> tuple[np.ndarray, ...]:
        na, nb = len(self._a), len(self._b)
        ia = np.repeat(np.arange(na), nb)
        ib = np.tile(np.arange(nb), na)
        return self._a.ravel(), ia * na, ia, self._b.ravel(), ib * nb, ib

    @property
    def num_vertices(self) -> int:
        return len(self._a) * len(self._b)

    @cached_property
    def diameter(self) -> int:
        # min() allocates nothing; an == UNREACHABLE mask would be a
        # whole factor. The farthest pair takes each factor's farthest
        # pair at once, so the diameter is the sum of the factors'.
        if min(self._a.min(), self._b.min()) == UNREACHABLE:
            raise DisconnectedGraphError("graph is disconnected; diameter undefined")
        return int(self._a.max()) + int(self._b.max())


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


def certify_distances(g: Graph, dm: DistanceMatrix) -> bool:
    """Whether ``dm`` holds the hop counts of ``g``, checked against its adjacency alone.

    The certificate is the BFS layer condition: every entry is at least
    0, the diagonal is 0, and each off-diagonal entry D(u, w) is 1 plus
    the least D(u, v) over the neighbours v of w. Only the true distance
    matrix d meets it, so a disconnected graph has none:

    - D <= d, by induction along a shortest path from u to w;
    - D >= d, because from w the neighbour that decreases D, one step
      at a time, reaches the only zero of row u, u itself, in D(u, w) steps.

    A product made by :func:`cartesian_product`, with ``dm`` holding two
    factor matrices A and B of its factors' sizes, is certified through
    its factors, each in turn by this same function, so no N x N matrix
    is read. That suffices, as D((u, v), (w, x)) = A(u, w) + B(v, x)
    then meets the layer condition on the product:

    - the factor certificates make A and B their factors' distances,
      and both factors connected;
    - the neighbours of (w, x) are (w', x) and (w, x') for the
      neighbours w' of w and x' of x, as :func:`_product_adjacency` lays
      them out, so a coordinate that differs from (u, v) has a
      neighbour one step closer in its factor, and no neighbour is more
      than one step closer.

    Anything else, a graph given its edge list among them, gets the
    dense check on ``dm.matrix``. It gathers one neighbour slot at a
    time in the matrix's own dtype, so it runs no search and allocates
    two N x N arrays of that dtype. Neighbour rows are padded to the
    largest degree with the vertex w itself. That adds D(u, w) to the
    entries whose least D(u, w) must exceed by 1, which changes nothing
    where the condition holds, and fails where D(u, w) would be the
    least, as D(u, w) is never D(u, w) + 1; so an isolated vertex fails
    its column off the diagonal. The ``+ 1`` cannot overflow, as a
    :class:`DistanceMatrix`'s dtype holds its largest entry plus one.
    """
    tables = (dm._a, dm._b)
    if g.factors and [len(t) for t in tables] == [f.num_vertices for f in g.factors]:
        return all(certify_distances(f, DistanceMatrix(t)) for f, t in zip(g.factors, tables))
    nv = g.num_vertices
    matrix = dm.matrix
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
    least += 1
    np.fill_diagonal(least, 0)  # so the diagonal must read 0
    return np.array_equal(least, matrix)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Exact all-pairs hop counts, from BFS on each distinct factor of a product once.

    Equal entry for entry to :func:`bfs_all_pairs` on every graph it
    accepts. A graph with no factors gets :func:`bfs_all_pairs` itself,
    UNREACHABLE entries included. A product keeps its two factors' dense
    matrices, each worked out the same way and cast to the dtype for the
    whole graph's N, so P_m x (P_m x S_n) keeps P_m's matrix and the
    fiber row's. A factor object met again within the call, as the one
    P_m is in both places, reuses the matrix worked out the first time,
    so that P_m's BFS runs once. If either factor is disconnected, DisconnectedGraphError is
    raised, as a sum with an UNREACHABLE term is not a distance;
    :func:`bfs_all_pairs` still gives such a product's UNREACHABLE
    entries. The N x N matrix is built only if ``.matrix`` is read: the
    lookups, the diameter and :func:`certify_distances` read the two
    factors alone.
    """
    return _distances(g, _distance_dtype(g.num_vertices), {})


def _distances(g: Graph, dtype: type, seen: dict[int, np.ndarray]) -> DistanceMatrix:
    """:func:`all_pairs_distances` of ``g``, a product's factor matrices in ``dtype``.

    ``seen`` maps the ``id`` of each factor worked out so far in this
    call to its dense matrix in ``dtype``. It is keyed on identity, not
    on :class:`Graph` equality, which would lay out a product's
    adjacency; ``g`` holds every factor, so no id is reused while the
    dict lives. A disconnected factor is refused by
    :meth:`DistanceMatrix.from_factors`, before any BFS of a product.
    """
    if not g.factors:
        return bfs_all_pairs(g)
    for f in g.factors:
        if id(f) not in seen:
            seen[id(f)] = _distances(f, dtype, seen).matrix.astype(dtype, copy=False)
    return DistanceMatrix.from_factors(*(seen[id(f)] for f in g.factors))
