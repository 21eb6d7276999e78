"""Exact minimum-span search for radio labelings.

Two independent routes compute the radio number of small graphs: a
branch-and-bound over vertex orderings (:func:`exact_rn`) and a brute
force over every ordering (:func:`permutation_oracle`). Both use the
fact that some optimal labeling is the greedy realization of the order
of its vertices by label value, so minimizing greedy spans over
orderings is exact. They share no distance route either: the search
reads :func:`~radiomesh.graphs.all_pairs_distances`, which sums factor
distances on a product, and the oracle reads whole-graph BFS
(:func:`~radiomesh.graphs.bfs_all_pairs`).

The branch-and-bound core, :func:`minimize_span`, works on an explicit
gap-requirement matrix, so callers can also pose induced-subset
problems that keep the host graph's metric (see :func:`gap_matrix`);
the claims harness searches both span claims that way.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Sequence

import numpy as np

from .graphs import (
    DistanceMatrix,
    Graph,
    InvalidParameterError,
    all_pairs_distances,
    bfs_all_pairs,
    checked_int,
)
from .labeling import Labeling, _integer_entries, required_gaps

ORACLE_MAX_VERTICES = 9

# Three times the largest search on the default verify grid (6,444,838
# nodes for the 12-vertex (2,2) product), so verdicts on that grid never
# depend on the budget.
DEFAULT_NODE_LIMIT = 20_000_000

# Most states minimize_span's subtree-size table holds; a full table is
# emptied before the next insert, and the search's per-mask table of
# least images and field orders with it. A state is stored only after it
# was entered, having passed its bound, so a child whose key is stored
# passes too and is never sorted. The (2,2) search stores 8,225 states,
# each keyed by one image under its 16 automorphisms, and the least
# images of 2,541 masks, so only budgeted searches far beyond the verify
# grid fill it.
_CACHE_SLOTS = 1 << 16

# Caps on the automorphism enumeration of minimize_span: permutations kept
# and candidate images tried. Any subset of the group keys the table
# correctly, so a cap only costs hits. The default grid needs at most 48
# (the 8-vertex (2,1) product).
_GROUP_LIMIT = 64
_GROUP_STEPS = 20_000


class OracleSizeError(InvalidParameterError):
    """The brute-force oracle refuses graphs above its size ceiling."""


class RnStatus(Enum):
    EXACT = "exact"
    UPPER_BOUND_ONLY = "upper-bound-only"


@dataclass(frozen=True)
class RnResult:
    value: int
    status: RnStatus
    witness: Labeling | None
    nodes: int = 0


def gap_matrix(dm: DistanceMatrix, vertices: Sequence[int] | None = None) -> list[list[int]]:
    """Required label gaps ``diam + 1 - d(u, v)`` over a vertex subset (default: all).

    Looked up by :func:`~radiomesh.labeling.required_gaps`, not from the
    N x N matrix. ``diam`` is the diameter of the whole matrix, so a
    subset poses the induced problem under the host metric, which is how
    the per-pair bound claims are adjudicated. An id that is not an
    integer (a bool, float or string included, and ids given as
    bytes; see :func:`~radiomesh.labeling._integer_entries`) raises
    InvalidParameterError, and so does an id outside ``0..N-1``, naming
    the first one, or a repeated id, naming the least one.
    """
    nv = dm.num_vertices
    ids = np.arange(nv) if vertices is None else _integer_entries(vertices)
    if ids is None:
        raise InvalidParameterError(f"vertex ids must be integers, got {vertices!r}")
    outside = ids[(ids < 0) | (ids >= nv)]
    if outside.size:
        raise InvalidParameterError(f"vertex {outside[0]} outside 0..{nv - 1}")
    values, counts = np.unique(ids, return_counts=True)
    repeated = values[counts > 1]
    if repeated.size:
        raise InvalidParameterError(f"vertex {repeated[0]} repeated")
    return required_gaps(dm, ids[:, None], ids[None, :]).tolist()


def _chain_labels(req: list[list[int]], start: int) -> list[int]:
    """Greedy chain: repeatedly place the vertex with the cheapest forced label.

    The forced label of an unplaced x is its floor, the max over placed
    u of ``label(u) + req[u][x]``. The floors of the unplaced vertices
    are kept in a list beside them, in ascending id, so the first least
    floor gives ties to the lowest vertex id.
    """
    unplaced = list(range(len(req)))
    floors = [0] * len(req)
    labels = [0] * len(req)
    i = start
    while True:
        v, label = unplaced.pop(i), floors.pop(i)
        labels[v] = label
        if not unplaced:
            return labels
        row = req[v]
        floors = [f if f >= label + row[x] else label + row[x] for x, f in zip(unplaced, floors)]
        i = floors.index(min(floors))


def _heuristic_hint(req: list[list[int]]) -> tuple[int, list[int]]:
    """Best deterministic greedy span over chain starts, ties to the lowest start.

    Each chain is N placements of O(N) list work; starts are capped on
    inputs beyond the search's intended size. The identity order needs
    no pass of its own: it is the search's first branch.
    """
    starts = range(len(req) if len(req) <= 16 else 8)
    best = min((_chain_labels(req, start) for start in starts), key=max)
    return max(best), best


def _automorphisms(req: list[list[int]]) -> list[list[int]]:
    """Permutations ``p`` with ``req[p[a]][p[b]] == req[a][b]`` for every ordered pair.

    The pair ``(a, a)`` is included, so the diagonal is preserved too, and
    ``req`` need not be symmetric. Backtracking fixes ``p[0], p[1], ...``
    in turn, and ``a`` may only go to a vertex whose row holds the same
    multiset of gaps. Each vertex tries itself first, so the identity
    comes first. At most ``_GROUP_LIMIT`` permutations are kept and at
    most ``_GROUP_STEPS`` candidate images tried, so on a large group the
    result is a subset of it.
    """
    nv = len(req)
    rows = [sorted(row) for row in req]
    options = [[a] + [b for b in range(nv) if b != a and rows[b] == rows[a]] for a in range(nv)]
    image = [0] * nv
    taken = [False] * nv
    found: list[list[int]] = []
    steps = _GROUP_STEPS

    def extend(a: int) -> bool:
        nonlocal steps
        if a == nv:
            found.append(image.copy())
            return len(found) < _GROUP_LIMIT
        row = req[a]
        for b in options[a]:
            if taken[b]:
                continue
            if steps == 0:
                return False
            steps -= 1
            image[a] = b
            mapped = req[b]
            for c in range(a + 1):
                if mapped[image[c]] != row[c] or req[image[c]][b] != req[c][a]:
                    break
            else:
                taken[b] = True
                more = extend(a + 1)
                taken[b] = False
                if not more:
                    return False
        return True

    extend(0)
    del extend  # the closure refers to itself
    return found


def _image_columns(group: list[list[int]]) -> list[int]:
    """Each vertex's image under every permutation, packed into one int.

    Field i of ``columns[x]``, ``nv`` bits wide, holds the bit of
    ``group[i][x]``. The images of a vertex set under the whole group,
    packed the same way, are the OR of its vertices' columns, so adding
    one vertex to a set ORs in one column.
    """
    nv = len(group[0])
    return [sum(1 << p[x] + i * nv for i, p in enumerate(group)) for x in range(nv)]


def _shape(mask: int, images: int, group: list[list[int]]) -> tuple[int, list[int]]:
    """The least image of a placed set and the order its fields are read in.

    ``images`` packs the images of ``mask`` under ``group`` as
    :func:`_image_columns` does. Returns the least image mask and, for
    the first permutation in ``group`` mapping ``mask`` to it, the
    positions in a node's floors list (the unplaced vertices in
    ascending id) of the image state's fields, which follow ascending
    image id.
    """
    nv = len(group[0])
    full = (1 << nv) - 1
    masks = [images >> i * nv & full for i in range(len(group))]
    least = min(masks)
    p = group[masks.index(least)]
    unplaced = [x for x in range(nv) if not mask >> x & 1]
    # a permutation maps the unplaced set onto the image's unplaced set,
    # so sorting the unplaced vertices by their images reads the fields
    # in image order
    return least, sorted(range(len(unplaced)), key=[p[x] for x in unplaced].__getitem__)


def minimize_span(
    req: list[list[int]], node_limit: int | None = DEFAULT_NODE_LIMIT
) -> tuple[int, list[int], RnStatus, int]:
    """Branch-and-bound minimum span for a gap-requirement matrix.

    Branches over which vertex is placed next (ascending id) and assigns
    each placed vertex its smallest feasible label. Each node receives
    the floors of its unplaced vertices as a list: the floor of x is its
    requirement against every placed vertex, the smallest label x can
    take (0 at the root). Placing v at its floor raises the floor of
    each other unplaced x to at least ``floor[v] + req[v][x]``, and the
    parent builds that list for each child. A node is pruned when an
    admissible completion bound reaches the cutoff: unplaced labels are
    distinct, and each later vertex adds at least 1, so with the floors
    sorted ascending the span is at least
    ``max_j(sorted[j] + remaining-1 - j)``.

    Pruning is primed with a deterministic greedy upper bound used as a
    threshold (incumbent + 1 semantics). The threshold cannot change the
    outcome: a branch realizing the optimum has every ancestor bound at
    most the optimum, which stays strictly below the threshold and below
    any pre-optimal incumbent, so the first such branch in child order
    always completes, and both the value and the reported witness are
    the same as for an unprimed search. Every completion is strictly
    below the cutoff its parent's bound passed, so each one improves the
    incumbent, becomes the cutoff, and the witness is the first optimal
    completion in child order.

    The parent counts each child, then checks the budget, then the
    child's bound, in the order a node of the uncached tree does on
    entry; a child that fails its bound is counted but never entered.
    The bound is checked in stages, cheapest first, and each stage
    prunes only a child the full bound would prune. Before building a
    child's floors the parent tries a reach pre-check: ``reach[v]``,
    the least off-diagonal entry of row v, is computed once per call,
    and placing v at ``value`` leaves every floor of the child at least
    ``value + reach[v]``, so with ``k`` floors unplaced the child's
    bound is at least ``value + reach[v] + k - 2``. A child that leaves
    one vertex unplaced has one floor, which is its whole bound; if it
    passes, the parent completes the child, placing that vertex with no
    budget check and counting it. Any other child is checked against
    the bound's first term, its least floor plus ``k - 2``, then probed
    in the subtree table (below), and only a child the table misses has
    its floors sorted for the full bound. The root, which has no parent,
    keeps its own budget check, a one-vertex system's included; its
    bound, N - 1, always passes: every gap is at least 1, so the greedy
    hint's N labels are distinct, its span is at least N - 1, and the
    cutoff at least N.

    A subtree that completes no labeling keeps its cutoff fixed, so its
    shape depends only on the placed set and on ``cutoff`` and the
    unplaced floors shifted so the smallest is 0. A dict of at most
    ``_CACHE_SLOTS`` states, emptied when full, keeps the sizes of such
    subtrees. The parent builds the key of each child that passes the
    bound's first term and probes the table: a hit adds the stored size
    and the child is never entered, so only a state the table does not
    hold is walked. The bound depends only on ``cutoff`` minus the least
    floor and on the multiset of shifted floors, which the key holds,
    and a state is stored only after it was entered, having passed its
    bound, so a table hit implies the bound and is never sorted. The
    size is taken only when the walk could not have met the
    budget, so values, witnesses, statuses, truncation and the node
    count are those of the uncached tree: ``nodes`` and ``node_limit``
    count the nodes of that tree, not the nodes actually visited.

    The table is keyed by one image of the state under automorphisms of
    ``req`` (see :func:`_automorphisms`). An automorphism maps a state to
    one whose children are the images of its children with the same
    floors, so with the cutoff fixed the subtree size, the sum over the
    children of 1 plus the size of each child that passes its bound,
    is the same for both: it does not depend on child order, and the
    bound depends only on the multiset of floors. The image is the one
    under the first permutation in the group that maps the placed set
    to its least image, and the key spells that image state out, its
    fields in ascending image id. The key is one-to-one, so equal keys
    mean states that are images of each other; the image need not be
    a canonical one, so two images of one state may take different
    keys, which costs hits, never correctness. That holds for any
    subset of the automorphisms, so the enumeration's caps cost hits
    too. The least image mask, and where its image reads its floors
    from, depend only on the placed mask, so a second dict keyed by the
    mask keeps them (see :func:`_shape`); it is emptied with the table.
    Each node carries the images of its placed set under the group,
    packed in one int, and a child ORs in the column of the vertex it
    places (see :func:`_image_columns`), so a mask the dict lacks is
    resolved from its parent's images.

    ``req`` must be square, each entry a Python or numpy integer, not a
    bool, float or string, no row given as bytes, and every entry off
    the diagonal at least 1, as every gap matrix of a graph is: the
    completion bound takes unplaced labels to be distinct, so a smaller
    gap could prune the optimum. Any other ``req`` raises
    InvalidParameterError. The diagonal's values are never read.

    ``node_limit`` caps the nodes explored (``None`` means unlimited;
    a limit that is not an integer, see :func:`~radiomesh.graphs.checked_int`,
    or is negative raises InvalidParameterError), so a truncated
    search is bit-reproducible on any machine. When the budget aborts
    the search before any branch completes, the greedy hint serves as
    the witness.

    Returns (value, labels_by_vertex, status, nodes_explored).
    """
    if node_limit is not None and checked_int("node limit", node_limit) < 0:
        raise InvalidParameterError(f"node limit must be >= 0, got {node_limit}")
    nv = len(req)
    if nv == 0:
        raise InvalidParameterError("empty constraint system")
    if any(len(row) != nv for row in req):
        raise InvalidParameterError(f"gap matrix must be square, has {nv} rows")
    rows = [_integer_entries(row) for row in req]
    if any(row is None for row in rows):
        raise InvalidParameterError("gaps must be integers, not bools, floats or strings")
    # numpy integer gaps, or rows of a 2-D array, searched as lists of ints
    req = [row.tolist() for row in rows]
    # reach[v] is v's least gap to another vertex
    reach = [min(row[:v] + row[v + 1 :], default=1) for v, row in enumerate(req)]
    if min(reach) < 1:
        raise InvalidParameterError(f"gaps between distinct vertices must be >= 1, got {min(reach)}")

    hint_value, hint_labels = _heuristic_hint(req)
    # the greedy threshold, then each completion in turn, which lowers it
    cutoff = hint_value + 1
    limit = math.inf if node_limit is None else node_limit
    best_labels: list[int] | None = None
    labels = [0] * nv
    nodes = 0

    # A state key is the tuple (cutoff - base, placed mask, fields): one
    # field, a floor minus base, per unplaced vertex in ascending id. The
    # mask fixes how many fields there are, so the key is one-to-one.
    # A node is keyed by its image under the first permutation in
    # ``group`` that gives the smallest placed mask.
    cache: dict[tuple[int, ...], int] = {}
    group = _automorphisms(req)
    # a node carries its placed set's images under ``group`` packed in
    # one int; a child ORs in the column of the vertex it places
    columns = _image_columns(group)
    # shapes[mask] is that least mask and the order its fields are read
    # in, a list of positions in a node's floors list (see _shape)
    shapes: dict[int, tuple[int, list[int]]] = {}

    def dfs(
        mask: int, unplaced: list[int], floors: list[int], key: tuple[int, ...], images: int
    ) -> bool:
        # entered only when the table holds no size for ``key`` that
        # fits the budget, and with at least two vertices unplaced
        nonlocal cutoff, best_labels, nodes
        start, entered = nodes, cutoff

        # how many of a child's sorted floors follow each position
        tail = len(floors) - 2
        after = range(tail, -1, -1)
        for i, v in enumerate(unplaced):
            nodes += 1
            if nodes >= limit:
                return False
            value = floors[i]
            # every floor of the child is at least value + reach[v], so
            # its bound is at least that plus the floors that follow
            if value + reach[v] + tail >= cutoff:
                continue
            row = req[v]
            child = [f if f >= value + row[x] else value + row[x] for x, f in zip(unplaced, floors)]
            del child[i]
            labels[v] = value
            if not tail:
                # the child's one floor, that of v's sibling, is its
                # whole bound; if it passes, placing the sibling
                # completes a labeling below the cutoff, and no key is
                # looked up, as the table never holds a state whose
                # subtree completes
                if child[0] >= cutoff:
                    continue
                nodes += 1
                cutoff = labels[unplaced[1 - i]] = child[0]
                best_labels = labels.copy()
                continue
            # the bound's first term: its least floor, then k - 2 more
            base = min(child)
            if base + tail >= cutoff:
                continue
            below = mask | 1 << v
            entry = shapes.get(below)
            if entry is None:
                entry = shapes[below] = _shape(below, images | columns[v], group)
            least, order = entry
            child_key = (cutoff - base, least, *[child[j] - base for j in order])
            size = cache.get(child_key)
            if size is None:
                # a stored state passed this same bound when it was
                # entered, so only a miss needs the whole of it
                if max(map(add, sorted(child), after)) >= cutoff:
                    continue
            elif nodes + size < limit:
                nodes += size
                continue
            rest = unplaced.copy()
            del rest[i]
            if not dfs(below, rest, child, child_key, images | columns[v]):
                return False

        # every completion lowers the cutoff, so an equal one means none here
        if cutoff == entered:
            if len(cache) >= _CACHE_SLOTS:
                cache.clear()
                shapes.clear()
            cache[key] = nodes - start
        return True

    # the root's budget check; its nv floors are all 0, so its bound,
    # nv - 1, is below the cutoff
    if limit <= 0:
        status = RnStatus.UPPER_BOUND_ONLY
    elif nv == 1:
        # placing the root's one vertex completes
        nodes, cutoff, best_labels = 1, 0, [0]
        status = RnStatus.EXACT
    else:
        root = [0] * nv
        # the empty placed set is its own least image, read in any order
        found = dfs(0, list(range(nv)), root, (cutoff, 0, *root), 0)
        status = RnStatus.EXACT if found else RnStatus.UPPER_BOUND_ONLY
    del dfs  # the closure refers to itself; breaking the cycle frees the table now
    if best_labels is None:
        # budget expired before any completion; the hint is still a
        # valid labeling and upper-bounds the optimum
        return hint_value, hint_labels, status, nodes
    return cutoff, best_labels, status, nodes


def exact_rn(g: Graph, node_limit: int | None = DEFAULT_NODE_LIMIT) -> RnResult:
    """Radio number of ``g`` by branch-and-bound; exact when the search finishes.

    Deterministic: children are explored in ascending vertex id, the
    witness is the first optimal completion in that order, and the
    budget counts nodes, not time.
    """
    # a disconnected graph raises DisconnectedGraphError: a product in
    # all_pairs_distances, any other graph at the diameter
    req = gap_matrix(all_pairs_distances(g))
    value, labels, status, nodes = minimize_span(req, node_limit)
    return RnResult(value, status, Labeling(labels, graph=g), nodes)


def permutation_oracle(g: Graph) -> RnResult:
    """Radio number by enumerating every vertex ordering.

    Deliberately simple so it can certify :func:`exact_rn`, and reads
    distances from whole-graph BFS, not the factored route the search
    reads; refuses graphs with more than ORACLE_MAX_VERTICES vertices.
    """
    nv = g.num_vertices
    if nv > ORACLE_MAX_VERTICES:
        raise OracleSizeError(f"oracle limited to {ORACLE_MAX_VERTICES} vertices, got {nv}")
    req = gap_matrix(bfs_all_pairs(g))

    best: int | None = None
    best_labels: list[int] | None = None
    labels = [0] * nv
    for perm in itertools.permutations(range(nv)):
        labels[perm[0]] = 0
        final = 0
        aborted = False
        for i in range(1, nv):
            v = perm[i]
            row = req[v]
            value = 0
            for j in range(i):
                u = perm[j]
                candidate = labels[u] + row[u]
                if candidate > value:
                    value = candidate
            # labels only grow along the order, so >= best can never win
            if best is not None and value >= best:
                aborted = True
                break
            labels[v] = value
            final = value
        if not aborted and (best is None or final < best):
            best = final
            best_labels = labels.copy()
    assert best is not None and best_labels is not None
    return RnResult(best, RnStatus.EXACT, Labeling(best_labels, graph=g))
