"""Exact minimum-span search for radio labelings.

Two independent routes compute the radio number of small graphs: a
branch-and-bound over vertex orderings (:func:`exact_rn`) and a brute
force over every ordering (:func:`permutation_oracle`). Both use the
fact that some optimal labeling is the greedy realization of the order
of its vertices by label value, so minimizing greedy spans over
orderings is exact.

The branch-and-bound core works on an explicit gap-requirement matrix,
so callers can also pose induced-subset problems that keep the host
graph's metric (see :func:`gap_matrix`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .graphs import DistanceMatrix, Graph, InvalidParameterError, all_pairs_distances
from .labeling import Labeling

ORACLE_MAX_VERTICES = 9

# Three times the largest search on the default verify grid (6,444,838
# nodes for the 12-vertex (2,2) product), so verdicts on that grid never
# depend on the budget.
DEFAULT_NODE_LIMIT = 20_000_000

# Most states minimize_span's subtree-size table holds; a full table is
# emptied before the next insert. The (2,2) search stores 7,763 states up
# to its 16 automorphisms, so only budgeted searches far beyond the
# verify grid fill it.
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
    """Required label gaps ``diam + 1 - d(u, v)`` for a vertex subset.

    ``diam`` is the diameter of the whole matrix, so a subset poses the
    induced problem under the host metric, which is how the per-pair
    bound claims are adjudicated.
    """
    index = slice(None) if vertices is None else np.ix_(vertices, vertices)
    return (dm.diameter + 1 - dm.matrix[index]).tolist()


def _place(floor: np.ndarray, v: int, gaps: np.ndarray) -> int:
    """Give ``v`` its forced label ``floor[v]``, then raise every floor past it.

    ``floor[x]`` is the smallest label x can take against the vertices
    placed so far: the max over placed u of ``label(u) + gap(u, x)``, or
    0 before any. ``gaps`` is v's row of an int64 gap matrix.
    """
    label = int(floor[v])
    np.maximum(floor, gaps + label, out=floor)
    return label


def _chain_labels(gaps: np.ndarray, start: int) -> list[int]:
    """Greedy chain: repeatedly place the vertex with the cheapest forced label.

    Ties go to the lowest vertex id. A placed vertex's floor is pinned
    at the int64 maximum, which later raises keep, so it is never the
    cheapest again.
    """
    nv = len(gaps)
    floor = np.zeros(nv, dtype=np.int64)
    labels = [0] * nv
    v = start
    for _ in range(nv):
        labels[v] = _place(floor, v, gaps[v])
        floor[v] = np.iinfo(np.int64).max
        v = int(np.argmin(floor))
    return labels


def _heuristic_hint(req: list[list[int]]) -> tuple[int, list[int]]:
    """Best deterministic greedy span over the identity order and chain starts.

    Each chain is N placements of O(N) numpy work; starts are capped on
    inputs beyond the search's intended size.
    """
    gaps = np.array(req, dtype=np.int64)
    nv = len(gaps)
    floor = np.zeros(nv, dtype=np.int64)
    best = [_place(floor, v, gaps[v]) for v in range(nv)]  # the identity order
    starts = range(nv) if nv <= 16 else range(8)
    for start in starts:
        candidate = _chain_labels(gaps, start)
        if max(candidate) < max(best):
            best = candidate
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


def minimize_span(
    req: list[list[int]], node_limit: int | None = DEFAULT_NODE_LIMIT
) -> tuple[int, list[int], RnStatus, int]:
    """Branch-and-bound minimum span for a gap-requirement matrix.

    Branches over which vertex is placed next (ascending id) and assigns
    each placed vertex its smallest feasible label. A node is pruned when
    an admissible completion bound reaches the incumbent: every unplaced
    vertex x must receive at least ``earliest[x]`` (its requirement
    against all placed vertices), unplaced labels are distinct, and each
    later vertex adds at least 1, so with the earliest values sorted
    ascending the span is at least ``max_j(sorted[j] + remaining-1 - j)``.

    Pruning is primed with a deterministic greedy upper bound used as a
    threshold (incumbent + 1 semantics). The threshold cannot change the
    outcome: a branch realizing the optimum has every ancestor bound at
    most the optimum, which stays strictly below the threshold and below
    any pre-optimal incumbent, so the first such branch in child order
    always completes, and both the value and the reported witness are
    the same as for an unprimed search. Every completion is strictly
    below the cutoff its parent's bound passed, so each one improves the
    incumbent and the witness is the first optimal completion in child
    order.

    A subtree that completes no labeling keeps its cutoff fixed, so its
    shape depends only on the placed set and on ``cutoff`` and the
    unplaced ``earliest`` values shifted so the smallest is 0. A dict
    of at most ``_CACHE_SLOTS`` states, emptied when full, keeps the
    sizes of such subtrees, and a later node in the same state adds
    the size instead of walking the subtree again. The walk is skipped
    only when it could not have met the budget, so values, witnesses,
    statuses, truncation and the node count are those of the uncached
    tree: ``nodes`` and ``node_limit`` count the nodes of that tree, not
    the nodes actually visited.

    The table is keyed by a canonical state under automorphisms of
    ``req`` (see :func:`_automorphisms`). An automorphism maps a state to
    one whose children are the images of its children with the same
    floors, so with the cutoff fixed the subtree size, the sum over the
    children of 1 plus the size of each child that passes its bound,
    is the same for both: it does not depend on child order, and the
    bound depends only on the multiset of floors. The canonical key is
    the key of one image chosen by a rule that sees only the set of
    images, and the key is one-to-one, so equal keys mean states that
    are images of each other. That holds for any subset of the
    automorphisms, so the enumeration's caps cost hits, never
    correctness.

    ``node_limit`` caps the nodes explored (``None`` means unlimited), so
    a truncated search is bit-reproducible on any machine. When the
    budget aborts the search before any branch completes, the greedy hint
    serves as the witness.

    Returns (value, labels_by_vertex, status, nodes_explored).
    """
    nv = len(req)
    if nv == 0:
        raise InvalidParameterError("empty constraint system")
    if nv == 1:
        return 0, [0], RnStatus.EXACT, 1

    hint_value, hint_labels = _heuristic_hint(req)
    threshold = hint_value + 1

    best_val: int | None = None
    best_labels: list[int] | None = None
    labels = [0] * nv
    earliest = [0] * nv
    placed = [False] * nv
    nodes = 0

    # A state key is the tuple (cutoff - base, placed mask, fields): one
    # field, earliest minus base, per unplaced vertex in ascending id. The
    # mask fixes how many fields there are, so the key is one-to-one.
    # A node is keyed by its image, under the permutations in ``group``,
    # with the smallest placed mask and, of those, the smallest fields.
    full = (1 << nv) - 1
    cache: dict[tuple[int, ...], int] = {}

    group = _automorphisms(req)
    inverses = [sorted(range(nv), key=p.__getitem__) for p in group]
    # chunk_tables holds (shift, table): bits [i * nv, (i + 1) * nv) of
    # table[byte] are the image under group[i] of the placed vertices
    # shift + j for the set bits j of byte. One int per byte, not a tuple
    # of images: the tuples added about 1 MB to verify's peak RSS.
    offsets = range(0, nv * len(group), nv)
    chunk_tables = []
    for shift in range(0, nv, 8):
        table = [0]
        for a in range(shift, min(shift + 8, nv)):
            bits = sum(1 << p[a] << at for p, at in zip(group, offsets))
            table += [row | bits for row in table]
        chunk_tables.append((shift, table))

    def dfs(mask: int, current: int) -> bool:
        nonlocal best_val, best_labels, nodes
        if mask == full:
            best_val = current
            best_labels = labels.copy()
            return True
        if node_limit is not None and nodes >= node_limit:
            return False
        cutoff = threshold if best_val is None else best_val
        remaining = [earliest[x] for x in range(nv) if not placed[x]]
        remaining.sort()
        k = len(remaining)
        bound = 0
        for j, low in enumerate(remaining):
            candidate = low + (k - 1 - j)
            if candidate > bound:
                bound = candidate
        if bound >= cutoff:
            return True

        base = remaining[0]
        packed = 0
        for shift, table in chunk_tables:
            packed |= table[mask >> shift & 255]
        images = [packed >> at & full for at in offsets]
        least = min(images)
        # the image state keeps earliest[x] at the image of x
        unplaced = [y for y in range(nv) if not least >> y & 1]
        fields = min(
            [earliest[source[y]] - base for y in unplaced]
            for source, image in zip(inverses, images)
            if image == least
        )
        key = (cutoff - base, least, *fields)
        size = cache.get(key)
        if size is not None and (node_limit is None or nodes + size < node_limit):
            nodes += size
            return True
        start, incumbent = nodes, best_val

        for v in range(nv):
            if placed[v]:
                continue
            nodes += 1
            value = earliest[v]
            placed[v] = True
            labels[v] = value
            row = req[v]
            undo = []
            for x in range(nv):
                if not placed[x]:
                    candidate = value + row[x]
                    if candidate > earliest[x]:
                        undo.append((x, earliest[x]))
                        earliest[x] = candidate
            keep_going = dfs(mask | 1 << v, value)
            for x, old in undo:
                earliest[x] = old
            placed[v] = False
            if not keep_going:
                return False

        # every completion lowers best_val, so an equal one means none here
        if best_val == incumbent:
            if len(cache) >= _CACHE_SLOTS:
                cache.clear()
            cache[key] = nodes - start
        return True

    status = RnStatus.EXACT if dfs(0, 0) else RnStatus.UPPER_BOUND_ONLY
    del dfs  # the closure refers to itself; breaking the cycle frees the table now
    if best_val is None:
        # budget expired before any completion; the hint is still a
        # valid labeling and upper-bounds the optimum
        return hint_value, hint_labels, status, nodes
    return best_val, best_labels, status, nodes


def exact_rn(
    g: Graph, dm: DistanceMatrix | None = None, node_limit: int | None = DEFAULT_NODE_LIMIT
) -> RnResult:
    """Radio number of ``g`` by branch-and-bound; exact when the search finishes.

    Deterministic: children are explored in ascending vertex id, the
    witness is the first optimal completion in that order, and the
    budget counts nodes, not time.
    """
    if dm is None:
        dm = all_pairs_distances(g)
    req = gap_matrix(dm)  # raises DisconnectedGraphError via the diameter
    value, labels, status, nodes = minimize_span(req, node_limit)
    return RnResult(value, status, Labeling(tuple(labels), graph=g), nodes)


def permutation_oracle(g: Graph, dm: DistanceMatrix | None = None) -> RnResult:
    """Radio number by enumerating every vertex ordering.

    Deliberately simple so it can certify :func:`exact_rn`; refuses
    graphs with more than ORACLE_MAX_VERTICES vertices.
    """
    nv = g.num_vertices
    if nv > ORACLE_MAX_VERTICES:
        raise OracleSizeError(f"oracle limited to {ORACLE_MAX_VERTICES} vertices, got {nv}")
    if dm is None:
        dm = all_pairs_distances(g)
    base = dm.diameter + 1
    req = [[base - d for d in dm.row(u).tolist()] for u in range(nv)]

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
    return RnResult(best, RnStatus.EXACT, Labeling(tuple(best_labels), graph=g))
