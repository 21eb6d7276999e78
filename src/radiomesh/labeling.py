"""Radio labelings over a fixed graph: validation and ordering-driven assignment.

A labeling maps every vertex to a channel (non-negative integer) and is
valid when each pair (u, v) keeps ``|label(u) - label(v)|`` at least
``diam(G) + 1 - d(u, v)``. Orderings drive construction: ``greedy_assign``
realizes the cheapest labeling consistent with a visit order, while
``consecutive_only_assign`` accumulates the gap requirement between
consecutive visits only, the quantity that pair-walk span arguments add
up, which need not be valid.

Distinct vertices are at distance at least 1, so no pair needs a gap
above diam. Both ``validate`` and ``greedy_assign`` use this to look up
only the pairs whose labels lie within one diameter of each other.
All three read distances through the distance matrix's factor lookups
(``DistanceMatrix.pairs`` and ``factor_rows``), so a product's N x N
matrix is never built here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .graphs import DistanceMatrix, Graph, InvalidParameterError


class LabelingContractError(ValueError):
    """A labeling does not fit the graph it is being checked against."""


class OrderingProvenance(Enum):
    EVEN_PAIR_WALK = "even-pair-walk"
    ODD_THREE_PHASE = "odd-three-phase"
    EXTERNAL = "external"


@dataclass(frozen=True)
class OrderingPlan:
    """A visit order over all vertices of one graph."""

    sequence: tuple[int, ...]
    provenance: OrderingProvenance = OrderingProvenance.EXTERNAL

    def __post_init__(self):
        if sorted(self.sequence) != list(range(len(self.sequence))):
            raise InvalidParameterError("ordering is not a permutation of 0..N-1")


@dataclass(frozen=True)
class Labeling:
    """Total channel assignment, indexed by vertex id.

    ``graph`` records which graph the labels refer to when known; file
    parses leave it unset.
    """

    labels: tuple[int, ...]
    graph: Graph | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.labels:
            raise InvalidParameterError("labeling must cover at least one vertex")
        if min(self.labels) < 0:
            raise InvalidParameterError("labels must be non-negative")

    @property
    def span(self) -> int:
        return max(self.labels) - min(self.labels)

    def canonical(self) -> "Labeling":
        """Shift so the smallest label is 0."""
        low = min(self.labels)
        if low == 0:
            return self
        return Labeling(tuple(x - low for x in self.labels), self.graph)


class Violation(NamedTuple):
    u: int
    v: int
    required: int
    actual: int


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[Violation, ...]


def _check_fit(g: Graph, labeling: Labeling) -> None:
    if labeling.graph is not None and labeling.graph != g:
        raise LabelingContractError("labeling was built for a different graph")
    if len(labeling.labels) != g.num_vertices:
        raise LabelingContractError(
            f"labeling covers {len(labeling.labels)} vertices, graph has {g.num_vertices}"
        )


def _check_matrix(g: Graph, dm: DistanceMatrix) -> None:
    # the label windows read dm only at the pairs they pick, so a matrix
    # of another size would go unnoticed
    if dm.num_vertices != g.num_vertices:
        raise InvalidParameterError(
            f"distance matrix covers {dm.num_vertices} vertices, graph has {g.num_vertices}"
        )


def validate(g: Graph, dm: DistanceMatrix, labeling: Labeling) -> ValidityReport:
    """Check every vertex pair against the gap requirement.

    Returns the full list of violating pairs, ordered by u then v, so a
    failed report shows exactly which constraints broke rather than just
    a boolean.

    Only pairs inside a label window are looked up. Distinct vertices
    are at distance at least 1, so no pair needs a gap above diam, and a
    pair whose labels differ by diam or more cannot break. With the
    labels sorted, offset k pairs each vertex with the one k places
    later; a gap at offset k is at least the gap at offset k - 1 from
    the same start, so the first offset with no gap below diam ends the
    scan. The window's pairs are then looked up at once. When only
    neighbours in label order lie within diam, as in the construction
    labelings, that is one sort and two passes over the labels; all
    labels equal is still every pair.
    """
    _check_fit(g, labeling)
    _check_matrix(g, dm)
    diam = dm.diameter
    # spans exceed the distance matrix's small integer type; labels beyond
    # int64 (possible in a labeling file) fall back to Python integers
    dtype = np.int64 if max(labeling.labels) <= np.iinfo(np.int64).max else object
    labels = np.array(labeling.labels, dtype=dtype)
    order = np.argsort(labels)
    ranked = labels[order]
    window = []
    for k in range(1, len(ranked)):
        gaps = ranked[k:] - ranked[:-k]
        close = np.flatnonzero(gaps < diam)
        if close.size == 0:
            break
        window.append((order[close], order[close + k], gaps[close]))
    if not window:
        return ValidityReport(True, ())
    # one factor lookup for the whole window
    u, v, actual = (np.concatenate(parts) for parts in zip(*window))
    required = diam + 1 - dm.pairs(u, v)
    bad = np.flatnonzero(actual < required)
    if bad.size == 0:
        return ValidityReport(True, ())
    u, v, required, actual = u[bad], v[bad], required[bad], actual[bad]
    u, v = np.minimum(u, v), np.maximum(u, v)
    by_pair = np.lexsort((v, u))
    columns = (a[by_pair].tolist() for a in (u, v, required, actual))
    return ValidityReport(False, tuple(map(Violation._make, zip(*columns))))


def greedy_assign(g: Graph, dm: DistanceMatrix, plan: OrderingPlan) -> Labeling:
    """Cheapest labeling whose label order follows ``plan``.

    The first vertex gets 0; each later vertex gets the smallest value
    satisfying the gap requirement against every vertex already placed.
    Since the requirement is always at least 1, labels strictly increase
    along the plan and the result is valid by construction.

    Only predecessors inside a label window are looked up. Every gap
    ``diam + 1 - d`` between distinct vertices lies in [1, diam], so the
    new vertex needs at least ``L(prev) + 1`` (prev its predecessor in
    the plan) and a placed u asks for at most ``L(u) + diam``; u with
    ``L(u) + diam <= L(prev) + 1`` cannot bind. Labels rise along the
    plan, so those u are a prefix of it, which one forward pointer
    skips. prev itself is always looked up: at diam 1 the rule would
    skip it too. Each vertex costs one lookup per predecessor in its
    window, four list subscripts through ``dm.factor_rows``, and the
    extra memory is O(N) beyond those rows, which ``dm`` keeps.
    """
    seq = plan.sequence
    if len(seq) != g.num_vertices:
        raise InvalidParameterError("plan does not cover the graph")
    _check_matrix(g, dm)
    diam = dm.diameter
    base = diam + 1
    # Python lists of Python ints, so spans may outgrow the matrix's int16
    ra, ca, rb, cb = dm.factor_rows
    labels = [0] * len(seq)
    placed = []  # labels along the plan
    lo = 0  # first predecessor that can still bind
    for i, v in enumerate(seq):
        av, bv = ca[v], cb[v]
        label = 0
        for j in range(lo, i):
            u = seq[j]
            need = placed[j] + base - ra[u][av] - rb[u][bv]
            if need > label:
                label = need
        placed.append(label)
        labels[v] = label
        while lo < i and placed[lo] + diam <= label + 1:
            lo += 1
    return Labeling(tuple(labels), graph=g)


def consecutive_only_assign(g: Graph, dm: DistanceMatrix, plan: OrderingPlan) -> Labeling:
    """Accumulate the gap requirement between consecutive visits only.

    The final label telescopes to ``sum(diam + 1 - d(u_{i-1}, u_i))``.
    Validity against non-consecutive pairs is NOT guaranteed; callers
    pass the result to :func:`validate` and report the verdict.
    """
    seq = plan.sequence
    if len(seq) != g.num_vertices:
        raise InvalidParameterError("plan does not cover the graph")
    _check_matrix(g, dm)
    order = np.array(seq)
    steps = dm.diameter + 1 - dm.pairs(order[:-1], order[1:]).astype(np.int64)
    labels = np.zeros(len(order), dtype=np.int64)
    labels[order[1:]] = np.cumsum(steps)
    return Labeling(tuple(labels.tolist()), graph=g)
