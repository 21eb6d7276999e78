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
only the pairs whose labels lie within one diameter of each other, by
one scan, :func:`_short_pairs`. ``greedy_assign`` starts from the
consecutive-only labels and repairs the pairs they leave short. All
three, and the exact search's gap matrices, take the gap requirement
from :func:`required_gaps`, which reads ``DistanceMatrix.pairs``, so a
product's N x N matrix is never built.

A visit order (:class:`OrderingPlan`) and a labeling (:class:`Labeling`)
are each one read-only array, which the assignments and ``validate``
read as they are: the labels go from the greedy kernel to ``validate``
without a Python int in between. Both constructors copy their input
and check the copy with one integer-entries rule,
:func:`_integer_entries`.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import DistanceMatrix, Graph, InvalidParameterError


class LabelingContractError(ValueError):
    """A labeling does not fit the graph it is being checked against."""


def _integer_entries(values) -> np.ndarray | None:
    """A new 1-D array of the entries of ``values``, or None unless each is an integer.

    A scalar, or an array of other than one dimension, gives None before
    anything takes its length.

    An integer is a Python or numpy integer, not a bool. ``bytes`` and
    ``bytearray`` give None too, like a ``str``, though they iterate to
    ints: they hold text or binary data, and ``np.array`` would read
    ``bytes`` as one string but a ``bytearray`` as its ints. The array is
    int64 when every entry fits, else an object array of exact Python
    ints. An integer array is copied in one cast. A sequence, or an
    object array, has its entry types gathered once first: ``np.array``
    would turn a bool into an int and a float or string into an int
    with a cast, and a numpy uint64 beside a Python int into a float.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            return None
        if values.dtype.kind in "iu":
            if values.dtype == np.uint64 and len(values) and values.max() > np.iinfo(np.int64).max:
                return np.array(values.tolist(), dtype=object)
            return values.astype(np.int64)
        if values.dtype.kind != "O":
            return None
        values = values.tolist()
    elif not isinstance(values, Sequence) or isinstance(values, (bytes, bytearray)):
        return None  # a scalar has no entries; bytes count as text, like a str
    kinds = set(map(type, values))
    if not all(issubclass(kind, (int, np.integer)) and not issubclass(kind, bool) for kind in kinds):
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # an entry beyond int64
        return np.array(list(map(int, values)), dtype=object)


@dataclass(frozen=True, eq=False)
class OrderingPlan:
    """A visit order over all vertices of one graph, as one read-only int64 array.

    The constructor takes any integer sequence or array, copies it and
    checks the copy in bulk: integers, in 0..N-1, each counted once.
    Plans compare and hash by value, so a plan built from a tuple equals
    one built from the same entries in an array.
    """

    sequence: np.ndarray

    def __post_init__(self):
        seq = _integer_entries(self.sequence)
        if seq is None or seq.dtype != np.int64 or len(seq) and (
            seq.min() < 0
            or seq.max() >= len(seq)
            or not np.bincount(seq, minlength=len(seq)).all()
        ):
            raise InvalidParameterError("ordering is not a permutation of 0..N-1")
        seq.flags.writeable = False
        object.__setattr__(self, "sequence", seq)

    def __eq__(self, other):
        if not isinstance(other, OrderingPlan):
            return NotImplemented
        return np.array_equal(self.sequence, other.sequence)

    def __hash__(self):
        return hash(self.sequence.tobytes())


@dataclass(frozen=True, eq=False)
class Labeling:
    """Total channel assignment, indexed by vertex id, as one read-only array.

    The constructor takes any sequence or array of Python or numpy
    integers, copies it and checks the copy in bulk: at least one
    label, integers only (a bool is not one), none negative. The copy
    is int64 when every label fits, else an object array of exact
    Python ints, for the larger labels a labeling file may hold.
    Labelings compare and hash by their labels. ``graph`` records which
    graph the labels refer to when known and takes no part in either;
    file parses leave it unset.
    """

    labels: np.ndarray
    graph: Graph | None = None

    def __post_init__(self):
        # a float or string label would be truncated, or fail to compare,
        # further on, and a bool would pass for 0 or 1
        labels = _integer_entries(self.labels)
        if labels is None:
            raise InvalidParameterError("labels must be integers")
        if len(labels) == 0:
            raise InvalidParameterError("labeling must cover at least one vertex")
        if labels.min() < 0:
            raise InvalidParameterError("labels must be non-negative")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other):
        if not isinstance(other, Labeling):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def __hash__(self):
        # the bytes of an object array are pointers, not values
        if self.labels.dtype == object:
            return hash(tuple(self.labels.tolist()))
        return hash(self.labels.tobytes())

    @cached_property
    def span(self) -> int:
        """Largest minus smallest label, as a Python int, worked out on first read and kept."""
        return int(self.labels.max() - self.labels.min())


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
    # the short-pair scan reads dm only at the pairs it picks, so a
    # matrix of another size would go unnoticed
    if dm.num_vertices != g.num_vertices:
        raise InvalidParameterError(
            f"distance matrix covers {dm.num_vertices} vertices, graph has {g.num_vertices}"
        )


def required_gaps(dm: DistanceMatrix, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The gap requirement ``diam + 1 - d(u, v)``, ``us`` and ``vs`` broadcast, in ``dm``'s dtype."""
    return dm.diameter + 1 - dm.pairs(us, vs)


def _short_pairs(dm: DistanceMatrix, ids: np.ndarray, ranked: np.ndarray, first: int) -> tuple[np.ndarray, ...] | None:
    """Positions p < q of ascending ``ranked``, ``ids[p]`` the vertex at p, whose gap is short.

    Returns p, q, the gap ``ranked[q] - ranked[p]`` and the requirement
    of each pair whose gap is below it, or None if none is. Offset k
    pairs each position with the one k places later, from k = ``first``.
    No pair needs a gap above diam, and a gap at offset k is at least
    the gap at offset k - 1 from the same start, so the first offset
    with no gap below diam ends the scan. Its pairs are looked up at once.
    """
    parts = []
    for k in range(first, len(ranked)):
        gaps = ranked[k:] - ranked[:-k]
        close = np.flatnonzero(gaps < dm.diameter)
        if close.size == 0:
            break
        parts.append((close, close + k, gaps[close]))
    if not parts:
        return None
    low, high, gaps = (np.concatenate(column) for column in zip(*parts))
    required = required_gaps(dm, ids[low], ids[high])
    short = np.flatnonzero(gaps < required)
    return tuple(a[short] for a in (low, high, gaps, required)) if short.size else None


def validate(g: Graph, dm: DistanceMatrix, labeling: Labeling) -> ValidityReport:
    """Check every vertex pair against the gap requirement.

    Returns the full list of violating pairs, ordered by u then v, so a
    failed report shows exactly which constraints broke rather than just
    a boolean.

    A pair whose labels differ by diam or more cannot break, so
    :func:`_short_pairs` scans the sorted labels from offset 1 and looks
    up only the pairs within diam. When only neighbours in label order
    lie within diam, as in the construction labelings, that is one sort
    and two passes over the labels; all labels equal is still every pair.
    """
    _check_fit(g, labeling)
    _check_matrix(g, dm)
    order = np.argsort(labeling.labels)
    short = _short_pairs(dm, order, labeling.labels[order], 1)
    if short is None:
        return ValidityReport(True, ())
    low, high, actual, required = short
    u, v = order[low], order[high]
    u, v = np.minimum(u, v), np.maximum(u, v)
    by_pair = np.lexsort((v, u))
    columns = (a[by_pair].tolist() for a in (u, v, required, actual))
    return ValidityReport(False, tuple(map(Violation._make, zip(*columns))))


def _consecutive_steps(g: Graph, dm: DistanceMatrix, plan: OrderingPlan) -> tuple[np.ndarray, np.ndarray]:
    """The plan as an array, and the consecutive-only labels along it (int64).

    Each label is the previous one plus the gap requirement between the
    two visits: one factor lookup for all consecutive pairs, then a
    cumulative sum.
    """
    order = plan.sequence
    if len(order) != g.num_vertices:
        raise InvalidParameterError("plan does not cover the graph")
    _check_matrix(g, dm)
    steps = required_gaps(dm, order[:-1], order[1:]).astype(np.int64)
    along = np.zeros(len(order), dtype=np.int64)
    np.cumsum(steps, out=along[1:])
    return order, along


def _greedy_along(dm: DistanceMatrix, order: np.ndarray, along: np.ndarray) -> np.ndarray:
    """Greedy labels along the plan, from its :func:`_consecutive_steps`.

    The candidates are :func:`_short_pairs` of ``along``; when there is
    none, the greedy labels are ``along``.
    """
    # offset 1 holds the consecutive pairs, which ask for no extra
    short = _short_pairs(dm, order, along, 2)
    if short is None:
        return along
    low, high, gaps, required = short
    by_high = np.argsort(high, kind="stable")
    # marks: the positions given an extra so far, ascending; totals[k]
    # is the sum of the extras up to marks[k] (the sentinel -1 has 0)
    marks, totals = [-1], [0]
    candidates = zip(high[by_high].tolist(), low[by_high].tolist(), (required - gaps)[by_high].tolist())
    for i, group in groupby(candidates, key=itemgetter(0)):
        done = totals[-1]
        extra = max(s - done + totals[bisect_right(marks, j) - 1] for _, j, s in group)
        if extra > 0:
            marks.append(i)
            totals.append(done + extra)
    extras = np.zeros(len(order), dtype=np.int64)
    extras[marks[1:]] = np.diff(totals)
    return along + np.cumsum(extras)


def _by_vertex(g: Graph, order: np.ndarray, along: np.ndarray) -> Labeling:
    """The labeling that gives ``order[i]`` the label ``along[i]``."""
    labels = np.empty_like(along)
    labels[order] = along
    return Labeling(labels, graph=g)


def greedy_assign(g: Graph, dm: DistanceMatrix, plan: OrderingPlan) -> Labeling:
    """Cheapest labeling whose label order follows ``plan``.

    The first vertex gets 0; each later vertex gets the smallest value
    satisfying the gap requirement against every vertex already placed.
    Since the requirement is always at least 1, labels strictly increase
    along the plan and the result is valid by construction.

    The greedy labels are the consecutive-only labels C plus a running
    sum of extras, one per plan position. With E_i the sum of the extras
    up to position i, the pair (j, i) asks for an extra at i of
    ``r(j, i) - (C_i - C_j) - (E_{i-1} - E_j)``, r the gap requirement;
    the predecessor j = i - 1 asks for exactly 0. Extras are never
    negative, so only a pair whose consecutive-only gap ``C_i - C_j`` is
    below r can ask for more than 0: a violation of the consecutive-only
    labeling. No pair needs a gap above diam, so those pairs lie in the
    label window of C, which rises along the plan and goes through
    ``validate``'s kernel, :func:`_short_pairs`. Only these
    candidates are walked in Python, in plan order: each position's
    extra is the most its candidates still ask for, given the extras
    already made. When there is no candidate, the consecutive-only
    labeling is valid and is the greedy labeling.
    """
    order, along = _consecutive_steps(g, dm, plan)
    return _by_vertex(g, order, _greedy_along(dm, order, along))


def consecutive_only_assign(g: Graph, dm: DistanceMatrix, plan: OrderingPlan) -> Labeling:
    """Accumulate the gap requirement between consecutive visits only.

    The final label telescopes to ``sum(diam + 1 - d(u_{i-1}, u_i))``.
    Validity against non-consecutive pairs is NOT guaranteed; callers
    pass the result to :func:`validate` and report the verdict.
    """
    return _by_vertex(g, *_consecutive_steps(g, dm, plan))

