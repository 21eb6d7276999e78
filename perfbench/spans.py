"""Span recording around radiomesh's layer boundaries, from outside the package.

radiomesh modules bind each other's functions as module globals
(``from .search import exact_rn``), so a caller resolves a callee in its
own namespace at call time. :func:`patched` therefore swaps a replacement
into every ``radiomesh`` module attribute that is the original object,
and puts the originals back on exit. Patches nest: a second patch of an
already wrapped function wraps the wrapper.

A :class:`Recorder` keeps spans in memory (name, start, end, parent span,
run id) and per-layer counters, and turns them into self times: a span's
duration minus the time its child spans cover.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

# Layer boundaries: (module, function) pairs wrapped in a traced run. The
# span name is "<module>.<function>"; formulas functions are added by
# :func:`traced_functions`.
TRACED = (
    ("graphs", "all_pairs_distances"),
    ("product", "build_product_graph"),
    ("orderings", "construction_ordering"),
    ("orderings", "build_construction_labeling"),
    ("labeling", "greedy_assign"),
    ("labeling", "validate"),
    ("labeling", "consecutive_only_assign"),
    ("search", "exact_rn"),
    ("search", "minimize_span"),
    ("search", "gap_matrix"),
    ("claims", "run_verification"),
    ("claims", "full_bound_claim"),
    ("claims", "pair_bound_claim"),
    ("claims", "distance_claims"),
    ("claims", "diameter_claim"),
    ("formats", "format_labeling"),
    ("formats", "parse_labeling"),
    ("cli", "main"),
)

# Per-layer time metrics: metric name -> span name whose self times are
# summed (a name ending in "." selects every span under that module).
# Every time metric is a self time.
TIME_METRICS = {
    "graphs.all_pairs_distances.s": "graphs.all_pairs_distances",
    "product.build_product_graph.s": "product.build_product_graph",
    "orderings.construction_ordering.s": "orderings.construction_ordering",
    "orderings.build_construction_labeling.self_s": "orderings.build_construction_labeling",
    "labeling.greedy_assign.s": "labeling.greedy_assign",
    "labeling.validate.s": "labeling.validate",
    "labeling.consecutive_only_assign.s": "labeling.consecutive_only_assign",
    "search.exact_rn.s": "search.exact_rn",
    "search.minimize_span.s": "search.minimize_span",
    "search.gap_matrix.s": "search.gap_matrix",
    "claims.full_bound_claim.s": "claims.full_bound_claim",
    "claims.pair_bound_claim.s": "claims.pair_bound_claim",
    "claims.distance_claims.s": "claims.distance_claims",
    "claims.diameter_claim.s": "claims.diameter_claim",
    "formulas.s": "formulas.",
    "formats.format_labeling.s": "formats.format_labeling",
    "formats.parse_labeling.s": "formats.parse_labeling",
    "cli.main.self_s": "cli.main",
}

# Per-layer counters; each must repeat exactly for identical inputs.
COUNT_METRICS = {
    "graphs.all_pairs_distances.calls": "count",
    "graphs.dm_mb": "MB",
    "labeling.pairs_checked": "count",
    "labeling.violations": "count",
    "search.minimize_span.calls": "count",
    "search.nodes": "count",
    "search.not_exact": "count",
    "claims.rows.match": "count",
    "claims.rows.mismatch": "count",
    "claims.rows.unverifiable": "count",
}


def _radiomesh_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "radiomesh" or name.startswith("radiomesh."))
    ]


def namespace_snapshot() -> dict[tuple[str, str], int]:
    """Identity of every function-valued attribute of every radiomesh module."""
    snap = {}
    for mod in _radiomesh_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                snap[(mod.__name__, attr)] = id(value)
    return snap


@contextmanager
def patched(replacements: dict[Callable, Callable]) -> Iterator[None]:
    """Swap each key for its value wherever a radiomesh module binds it."""
    undo = []
    try:
        for mod in _radiomesh_modules():
            for attr, value in list(vars(mod).items()):
                for original, replacement in replacements.items():
                    if value is original:
                        setattr(mod, attr, replacement)
                        undo.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


def traced_functions() -> dict[str, Callable]:
    """Span name -> the function currently bound at that layer boundary."""
    import radiomesh.formulas

    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _radiomesh_modules()}
    targets = {f"{mod}.{fn}": getattr(mods[mod], fn) for mod, fn in TRACED}
    for name, fn in vars(radiomesh.formulas).items():
        if inspect.isfunction(fn) and fn.__module__ == "radiomesh.formulas" and not name.startswith("_"):
            targets[f"formulas.{name}"] = fn
    return targets


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, float] = defaultdict(int)
        self.run_id = ""
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable) -> Callable:
        count = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, 0.0, 0.0, parent, self.run_id]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        wrappers = {fn: self.span(name, fn) for name, fn in traced_functions().items()}
        with patched(wrappers):
            yield

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _run), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return totals

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {
            metric: sum(
                t for name, t in selfs.items()
                if name == key or (key.endswith(".") and name.startswith(key))
            )
            for metric, key in TIME_METRICS.items()
        }
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0)
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]


def _count_distances(counts, args, kwargs, dm) -> None:
    counts["graphs.all_pairs_distances.calls"] += 1
    counts["graphs.dm_mb"] = max(counts["graphs.dm_mb"], dm.matrix.nbytes / 1e6)


def _count_validate(counts, args, kwargs, report) -> None:
    g = args[0] if args else kwargs["g"]
    nv = g.num_vertices
    counts["labeling.pairs_checked"] += nv * (nv - 1) // 2
    counts["labeling.violations"] += len(report.violations)


def _count_search(counts, args, kwargs, result) -> None:
    _value, _labels, status, nodes = result
    counts["search.minimize_span.calls"] += 1
    counts["search.nodes"] += nodes
    counts["search.not_exact"] += status.name != "EXACT"


def _count_rows(counts, args, kwargs, rows) -> None:
    for row in rows:
        counts[f"claims.rows.{row.verdict.value.lower()}"] += 1


_COUNTERS = {
    "graphs.all_pairs_distances": _count_distances,
    "labeling.validate": _count_validate,
    "search.minimize_span": _count_search,
    "claims.run_verification": _count_rows,
}
