"""The benchmark's workloads and the independent checks of their outputs.

Each workload drives radiomesh only through its public functions and
``radiomesh.cli.main``, looked up on the module at call time so a traced
run can swap wrappers in. An op times the program calls alone; the
output checks run outside the timed region and report problems, each of
which fails the op.

The independent check uses the factored product metric: the distance
between (row, col, star) and (row', col', star') is |row - row'| +
|col - col'| + the star distance, computed here with numpy and never with
radiomesh's BFS.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import radiomesh
import radiomesh.claims
import radiomesh.cli
import radiomesh.search

from spans import patched

# (fn, *args) -> (result, wall seconds, reference-speed seconds)
Clock = Callable[..., tuple]

REFERENCE = Path(__file__).resolve().parent / "reference"
BLOCK = 256  # rows per numpy block, so the check's temporaries stay a few MB


@dataclass
class OpResult:
    seconds: float  # program wall time of the whole op
    ref_seconds: float  # the same at reference host speed (see clock.py)
    problems: list[str] = field(default_factory=list)  # failed output checks
    stages: dict[str, float] = field(default_factory=dict)  # program wall time per stage
    expect: dict[str, int] = field(default_factory=dict)  # counters the trace must repeat


class ProductOracle:
    """Radio-labeling violation counts on the m x m mesh x n-leaf star product."""

    def __init__(self, m: int, n: int):
        ids = np.arange(m * m * (n + 1))
        cell, star = np.divmod(ids, n + 1)
        row, col = np.divmod(cell, m)
        self.num_vertices = len(ids)
        self.diameter = 2 * (m - 1) + min(n, 2)
        required = np.empty((len(ids), len(ids)), dtype=np.int8)
        for lo in range(0, len(ids), BLOCK):
            hi = min(len(ids), lo + BLOCK)
            s, t = star[lo:hi, None], star[None, :]
            star_dist = np.where(s == t, 0, np.where((s == 0) | (t == 0), 1, 2))
            dist = np.abs(row[lo:hi, None] - row) + np.abs(col[lo:hi, None] - col) + star_dist
            required[lo:hi] = self.diameter + 1 - dist
        self.required = required

    def violations(self, labels) -> int:
        """Unordered pairs whose label gap is below the requirement."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (self.num_vertices,):
            raise ValueError(f"expected {self.num_vertices} labels, got {labels.shape}")
        bad = 0
        for lo in range(0, self.num_vertices, BLOCK):
            hi = min(self.num_vertices, lo + BLOCK)
            gap = np.abs(labels[lo:hi, None] - labels[None, :])
            bad += int(np.count_nonzero(gap < self.required[lo:hi]))
        # every diagonal entry counts (gap 0 < diam + 1); each pair counts twice
        return (bad - self.num_vertices) // 2


class Workload:
    """One closed-loop workload: set up once, then run ops back to back."""

    name = ""
    min_ops = 1  # untraced runs do at least this many ops
    trace_ops = 1  # traced runs do exactly this many ops, traced and untraced

    def setup(self, seed: int, work_dir: Path) -> None:
        raise NotImplementedError

    def op(self, index: int, clock: Clock) -> OpResult:
        """Run op ``index``, timing each program call with ``clock``."""
        raise NotImplementedError

    def distance_matrices(self) -> dict[str, int]:
        """Computed int64 distance-matrix bytes of the instances this workload builds."""
        raise NotImplementedError

    def report(self, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
        """Workload-specific metrics for the printed summary."""
        return {}

    @contextmanager
    def guard(self) -> Iterator[None]:
        yield


def _dm_bytes(m: int, n: int) -> int:
    return (m * m * (n + 1)) ** 2 * 8


def _reference_counts(key: str) -> dict[str, int]:
    counts = json.loads((REFERENCE / "counts.json").read_text(encoding="utf-8"))
    return counts.get(key, {})


class Verify(Workload):
    """``run_verification`` on a grid, rendered as the verdict CSV.

    The inputs are the grid itself, so the seed changes nothing here.
    """

    name = "verify"

    def __init__(self, config: radiomesh.claims.VerifyConfig | None = None, key: str = "verify:default"):
        self.config = config or radiomesh.claims.VerifyConfig()
        self.key = key
        self.searches: list[tuple[int, str]] = []  # (vertices, status) per minimize_span call
        self.last_rows: list[list[str]] = []

    def _grid(self) -> list[tuple[int, int]]:
        c = self.config
        return [(m, n) for m in sorted(c.even_m + c.odd_m) for n in c.ns]

    def setup(self, seed: int, work_dir: Path) -> None:
        grid = set(self._grid())
        with open(REFERENCE / "verify_verdicts.csv", newline="", encoding="utf-8") as fh:
            self.reference = {
                tuple(r[:4]): r
                for r in csv.reader(fh)
                if r[0] != "claim_id" and ((int(r[1]), int(r[2])) in grid or r[0].startswith("Ex"))
            }
        self.expect = _reference_counts(self.key)

    def distance_matrices(self) -> dict[str, int]:
        return {f"({m},{n})": _dm_bytes(m, n) for m, n in self._grid()}

    @contextmanager
    def guard(self) -> Iterator[None]:
        """Observe every search status, so a budget-truncated search cannot pass quietly."""
        original = radiomesh.search.minimize_span

        def observed(req, *args, **kwargs):
            result = original(req, *args, **kwargs)
            self.searches.append((len(req), result[2].name))
            return result

        with patched({original: observed}):
            yield

    def op(self, index: int, clock: Clock) -> OpResult:
        self.searches.clear()

        def run():
            rows = radiomesh.claims.run_verification(self.config)
            return radiomesh.claims.verdicts_to_csv(rows, timestamp=False)

        text, wall, ref = clock(run)
        self.last_rows = list(csv.reader(io.StringIO(text)))[1:]
        return OpResult(wall, ref, self._check(self.last_rows), expect=dict(self.expect))

    def _check(self, rows: list[list[str]]) -> list[str]:
        problems = []
        got = {tuple(r[:4]): r for r in rows}
        if len(rows) != len(self.reference) or got.keys() != self.reference.keys():
            problems.append(f"{len(rows)} rows, expected the {len(self.reference)} reference rows")
        for key, ref in self.reference.items():
            if ref[7] != "Unverifiable" and (key not in got or got[key][7] != ref[7]):
                problems.append(f"{key} was {ref[7]}, now {got[key][7] if key in got else 'missing'}")
        for (m, n), value in {(2, 2): "22", (2, 1): "10"}.items():
            key = ("Thm6.Bound", str(m), str(n), "row-major")
            if key in self.reference and (key not in got or got[key][6] != value):
                problems.append(f"exact rn({m},{n}) is not {value}")
        for size, status in self.searches:
            if size <= self.config.exact_vertex_limit and status != "EXACT":
                problems.append(f"search on {size} vertices ended {status}")
        return problems

    def report(self, ops):
        settled = sum(r[7] in ("Match", "Mismatch") for r in self.last_rows)
        return {
            "verify_s": (float(np.median([o.seconds for o in ops])), "s"),
            "verify_settled_rows": (settled, "rows"),
        }


class LabelLarge(Workload):
    """``radiomesh label`` then ``radiomesh validate`` on one large instance.

    The instance is fixed, so the seed changes nothing here.
    """

    name = "label-large"
    min_ops = 2  # the second op's allocations settle peak_rss_mb (about 5% above one op's)

    def __init__(self, m: int = 19, n: int = 5, expected_span: int = 60993):
        self.m, self.n, self.expected_span = m, n, expected_span
        self.key = f"label-large:{m}x{n}"

    def setup(self, seed: int, work_dir: Path) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.out = work_dir / f"label-{self.m}x{self.n}.txt"
        self.expect = _reference_counts(self.key)
        self.oracle = None  # built by the first check, outside set-up

    def distance_matrices(self) -> dict[str, int]:
        return {f"({self.m},{self.n})": _dm_bytes(self.m, self.n)}

    def _cli(self, clock: Clock, argv: list[str]) -> tuple[int, str, float, float]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, wall, ref = clock(radiomesh.cli.main, argv)
        return code, buf.getvalue(), wall, ref

    def op(self, index: int, clock: Clock) -> OpResult:
        self.out.unlink(missing_ok=True)
        mn = ["--m", str(self.m), "--n", str(self.n)]
        label_code, label_text, label_s, label_ref = self._cli(clock, ["label", *mn, "--out", str(self.out)])
        validate_code, _text, validate_s, validate_ref = self._cli(
            clock, ["validate", *mn, "--labeling", str(self.out)]
        )
        result = OpResult(
            label_s + validate_s,
            label_ref + validate_ref,
            stages={"label": label_s, "validate": validate_s},
            expect=dict(self.expect),
        )
        if label_code != 0 or validate_code != 0:
            result.problems.append(f"exit codes label={label_code} validate={validate_code}")
        if f"greedy span: {self.expected_span} " not in label_text:
            result.problems.append(f"label did not report greedy span {self.expected_span}")
        result.problems += self._check_file()
        return result

    def _check_file(self) -> list[str]:
        labels = {}
        for line in self.out.read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                vid, label = line.split()
                labels[int(vid)] = int(label)
        if self.oracle is None:
            self.oracle = ProductOracle(self.m, self.n)
        if sorted(labels) != list(range(self.oracle.num_vertices)):
            return ["labeling file does not cover every vertex once"]
        values = [labels[v] for v in range(len(labels))]
        problems = []
        if max(values) - min(values) != self.expected_span:
            problems.append(f"file span {max(values) - min(values)}, expected {self.expected_span}")
        bad = self.oracle.violations(values)
        if bad:
            problems.append(f"written labeling has {bad} violating pairs")
        return problems

    def report(self, ops):
        return {
            "label_s": (float(np.median([o.stages["label"] for o in ops])), "s"),
            "validate_s": (float(np.median([o.stages["validate"] for o in ops])), "s"),
        }


class Relabel(Workload):
    """Greedy realisation and validation of seeded random visit orders.

    Set-up builds the product graph and its distance matrix once. Op i
    draws its order and its corruption from (seed, i), so a traced pass
    replays the untraced pass's inputs exactly.
    """

    name = "relabel"

    corrupt_max = 4  # vertices whose labels a corruption overwrites, at most

    def __init__(self, m: int = 12, n: int = 4, min_ops: int = 100, trace_ops: int = 100):
        self.m, self.n = m, n
        self.min_ops, self.trace_ops = min_ops, trace_ops

    def setup(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.dm = None  # free a repeated set-up's matrix first, so peak RSS holds one
        self.graph = radiomesh.build_product_graph(radiomesh.ProductParams(self.m, self.n)).graph
        self.dm = radiomesh.all_pairs_distances(self.graph)
        self.oracle = None  # built by the first op, outside set-up

    def distance_matrices(self) -> dict[str, int]:
        return {f"({self.m},{self.n})": _dm_bytes(self.m, self.n)}

    def op(self, index: int, clock: Clock) -> OpResult:
        if self.oracle is None:
            self.oracle = ProductOracle(self.m, self.n)
        rng = random.Random(f"relabel:{self.seed}:{index}")
        nv = self.graph.num_vertices
        order = list(range(nv))
        rng.shuffle(order)

        def greedy():
            return radiomesh.greedy_assign(self.graph, self.dm, radiomesh.OrderingPlan(tuple(order)))

        labeling, greedy_s, greedy_ref = clock(greedy)
        report, validate_s, validate_ref = clock(radiomesh.validate, self.graph, self.dm, labeling)

        # copy the labels of k vertices onto k others: at least k violations
        labels = list(labeling.labels)
        k = rng.randint(1, self.corrupt_max)
        picks = rng.sample(range(nv), 2 * k)
        for v, u in zip(picks[:k], picks[k:]):
            labels[v] = labels[u]

        def validate_corrupted():
            return radiomesh.validate(self.graph, self.dm, radiomesh.Labeling(tuple(labels)))

        corrupted, corrupted_s, corrupted_ref = clock(validate_corrupted)

        problems = []
        if not report.valid or self.oracle.violations(labeling.labels):
            problems.append(f"order {index}: greedy labeling is invalid")
        expected_bad = self.oracle.violations(labels)
        if expected_bad < k or len(corrupted.violations) != expected_bad:
            problems.append(
                f"order {index}: validate found {len(corrupted.violations)} violations, "
                f"independent check {expected_bad}"
            )
        expect = {"labeling.pairs_checked": nv * (nv - 1), "labeling.violations": expected_bad}
        return OpResult(
            greedy_s + validate_s + corrupted_s, greedy_ref + validate_ref + corrupted_ref, problems, expect=expect
        )

    def report(self, ops):
        times = sorted(o.seconds for o in ops)
        return {
            "relabel_per_s": (len(times) / sum(times), "ops/s"),
            "relabel_p50_ms": (float(np.median(times)) * 1e3, "ms"),
            "relabel_p90_ms": (float(np.quantile(times, 0.9)) * 1e3, "ms"),
        }


# Workload name -> factory, at benchmark size.
WORKLOADS: dict[str, Callable[[], Workload]] = {
    "verify": Verify,
    "label-large": LabelLarge,
    "relabel": Relabel,
}

# The same workloads at a size that runs in seconds.
TOY_WORKLOADS: dict[str, Callable[[], Workload]] = {
    "verify": lambda: Verify(
        radiomesh.claims.VerifyConfig(even_m=(2,), odd_m=(3,), ns=(1,)), key="verify:toy"
    ),
    "label-large": lambda: LabelLarge(4, 2, expected_span=274),
    "relabel": lambda: Relabel(4, 2, min_ops=3, trace_ops=3),
}
