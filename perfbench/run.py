"""radiomesh benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the repository root. One process, one thread and one caller:
each op waits for the previous one. ``--trace 0`` runs ops for
``--seconds`` seconds (at least the workload's minimum) and reports the
end-to-end metrics, timed at reference host speed (see clock.py);
``--trace 1`` runs a fixed list of ops once untraced and once with span
wrappers swapped into radiomesh, and reports the per-layer metrics and
the tracing overhead in wall time. Every op's output is checked.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A copy of the result with the
environment, the printed summary and any count differences, and in
traced runs the spans, goes to ``.perfbench/`` under the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from clock import HostSpeedProbe, wall_clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s"}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_bytes(name: int) -> int | None:
    # glibc's _SC_LEVEL2_CACHE_SIZE (191) and _SC_LEVEL3_CACHE_SIZE (194)
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def environment(workload) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "l2_cache_bytes_per_core": _cache_bytes(191),
        "l3_cache_bytes": _cache_bytes(194),
        "distance_matrix_bytes": workload.distance_matrices(),
    }


_IMPORT_TIMER = """
from clock import HostSpeedProbe
with HostSpeedProbe() as probe:
    _module, wall, ref = probe(__import__, "radiomesh")
print(wall, ref)
"""


def _cold_import() -> tuple[float, float]:
    """(wall, reference-speed) seconds for a fresh interpreter to import radiomesh.

    Every CLI call pays this first. The child times itself, so the
    interpreter's own start-up is left out.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER], cwd=ROOT, env=env, check=True,
        capture_output=True, text=True,
    )
    wall, ref = (float(x) for x in done.stdout.split())
    return wall, ref


def _run_op(workload, index: int, ops: list, clock) -> None:
    from workloads import OpResult

    start = time.perf_counter()
    try:
        result = workload.op(index, clock)
    except Exception:  # the program raised: a failed op, timed up to the raise
        traceback.print_exc()
        wall = time.perf_counter() - start
        result = OpResult(wall, wall, [f"op {index} raised"])
    for problem in result.problems:
        print(f"check failed: {workload.name} op {index}: {problem}", file=sys.stderr)
    ops.append(result)


def _ops_for(workload, seconds: float, clock) -> list:
    ops: list = []
    start = time.perf_counter()
    while len(ops) < workload.min_ops or time.perf_counter() - start < seconds:
        _run_op(workload, len(ops), ops, clock)
    return ops


def _traced(workload, seed: int) -> tuple[list, list, dict, list[dict]]:
    from spans import Recorder

    untraced: list = []
    for i in range(workload.trace_ops):
        _run_op(workload, i, untraced, wall_clock)
    recorder = Recorder()
    traced: list = []
    with recorder.installed():
        for i in range(workload.trace_ops):
            recorder.run_id = f"{workload.name}:{seed}:{i}"
            _run_op(workload, i, traced, wall_clock)
    metrics = recorder.layer_metrics()
    wall = sum(o.seconds for o in traced)
    base = sum(o.seconds for o in untraced)
    metrics.update({"trace.wall_s": wall, "trace.untraced_s": base, "trace.overhead_s": wall - base})
    return untraced, traced, metrics, recorder.dump()


def _count_differences(traced: list, metrics: dict) -> list[str]:
    """Counters that do not repeat the values the ops' inputs determine."""
    expected: dict[str, int] = {}
    for op in traced:
        for name, value in op.expect.items():
            expected[name] = expected.get(name, 0) + value
    return [
        f"{name}: expected {value}, counted {metrics[name]}"
        for name, value in sorted(expected.items())
        if metrics[name] != value
    ]


def _set_up(workload, seed: int, clock) -> list[tuple[float, float]]:
    """(wall, reference-speed) seconds of each of SETUP_REPEATS set-ups.

    A set-up is a cold import of radiomesh plus the workload's own set-up.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        import_wall, import_ref = _cold_import()
        _none, wall, ref = clock(workload.setup, seed, WORK_DIR)
        setups.append((import_wall + wall, import_ref + ref))
    return setups


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record."""
    record: dict = {"workload": workload.name, "seed": seed, "trace": int(trace)}
    summary: dict[str, tuple[float, str]] = {}
    with workload.guard():
        if trace:
            setups = _set_up(workload, seed, wall_clock)
            untraced, traced, metrics, spans = _traced(workload, seed)
            ops = untraced + traced
            record["count_differences"] = _count_differences(traced, metrics)
            record["spans"] = spans
            units = _layer_units()
        else:
            with HostSpeedProbe() as probe:
                setups = _set_up(workload, seed, probe)
                ops = _ops_for(workload, seconds, probe)
            metrics = {
                "setup_s": statistics.median(ref for _wall, ref in setups),
                "op_p50_ms": statistics.median(o.ref_seconds for o in ops) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = END_TO_END_UNITS
            summary["setup_wall_s"] = (statistics.median(wall for wall, _ref in setups), "s")
            summary["op_p50_wall_ms"] = (statistics.median(o.seconds for o in ops) * 1e3, "ms")
            summary["host_slowdown"] = (probe.slowdown(), "x")
    failed = sum(1 for o in ops if o.problems)
    summary.update(workload.report(ops))
    summary["failed_frac"] = (failed / len(ops), "failed/attempted")
    record.update(
        correct=failed == 0,
        attempted=len(ops),
        failed=failed,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        summary={name: {"value": v, "unit": u} for name, (v, u) in summary.items()},
        setup_seconds=setups,
        op_seconds=[o.seconds for o in ops],
        op_ref_seconds=[o.ref_seconds for o in ops],
    )
    return record


def _layer_units() -> dict[str, str]:
    from spans import COUNT_METRICS, TIME_METRICS

    return {name: "s" for name in TIME_METRICS} | COUNT_METRICS | TRACE_UNITS


def _print_summary(record: dict) -> None:
    name = record["workload"]
    for metric, entry in {**record["metrics"], **record["summary"]}.items():
        print(f"{name:<12} {metric:<46} {entry['value']:>16.6g} {entry['unit']}")
    if record["trace"]:
        wall = record["metrics"]["trace.wall_s"]["value"]
        times = [
            (entry["value"], metric) for metric, entry in record["metrics"].items()
            if entry["unit"] == "s" and not metric.startswith("trace.")
        ]
        for value, metric in sorted(times, reverse=True)[:4]:
            print(f"{name:<12} self-time share {metric:<40} {value / wall:>8.1%}")
        for line in record["count_differences"]:
            print(f"{name:<12} COUNT DIFFERS {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "radiomesh" / "__init__.py").is_file():
        print(f"perfbench: no radiomesh package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    env = environment(workload)
    print("env " + json.dumps(env))

    record = run(workload, args.seed, args.seconds, bool(args.trace))
    record["env"] = env
    WORK_DIR.mkdir(exist_ok=True)
    out = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_summary(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
