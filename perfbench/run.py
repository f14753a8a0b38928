"""Run one benchmark workload for a fixed time and print its metrics.

From the root of a repository checkout::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

A run is a fixed number of operations, sized from ``--seconds`` so that
it takes about that many CPU seconds on the reference host; the same
seed and ``--seconds`` always run the same inputs.  Reported times are
CPU seconds (see ``workloads.cpu_seconds``) scaled to the reference
host's speed (see ``calibration.py``).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer split (see
``README.md``).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(host, source version, seed, cache state, every output digest) and, in
traced runs, the spans are written under ``perfbench/runs/``.  The exit
code is 0 when every output passed its checks, 1 when one did not and
2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"

#: set-ups and fresh-interpreter imports per run; ``setup_s`` is the
#: median import time plus the median set-up time
SETUP_REPEATS = 3

#: fewest operations a run measures, whatever ``--seconds`` asks for
MIN_OPS = 3

#: calibration samples taken before the imports; one more is taken
#: before every set-up and one per nominal CPU second before every
#: operation
CALIBRATION_WARMUP = 3

#: where Linux resets and reports this process's peak resident set
CLEAR_REFS = Path("/proc/self/clear_refs")
STATUS = Path("/proc/self/status")

#: (metric, unit, better) of the untraced run, in print order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ref_cpu_s", "s", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: traced layers reported as ``<name>_s`` and ``<name>_calls`` per op
LAYERS = (
    "elastic.step",
    "casestudy.build_fig9_spec",
    "casestudy.build_processor",
    "synthesis.to_behavioral",
    "synthesis.control_layer_area",
    "synthesis.to_gates",
    "rtl.simulator.cycle",
    "rtl.simulator.step_function",
    "rtl.batchsim.build",
    "rtl.batchsim.cycle",
    "codegen.build",
    "codegen.cycle",
    "compare.lane_value",
    "faults.prove_untestable",
    "resilience.supervisor_run",
    "fuzz.generate",
    "fuzz.oracle",
    "lint.spec",
    "lint.network",
    "lint.netlist",
)

#: derived per-layer metrics: (metric, unit, better)
DERIVED = (
    ("elastic.us_per_cycle", "us", "lower"),
    ("elastic.evaluates_per_cycle", "count", "lower"),
    ("faults.sweep_s", "s", "lower"),
    ("faults.untestable_proved_ratio", "ratio", "higher"),
    ("faults.lane_utilization", "ratio", "higher"),
    ("resilience.shard_retries", "count", "lower"),
    ("codegen.cache_hits", "count", "higher"),
    ("codegen.cache_misses", "count", "lower"),
    ("fuzz.oracle_p50_s", "s", "lower"),
    ("fuzz.oracle_tail_s", "s", "lower"),
    ("fuzz.oracle_tail_pct", "%", "lower"),
    ("fuzz.oracle_samples", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric, as BENCHMARK.json lists them."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}_s", "s", "lower"))
        out.append((f"{layer}_calls", "count", "lower"))
    return out + list(DERIVED)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("table1", "processor", "campaign", "fuzz"))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 is the default seed whose "
                        "outputs expected.json pins")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="CPU seconds of operations to measure on the "
                        "reference host; sets the operation count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: run untraced and traced operations in pairs "
                        "and print the per-layer metrics")
    p.add_argument("--update-expected", action="store_true",
                   help="record this run's default-seed output digests "
                        "in expected.json instead of checking them")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# one operation
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Start a new peak-resident-set measurement (Linux only)."""
    try:
        CLEAR_REFS.write_text("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset, in MB.

    Shard worker processes are not included."""
    try:
        for line in STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(workload, key: str, tracer) -> Dict[str, object]:
    """Run and time one operation; never lets a program error escape."""
    from workloads import CheckFailed, cpu_seconds

    op: Dict[str, object] = {"key": key, "traced": tracer is not None,
                             "error": None, "known_defect": None,
                             "digest": None, "items": 0, "sim_cycles": 0}
    if tracer is not None:
        tracer.install()
    reset_peak_rss()
    start = perf_counter()
    cpu_start = cpu_seconds()
    try:
        output = workload.run(key)
    except CheckFailed as exc:
        output = exc.output
        op["error"] = str(exc)
    except Exception as exc:  # a program failure is a measured outcome
        output = None
        op["error"] = f"{type(exc).__name__}: {exc}"
        op["known_defect"] = workload.known_defect(exc)
    finally:
        op["cpu_s"] = cpu_seconds() - cpu_start
        op["seconds"] = perf_counter() - start
        op["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.remove()
    if output is not None:
        op.update(digest=output.digest, items=output.items,
                  sim_cycles=output.sim_cycles)
    return op


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_outputs(workload, ops: List[Dict[str, object]],
                  update_expected: bool) -> Tuple[List[Dict[str, object]],
                                                  Dict[str, str]]:
    """Mark every operation whose output fails a check as failed.

    Returns the workload's extra checks (one entry each, ``error`` None
    when it passed) and the one observed outcome per input key.
    """
    from workloads import DEFAULT_SEED

    expected = _load_expected()
    pinned: Dict[str, str] = {}
    if workload.seed == DEFAULT_SEED and not update_expected:
        pinned = expected.get(workload.name, {})
    outcomes: Dict[str, str] = {}
    for op in ops:
        if op["digest"] is not None:
            seen = op["digest"]
        elif op["known_defect"]:
            seen = f"known defect: {op['known_defect']}"
        else:
            continue  # already failed with an unexpected error
        first = outcomes.setdefault(op["key"], seen)
        want = pinned.get(op["key"], seen)
        if first != seen:
            problem = f"repeated operation gave {seen[:40]}, first {first[:40]}"
        elif want != seen:
            problem = f"output {seen[:40]} differs from expected {want[:40]}"
        else:
            continue
        op["error"] = problem
        op["known_defect"] = None
    digests = {k: v for k, v in outcomes.items()
               if not v.startswith("known defect")}
    try:
        results = workload.final_checks(digests)
    except Exception as exc:  # a program failure is a measured outcome
        results = [("final checks", f"{type(exc).__name__}: {exc}")]
    extra = [{"check": name, "error": error} for name, error in results]
    if update_expected and workload.seed == DEFAULT_SEED:
        expected.setdefault(workload.name, {}).update(outcomes)
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True)
                            + "\n")
    return extra, outcomes


def _load_expected() -> Dict[str, Dict[str, str]]:
    try:
        return json.loads(EXPECTED.read_text())
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(ops: List[Dict[str, object]], setup_s: float,
               speed: float) -> Dict[str, float]:
    """Medians over the operations that completed and passed.

    ``speed`` is the reference kernel time over its median time in this
    run; it scales CPU seconds here to CPU seconds at reference speed.
    """
    good = [op for op in ops if op["error"] is None] or ops
    return {
        "setup_s": setup_s * speed,
        "ref_cpu_s": _median([op["cpu_s"] for op in good]) * speed,
        "sim_cycles_per_s": _median(
            [op["sim_cycles"] / op["cpu_s"] for op in good]) / speed,
        "items_per_s": _median(
            [op["items"] / op["cpu_s"] for op in good]) / speed,
        "peak_rss_mb": _median([op["peak_rss_mb"] for op in good]),
    }


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return _median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(workload, ops, tracer, registry,
                  cache_delta) -> Dict[str, float]:
    """The per-layer split, per traced operation."""
    traced = [op for op in ops if op["traced"]]
    per_op = 1.0 / max(len(traced), 1)
    totals = tracer.totals

    def calls(name: str) -> float:
        return totals[name][0] if name in totals else 0

    def seconds(name: str) -> float:
        return totals[name][1] if name in totals else 0.0

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = seconds(layer) * per_op
        out[f"{layer}_calls"] = calls(layer) * per_op
    steps = calls("elastic.step")
    out["elastic.us_per_cycle"] = (
        1e6 * seconds("elastic.step") / steps if steps else 0.0)
    out["elastic.evaluates_per_cycle"] = (
        tracer.counts["elastic.evaluate"] / steps if steps else 0.0)
    out["faults.sweep_s"] = per_op * (
        seconds("faults.run_campaign") - seconds("faults.prove_untestable"))
    attempts = calls("faults.prove_untestable")
    out["faults.untestable_proved_ratio"] = (
        tracer.counts["faults.untestable_proved"] / attempts
        if attempts else 0.0)
    busy = _series_sum(registry, "batchsim_busy_lane_cycles_total")
    lane_cycles = _series_sum(registry, "batchsim_cycles_total")
    lanes = getattr(workload, "lanes", 0)
    out["faults.lane_utilization"] = (
        busy / (lane_cycles * lanes) if lane_cycles and lanes else 0.0)
    out["resilience.shard_retries"] = per_op * _series_sum(
        registry, "campaign_shard_retries_total")
    out["codegen.cache_hits"] = per_op * cache_delta["hits"]
    out["codegen.cache_misses"] = per_op * cache_delta["misses"]
    oracle = tracer.durations("fuzz.oracle")
    out["fuzz.oracle_p50_s"] = _median(oracle)
    out["fuzz.oracle_tail_s"], out["fuzz.oracle_tail_pct"] = tail(oracle)
    out["fuzz.oracle_samples"] = len(oracle)
    traced_s = [op["cpu_s"] for op in traced if op["error"] is None]
    plain_s = [op["cpu_s"] for op in ops
               if not op["traced"] and op["error"] is None]
    out["trace.overhead_s"] = _median(traced_s) - _median(plain_s)
    return out


def _series_sum(registry, name: str) -> float:
    return sum(m.value for m in registry.series(name))


# ----------------------------------------------------------------------
# the run record
# ----------------------------------------------------------------------
def source_version() -> Dict[str, str]:
    """``git describe`` where the checkout is a repository, plus a
    digest of the program sources, which every checkout has."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    describe = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
            describe = proc.stdout.strip() or proc.stderr.strip()
        except (OSError, subprocess.TimeoutExpired) as exc:
            describe = f"unavailable: {exc}"
    return {"git_describe": describe, "src_sha256": digest.hexdigest()}


def host() -> Dict[str, object]:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def cache_tiers(registry) -> Dict[str, int]:
    """Build-cache hits and misses per tier and artifact kind."""
    out: Dict[str, int] = {}
    for name in ("codegen_cache_hits_total", "codegen_cache_misses_total"):
        for metric in registry.series(name):
            labels = dict(metric.labels)
            key = (f"{name.split('_')[2]}:{labels.get('tier')}:"
                   f"{labels.get('kind')}")
            out[key] = out.get(key, 0) + metric.value
    return dict(sorted(out.items()))


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------
def bench(args: argparse.Namespace, run_dir: Path):
    import calibration
    import workloads
    from tracing import Tracer
    from workloads import cpu_seconds

    kernel_s = [calibration.sample() for _ in range(CALIBRATION_WARMUP)]
    modules = (("repro", "repro.obs.metrics", "repro.codegen")
               + workloads.WORKLOADS[args.workload].modules)
    # Imports cannot be repeated in one process: time them in fresh
    # interpreters (start-up included), then import here untimed.
    imports = [workloads.fresh_import(modules, str(ROOT / "src"))
               for _ in range(SETUP_REPEATS)]
    import_s = _median(imports)
    for name in modules:
        importlib.import_module(name)
    from repro.codegen import build_cache, process_stats
    from repro.obs.metrics import MetricsRegistry

    setups: List[float] = []
    for attempt in range(SETUP_REPEATS):
        # A fresh cache directory per set-up, so each one starts empty;
        # the last one serves the measured operations.
        cache_dir = run_dir / "cache" / f"setup-{attempt}"
        cache_dir.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        cache_metrics = MetricsRegistry()
        build_cache(str(cache_dir), metrics=cache_metrics)
        workload = workloads.WORKLOADS[args.workload](args.seed, cache_metrics)
        kernel_s.append(calibration.sample())
        start = cpu_seconds()
        workload.setup()
        setups.append(cpu_seconds() - start)
    setup_s = import_s + _median(setups)

    tracer = registry = None
    if args.trace:
        tracer = Tracer()
        tracer.install()  # imports every traced module before timing
        tracer.remove()
        registry = MetricsRegistry()

    # A fixed operation count, not a time limit, so that a seed always
    # runs the same inputs and reports the same attempted/failed counts.
    count = max(MIN_OPS, round(args.seconds / workload.op_seconds))
    samples_per_op = max(1, round(workload.op_seconds))
    if args.trace:
        # untraced and traced operations in pairs, on the same input
        inputs = [i // 2 for i in range(2 * math.ceil(count / 2))]
    else:
        inputs = list(range(count))
    ops: List[Dict[str, object]] = []
    cache_delta = {"hits": 0, "misses": 0}
    start = perf_counter()
    for index, input_index in enumerate(inputs):
        traced = bool(args.trace) and index % 2 == 1
        key = workload.input_key(input_index)
        workload.registry = registry if traced else None
        kernel_s.extend(calibration.sample() for _ in range(samples_per_op))
        before = process_stats()
        ops.append(run_op(workload, key, tracer if traced else None))
        if traced:
            after = process_stats()
            for k in cache_delta:
                cache_delta[k] += after[k] - before[k]
    window_s = perf_counter() - start
    workload.registry = None
    speed = calibration.REFERENCE_S / _median(kernel_s)

    extra, outcomes = check_outputs(workload, ops, args.update_expected)
    checks = ops + extra
    problems = [f"{op.get('key', op.get('check'))}: {op['error']}"
                for op in checks if op["error"] and not op.get("known_defect")]
    failed = sum(1 for op in checks if op["error"])
    if args.trace:
        metrics = layer_metrics(workload, ops, tracer, registry, cache_delta)
        metrics["error_rate"] = failed / len(checks)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        metrics = end_to_end(ops, setup_s, speed)
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": not problems,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    stats = process_stats()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "host": host(),
        **source_version(),
        "cache": {
            "state": workload.cache_state,
            "directory": "fresh per run (REPRO_CACHE_DIR)",
            "process_hits": stats["hits"],
            "process_misses": stats["misses"],
            "by_tier": cache_tiers(workload.cache_metrics),
        },
        "import_runs_s": imports,
        "calibration": {
            "reference_s": calibration.REFERENCE_S,
            "kernel_s": kernel_s,
            "speed": speed,
        },
        "setup_runs_s": setups,
        "window_s": window_s,
        "median_wall_s": _median([op["seconds"] for op in ops]),
        "children_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "operations": ops,
        "outputs": outcomes,
        "final_checks": extra,
        "problems": problems,
        "result": result,
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
        record["counts"] = dict(tracer.counts)
        tracer.write(str(run_dir / "spans.jsonl.gz"))
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    if args.update_expected and args.seed != 0:
        print("perfbench: --update-expected needs the default seed 0",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = BENCH / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result, record = bench(args, run_dir)
    finally:
        shutil.rmtree(run_dir / "cache", ignore_errors=True)
    record_path = run_dir / "record.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for op in record["operations"]:
        if op["known_defect"]:
            print(f"known defect at {op['key']}: {op['known_defect']}")
    if args.trace:
        print(f"{'span':34s} {'calls':>10s} {'total s':>10s} {'self s':>10s}")
        for name, row in record["spans"].items():
            print(f"{name:34s} {row['calls']:10d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
