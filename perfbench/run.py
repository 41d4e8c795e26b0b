"""coherlab benchmark: one closed-loop caller running one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are ``reproduce``, ``suites``, ``optimizers`` and ``large-d`` (see
``perfbench/README.md``).  With ``--trace 0`` the run times operations for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it runs
one cycle of operations repeatedly, alternately plain and traced, and
reports the per-layer metrics.  Every operation's output is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, holding the metrics
that ``BENCHMARK.json`` declares.  The lines before it list every metric,
including the ones the JSON line leaves out, and the full result with its
environment is written to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported: the benchmark measures a
# single caller, and a shared two-core machine makes threaded BLAS noisy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("reproduce", "suites", "optimizers", "large-d")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
IMPORT_PROBE = "import time; t = time.perf_counter(); import coherlab; print(time.perf_counter() - t)"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import coherlab in a fresh interpreter (numpy, scipy, click
    included), as the child process measures it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def set_up(workloads, calibration, name: str, seed: int):
    """Build the workload SETUP_REPEATS times; returns the last build and,
    per build, import + input generation + reference computation in
    seconds, raw and scaled by the calibration samples taken around it."""
    raw, scaled = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        calibration.measure()
        start = time.perf_counter()
        imported = import_seconds()
        workload = None  # let the previous build go before timing the next
        built = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed)
        raw.append(imported + time.perf_counter() - built)
        calibration.measure()
        scaled.append(raw[-1] / calibration.slowdown(start))
    return workload, raw, scaled


def execute(workload, i: int, x):
    """Run and check operation i; returns (latency s, output, failure or None)."""
    start = time.perf_counter()
    try:
        out = workload.run(i, x)
        latency = time.perf_counter() - start
        return latency, out, workload.check(i, out)
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"


def timed_run(workload, seconds: float, calibration) -> dict:
    """Closed loop with one caller: whole cycles of operations, at least
    one, until the time is up (or the inputs drawn in set-up run out).
    Calibration samples are taken between operations, outside their times."""
    starts, latencies, failures, gaps = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < workload.n_ops and (i % workload.cycle or i == 0 or time.perf_counter() - start < seconds):
        calibration.tick()
        x = workload.prepare(i)
        starts.append(time.perf_counter())
        latency, out, failure = execute(workload, i, x)
        latencies.append(latency)
        if failure is not None:
            failures.append((i, failure))
        elif (gap := workload.gap(i, out)) is not None:
            gaps.append(gap)
        i += 1
    calibration.measure()
    return {"starts": starts, "latencies": latencies, "failures": failures, "gaps": gaps}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with TAIL_BEYOND samples above it:
    (value, its percentile, samples beyond it).  With fewer samples than
    that, the smallest one, and the count beyond it says so."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def end_to_end_metrics(run: dict, setup_raw: list[float], setup_scaled: list[float],
                       slowdowns: list[float]) -> dict:
    """Each operation's latency is scaled to the nominal machine by its
    slowdown (the set-up times were scaled per build); the raw values come
    along."""
    raw_lat = run["latencies"]
    lat = [x / f for x, f in zip(raw_lat, slowdowns)]
    n = len(lat)
    tail_value, tail_pct, tail_beyond = tail(lat)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (len(run["failures"]) / n, "ratio"),
        "op_tail_percentile": (tail_pct, "%"),
        "op_tail_samples_beyond": (tail_beyond, "count"),
        "machine_slowdown": (sum(raw_lat) / sum(lat), "ratio"),
        "raw_ops_per_s": (n / sum(raw_lat), "1/s"),
        "raw_op_p50_ms": (statistics.median(raw_lat) * 1e3, "ms"),
        "raw_op_tail_ms": (tail(raw_lat)[0] * 1e3, "ms"),
        "raw_setup_s": (statistics.median(setup_raw), "s"),
    }
    if run["gaps"]:
        metrics["opt_gap_bits"] = (statistics.fmean(run["gaps"]), "bits")
    return metrics


def traced_run(workload, tracing, seconds: float) -> dict:
    """Run the first cycle of operations plain and traced, repeatedly, on
    the same inputs until the time is up.  Counts come from the first
    traced pass; times are medians over passes."""
    block = range(workload.cycle)
    inputs = [workload.prepare(i) for i in block]
    passes, failures, gaps = [], [], []
    spans = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer(record_spans=not passes)

        def run_traced():
            results = []
            with tracer.installed():
                for i in block:
                    tracer.op = i
                    results.append(execute(workload, i, inputs[i]))
            return results

        # Alternate which half of a pass goes first, so that a drift in
        # machine speed does not bias the overhead ratio.
        if len(passes) % 2:
            traced = run_traced()
            plain = [execute(workload, i, inputs[i]) for i in block]
        else:
            plain = [execute(workload, i, inputs[i]) for i in block]
            traced = run_traced()
        for i, (p, t) in zip(block, zip(plain, traced)):
            for label, (_, out, failure) in (("plain", p), ("traced", t)):
                if failure is not None:
                    failures.append((i, f"{label}: {failure}"))
            if p[2] is None and t[2] is None and workload.fingerprint(p[1]) != workload.fingerprint(t[1]):
                failures.append((i, "traced output differs from the plain output"))
            if not passes and t[2] is None and (gap := workload.gap(i, t[1])) is not None:
                gaps.append(gap)
        if spans is None:
            spans = tracer.spans
        passes.append((tracer, sum(r[0] for r in traced), sum(r[0] for r in plain)))
    return {"passes": passes, "failures": failures, "gaps": gaps, "spans": spans,
            "attempted": 2 * len(block) * len(passes)}


def layer_metric(name: str, run: dict, tracing) -> float:
    """Value of one per-layer metric from a traced run."""
    passes = run["passes"]
    first = passes[0][0]
    base, _, field = name.rpartition(".")

    def select(tracer):
        if base in tracing.LAYERS:
            return [n for n in tracer.span_names if n.split(".")[0] == base]
        if base not in tracer.span_names:
            raise KeyError(f"per-layer metric {name}: no span {base!r}")
        return [base]

    if name == "trace.overhead_ratio":
        return statistics.median(t for _, t, _ in passes) / statistics.median(p for _, _, p in passes)
    if name == "measures.optimizer.gap_bits":
        return statistics.fmean(run["gaps"]) if run["gaps"] else 0.0
    if field == "calls":
        return sum(first.calls[n] for n in select(first))
    if field == "self_ms":
        return statistics.median(sum(t.self_ns[n] for n in select(t)) / 1e6 for t, _, _ in passes)
    if field == "self_share":
        if base not in tracing.LAYERS:
            raise KeyError(f"per-layer metric {name}: {base!r} is not a layer")
        return statistics.median(t.layer_self_ns(base) / 1e9 / wall for t, wall, _ in passes)
    if name not in tracing.COUNTERS:
        raise KeyError(f"per-layer metric {name}: unknown counter")
    return first.work[name]


def openblas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, operations: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": operations,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coherlab" / "__init__.py").is_file():
        print(f"error: coherlab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import calibration
    import tracing
    import workloads

    setup_calib, calib = calibration.Calibration(), calibration.Calibration()
    workload, setup_raw, setup_scaled = set_up(workloads, setup_calib, args.workload, args.seed)
    if args.trace:
        run = traced_run(workload, tracing, args.seconds)
        attempted = run["attempted"]
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: (layer_metric(name, run, tracing), unit) for name, unit in declared.items()}
        extra = {"trace.passes": (len(run["passes"]), "count")}
    else:
        run = timed_run(workload, args.seconds, calib)
        attempted = len(run["latencies"])
        slowdowns = [calib.slowdown(t) for t in run["starts"]]
        values = end_to_end_metrics(run, setup_raw, setup_scaled, slowdowns)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, unit in declared.items():
            if values[name][1] != unit:
                raise ValueError(f"{name}: measured in {values[name][1]}, declared {unit}")
        extra = {}
    failed = len(run["failures"])

    result = {
        "environment": environment(args, attempted),
        "setup_runs_s": {"raw": setup_raw, "scaled": setup_scaled},
        "calibration_samples_s": {"setup": setup_calib.samples, "run": calib.samples,
                                  "run_starts": [t - calib.starts[0] for t in calib.starts]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**values, **extra}.items()},
        "failures": [{"op": i, "reason": r} for i, r in run["failures"][:50]],
    }
    if not args.trace:
        result["latencies_ms"] = [x * 1e3 for x in run["latencies"]]
        result["starts_s"] = [t - calib.starts[0] for t in run["starts"]]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if args.trace and run["spans"]:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in run["spans"]:
                fh.write(json.dumps(dict(zip(("id", "parent", "name", "start_ns", "end_ns", "op"), span))) + "\n")

    env = result["environment"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} operations={attempted} "
          f"failed={failed} blas={env['blas']} threads={env['blas_threads_reported']} nproc={env['nproc']}")
    for name, (value, unit) in {**values, **extra}.items():
        print(f"{name} = {value} {unit}")
    for i, reason in run["failures"][:10]:
        print(f"# failed op {i}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
