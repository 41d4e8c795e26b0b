"""Record a benchmark run in the repository's BENCH_<workload>.json.

Usage, from the repository root:

    python3 tools/record_bench.py --commit REV RESULT.json [RESULT.json ...]
    python3 tools/record_bench.py --commit REV --tier1

Each RESULT.json is a file that ``perfbench/run.py --trace 0`` wrote, named
``perfbench/results/<workload>-seed<S>-trace0.json``.  One record per file
is appended to ``BENCH_<workload>.json`` at the repository root: the
measured revision ``REV`` (a tree with uncommitted changes is named by its
parent with ``-dirty``), the seed, the seconds requested, the timed seconds
(``attempted / ops_per_s``, the sum of the operation latencies: a run that
used up its inputs stops before the seconds requested), the operations
attempted and failed, the end-to-end metrics that ``BENCHMARK.json``
declares, and the environment.  The per-operation latencies are left out.

``--tier1`` instead runs the Tier-1 test command of ``ROADMAP.md`` once,
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors`` from
the repository root, and appends its wall time in seconds, the tests passed
and failed (errors count as failed) and the environment to
``BENCH_tier1.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"


def record(result: dict, commit: str, end_to_end: list[str]) -> dict:
    """The kept part of one ``perfbench/run.py`` result."""
    env = result["environment"]
    if env["trace"] != 0:
        raise ValueError("only --trace 0 runs measure the end-to-end metrics")
    metrics = result["metrics"]
    attempted = int(env["operations"])
    return {
        "commit": commit,
        "seed": env["seed"],
        "seconds": env["seconds"],
        "timed_seconds": attempted / metrics["ops_per_s"]["value"],
        "attempted": attempted,
        "failed": round(metrics["fail_ratio"]["value"] * attempted),
        "metrics": {name: metrics[name]["value"] for name in end_to_end},
        "environment": env,
    }


def tier1_record(commit: str) -> dict:
    """Time one run of the Tier-1 tests and keep its counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", lines[-1] if lines else "")}
    return {
        "commit": commit,
        "seconds": seconds,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "pytest": metadata.version("pytest"),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
    }


def append(bench: Path, workload: str, run: dict) -> None:
    """Append one record to a BENCH file, creating it when missing."""
    data = (json.loads(bench.read_text(encoding="utf-8")) if bench.exists()
            else {"workload": workload, "runs": []})
    data["runs"].append(run)
    bench.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="revision the runs measured")
    parser.add_argument("--tier1", action="store_true", help="time one Tier-1 test run instead")
    parser.add_argument("results", nargs="*", type=Path)
    args = parser.parse_args(argv)
    if args.tier1 == bool(args.results):
        parser.error("give either result files or --tier1")

    if args.tier1:
        run = tier1_record(args.commit)
        append(ROOT / "BENCH_tier1.json", "tier1", run)
        print(f"tier1: {run['passed']} passed, {run['failed']} failed in {run['seconds']:.2f} s")
        return 0
    end_to_end = [m["name"] for m in json.loads(SPEC.read_text(encoding="utf-8"))["end_to_end"]]
    for path in args.results:
        result = json.loads(path.read_text(encoding="utf-8"))
        workload = result["environment"]["workload"]
        bench = ROOT / f"BENCH_{workload}.json"
        append(bench, workload, record(result, args.commit, end_to_end))
        print(f"{path} -> {bench.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
