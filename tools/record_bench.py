"""Record a benchmark run in the repository's BENCH_<workload>.json.

Usage, from the repository root:

    python3 tools/record_bench.py --commit REV RESULT.json [RESULT.json ...]

Each RESULT.json is a file that ``perfbench/run.py --trace 0`` wrote, named
``perfbench/results/<workload>-seed<S>-trace0.json``.  One record per file
is appended to ``BENCH_<workload>.json`` at the repository root: the
measured revision ``REV`` (a tree with uncommitted changes is named by its
parent with ``-dirty``), the seed, the seconds, the operations attempted and
failed, the end-to-end metrics that ``BENCHMARK.json`` declares, and the
environment.  The per-operation latencies are left out.
"""

from __future__ import annotations

import argparse
import json
import sys
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
        "attempted": attempted,
        "failed": round(metrics["fail_ratio"]["value"] * attempted),
        "metrics": {name: metrics[name]["value"] for name in end_to_end},
        "environment": env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="revision the runs measured")
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args(argv)

    end_to_end = [m["name"] for m in json.loads(SPEC.read_text(encoding="utf-8"))["end_to_end"]]
    for path in args.results:
        result = json.loads(path.read_text(encoding="utf-8"))
        workload = result["environment"]["workload"]
        bench = ROOT / f"BENCH_{workload}.json"
        data = (json.loads(bench.read_text(encoding="utf-8")) if bench.exists()
                else {"workload": workload, "runs": []})
        data["runs"].append(record(result, args.commit, end_to_end))
        bench.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"{path} -> {bench.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
