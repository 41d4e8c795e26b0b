"""Tests of the repository's tools, on synthetic inputs."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def _record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", os.path.join(TOOLS, "record_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(trace=0):
    """A ``perfbench/run.py`` result: 400 operations, 8 failed, timed for
    2.5 s of a requested 25 s."""
    env = {"workload": "suites", "seed": 3, "seconds": 25.0, "trace": trace, "operations": 400, "nproc": 2}
    values = {"ops_per_s": 160.0, "op_p50_ms": 5.5, "op_tail_ms": 12.0, "setup_s": 0.2,
              "peak_rss_mb": 45.0, "fail_ratio": 0.02, "raw_ops_per_s": 150.0}
    return {"environment": env, "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()},
            "latencies_ms": [6.25] * 400}


def test_record_keeps_the_end_to_end_metrics_and_the_timed_seconds():
    end_to_end = ["ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"]
    run = _record_bench().record(_result(), "abc1234", end_to_end)
    assert run == {
        "commit": "abc1234",
        "seed": 3,
        "seconds": 25.0,
        "timed_seconds": 2.5,
        "attempted": 400,
        "failed": 8,
        "metrics": {"ops_per_s": 160.0, "op_p50_ms": 5.5, "op_tail_ms": 12.0, "setup_s": 0.2,
                    "peak_rss_mb": 45.0},
        "environment": _result()["environment"],
    }


def test_record_rejects_a_traced_run():
    with pytest.raises(ValueError, match="trace 0"):
        _record_bench().record(_result(trace=1), "abc1234", ["ops_per_s"])
