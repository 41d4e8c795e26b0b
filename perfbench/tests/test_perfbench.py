"""Self-tests of the benchmark: repeatable traced counters, a correctness
gate that catches a wrong reference, traced runs that leave results
unchanged, and result files that record their environment.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_METRICS = [
    m["name"] for m in SPEC["per_layer"]
    if m["name"].rpartition(".")[2] in ("calls", "eig_cubed", "ops", "outcomes", "leaves", "restarts", "nfev")
]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_runs_repeat_counts_and_keep_outputs(name):
    """Two traced runs with one seed give identical work counts, and every
    traced output is bitwise equal to the plain output of the same input
    (a difference would be listed among the failures)."""
    counts = []
    for _ in range(2):
        result = run.traced_run(workloads.WORKLOADS[name](7), tracing, seconds=0)
        assert result["failures"] == []
        assert run.layer_metric("trace.overhead_ratio", result, tracing) > 0
        counts.append({m: run.layer_metric(m, result, tracing) for m in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_tracing_restores_the_library():
    from coherlab import linalg, measures, protocols

    before = (measures.c_r, protocols.c_r, measures.minimize, linalg.DensityMatrix.__post_init__)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert protocols.c_r is measures.c_r is not before[0]
        measures.c_r(linalg.DensityMatrix([[0.5, 0.5], [0.5, 0.5]], (2,)))
    assert (measures.c_r, protocols.c_r, measures.minimize, linalg.DensityMatrix.__post_init__) == before
    assert tracer.calls["measures.c_r"] == 1
    assert tracer.work["linalg.density_matrix.eig_cubed"] == 2 * 2**3  # the input and its dephasing


def test_calibration_scales_by_the_neighbouring_samples():
    calib = calibration.Calibration()
    calib.starts[:] = [0.0, 1.0, 2.0]
    calib.samples[:] = [calibration.NOMINAL_S, 3 * calibration.NOMINAL_S, 2 * calibration.NOMINAL_S]
    assert calib.slowdown(0.5) == pytest.approx(2.0)
    assert calib.slowdown(1.5) == pytest.approx(2.5)
    assert calib.slowdown(2.5) == pytest.approx(2.0)  # nothing after: the last sample alone
    metrics = run.end_to_end_metrics({"latencies": [0.2, 0.5], "failures": [], "gaps": []},
                                     [1.0], [0.5], slowdowns=[2.0, 2.5])
    assert metrics["op_p50_ms"][0] == pytest.approx(150.0)
    assert metrics["raw_op_p50_ms"][0] == pytest.approx(350.0)
    assert metrics["machine_slowdown"][0] == pytest.approx(0.7 / 0.3)


def timed_metrics(workload):
    """One cycle of the workload, timed and checked as in a benchmark run."""
    result = run.timed_run(workload, 0, calibration.Calibration())
    return result, run.end_to_end_metrics(result, [0.0], [0.0], [1.0] * len(result["latencies"]))


def test_gate_fails_reproduce_when_a_reference_moves(monkeypatch):
    assert timed_metrics(workloads.Reproduce(3))[1]["fail_ratio"][0] == 0.0
    monkeypatch.setitem(workloads.REPRODUCE_REFERENCE, "qire_merging_R_AB", (8.0 / 9.0 + 1e-6, 1e-9))
    moved, metrics = timed_metrics(workloads.Reproduce(3))
    assert metrics["fail_ratio"][0] > 0
    assert "qire_merging_R_AB" in moved["failures"][0][1]


def test_gate_fails_large_d_when_a_reference_entropy_moves():
    workload = workloads.LargeD(3)
    workload.reference[5] += 1e-6
    result, metrics = timed_metrics(workload)
    assert [i for i, _ in result["failures"]] == [5]
    assert metrics["fail_ratio"][0] == pytest.approx(1 / workload.cycle)


def test_large_d_references_match_the_library():
    """The factor-only references agree with coherlab on small states."""
    from coherlab import linalg, measures

    rng = workloads.np.random.default_rng(0)
    v = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    v /= workloads.np.linalg.norm(v)
    rho = linalg.DensityMatrix(v @ v.conj().T, (3, 2, 2))
    split = measures.Bipartition((0,), (1, 2))
    for fn in workloads.LARGE_D_MEASURES:
        expected = measures.c_r(rho) if fn == "c_r" else getattr(measures, fn)(rho, split)
        assert math.isclose(workloads._large_d_reference(fn, v, 3, 4), expected, abs_tol=1e-12)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_and_file(capsys, trace):
    assert run.main(["--workload", "reproduce", "--seed", "4", "--seconds", "0", "--trace", trace]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    result = json.loads((run.RESULTS / f"reproduce-seed4-trace{trace}.json").read_text(encoding="utf-8"))
    env = result["environment"]
    for key in ("blas", "blas_threads_pinned", "blas_threads_reported", "nproc", "python", "numpy",
                "scipy", "seed", "operations"):
        assert env[key] is not None, key
    assert env["blas_threads_pinned"] == 1 and env["seed"] == 4
    if trace == "0":
        assert result["metrics"]["op_tail_samples_beyond"]["value"] == 0  # one operation only
        assert len(result["latencies_ms"]) == env["operations"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
