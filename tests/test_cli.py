import json
import math
import os
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as hst

from coherlab.cli import (
    MEASURES,
    ParseError,
    builtin_state,
    canonical_json,
    channel_from_json,
    channel_to_json,
    main,
    reference_rows,
    run_suite,
    state_from_json,
    state_to_json,
)
from coherlab.protocols import domino_discrimination_channel
from coherlab.states import bell_states, random_density, random_pure


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(state_to_json(bell_states()[0].to_density()))
    return str(path)


# ---------------------------------------------------------------------------
# serialization


def test_state_roundtrip_byte_identical():
    state = random_density((2, 3), 4, 42)
    text = state_to_json(state)
    again = state_to_json(state_from_json(text))
    assert text == again


def test_pure_state_roundtrip_byte_identical():
    from coherlab.states import random_pure

    psi = random_pure((2, 2), 17)
    text = state_to_json(psi)
    assert text == state_to_json(state_from_json(text))


def test_channel_roundtrip_byte_identical():
    text = channel_to_json(domino_discrimination_channel())
    assert text == channel_to_json(channel_from_json(text))


def test_canonical_float_formatting():
    text = canonical_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text  # 17 significant digits
    text = canonical_json({"x": 1e-30})
    assert "e-30" in text  # lowercase exponent


def test_parse_error_names_invariant(tmp_path):
    # a density matrix with trace 2 must fail with a named diagnostic
    payload = {
        "kind": "density",
        "dims": [2],
        "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    runner = CliRunner()
    result = runner.invoke(main, ["measure", "cr", "--state", str(path)])
    assert result.exit_code == 3
    assert "trace" in result.output


# ---------------------------------------------------------------------------
# measure command


def test_measure_qire_bell(runner, bell_file):
    result = runner.invoke(main, ["measure", "qire", "--state", bell_file, "--split", "A=0;B=1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["value"] - 1.0) < 1e-9
    assert payload["method"] == "closed-form"


def test_measure_builtin_merging(runner):
    result = runner.invoke(
        main, ["measure", "qire", "--builtin", "merging", "--split", "A=0;B=1,2"]
    )
    assert result.exit_code == 0
    assert abs(json.loads(result.output)["value"] - 8 / 9) < 1e-9


def test_measure_cr_diagonal_state(runner, tmp_path):
    path = tmp_path / "diag.json"
    payload = {
        "kind": "density",
        "dims": [2],
        "matrix": [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.75, 0.0]],
    }
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["measure", "cr", "--state", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["value"] == 0.0


def test_measure_assistance_labeled_optimized(runner):
    result = runner.invoke(main, ["measure", "assistance", "--builtin", "psi2", "--budget", "1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["method"] == "optimized"
    assert abs(payload["value"] - 1.0) < 1e-9


def test_measure_assistance_on_large_mixed_state_exits_3(runner):
    # the 81-dimensional (9, 3, 3) merging state is mixed and beyond the search's size limit
    result = runner.invoke(main, ["measure", "assistance", "--builtin", "merging", "--budget", "1"])
    assert result.exit_code == 3
    assert "Traceback" not in result.output


def test_measure_exit_codes(runner, tmp_path, bell_file):
    # parse failure: missing file
    result = runner.invoke(main, ["measure", "cr", "--state", str(tmp_path / "nope.json")])
    assert result.exit_code == 2
    # parse failure: both or neither input flags
    result = runner.invoke(main, ["measure", "cr"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["measure", "qire", "--state", bell_file])
    assert result.exit_code == 2  # missing split
    # unknown measure name is a usage error (click exits 2)
    result = runner.invoke(main, ["measure", "nope", "--builtin", "bell"])
    assert result.exit_code == 2


def test_builtin_domino_index():
    psi = builtin_state("domino:2")
    s = 1 / math.sqrt(2)
    assert np.allclose(psi.vec, np.kron([1, 0, 0], [s, s, 0]))


# ---------------------------------------------------------------------------
# protocol command


def test_protocol_teleport(runner):
    result = runner.invoke(main, ["protocol", "teleport", "--trials", "5", "--seed", "0"])
    assert result.exit_code == 0
    assert json.loads(result.output)["min_fidelity"] >= 1 - 1e-9


def test_protocol_merge_witness(runner):
    result = runner.invoke(main, ["protocol", "merge-witness"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] is True
    assert abs(payload["qire_r_ab"] - 8 / 9) < 1e-9
    assert abs(payload["qire_rb_a"] - 4 / 9) < 1e-9


def test_protocol_discriminate(runner):
    result = runner.invoke(main, ["protocol", "discriminate", "--index", "4"])
    assert result.exit_code == 0
    assert abs(json.loads(result.output)["success_probability"] - 1.0) < 1e-9


def test_protocol_steer_on_qi_builtin(runner, tmp_path):
    from coherlab.cli import state_to_json as dump
    from coherlab.states import random_qi_state

    path = tmp_path / "qi.json"
    path.write_text(dump(random_qi_state((2, 2), 5)))
    result = runner.invoke(main, ["protocol", "steer", "--state", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["witness_found"] is False


def test_protocol_reductions(runner):
    result = runner.invoke(main, ["protocol", "sqi-to-si", "--trials", "3", "--seed", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["max_bob_marginal_gap"] < 1e-9
    result = runner.invoke(main, ["protocol", "ancilla-reduce", "--trials", "3", "--seed", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["max_action_gap"] < 1e-9


# ---------------------------------------------------------------------------
# classify command


def test_classify_domino_channel(runner, tmp_path):
    path = tmp_path / "domino.json"
    path.write_text(channel_to_json(domino_discrimination_channel()))
    result = runner.invoke(main, ["classify", "--channel", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["separable"] and payload["si"] and payload["sqi"]


def test_classify_parse_error(runner, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["classify", "--channel", str(path)])
    assert result.exit_code == 2


# name -> (command line with {path} for the input file, file content or None)
MALFORMED_INPUTS = {
    "classify-json-list": (["classify", "--channel", "{path}"], "[1, 2]"),
    "classify-kraus-without-in-dims": (
        ["classify", "--channel", "{path}"], '{"kind": "kraus", "ops": [[[1, 0]]]}'
    ),
    "classify-op-wrong-entry-count": (
        ["classify", "--channel", "{path}"],
        '{"kind": "kraus", "in_dims": [2], "ops": [[[1, 0], [0, 0], [0, 0]]]}',
    ),
    "measure-non-numeric-entry": (
        ["measure", "cr", "--state", "{path}"],
        '{"kind": "density", "dims": [1], "matrix": [["x", 0]]}',
    ),
    "measure-non-integer-split": (
        ["measure", "qire", "--builtin", "bell", "--split", "A=0;B=x"], None
    ),
    "classify-nan-tol": (
        ["classify", "--channel", "{path}", "--tol", "nan"],
        '{"kind": "kraus", "in_dims": [1], "ops": [[[1, 0]]]}',
    ),
    "measure-negative-dims": (
        ["measure", "cr", "--state", "{path}"],
        '{"kind": "density", "dims": [-1], "matrix": [[1, 0]]}',
    ),
    "measure-split-outside-state": (
        ["measure", "qire", "--builtin", "bell", "--split", "A=0;B=5"], None
    ),
    "measure-discord-empty-a-side": (
        ["measure", "discord", "--builtin", "bell", "--split", "B=0,1"], None
    ),
    "teleport-with-builtin": (["protocol", "teleport", "--builtin", "bell"], None),
    "discriminate-with-builtin": (["protocol", "discriminate", "--builtin", "domino:1"], None),
    "merge-witness-with-missing-state": (
        ["protocol", "merge-witness", "--state", "{path}"], None
    ),
    "sqi-to-si-with-state": (
        ["protocol", "sqi-to-si", "--state", "{path}"],
        '{"kind": "pure", "dims": [2], "matrix": [[1, 0], [0, 0]]}',
    ),
    "ancilla-reduce-with-builtin": (["protocol", "ancilla-reduce", "--builtin", "bell"], None),
}


@pytest.mark.parametrize("args, content", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exits_2_without_traceback(runner, tmp_path, args, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    result = runner.invoke(main, [arg.format(path=path) for arg in args])
    assert result.exit_code == 2, result.exception
    assert "parse error:" in result.output
    assert "Traceback" not in result.output


NON_FINITE_INPUTS = {
    "measure-nan-density": (
        ["measure", "cr", "--state", "{path}"],
        '{"kind": "density", "dims": [2], "matrix": [["nan", 0], [0, 0], [0, 0], [1, 0]]}',
    ),
    "measure-inf-pure": (
        ["measure", "cr", "--state", "{path}"],
        '{"kind": "pure", "dims": [2], "matrix": [["inf", 0], [0, 0]]}',
    ),
    "classify-nan-kraus": (
        ["classify", "--channel", "{path}"],
        '{"kind": "kraus", "in_dims": [2], "ops": [[["nan", 0], [0, 0], [0, 0], [1, 0]]]}',
    ),
    "classify-nan-product": (
        ["classify", "--channel", "{path}"],
        '{"kind": "product", "in_dims": [[1], [2]], '
        '"ops": [{"a": [[1, 0]], "b": [[1, 0], [0, 0], [0, 0], ["nan", 0]]}]}',
    ),
}


@pytest.mark.parametrize("args, content", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_non_finite_input_exits_3(runner, tmp_path, args, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    result = runner.invoke(main, [arg.format(path=path) for arg in args])
    assert result.exit_code == 3, result.output
    assert "invariant violation:" in result.output
    assert "non-finite" in result.output


# Flag values outside their range: click rejects each as a usage error.
QUTRIT = state_to_json(random_density((3,), 3, 0))
BAD_FLAGS = {
    "reproduce-negative-seed": (["reproduce", "--seed", "-1"], None),
    "suite-negative-seed": (["suite", "teleport", "--seed", "-1"], None),
    "suite-zero-trials": (["suite", "teleport", "--trials", "0"], None),
    "teleport-negative-seed": (["protocol", "teleport", "--seed", "-1"], None),
    "sqi-to-si-negative-seed": (["protocol", "sqi-to-si", "--seed", "-1"], None),
    "distill-pure-negative-seed": (["protocol", "distill-pure", "--seed", "-1"], None),
    "steer-negative-seed": (["protocol", "steer", "--seed", "-1"], None),
    "teleport-zero-trials": (["protocol", "teleport", "--trials", "0"], None),
    "teleport-negative-trials": (["protocol", "teleport", "--trials", "-4"], None),
    "discriminate-index-0": (["protocol", "discriminate", "--index", "0"], None),
    "discriminate-index-10": (["protocol", "discriminate", "--index", "10"], None),
    "assistance-negative-seed": (
        ["measure", "assistance", "--state", "{path}", "--seed", "-1"], QUTRIT
    ),
    "assistance-zero-budget": (["measure", "assistance", "--builtin", "psi2", "--budget", "0"], None),
}


@pytest.mark.parametrize("args, content", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_out_of_range_flag_exits_2_without_traceback(runner, tmp_path, args, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    result = runner.invoke(main, [arg.format(path=path) for arg in args])
    assert result.exit_code == 2, result.output
    assert "Invalid value" in result.output
    assert "Traceback" not in result.output


# The exit-code contract on generated input: every run ends in 0, 2, 3 or 4
# through the CLI's own handling, never in an uncaught exception.
BAD_NUMBERS = hst.sampled_from([math.nan, math.inf, -math.inf, "nan", "inf", "x", None, 1e308])
ENTRY = hst.one_of(hst.integers(-1, 1), hst.floats(-1, 1), BAD_NUMBERS)
DIMS = hst.one_of(hst.lists(hst.integers(1, 3), min_size=1, max_size=2),
                  hst.lists(hst.integers(-1, 3), max_size=3))
SPLITS = hst.one_of(
    hst.sampled_from(["A=0;B=1", "B=1", "A=1;B=0", "A=0;B=0", "A=0;B=5", "A=0",
                      "A=0,1;B=2", "A=x;B=1", "C=0;B=1", ";", ""]),
    hst.text(alphabet="AB=;,0123x ", max_size=8),
)


def _entries(draw, n, valid):
    """[re, im] pairs: the n entries of ``valid`` (a flat complex array),
    or up to 16 random ones when it is None; then at most one corrupted
    entry and sometimes one entry too few."""
    if valid is None:
        pairs = [[draw(ENTRY), draw(ENTRY)] for _ in range(min(n, 16))]
    else:
        pairs = [[float(z.real), float(z.imag)] for z in valid]
    if pairs and draw(hst.integers(0, 2)) == 0:
        pairs[draw(hst.integers(0, len(pairs) - 1))] = draw(
            hst.one_of(hst.tuples(BAD_NUMBERS, hst.just(0)).map(list), BAD_NUMBERS))
    return pairs[: len(pairs) - draw(hst.sampled_from([0, 0, 0, 1]))]


@hst.composite
def state_files(draw):
    dims = draw(DIMS)
    kind = draw(hst.sampled_from(["density"] * 4 + ["pure", "mixed"]))
    valid = None
    if dims and min(dims) > 0 and draw(hst.integers(0, 3)) > 0:
        seed = draw(hst.integers(0, 99))
        if kind == "pure":
            valid = random_pure(tuple(dims), seed).vec
        else:
            valid = random_density(tuple(dims), math.prod(dims), seed).mat.reshape(-1)
    total = math.prod(dims) if dims and min(dims) > 0 else 1
    n = total if kind == "pure" else total * total
    return json.dumps({"kind": kind, "dims": dims, "matrix": _entries(draw, n, valid)})


@hst.composite
def channel_files(draw):
    """Kraus or product channels; a "valid" draw starts from the identity
    channel, so only its corruption can make it fail."""
    valid = draw(hst.integers(0, 2)) > 0
    n_ops = 1 if valid else draw(hst.integers(0, 2))

    def order(dims):
        return math.prod(dims) if all(d > 0 for d in dims) else 1

    def ops(rows, cols):
        eye = np.eye(rows, cols).reshape(-1) if valid else None
        return [_entries(draw, rows * cols, eye) for _ in range(n_ops)]

    in_dims = draw(DIMS)
    out_dims = in_dims if valid else draw(DIMS)
    if draw(hst.booleans()):
        return json.dumps({"kind": "kraus", "in_dims": in_dims, "out_dims": out_dims,
                           "ops": ops(order(out_dims), order(in_dims))})
    da, db = order(in_dims), order(out_dims)
    pairs = [{"a": a, "b": b} for a, b in zip(ops(da, da), ops(db, db))]
    return json.dumps({"kind": "product", "in_dims": [in_dims, out_dims], "ops": pairs})


FUZZ = settings(derandomize=True, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _assert_contract(args, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        result = CliRunner().invoke(main, [arg.format(path=path) for arg in args])
    assert result.exit_code in (0, 2, 3, 4), (args, content, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), content
    assert "Traceback" not in result.output


@FUZZ
@given(name=hst.sampled_from(MEASURES), content=state_files(), split=hst.none() | SPLITS)
def test_fuzz_measure_exit_codes(name, content, split):
    args = ["measure", name, "--state", "{path}", "--budget", "1"]
    _assert_contract(args + ([] if split is None else ["--split", split]), content)


@FUZZ
@given(content=channel_files())
def test_fuzz_classify_exit_codes(content):
    _assert_contract(["classify", "--channel", "{path}"], content)


@FUZZ
@given(content=state_files())
def test_fuzz_protocol_steer_exit_codes(content):
    _assert_contract(["protocol", "steer", "--state", "{path}"], content)


# ---------------------------------------------------------------------------
# reproduce and suite commands


def test_reference_rows_all_pass():
    rows = reference_rows(seed=0)
    names = {r["name"] for r in rows}
    assert {"cr_psi2", "qire_merging_R_AB", "qire_merging_RB_A",
            "domino_completeness_residual", "teleport_min_fidelity_20_random"} <= names
    assert all(r["status"] == "pass" for r in rows)


def test_reproduce_csv_format(runner):
    result = runner.invoke(main, ["reproduce", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "name,value,expected,tolerance,status"
    assert all(line.endswith("pass") for line in lines[1:])


def test_suite_runs_clean(runner):
    for name in ("monotonicity", "steering", "closed-form", "continuity",
                 "reductions", "chain"):
        result = runner.invoke(main, ["suite", name, "--trials", "5", "--seed", "0"])
        assert result.exit_code == 0, (name, result.output)
        assert json.loads(result.output)["failures"] == 0


def test_run_suite_reports_counts():
    summary = run_suite("teleport", 3, 0)
    assert summary["trials"] == 3
    assert summary["failures"] == 0
    assert summary["failure_seeds"] == []


def test_suite_failure_lists_seeds_that_fail_again(runner, monkeypatch):
    import coherlab.protocols as pr
    from coherlab.channels import ProductKrausChannel
    from coherlab.checks import SUITES

    real_reduce = pr.sqi_to_si_reduce
    flip = np.array([[0, 1], [1, 0]], dtype=complex)

    def flipped_reduce(channel):
        # a wrong reduction: the true one followed by a bit flip on B
        reduced = real_reduce(channel)
        return ProductKrausChannel(tuple((a, flip @ b) for a, b in reduced.pairs),
                                   reduced.a_in_dims, reduced.b_in_dims,
                                   reduced.a_out_dims, reduced.b_out_dims)

    monkeypatch.setattr(pr, "sqi_to_si_reduce", flipped_reduce)
    result = runner.invoke(main, ["suite", "reductions", "--trials", "20", "--seed", "0"])
    assert result.exit_code == 4
    summary = json.loads(result.output)
    assert summary["failures"] > 16
    assert len(summary["failure_seeds"]) == 16
    for seed in summary["failure_seeds"]:
        assert not SUITES["reductions"](np.random.default_rng(seed))


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ParseError, match="unknown suite 'nope'"):
        run_suite("nope", 1, 0)


def test_reproduce_exits_4_on_check_failure(runner, monkeypatch):
    import coherlab.cli as cli_module

    def failing_rows(seed=0):
        return [{"name": "forced", "value": 0.0, "expected": 1.0,
                 "tolerance": 1e-9, "status": "fail"}]

    monkeypatch.setattr(cli_module, "reference_rows", failing_rows)
    result = runner.invoke(main, ["reproduce", "--format", "csv"])
    assert result.exit_code == 4


def test_protocol_state_path_runs_and_input_flag_is_gone(runner, tmp_path):
    from coherlab.cli import state_to_json as dump
    from coherlab.states import random_pure

    path = tmp_path / "input.json"
    path.write_text(dump(random_pure((2, 2), 3)))
    result = runner.invoke(main, ["protocol", "distill-pure", "--state", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["protocol"] == "distill-pure"
    result = runner.invoke(main, ["protocol", "teleport", "--input", "random"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# output policy


def test_out_flag_writes_file_and_stdout_does_not(runner, tmp_path, bell_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    result = runner.invoke(main, ["measure", "cr", "--state", bell_file])
    assert result.exit_code == 0
    assert set(os.listdir(tmp_path)) == before  # no files without --out
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["measure", "cr", "--state", bell_file, "--out", str(out)])
    assert result.exit_code == 0
    assert out.exists()
    assert json.loads(out.read_text())["name"] == "cr"
