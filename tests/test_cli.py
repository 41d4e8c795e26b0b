import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

import coherlab
from coherlab.checks import SUITES
from coherlab.cli import (
    MEASURES,
    PROTOCOLS,
    ParseError,
    builtin_state,
    canonical_json,
    channel_from_json,
    channel_to_json,
    reference_rows,
    run_suite,
    state_from_json,
    state_to_json,
)
from coherlab.channels import dephasing_channel, random_sqi_channel
from coherlab.protocols import domino_discrimination_channel
from coherlab.states import bell_states, random_density, random_pure
from conftest import run_cli


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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
    result = run_cli(["measure", "cr", "--state", str(path)])
    assert result.exit_code == 3
    assert "trace" in result.stderr


# ---------------------------------------------------------------------------
# measure command


def test_measure_qire_bell(bell_file):
    result = run_cli(["measure", "qire", "--state", bell_file, "--split", "A=0;B=1"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert abs(payload["value"] - 1.0) < 1e-9
    assert payload["method"] == "closed-form"


def test_measure_builtin_merging():
    result = run_cli(
        ["measure", "qire", "--builtin", "merging", "--split", "A=0;B=1,2"]
    )
    assert result.exit_code == 0
    assert abs(json.loads(result.stdout)["value"] - 8 / 9) < 1e-9


def test_measure_cr_diagonal_state(tmp_path):
    path = tmp_path / "diag.json"
    payload = {
        "kind": "density",
        "dims": [2],
        "matrix": [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.75, 0.0]],
    }
    path.write_text(json.dumps(payload))
    result = run_cli(["measure", "cr", "--state", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["value"] == 0.0


def test_measure_assistance_labels_exact_routes_closed_form(tmp_path):
    # a pure state (c_r) and a mixed qubit (S of the dephased state) are exact
    result = run_cli(["measure", "assistance", "--builtin", "psi2", "--budget", "1"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["method"] == "closed-form"
    assert abs(payload["value"] - 1.0) < 1e-9
    path = tmp_path / "qubit.json"
    path.write_text(state_to_json(random_density((2,), 2, 3)))
    result = run_cli(["measure", "assistance", "--state", str(path), "--budget", "1"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["method"] == "closed-form"


def test_measure_assistance_labels_qutrit_closed_form_and_d4_ascent_optimized(tmp_path):
    # a qutrit's value is S of the dephased state, from the face walk; a
    # mixed state with four nonzero diagonal entries goes to the ascent
    for dims, label in (((3,), "closed-form"), ((4,), "optimized")):
        path = tmp_path / "state.json"
        path.write_text(state_to_json(random_density(dims, dims[0], 0)))
        result = run_cli(["measure", "assistance", "--state", str(path), "--budget", "1"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["method"] == label


def test_measure_assistance_on_large_mixed_state_exits_3():
    # the 81-dimensional (9, 3, 3) merging state is mixed and beyond the search's size limit
    result = run_cli(["measure", "assistance", "--builtin", "merging", "--budget", "1"])
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr.startswith("invariant violation: ")


def test_measure_exit_codes(tmp_path, bell_file):
    # parse failure: missing file
    result = run_cli(["measure", "cr", "--state", str(tmp_path / "nope.json")])
    assert result.exit_code == 2
    # parse failure: both or neither input flags
    result = run_cli(["measure", "cr"])
    assert result.exit_code == 2
    result = run_cli(["measure", "qire", "--state", bell_file])
    assert result.exit_code == 2  # missing split
    # unknown measure name is a usage error
    result = run_cli(["measure", "nope", "--builtin", "bell"])
    assert result.exit_code == 2


def test_builtin_domino_index():
    psi = builtin_state("domino:2")
    s = 1 / math.sqrt(2)
    assert np.allclose(psi.vec, np.kron([1, 0, 0], [s, s, 0]))


# ---------------------------------------------------------------------------
# protocol command


def test_protocol_teleport():
    result = run_cli(["protocol", "teleport", "--trials", "5", "--seed", "0"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["min_fidelity"] >= 1 - 1e-9


def test_protocol_merge_witness():
    result = run_cli(["protocol", "merge-witness"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["verdict"] is True
    assert abs(payload["qire_r_ab"] - 8 / 9) < 1e-9
    assert abs(payload["qire_rb_a"] - 4 / 9) < 1e-9


def test_protocol_discriminate():
    result = run_cli(["protocol", "discriminate", "--index", "4"])
    assert result.exit_code == 0
    assert abs(json.loads(result.stdout)["success_probability"] - 1.0) < 1e-9


def test_protocol_steer_on_qi_builtin(tmp_path):
    from coherlab.cli import state_to_json as dump
    from coherlab.states import random_qi_state

    path = tmp_path / "qi.json"
    path.write_text(dump(random_qi_state((2, 2), 5)))
    result = run_cli(["protocol", "steer", "--state", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["witness_found"] is False


def test_protocol_reductions():
    result = run_cli(["protocol", "sqi-to-si", "--trials", "3", "--seed", "1"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["max_bob_marginal_gap"] < 1e-9
    result = run_cli(["protocol", "ancilla-reduce", "--trials", "3", "--seed", "1"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["max_action_gap"] < 1e-9


# ---------------------------------------------------------------------------
# classify command


def test_classify_domino_channel(tmp_path):
    path = tmp_path / "domino.json"
    path.write_text(channel_to_json(domino_discrimination_channel()))
    result = run_cli(["classify", "--channel", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["separable"] and payload["si"] and payload["sqi"]


def test_classify_parse_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    result = run_cli(["classify", "--channel", str(path)])
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
    "classify-kraus-number-ops": (
        ["classify", "--channel", "{path}"], '{"kind": "kraus", "in_dims": [2], "ops": 5}'
    ),
    "classify-product-null-ops": (
        ["classify", "--channel", "{path}"],
        '{"kind": "product", "in_dims": [[2], [2]], "ops": null}',
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
    "classify-kraus-boolean-out-dims": (
        ["classify", "--channel", "{path}"],
        '{"kind": "kraus", "in_dims": [2], "out_dims": [true, 2], '
        '"ops": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}',
    ),
    "measure-boolean-dims": (
        ["measure", "cr", "--state", "{path}"],
        '{"kind": "density", "dims": [true], "matrix": [[1, 0]]}',
    ),
    "classify-product-boolean-in-dims": (
        ["classify", "--channel", "{path}"],
        '{"kind": "product", "in_dims": [[true], [2]], '
        '"ops": [{"a": [[1, 0]], "b": [[1, 0], [0, 0], [0, 0], [1, 0]]}]}',
    ),
    "measure-empty-dims": (
        ["measure", "cr", "--state", "{path}"],
        '{"kind": "density", "dims": [], "matrix": [[1, 0]]}',
    ),
    "classify-kraus-empty-in-dims": (
        ["classify", "--channel", "{path}"], '{"kind": "kraus", "in_dims": [], "ops": [[[1, 0]]]}'
    ),
    "classify-product-empty-in-dims": (
        ["classify", "--channel", "{path}"],
        '{"kind": "product", "in_dims": [[], []], "ops": [{"a": [[1, 0]], "b": [[1, 0]]}]}',
    ),
    "measure-boolean-entry": (
        ["measure", "cr", "--state", "{path}"],
        '{"kind": "density", "dims": [2], "matrix": [[true, false], [0, 0], [0, 0], [false, 0]]}',
    ),
    "classify-kraus-boolean-entry": (
        ["classify", "--channel", "{path}"],
        '{"kind": "kraus", "in_dims": [2], "ops": [[[true, 0], [0, 0], [0, 0], [1, 0]]]}',
    ),
    "measure-split-outside-state": (
        ["measure", "qire", "--builtin", "bell", "--split", "A=0;B=5"], None
    ),
    "measure-discord-empty-a-side": (
        ["measure", "discord", "--builtin", "bell", "--split", "B=0,1"], None
    ),
    "measure-split-repeats-a-subsystem": (
        ["measure", "qire", "--builtin", "bell", "--split", "A=0;B=1,1"], None
    ),
    "measure-split-repeats-a-side": (
        ["measure", "qire", "--builtin", "bell", "--split", "A=1;A=0;B=1"], None
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
    "steer-empty-builtin": (["protocol", "steer", "--builtin", ""], None),
    "distill-mc-empty-state": (["protocol", "distill-mc", "--state", ""], None),
    "distill-pure-empty-builtin": (["protocol", "distill-pure", "--builtin", ""], None),
}


@pytest.mark.parametrize("args, content", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exits_2_without_traceback(tmp_path, args, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    result = run_cli([arg.format(path=path) for arg in args])
    assert (result.exit_code, result.stdout) == (2, ""), result.exception
    assert result.stderr.startswith("parse error:")


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
def test_non_finite_input_exits_3(tmp_path, args, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    result = run_cli([arg.format(path=path) for arg in args])
    assert (result.exit_code, result.stdout) == (3, ""), result.stderr
    assert result.stderr.startswith("invariant violation:")
    assert "non-finite" in result.stderr


def test_incomplete_kraus_channel_exits_3(tmp_path):
    path = tmp_path / "half.json"
    path.write_text('{"kind": "kraus", "in_dims": [2], "ops": [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]}')
    result = run_cli(["classify", "--channel", str(path)])
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == "invariant violation: completeness residual 7.500e-01 exceeds 1e-09\n"


@pytest.mark.parametrize("args, key", [
    (["measure", "entropy", "--state", "{path}"], "value"),
    (["protocol", "distill-pure", "--builtin", "domino:1"], "bob_dephased_entropy"),
])
def test_zero_entropy_prints_positive_zero(tmp_path, args, key):
    # a pure state's entropy sum is +0.0; its negation once printed as -0.0
    path = tmp_path / "one.json"
    path.write_text('{"kind": "density", "dims": [1], "matrix": [[1, 0]]}')
    result = run_cli([arg.format(path=path) for arg in args])
    assert result.exit_code == 0
    assert f'"{key}": 0.0' in result.stdout and "-0.0" not in result.stdout


# Flag values outside their range: each is a usage error.  The parser's own
# wording varies across Python versions, so only the stream is checked.
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
    # an infinite threshold would call the coherent channel incoherent
    "classify-inf-tol": (["classify", "--channel", os.path.join(GOLDEN, "sqi_channel_seed7.json"),
                          "--tol", "inf"], None),
    "classify-overflowing-tol": (["classify", "--channel", os.path.join(GOLDEN, "sqi_channel_seed7.json"),
                                  "--tol", "1e400"], None),
}


@pytest.mark.parametrize("args, content", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_out_of_range_flag_exits_2_without_traceback(tmp_path, args, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    result = run_cli([arg.format(path=path) for arg in args])
    assert (result.exit_code, result.stdout) == (2, ""), result.stderr
    assert result.exception is None and result.stderr
    assert "Traceback" not in result.stderr


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


def _assert_contract(args, content=""):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        result = run_cli([arg.format(path=path) for arg in args])
    assert result.exception is None, (args, content, result.exception)
    assert result.exit_code in (0, 2, 3, 4), (args, content, result.stderr)
    if result.exit_code in (2, 3):
        assert result.stdout == "", (args, content)
    assert "Traceback" not in result.stdout + result.stderr


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


# Flag values in range, out of range (negative or above 2**64) and, one
# time in four, not integers.  Trial counts stay small: every trial is work.
JUNK = hst.sampled_from(["x", "1.5", "", "1e3", "+3", " 4"])
SEEDS = hst.one_of(hst.integers(-2, 99), hst.integers(-2, 99), hst.integers(-2, 99),
                   hst.sampled_from([2**63, 2**64 - 1, 2**64, 2**70, -2**64])).map(str)
SEEDS_OR_JUNK = hst.one_of(SEEDS, SEEDS, SEEDS, JUNK)
TRIALS = hst.one_of(hst.integers(-2, 70), hst.integers(-2, 70), hst.integers(-2, 70)).map(str) | JUNK
BUILTINS = hst.sampled_from(["bell", "merging", "psi2", "domino:1", "domino:9", "domino:0", "domino:x",
                             " Bell ", "", "nope"])
SOURCES = hst.one_of(hst.just([]), hst.just(["--state", "{path}"]), BUILTINS.map(lambda b: ["--builtin", b]),
                     BUILTINS.map(lambda b: ["--state", "{path}", "--builtin", b]))


@hst.composite
def flag_lists(draw, **values):
    """Each named flag left out or given one drawn value."""
    args = []
    for flag, strategy in values.items():
        value = draw(hst.none() | strategy)
        if value is not None:
            args += ["--" + flag, value]
    return args


@FUZZ
@given(args=flag_lists(format=hst.sampled_from(["csv", "pretty", "json", "xml", ""]), seed=SEEDS_OR_JUNK))
def test_fuzz_reproduce_exit_codes(args):
    _assert_contract(["reproduce"] + args)


@FUZZ
@given(name=hst.sampled_from([*SUITES, "nope"]),
       args=flag_lists(trials=TRIALS, seed=SEEDS_OR_JUNK, replay=SEEDS_OR_JUNK))
def test_fuzz_suite_exit_codes(name, args):
    _assert_contract(["suite", name] + args)


@FUZZ
@given(name=hst.sampled_from(PROTOCOLS),
       args=flag_lists(trials=TRIALS, seed=SEEDS_OR_JUNK, index=hst.integers(-1, 11).map(str) | SEEDS_OR_JUNK))
def test_fuzz_protocol_flags_exit_codes(name, args):
    _assert_contract(["protocol", name] + args)


@FUZZ
@given(name=hst.sampled_from(PROTOCOLS), source=SOURCES, content=state_files())
def test_fuzz_protocol_inputs_exit_codes(name, source, content):
    _assert_contract(["protocol", name] + source, content)


# ---------------------------------------------------------------------------
# reproduce and suite commands


def test_reference_rows_all_pass():
    rows = reference_rows(seed=0)
    names = {r["name"] for r in rows}
    assert {"cr_psi2", "qire_merging_R_AB", "qire_merging_RB_A",
            "domino_completeness_residual", "teleport_min_fidelity_20_random"} <= names
    assert all(r["status"] == "pass" for r in rows)


def test_reference_rows_run_their_repeated_checks_as_stacks(monkeypatch):
    # the 20 teleports are the script's four (A, B) pairs on the stack of
    # all inputs as vectors and the 9 domino inputs their matching pairs as
    # vectors, so no local action is taken and no post-state is validated:
    # the only states are the inputs, the 20 teleport inputs as one stack of
    # vectors; the merge is one product with its 81 x 81 transfer matrix.
    # The merging state is solved on its nine R blocks, so no solve has
    # order 81: the largest is the RB|A split's 27-dim (R, B) blocks
    import coherlab.channels as channels
    import coherlab.linalg as linalg
    import coherlab.measures as measures
    import coherlab.protocols as protocols
    import coherlab.states as states

    orders = []
    local_orders = []  # the order of each apply_local result
    validated = []  # (kind, stack shape) of each validated stack
    apply_local = linalg.apply_local
    density_stack, pure_stack = linalg._density_stack, linalg._pure_stack

    def counted_apply_local(*args, **kwargs):
        out = apply_local(*args, **kwargs)
        local_orders.append(out.shape[-1])
        return out

    def counted_density_stack(mats, *args, **kwargs):
        validated.append(("density", mats.shape))
        return density_stack(mats, *args, **kwargs)

    def counted_pure_stack(vecs, *args, **kwargs):
        validated.append(("pure", vecs.shape))
        return pure_stack(vecs, *args, **kwargs)

    for module in (linalg, channels, protocols):
        monkeypatch.setattr(module, "apply_local", counted_apply_local)
    for module in (linalg, measures, protocols, states):
        for name, counted in (("_density_stack", counted_density_stack), ("_pure_stack", counted_pure_stack)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            orders.append(np.shape(a)[-1])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    reference_rows(seed=0)
    assert local_orders == []
    assert 81 not in orders
    assert max(orders) == 27
    # the Bell density (|phi+> itself was built once at import), the merging
    # state, |psi2> and its density, the 20 teleport inputs, the dephased Bell
    # state
    assert validated == [
        ("density", (1, 4, 4)), ("density", (1, 81, 81)), ("pure", (1, 2)), ("density", (1, 2, 2)),
        ("pure", (20, 8)), ("density", (1, 4, 4))]


def test_corrupted_merge_transfer_fails_reproduce(monkeypatch):
    # the merge output is not validated as a state, so a wrong transfer
    # matrix must show in its residual row, and reproduce must exit nonzero
    import coherlab.protocols as protocols

    corrupted = protocols._merge_transfer() * (1.0 + 1e-6)
    monkeypatch.setattr(protocols, "_merge_transfer", lambda: corrupted)
    rows = {row["name"]: row for row in reference_rows(seed=0)}
    assert rows["merge_simulation_residual"]["value"] > 1e-9
    assert [name for name, row in rows.items() if row["status"] != "pass"] == ["merge_simulation_residual"]
    result = run_cli(["reproduce", "--format", "json"])
    assert result.exit_code == 4


def test_reproduce_csv_format():
    result = run_cli(["reproduce", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "name,value,expected,tolerance,status"
    assert all(line.endswith("pass") for line in lines[1:])


@pytest.mark.parametrize("fmt,seed,name", [
    ("json", 0, "reproduce_json_seed0.json"),
    ("json", 1, "reproduce_json_seed1.json"),
    ("json", 2, "reproduce_json_seed2.json"),
    ("json", 4, "reproduce_json_seed4.json"),
    ("json", 9, "reproduce_json_seed9.json"),
    ("csv", 3, "reproduce_csv_seed3.csv"),
    ("pretty", 0, "reproduce_pretty_seed0.txt"),
])
def test_reproduce_prints_golden_bytes(fmt, seed, name):
    # the files hold the output of an earlier, unoptimized reproduce; a
    # faster route must print the same bytes
    result = run_cli(["reproduce", "--format", fmt, "--seed", str(seed)])
    assert result.exit_code == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert result.stdout == fh.read()


@pytest.mark.parametrize("channel,name", [
    (domino_discrimination_channel, "domino_channel.json"),
    (lambda: random_sqi_channel((2,), (2,), 1, 7).to_product(), "sqi_channel_seed7.json"),
    (lambda: random_sqi_channel((2,), (2,), 2, 7).to_product(), "sqi_channel_2rounds_seed7.json"),
    (lambda: dephasing_channel((2,)), "kraus_dephasing_qubit.json"),
])
def test_product_channel_json_is_golden(channel, name):
    # the product channels' operators, pinned byte for byte
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert channel_to_json(channel()) == fh.read()


@pytest.mark.parametrize("args,name", [
    (["classify", "--channel", os.path.join(GOLDEN, "domino_channel.json")],
     "classify_domino_channel.txt"),
    (["classify", "--channel", os.path.join(GOLDEN, "sqi_channel_seed7.json")],
     "classify_sqi_channel_seed7.txt"),
    (["protocol", "sqi-to-si", "--trials", "20", "--seed", "3"],
     "protocol_sqi_to_si_trials20_seed3.txt"),
    (["protocol", "ancilla-reduce", "--trials", "20", "--seed", "3"],
     "protocol_ancilla_reduce_trials20_seed3.txt"),
    (["protocol", "discriminate", "--index", "4"], "protocol_discriminate_index4.txt"),
    (["protocol", "teleport", "--trials", "20", "--seed", "3"],
     "protocol_teleport_trials20_seed3.txt"),
    (["protocol", "merge-witness"], "protocol_merge_witness.txt"),
    (["classify", "--channel", os.path.join(GOLDEN, "kraus_dephasing_qubit.json")],
     "classify_kraus_dephasing_qubit.txt"),
    # commands whose dephasing, placement or oracle layout moved into linalg
    (["measure", "cr", "--builtin", "merging"], "measure_cr_merging.txt"),
    (["measure", "entropy", "--builtin", "merging"], "measure_entropy_merging.txt"),
    (["measure", "qire", "--builtin", "merging", "--split", "A=0;B=1,2"],
     "measure_qire_merging_a0_b12.txt"),
    (["measure", "discord", "--builtin", "merging", "--split", "A=0;B=1,2"],
     "measure_discord_merging_a0_b12.txt"),
    (["measure", "mutual-info", "--builtin", "merging", "--split", "A=0;B=1,2"],
     "measure_mutual_info_merging_a0_b12.txt"),
    (["measure", "qire", "--builtin", "merging", "--split", "A=0,2;B=1"],
     "measure_qire_merging_a02_b1.txt"),
    (["measure", "assistance", "--builtin", "psi2"], "measure_assistance_psi2.txt"),
    (["protocol", "steer", "--seed", "0"], "protocol_steer_seed0.txt"),
    (["protocol", "distill-mc", "--seed", "0"], "protocol_distill_mc_seed0.txt"),
    # the distillation protocols, whose outcomes are measured as stacks
    (["protocol", "distill-pure", "--seed", "0"], "protocol_distill_pure_seed0.txt"),
    (["protocol", "distill-pure", "--builtin", "bell"], "protocol_distill_pure_bell.txt"),
    (["protocol", "distill-mc", "--builtin", "bell"], "protocol_distill_mc_bell.txt"),
    # a mixed qubit: its value is S of the dephased state on every exact route
    (["measure", "assistance", "--state", "tests/golden/qubit_rank2_seed0.json"],
     "measure_assistance_qubit_rank2_seed0.txt"),
    # pure states, whose densities take the spectrum their rank fixes
    (["measure", "cr", "--builtin", "psi2"], "measure_cr_psi2.txt"),
    (["measure", "qire", "--builtin", "bell", "--split", "A=0;B=1"], "measure_qire_bell_a0_b1.txt"),
    (["measure", "entropy", "--builtin", "domino:4"], "measure_entropy_domino4.txt"),
    # 150 trials run as three stacks (64, 64, 22)
    (["protocol", "teleport", "--trials", "150", "--seed", "3"],
     "protocol_teleport_trials150_seed3.txt"),
    (["protocol", "ancilla-reduce", "--trials", "150", "--seed", "3"],
     "protocol_ancilla_reduce_trials150_seed3.txt"),
    # a non-contiguous A side, whose marginal traces the middle subsystem
    (["measure", "discord", "--builtin", "merging", "--split", "A=0,2;B=1"],
     "measure_discord_merging_a02_b1.txt"),
    (["measure", "mutual-info", "--builtin", "merging", "--split", "A=0,2;B=1"],
     "measure_mutual_info_merging_a02_b1.txt"),
])
def test_product_channel_commands_print_golden_bytes(monkeypatch, args, name):
    # state files are named relative to the repository root, as the CI step
    # runs them
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    result = run_cli(args)
    assert result.exit_code == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert result.stdout == fh.read()


@pytest.mark.parametrize("name", ["monotonicity", "steering", "teleport", "closed-form",
                                  "continuity", "reductions", "chain"])
def test_suite_replay_prints_golden_bytes(name):
    result = run_cli(["suite", name, "--replay", "7"])
    assert result.exit_code == 0
    with open(os.path.join(GOLDEN, f"suite_{name}_replay7.txt"), encoding="utf-8") as fh:
        assert result.stdout == fh.read()


def test_qutrit_assistance_golden_is_the_dephased_entropy(monkeypatch):
    # the golden names its state file relative to the repository root, as
    # the CI step runs it
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    state_file = "tests/golden/qutrit_rank3_seed0.json"
    with open(os.path.join(GOLDEN, "measure_assistance_qutrit_rank3_seed0.txt"), encoding="utf-8") as fh:
        golden = fh.read()
    result = run_cli(["measure", "assistance", "--state", state_file])
    assert result.exit_code == 0
    assert result.stdout == golden
    with open(state_file, encoding="utf-8") as fh:
        rho = state_from_json(fh.read())
    assert np.linalg.matrix_rank(rho.mat) == 3
    diag = rho.mat.diagonal().real
    payload = json.loads(golden)
    assert payload["method"] == "closed-form"
    assert abs(payload["value"] + float((diag * np.log2(diag)).sum())) <= 1e-15


def test_suite_runs_clean():
    for name in ("monotonicity", "steering", "closed-form", "continuity",
                 "reductions", "chain"):
        result = run_cli(["suite", name, "--trials", "5", "--seed", "0"])
        assert result.exit_code == 0, (name, result.stderr)
        assert json.loads(result.stdout)["failures"] == 0


def test_run_suite_reports_counts():
    summary = run_suite("teleport", 3, 0)
    assert summary["trials"] == 3
    assert summary["failures"] == 0
    assert summary["failure_seeds"] == []


def test_suite_failure_lists_seeds_that_fail_again(monkeypatch):
    import coherlab.protocols as pr

    real_reduce = pr._sqi_to_si_stack
    flip = np.array([[0, 1], [1, 0]], dtype=complex)

    def flipped_reduce(a_ops, b_ops):
        # a wrong reduction: the true one followed by a bit flip on B
        reduced_a, reduced_b = real_reduce(a_ops, b_ops)
        return reduced_a, flip @ reduced_b

    monkeypatch.setattr(pr, "_sqi_to_si_stack", flipped_reduce)
    result = run_cli(["suite", "reductions", "--trials", "20", "--seed", "0"])
    assert result.exit_code == 4
    summary = json.loads(result.stdout)
    assert summary["failures"] > 16
    assert len(summary["failure_seeds"]) == 16
    for seed in summary["failure_seeds"]:
        assert not SUITES["reductions"]([np.random.default_rng(seed)])[0]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ParseError, match="unknown suite 'nope'"):
        run_suite("nope", 1, 0)


def test_reproduce_exits_4_on_check_failure(monkeypatch):
    import coherlab.cli as cli_module

    def failing_rows(seed=0):
        return [{"name": "forced", "value": 0.0, "expected": 1.0,
                 "tolerance": 1e-9, "status": "fail"}]

    monkeypatch.setattr(cli_module, "reference_rows", failing_rows)
    result = run_cli(["reproduce", "--format", "csv"])
    assert result.exit_code == 4


def test_protocol_state_path_runs_and_input_flag_is_gone(tmp_path):
    from coherlab.cli import state_to_json as dump
    from coherlab.states import random_pure

    path = tmp_path / "input.json"
    path.write_text(dump(random_pure((2, 2), 3)))
    result = run_cli(["protocol", "distill-pure", "--state", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["protocol"] == "distill-pure"
    result = run_cli(["protocol", "teleport", "--input", "random"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# output policy


def test_out_flag_writes_file_and_stdout_does_not(tmp_path, bell_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    result = run_cli(["measure", "cr", "--state", bell_file])
    assert result.exit_code == 0
    assert set(os.listdir(tmp_path)) == before  # no files without --out
    out = tmp_path / "report.json"
    result = run_cli(["measure", "cr", "--state", bell_file, "--out", str(out)])
    assert result.exit_code == 0
    assert out.exists()
    assert json.loads(out.read_text())["name"] == "cr"


def test_redirected_streams_are_not_kept_alive():
    # every invocation writes to a fresh stdout and stderr; none of them may
    # outlive its call
    def live_string_ios_after(n):
        for _ in range(n):
            assert run_cli(["protocol", "discriminate", "--index", "4"]).exit_code == 0
            assert run_cli(["measure", "cr", "--state", "/nonexistent.json"]).exit_code == 2
        gc.collect()
        return sum(isinstance(obj, io.StringIO) for obj in gc.get_objects())

    after_10 = live_string_ios_after(10)
    assert live_string_ios_after(200) <= after_10


def test_redirected_streams_keep_the_exit_code_contract(tmp_path, monkeypatch):
    import coherlab.cli as cli_module

    with open(os.path.join(GOLDEN, "reproduce_json_seed0.json"), encoding="utf-8") as fh:
        assert run_cli(["reproduce", "--format", "json", "--seed", "0"]) == (0, fh.read(), "", None)

    code, out, err, _ = run_cli(["measure", "cr", "--state", "/nonexistent.json"])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: cannot read /nonexistent.json") and err.endswith("\n")
    assert err.count("\n") == 1

    path = tmp_path / "nan.json"
    path.write_text(NON_FINITE_INPUTS["measure-nan-density"][1])
    code, out, err, _ = run_cli(["measure", "cr", "--state", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith("invariant violation: ") and err.endswith("\n")
    assert err.count("\n") == 1

    def failing_rows(seed=0):
        return [{"name": "forced", "value": 0.0, "expected": 1.0,
                 "tolerance": 1e-9, "status": "fail"}]

    monkeypatch.setattr(cli_module, "reference_rows", failing_rows)
    code, out, err, _ = run_cli(["reproduce", "--format", "csv"])
    assert (code, err) == (4, "")
    assert out == "name,value,expected,tolerance,status\nforced,0,1,1.0000000000000001e-09,fail\n"


OUT_COMMANDS = {
    "measure": ["measure", "cr", "--builtin", "bell"],
    "protocol": ["protocol", "merge-witness"],
    "classify": ["classify", "--channel", "{channel}"],
    "reproduce": ["reproduce"],
    "suite": ["suite", "teleport", "--trials", "2"],
}


@pytest.mark.parametrize("args", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
def test_out_into_a_missing_directory_exits_2_without_traceback(tmp_path, args):
    channel = tmp_path / "channel.json"
    channel.write_text(channel_to_json(domino_discrimination_channel()))
    missing = tmp_path / "missing" / "x.json"
    for out in (str(missing), ""):  # an empty path is no path, not stdout
        result = run_cli([arg.format(channel=channel) for arg in args] + ["--out", out])
        assert (result.exit_code, result.stdout) == (2, ""), result.exception
        assert result.stderr.startswith(f"parse error: cannot write {out}: ")
    assert not missing.parent.exists()


NO_SCIPY_PROBE = """
import sys
import numpy.random  # with the runtime modules of its compiled generators
before = {m.split(".")[0] for m in sys.modules}
from coherlab.cli import main
for args in (["reproduce", "--format", "json", "--seed", "0"], ["suite", "teleport", "--trials", "2"],
             ["measure", "assistance", "--builtin", "psi2"]):
    main(args)
loaded = {m.split(".")[0] for m in sys.modules} - before - set(sys.stdlib_module_names)
print(sorted(loaded - {"coherlab"}), file=sys.stderr)
"""


def test_no_cli_path_imports_scipy():
    """The CLI runs on numpy alone: importing it and running its commands
    loads no module outside the standard library but numpy, so neither
    scipy nor a command-line package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coherlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stderr.strip() == "[]"


NUMPY_RANDOM_PROBE = """
import sys
import {module}
print(sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random.")))
"""


def test_import_loads_no_numpy_random_module():
    """Importing coherlab loads no numpy.random module that importing numpy
    alone does not: generators are built on first use (numpy 1.x loads
    numpy.random with numpy itself, so the baseline is numpy's own)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coherlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = {}
    for module in ("numpy", "coherlab"):
        done = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE.format(module=module)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        loaded[module] = set(json.loads(done.stdout.replace("'", '"')))
    assert loaded["coherlab"] - loaded["numpy"] == set()
