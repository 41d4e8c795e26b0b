import json
import os

import numpy as np
import pytest

from coherlab import checks
from coherlab.cli import run_suite
from coherlab.exceptions import InvalidStateError
from coherlab.linalg import DensityMatrix, _density_stack
from coherlab.states import _generators, random_density
from conftest import run_cli

# every trial of checks, the suites' and the protocols'
TRIALS = [checks.SUITES[name].trial for name in checks.SUITES] + [checks.ancilla_gap]


@pytest.mark.parametrize("trial", TRIALS, ids=lambda trial: trial.__name__)
def test_stacked_trial_equals_single_draws(trial):
    # n trials on one generator, as one stack and one at a time: the same
    # values bit for bit, and the generator left in the same state
    for seed in range(10):
        stacked_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = trial([stacked_rng] * 20)
        single = np.concatenate([trial([single_rng]) for _ in range(20)])
        assert stacked.shape == (20,)
        assert stacked.tobytes() == single.tobytes()
        assert stacked_rng.integers(2**63) == single_rng.integers(2**63)


def test_suite_stacks_at_seed_zero_give_the_golden_values():
    # each suite's 20-trial stack of run_suite --seed 0, as float.hex; the
    # file was captured when every trial generator came from its own
    # default_rng call
    with open(os.path.join(os.path.dirname(__file__), "golden", "suite_values_seed0.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)
    seeds = np.random.default_rng(0).integers(2**63, size=20).tolist()
    assert seeds == golden["trial_seeds"]
    assert sorted(golden["values"]) == sorted(checks.SUITES)
    for name, suite in checks.SUITES.items():
        values = np.asarray(suite.trial(_generators(seeds)), dtype=float).tolist()
        assert [value.hex() for value in values] == golden["values"][name], name


def test_stacked_trial_reads_each_generator_in_turn():
    rngs = [np.random.default_rng(seed) for seed in range(20)]
    stacked = checks.monotonicity_trial(rngs)
    single = [checks.monotonicity_trial([np.random.default_rng(seed)])[0] for seed in range(20)]
    assert stacked.tolist() == single


def test_reductions_stack_builds_no_channel_per_trial(monkeypatch):
    # the 20 channels and their reductions are compiled, checked and
    # reduced as stacks: no ProductKrausChannel or to_product per trial
    from coherlab.channels import LocalProtocol, ProductKrausChannel

    calls = []
    for cls, name in ((ProductKrausChannel, "__post_init__"), (LocalProtocol, "to_product")):
        original = getattr(cls, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    gaps = checks.sqi_to_si_gap([np.random.default_rng(seed) for seed in range(20)])
    assert gaps.shape == (20,) and (gaps <= 1e-9).all()
    assert calls == []


def test_chain_stack_equals_single_assistance_trials():
    # the reference is the bracket of one coherence_of_assistance call per
    # state: [c_r(rho), S(dephase(rho))]
    from coherlab import measures as ms
    from coherlab.linalg import von_neumann_entropy

    stacked = checks.chain_trial([np.random.default_rng(seed) for seed in range(40)])
    single = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        rho = random_density((2,), 2, rng.integers(2**63))
        value, _ = ms.coherence_of_assistance(rho, budget=2, seed=int(rng.integers(2**63)))
        upper = von_neumann_entropy(ms.dephase(rho, (0,)))
        single.append(max(value - upper, ms.c_r(rho) - value))
    assert stacked.tobytes() == np.array(single).tobytes()


@pytest.mark.parametrize("n", [1, 20, 64])
def test_stack_seeds_drawn_in_one_call_are_the_single_draws(n):
    # run_suite draws a stack's trial seeds with one call: the same seeds,
    # and the generator left in the same state, as n single draws
    stacked_rng, single_rng = np.random.default_rng(n), np.random.default_rng(n)
    assert stacked_rng.integers(2**63, size=n).tolist() == [int(single_rng.integers(2**63)) for _ in range(n)]
    assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


def test_stack_sizes_are_bounded():
    assert checks.stack_sizes(1) == [1]
    assert checks.stack_sizes(checks.MAX_STACK) == [checks.MAX_STACK]
    assert checks.stack_sizes(150) == [64, 64, 22]


def _forced_failures(monkeypatch, trials, seed, failing):
    """Replace the teleport suite by a trial that fails on the generators
    of the trials at the indices ``failing``; returns their seeds, in
    order, and the stack sizes the trial is called with."""
    rng = np.random.default_rng(seed)
    seeds = [int(rng.integers(2**63)) for _ in range(trials)]
    bad = {int(np.random.default_rng(seeds[i]).integers(2**63)) for i in failing}
    sizes = []

    def trial(rngs):
        sizes.append(len(rngs))
        return np.array([0.0 if int(r.integers(2**63)) in bad else 1.0 for r in rngs])

    monkeypatch.setitem(checks.SUITES, "teleport", checks.Suite(trial, lambda v: v >= 0.5))
    return [seeds[i] for i in sorted(failing)], sizes


def test_failure_seeds_cross_stack_boundaries(monkeypatch):
    expected, sizes = _forced_failures(monkeypatch, 150, 4, (0, 63, 64, 130))
    summary = run_suite("teleport", 150, 4)
    assert summary == {"suite": "teleport", "trials": 150, "failures": 4,
                       "failure_seeds": expected}
    assert sizes == [64, 64, 22]


def test_failure_seeds_are_capped_at_16_in_order(monkeypatch):
    failing = range(1, 150, 3)
    expected, _ = _forced_failures(monkeypatch, 150, 5, failing)
    summary = run_suite("teleport", 150, 5)
    assert summary["failures"] == len(failing) == 50
    assert summary["failure_seeds"] == expected[:16]


def test_suite_replay_reruns_one_failure_seed(monkeypatch):
    expected, _ = _forced_failures(monkeypatch, 150, 6, (70,))
    result = run_cli(["suite", "teleport", "--trials", "150", "--seed", "6"])
    assert result.exit_code == 4
    assert json.loads(result.stdout)["failure_seeds"] == expected
    result = run_cli(["suite", "teleport", "--replay", str(expected[0])])
    assert result.exit_code == 4
    assert json.loads(result.stdout) == {"suite": "teleport", "seed": expected[0],
                                         "value": 0.0, "pass": False}
    result = run_cli(["suite", "teleport", "--replay", "7"])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"suite": "teleport", "seed": 7, "value": 1.0, "pass": True}


def test_suite_replay_gives_the_single_trial_value():
    result = run_cli(["suite", "closed-form", "--replay", "11"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["value"] == checks.closed_form_gap([np.random.default_rng(11)])[0]
    assert payload["pass"] is True
    result = run_cli(["suite", "steering", "--replay", "11"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["value"] is True


def _break(mat, check):
    mat = mat.copy()
    if check == "finite":
        mat[0, 1] = np.nan
    elif check == "hermiticity":
        mat[0, 1] += 1e-3
    elif check == "trace":
        mat *= 1.01
    else:
        mat[0, 0] -= 0.9
        mat[3, 3] += 0.9
    return mat


@pytest.mark.parametrize("check,message", [
    ("finite", "matrix has a non-finite"),
    ("hermiticity", "hermiticity violated"),
    ("trace", "unit trace violated"),
    ("positivity", "positivity violated"),
])
@pytest.mark.parametrize("k", [0, 3, 5])
def test_density_stack_names_the_first_failing_state(check, message, k):
    mats = np.stack([random_density((2, 2), 4, seed).mat for seed in range(6)])
    mats[k] = _break(mats[k], check)
    if k < 5:
        mats[5] = _break(mats[5], check)
    with pytest.raises(InvalidStateError) as single:
        DensityMatrix(mats[k], (2, 2))
    assert str(single.value).startswith(message)
    with pytest.raises(InvalidStateError) as stacked:
        _density_stack(mats, (2, 2))
    assert str(stacked.value) == f"state {k}: {single.value}"
    with pytest.raises(InvalidStateError) as alone:
        _density_stack(mats[k:k + 1], (2, 2))
    assert str(alone.value) == str(single.value)


def test_density_stack_returns_the_single_spectra():
    mats = np.stack([random_density((3, 3), rank, rank).mat for rank in range(1, 10)])
    spectra = _density_stack(mats, (3, 3))
    for mat, spectrum in zip(mats, spectra):
        assert spectrum.tobytes() == DensityMatrix(mat, (3, 3)).spectrum.tobytes()


def _kron_residual(channel):
    # the per-pair np.kron sum that completeness_residual replaced
    gram = sum(np.kron(a.conj().T @ a, b.conj().T @ b) for a, b in channel.pairs)
    return float(np.abs(gram - np.eye(len(gram))).max())


def _random_product_channels():
    from coherlab.channels import ProductKrausChannel, random_instrument, random_incoherent_channel

    for seed in range(6):
        a = random_instrument((2,), 3, seed)
        b = random_incoherent_channel((3,), 2, seed + 100)
        # one pair per (A outcome, B outcome)
        pairs = [(x, y) for x in a.ops for y in b.ops]
        yield ProductKrausChannel(*zip(*pairs), (2,), (3,))


def test_completeness_residual_equals_the_kron_sum():
    from coherlab.protocols import domino_discrimination_channel

    for channel in [domino_discrimination_channel(), *_random_product_channels()]:
        residual = checks.completeness_residual(channel)
        assert abs(residual - _kron_residual(channel)) <= 1e-15
        assert residual <= 1e-9


def test_completeness_residual_sees_a_corrupted_channel():
    # a channel wrapped past its constructor's completeness check
    from coherlab.channels import ProductKrausChannel
    from coherlab.linalg import _unchecked
    from coherlab.protocols import domino_discrimination_channel

    domino = domino_discrimination_channel()
    channels = [domino, *_random_product_channels()]
    for channel in channels:
        corrupted = _unchecked(ProductKrausChannel, a_ops=channel.a_ops * (1.0 + 1e-6), b_ops=channel.b_ops,
                               a_in_dims=channel.a_in_dims, b_in_dims=channel.b_in_dims,
                               a_out_dims=channel.a_out_dims, b_out_dims=channel.b_out_dims)
        assert checks.completeness_residual(corrupted) > 1e-9
        assert abs(checks.completeness_residual(corrupted) - _kron_residual(corrupted)) <= 1e-15
    dropped = _unchecked(ProductKrausChannel, a_ops=domino.a_ops[1:], b_ops=domino.b_ops[1:],
                         a_in_dims=(3,), b_in_dims=(3,), a_out_dims=(9,), b_out_dims=(9,))
    assert checks.completeness_residual(dropped) > 1e-9
