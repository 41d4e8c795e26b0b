"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its stated tolerance and runtime budget."""

import time

import numpy as np

from coherlab import checks
from coherlab.channels import classify, is_incoherent_operator, random_sqi_channel
from coherlab.linalg import partial_trace, von_neumann_entropy
from coherlab.measures import (
    Bipartition,
    coherence_of_assistance,
    dephase,
    qi_relative_entropy,
    qi_relative_entropy_oracle,
)
from coherlab.protocols import (
    assisted_distill_mc,
    discriminate_domino,
    domino_discrimination_channel,
    find_steering_measurement,
)
from coherlab.states import (
    bell_states,
    ket,
    maximally_correlated,
    merging_state,
    random_density,
    random_pure,
    random_qi_state,
)

AB = Bipartition((0,), (1,))


def _report(name: str, elapsed: float, budget: float):
    print(f"[PASS] {name} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.2f}s"


def test_acceptance_merging_state_values():
    t0 = time.perf_counter()
    rho = merging_state()
    val_r_ab = qi_relative_entropy(rho, Bipartition((0,), (1, 2)))
    val_rb_a = qi_relative_entropy(rho, Bipartition((0, 2), (1,)))
    assert abs(val_r_ab - 8.0 / 9.0) <= 1e-9
    assert abs(val_rb_a - 4.0 / 9.0) <= 1e-9
    _report("merging-state values 8/9 and 4/9", time.perf_counter() - t0, 1.0)


def test_acceptance_incoherent_teleportation():
    t0 = time.perf_counter()
    zero2 = np.kron(ket(0, 2), ket(0, 2))
    for phi in bell_states():
        assert is_incoherent_operator(np.outer(zero2, phi.vec.conj()))
    rng = np.random.default_rng(0)
    assert min(checks.teleport_fidelity([rng])[0] for _ in range(100)) >= 1.0 - 1e-9
    _report("incoherent teleportation of 100 Haar-random qubits", time.perf_counter() - t0, 1.0)


def test_acceptance_domino_discrimination():
    t0 = time.perf_counter()
    channel = domino_discrimination_channel()
    assert checks.completeness_residual(channel) <= 1e-9
    flags = classify(channel)
    assert flags.separable_incoherent and flags.separable_quantum_incoherent
    for index in range(1, 10):
        result = discriminate_domino(index)
        assert abs(result.metrics["success_probability"] - 1.0) <= 1e-9
    _report("domino discrimination of all nine states", time.perf_counter() - t0, 1.0)


def test_acceptance_maximally_correlated_distillation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(50):
        coeffs = random_density((3,), int(rng.integers(1, 4)), int(rng.integers(2**63)))
        rho = maximally_correlated(coeffs.mat)
        result = assisted_distill_mc(rho)
        assert result.metrics["max_deviation"] <= 1e-9
    _report("maximally-correlated distillation on 50 qutrit states", time.perf_counter() - t0, 5.0)


def test_acceptance_steering_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    found = 0
    sampled = 0
    while sampled < 100:
        rho = random_density((2, 2), int(rng.integers(1, 5)), int(rng.integers(2**63)))
        if not checks.far_from_qi(rho.mat[None])[0]:
            continue
        sampled += 1
        if find_steering_measurement(rho) is not None:
            found += 1
    assert found == 100
    false_alarms = 0
    for _ in range(100):
        qi = random_qi_state((2, 2), int(rng.integers(2**63)))
        if find_steering_measurement(qi) is not None:
            false_alarms += 1
    assert false_alarms == 0
    _report("steering witness on 100 non-QI and 100 QI states", time.perf_counter() - t0, 10.0)


def test_acceptance_sqi_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(200):
        rho = random_density((2, 2), int(rng.integers(1, 5)), int(rng.integers(2**63)))
        rounds = 1 + trial % 2
        protocol = random_sqi_channel((2,), (2,), rounds, int(rng.integers(2**63)))
        assert checks.qi_increase(rho.mat[None], [protocol])[0] <= 1e-9
    _report("QI relative entropy monotone under 200 random SQI channels", time.perf_counter() - t0, 30.0)


def test_acceptance_reduction_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(100):
        assert checks.sqi_to_si_gap([rng])[0] <= 1e-9
    for _ in range(100):
        assert checks.ancilla_gap([rng])[0] <= 1e-9
    _report("SQI->SI and ancilla reductions, 100 trials each", time.perf_counter() - t0, 30.0)


def test_acceptance_closed_form_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(200):
        assert checks.closed_form_gap([rng])[0] <= 1e-9
    for trial in range(20):
        rho = random_density((2, 2), int(rng.integers(1, 5)), int(rng.integers(2**63)))
        closed = qi_relative_entropy(rho, AB)
        oracle = qi_relative_entropy_oracle(rho, AB, seed=trial)
        assert -1e-4 <= oracle - closed <= 1e-2
    _report("closed form vs direct relative entropy and minimization oracle", time.perf_counter() - t0, 120.0)


def test_acceptance_continuity_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(200):
        rho = random_density((2, 2), int(rng.integers(1, 5)), int(rng.integers(2**63)))
        sigma = random_density((2, 2), int(rng.integers(1, 5)), int(rng.integers(2**63)))
        assert checks.continuity_excess(rho.mat[None], sigma.mat[None])[0] <= 1e-12
    _report("continuity bound dominates on 200 random pairs", time.perf_counter() - t0, 5.0)


def test_acceptance_inequality_chain_spot_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho = random_density((2,), int(rng.integers(1, 3)), int(rng.integers(2**63)))
        value, _ = coherence_of_assistance(rho, budget=2, seed=int(rng.integers(2**31)))
        assert checks._bracket_excesses(rho.mat[None], rho.spectrum[None], rho.dims, [value])[0] <= 1e-9
        bipartite = random_density((2, 2), int(rng.integers(1, 5)), int(rng.integers(2**63)))
        assert qi_relative_entropy(bipartite, AB) >= 0.0
    for _ in range(50):
        psi = random_pure((2, 2), int(rng.integers(2**63)))
        rho_b = partial_trace(psi.to_density(), {1})
        lhs = qi_relative_entropy(psi.to_density(), AB)
        rhs = von_neumann_entropy(dephase(rho_b, (0,)))
        assert abs(lhs - rhs) <= 1e-9
    _report("single-copy inequality chain spot checks", time.perf_counter() - t0, 60.0)
