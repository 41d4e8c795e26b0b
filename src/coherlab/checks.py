"""The paper's randomized checks, each written once.

A trial takes a ``np.random.Generator``, draws its inputs from it and
returns the number its check bounds.  ``coherlab suite``, ``coherlab
protocol``, ``coherlab reproduce`` and the acceptance tests all call these
functions, so a trial on the same generator draws the same inputs wherever
it runs.  ``SUITES`` maps each property-suite name to the test one trial
must pass.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import channels as ch
from . import measures as ms
from . import protocols as pr
from . import states as st
from .linalg import DensityMatrix, partial_trace, relative_entropy, trace_norm, von_neumann_entropy

AB = ms.Bipartition((0,), (1,))


def teleport_fidelity(rng: np.random.Generator, n: int = 1) -> float:
    """Worst branch fidelity of incoherent teleportation of n Haar-random
    qubits (ideally 1), all teleported through one stacked expansion; it
    equals the worst of n single draws from the same generator."""
    psis = [st.random_pure((2,), rng.integers(2**63)) for _ in range(n)]
    return min(pr._teleport_branches(*psis)[3])


def qi_increase(rho: DensityMatrix, protocol: ch.LocalProtocol) -> float:
    """QI relative entropy of rho after minus before an SQI protocol
    (monotonicity: <= 0)."""
    before = ms.qi_relative_entropy(rho, AB)
    return ms.qi_relative_entropy(protocol.apply(rho), AB) - before


def monotonicity_trial(rng: np.random.Generator) -> float:
    """``qi_increase`` under a random one-round SQI channel, on a two-qubit
    state of random rank."""
    rho = st.random_density((2, 2), int(rng.integers(1, 5)), rng.integers(2**63))
    protocol = ch.random_sqi_channel((2,), (2,), 1, rng.integers(2**63))
    return qi_increase(rho, protocol)


def far_from_qi(rho: DensityMatrix) -> bool:
    """Whether rho is farther than 1e-3 in trace norm from its B-dephasing,
    the states the steering witness must find."""
    return trace_norm(rho.mat - ms.dephase(rho, (1,)).mat) > 1e-3


def steering_verdict_ok(rng: np.random.Generator) -> bool:
    """Whether the steering witness decides one random two-qubit state
    right: with even odds a full-rank state, which needs a witness when it
    is far from QI, or a QI state, which must have none."""
    if rng.random() < 0.5:
        rho = st.random_density((2, 2), 4, rng.integers(2**63))
        return not far_from_qi(rho) or pr.find_steering_measurement(rho) is not None
    return pr.find_steering_measurement(st.random_qi_state((2, 2), rng.integers(2**63))) is None


def closed_form_gap(rng: np.random.Generator) -> float:
    """|closed-form QI relative entropy - S(rho || dephase_B(rho))| on a
    full-rank state of random dims (2 or 3 per party)."""
    dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    rho = st.random_density(dims, int(np.prod(dims)), rng.integers(2**63))
    return abs(ms.qi_relative_entropy(rho, AB) - relative_entropy(rho, ms.dephase(rho, (1,))))


def continuity_excess(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Change of the QI relative entropy between two states minus the
    continuity bound (<= 0 when the bound holds).  The bound's warning for
    trace distances above 1/2 is silenced: the bound still holds there."""
    diff = abs(ms.qi_relative_entropy(rho, AB) - ms.qi_relative_entropy(sigma, AB))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return diff - ms.continuity_bound(rho, sigma, AB)


def continuity_trial(rng: np.random.Generator) -> float:
    """``continuity_excess`` on two full-rank two-qubit states."""
    rho = st.random_density((2, 2), 4, rng.integers(2**63))
    sigma = st.random_density((2, 2), 4, rng.integers(2**63))
    return continuity_excess(rho, sigma)


def sqi_to_si_gap(rng: np.random.Generator) -> float:
    """Trace-norm gap between the marginals of the surviving party under a
    random one-round SQI channel and under its SI reduction."""
    channel = ch.random_sqi_channel((2,), (2,), 1, rng.integers(2**63)).to_product()
    reduced = pr.sqi_to_si_reduce(channel)
    rho = st.random_density((2, 2), 4, rng.integers(2**63))
    return trace_norm(
        partial_trace(channel.apply(rho), {1}).mat - partial_trace(reduced.apply(rho), {1}).mat
    )


def ancilla_gap(rng: np.random.Generator) -> float:
    """Trace-norm gap between a random SI channel on (A, A') x (B, B'),
    built from incoherent local instruments, with the ancillas traced out,
    and its ancilla-free reduction."""
    a_instr = ch.random_incoherent_channel((2, 2), 2, rng.integers(2**63))
    b_instr = ch.random_incoherent_channel((2, 2), 2, rng.integers(2**63))
    # one pair per (A outcome, B outcome), in that order
    extended = ch.ProductKrausChannel(np.repeat(a_instr.ops, b_instr.n_outcomes, axis=0),
                                      np.tile(b_instr.ops, (a_instr.n_outcomes, 1, 1)), (2, 2), (2, 2))
    reduced = pr.ancilla_reduce(extended, (2, 2))
    rho = st.random_density((2, 2), 4, rng.integers(2**63))
    big = extended.apply(pr.extend_with_ancillas(rho, (2, 2)))
    return trace_norm(partial_trace(big, {0, 2}).mat - reduced.apply(rho).mat)


def assistance_excess(rho: DensityMatrix, seed: int) -> float:
    """How far the coherence of assistance (budget 2) leaves the bracket
    [c_r(rho), S(dephase(rho))] (<= 0 inside it); S is taken from the
    dephased state's spectrum, apart from the optimizer's blockwise form."""
    value, _ = ms.coherence_of_assistance(rho, budget=2, seed=seed)
    upper = von_neumann_entropy(ms.dephase(rho, (0,)))
    return max(value - upper, ms.c_r(rho) - value)


def chain_trial(rng: np.random.Generator) -> float:
    """``assistance_excess`` on a rank-2 qubit state."""
    rho = st.random_density((2,), 2, rng.integers(2**63))
    return assistance_excess(rho, int(rng.integers(2**63)))


def completeness_residual(channel: ch.ProductKrausChannel) -> float:
    """max |sum_i A_i'A_i (x) B_i'B_i - 1| of a product channel, recomputed
    outside its constructor."""
    gram = sum(np.kron(a.conj().T @ a, b.conj().T @ b) for a, b in channel.pairs)
    return float(np.abs(gram - np.eye(len(gram))).max())


# suite name -> whether one trial on the given generator passes
SUITES = {
    "monotonicity": lambda rng: monotonicity_trial(rng) <= 1e-9,
    "steering": steering_verdict_ok,
    "teleport": lambda rng: teleport_fidelity(rng) >= 1.0 - 1e-9,
    "closed-form": lambda rng: closed_form_gap(rng) <= 1e-9,
    "continuity": lambda rng: continuity_trial(rng) <= 1e-12,
    "reductions": lambda rng: sqi_to_si_gap(rng) <= 1e-9,
    "chain": lambda rng: chain_trial(rng) <= 1e-9,
}
