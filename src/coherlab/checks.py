"""The paper's randomized checks, each written once, as stacks.

A trial takes a sequence of ``np.random.Generator`` and returns one value
per generator, the number its check bounds.  It draws the inputs of each
trial from that trial's generator, in the order a single trial draws them,
so a trial on ``[rng] * n`` draws exactly what n trials on ``[rng]`` draw,
and the n = 1 call is one trial.  The drawn states and every state a trial
computes are then validated, measured and applied as stacks, in batched
calls: each state still passes all four checks of a ``DensityMatrix``
(``linalg._density_stack``), and each vector, drawn or a pure input kept
as a vector (teleportation's psi x phi+, which crosses its channel as a
vector and never becomes a density), the unit-norm check of a
``PureState`` (``linalg._pure_stack``), which passes exactly when its
density would; the values equal those of n single trials.  The random
states, scripts and instruments of a stack are drawn as stacks too
(``states._random_density_mats``, ``channels._random_scripts``,
``channels._random_incoherent_channels``): each from its own seed, as a
single trial names it, on generators built by one batched seeding
(``states._generators``) per trial stack, one for all the kinds of input
a trial draws.  Per seed only the generator calls run, each filling that
seed's slab of a preallocated stack; the inputs are then assembled,
normalized, completed and checked once per stack, in batched calls.
A helper that takes states takes the stack of their matrices and
validates every state it reads.  ``coherlab suite``, ``coherlab
protocol``, ``coherlab reproduce`` and the acceptance tests all call these
functions; the CLI runs any number of trials in consecutive stacks of at
most ``MAX_STACK`` (``stack_sizes``), so memory stays bounded.  ``SUITES``
maps each property-suite name to its trial and the test each value must pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from . import channels as ch
from . import measures as ms
from . import protocols as pr
from . import states as st
from .linalg import (
    _density_stack,
    _entropies,
    _partial_traces,
    _relative_entropies,
    _trace_norms,
)

AB = ms.Bipartition((0,), (1,))
QUBITS = (2, 2)

# Largest number of trials run as one stack.
MAX_STACK = 64

Generators = Sequence[np.random.Generator]


def stack_sizes(trials: int) -> list[int]:
    """Sizes of the consecutive stacks, of at most MAX_STACK trials each,
    that ``trials`` trials run in."""
    return [min(MAX_STACK, trials - start) for start in range(0, trials, MAX_STACK)]


def teleport_fidelity(rngs: Generators) -> np.ndarray:
    """Worst branch fidelity of incoherent teleportation of a Haar-random
    qubit (ideally 1), per generator.  The qubits are drawn as an (n, 2)
    stack of vectors, each as ``random_pure`` draws it, and teleported as
    vectors through one stacked expansion (``protocols._teleport_branches``),
    which validates only the n inputs psi x phi+, as one
    ``linalg._pure_stack``, and solves no eigenproblem."""
    vecs = st._random_pure_vecs((2,), [rng.integers(2**63) for rng in rngs])
    _, _, inputs, _, fidelities = pr._teleport_branches(vecs)
    worst = np.full(len(vecs), np.inf)
    np.minimum.at(worst, inputs, fidelities)
    return worst


def qi_increase(mats: np.ndarray, protocols: Sequence[ch.LocalProtocol]) -> np.ndarray:
    """QI relative entropy after minus before an SQI protocol
    (monotonicity: <= 0), ``protocols[i]`` run on the two-party state
    ``mats[i]``.  The protocols share one shape, so each round is stepped
    once on the whole stack; the inputs and the outputs are validated as
    one stack each."""
    dims = protocols[0].dims
    spectra = _density_stack(mats, dims)
    outs = ch._outputs(protocols, mats, dims)
    before = ms._qi_relative_entropies(mats, spectra, dims, AB)
    return ms._qi_relative_entropies(outs, _density_stack(outs, dims), dims, AB) - before


def monotonicity_trial(rngs: Generators) -> np.ndarray:
    """``qi_increase`` under a random one-round SQI channel, on a two-qubit
    state of random rank."""
    draws = [(int(rng.integers(1, 5)), rng.integers(2**63), rng.integers(2**63)) for rng in rngs]
    # the states' and the scripts' generators built as one stack
    state_rngs = st._generators([seed for _, seed, _ in draws] + [seed for _, _, seed in draws])
    mats = st._random_density_mats(QUBITS, [rank for rank, _, _ in draws], state_rngs[:len(draws)])
    protocols = ch._random_scripts((2,), (2,), 1, state_rngs[len(draws):], incoherent_a=False, n_outcomes=2)
    return qi_increase(mats, protocols)


def far_from_qi(mats: np.ndarray) -> np.ndarray:
    """Whether each two-qubit state of a stack is farther than 1e-3 in trace
    norm from its B-dephasing, the states the steering witness must find.
    The states and their dephasings are validated as one stack each."""
    _density_stack(mats, QUBITS)
    dephased = ms._dephase_stack(mats, QUBITS, (1,))
    _density_stack(dephased, QUBITS)
    return _trace_norms(mats - dephased) > 1e-3


def steering_verdict_ok(rngs: Generators) -> np.ndarray:
    """Whether the steering witness decides a random two-qubit state right:
    with even odds a full-rank state, which needs a witness when it is far
    from QI, or a QI state, which must have none.  A full-rank state near
    QI is not searched."""
    draws = [(rng.random() < 0.5, rng.integers(2**63)) for rng in rngs]
    full = np.array([is_full for is_full, _ in draws], dtype=bool)
    # both kinds of state drawn from generators built as one stack
    state_rngs = st._generators([seed for _, seed in draws])
    mats = np.empty((len(draws), 4, 4), dtype=complex)
    mats[full] = st._random_density_mats(QUBITS, 4, list(compress(state_rngs, full)))
    mats[~full] = st._random_qi_mats(QUBITS, list(compress(state_rngs, ~full)))
    # the full-rank states are validated by far_from_qi, the QI states here
    searched = ~full
    searched[full] = far_from_qi(mats[full])
    _density_stack(mats[~full], QUBITS)
    found = np.zeros(len(draws), dtype=bool)
    found[searched] = [w is not None for w in pr._steering_witnesses(mats[searched], QUBITS)]
    return np.where(full, found | ~searched, ~found)


def closed_form_gap(rngs: Generators) -> np.ndarray:
    """|closed-form QI relative entropy - S(rho || dephase_B(rho))| on a
    full-rank state of random dims (2 or 3 per party).  The trials are
    stacked by the dims they draw; each stack's states and their
    dephasings are validated as one stack each."""
    draws = [((int(rng.integers(2, 4)), int(rng.integers(2, 4))), rng.integers(2**63)) for rng in rngs]
    # the states of every dims are drawn from generators built as one stack
    state_rngs = st._generators([seed for _, seed in draws])
    gaps = np.empty(len(draws))
    for dims in sorted({d for d, _ in draws}):
        group = [i for i, (d, _) in enumerate(draws) if d == dims]
        mats = st._random_density_mats(dims, math.prod(dims), [state_rngs[i] for i in group])
        spectra = _density_stack(mats, dims)
        dephased = ms._dephase_stack(mats, dims, (1,))
        _density_stack(dephased, dims)
        gaps[group] = np.abs(ms._qi_relative_entropies(mats, spectra, dims, AB)
                             - _relative_entropies(mats, spectra, dephased))
    return gaps


def continuity_excess(rho_mats: np.ndarray, sigma_mats: np.ndarray) -> np.ndarray:
    """Change of the QI relative entropy between paired two-qubit states
    minus the continuity bound (<= 0 where the bound holds).  The bound is
    taken for any trace distance: above 1/2 it still holds."""
    n = len(rho_mats)
    mats = np.concatenate([rho_mats, sigma_mats])
    qi = ms._qi_relative_entropies(mats, _density_stack(mats, QUBITS), QUBITS, AB)
    distances = _trace_norms(rho_mats - sigma_mats) / 2.0
    bounds = [ms._continuity_bound(t, math.prod(QUBITS)) for t in distances]
    return np.abs(qi[:n] - qi[n:]) - bounds


def continuity_trial(rngs: Generators) -> np.ndarray:
    """``continuity_excess`` on two full-rank two-qubit states."""
    seeds = [(rng.integers(2**63), rng.integers(2**63)) for rng in rngs]
    mats = st._random_density_mats(QUBITS, 4, [rho for rho, _ in seeds] + [sigma for _, sigma in seeds])
    return continuity_excess(*np.split(mats, 2))


def _apply(a_ops: np.ndarray, b_ops: np.ndarray, mats: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """The channel of the i-th pair of (m, n, out, in) stacks applied to
    mats[i], the outputs, of dims ``dims``, validated as one stack."""
    outs = ch._pair_posts(mats[:, None], a_ops, b_ops).sum(axis=1)
    _density_stack(outs, dims)
    return outs


def _marginals(mats: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """The ``keep`` marginals of a stack of states, validated as one stack."""
    marginals, marginal_dims = _partial_traces(mats, dims, keep)
    _density_stack(marginals, marginal_dims)
    return marginals


def sqi_to_si_gap(rngs: Generators) -> np.ndarray:
    """Trace-norm gap between the marginals of the surviving party under a
    random one-round SQI channel and under its SI reduction.  The scripts
    are compiled, checked and reduced as one stack each."""
    seeds = [(rng.integers(2**63), rng.integers(2**63)) for rng in rngs]
    # the scripts' and the states' generators built as one stack
    script_rngs = st._generators([seed for seed, _ in seeds] + [seed for _, seed in seeds])
    scripts = ch._random_scripts((2,), (2,), 1, script_rngs[:len(seeds)], incoherent_a=False, n_outcomes=2)
    a_ops, b_ops, _ = ch._products(scripts)
    channels = ch._channel_stacks([a_ops, b_ops], [(2, 2), (2, 2)])
    reduced = pr._sqi_to_si_stack(*channels)
    mats = st._random_density_mats(QUBITS, 4, script_rngs[len(seeds):])
    _density_stack(mats, QUBITS)
    outs = np.concatenate([_apply(*channels, mats, QUBITS), _apply(*reduced, mats, QUBITS)])
    bobs = _marginals(outs, QUBITS, {1})
    return _trace_norms(bobs[:len(mats)] - bobs[len(mats):])


def ancilla_gap(rngs: Generators) -> np.ndarray:
    """Trace-norm gap between a random SI channel on (A, A') x (B, B'),
    built from incoherent local instruments, with the ancillas traced out,
    and its ancilla-free reduction.  The A and B instruments are drawn as
    one stack each, the channels are checked and reduced as one stack, and
    the input states and their extensions by the ancillas are validated
    as one stack each."""
    seeds = [(rng.integers(2**63), rng.integers(2**63), rng.integers(2**63)) for rng in rngs]
    # the A, B and state generators built as one stack
    n = len(seeds)
    draw_rngs = st._generators([seed for column in zip(*seeds) for seed in column])
    a_instrs = ch._random_incoherent_channels((2, 2), 2, draw_rngs[:n])
    b_instrs = ch._random_incoherent_channels((2, 2), 2, draw_rngs[n:2 * n])
    a_ops, b_ops = (np.stack([instr.ops for instr in instrs]) for instrs in (a_instrs, b_instrs))
    # one pair per (A outcome, B outcome), in that order
    extended = ch._channel_stacks([np.repeat(a_ops, b_ops.shape[1], axis=1),
                                   np.tile(b_ops, (1, a_ops.shape[1], 1, 1))], [(4, 4), (4, 4)])
    reduced = pr._ancilla_stack(*extended, (2, 2), (2, 2), (2, 2))
    rhos = st._random_density_mats(QUBITS, 4, draw_rngs[2 * n:])
    _density_stack(rhos, QUBITS)
    bigs = pr._extend_stack(rhos, QUBITS, (2, 2))
    _density_stack(bigs, (2, 2, 2, 2))
    kept = _marginals(_apply(*extended, bigs, (2, 2, 2, 2)), (2, 2, 2, 2), {0, 2})
    return _trace_norms(kept - _apply(*reduced, rhos, QUBITS))


def _bracket_excesses(mats: np.ndarray, spectra: np.ndarray, dims: tuple[int, ...], values) -> np.ndarray:
    """How far each value leaves its state's bracket [c_r(rho),
    S(dephase(rho, (0,)))] (<= 0 inside it), for a validated stack; S is
    taken from the dephased states' spectra, validated as one stack."""
    uppers = _entropies(_density_stack(ms._dephase_stack(mats, dims, (0,)), dims))
    lowers = ms._coherences(mats, spectra, dims)
    return np.array([max(value - upper, lower - value)
                     for value, upper, lower in zip(values, uppers.tolist(), lowers)])


def chain_trial(rngs: Generators) -> np.ndarray:
    """How far the coherence of assistance (budget 2) of a rank-2 qubit
    state leaves the bracket [c_r(rho), S(dephase(rho))] (<= 0 inside it):
    the states are validated, and the values and bracket ends computed, as
    stacks; each state's solver seed is drawn from its own generator."""
    draws = [(rng.integers(2**63), rng.integers(2**63)) for rng in rngs]
    mats = st._random_density_mats((2,), 2, [seed for seed, _ in draws])
    spectra = _density_stack(mats, (2,))
    values = ms._assistances(mats, spectra, (2,), 2, [int(seed) for _, seed in draws])[0]
    return _bracket_excesses(mats, spectra, (2,), values)


def completeness_residual(channel: ch.ProductKrausChannel) -> float:
    """max |sum_i A_i'A_i (x) B_i'B_i - 1| of a product channel, recomputed
    outside its constructor: the pairs' Grams A_i'A_i and B_i'B_i as two
    stacks, and their Kronecker products summed over i in one ``einsum``,
    indexed ((a, b), (c, d)), with no per-pair ``np.kron``."""
    a, b = ch._grams(channel.a_ops), ch._grams(channel.b_ops)
    gram = np.einsum("nac,nbd->abcd", a, b).reshape(a.shape[-1] * b.shape[-1], -1)
    return float(np.abs(gram - np.eye(len(gram))).max())


@dataclass(frozen=True)
class Suite:
    """A property suite: its trial, and the test its values must pass.
    Called on generators, it gives one pass/fail per generator."""

    trial: Callable[[Generators], np.ndarray]
    passes: Callable[[np.ndarray], np.ndarray]

    def __call__(self, rngs: Generators) -> np.ndarray:
        return self.passes(self.trial(rngs))


SUITES = {
    "monotonicity": Suite(monotonicity_trial, lambda v: v <= 1e-9),
    "steering": Suite(steering_verdict_ok, lambda v: v),
    "teleport": Suite(teleport_fidelity, lambda v: v >= 1.0 - 1e-9),
    "closed-form": Suite(closed_form_gap, lambda v: v <= 1e-9),
    "continuity": Suite(continuity_trial, lambda v: v <= 1e-12),
    "reductions": Suite(sqi_to_si_gap, lambda v: v <= 1e-9),
    "chain": Suite(chain_trial, lambda v: v <= 1e-9),
}
