"""Executable two-party protocols.

Incoherent teleportation, assisted coherence distillation for pure and for
maximally correlated states, the finite steering witness certifying that
non-QI states let Alice steer Bob to a coherent state (its None answer
bounds every B-off-diagonal entry by 4 tol), the SQI-to-SI pinching
reduction, the incoherent-ancilla reduction, domino-state discrimination
and the single-shot state-merging witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    OUTCOME_PRUNE_TOL,
    KrausChannel,
    LocalProtocol,
    ProductKrausChannel,
    ProtocolRound,
    _channel_stacks,
    _classify_stack,
    _kept_leaves,
    _pair_vectors,
    classify,
    is_incoherent_operator,
)
from .exceptions import (
    BadSubsystemError,
    DimensionMismatchError,
    EnsembleMismatchError,
    IncompleteChannelError,
    InternalConsistencyError,
    InvalidStateError,
    NotMaximallyCorrelatedError,
    NotSIError,
    NotSQIError,
)
from .linalg import (
    DensityMatrix,
    PureState,
    apply_local,
    partial_trace,
    trace_norm,
    _density_matrices,
    _density_stack,
    _indexed,
    _partial_traces,
    _pure_stack,
    _rank_one,
    _squared_norms,
    _subsystem_dims,
    _trace_norms,
    _unchecked,
)
from .measures import (
    Bipartition,
    MeasureReport,
    coherence_of_assistance,
    qi_relative_entropy,
    _coherences,
    _dephased_entropy,
)
from .states import (
    SIGMA_X,
    SIGMA_Z,
    _DOMINO,
    bell_states,
    fourier_mc_basis,
    ket,
    merging_state,
)

__all__ = [
    "ProtocolResult",
    "SteeringWitness",
    "MergingWitnessResult",
    "incoherent_teleport",
    "assisted_distill_pure",
    "assisted_distill_mc",
    "find_steering_measurement",
    "sqi_to_si_reduce",
    "ancilla_reduce",
    "domino_discrimination_channel",
    "discriminate_domino",
    "merging_witness",
]


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome ensemble of a protocol run plus named summary metrics.
    ``details`` carries non-scalar artifacts (operators, permutations)."""

    outcomes: tuple[tuple[float, DensityMatrix, tuple], ...]
    metrics: dict[str, float]
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        total = sum(p for p, _, _ in self.outcomes)
        if abs(total - 1.0) > 1e-9:
            raise IncompleteChannelError(f"outcome probabilities sum to {total}, not 1")


@dataclass(frozen=True, eq=False)
class SteeringWitness:
    """An incoherent Kraus operator on Alice's side whose outcome leaves Bob
    in a coherent state with positive probability."""

    kraus_op: np.ndarray
    probability: float
    bob_post_state: DensityMatrix
    bob_coherence: float

    def __post_init__(self):
        if self.probability <= 0.0:
            raise InvalidStateError("steering witness needs positive probability")
        if self.bob_coherence <= 0.0:
            raise InvalidStateError("steering witness needs a coherent post-state")
        if not is_incoherent_operator(self.kraus_op):
            raise InvalidStateError("steering operator must be incoherent")


def _teleport_script() -> LocalProtocol:
    """The LICC teleportation script on (A', A, B): Alice's four operators
    |00><phi_i|, incoherent in her two-qubit basis, then Bob's Pauli
    correction for each outcome."""
    alice_ops = tuple(np.outer(ket(0, 4), phi.vec.conj()) for phi in bell_states())
    alice = KrausChannel(alice_ops, (2, 2), (2, 2))
    corrections = (
        np.eye(2, dtype=complex),
        SIGMA_Z,
        SIGMA_X,
        SIGMA_X @ SIGMA_Z,
    )
    branches = tuple(
        ProtocolRound("B", KrausChannel((corr,), (2,), (2,)), None)
        for corr in corrections
    )
    return LocalProtocol(
        a_dims=(2, 2),
        b_dims=(2,),
        root=ProtocolRound("A", alice, branches),
        incoherent_parties=frozenset({"A", "B"}),
    )


# Neither the shared pair nor the script depends on the input qubit.
_TELEPORT_PAIR = bell_states()[0]
_TELEPORT = _teleport_script()


def _teleport_branches(psi_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, np.ndarray]:
    """Teleport each input qubit of an (n, 2) stack of unit vectors, every
    (A, B) pair of the script's product form acting on the stack of all of
    them as vectors (``channels._pair_vectors``): the unnormalized leaf
    vectors w, their probabilities ||w||^2, input indices and transcripts,
    input by input and depth-first within each input, and Bob's fidelity
    with his leaf's input on each leaf.  The inputs psi x phi+ are the only
    states validated, as one ``linalg._pure_stack``: no density is formed
    and no eigenproblem solved.  Each input's probabilities must sum to 1
    within 1e-9 and a leaf is kept when its probability is > 1e-12, as in
    ``LocalProtocol._leaves``.  With w read as the (A'A, B) matrix of
    rows W_i, Bob's state is sum_i W_i W_i' / p, so his fidelity with psi
    is sum_i |<psi|W_i>|^2 / p."""
    vecs = (psi_vecs[:, :, None] * _TELEPORT_PAIR.vec).reshape(len(psi_vecs), -1)
    _pure_stack(vecs, _TELEPORT.dims)
    a_ops, b_ops, transcripts = _TELEPORT._product_form
    leaves = _pair_vectors(vecs[:, None], a_ops, b_ops)
    leaves, probs, inputs, transcripts = _kept_leaves(leaves, _squared_norms(leaves), transcripts)
    overlaps = leaves.reshape(len(leaves), 4, 2) @ psi_vecs[inputs].conj()[:, :, None]
    fidelities = _squared_norms(overlaps[:, :, 0]) / probs
    return leaves, probs, inputs, transcripts, fidelities


def incoherent_teleport(psi: PureState) -> ProtocolResult:
    """Teleport an unknown qubit using one maximally entangled pair and two
    classical bits, with both parties restricted to incoherent instruments.

    Subsystem order is (A', A, B): A' carries the input, (A, B) the shared
    pair.  Alice's four Kraus operators |00><phi_i| are incoherent in her
    two-qubit basis; Bob's corrections are Pauli operators.  Every branch
    has probability 1/4 and leaves Bob holding the input state exactly.
    The leaves come from ``_teleport_branches`` as vectors w; each leaf
    state is the rank-one density of w / sqrt(p) (``linalg._rank_one``),
    so no eigenproblem is solved.
    """
    if psi.dims != (2,):
        raise DimensionMismatchError("teleportation input must be a single qubit")
    vecs, probs, _, transcripts, fidelities = _teleport_branches(psi.vec[None])
    mats, spectra = _rank_one(vecs / np.sqrt(probs)[:, None], _TELEPORT.dims)
    probs = probs.tolist()
    leaves = list(zip(probs, _density_matrices(mats, spectra, _TELEPORT.dims), transcripts))
    metrics = {
        "min_fidelity": float(fidelities.min()),
        "mean_fidelity": float(np.mean(fidelities)),
        "max_probability_error": max(abs(p - 0.25) for p in probs),
    }
    return ProtocolResult(tuple(leaves), metrics, details={"protocol": _TELEPORT})


def assisted_distill_pure(
    psi: PureState,
    ensemble: list[tuple[float, PureState]] | None = None,
    budget: int = 16,
    seed: int = 0,
) -> ProtocolResult:
    """Single-copy assisted distillation on a bipartite pure state.

    Writes psi = sum_i sqrt(p_i) |e_i>^A |psi_i>^B for the supplied Bob
    ensemble (default: the one found by ``coherence_of_assistance`` on
    Bob's marginal), measures Alice with the incoherent operators
    K_i = |i><e_i| and reports the average post-measurement coherence on
    Bob's side, which equals the ensemble's average coherence.  Bob's
    outcome states, and the ensemble's members, are each validated and
    measured as one stack.
    """
    if len(psi.dims) != 2:
        raise DimensionMismatchError("assisted distillation needs a bipartite pure state")
    da, db = psi.dims
    rho = psi.to_density()
    rho_b = partial_trace(rho, {1})
    if ensemble is None:
        _, ensemble = coherence_of_assistance(rho_b, budget=budget, seed=seed)
    if not ensemble:
        raise EnsembleMismatchError("the supplied ensemble is empty")
    if not all(isinstance(st, PureState) and st.dims == (db,) for _, st in ensemble):
        raise DimensionMismatchError(f"ensemble members must be pure states on Bob's dims ({db},)")
    probs = np.array([p for p, _ in ensemble])
    if not (np.isfinite(probs) & (probs >= 0.0)).all():
        raise EnsembleMismatchError("ensemble weights must be finite and non-negative")
    members = np.array([st.vec for _, st in ensemble])
    gap = np.abs(np.einsum("i,ia,ib->ab", probs, members, members.conj()) - rho_b.mat).max()
    if not gap <= 1e-8:
        raise EnsembleMismatchError(
            f"ensemble average deviates from Bob's state by {gap:.3e} > 1e-8"
        )

    # Schmidt data: psi_ab = sum_k u_k s_k vh_kb.
    u, s, vh = np.linalg.svd(psi.vec.reshape(da, db), full_matrices=False)
    keep = s > 1e-12
    u, s, vh = u[:, keep], s[keep], vh[keep, :]

    # Transition matrix from the Schmidt ensemble to the supplied one;
    # exact ensembles give an isometry, which we enforce by polar correction.
    w = (np.sqrt(probs)[:, None] * (members @ vh.conj().T)) / s[None, :]
    gw, vw = np.linalg.eigh(w.conj().T @ w)
    w = w @ (vw / np.sqrt(np.maximum(gw, 1e-30))) @ vw.conj().T

    # Alice's vectors e_i = u w_i^* as rows, completed with the orthogonal
    # complement of the Schmidt span (those outcomes never fire on psi).
    vecs = np.concatenate([w.conj() @ u.T, np.linalg.qr(u, mode="complete")[0][:, s.size:].T])
    n_out = len(vecs)
    # [i] is |i><e_i|: row i holds the conjugate vector
    instrument = KrausChannel(np.eye(n_out)[:, :, None] * vecs.conj()[:, None], (da,), (n_out,))
    if not instrument.is_incoherent():
        raise InvalidStateError("distillation instrument must be incoherent")

    outcomes = instrument.apply_instrument(rho, at=0)
    total = sum(o.probability for o in outcomes)
    leaves = [(o.probability / total, o.state, (("A", o.outcome),)) for o in outcomes]

    bobs, _ = _partial_traces(np.array([st.mat for _, st, _ in leaves]), (n_out, db), {1})
    bob_cohs = _coherences(bobs, _density_stack(bobs, (db,)), (db,))
    member_cohs = _coherences(*_rank_one(members, (db,)), (db,))
    metrics = {
        "average_coherence": float(sum(p * coh for (p, _, _), coh in zip(leaves, bob_cohs))),
        "supplied_ensemble_average": float(sum(p * coh for (p, _), coh in zip(ensemble, member_cohs))),
        "bob_dephased_entropy": float(
            _dephased_entropy(rho_b.mat[None], rho_b.dims, range(rho_b.n_subsystems))[0]),
    }
    return ProtocolResult(tuple(leaves), metrics, details={"instrument": instrument})


def assisted_distill_mc(rho: DensityMatrix, u: np.ndarray | None = None) -> ProtocolResult:
    """Assisted distillation for states maximally correlated in the
    incoherent basis (optionally twisted by a local unitary on A).

    Alice measures in a mutually orthogonal maximally coherent basis
    (composed with U' when supplied); every outcome leaves Bob with
    coherence S(dephase_B(rho)) - S(rho), and the diagonal unitary mapping
    each outcome to the canonical coefficient state is recorded.  Bob's
    outcome states are validated and measured as one stack.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise NotMaximallyCorrelatedError("state must live on a (d, d) system")
    d = rho.dims[0]
    mat = rho.mat
    if u is not None:
        u = np.asarray(u, dtype=complex)
        mat = apply_local(mat, u.conj().T, after=d)
    # Coefficients on the |ii> subspace must reproduce the state: what is
    # left with their block zeroed is the leakage.
    ii = np.arange(d) * (d + 1)  # rows and columns |ii>
    leak = mat.copy()
    leak[np.ix_(ii, ii)] = 0.0
    residual = trace_norm(leak)
    if residual > 1e-9:
        raise NotMaximallyCorrelatedError(
            f"state leaks off the diagonal subspace by {residual:.3e} > 1e-9"
        )

    basis = np.array([psi.vec for psi in fourier_mc_basis(d)])
    target = qi_relative_entropy(rho, Bipartition((0,), (1,)))
    # [j] is |j><psi_j|, composed with U' when supplied
    ops = np.eye(d)[:, :, None] * basis.conj()[:, None]
    if u is not None:
        ops = ops @ u.conj().T
    instrument = KrausChannel(ops, (d,), (d,))

    outcomes = instrument.apply_instrument(rho, at=0)
    bobs, _ = _partial_traces(np.array([o.state.mat for o in outcomes]), rho.dims, {1})
    coherences = np.array(_coherences(bobs, _density_stack(bobs, (d,)), (d,)))
    phases = np.angle(basis[[o.outcome for o in outcomes]] * math.sqrt(d))
    metrics = {
        "target_coherence": target,
        "min_outcome_coherence": float(coherences.min()),
        "max_outcome_coherence": float(coherences.max()),
        "max_deviation": float(np.abs(coherences - target).max()),
    }
    return ProtocolResult(
        tuple((o.probability, o.state, (("A", o.outcome),)) for o in outcomes),
        metrics,
        details={"incoherent_unitaries": list(np.eye(d) * np.exp(1j * phases)[:, None]),
                 "instrument": instrument},
    )


def _polarization_vectors(da: int) -> np.ndarray:
    """The d_A^2 rows e_a, (e_a + e_c)/sqrt(2) and (e_a + i e_c)/sqrt(2),
    a < c."""
    eye = np.eye(da, dtype=complex)
    a, c = np.triu_indices(da, 1)
    return np.concatenate([eye, (eye[a] + eye[c]) / math.sqrt(2.0),
                           (eye[a] + 1j * eye[c]) / math.sqrt(2.0)])


# Largest off-diagonal modulus of Bob's post-states that the steering
# search reads as zero.
STEERING_TOL = 1e-6


def find_steering_measurement(rho: DensityMatrix, tol: float = STEERING_TOL) -> SteeringWitness | None:
    """Find an incoherent Alice outcome |0><v| that leaves Bob coherent.

    Bob's unnormalized post-state is M(v)_bd = v' X^bd v with
    X^bd_ac = rho_(ab),(cd), and rho is quantum-incoherent exactly when
    X^bd = 0 for every b != d.  By polarization, M at the d_A^2 fixed
    vectors e_a, (e_a + e_c)/sqrt(2) and (e_a + i e_c)/sqrt(2) determines
    every X^bd, so the search is finite: the vector whose M has the largest
    off-diagonal modulus is the witness.  When that modulus is <= ``tol``
    the answer is None, which certifies max_(b != d) |rho_(ab),(cd)| <=
    4 tol.  Otherwise an off-diagonal entry |m| > tol of M, with
    probability p = Tr M <= 1, gives Bob c_r >= 2 (|m|/p)^2 / ln 2 by
    Pinsker's inequality, so the default tol keeps every witness's
    coherence far above rounding.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatchError("steering search needs a bipartite state")
    return _steering_witnesses(rho.mat[None], rho.dims, tol)[0]


def _steering_witnesses(mats: np.ndarray, dims: tuple[int, int],
                        tol: float = STEERING_TOL) -> list[SteeringWitness | None]:
    """``find_steering_measurement`` on each state of a validated
    (n, N, N) stack of (d_A, d_B) states: the post-states at the
    polarization vectors of the whole stack come from one ``einsum``, the
    Bob states of the witnesses are validated as one stack, and their c_r
    come from one stacked dephased-entropy call."""
    da, db = dims
    vecs = _polarization_vectors(da)
    posts = np.einsum("ka,nabcd,kc->nkbd", vecs.conj(), mats.reshape(-1, da, db, da, db), vecs)
    offdiag = np.abs(posts * (1.0 - np.eye(db))).max(axis=(2, 3))
    best = np.argmax(offdiag, axis=1)
    found = np.flatnonzero(~(offdiag.max(axis=1) <= tol))
    witnesses = [None] * len(mats)
    if not found.size:
        return witnesses
    picked = posts[found, best[found]]
    probs = np.trace(picked, axis1=1, axis2=2).real
    bobs = picked / probs[:, None, None]
    spectra = _density_stack(bobs, (db,))
    for i, k, p, bob, coh in zip(found.tolist(), best[found].tolist(), probs.tolist(),
                                 _density_matrices(bobs, spectra, (db,)), _coherences(bobs, spectra, (db,))):
        witnesses[i] = SteeringWitness(np.outer(ket(0, da), vecs[k].conj()), p, bob, coh)
    return witnesses


def _require_class(stacks, flag: int, error: type, message: str) -> None:
    """Classify checked (m, n, out, in) stacks of A and B operators and
    raise ``error`` naming the first channel, as ``linalg._indexed`` names
    it, whose class flag is False: flag 0 is SI and 1 is SQI."""
    ok = _classify_stack(*stacks)[flag]
    if not ok.all():
        raise _indexed(error, "channel", int(np.argmin(ok)), len(ok), message)


def _sqi_to_si_stack(a_ops: np.ndarray, b_ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sqi_to_si_reduce`` on each channel of checked (m, n, out, in)
    stacks: the reductions' stacks, checked by ``_channel_stacks``.  Each
    channel must be SQI and its reduction SI; the first that fails is
    named as ``linalg._indexed`` names it."""
    m, n, d_a_out, d_a_in = a_ops.shape
    _require_class((a_ops, b_ops), 1, NotSQIError, "channel is not separable quantum-incoherent")
    # [k, i, j] is |j><j| A_i of channel k: row j of A_i, every other row zero
    pinched = (a_ops[:, :, None] * np.eye(d_a_out)[:, :, None]).reshape(m, -1, d_a_out, d_a_in)
    reduced = _channel_stacks([pinched, np.repeat(b_ops, d_a_out, axis=1)],
                              [a_ops.shape[2:], b_ops.shape[2:]])
    _require_class(reduced, 0, NotSIError, "pinched channel failed the SI check")
    return reduced


def sqi_to_si_reduce(ch: ProductKrausChannel) -> ProductKrausChannel:
    """Turn an SQI product channel into an SI one with the same reduced
    state on Bob, by pinching Alice's output in the incoherent basis:
    the new pairs are (|j><j| A_i, B_i) over all outcomes i and labels j.
    The one-channel case of ``_sqi_to_si_stack``."""
    a_ops, b_ops = _sqi_to_si_stack(ch.a_ops[None], ch.b_ops[None])
    return _unchecked(ProductKrausChannel, a_ops=a_ops[0], b_ops=b_ops[0], a_in_dims=ch.a_in_dims,
                      b_in_dims=ch.b_in_dims, a_out_dims=ch.a_out_dims, b_out_dims=ch.b_out_dims)


def _ancilla_pair(ancilla_dims) -> tuple[int, int]:
    """``ancilla_dims`` checked as a pair of positive ints, one per party."""
    ancilla_dims = _subsystem_dims(ancilla_dims)
    if len(ancilla_dims) != 2:
        raise BadSubsystemError(f"ancilla dimensions must be one per party, got {ancilla_dims}")
    return ancilla_dims


def _ancilla_stack(a_ops: np.ndarray, b_ops: np.ndarray, a_in_dims: tuple[int, ...],
                   b_in_dims: tuple[int, ...], ancilla_dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``ancilla_reduce`` on each channel of checked (m, n, out, in) stacks
    with input dims ``a_in_dims``, ``b_in_dims`` and a pair of ancilla
    dims checked by ``_ancilla_pair``: the reductions' stacks, checked by
    ``_channel_stacks``.  Each channel and its reduction must be SI; the
    first that fails is named as ``linalg._indexed`` names it."""
    count, n = a_ops.shape[:2]
    _require_class((a_ops, b_ops), 0, NotSIError, "extended channel is not separable incoherent")
    da_anc, db_anc = ancilla_dims
    if len(a_in_dims) < 2 or a_in_dims[-1] != da_anc:
        raise DimensionMismatchError("party A dims must end with the ancilla dimension")
    if len(b_in_dims) < 2 or b_in_dims[-1] != db_anc:
        raise DimensionMismatchError("party B dims must end with the ancilla dimension")
    da = math.prod(a_in_dims) // da_anc
    db = math.prod(b_in_dims) // db_anc
    # [c, k, l] is (1 x <l|) A~_k (1 x |0>) of channel c, and likewise [c, k, m] on B
    a_parts = a_ops.reshape(count, n, da, da_anc, da, da_anc)[..., 0].transpose(0, 1, 3, 2, 4)
    b_parts = b_ops.reshape(count, n, db, db_anc, db, db_anc)[..., 0].transpose(0, 1, 3, 2, 4)
    # one pair per (k, l, m), in that order
    shape = (count, n, da_anc, db_anc)
    reduced = _channel_stacks([
        np.broadcast_to(a_parts[:, :, :, None], shape + (da, da)).reshape(count, -1, da, da),
        np.broadcast_to(b_parts[:, :, None], shape + (db, db)).reshape(count, -1, db, db),
    ], [(da, da), (db, db)])
    _require_class(reduced, 0, NotSIError, "reduced channel failed the SI check")
    return reduced


def ancilla_reduce(ch_tilde: ProductKrausChannel, ancilla_dims: tuple[int, int]) -> ProductKrausChannel:
    """Strip incoherent ancillas off an SI channel.

    ``ch_tilde`` acts on (A, A') x (B, B') with the ancilla as the last
    subsystem of each party, prepared in |0>.  The returned SI channel on
    A x B reproduces Tr_{A'B'}[ch_tilde(rho x |0><0| x |0><0|)] exactly,
    with operator entries A_kl = (1 x <l|) A~_k (1 x |0>) and likewise on B.
    The one-channel case of ``_ancilla_stack``.
    """
    a_in, b_in = ch_tilde.a_in_dims, ch_tilde.b_in_dims
    a_ops, b_ops = _ancilla_stack(ch_tilde.a_ops[None], ch_tilde.b_ops[None], a_in, b_in,
                                  _ancilla_pair(ancilla_dims))
    return _unchecked(ProductKrausChannel, a_ops=a_ops[0], b_ops=b_ops[0], a_in_dims=a_in[:-1],
                      b_in_dims=b_in[:-1], a_out_dims=a_in[:-1], b_out_dims=b_in[:-1])


def _extend_stack(mats: np.ndarray, dims: tuple[int, int], ancilla_dims: tuple[int, int]) -> np.ndarray:
    """``extend_with_ancillas`` on each matrix of an (n, N, N) stack of (A,
    B) states with subsystem dims ``dims`` and a pair of ancilla dims
    checked by ``_ancilla_pair``: the extended matrices, ordered
    (A, A', B, B'), not validated."""
    (da, db), (da_anc, db_anc) = dims, ancilla_dims
    extended = np.zeros((len(mats),) + (da, da_anc, db, db_anc) * 2, dtype=complex)
    # each matrix on the rows and columns whose ancillas are both |0>
    extended[:, :, 0, :, 0, :, 0, :, 0] = mats.reshape(len(mats), da, db, da, db)
    return extended.reshape(len(mats), da * da_anc * db * db_anc, -1)


def extend_with_ancillas(rho: DensityMatrix, ancilla_dims: tuple[int, int]) -> DensityMatrix:
    """Attach |0> ancillas to each party of a bipartite state, ordering the
    result as (A, A', B, B')."""
    if len(rho.dims) != 2:
        raise DimensionMismatchError("ancilla extension expects a bipartite (A, B) state")
    da_anc, db_anc = ancilla_dims = _ancilla_pair(ancilla_dims)
    return DensityMatrix(_extend_stack(rho.mat[None], rho.dims, ancilla_dims)[0],
                         (rho.dims[0], da_anc, rho.dims[1], db_anc))


def domino_discrimination_channel() -> ProductKrausChannel:
    """Separable incoherent channel whose outcome pairs are
    (|i><alpha_i|, |i><beta_i|): it identifies the nine domino states and
    records the result in an incoherent flag on each side."""
    return _DOMINO_CHANNEL


# The channel of the fixed family ``states._DOMINO`` is built and certified once.
# [i] is |i><alpha_i| on A and |i><beta_i| on B: row i holds the conjugate part
_DOMINO_CHANNEL = ProductKrausChannel(
    np.eye(9)[:, :, None] * np.conj(_DOMINO.alpha_parts)[:, None],
    np.eye(9)[:, :, None] * np.conj(_DOMINO.beta_parts)[:, None],
    (3,), (3,), (9,), (9,),
)


def discriminate_domino(input_index: int) -> ProtocolResult:
    """Run the domino discrimination channel on the chosen domino state
    (1-based index).  The matching outcome fires with probability one and
    leaves the flag state |jj>.  The pairs act on the input as a vector
    (``_domino_outcomes``), and each outcome that fires, with probability
    > 1e-12, is the rank-one density of its normalized vector
    (``linalg._rank_one``), so no eigenproblem is solved."""
    if not 1 <= input_index <= 9:
        raise DimensionMismatchError(f"input index must be 1..9, got {input_index}")
    channel = _DOMINO_CHANNEL
    target = input_index - 1
    vecs, probs = _domino_outcomes(_DOMINO.states[target].vec)
    fired = np.flatnonzero(probs > OUTCOME_PRUNE_TOL)
    mats, spectra = _rank_one(vecs[fired] / np.sqrt(probs[fired])[:, None], channel.out_dims)
    outcomes = list(zip(fired.tolist(), probs[fired].tolist()))
    leaves = tuple((p, state, (("AB", k),))
                   for (k, p), state in zip(outcomes, _density_matrices(mats, spectra, channel.out_dims)))
    flags = classify(channel)
    metrics = {
        "success_probability": sum(p for k, p in outcomes if k == target),
        "n_outcomes_fired": float(len(leaves)),
        "si": float(flags.separable_incoherent),
        "sqi": float(flags.separable_quantum_incoherent),
    }
    return ProtocolResult(leaves, metrics, details={"channel": channel})


def _domino_outcomes(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The domino channel's pairs (A_k, B_k) on domino input vectors psi as
    vectors (``channels._pair_vectors``), with no density: the unnormalized
    outcome vectors (A_k x B_k) psi and their probabilities ||.||^2.  One
    (9,) vector meets every pair; the (9, 9) stack of the family meets its
    matching pairs, the k-th pair acting on the k-th state only."""
    out = _pair_vectors(vecs, _DOMINO_CHANNEL.a_ops, _DOMINO_CHANNEL.b_ops)
    return out, _squared_norms(out)


def _domino_success_probabilities() -> np.ndarray:
    """p_k = ||(A_k x B_k) psi_k||^2 for the nine domino states psi_k and
    the channel's matching pairs (A_k, B_k), in family order:
    ``discriminate_domino(k + 1)``'s success probability, through the same
    ``_domino_outcomes``, without its outcome states.  The states are
    ``PureState``s, validated when the family was built."""
    return _domino_outcomes(np.array([psi.vec for psi in _DOMINO.states]))[1]


@dataclass(frozen=True, eq=False)
class MergingWitnessResult:
    """The two QI relative entropies of the merging state, the verdict that
    the R|AB value strictly exceeds the RB|A value, and the residual of the
    explicit SQI merge simulation."""

    qire_r_ab: MeasureReport
    qire_rb_a: MeasureReport
    verdict: bool
    merge_residual: float


# The SQI merge K_i = |alpha_i><alpha_i| x |beta_i>_A' x |0><beta_i|_B,
# (A, B) -> (A, A', B), leaves B in |0>; with B traced out, K_i is
# |alpha_i beta_i><alpha_i beta_i| read as (A, B) -> (A, A'): the projector
# onto the i-th domino state, complete because the family is orthonormal.
_MERGE_TRACED = KrausChannel(np.array([np.outer(psi.vec, psi.vec.conj()) for psi in _DOMINO.states]),
                             (3, 3), (3, 3))


@functools.cache
def _merge_transfer() -> np.ndarray:
    """The traced merge as one read-only 81 x 81 map on an (A, B) block of
    an (R, A, B) state: the natural representation T = sum_l K_l x conj(K_l)
    of the operators that ``_MERGE_TRACED``'s constructor checked, so that
    vec(sum_l K_l X K_l') = T vec(X) on row-major vectorizations (Watrous,
    *The Theory of Quantum Information*, Sec. 2.2).  It is built once, on
    first use rather than at import, so a process that never merges does
    not hold its 0.1 MB."""
    ops = _MERGE_TRACED.ops
    # T[(a, b), (i, j)] = sum_l K_l[a, i] conj(K_l[b, j])
    transfer = np.einsum("lai,lbj->abij", ops, ops.conj()).reshape(81, 81)
    transfer.setflags(write=False)
    return transfer


def _traced_merge(blocks: np.ndarray) -> np.ndarray:
    """``_MERGE_TRACED`` applied to each (A, B) block of an (m, 9, 9)
    stack, such as the (R, R') blocks of an (R, A, B) state with dims
    (9, 3, 3), not validated: the transfer matrix maps the m blocks, as
    columns, in one product."""
    m = len(blocks)
    return (_merge_transfer() @ blocks.reshape(m, 81).T).T.reshape(m, 9, 9)


def merging_witness() -> MergingWitnessResult:
    """Evaluate the single-shot merging witness on the flagged domino
    mixture.

    Computes the QI relative entropy for the R|AB and RB|A splits (8/9 and
    4/9), asserts the first exceeds the second, and simulates the explicit
    SQI merge that moves Bob's share into Alice's new register A'.  On
    (A, A', B) with A' in |0>, the merge acts through the operators
    K_i = |alpha_i><alpha_i| x |beta_i><0|_A' x |0><beta_i|_B, and it
    leaves B in |0>.  With B traced out, K_i is the projector
    |psi_i><psi_i| onto the i-th domino state, read as (A, B) -> (A, A')
    (``_MERGE_TRACED``), so the final (R, A, A') state must reproduce the
    input with B relabeled to A'.  The merge acts on (A, B) alone, and
    linearly, so it maps each (R, R') block of the input on its own.  The
    input's off-diagonal R blocks are exactly zero (``merging_state``
    builds only the diagonal ones; a nonzero entry off them is an internal
    fault), so the output's and the residual's are zero too: the residual
    is block-diagonal over R, and its trace norm r is the sum of the trace
    norms of its nine (R, R) blocks.  Only those nine blocks go through the
    projectors' transfer matrix (``_merge_transfer``), in one product
    (``_traced_merge``): no 243-dim (R, A, A', B) state, no stack of
    post-states and no 81 x 81 SVD is formed.  The output is not validated
    as a state: r against the validated input bounds its hermiticity
    defect by 2r, its trace defect by r and the smallest eigenvalue of its
    Hermitian part from below by -r, as it would for the full residual,
    which has the same trace norm, and ``reproduce`` fails the residual
    above 1e-9.
    """
    rho = merging_state()
    split_r_ab = Bipartition(a=(0,), b=(1, 2))
    split_rb_a = Bipartition(a=(0, 2), b=(1,))
    val_r_ab = qi_relative_entropy(rho, split_r_ab)
    val_rb_a = qi_relative_entropy(rho, split_rb_a)
    report_r_ab = MeasureReport(
        "qi_relative_entropy", val_r_ab, {"state": "merging", "split": "R|AB"}
    )
    report_rb_a = MeasureReport(
        "qi_relative_entropy", val_rb_a, {"state": "merging", "split": "RB|A"}
    )

    diag = rho.mat.reshape(9, 9, 9, 9)[range(9), :, range(9)]  # the (R, R) blocks
    if np.count_nonzero(diag) != np.count_nonzero(rho.mat):
        raise InternalConsistencyError("merging state has a nonzero entry off its R blocks")
    residual = _trace_norms(_traced_merge(diag) - diag).sum()

    return MergingWitnessResult(
        qire_r_ab=report_r_ab,
        qire_rb_a=report_rb_a,
        verdict=bool(val_r_ab > val_rb_a),
        merge_residual=float(residual),
    )
