import inspect
import math
import warnings

import numpy as np
import pytest

from coherlab.channels import (
    ProductKrausChannel,
    classify,
    is_incoherent_operator,
    random_incoherent_channel,
    random_licc_protocol,
    random_sqi_channel,
)
from coherlab.exceptions import (
    BadSubsystemError,
    DimensionMismatchError,
    EnsembleMismatchError,
    InternalConsistencyError,
    NotMaximallyCorrelatedError,
    NotSIError,
    NotSQIError,
)
from coherlab.linalg import (
    DensityMatrix,
    PureState,
    apply_local,
    partial_trace,
    permute_subsystems,
    trace_norm,
    von_neumann_entropy,
)
from coherlab.measures import Bipartition, c_r, coherence_of_assistance, dephase
from coherlab.protocols import (
    ancilla_reduce,
    assisted_distill_mc,
    assisted_distill_pure,
    discriminate_domino,
    domino_discrimination_channel,
    extend_with_ancillas,
    find_steering_measurement,
    incoherent_teleport,
    merging_witness,
    sqi_to_si_reduce,
    _MERGE_TRACED,
    _extend_stack,
    _teleport_branches,
)
from coherlab.states import (
    bell_states,
    domino_states,
    fourier_mc_basis,
    ket,
    maximally_coherent,
    maximally_correlated,
    merging_state,
    random_density,
    random_pure,
    random_qi_state,
    random_unitary,
)

AB = Bipartition((0,), (1,))


def random_extended_si(rng):
    a_instr = random_incoherent_channel((2, 2), 2, int(rng.integers(2**63)))
    b_instr = random_incoherent_channel((2, 2), 2, int(rng.integers(2**63)))
    pairs = [(a, b) for a in a_instr.ops for b in b_instr.ops]
    return ProductKrausChannel(*zip(*pairs), (2, 2), (2, 2))


# ---------------------------------------------------------------------------
# teleportation


def test_teleport_incoherent_input():
    result = incoherent_teleport(PureState(np.array([1.0, 0.0]), (2,)))
    assert result.metrics["min_fidelity"] > 1 - 1e-12
    for _, state, _ in result.outcomes:
        bob = partial_trace(state, {2})
        assert abs(bob.mat[0, 0].real - 1.0) < 1e-12


def test_teleport_psi2():
    result = incoherent_teleport(maximally_coherent(2))
    assert result.metrics["min_fidelity"] > 1 - 1e-9
    assert result.metrics["max_probability_error"] < 1e-9


def test_teleport_alice_operators_incoherent():
    zero2 = np.kron(ket(0, 2), ket(0, 2))
    for phi in bell_states():
        assert is_incoherent_operator(np.outer(zero2, phi.vec.conj()))


def test_teleport_100_haar_random_qubits():
    rng = np.random.default_rng(0)
    worst = 1.0
    for _ in range(100):
        psi = random_pure((2,), int(rng.integers(2**63)))
        result = incoherent_teleport(psi)
        worst = min(worst, result.metrics["min_fidelity"])
    assert worst >= 1 - 1e-9


def test_teleport_total_channel_is_identity_on_operator_basis():
    # Average over branches acts as the identity on a spanning set of
    # qubit states.
    spanning = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / math.sqrt(2),
        np.array([1.0, 1.0j]) / math.sqrt(2),
    ]
    for vec in spanning:
        psi = PureState(vec, (2,))
        result = incoherent_teleport(psi)
        avg = sum(p * partial_trace(state, {2}).mat for p, state, _ in result.outcomes)
        assert np.abs(avg - np.outer(vec, vec.conj())).max() < 1e-10


def test_teleport_trial_builds_only_its_input_state(monkeypatch):
    # the inputs psi x phi+ are validated as one stack of vectors and
    # teleported as vectors: no density is validated, no eigenproblem is
    # solved and no local action on a matrix is taken
    import coherlab.channels as channels
    import coherlab.checks as checks
    import coherlab.linalg as linalg
    import coherlab.protocols as protocols
    import coherlab.states as states

    calls = {"bell": 0, "pure": [], "density": 0, "eig": 0, "apply_local": 0}

    def counted_bell(fn):
        def wrapper(*args, **kwargs):
            calls["bell"] += 1
            return fn(*args, **kwargs)
        return wrapper

    pure_stack, density_stack, apply_local_ = linalg._pure_stack, linalg._density_stack, linalg.apply_local

    def counted_pure_stack(vecs, dims):
        calls["pure"].append(vecs.shape)
        return pure_stack(vecs, dims)

    def counted_density_stack(mats, dims, *args, **kwargs):
        # every state validated, one at a time or as a stack
        calls["density"] += len(mats)
        return density_stack(mats, dims, *args, **kwargs)

    def counted_apply_local(*args, **kwargs):
        calls["apply_local"] += 1
        return apply_local_(*args, **kwargs)

    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            calls["eig"] += 1
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setattr(protocols, "bell_states", counted_bell(protocols.bell_states))
    monkeypatch.setattr(states, "bell_states", counted_bell(states.bell_states))
    for module in (linalg, protocols, checks):
        if hasattr(module, "_pure_stack"):
            monkeypatch.setattr(module, "_pure_stack", counted_pure_stack)
    for module in (linalg, protocols, checks):
        monkeypatch.setattr(module, "_density_stack", counted_density_stack)
    for module in (linalg, channels, protocols):
        monkeypatch.setattr(module, "apply_local", counted_apply_local)
    for n in (1, 20):
        calls.update(pure=[], density=0, eig=0, apply_local=0)
        assert (checks.teleport_fidelity([np.random.default_rng(7)] * n) >= 1 - 1e-9).all()
        assert calls == {"bell": 0, "pure": [(n, 8)], "density": 0, "eig": 0, "apply_local": 0}


def test_teleport_branches_equal_the_kron_and_per_leaf_routes():
    # the broadcast inputs and the batched leaves against np.kron per input
    # and one A Psi B^T per leaf: leaf vectors, probabilities and
    # fidelities bit for bit; and the fidelities within 1e-15 of the
    # density route (psi psi' through the product form's post-states,
    # Bob's marginal by partial trace)
    from coherlab.channels import _pair_posts
    from coherlab.linalg import _squared_norms
    from coherlab.protocols import _TELEPORT

    pair = bell_states()[0]
    a_ops, b_ops, transcripts = _TELEPORT._product_form
    for n in (1, 20, 64):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            psis = [random_pure((2,), int(rng.integers(2**63))) for _ in range(n)]
            leaves, probs, inputs, leaf_transcripts, fidelities = _teleport_branches(
                np.stack([psi.vec for psi in psis]))
            vecs = [np.kron(psi.vec, pair.vec) for psi in psis]
            reference = [(k, i, a @ vecs[k].reshape(4, 2) @ b.T)
                         for k in range(n) for i, (a, b) in enumerate(zip(a_ops, b_ops))]
            assert inputs.tolist() == [k for k, _, _ in reference]
            assert leaf_transcripts == [transcripts[i] for _, i, _ in reference]
            assert leaves.tobytes() == np.stack([w.reshape(-1) for _, _, w in reference]).tobytes()
            ref_probs = np.array([_squared_norms(w.reshape(-1)) for _, _, w in reference])
            assert probs.tobytes() == ref_probs.tobytes()
            ref_fidelities = np.array([_squared_norms((w @ psis[k].vec.conj()[:, None])[:, 0]) / p
                                       for (k, _, w), p in zip(reference, ref_probs.tolist())])
            assert fidelities.tobytes() == ref_fidelities.tobytes()

            rhos = np.stack([np.outer(v, v.conj()) for v in vecs])
            posts = _pair_posts(rhos[:, None], a_ops, b_ops).reshape(-1, 8, 8)
            bobs = (posts / np.trace(posts, axis1=1, axis2=2).real[:, None, None]).reshape(-1, 4, 2, 4, 2)
            bobs = np.trace(bobs, axis1=1, axis2=3)
            density_route = np.array([float(np.real(psis[k].vec.conj() @ bob @ psis[k].vec))
                                      for k, bob in zip(inputs.tolist(), bobs)])
            assert np.abs(fidelities - density_route).max() <= 1e-15


def test_stacked_teleport_trial_equals_single_draws():
    import coherlab.checks as checks

    for seed in range(50):
        stacked_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = checks.teleport_fidelity([stacked_rng] * 20)
        single = np.concatenate([checks.teleport_fidelity([single_rng]) for _ in range(20)])
        assert stacked.tobytes() == single.tobytes()
        assert stacked_rng.integers(2**63) == single_rng.integers(2**63)


def test_stacked_teleport_draw_equals_the_random_pure_route():
    # the (n, 2) stack against one random_pure-style draw per input
    # (default_rng(seed), a Ginibre column, divided by its own norm), and the
    # fidelities against teleporting those vectors, bit for bit
    import coherlab.checks as checks

    def drawn(seed):
        rng = np.random.default_rng(seed)
        v = (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))).reshape(-1)
        return v / np.linalg.norm(v)

    for n in (1, 20, 64):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            seeds = [rng.integers(2**63) for _ in range(n)]
            reference = np.stack([drawn(s) for s in seeds])
            assert np.stack([random_pure((2,), s).vec for s in seeds]).tobytes() == reference.tobytes()
            _, _, inputs, _, fidelities = _teleport_branches(reference)
            worst = np.full(n, np.inf)
            np.minimum.at(worst, inputs, fidelities)
            stacked = checks.teleport_fidelity([np.random.default_rng(seed)] * n)
            assert stacked.tobytes() == worst.tobytes()


# ---------------------------------------------------------------------------
# assisted distillation, pure states


def _ensemble(*pairs):
    return [(p, PureState(np.asarray(v, dtype=complex), (2,))) for p, v in pairs]


def test_distill_pure_bell_eigen_vs_plusminus_ensembles():
    bell = bell_states()[0]
    s = math.sqrt(0.5)
    eigen = _ensemble((0.5, [1, 0]), (0.5, [0, 1]))
    plus_minus = _ensemble((0.5, [s, s]), (0.5, [s, -s]))
    r_eigen = assisted_distill_pure(bell, ensemble=eigen)
    r_pm = assisted_distill_pure(bell, ensemble=plus_minus)
    assert abs(r_eigen.metrics["average_coherence"] - 0.0) < 1e-9
    assert abs(r_pm.metrics["average_coherence"] - 1.0) < 1e-9
    # the reported average matches the supplied ensemble's average exactly
    assert abs(r_pm.metrics["average_coherence"] - r_pm.metrics["supplied_ensemble_average"]) < 1e-9


def test_distill_pure_product_state():
    psi = PureState(np.kron([1, 0], np.array([1, 1]) / math.sqrt(2)), (2, 2))
    result = assisted_distill_pure(psi, budget=2)
    assert abs(result.metrics["average_coherence"] - 1.0) < 1e-9
    # Schmidt rank 1 < 2: the last outcome completes Alice's basis and never fires.
    instrument = result.details["instrument"]
    assert instrument.is_incoherent()
    assert all(t[0][1] < instrument.n_outcomes - 1 for _, _, t in result.outcomes)


def test_distill_pure_average_below_dephased_entropy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        psi = random_pure((2, 2), int(rng.integers(2**63)))
        result = assisted_distill_pure(psi, budget=2, seed=int(rng.integers(2**31)))
        rho_b = partial_trace(psi.to_density(), {1})
        ceiling = von_neumann_entropy(dephase(rho_b, (0,)))
        assert result.metrics["average_coherence"] <= ceiling + 1e-9


def test_distill_pure_instrument_is_incoherent():
    psi = random_pure((2, 2), 7)
    result = assisted_distill_pure(psi, budget=2)
    assert result.details["instrument"].is_incoherent()


def test_distill_pure_rejects_wrong_ensemble():
    bell = bell_states()[0]
    bad = _ensemble((1.0, [1, 0]))
    with pytest.raises(EnsembleMismatchError):
        assisted_distill_pure(bell, ensemble=bad)


@pytest.mark.parametrize("pairs", [
    # a nan weight fails every comparison, so a gap test "gap > tol" passes it
    ((math.nan, [1, 0]), (0.5, [0, 1])),
    # negative weights whose average still matches Bob's state
    ((1.0, [1, 0]), (1.0, [0, 1]), (-0.5, [1, 0]), (-0.5, [0, 1])),
], ids=["nan-weight", "negative-weights"])
def test_distill_pure_rejects_bad_weights_before_any_arithmetic(pairs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnsembleMismatchError, match="finite and non-negative"):
            assisted_distill_pure(bell_states()[0], ensemble=_ensemble(*pairs))


def test_distill_pure_rejects_an_empty_ensemble():
    with pytest.raises(EnsembleMismatchError, match="empty"):
        assisted_distill_pure(bell_states()[0], ensemble=[])


@pytest.mark.parametrize("member", [
    PureState([1, 0, 0], (3,)),
    PureState([1, 0, 0, 0], (2, 2)),
    np.array([1, 0], dtype=complex),
], ids=["qutrit", "two-qubit", "bare-vector"])
def test_distill_pure_rejects_members_off_bobs_dims(member):
    with pytest.raises(DimensionMismatchError, match="Bob's dims"):
        assisted_distill_pure(bell_states()[0], ensemble=[(1.0, member)])


def _alice_ops_reference(psi, ensemble):
    """Alice's operators |i><e_i| built row by row: e_i = u w_i^* from the
    Schmidt data and the polar-corrected transition matrix, then the
    orthogonal complement of the Schmidt span."""
    da, db = psi.dims
    u, s, vh = np.linalg.svd(psi.vec.reshape(da, db), full_matrices=False)
    keep = s > 1e-12
    u, s, vh = u[:, keep], s[keep], vh[keep, :]
    probs = np.array([p for p, _ in ensemble])
    members = np.array([st.vec for _, st in ensemble])
    w = (np.sqrt(probs)[:, None] * (members @ vh.conj().T)) / s[None, :]
    gw, vw = np.linalg.eigh(w.conj().T @ w)
    w = w @ (vw / np.sqrt(np.maximum(gw, 1e-30))) @ vw.conj().T
    rows = [u @ w[i, :].conj() for i in range(len(ensemble))]
    rows += list(np.linalg.qr(u, mode="complete")[0][:, s.size:].T)
    return np.array([np.outer(ket(i, len(rows)), vec.conj()) for i, vec in enumerate(rows)])


PURE_CASES = [(dims, seed) for dims in ((2, 2), (3, 2), (2, 3), (3, 3)) for seed in range(3)]


@pytest.mark.parametrize("dims, seed", PURE_CASES)
def test_distill_pure_alice_ops_match_row_by_row_reference(dims, seed):
    psi = random_pure(dims, 40 + seed)
    _, ensemble = coherence_of_assistance(partial_trace(psi.to_density(), {1}), budget=4, seed=seed)
    ops = assisted_distill_pure(psi, ensemble=ensemble).details["instrument"].ops
    reference = _alice_ops_reference(psi, ensemble)
    assert ops.shape == reference.shape
    assert np.abs(ops - reference).max() <= 1e-15


def test_distill_pure_alice_ops_complete_a_rank_deficient_schmidt_span():
    psi = PureState(np.kron([1, 0, 0], np.array([1, 1]) / math.sqrt(2)), (3, 2))
    ensemble = [(1.0, PureState(np.array([1, 1]) / math.sqrt(2), (2,)))]
    ops = assisted_distill_pure(psi, ensemble=ensemble).details["instrument"].ops
    assert np.abs(ops - _alice_ops_reference(psi, ensemble)).max() <= 1e-15


@pytest.mark.parametrize("dims, seed", PURE_CASES)
def test_distill_pure_bob_coherences_match_per_leaf_c_r(dims, seed):
    # the stacked coherences, summed as before, give the per-leaf average bit for bit
    result = assisted_distill_pure(random_pure(dims, 40 + seed), budget=4, seed=seed)
    per_leaf = [c_r(partial_trace(state, {1})) for _, state, _ in result.outcomes]
    average = float(sum(p * coh for (p, _, _), coh in zip(result.outcomes, per_leaf)))
    assert result.metrics["average_coherence"] == average


# ---------------------------------------------------------------------------
# assisted distillation, maximally correlated states


def test_distill_mc_bell():
    psi2 = maximally_coherent(2)
    rho = maximally_correlated(np.outer(psi2.vec, psi2.vec.conj()))
    result = assisted_distill_mc(rho)
    assert abs(result.metrics["target_coherence"] - 1.0) < 1e-12
    assert result.metrics["max_deviation"] < 1e-9
    for p, state, _ in result.outcomes:
        assert abs(p - 0.5) < 1e-9
        bob = partial_trace(state, {1})
        assert abs(c_r(bob) - 1.0) < 1e-9


def test_distill_mc_diagonal_coeffs_yield_zero():
    rho = maximally_correlated(np.diag([0.3, 0.7]).astype(complex))
    result = assisted_distill_mc(rho)
    assert result.metrics["max_outcome_coherence"] < 1e-9


def test_distill_mc_random_qutrit_coeffs():
    for seed in range(10):
        coeffs = random_density((3,), 3, seed)
        rho = maximally_correlated(coeffs.mat)
        result = assisted_distill_mc(rho)
        target = von_neumann_entropy(dephase(rho, (1,))) - von_neumann_entropy(rho)
        assert abs(result.metrics["target_coherence"] - target) < 1e-12
        assert result.metrics["max_deviation"] < 1e-9


def test_distill_mc_incoherent_unitaries_map_outcomes_to_coeffs():
    coeffs = random_density((3,), 3, 5)
    rho = maximally_correlated(coeffs.mat)
    result = assisted_distill_mc(rho)
    assert result.details["instrument"].is_incoherent()
    for (_, state, _), u in zip(result.outcomes, result.details["incoherent_unitaries"]):
        assert is_incoherent_operator(u)
        bob = partial_trace(state, {1})
        back = u @ bob.mat @ u.conj().T
        assert np.abs(back - coeffs.mat).max() < 1e-9


def test_distill_mc_with_local_unitary_twist():
    coeffs = random_density((3,), 3, 8)
    rho = maximally_correlated(coeffs.mat)
    u = random_unitary(3, 4)
    twisted = DensityMatrix(np.kron(u, np.eye(3)) @ rho.mat @ np.kron(u, np.eye(3)).conj().T, (3, 3))
    result = assisted_distill_mc(twisted, u=u)
    assert result.metrics["max_deviation"] < 1e-9


def _mc_ops_reference(d, u=None):
    """Alice's operators |j><psi_j|, then U', built one outcome at a time."""
    ops = []
    for j, psi_j in enumerate(fourier_mc_basis(d)):
        op = np.outer(ket(j, d), psi_j.vec.conj())
        if u is not None:
            op = op @ u.conj().T
        ops.append(op)
    return np.array(ops)


def _mc_state(d, seed, twist):
    rho = maximally_correlated(random_density((d,), d, seed).mat)
    if not twist:
        return rho, None
    u = random_unitary(d, seed)
    return DensityMatrix(apply_local(rho.mat, u, after=d), (d, d)), u


MC_CASES = [(d, twist) for d in (2, 3, 4) for twist in (False, True)]


@pytest.mark.parametrize("d, twist", MC_CASES)
def test_distill_mc_instrument_matches_per_outcome_reference(d, twist):
    rho, u = _mc_state(d, 60 + d, twist)
    ops = assisted_distill_mc(rho, u=u).details["instrument"].ops
    assert np.array_equal(ops, _mc_ops_reference(d, u))


@pytest.mark.parametrize("d, twist", MC_CASES)
def test_distill_mc_bob_coherences_match_per_leaf_c_r(d, twist):
    rho, u = _mc_state(d, 60 + d, twist)
    result = assisted_distill_mc(rho, u=u)
    per_leaf = [c_r(partial_trace(state, {1})) for _, state, _ in result.outcomes]
    target = result.metrics["target_coherence"]
    assert result.metrics["min_outcome_coherence"] == min(per_leaf)
    assert result.metrics["max_outcome_coherence"] == max(per_leaf)
    assert result.metrics["max_deviation"] == max(abs(c - target) for c in per_leaf)


def test_distill_mc_rejects_generic_state():
    rho = random_density((2, 2), 4, 13)
    with pytest.raises(NotMaximallyCorrelatedError):
        assisted_distill_mc(rho)


# ---------------------------------------------------------------------------
# steering


def test_steering_none_on_qi_states():
    for seed in range(20):
        assert find_steering_measurement(random_qi_state((2, 2), seed)) is None


def test_steering_bell_witness():
    witness = find_steering_measurement(bell_states()[0].to_density())
    assert witness is not None
    assert witness.bob_coherence > 1.0 - 1e-6
    assert is_incoherent_operator(witness.kraus_op)


def test_steering_witness_found_for_non_qi_states():
    rng = np.random.default_rng(4)
    found = 0
    total = 0
    while total < 40:
        rho = random_density((2, 2), 4, int(rng.integers(2**63)))
        if trace_norm(rho.mat - dephase(rho, (1,)).mat) <= 1e-3:
            continue
        total += 1
        witness = find_steering_measurement(rho)
        if witness is not None:
            found += 1
            assert witness.probability > 1e-10
            assert witness.bob_coherence > 1e-8
    assert found == total


def test_steering_offdiagonal_block_case():
    # Diagonal N_ii blocks but coherent off-diagonal block: the classically
    # correlated coherent state sum_i |i><i| x |i~><i~| with phase twist.
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    mat = 0.5 * (
        np.kron(np.outer(plus, plus.conj()), np.outer(plus, plus.conj()))
        + np.kron(np.outer(minus, minus.conj()), np.outer(minus, minus.conj()))
    )
    rho = DensityMatrix(mat, (2, 2))
    # Alice's marginal is I/2 and in the +/- eigenbasis the diagonal blocks
    # are coherent, but in the computational eigenbasis they are not; the
    # search must still find a witness since the state is not QI.
    assert trace_norm(rho.mat - dephase(rho, (1,)).mat) > 1e-3
    witness = find_steering_measurement(rho)
    assert witness is not None and witness.bob_coherence > 1e-6


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_steering_certificate_on_near_qi_states(dims):
    # (1 - eps) QI + eps random straddles the threshold: None must certify
    # max_(b != d) |rho_(ab),(cd)| <= 4 tol, and every witness must be the
    # outcome it claims to be.
    tol = inspect.signature(find_steering_measurement).parameters["tol"].default
    da, db = dims
    rng = np.random.default_rng(11)
    b_offdiag = 1.0 - np.eye(db)[None, :, None, :]
    answers = {True: 0, False: 0}
    for eps in np.logspace(-9, -2, 100):
        qi = random_qi_state(dims, int(rng.integers(2**63)))
        noise = random_density(dims, da * db, int(rng.integers(2**63)))
        rho = DensityMatrix((1.0 - eps) * qi.mat + eps * noise.mat, dims)
        witness = find_steering_measurement(rho)
        answers[witness is None] += 1
        tensor = rho.mat.reshape(da, db, da, db)
        if witness is None:
            assert np.abs(tensor * b_offdiag).max() <= 4 * tol
            continue
        assert witness.probability > 0.0 and witness.bob_coherence > 0.0
        assert is_incoherent_operator(witness.kraus_op)
        post = apply_local(rho.mat, witness.kraus_op, 1, db).reshape(da, db, da, db)
        bob = np.trace(post, axis1=0, axis2=2)
        assert abs(np.trace(bob).real - witness.probability) < 1e-12
        assert np.abs(bob - witness.probability * witness.bob_post_state.mat).max() < 1e-12
        assert abs(c_r(witness.bob_post_state) - witness.bob_coherence) < 1e-12
    assert answers[True] > 0 and answers[False] > 0


def test_stacked_witnesses_equal_the_single_search():
    from coherlab.protocols import _steering_witnesses

    states = [random_density((2, 3), 1 + seed % 6, seed) if seed % 3 else random_qi_state((2, 3), seed)
              for seed in range(30)]
    stacked = _steering_witnesses(np.stack([state.mat for state in states]), (2, 3))
    assert any(w is None for w in stacked) and any(w is not None for w in stacked)
    for state, witness in zip(states, stacked):
        single = find_steering_measurement(state)
        if single is None:
            assert witness is None
            continue
        bob = DensityMatrix(witness.bob_post_state.mat, (3,))
        assert witness.kraus_op.tobytes() == single.kraus_op.tobytes()
        assert witness.probability == single.probability
        assert witness.bob_post_state.mat.tobytes() == single.bob_post_state.mat.tobytes()
        assert witness.bob_post_state.spectrum.tobytes() == bob.spectrum.tobytes()
        assert witness.bob_coherence == single.bob_coherence == c_r(bob)
    assert _steering_witnesses(np.stack([states[0].mat]), (2, 3)) == [None]


# ---------------------------------------------------------------------------
# SQI -> SI reduction


def test_sqi_to_si_preserves_bob_marginal_when_already_si():
    rng = np.random.default_rng(2)
    a_instr = random_incoherent_channel((2,), 2, 1)
    b_instr = random_incoherent_channel((2,), 2, 2)
    channel = ProductKrausChannel(
        *zip(*((a, b) for a in a_instr.ops for b in b_instr.ops)), (2,), (2,)
    )
    reduced = sqi_to_si_reduce(channel)
    rho = random_density((2, 2), 4, 3)
    gap = trace_norm(
        partial_trace(channel.apply(rho), {1}).mat
        - partial_trace(reduced.apply(rho), {1}).mat
    )
    assert gap < 1e-9


def test_sqi_to_si_domino_channel():
    channel = domino_discrimination_channel()
    reduced = sqi_to_si_reduce(channel)
    assert classify(reduced).separable_incoherent
    rho = random_density((3, 3), 9, 4)
    gap = trace_norm(
        partial_trace(channel.apply(rho), {1}).mat
        - partial_trace(reduced.apply(rho), {1}).mat
    )
    assert gap < 1e-9


def test_sqi_to_si_random_lqicc_compiled():
    rng = np.random.default_rng(8)
    for _ in range(10):
        channel = random_sqi_channel((2,), (2,), 1, int(rng.integers(2**63))).to_product()
        reduced = sqi_to_si_reduce(channel)
        assert classify(reduced).separable_incoherent
        rho = random_density((2, 2), 4, int(rng.integers(2**63)))
        gap = trace_norm(
            partial_trace(channel.apply(rho), {1}).mat
            - partial_trace(reduced.apply(rho), {1}).mat
        )
        assert gap < 1e-9


def test_sqi_to_si_rejects_non_sqi():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    channel = ProductKrausChannel((hadamard,), (hadamard,), (2,), (2,))
    with pytest.raises(NotSQIError):
        sqi_to_si_reduce(channel)


def test_stacked_classify_and_sqi_to_si_equal_the_single_functions():
    from coherlab.channels import _channel_stacks, _classify_stack
    from coherlab.protocols import _sqi_to_si_stack

    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    channels = []
    for seed in range(9):
        script = (random_licc_protocol if seed % 3 == 0 else random_sqi_channel)((2,), (2,), 1, seed)
        product = script.to_product()
        if seed % 3 == 1:  # B rotated out of the incoherent basis: not SQI
            product = ProductKrausChannel(product.a_ops, product.b_ops @ hadamard, (2,), (2,))
        channels.append(product)
    a_ops, b_ops = _channel_stacks([[c.a_ops for c in channels], [c.b_ops for c in channels]],
                                   [(2, 2), (2, 2)])
    si, sqi = _classify_stack(a_ops, b_ops)
    flags = [classify(c) for c in channels]
    assert si.tolist() == [f.separable_incoherent for f in flags] == [s % 3 == 0 for s in range(9)]
    assert sqi.tolist() == [f.separable_quantum_incoherent for f in flags] == [s % 3 != 1 for s in range(9)]
    with pytest.raises(NotSQIError, match="^channel 1: channel is not separable quantum-incoherent$"):
        _sqi_to_si_stack(a_ops, b_ops)
    reduced = _sqi_to_si_stack(a_ops[sqi], b_ops[sqi])
    for channel, a_red, b_red in zip([c for c, ok in zip(channels, sqi) if ok], *reduced):
        single = sqi_to_si_reduce(channel)
        assert single.a_ops.tobytes() == a_red.tobytes() and single.b_ops.tobytes() == b_red.tobytes()
        assert (single.a_in_dims, single.b_in_dims, single.a_out_dims, single.b_out_dims) == ((2,),) * 4


# ---------------------------------------------------------------------------
# ancilla reduction


def test_ancilla_reduce_trivial_extension():
    # (local SI on A x B) tensor (identity on ancillas): the reduced channel
    # acts exactly like the factor channel on a spanning set of states.
    a_instr = random_incoherent_channel((2,), 2, 11)
    b_instr = random_incoherent_channel((2,), 2, 12)
    factor = ProductKrausChannel(
        *zip(*((a, b) for a in a_instr.ops for b in b_instr.ops)), (2,), (2,)
    )
    extended = ProductKrausChannel(
        *zip(*(
            (np.kron(a, np.eye(2)), np.kron(b, np.eye(2)))
            for a in a_instr.ops
            for b in b_instr.ops
        )),
        (2, 2),
        (2, 2),
    )
    reduced = ancilla_reduce(extended, (2, 2))
    for seed in range(8):
        rho = random_density((2, 2), 4, seed)
        assert trace_norm(reduced.apply(rho).mat - factor.apply(rho).mat) < 1e-9


def test_ancilla_reduce_swap_then_dephase_equals_dephasing():
    # Alice swaps her data into the ancilla, dephases it there and swaps
    # back; the reduced channel on the data is full dephasing.
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    a_ops = [
        swap @ np.kron(np.eye(2), np.outer(ket(j, 2), ket(j, 2).conj())) @ swap
        for j in range(2)
    ]
    pairs = tuple((a, np.eye(4, dtype=complex)) for a in a_ops)
    extended = ProductKrausChannel(*zip(*pairs), (2, 2), (2, 2))
    reduced = ancilla_reduce(extended, (2, 2))
    rho = random_density((2, 2), 4, 21)
    expected = dephase(rho, (0,))
    assert trace_norm(reduced.apply(rho).mat - expected.mat) < 1e-9


def test_ancilla_reduce_matches_extended_action():
    rng = np.random.default_rng(31)
    for _ in range(10):
        extended = random_extended_si(rng)
        reduced = ancilla_reduce(extended, (2, 2))
        assert classify(reduced).separable_incoherent
        rho = random_density((2, 2), 4, int(rng.integers(2**63)))
        big = extended.apply(extend_with_ancillas(rho, (2, 2)))
        direct = partial_trace(big, {0, 2})
        assert trace_norm(direct.mat - reduced.apply(rho).mat) < 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("ancilla_dims", [(2, 2), (3, 2)])
def test_extend_stack_equals_the_kron_route(dims, ancilla_dims):
    # against rho x |0><0| x |0><0| reordered (A, B, A', B') -> (A, A', B, B')
    da_anc, db_anc = ancilla_dims
    mats = np.stack([random_density(dims, 3, seed).mat for seed in range(4)])
    zero_a, zero_b = (np.diag(np.eye(d, dtype=complex)[0]) for d in ancilla_dims)
    extended = np.kron(np.kron(mats, zero_a), zero_b)
    tensor = extended.reshape((len(mats),) + (*dims, da_anc, db_anc) * 2)
    reference = tensor.transpose(0, 1, 3, 2, 4, 5, 7, 6, 8).reshape(extended.shape)
    assert np.array_equal(_extend_stack(mats, dims, ancilla_dims), reference)


def test_stacked_ancilla_reduce_equals_the_single_function():
    from coherlab.channels import _channel_stacks
    from coherlab.protocols import _ancilla_stack

    rng = np.random.default_rng(12)
    channels = [random_extended_si(rng) for _ in range(5)]
    a_ops, b_ops = _channel_stacks([[c.a_ops for c in channels], [c.b_ops for c in channels]],
                                   [(4, 4), (4, 4)])
    reduced = _ancilla_stack(a_ops, b_ops, (2, 2), (2, 2), (2, 2))
    for channel, a_red, b_red in zip(channels, *reduced):
        single = ancilla_reduce(channel, (2, 2))
        assert single.a_ops.tobytes() == a_red.tobytes() and single.b_ops.tobytes() == b_red.tobytes()
        assert single.in_dims == single.out_dims == (2, 2)
    hadamard = np.kron(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), np.eye(2))
    with pytest.raises(NotSIError, match="^channel 3: extended channel is not separable incoherent$"):
        _ancilla_stack(a_ops, np.concatenate([b_ops[:3], b_ops[3:] @ hadamard]), (2, 2), (2, 2), (2, 2))


@pytest.mark.parametrize("ancilla_dims", [(0, 2), (2, 0), (-1, 2), (2,), (2, 2, 2)])
@pytest.mark.parametrize("reduce", [True, False], ids=["ancilla_reduce", "extend_with_ancillas"])
def test_bad_ancilla_dims_raise_bad_subsystem(reduce, ancilla_dims):
    with pytest.raises(BadSubsystemError, match="ancilla|invalid subsystem dimensions"):
        if reduce:
            ancilla_reduce(random_extended_si(np.random.default_rng(0)), ancilla_dims)
        else:
            extend_with_ancillas(random_density((2, 2), 4, 0), ancilla_dims)


def test_ancilla_reduce_rejects_non_si():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    ext = ProductKrausChannel(
        (np.kron(hadamard, np.eye(2)),), (np.eye(4, dtype=complex),), (2, 2), (2, 2)
    )
    with pytest.raises(NotSIError):
        ancilla_reduce(ext, (2, 2))


# ---------------------------------------------------------------------------
# domino discrimination


def test_domino_discrimination_identifies_every_state():
    for index in range(1, 10):
        result = discriminate_domino(index)
        assert abs(result.metrics["success_probability"] - 1.0) < 1e-9
        assert result.metrics["si"] == 1.0 and result.metrics["sqi"] == 1.0
        # the post-state is the flag |jj>
        p, state, _ = result.outcomes[0]
        j = index - 1
        expected = np.zeros((81, 81), dtype=complex)
        expected[j * 9 + j, j * 9 + j] = 1.0
        assert np.abs(state.mat - expected).max() < 1e-9


def test_domino_success_probabilities_equal_discrimination_runs():
    from coherlab.protocols import _domino_success_probabilities

    values = _domino_success_probabilities()
    assert values.tolist() == [discriminate_domino(i).metrics["success_probability"]
                               for i in range(1, 10)]


def _count_eigensolves(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            calls.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_vector_routes_equal_the_density_routes_without_an_eigensolve(monkeypatch):
    # incoherent_teleport's leaves against LocalProtocol.run and
    # discriminate_domino's outcomes against apply_instrument on the input's
    # density: the same outcomes, probabilities and states within 1e-15,
    # with no eigenproblem solved on the vector routes
    from coherlab.protocols import _DOMINO_CHANNEL, _TELEPORT

    pair = bell_states()[0]
    rng = np.random.default_rng(5)
    for psi in [maximally_coherent(2), PureState(np.array([1.0, 0.0]), (2,))] + [
            random_pure((2,), int(rng.integers(2**63))) for _ in range(5)]:
        reference = _TELEPORT.run(psi.tensor(pair).to_density())
        calls = _count_eigensolves(monkeypatch)
        result = incoherent_teleport(psi)
        assert calls == []
        monkeypatch.undo()
        assert [t for _, _, t in result.outcomes] == [t for _, _, t in reference]
        for (p, state, _), (p_ref, state_ref, _) in zip(result.outcomes, reference):
            assert abs(p - p_ref) <= 1e-15
            assert np.abs(state.mat - state_ref.mat).max() <= 1e-15
            assert np.abs(state.spectrum - state_ref.spectrum).max() <= 1e-15
    for index in range(1, 10):
        reference = _DOMINO_CHANNEL.apply_instrument(domino_states().states[index - 1].to_density())
        calls = _count_eigensolves(monkeypatch)
        result = discriminate_domino(index)
        assert calls == []
        monkeypatch.undo()
        assert [t for _, _, t in result.outcomes] == [(("AB", o.outcome),) for o in reference]
        for (p, state, _), o in zip(result.outcomes, reference):
            assert abs(p - o.probability) <= 1e-15
            assert np.abs(state.mat - o.state.mat).max() <= 1e-15
            assert np.abs(state.spectrum - o.state.spectrum).max() <= 1e-15


def test_discriminate_domino_builds_family_and_channel_once(monkeypatch):
    import coherlab.protocols as protocols
    import coherlab.states as states

    calls = {"family": 0, "channel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(states, "domino_states", counted("family", states.domino_states))
    monkeypatch.setattr(protocols, "ProductKrausChannel",
                        counted("channel", protocols.ProductKrausChannel))
    discriminate_domino(3)
    assert calls == {"family": 0, "channel": 0}


def test_domino_channel_completeness():
    channel = domino_discrimination_channel()
    gram = sum(np.kron(a.conj().T @ a, b.conj().T @ b) for a, b in channel.pairs)
    assert np.abs(gram - np.eye(9)).max() <= 1e-9


def test_domino_uniform_mixture_gives_uniform_outcomes():
    channel = domino_discrimination_channel()
    rho = DensityMatrix(np.eye(9) / 9, (3, 3))
    outcomes = channel.apply_instrument(rho)
    assert len(outcomes) == 9
    for o in outcomes:
        assert abs(o.probability - 1 / 9) < 1e-12


# ---------------------------------------------------------------------------
# merging witness


def test_merging_witness_values_and_verdict():
    result = merging_witness()
    assert abs(result.qire_r_ab.value - 8 / 9) < 1e-9
    assert abs(result.qire_rb_a.value - 4 / 9) < 1e-9
    assert result.verdict
    assert result.merge_residual <= 1e-9


def test_merging_witness_rejects_an_entry_off_the_r_blocks(monkeypatch):
    # the residual is read on the nine (R, R) blocks only, which is the
    # full residual's trace norm only while every entry off them is zero
    import coherlab.protocols as protocols

    mat = merging_state().mat.copy()
    mat[0, 9] = mat[9, 0] = 1e-12
    monkeypatch.setattr(protocols, "merging_state", lambda: DensityMatrix(mat, (9, 3, 3)))
    with pytest.raises(InternalConsistencyError, match="off its R blocks"):
        merging_witness()


def _sqi_merge_pairs():
    """The explicit SQI merge on ((A, A'), B) as 27 product pairs
    (|alpha_i><alpha_i| x |beta_i><j|, |0><beta_i|), one per domino state
    i and A' label j."""
    family = domino_states()
    return [(np.kron(np.outer(alpha, alpha.conj()), np.outer(beta, ket(j, 3).conj())),
             np.outer(ket(0, 3), beta.conj()))
            for alpha, beta in zip(family.alpha_parts, family.beta_parts) for j in range(3)]


def test_merging_simulation_channel_is_sqi_not_si():
    family = domino_states()
    flags = classify(ProductKrausChannel(*zip(*_sqi_merge_pairs()), (3, 3), (3,)))
    assert flags.separable_quantum_incoherent
    assert not flags.separable_incoherent

    # With B traced out the merge operators are the domino projectors
    # P_alpha_i x P_beta_i = |psi_i><psi_i|, equal as values (their bytes
    # differ in the signs of exact zeros).
    assert _MERGE_TRACED.ops.shape == (9, 9, 9)
    assert (_MERGE_TRACED.in_dims, _MERGE_TRACED.out_dims) == ((3, 3), (3, 3))
    folded = []
    for op, psi, alpha, beta in zip(_MERGE_TRACED.ops, family.states, family.alpha_parts,
                                    family.beta_parts):
        assert np.array_equal(op, np.kron(np.outer(alpha, alpha.conj()), np.outer(beta, beta.conj())))
        assert np.array_equal(op, np.outer(psi.vec, psi.vec.conj()))
        # the merge on (A -> (A, A'), B): B's output row <0| of the pair is op
        a_op = np.kron(np.outer(alpha, alpha.conj()), beta[:, None])
        b_op = np.outer(ket(0, 3), beta.conj())
        assert np.abs(np.kron(a_op, b_op[:1]) - op).max() < 1e-15
        folded.append((a_op, b_op))

    # As (A -> (A, A'), B) pairs the nine operators are SQI and not SI.
    flags = classify(ProductKrausChannel(*zip(*folded), (3,), (3,), (3, 3), (3,)))
    assert flags.separable_quantum_incoherent
    assert not flags.separable_incoherent


def test_traced_merge_equals_apply_then_trace():
    # the nine domino projectors on (R, A, B) against the 27 SQI pairs on
    # the input padded with A' in |0>, ordered (R, A, A', B), with B traced
    # out of their 243-dim output
    gram = np.einsum("kij,kil->jl", _MERGE_TRACED.ops.conj(), _MERGE_TRACED.ops)
    assert np.abs(gram - np.eye(9)).max() <= 1e-9
    padded = ProductKrausChannel(*zip(*_sqi_merge_pairs()), (3, 3), (3,)).to_kraus()
    zero3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rng = np.random.default_rng(11)
    inputs = [merging_state()] + [random_density((9, 3, 3), 81, int(rng.integers(2**63)))
                                  for _ in range(5)]
    for rho in inputs:
        extended = permute_subsystems(DensityMatrix(np.kron(rho.mat, zero3), (9, 3, 3, 3)),
                                      (0, 1, 3, 2))
        reference = partial_trace(padded.apply(extended, at=1), {0, 1, 2})
        ours = _MERGE_TRACED.apply(rho, at=1)
        assert ours.dims == reference.dims == (9, 3, 3)
        assert np.abs(ours.mat - reference.mat).max() <= 1e-12


def test_transfer_route_equals_the_traced_operators():
    # the merge through its 81 x 81 transfer matrix, on all 81 (R, R')
    # blocks, against the nine B-traced operators applied one by one and
    # summed: bit for bit on the merging state, within 1e-15 on full-rank
    # states; the nine (R, R) blocks alone map as they do among all 81
    from coherlab.protocols import _MERGE_TRACED, _traced_merge

    def merged(mat):
        blocks = mat.reshape(9, 9, 9, 9).transpose(0, 2, 1, 3).reshape(81, 9, 9)
        return _traced_merge(blocks).reshape(9, 9, 9, 9).transpose(0, 2, 1, 3).reshape(81, 81)

    rho = merging_state()
    assert merged(rho.mat).tobytes() == _MERGE_TRACED.apply(rho, at=1).mat.tobytes()
    diag = rho.mat.reshape(9, 9, 9, 9)[range(9), :, range(9)]
    out = merged(rho.mat).reshape(9, 9, 9, 9)[range(9), :, range(9)]
    assert _traced_merge(diag).tobytes() == out.tobytes()
    for seed in range(5):
        rho = random_density((9, 3, 3), 81, seed)
        assert np.abs(merged(rho.mat) - _MERGE_TRACED.apply(rho, at=1).mat).max() <= 1e-15


def test_merging_witness_solves_no_full_order_eigenproblem(monkeypatch):
    # the merge acts through its B-traced operators, so no 243-dim
    # (R, A, A', B) state is formed; the 81-dim input is solved on its nine
    # R blocks and the residual on its nine (R, R) blocks, so the largest
    # eigenproblem is the RB|A split's 27-dim (R, B) blocks and the one SVD has
    # order 9
    orders = []
    for name in ("eigvalsh", "eigh", "svd"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            orders.append((_name, np.shape(a)[-1]))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    merging_witness()
    # the input's nine R blocks, the R|AB split's nine R blocks (one per
    # (A, B) label), the RB|A split's three (R, B) blocks and the
    # residual's nine (R, R) blocks
    assert sorted(orders) == [("eigvalsh", 9), ("eigvalsh", 9), ("eigvalsh", 27), ("svd", 9)]
