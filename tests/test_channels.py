import math

import numpy as np
import pytest

from coherlab.channels import (
    ChannelClass,
    KrausChannel,
    LocalProtocol,
    ProductKrausChannel,
    ProtocolRound,
    classify,
    complete_incoherent_kraus,
    dephasing_channel,
    identity_channel,
    is_incoherent_operator,
    random_incoherent_channel,
    random_instrument,
    random_licc_protocol,
    random_sqi_channel,
)
from coherlab.exceptions import (
    DimensionMismatchError,
    IncoherenceViolationError,
    IncompleteChannelError,
    NotIncoherentError,
    SingularNormalizerError,
)
from coherlab.linalg import DensityMatrix
from coherlab.measures import Bipartition, qi_relative_entropy
from coherlab.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bell_states,
    maximally_coherent,
    random_density,
    random_pure,
    random_qi_state,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
AB = Bipartition((0,), (1,))


def offdiag_max(mat):
    return np.abs(mat - np.diag(np.diag(mat))).max()


# ---------------------------------------------------------------------------
# incoherence predicate


def test_paulis_are_incoherent():
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z, np.eye(2)):
        assert is_incoherent_operator(sigma)


def test_zero_ket_plus_bra_is_incoherent():
    # columns are (1,0)/sqrt(2) each: one nonzero entry per column
    op = np.outer([1, 0], np.array([1, 1]) / math.sqrt(2))
    assert (np.abs(op) > 1e-9).sum(axis=0).max() == 1  # direct inspection
    assert is_incoherent_operator(op)


def test_hadamard_is_not_incoherent():
    assert not is_incoherent_operator(HADAMARD)


def test_nan_entry_counts_as_nonzero():
    assert not is_incoherent_operator(np.array([[math.nan, 0.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# KrausChannel basics


def test_channel_requires_completeness():
    with pytest.raises(IncompleteChannelError):
        KrausChannel((np.eye(2) * 0.5,), (2,), (2,))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_channels_reject_non_finite_operators(bad):
    op = np.eye(2, dtype=complex)
    op[0, 0] = bad
    with pytest.raises(IncompleteChannelError):
        KrausChannel((op,), (2,), (2,))
    with pytest.raises(IncompleteChannelError):
        ProductKrausChannel(((np.eye(1), op),), (1,), (2,))
    with pytest.raises(IncompleteChannelError):
        ProductKrausChannel(((op, np.eye(1)),), (2,), (1,))


def test_identity_channel_is_noop():
    rho = random_density((2, 2), 4, 3)
    out = identity_channel((2, 2)).apply(rho)
    assert np.abs(out.mat - rho.mat).max() < 1e-12


def test_dephasing_channel_on_psi2():
    rho = maximally_coherent(2).to_density()
    out = dephasing_channel((2,)).apply(rho)
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12


def test_dephasing_channel_partial():
    bell = bell_states()[0].to_density()
    out = dephasing_channel((2, 2), (1,)).apply(bell)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.abs(out.mat - expected).max() < 1e-12


def test_instrument_on_bell_measured_pure_state():
    # Bell measurement instrument on a random two-qubit pure state:
    # probabilities sum to one, each post-state is pure.
    ops = tuple(np.outer(b.vec, b.vec.conj()) for b in bell_states())
    channel = KrausChannel(ops, (2, 2), (2, 2))
    psi = random_pure((2, 2), 12)
    outcomes = channel.apply_instrument(psi.to_density())
    assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-9
    for o in outcomes:
        purity = np.trace(o.state.mat @ o.state.mat).real
        assert abs(purity - 1.0) < 1e-9


def test_apply_equals_weighted_instrument_sum():
    channel = random_instrument((2, 2), 3, 5)
    rho = random_density((2, 2), 4, 6)
    summed = channel.apply(rho)
    outcomes = channel.apply_instrument(rho)
    recombined = sum(o.probability * o.state.mat for o in outcomes)
    assert np.abs(summed.mat - recombined).max() < 1e-10


def test_apply_dimension_mismatch():
    channel = identity_channel((2,))
    with pytest.raises(DimensionMismatchError):
        channel.apply(random_density((3,), 3, 0))


# ---------------------------------------------------------------------------
# placement on a block of subsystems

# (state dims, channel in dims, channel out dims, first subsystem)
PLACEMENTS = [
    ((2, 3, 2), (2,), (3,), 0),
    ((2, 3, 2), (2, 3), (6,), 0),
    ((2, 3, 2), (3,), (3,), 1),
    ((2, 3, 2, 2), (3, 2), (2, 3), 1),
    ((2, 3, 2), (2,), (4,), 2),
]


def _rectangular_instrument(in_dims, out_dims, seed):
    """Random instrument with zero rows appended to every operator: the
    Gram sum, hence completeness, is unchanged."""
    square = random_instrument(in_dims, 3, seed)
    rows = math.prod(out_dims) - math.prod(in_dims)
    ops = tuple(np.vstack([op, np.zeros((rows, op.shape[1]))]) for op in square.ops)
    return KrausChannel(ops, in_dims, out_dims)


def _embedded(channel, dims, at):
    """The same channel on the whole state, built with Kronecker products."""
    end = at + len(channel.in_dims)
    eye_before, eye_after = np.eye(math.prod(dims[:at])), np.eye(math.prod(dims[end:]))
    ops = tuple(np.kron(np.kron(eye_before, op), eye_after) for op in channel.ops)
    return KrausChannel(ops, dims, dims[:at] + channel.out_dims + dims[end:])


@pytest.mark.parametrize("dims, in_dims, out_dims, at", PLACEMENTS)
def test_apply_at_matches_embedded_channel(dims, in_dims, out_dims, at):
    channel = _rectangular_instrument(in_dims, out_dims, 21)
    rho = random_density(dims, 4, 22)
    local = channel.apply(rho, at=at)
    whole = _embedded(channel, dims, at).apply(rho)
    assert local.dims == whole.dims == dims[:at] + out_dims + dims[at + len(in_dims):]
    assert np.abs(local.mat - whole.mat).max() < 1e-12


@pytest.mark.parametrize("dims, in_dims, out_dims, at", PLACEMENTS)
def test_apply_instrument_at_matches_embedded_channel(dims, in_dims, out_dims, at):
    channel = _rectangular_instrument(in_dims, out_dims, 23)
    rho = random_density(dims, 4, 24)
    local = channel.apply_instrument(rho, at=at)
    whole = _embedded(channel, dims, at).apply_instrument(rho)
    assert [o.outcome for o in local] == [o.outcome for o in whole]
    for ours, ref in zip(local, whole):
        assert abs(ours.probability - ref.probability) < 1e-12
        assert ours.state.dims == ref.state.dims
        assert np.abs(ours.state.mat - ref.state.mat).max() < 1e-10


@pytest.mark.parametrize("at", [None, -1, 1, 3], ids=["whole", "negative", "wrong-block", "past-end"])
def test_apply_at_rejects_bad_placement(at):
    channel = identity_channel((2,))
    rho = random_density((2, 3, 2), 4, 1)
    with pytest.raises(DimensionMismatchError):
        channel.apply(rho, at=at)
    with pytest.raises(DimensionMismatchError):
        channel.apply_instrument(rho, at=at)


# ---------------------------------------------------------------------------
# product channels


def _random_product_channel(seed):
    """A 2 -> 3 and B 3 -> 2 with four pairs (A_k, B_m): A_k = |w_k><k| for
    random unit w_k, and B_m a Ginibre pair normalized by its Gram sum."""
    rng = np.random.default_rng(seed)
    a_ops = []
    for k in range(2):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a_ops.append(np.outer(w / np.linalg.norm(w), np.eye(2)[k]))
    raws = [rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) for _ in range(2)]
    gw, gv = np.linalg.eigh(sum(r.conj().T @ r for r in raws))
    inv_sqrt = (gv / np.sqrt(gw)) @ gv.conj().T
    pairs = tuple((a, r @ inv_sqrt) for a in a_ops for r in raws)
    return ProductKrausChannel(pairs, (2,), (3,), (3,), (2,))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_product_channel_matches_its_kraus_form(seed):
    channel = _random_product_channel(seed)
    kraus = channel.to_kraus()
    # a full-rank state fires all four pairs; A in |0> prunes the two with A_1
    full = random_density((2, 3), 6, seed + 100)
    a_zero = DensityMatrix(np.kron(np.diag([1.0, 0.0]), random_density((3,), 3, seed).mat), (2, 3))
    for rho, kept in ((full, [0, 1, 2, 3]), (a_zero, [0, 1])):
        ours, ref = channel.apply(rho), kraus.apply(rho)
        assert ours.dims == ref.dims == (3, 2)
        assert np.abs(ours.mat - ref.mat).max() < 1e-12
        local, whole = channel.apply_instrument(rho), kraus.apply_instrument(rho)
        assert [o.outcome for o in local] == [o.outcome for o in whole] == kept
        for ours_o, ref_o in zip(local, whole):
            assert abs(ours_o.probability - ref_o.probability) < 1e-12
            assert ours_o.state.dims == ref_o.state.dims == (3, 2)
            assert np.abs(ours_o.state.mat - ref_o.state.mat).max() < 1e-12
    wrong = random_density((3, 2), 6, seed)
    with pytest.raises(DimensionMismatchError):
        channel.apply(wrong)
    with pytest.raises(DimensionMismatchError):
        channel.apply_instrument(wrong)


# ---------------------------------------------------------------------------
# classification


def test_classify_domino_channel_is_si():
    from coherlab.protocols import domino_discrimination_channel

    flags = classify(domino_discrimination_channel())
    assert flags.separable and flags.separable_incoherent and flags.separable_quantum_incoherent


def test_classify_hadamard_pair_separable_only():
    channel = ProductKrausChannel(((HADAMARD, HADAMARD),), (2,), (2,))
    flags = classify(channel)
    assert flags.separable
    assert not flags.separable_quantum_incoherent
    assert not flags.separable_incoherent


def test_classify_sqi_but_not_si():
    # coherent on A, incoherent on B
    channel = ProductKrausChannel(((HADAMARD, SIGMA_X),), (2,), (2,))
    flags = classify(channel)
    assert flags.separable_quantum_incoherent
    assert not flags.separable_incoherent


def test_channel_class_flag_hierarchy():
    with pytest.raises(IncompleteChannelError):
        ChannelClass(separable_incoherent=True, separable_quantum_incoherent=False)
    # separable and incoherent are derived, so "SQI but not separable" and
    # "incoherent but not SI" cannot be stated at all
    with pytest.raises(TypeError):
        ChannelClass(separable=False, separable_incoherent=False,
                     separable_quantum_incoherent=True, incoherent=False)
    for si, sqi in ((False, False), (False, True), (True, True)):
        flags = ChannelClass(separable_incoherent=si, separable_quantum_incoherent=sqi)
        assert flags.separable
        assert flags.incoherent == si
        assert flags.to_dict() == {"separable": True, "si": si, "sqi": sqi, "incoherent": si}


# ---------------------------------------------------------------------------
# completion


def test_complete_identity_is_fixed_point():
    channel = complete_incoherent_kraus([np.eye(2)], (2,))
    assert np.abs(channel.ops[0] - np.eye(2)).max() < 1e-12


def test_complete_restores_completeness_preserving_pattern():
    raw = [np.outer([1, 0], [1, 0]), np.outer([1, 0], [0, 1])]
    channel = complete_incoherent_kraus(raw, (2,))
    gram = sum(op.conj().T @ op for op in channel.ops)
    assert np.abs(gram - np.eye(2)).max() < 1e-12
    for op, r in zip(channel.ops, raw):
        assert is_incoherent_operator(op)
        assert ((np.abs(op) > 1e-12) == (np.abs(np.asarray(r, complex)) > 1e-12)).all()


def test_complete_rescales_columns():
    raw = [2.0 * np.outer([1, 0], [1, 0]).astype(complex), np.outer([1, 0], [0, 1]).astype(complex)]
    channel = complete_incoherent_kraus(raw, (2,))
    assert np.abs(channel.ops[0] - np.outer([1, 0], [1, 0])).max() < 1e-12


def test_complete_rejects_coherent_input():
    with pytest.raises(NotIncoherentError):
        complete_incoherent_kraus([HADAMARD], (2,))


def test_complete_rejects_singular_normalizer():
    with pytest.raises(SingularNormalizerError):
        complete_incoherent_kraus([np.outer([1, 0], [1, 0])], (2,))


def test_complete_reports_colliding_targets():
    # both columns of the first operator target row 0, making the
    # normalizer non-diagonal; completion then breaks incoherence
    colliding = np.array([[1, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotIncoherentError):
        complete_incoherent_kraus([colliding, np.eye(2)], (2,))


def test_completion_property_over_500_seeds():
    rng = np.random.default_rng(42)
    for _ in range(500):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        channel = random_incoherent_channel((d,), n, int(rng.integers(2**63)))
        gram = sum(op.conj().T @ op for op in channel.ops)
        assert np.abs(gram - np.eye(d)).max() <= 1e-9
        assert channel.is_incoherent()


# ---------------------------------------------------------------------------
# random channels


def test_random_incoherent_channel_preserves_diagonal_states():
    rho = DensityMatrix(np.diag([0.1, 0.2, 0.7]).astype(complex), (3,))
    for seed in range(10):
        channel = random_incoherent_channel((3,), 2, seed)
        out = channel.apply(rho)
        assert offdiag_max(out.mat) < 1e-12


def test_random_channels_deterministic():
    a = random_incoherent_channel((2, 2), 3, 9)
    b = random_incoherent_channel((2, 2), 3, 9)
    for op_a, op_b in zip(a.ops, b.ops):
        assert np.array_equal(op_a, op_b)
    pa = random_sqi_channel((2,), (2,), 2, 9)
    pb = random_sqi_channel((2,), (2,), 2, 9)
    rho = random_density((2, 2), 4, 0)
    assert np.array_equal(pa.apply(rho).mat, pb.apply(rho).mat)


def test_random_sqi_channel_keeps_qi_states_qi():
    for seed in range(10):
        protocol = random_sqi_channel((2,), (2,), 1, seed)
        rho = random_qi_state((2, 2), seed + 50)
        out = protocol.apply(rho)
        assert qi_relative_entropy(out, AB) < 1e-9


def test_random_sqi_channel_maps_fully_incoherent_into_qi():
    rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), (2, 2))
    for seed in range(10):
        protocol = random_sqi_channel((2,), (2,), 1, seed)
        assert qi_relative_entropy(protocol.apply(rho), AB) < 1e-9


def test_random_sqi_channel_is_monotone_for_qire():
    rng = np.random.default_rng(11)
    for _ in range(30):
        rho = random_density((2, 2), 4, int(rng.integers(2**31)))
        protocol = random_sqi_channel((2,), (2,), 1, int(rng.integers(2**31)))
        assert qi_relative_entropy(protocol.apply(rho), AB) <= qi_relative_entropy(rho, AB) + 1e-9


# ---------------------------------------------------------------------------
# protocols


def test_empty_protocol_is_identity():
    protocol = LocalProtocol((2,), (2,), None)
    rho = random_density((2, 2), 4, 1)
    leaves = protocol.run(rho)
    assert len(leaves) == 1 and leaves[0][0] == 1.0
    assert np.abs(leaves[0][1].mat - rho.mat).max() < 1e-15


def test_two_round_licc_on_incoherent_state_stays_incoherent():
    rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), (2, 2))
    for seed in range(5):
        protocol = random_licc_protocol((2,), (2,), 2, seed)
        leaves = protocol.run(rho)
        assert abs(sum(p for p, _, _ in leaves) - 1.0) < 1e-9
        for _, state, _ in leaves:
            assert offdiag_max(state.mat) < 1e-10


def test_licc_flag_rejects_coherent_instrument():
    coherent = KrausChannel((HADAMARD,), (2,), (2,))
    with pytest.raises(IncoherenceViolationError):
        LocalProtocol(
            (2,), (2,), ProtocolRound("A", coherent, None),
            incoherent_parties=frozenset({"A", "B"}),
        )


def test_lqicc_script_rejects_coherent_shared_continuation_when_built():
    coherent_b = ProtocolRound("B", KrausChannel((HADAMARD,), (2,), (2,)), None)
    root = ProtocolRound("A", dephasing_channel((2,)), (coherent_b, coherent_b))
    with pytest.raises(IncoherenceViolationError):
        LocalProtocol((2,), (2,), root, incoherent_parties=frozenset({"B"}))


def test_script_rejects_round_with_wrong_party_dims_when_built():
    root = ProtocolRound("A", identity_channel((2,)), (ProtocolRound("B", identity_channel((3,))),))
    with pytest.raises(DimensionMismatchError):
        LocalProtocol((2,), (2,), root)


def test_apply_validates_one_state_and_checks_no_incoherence(monkeypatch):
    import coherlab.channels as channels_module

    protocol = random_sqi_channel((3,), (3,), 3, 7, n_outcomes=3)
    rho = random_density((3, 3), 9, 8)
    counts = {"states": 0, "checks": 0}
    post_init, predicate = DensityMatrix.__post_init__, is_incoherent_operator

    def counting_post_init(self):
        counts["states"] += 1
        post_init(self)

    def counting_predicate(*args, **kwargs):
        counts["checks"] += 1
        return predicate(*args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
    monkeypatch.setattr(channels_module, "is_incoherent_operator", counting_predicate)
    protocol.apply(rho)
    assert counts == {"states": 1, "checks": 0}
    counts["states"] = 0
    assert len(protocol.run(rho)) == 729
    assert counts["checks"] == 0


def test_protocol_transcripts_record_outcomes():
    protocol = random_sqi_channel((2,), (2,), 1, 3)
    leaves = protocol.run(random_density((2, 2), 4, 4))
    for _, _, transcript in leaves:
        assert transcript[0][0] == "A"
        assert all(party in ("A", "B") for party, _ in transcript)


def test_to_product_matches_protocol_action():
    for seed in range(5):
        protocol = random_sqi_channel((2,), (2,), 2, seed)
        product = protocol.to_product()
        rho = random_density((2, 2), 4, seed + 10)
        assert np.abs(protocol.apply(rho).mat - product.apply(rho).mat).max() < 1e-10

