import itertools
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
    BadSubsystemError,
    DimensionMismatchError,
    IncoherenceViolationError,
    IncompleteChannelError,
    NotIncoherentError,
    SingularNormalizerError,
)
from coherlab.linalg import DensityMatrix
from coherlab.measures import Bipartition, dephase, qi_relative_entropy
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
        ProductKrausChannel((np.eye(1),), (op,), (1,), (2,))
    with pytest.raises(IncompleteChannelError):
        ProductKrausChannel((op,), (np.eye(1),), (2,), (1,))


def test_product_channel_rejects_stacks_of_unequal_length():
    # two A operators against one B operator pair up no outcome
    half = np.eye(2, dtype=complex) / math.sqrt(2)
    with pytest.raises(DimensionMismatchError, match="2 A operators but 1 B operators"):
        ProductKrausChannel((half, half), (np.eye(2),), (2,), (2,))


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


def test_dephasing_channel_on_second_subsystem():
    channel = dephasing_channel((2, 3), (1,))
    expected = [np.kron(np.eye(2), np.diag(np.eye(3)[j])) for j in range(3)]
    assert len(channel.ops) == 3
    for op, ref in zip(channel.ops, expected):
        assert np.array_equal(op, ref)
    rho = random_density((2, 3), 6, 2)
    mask = np.kron(np.ones((2, 2)), np.eye(3))
    assert np.abs(channel.apply(rho).mat - rho.mat * mask).max() < 1e-12


def test_dephasing_channel_rejects_bad_subsystems():
    # checked as dephase checks them, not wrapped round or left to numpy
    for subsystems in ((-1,), (5,), (0, 2)):
        with pytest.raises(BadSubsystemError):
            dephasing_channel((2, 2), subsystems)
        with pytest.raises(BadSubsystemError):
            dephase(random_density((2, 2), 4, 0), subsystems)
    identity = dephasing_channel((2, 2), ())
    assert identity.n_outcomes == 1 and np.array_equal(identity.ops[0], np.eye(4))


# every public constructor that takes subsystem dims, given the dims to test
DIMS_CONSTRUCTORS = {
    "DensityMatrix": lambda dims: DensityMatrix(np.eye(1), dims),
    "KrausChannel": lambda dims: KrausChannel((np.eye(2),), dims, dims),
    "ProductKrausChannel-a": lambda dims: ProductKrausChannel(np.eye(2)[None], np.eye(2)[None], dims, (2,)),
    "ProductKrausChannel-b-out": lambda dims: ProductKrausChannel(
        np.eye(2)[None], np.eye(2)[None], (2,), (2,), None, dims),
    "LocalProtocol": lambda dims: LocalProtocol(dims, (2,), None),
    "identity_channel": identity_channel,
    "dephasing_channel": dephasing_channel,
    "complete_incoherent_kraus": lambda dims: complete_incoherent_kraus((np.eye(2),), (2,), dims),
    "random_incoherent_channel": lambda dims: random_incoherent_channel(dims, 2, 1),
    "random_instrument": lambda dims: random_instrument(dims, 2, 1),
    "random_sqi_channel": lambda dims: random_sqi_channel(dims, (2,), 1, 1),
    "random_licc_protocol": lambda dims: random_licc_protocol((2,), dims, 1, 1),
    "random_pure": lambda dims: random_pure(dims, 1),
    "random_density": lambda dims: random_density(dims, 1, 1),
    "random_qi_state": lambda dims: random_qi_state(dims, 1),
}


@pytest.mark.parametrize("dims", [(2, 0), (-2,)])
@pytest.mark.parametrize("build", DIMS_CONSTRUCTORS.values(), ids=DIMS_CONSTRUCTORS.keys())
def test_constructors_reject_non_positive_dims(build, dims):
    # one check, linalg's, not a 0x0 operator or a raw numpy error
    with pytest.raises(BadSubsystemError, match="invalid subsystem dimensions"):
        build(dims)


@pytest.mark.parametrize("dims", [(2.5, 2.9), (True, 2), (2.0,)])
@pytest.mark.parametrize("build", DIMS_CONSTRUCTORS.values(), ids=DIMS_CONSTRUCTORS.keys())
def test_constructors_reject_non_integer_dims(build, dims):
    # a float or a bool is rejected by name, never truncated to an int
    with pytest.raises(BadSubsystemError, match="subsystem dimension .* is not an integer"):
        build(dims)


def test_numpy_integer_dims_are_accepted_as_ints():
    rho = DensityMatrix(np.eye(4) / 4, np.array([2, 2]))
    channel = KrausChannel([np.eye(2)], (np.int32(2),), (np.uint8(2),))
    assert rho.dims == (2, 2) and channel.in_dims == (2,) == channel.out_dims
    assert all(type(d) is int for d in rho.dims + channel.in_dims + channel.out_dims)


def test_dephasing_channel_equals_dephase_on_every_selection():
    rng = np.random.default_rng(3)
    for _ in range(12):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 4))))
        rho = random_density(dims, math.prod(dims), int(rng.integers(2**63)))
        for k in range(len(dims) + 1):
            for subsystems in itertools.combinations(range(len(dims)), k):
                out = dephasing_channel(dims, subsystems).apply(rho)
                assert np.array_equal(out.mat, dephase(rho, subsystems).mat), (dims, subsystems)


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
    return ProductKrausChannel(*zip(*pairs), (2,), (3,), (3,), (2,))


def test_product_channel_completeness_is_joint():
    # A: 2 -> 3 and B: 3 -> 2 with pairs (s_k |w_k><k|, R_r / s_k): the Gram
    # sum is sum_k |k><k| (x) sum_r R_r'R_r = 1, but neither party's sum is
    # (8 |0><0| + 0.5 |1><1| on A, 4.25 on B)
    rng = np.random.default_rng(34)
    scales = (2.0, 0.5)
    raws = [rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) for _ in range(2)]
    gw, gv = np.linalg.eigh(sum(r.conj().T @ r for r in raws))
    b_parts = [r @ (gv / np.sqrt(gw)) @ gv.conj().T for r in raws]
    pairs = []
    for k, s in enumerate(scales):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a_op = s * np.outer(w / np.linalg.norm(w), np.eye(2)[k])
        pairs.extend((a_op, b / s) for b in b_parts)
    channel = ProductKrausChannel(*zip(*pairs), (2,), (3,), (3,), (2,))
    a_sum = sum(a.conj().T @ a for a, _ in channel.pairs)
    b_sum = sum(b.conj().T @ b for _, b in channel.pairs)
    assert np.abs(a_sum - np.diag([8.0, 0.5])).max() < 1e-12
    assert np.abs(b_sum - 4.25 * np.eye(3)).max() < 1e-12
    moved = [(a, b.copy()) for a, b in pairs]
    moved[0][1][0, 0] += 1e-6
    with pytest.raises(IncompleteChannelError):
        ProductKrausChannel(*zip(*moved), (2,), (3,), (3,), (2,))


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
    channel = ProductKrausChannel((HADAMARD,), (HADAMARD,), (2,), (2,))
    flags = classify(channel)
    assert flags.separable
    assert not flags.separable_quantum_incoherent
    assert not flags.separable_incoherent


def test_classify_sqi_but_not_si():
    # coherent on A, incoherent on B
    channel = ProductKrausChannel((HADAMARD,), (SIGMA_X,), (2,), (2,))
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


def test_random_incoherent_channel_matches_completion_of_its_draws():
    # the same draws as the generator, completed through M^{-1/2} by an
    # eigendecomposition; the generator rescales columns in closed form
    rng = np.random.default_rng(5)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        seed = int(rng.integers(2**63))
        draw = np.random.default_rng(seed)
        perms, re, im = (np.array(x) for x in zip(*(
            (draw.permutation(d), draw.standard_normal(d), draw.standard_normal(d))
            for _ in range(n)
        )))
        raws = np.zeros((n, d, d), dtype=complex)
        raws[np.arange(n)[:, None], perms, np.arange(d)] = re + 1j * im
        expected = complete_incoherent_kraus(raws, (d,)).ops
        assert np.abs(random_incoherent_channel((d,), n, seed).ops - expected).max() <= 1e-15


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
    assert len(leaves) == 1 and leaves[0][0] == float(np.trace(rho.mat).real)
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


def _depth_first_reference(node, mat, prob, transcript, a_dims, b_dims):
    """One branch at a time, depth first, with Kronecker-embedded operators:
    (probability, normalized state, transcript) per leaf, a leaf pruned
    when its probability is <= 1e-12."""
    if node is None:
        return [(prob, mat / prob, transcript)] if prob > 1e-12 else []
    leaves = []
    for outcome, op in enumerate(node.instrument.ops):
        if node.party == "A":
            emb = np.kron(op, np.eye(math.prod(b_dims)))
        else:
            emb = np.kron(np.eye(math.prod(a_dims)), op)
        post = emb @ mat @ emb.conj().T
        p = np.trace(post).real
        branch = None if node.branches is None else node.branches[outcome]
        leaves += _depth_first_reference(branch, post, p, transcript + ((node.party, outcome),),
                                         a_dims, b_dims)
    return leaves


def test_expansion_steps_each_round_once_on_a_stack(monkeypatch):
    import coherlab.channels as channels_module

    # three rounds of qutrit A and B instruments with three outcomes: 52
    # distinct rounds (1 + 3 + 3 + 9 + 9 + 27), 1092 operator branches
    protocol = random_sqi_channel((3,), (3,), 3, 7, n_outcomes=3)
    product = _random_product_channel(31)
    rho = random_density((3, 3), 9, 8)
    calls = {"apply_local": 0}
    apply_local = channels_module.apply_local

    def counting_apply_local(*args, **kwargs):
        calls["apply_local"] += 1
        return apply_local(*args, **kwargs)

    monkeypatch.setattr(channels_module, "apply_local", counting_apply_local)
    protocol.apply(rho)
    assert calls["apply_local"] == 52
    calls["apply_local"] = 0
    product.apply(random_density((2, 3), 6, 9))
    assert calls["apply_local"] == 2

    leaves = protocol.run(rho)
    reference = _depth_first_reference(protocol.root, rho.mat, 1.0, (), (3,), (3,))
    assert len(leaves) == len(reference) == 729
    assert [t for _, _, t in leaves] == [t for _, _, t in reference]
    for (p, state, _), (p_ref, mat_ref, _) in zip(leaves, reference):
        assert abs(p - p_ref) < 1e-12
        assert np.abs(state.mat - mat_ref).max() < 1e-10


def _assert_stacked_leaves_match_single(protocol, rhos):
    mats, probs, inputs, transcripts = protocol._leaves(np.stack([rho.mat for rho in rhos]), protocol.dims)
    start = 0
    for k, rho in enumerate(rhos):
        one_mats, one_probs, one_inputs, one_transcripts = protocol._leaves(rho.mat[None], rho.dims)
        stop = start + len(one_probs)
        assert inputs[start:stop].tolist() == [k] * len(one_probs)
        assert one_inputs.tolist() == [0] * len(one_probs)
        assert mats[start:stop].tobytes() == one_mats.tobytes()
        assert probs[start:stop].tobytes() == one_probs.tobytes()
        assert transcripts[start:stop] == one_transcripts
        start = stop
    assert start == len(probs)


def test_stacked_leaves_equal_single_input_expansions():
    protocol = random_sqi_channel((2,), (3,), 2, 17)
    rhos = [random_density((2, 3), rank, 40 + rank) for rank in range(1, 6)]
    _assert_stacked_leaves_match_single(protocol, rhos)


def test_stacked_leaves_prune_each_input_on_its_own():
    # A measures projectively in its incoherent basis, then B applies a
    # random incoherent instrument.  An incoherent input with A in |0> or
    # |1> prunes the other A outcome; the mixed inputs keep both.
    b_round = ProtocolRound("B", random_incoherent_channel((2,), 2, 3))
    protocol = LocalProtocol((2,), (2,), ProtocolRound("A", dephasing_channel((2,)),
                                                       (b_round, b_round)),
                             incoherent_parties=frozenset({"A", "B"}))
    diag = [DensityMatrix(np.diag(p).astype(complex), (2, 2))
            for p in ([1, 0, 0, 0], [0, 0, 0.4, 0.6], [0.25] * 4)]
    rhos = [diag[0], random_density((2, 2), 4, 1), diag[1], diag[2], random_density((2, 2), 2, 2)]
    _, _, inputs, _ = protocol._leaves(np.stack([rho.mat for rho in rhos]), protocol.dims)
    assert np.bincount(inputs).tolist() == [2, 4, 2, 4, 4]
    _assert_stacked_leaves_match_single(protocol, rhos)


def test_script_and_product_form_prune_the_same_leaves():
    # A dephases, then B dephases on each branch.  The last leaf has
    # probability delta**2 = 1e-14: it passes a test relative to its
    # parent's 1e-7, but not the instrument rule, so neither form fires it.
    delta = 1e-7
    marginal = np.diag([1 - delta, delta])
    rho = DensityMatrix(np.kron(marginal, marginal).astype(complex), (2, 2))
    b_round = ProtocolRound("B", dephasing_channel((2,)))
    protocol = LocalProtocol((2,), (2,), ProtocolRound("A", dephasing_channel((2,)),
                                                       (b_round, b_round)),
                             incoherent_parties=frozenset({"A", "B"}))
    transcripts = [(("A", a), ("B", b)) for a in range(2) for b in range(2)]
    leaves = protocol.run(rho)
    outcomes = protocol.to_product().apply_instrument(rho)
    assert [t for _, _, t in leaves] == [transcripts[o.outcome] for o in outcomes]
    assert [t for _, _, t in leaves] == transcripts[:3]
    for (p, state, _), o in zip(leaves, outcomes):
        assert abs(p - o.probability) < 1e-15
        assert np.abs(state.mat - o.state.mat).max() < 1e-12


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



def test_scripts_of_one_shape_step_as_one_stack():
    # scripts[i] on rhos[i]: each output is the script's own apply, bit for bit
    from coherlab.channels import _outputs, _pair_posts, _products

    for rounds, n_outcomes in ((1, 2), (2, 3)):
        scripts = [random_sqi_channel((2,), (3,), rounds, seed, n_outcomes=n_outcomes) for seed in range(6)]
        rhos = [random_density((2, 3), 1 + seed, 50 + seed) for seed in range(6)]
        outs = _outputs(scripts, np.stack([rho.mat for rho in rhos]), (2, 3))
        for out, script, rho in zip(outs, scripts, rhos):
            assert out.tobytes() == script.apply(rho).mat.tobytes()
        a_ops, b_ops, _ = _products(scripts)
        outs = _pair_posts(np.stack([rho.mat for rho in rhos])[:, None], a_ops, b_ops).sum(axis=1)
        for out, script, rho in zip(outs, scripts, rhos):
            assert out.tobytes() == script.to_product().apply(rho).mat.tobytes()


def test_scripts_of_different_shapes_do_not_stack():
    from coherlab.channels import _outputs, _products

    rho = random_density((2, 2), 4, 0).mat
    mixed = [random_sqi_channel((2,), (2,), 1, 0), random_sqi_channel((2,), (2,), 2, 1)]
    with pytest.raises(DimensionMismatchError, match="one shape"):
        _outputs(mixed, np.stack([rho, rho]), (2, 2))
    with pytest.raises(DimensionMismatchError, match="one shape"):
        _products(mixed)
    with pytest.raises(DimensionMismatchError, match="state dims"):
        random_sqi_channel((2,), (2,), 1, 0)._leaves(rho[None], (4,))


@pytest.mark.parametrize("rounds", [2, 3])
@pytest.mark.parametrize("random_script", [random_sqi_channel, random_licc_protocol],
                         ids=["lqicc", "licc"])
def test_run_equals_the_product_forms_instrument(random_script, rounds):
    # random scripts alternate A and B rounds, so the depth-first order of
    # the leaves is the lexicographic order of their outcome tuples
    transcripts = [tuple(zip("AB" * rounds, outcomes))
                   for outcomes in itertools.product(range(2), repeat=2 * rounds)]
    for seed in range(4):
        protocol = random_script((2,), (2,), rounds, seed)
        rho = random_density((2, 2), 1 + seed, 70 + seed)
        leaves = protocol.run(rho)
        outcomes = protocol.to_product().apply_instrument(rho)
        assert [t for _, _, t in leaves] == [transcripts[o.outcome] for o in outcomes]
        for (p, state, _), o in zip(leaves, outcomes):
            assert abs(p - o.probability) <= 1e-15
            assert np.abs(state.mat - o.state.mat).max() <= 1e-12


def test_run_checks_the_summed_leaf_probabilities():
    # a trace-decreasing round, built past the completeness check
    protocol = random_sqi_channel((2,), (2,), 1, 3)
    leak = protocol.root.branches[0].instrument
    vars(leak)["ops"] = leak.ops * 0.5
    with pytest.raises(IncompleteChannelError, match="leaf probabilities sum to"):
        protocol.run(random_density((2, 2), 4, 1))


# ---------------------------------------------------------------------------
# random scripts drawn as stacks


def _reference_incoherent_ops(d, n, seed):
    """A random incoherent channel's operators, drawn and completed one
    channel at a time, as ``random_incoherent_channel`` did before random
    channels were drawn as stacks."""
    rng = np.random.default_rng(seed)
    for _ in range(16):
        perms, re, im = (np.array(x) for x in zip(*(
            (rng.permutation(d), rng.standard_normal(d), rng.standard_normal(d)) for _ in range(n)
        )))
        amps = re + 1j * im
        colnorm2 = (re**2 + im**2).sum(axis=0)
        if colnorm2.min() < 1e-12:
            continue
        ops = np.zeros((n, d, d), dtype=complex)
        ops[np.arange(n)[:, None], perms, np.arange(d)] = amps * (1.0 / np.sqrt(colnorm2))
        return KrausChannel(ops, (d,), (d,)).ops
    raise SingularNormalizerError("failed to draw a nonsingular incoherent family in 16 attempts")


def _reference_instrument_ops(d, n, seed):
    """A random general instrument's operators, one at a time, as
    ``random_instrument`` drew them before."""
    parts = np.random.default_rng(seed).standard_normal((n, 2, d, d))
    raws = parts[:, 0] + 1j * parts[:, 1]
    w, v = np.linalg.eigh((raws.conj().transpose(0, 2, 1) @ raws).sum(axis=0))
    inv_sqrt = (v / np.sqrt(np.maximum(w, 1e-14))) @ v.conj().T
    return KrausChannel(raws @ inv_sqrt, (d,), (d,)).ops


def _reference_script_rounds(rng, rounds, n, incoherent_a, d_a, d_b):
    """(party, operators) of each instrument of a random script, built node
    by node on the script's generator: A's seed and instrument, then per A
    outcome B's seed and instrument followed by that outcome's
    continuation."""
    draw_a = _reference_incoherent_ops if incoherent_a else _reference_instrument_ops
    found = [("A", draw_a(d_a, n, rng.integers(2**63)))]
    for _ in range(n):
        found.append(("B", _reference_incoherent_ops(d_b, n, rng.integers(2**63))))
        if rounds > 1:
            found += _reference_script_rounds(rng, rounds - 1, n, incoherent_a, d_a, d_b)
    return found


def _script_rounds(node):
    """(party, operators) of each instrument of a random script in the
    same order: A, then per A outcome B followed by its continuation."""
    found = [(node.party, node.instrument.ops)]
    for b_round in node.branches:
        found.append((b_round.party, b_round.instrument.ops))
        if b_round.branches is not None:
            found += _script_rounds(b_round.branches[0])
    return found


SCRIPT_SHAPES = [((2,), (2,), 1, 2), ((3,), (3,), 3, 3), ((2,), (3,), 2, 3)]


@pytest.mark.parametrize("a_dims,b_dims,rounds,n", SCRIPT_SHAPES)
@pytest.mark.parametrize("incoherent_a", [False, True], ids=["lqicc", "licc"])
def test_stacked_script_draws_name_the_reference_channels(a_dims, b_dims, rounds, n, incoherent_a):
    from coherlab.channels import _random_scripts

    random_script = random_licc_protocol if incoherent_a else random_sqi_channel
    seeds = range(50)
    references, reference_rngs = [], [np.random.default_rng(seed) for seed in seeds]
    for rng in reference_rngs:
        references.append(_reference_script_rounds(rng, rounds, n, incoherent_a, a_dims[0], b_dims[0]))
    single_rngs = [np.random.default_rng(seed) for seed in seeds]
    singles = [random_script(a_dims, b_dims, rounds, rng, n_outcomes=n) for rng in single_rngs]
    stacked_rngs = [np.random.default_rng(seed) for seed in seeds]
    stacked = _random_scripts(a_dims, b_dims, rounds, stacked_rngs, incoherent_a, n)
    for reference, single, script in zip(references, singles, stacked):
        for found in (_script_rounds(single.root), _script_rounds(script.root)):
            assert [party for party, _ in found] == [party for party, _ in reference]
            assert all(ops.tobytes() == ref.tobytes() for (_, ops), (_, ref) in zip(found, reference))
        assert script.incoherent_parties == single.incoherent_parties
    # each script's generator is left where the node-by-node build leaves it
    for rngs in (single_rngs, stacked_rngs):
        assert [rng.bit_generator.state for rng in rngs] == [
            rng.bit_generator.state for rng in reference_rngs]


def test_random_single_channels_name_the_reference_channels():
    for seed in range(50):
        for d, n in ((1, 2), (2, 1), (3, 3), (4, 2)):
            assert (random_incoherent_channel((d,), n, seed).ops.tobytes()
                    == _reference_incoherent_ops(d, n, seed).tobytes())
            assert random_instrument((d,), n, seed).ops.tobytes() == _reference_instrument_ops(d, n, seed).tobytes()


def test_incoherent_draw_retries_a_singular_family_on_its_own_generator(monkeypatch):
    import coherlab.channels as channels_module

    # every family's first draw comes out with all amplitudes zero; each is
    # drawn again from its own generator, the later draws as they come
    draw = channels_module._incoherent_draw
    first = set()

    def singular_first(rng, d, n):
        perms, re, im = draw(rng, d, n)
        if id(rng) not in first:
            first.add(id(rng))
            return perms, 0 * re, 0 * im
        return perms, re, im

    monkeypatch.setattr(channels_module, "_incoherent_draw", singular_first)
    channels = channels_module._random_incoherent_channels((3,), 2, [4, 5, 6])
    for seed, channel in zip((4, 5, 6), channels):
        rng = np.random.default_rng(seed)
        draw(rng, 3, 2)
        perms, re, im = draw(rng, 3, 2)
        expected = np.zeros((2, 3, 3), dtype=complex)
        expected[np.arange(2)[:, None], perms, np.arange(3)] = (
            (re + 1j * im) / np.sqrt((re**2 + im**2).sum(axis=0)))
        assert np.abs(channel.ops - expected).max() <= 1e-15
        assert channel.is_incoherent()

    monkeypatch.setattr(channels_module, "_incoherent_draw",
                        lambda rng, d, n: tuple(0 * x for x in draw(rng, d, n)))
    with pytest.raises(SingularNormalizerError, match="16 attempts"):
        random_incoherent_channel((3,), 2, 0)


def test_incoherent_redraw_in_a_hashed_stack_uses_its_own_generator(monkeypatch):
    import coherlab.channels as channels_module

    # in a stack of 20, the family of seed index 7 first comes out with a
    # zero column; it is drawn again from its own generator after the other
    # 19 generators were read, and equals what that seed gives alone
    draw, seeds, singular = channels_module._incoherent_draw, list(range(100, 120)), 7

    def zero_column_at(index):
        calls = []

        def patched(rng, d, n):
            perms, re, im = draw(rng, d, n)
            calls.append(rng)
            if len(calls) - 1 == index:
                re, im = re.copy(), im.copy()
                re[:, 1] = im[:, 1] = 0.0
            return perms, re, im
        return patched, calls

    patched, calls = zero_column_at(singular)
    monkeypatch.setattr(channels_module, "_incoherent_draw", patched)
    stacked = channels_module._random_incoherent_channels((3,), 2, seeds)
    assert len(calls) == 21 and calls[20] is calls[singular]
    patched, _ = zero_column_at(0)
    monkeypatch.setattr(channels_module, "_incoherent_draw", patched)
    alone = channels_module._random_incoherent_channels((3,), 2, [seeds[singular]])[0]
    monkeypatch.setattr(channels_module, "_incoherent_draw", draw)
    assert stacked[singular].ops.tobytes() == alone.ops.tobytes()
    assert alone.ops.tobytes() != random_incoherent_channel((3,), 2, seeds[singular]).ops.tobytes()
    for k, seed in enumerate(seeds):
        if k != singular:
            assert stacked[k].ops.tobytes() == random_incoherent_channel((3,), 2, seed).ops.tobytes()


def _bad_family(kind):
    ops = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    if kind == "finite":
        ops[1, 0, 1] = np.nan
    elif kind == "complete":
        ops *= 0.5
    else:
        ops = np.stack([np.eye(3), np.zeros((3, 3))]).astype(complex)
    return ops


@pytest.mark.parametrize("kind,error,message", [
    ("finite", IncompleteChannelError, "operator has a non-finite"),
    ("complete", IncompleteChannelError, "completeness residual"),
    ("shape", DimensionMismatchError, "Kraus operator shape (3, 3)"),
])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_kraus_stack_names_the_first_failing_channel(kind, error, message, k):
    from coherlab.channels import _channel_stacks

    families = [random_incoherent_channel((2,), 2, seed).ops for seed in range(5)]
    families[k] = _bad_family(kind)
    if k < 4:
        families[4] = _bad_family(kind)
    with pytest.raises(error) as single:
        KrausChannel(families[k], (2,), (2,))
    assert str(single.value).startswith(message)
    with pytest.raises(error) as stacked:
        _channel_stacks([families], [(2, 2)])
    assert str(stacked.value) == f"channel {k}: {single.value}"
    with pytest.raises(error) as alone:
        _channel_stacks([[families[k]]], [(2, 2)])
    assert str(alone.value) == str(single.value)


def test_kraus_stack_checks_each_channel_and_freezes_the_stack():
    from coherlab.channels import _channel_stacks

    families = [random_instrument((3,), 2, seed).ops for seed in range(4)]
    stack, = _channel_stacks([families], [(3, 3)])
    assert stack.shape == (4, 2, 3, 3) and not stack.flags.writeable
    assert stack.tobytes() == np.stack(families).tobytes()
    with pytest.raises(DimensionMismatchError, match="operator count"):
        _channel_stacks([[families[0], families[1][:1]]], [(3, 3)])


def _bad_pairs(kind, a_ops, b_ops):
    """A copy of a product channel's (A, B) stacks on (2,) x (2,) that
    fails one of its checks."""
    a_ops, b_ops = a_ops.copy(), b_ops.copy()
    if kind == "finite":
        b_ops[1, 0, 1] = np.inf
    elif kind == "complete":
        a_ops *= 0.5
    elif kind == "shape":
        a_ops = np.zeros((len(a_ops), 3, 3), dtype=complex)
    else:
        a_ops = a_ops[:-1]
    return a_ops, b_ops


@pytest.mark.parametrize("kind,error,message", [
    ("finite", IncompleteChannelError, "operator has a non-finite"),
    ("complete", IncompleteChannelError, "completeness residual"),
    ("shape", DimensionMismatchError, "Kraus operator shape (3, 3)"),
    ("length", DimensionMismatchError, "3 A operators but 4 B operators"),
])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_product_stack_names_the_first_failing_channel(kind, error, message, k):
    from coherlab.channels import _channel_stacks

    products = [random_sqi_channel((2,), (2,), 1, seed).to_product() for seed in range(5)]
    a_families, b_families = [p.a_ops for p in products], [p.b_ops for p in products]
    for i in {k, 4}:
        a_families[i], b_families[i] = _bad_pairs(kind, a_families[i], b_families[i])
    with pytest.raises(error) as single:
        ProductKrausChannel(a_families[k], b_families[k], (2,), (2,))
    assert str(single.value).startswith(message)
    with pytest.raises(error) as stacked:
        _channel_stacks([a_families, b_families], [(2, 2), (2, 2)])
    assert str(stacked.value) == f"channel {k}: {single.value}"
    with pytest.raises(error) as alone:
        _channel_stacks([[a_families[k]], [b_families[k]]], [(2, 2), (2, 2)])
    assert str(alone.value) == str(single.value)


def test_product_stack_checks_each_channel_and_freezes_the_stacks():
    from coherlab.channels import _channel_stacks

    products = [random_licc_protocol((2,), (3,), 2, seed).to_product() for seed in range(4)]
    a_ops, b_ops = _channel_stacks([[p.a_ops for p in products], [p.b_ops for p in products]],
                                   [(2, 2), (3, 3)])
    assert a_ops.shape == (4, 16, 2, 2) and b_ops.shape == (4, 16, 3, 3)
    assert not (a_ops.flags.writeable or b_ops.flags.writeable)
    assert a_ops.tobytes() == np.stack([p.a_ops for p in products]).tobytes()
    assert b_ops.tobytes() == np.stack([p.b_ops for p in products]).tobytes()
    with pytest.raises(DimensionMismatchError, match="operator count"):
        _channel_stacks([[products[0].a_ops, products[1].a_ops[:4]],
                         [products[0].b_ops, products[1].b_ops[:4]]], [(2, 2), (3, 3)])


def test_channel_stacks_name_the_first_channel_whichever_party_fails():
    # channel 0 fails on B (a non-finite entry) and channel 1 on A (its
    # shape): channel 0 is named, as checking the channels in order names it
    from coherlab.channels import _channel_stacks

    products = [random_sqi_channel((2,), (2,), 1, seed).to_product() for seed in range(2)]
    a_families, b_families = [p.a_ops for p in products], [p.b_ops for p in products]
    a_families[0], b_families[0] = _bad_pairs("finite", a_families[0], b_families[0])
    a_families[1], b_families[1] = _bad_pairs("shape", a_families[1], b_families[1])
    with pytest.raises(IncompleteChannelError, match=r"^channel 0: operator has a non-finite"):
        _channel_stacks([a_families, b_families], [(2, 2), (2, 2)])


def _reference_pairs(script):
    """A script's product form, composed branch by branch: the (A, B)
    operators of each leaf in depth-first order."""
    leaves = []

    def walk(node, a, b):
        if node is None:
            leaves.append((a, b))
            return
        for outcome, op in enumerate(node.instrument.ops @ (a if node.party == "A" else b)):
            nxt = None if node.branches is None else node.branches[outcome]
            if node.party == "A":
                walk(nxt, op, b)
            else:
                walk(nxt, a, op)

    walk(script.root, np.eye(math.prod(script.a_dims), dtype=complex),
         np.eye(math.prod(script.b_dims), dtype=complex))
    return np.array([a for a, _ in leaves]), np.array([b for _, b in leaves])


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("random_script", [random_sqi_channel, random_licc_protocol],
                         ids=["lqicc", "licc"])
def test_products_compile_each_script_as_its_own_product_form(random_script, rounds):
    # one stack of 50 scripts, each channel equal byte for byte to the
    # script's to_product and to its branch-by-branch composition
    from coherlab.channels import _products

    scripts = [random_script((2,), (3,), rounds, seed) for seed in range(50)]
    a_stack, b_stack, transcripts = _products(scripts)
    assert a_stack.shape == (50, 4**rounds, 2, 2) and len(transcripts) == 4**rounds
    assert not (a_stack.flags.writeable or b_stack.flags.writeable)
    for a_ops, b_ops, script in zip(a_stack, b_stack, scripts):
        product = script.to_product()
        reference = _reference_pairs(script)
        assert a_ops.tobytes() == product.a_ops.tobytes() == reference[0].tobytes()
        assert b_ops.tobytes() == product.b_ops.tobytes() == reference[1].tobytes()
        # the script's product form is compiled once and reused
        assert script._product_form[0] is script._product_form[0]
        assert script.to_product().a_ops.tobytes() == product.a_ops.tobytes()


def test_script_checks_each_restricted_party_in_one_call(monkeypatch):
    import coherlab.channels as channels_module

    calls = []
    predicate = channels_module.is_incoherent_operator

    def counting_predicate(ops, *args, **kwargs):
        calls.append(math.prod(np.shape(ops)[:-2]))  # operators checked
        return predicate(ops, *args, **kwargs)

    monkeypatch.setattr(channels_module, "is_incoherent_operator", counting_predicate)
    # 13 A and 39 B instruments of 3 operators each; the stacked draw checks
    # each restricted party's, and the script does not check them again
    random_sqi_channel((3,), (3,), 3, 7, n_outcomes=3)
    assert calls == [39 * 3]
    calls.clear()
    random_licc_protocol((3,), (3,), 3, 7, n_outcomes=3)
    assert calls == [13 * 3, 39 * 3]


@pytest.mark.parametrize("incoherent_a", [False, True])
def test_drawn_scripts_equal_scripts_built_the_checked_way(incoherent_a):
    # _random_scripts builds its scripts past LocalProtocol.__post_init__;
    # the same roots wrapped by the constructor give the same rounds, shape
    # and outputs
    from coherlab.channels import LocalProtocol, _outputs, _random_scripts

    for rounds in (1, 2, 3):
        seeds = list(range(10 * rounds, 10 * rounds + 6))
        drawn = _random_scripts((2,), (3,), rounds, seeds, incoherent_a=incoherent_a, n_outcomes=2)
        checked = [LocalProtocol(s.a_dims, s.b_dims, s.root, s.incoherent_parties) for s in drawn]
        for script, reference in zip(drawn, checked):
            assert script._rounds == reference._rounds
            assert script._shape() == reference._shape()
            assert (script.a_dims, script.b_dims, script.incoherent_parties) == (
                reference.a_dims, reference.b_dims, reference.incoherent_parties)
        mats = np.stack([random_density((2, 3), 6, seed).mat for seed in seeds])
        assert _outputs(drawn, mats, (2, 3)).tobytes() == _outputs(checked, mats, (2, 3)).tobytes()


# ---------------------------------------------------------------------------
# the merged apply


def _pruning_script():
    """A dephases, then B applies a random incoherent instrument: on an
    incoherent input with A in a basis state, one A outcome never fires."""
    b_round = ProtocolRound("B", random_incoherent_channel((2,), 2, 3))
    return LocalProtocol((2,), (2,), ProtocolRound("A", dephasing_channel((2,)), (b_round, b_round)),
                         incoherent_parties=frozenset({"A", "B"}))


@pytest.mark.parametrize("case", ["qutrit-3-rounds", "licc-2-rounds", "six-scripts", "pruned"])
def test_merged_outputs_equal_the_leaf_sum(case):
    # the reference is the sum of the product forms' unsummed posts
    from coherlab.channels import _outputs, _pair_posts, _products

    if case == "six-scripts":
        scripts = [random_sqi_channel((2,), (3,), 2, seed, n_outcomes=3) for seed in range(6)]
        mats = np.stack([random_density((2, 3), 1 + seed, 60 + seed).mat for seed in range(6)])
    elif case == "pruned":
        scripts = [_pruning_script()]
        mats = np.diag([0.0, 0.0, 0.3, 0.7]).astype(complex)[None]
        rho = DensityMatrix(mats[0], (2, 2))
        product = scripts[0].to_product()
        assert product.n_outcomes - len(product.apply_instrument(rho)) == 2
    else:
        qutrit = case == "qutrit-3-rounds"
        scripts = [random_sqi_channel((3,), (3,), 3, 7, n_outcomes=3) if qutrit
                   else random_licc_protocol((2,), (2,), 2, 5)]
        mats = random_density(scripts[0].dims, math.prod(scripts[0].dims), 8).mat[None]
    dims = scripts[0].dims
    a_ops, b_ops, _ = _products(scripts)
    leaves = _pair_posts(mats[:, None], a_ops, b_ops)
    if case == "qutrit-3-rounds":
        assert leaves.shape[1] == 729
    assert np.abs(_outputs(scripts, mats, dims) - leaves.sum(axis=1)).max() <= 1e-14


def test_merged_apply_steps_each_round_on_one_matrix_per_input(monkeypatch):
    import coherlab.channels as channels_module

    protocol = random_sqi_channel((3,), (3,), 3, 7, n_outcomes=3)
    rho = random_density((3, 3), 9, 8)
    shapes = []
    apply_local = channels_module.apply_local

    def recording_apply_local(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return apply_local(m, *args, **kwargs)

    monkeypatch.setattr(channels_module, "apply_local", recording_apply_local)
    protocol.apply(rho)
    assert shapes == [(1, 9, 9)] * 52


def test_merged_outputs_check_the_summed_trace():
    from coherlab.channels import _outputs

    # a trace-decreasing round, built past the completeness check
    protocol = random_sqi_channel((2,), (2,), 1, 3)
    leak = protocol.root.branches[0].instrument
    vars(leak)["ops"] = leak.ops * 0.5
    with pytest.raises(IncompleteChannelError, match="leaf probabilities sum to"):
        _outputs([protocol], random_density((2, 2), 4, 1).mat[None], (2, 2))


def _unit_rows(rng, n, d):
    vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _vector_kernel_pairs():
    # the teleport script's pairs, the domino channel's rectangular (9 x 3)
    # pairs, and random rectangular product pairs (A 3 x 2, B 4 x 3), scaled
    # so that every entry is O(1) or smaller
    from coherlab.protocols import _DOMINO_CHANNEL, _TELEPORT

    a_ops, b_ops, _ = _TELEPORT._product_form
    yield pytest.param(a_ops, b_ops, id="teleport")
    yield pytest.param(_DOMINO_CHANNEL.a_ops, _DOMINO_CHANNEL.b_ops, id="domino")
    rng = np.random.default_rng(3)
    for seed in range(5):
        a, b = (rng.standard_normal((6, p, q)) + 1j * rng.standard_normal((6, p, q)) for p, q in ((3, 2), (4, 3)))
        yield pytest.param(a / np.linalg.norm(a), b / np.linalg.norm(b), id=f"random-{seed}")


@pytest.mark.parametrize("a_ops, b_ops", list(_vector_kernel_pairs()))
def test_pair_vectors_equal_the_density_route(a_ops, b_ops):
    # (A x B) psi against (A x B) psi psi' (A x B)' in both broadcast forms:
    # every pair on every input, and pair k on input k
    from coherlab.channels import _pair_posts, _pair_vectors

    vecs = _unit_rows(np.random.default_rng(11), len(a_ops) + 3, a_ops.shape[-1] * b_ops.shape[-1])
    rhos = vecs[:, :, None] * vecs.conj()[:, None]
    every = _pair_vectors(vecs[:, None], a_ops, b_ops)
    assert every.shape == (len(vecs), len(a_ops), a_ops.shape[-2] * b_ops.shape[-2])
    outer = every[..., :, None] * every.conj()[..., None, :]
    assert np.abs(outer - _pair_posts(rhos[:, None], a_ops, b_ops)).max() <= 1e-15
    matching = _pair_vectors(vecs[:len(a_ops)], a_ops, b_ops)
    outer = matching[..., :, None] * matching.conj()[..., None, :]
    assert np.abs(outer - _pair_posts(rhos[:len(a_ops)], a_ops, b_ops)).max() <= 1e-15
    # pair k on input k is the diagonal of every pair on every input
    assert matching.tobytes() == every[np.arange(len(a_ops)), np.arange(len(a_ops))].tobytes()


@pytest.mark.parametrize("a_ops, b_ops", list(_vector_kernel_pairs()))
def test_stacked_pair_vectors_equal_single_inputs(a_ops, b_ops):
    # a stack of n inputs against n calls on one input each, bit for bit
    from coherlab.channels import _pair_vectors

    vecs = _unit_rows(np.random.default_rng(12), 20, a_ops.shape[-1] * b_ops.shape[-1])
    stacked = _pair_vectors(vecs[:, None], a_ops, b_ops)
    assert stacked.tobytes() == np.stack([_pair_vectors(v, a_ops, b_ops) for v in vecs]).tobytes()
    assert stacked.tobytes() == np.stack([_pair_vectors(v[None], a_ops, b_ops) for v in vecs]).tobytes()


def test_script_stacks_leave_no_cyclic_garbage():
    # drawing, compiling and running scripts frees everything by reference
    # counting: a recursive closure would be a cycle holding every round,
    # operator and leaf it reached until the cyclic collector runs
    import gc

    from coherlab.channels import _outputs, _products, _random_scripts
    from coherlab.states import random_density

    rho = random_density((2, 2), 4, 1)
    gc.collect()
    gc.disable()
    try:
        for incoherent_a in (False, True):
            scripts = _random_scripts((2,), (2,), 2, list(range(6)), incoherent_a=incoherent_a, n_outcomes=2)
            _products(scripts)
            _outputs(scripts, np.repeat(rho.mat[None], 6, axis=0), (2, 2))
            scripts[0].run(rho)
            del scripts
        assert gc.collect() == 0
    finally:
        gc.enable()
