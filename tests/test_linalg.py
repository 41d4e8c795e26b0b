"""Kernel tests: every derived value is checked against an independent
brute-force oracle written in the tests (``conftest.ptrace_oracle`` for
the partial trace), not against the implementation."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherlab.exceptions import (
    BadSubsystemError,
    DimensionMismatchError,
    InvalidStateError,
    NonHermitianError,
)
from coherlab.linalg import (
    DensityMatrix,
    PureState,
    apply_local,
    eig_hermitian,
    partial_trace,
    permute_subsystems,
    relative_entropy,
    trace_norm,
    von_neumann_entropy,
)
from coherlab.states import SIGMA_X, random_density, random_pure, random_unitary

from conftest import ptrace_oracle, rand_hermitian


# ---------------------------------------------------------------------------
# eig_hermitian


def test_eig_identity():
    w, v = eig_hermitian(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2))


def test_eig_pauli_x():
    w, v = eig_hermitian(SIGMA_X)
    assert np.allclose(w, [1.0, -1.0])
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    assert abs(abs(np.vdot(plus, v[:, 0])) - 1.0) < 1e-12
    assert abs(abs(np.vdot(minus, v[:, 1])) - 1.0) < 1e-12


def test_eig_reconstruction_6x6(rng):
    h = rand_hermitian(rng, 6)
    w, v = eig_hermitian(h)
    assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-10
    assert (np.diff(w) <= 1e-12).all()  # descending


def test_eig_roundtrip_500_instances():
    rng = np.random.default_rng(7)
    for _ in range(500):
        d = int(rng.integers(1, 13))
        h = rand_hermitian(rng, d)
        w, v = eig_hermitian(h)
        assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() <= 1e-10
        assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# partial trace


def test_ptrace_product_state(rng):
    rho_a = random_density((2,), 2, 1)
    rho_b = random_density((3,), 3, 2)
    joint = rho_a.tensor(rho_b)
    out = partial_trace(joint, {1})
    assert np.abs(out.mat - rho_b.mat).max() < 1e-12


def test_ptrace_bell_marginal():
    bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2)).to_density()
    out = partial_trace(bell, {0})
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12


def test_ptrace_matches_contraction_oracle():
    rho = random_density((2, 3), 6, 11)
    out = partial_trace(rho, {0})
    assert np.abs(out.mat - ptrace_oracle(rho.mat, rho.dims, [0])).max() < 1e-12
    out_b = partial_trace(rho, {1})
    assert np.abs(out_b.mat - ptrace_oracle(rho.mat, rho.dims, [1])).max() < 1e-12


def test_ptrace_three_party_order_preserved():
    rho = random_density((2, 3, 2), 5, 3)
    out = partial_trace(rho, {0, 2})
    assert out.dims == (2, 2)
    assert np.abs(out.mat - ptrace_oracle(rho.mat, rho.dims, [0, 2])).max() < 1e-12


def _every_keep(dims):
    n = len(dims)
    return [(dims, keep) for r in range(1, n + 1) for keep in itertools.combinations(range(n), r)]


# 62 subsystems, more than einsum has labels, of which two are nontrivial
UNIT_PADDED = ((1,) * 30 + (2,) + (1,) * 30 + (3,), (0, 31, 61))


@pytest.mark.parametrize("dims,keep", _every_keep((2, 3, 2)) + _every_keep((2, 1, 3, 2)) + [UNIT_PADDED])
def test_ptrace_matches_contraction_oracle_on_every_keep(dims, keep):
    # non-contiguous keeps, keeping everything and dimensions of 1
    rho = random_density(dims, 4, 23)
    out = partial_trace(rho, set(keep))
    assert out.dims == tuple(dims[i] for i in keep)
    assert np.abs(out.mat - ptrace_oracle(rho.mat, rho.dims, keep)).max() < 1e-12


@pytest.mark.parametrize("dims,keep", [((2, 3, 2), (1,)), ((2, 3, 2), (0, 2)), ((9, 9, 9), (0,)),
                                       ((2, 1, 3, 2), (1, 3)), ((2, 2, 2, 2), (0, 2))])
def test_ptrace_stack_equals_single_calls_bit_for_bit(dims, keep):
    from coherlab.linalg import _partial_traces

    mats = np.array([random_density(dims, 3, seed).mat for seed in range(5)])
    stacked, kept_dims = _partial_traces(mats, dims, keep)
    assert kept_dims == tuple(dims[i] for i in keep)
    for mat, reduced in zip(mats, stacked):
        single, _ = _partial_traces(mat[None], dims, keep)
        assert single[0].tobytes() == reduced.tobytes()


def test_ptrace_bad_index():
    rho = random_density((2, 2), 2, 0)
    with pytest.raises(BadSubsystemError):
        partial_trace(rho, {5})
    with pytest.raises(BadSubsystemError):
        partial_trace(rho, set())


@pytest.mark.parametrize("index", [0.7, 1.0, True, np.float64(0.0), "1", None])
def test_subsystem_indices_must_be_integers(index):
    # int() would truncate 0.7 to 0 and keep, or move, subsystem 0
    rho = random_density((2, 2), 2, 0)
    message = rf"^subsystem index {re.escape(repr(index))} is not an integer$"
    with pytest.raises(BadSubsystemError, match=message):
        partial_trace(rho, [index])
    with pytest.raises(BadSubsystemError, match=message):
        permute_subsystems(rho, (1, index))


def test_ptrace_takes_numpy_integers():
    rho = random_density((2, 3), 3, 4)
    assert partial_trace(rho, [np.int64(1)]).mat.tobytes() == partial_trace(rho, [1]).mat.tobytes()
    assert partial_trace(rho, np.arange(1, 2, dtype=np.int32)).dims == (3,)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), da=st.integers(2, 3), db=st.integers(2, 4))
def test_ptrace_preserves_trace_and_psd(seed, da, db):
    rho = random_density((da, db), da * db, seed)
    out = partial_trace(rho, {0})
    assert abs(np.trace(out.mat) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out.mat)[0] > -1e-12


# ---------------------------------------------------------------------------
# local operator action


@pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 3)])
@pytest.mark.parametrize("after", [1, 2, 3])
@pytest.mark.parametrize("before", [1, 2, 3])
def test_apply_local_matches_kronecker_embedding(rng, before, after, shape):
    p, q = shape
    d = before * q * after
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    k = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    embedded = np.kron(np.kron(np.eye(before), k), np.eye(after))
    out = apply_local(m, k, before, after)
    assert out.shape == (before * p * after,) * 2
    assert np.abs(out - embedded @ m @ embedded.conj().T).max() < 1e-12

    def kronecker(mat, op):
        emb = np.kron(np.kron(np.eye(before), op), np.eye(after))
        return emb @ mat @ emb.conj().T

    # stacked inputs broadcast over their leading axes
    ks = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
    ms = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    cases = [
        (apply_local(m, ks, before, after), [kronecker(m, op) for op in ks]),
        (apply_local(ms, k, before, after), [kronecker(mat, k) for mat in ms]),
        (apply_local(ms, ks, before, after), [kronecker(mat, op) for mat, op in zip(ms, ks)]),
        (apply_local(ms, ks[:, None], before, after).reshape(9, *out.shape),
         [kronecker(mat, op) for op in ks for mat in ms]),
    ]
    for stacked, expected in cases:
        assert stacked.shape == (len(expected),) + out.shape
        for got, ref in zip(stacked, expected):
            assert np.abs(got - ref).max() < 1e-12


def test_apply_local_rejects_wrong_order():
    with pytest.raises(DimensionMismatchError):
        apply_local(np.eye(6), np.eye(2), before=2, after=2)
    with pytest.raises(DimensionMismatchError):
        apply_local(np.eye(6), np.stack([np.eye(2)] * 3), before=2, after=2)


# ---------------------------------------------------------------------------
# permutation


def test_permute_subsystems_roundtrip():
    rho = random_density((2, 3, 2), 7, 9)
    out = permute_subsystems(rho, (2, 0, 1))
    assert out.dims == (2, 2, 3)
    back = permute_subsystems(out, (1, 2, 0))
    assert np.abs(back.mat - rho.mat).max() < 1e-12


def test_permute_swaps_product_factors():
    rho_a = random_density((2,), 2, 4)
    rho_b = random_density((3,), 2, 5)
    joint = rho_a.tensor(rho_b)
    swapped = permute_subsystems(joint, (1, 0))
    assert np.abs(swapped.mat - np.kron(rho_b.mat, rho_a.mat)).max() < 1e-12


# ---------------------------------------------------------------------------
# trace norm


def test_trace_norm_zero():
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_density_is_one():
    rho = random_density((2, 2), 3, 21)
    assert abs(trace_norm(rho.mat) - 1.0) < 1e-12


def test_trace_norm_matches_eigenvalue_oracle():
    rho = random_density((2,), 2, 31)
    sigma = random_density((2,), 2, 32)
    diff = rho.mat - sigma.mat
    oracle = float(np.abs(np.linalg.eigvalsh(diff)).sum())
    assert abs(trace_norm(diff) - oracle) < 1e-12


def test_trace_norm_of_state_difference_bounded():
    for seed in range(25):
        rho = random_density((2, 2), 4, seed)
        sigma = random_density((2, 2), 4, seed + 1000)
        t = trace_norm(rho.mat - sigma.mat)
        assert -1e-12 <= t <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# entropies


def test_entropy_pure_state():
    psi = random_pure((2, 2), 5)
    assert abs(von_neumann_entropy(psi.to_density())) < 1e-12


def test_entropy_maximally_mixed():
    for d in (2, 3, 5):
        rho = DensityMatrix(np.eye(d) / d, (d,))
        assert abs(von_neumann_entropy(rho) - math.log2(d)) < 1e-12


def test_entropy_frozen_binary_value():
    # h(1/4) by the binary-entropy formula: 2 - (3/4) log2 3
    expected = 2.0 - 0.75 * math.log2(3.0)
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))
    assert abs(von_neumann_entropy(rho) - expected) < 1e-12
    assert abs(expected - 0.8112781244591328) < 1e-15


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(13)
    for trial in range(20):
        d = int(rng.integers(2, 7))
        rho = random_density((d,), d, int(rng.integers(2**31)))
        u = random_unitary(d, int(rng.integers(2**31)))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (d,))
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9


@pytest.mark.parametrize("mat", [[[0.5, 0.5], [0.0, 0.5]], [[np.nan, 0.0], [0.0, 1.0]],
                                 [[np.inf, 0.0], [0.0, 0.0]]], ids=["non-hermitian", "nan", "inf"])
def test_plain_matrices_must_be_hermitian(mat):
    # a plain ndarray gets the hermiticity check of eig_hermitian, which a
    # non-finite entry fails too
    with pytest.raises(NonHermitianError, match="matrix is not Hermitian"):
        von_neumann_entropy(np.array(mat))
    with pytest.raises(NonHermitianError, match="matrix is not Hermitian"):
        relative_entropy(np.array(mat), np.eye(2) / 2)


def test_plain_hermitian_matrices_keep_their_values():
    rho = random_density((3,), 3, 5)
    assert von_neumann_entropy(rho.mat) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
    sigma = random_density((3,), 3, 6)
    assert relative_entropy(rho.mat, sigma) == pytest.approx(relative_entropy(rho, sigma), abs=1e-12)
    # within TOL_HERM of Hermitian is Hermitian
    nearly = rho.mat + np.diag([0, 1e-11j, 0])
    assert von_neumann_entropy(nearly) == pytest.approx(von_neumann_entropy(rho), abs=1e-9)


def test_relative_entropy_self_is_zero():
    rho = random_density((2, 2), 4, 17)
    assert abs(relative_entropy(rho, rho)) < 1e-9


def test_relative_entropy_disjoint_support_infinite():
    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    one = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
    assert relative_entropy(zero, one) == math.inf


def test_relative_entropy_nonnegative_and_faithful():
    for seed in range(30):
        rho = random_density((2,), 2, seed)
        sigma = random_density((2,), 2, seed + 500)
        val = relative_entropy(rho, sigma)
        assert val > -1e-9
    rho = random_density((3,), 3, 77)
    assert abs(relative_entropy(rho, rho)) < 1e-8
    assert trace_norm(rho.mat - rho.mat) <= 1e-8


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        relative_entropy(random_density((2,), 2, 0), random_density((3,), 3, 0))


# ---------------------------------------------------------------------------
# type invariants


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]), (2,))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(2), (2,))  # trace 2
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))  # negative eigenvalue


def test_density_matrix_dims_must_match():
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(np.eye(4) / 4, (2, 3))


def test_pure_state_rejects_unnormalized():
    with pytest.raises(InvalidStateError):
        PureState(np.array([1.0, 1.0]), (2,))


def test_pure_stack_names_the_first_failing_vector():
    # a stack gets PureState's messages, prefixed with the index of the
    # first vector that fails; a stack of one gets them unprefixed
    from coherlab.linalg import _pure_stack

    vecs = np.array([[1.0, 0.0], [0.6, 0.8j], [0.0, 1.0]], dtype=complex)
    _pure_stack(vecs, (2,))
    vecs[2] *= 2.0
    with pytest.raises(InvalidStateError, match=r"^state 2: unit norm violated: \|norm\^2 - 1\| = 3\.000e\+00"):
        _pure_stack(vecs, (2,))
    with pytest.raises(InvalidStateError, match=r"^unit norm violated"):
        _pure_stack(vecs[2:], (2,))
    vecs[1, 0] = np.inf
    with pytest.raises(InvalidStateError, match=r"^state 1: amplitude vector has a non-finite"):
        _pure_stack(vecs, (2,))
    with pytest.raises(DimensionMismatchError):
        _pure_stack(vecs, (3,))


def test_density_matrix_is_immutable():
    rho = random_density((2,), 2, 1)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.0


def test_density_matrix_keeps_validation_spectrum():
    for seed in range(5):
        rho = random_density((2, 3), 4, seed)
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.mat))
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.0
    with pytest.raises(TypeError):
        DensityMatrix(rho.mat, rho.dims, spectrum=rho.spectrum)


def test_pure_state_checks_the_squared_norm():
    # the density of a pure state has trace ||v||^2, so the norm check
    # reads the squared norm: 1 + 8e-10 has |norm - 1| within TOL_TRACE
    # but a trace 1.6e-9 away from 1, and is rejected
    with pytest.raises(InvalidStateError, match=r"^unit norm violated: \|norm\^2 - 1\| = 1\.600e-09"):
        PureState(np.array([1 + 8e-10, 0.0]), (2,))
    psi = PureState(np.array([1 + 4e-10, 0.0]), (2,))
    rho = psi.to_density()
    assert np.array_equal(rho.mat, np.outer(psi.vec, psi.vec.conj()))
    assert rho.spectrum.tolist() == [0.0, (1 + 4e-10) ** 2]


@pytest.mark.parametrize("dims", [(2,), (2, 2), (3, 3)])
def test_rank_one_spectra_match_the_full_solve(dims):
    # psi psi' gets the spectrum (0, ..., 0, ||psi||^2) without an
    # eigensolve, within 1e-15 of eigvalsh, for a stack and for to_density
    from coherlab.linalg import _density_stack, _rank_one
    from coherlab.states import _random_pure_vecs

    vecs = _random_pure_vecs(dims, list(range(40)))
    mats, spectra = _rank_one(vecs, dims)
    assert mats.tobytes() == (vecs[:, :, None] * vecs.conj()[:, None, :]).tobytes()
    assert not spectra[:, :-1].any()
    full = _density_stack(mats, dims)
    assert np.abs(spectra - full).max() <= 1e-15
    for vec, spectrum in zip(vecs[:5], spectra):
        rho = PureState(vec, dims).to_density()
        assert rho.mat.tobytes() == np.outer(vec, vec.conj()).tobytes()
        assert rho.spectrum.tobytes() == spectrum.tobytes()
        with pytest.raises(ValueError):
            rho.spectrum[0] = 1.0


def test_rank_one_stack_keeps_the_cheap_checks():
    # a vector that is not a unit vector gives a density that fails the
    # trace check, as the full route fails it
    from coherlab.linalg import _rank_one

    vecs = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(InvalidStateError, match=r"^state 1: unit trace violated"):
        _rank_one(vecs, (2,))


def test_block_spectrum_of_the_merging_state_is_the_full_solve():
    # the nine R blocks, solved as one stack and sorted, give the bytes of
    # the 81 x 81 eigvalsh
    from coherlab.states import merging_state

    rho = merging_state()
    assert rho.spectrum.tobytes() == np.linalg.eigvalsh(rho.mat).tobytes()


def test_dephased_state_takes_its_block_spectrum(monkeypatch):
    # dephase leaves the state block-diagonal over the dephased labels:
    # its validation solves those blocks only, and their sorted spectrum
    # matches the full solve
    from coherlab.measures import dephase

    rho = random_density((3, 2, 3), 18, 5)
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solves.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for subsystems, order in (((0,), 6), ((1, 2), 3), ((0, 1, 2), 1)):
        solves.clear()
        dephased = dephase(rho, subsystems)
        assert solves == [(1, 18 // order, order, order)]
        assert np.all(np.diff(dephased.spectrum) >= 0.0)
        assert np.abs(dephased.spectrum - eigvalsh(dephased.mat)).max() <= 1e-15


def test_block_claim_with_an_entry_off_the_blocks_takes_the_full_solve(monkeypatch):
    # a block table is a claim: an entry off the blocks, however small,
    # drops it, and the spectrum is the full solve's
    from coherlab.linalg import _basis_rows, _density_stack
    from coherlab.measures import _dephase_stack

    blocks = _basis_rows((3, 3), (0,))
    mat = _dephase_stack(random_density((3, 3), 4, 8).mat[None], (3, 3), (0,))[0]
    mat[0, 3] = mat[3, 0] = 1e-300
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solves.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    spectra = _density_stack(mat[None], (3, 3), blocks)
    assert solves == [(1, 9, 9)]
    assert spectra.tobytes() == eigvalsh(mat[None]).tobytes()
    mat[0, 3] = mat[3, 0] = 0.0
    solves.clear()
    _density_stack(mat[None], (3, 3), blocks)
    assert solves == [(1, 3, 3, 3)]


def test_block_route_keeps_every_error_message():
    # nan, non-Hermitian, bad-trace and negative-block stacks fail with a
    # block table exactly as without one
    from coherlab.linalg import _basis_rows, _density_stack

    blocks = _basis_rows((2, 2), (1,))
    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    nan, asym, heavy, negative = (good.copy() for _ in range(4))
    nan[1, 1] = np.nan
    asym[0, 2] = 0.1  # inside the blocks over subsystem 1's labels
    heavy[0, 0] = 1.4
    negative[0, 2] = negative[2, 0] = 0.5  # the block of label 0 is [[0.4, 0.5], [0.5, 0.2]]
    for bad, pattern in ((nan, r"^state 1: matrix has a non-finite"),
                         (asym, r"^state 1: hermiticity violated: max \|M - M'\| = 1\.000e-01"),
                         (heavy, r"^state 1: unit trace violated: \|Tr\(M\) - 1\| = 1\.000e\+00"),
                         (negative, r"^state 1: positivity violated: min eigenvalue = -2\.099e-01")):
        stack = np.stack([good, bad])
        for table in (None, blocks):
            with pytest.raises(InvalidStateError, match=pattern):
                _density_stack(stack, (2, 2), table)


def test_measures_do_no_full_order_eigensolve(monkeypatch):
    from coherlab.measures import (
        Bipartition,
        basis_dependent_discord,
        c_r,
        mutual_information,
        qi_relative_entropy,
    )

    rho = random_density((3, 9, 9), 8, 3)
    split = Bipartition((0,), (1, 2))
    orders = []
    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            orders.append(np.shape(a)[-1])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    c_r(rho)
    qi_relative_entropy(rho, split)
    mutual_information(rho, split)
    basis_dependent_discord(rho, split)
    assert orders  # the marginals are still validated
    assert rho.dim not in orders
