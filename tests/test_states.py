import math

import numpy as np
import pytest

from coherlab.exceptions import (
    BadDimensionError,
    BadRankError,
    InvalidCoefficientsError,
    InvalidStateError,
)
from coherlab.linalg import DensityMatrix, PureState, partial_trace, von_neumann_entropy
from coherlab.measures import Bipartition, c_r, qi_relative_entropy
from coherlab.states import (
    DominoFamily,
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
    _generators,
)


def test_maximally_coherent_qubit():
    psi = maximally_coherent(2)
    assert np.allclose(psi.vec, np.array([1, 1]) / math.sqrt(2))


def test_maximally_coherent_d4():
    psi = maximally_coherent(4)
    assert np.allclose(psi.vec, np.full(4, 0.5))


def test_maximally_coherent_cr_is_log_d():
    for d in (2, 3, 5, 8):
        assert abs(c_r(maximally_coherent(d).to_density()) - math.log2(d)) < 1e-12


def test_maximally_coherent_rejects_small_d():
    with pytest.raises(BadDimensionError):
        maximally_coherent(1)


def test_bell_states_first_and_orthonormal():
    states = bell_states()
    assert np.allclose(states[0].vec, np.array([1, 0, 0, 1]) / math.sqrt(2))
    gram = np.array([[si.overlap(sj) for sj in states] for si in states])
    assert np.abs(gram - np.eye(4)).max() < 1e-12
    for s in states:
        marginal = partial_trace(s.to_density(), {0})
        assert np.abs(marginal.mat - np.eye(2) / 2).max() < 1e-12


def test_domino_states_listed_order():
    family = domino_states()
    s = 1 / math.sqrt(2)
    assert np.allclose(family.states[0].vec, np.kron(ket(1, 3), ket(1, 3)))
    assert np.allclose(family.states[1].vec, np.kron(ket(0, 3), s * (ket(0, 3) + ket(1, 3))))
    assert np.allclose(family.states[2].vec, np.kron(ket(0, 3), s * (ket(0, 3) - ket(1, 3))))
    assert np.allclose(family.states[3].vec, np.kron(ket(2, 3), s * (ket(1, 3) + ket(2, 3))))
    assert np.allclose(family.states[8].vec, np.kron(s * (ket(0, 3) - ket(1, 3)), ket(2, 3)))


def test_domino_gram_is_identity():
    family = domino_states()
    gram = np.array([[si.overlap(sj) for sj in family.states] for si in family.states])
    assert np.abs(gram - np.eye(9)).max() < 1e-12


def test_domino_family_rejects_a_repeated_state():
    family = domino_states()
    states = (family.states[0],) + family.states[:8]
    alphas = (family.alpha_parts[0],) + family.alpha_parts[:8]
    betas = (family.beta_parts[0],) + family.beta_parts[:8]
    with pytest.raises(InvalidStateError, match="not orthonormal"):
        DominoFamily(states, alphas, betas)


def test_domino_family_rejects_wrong_local_factors():
    # states 1 and 2 share alpha = |0>; swapping their beta factors keeps
    # the states orthonormal but breaks state = alpha x beta
    family = domino_states()
    betas = list(family.beta_parts)
    betas[1], betas[2] = betas[2], betas[1]
    with pytest.raises(InvalidStateError, match="not the product"):
        DominoFamily(family.states, family.alpha_parts, tuple(betas))


def test_domino_family_rejects_a_local_factor_of_the_wrong_shape():
    family = domino_states()
    alphas = (family.alpha_parts[0][:2],) + family.alpha_parts[1:]
    with pytest.raises(InvalidStateError, match="3 entries"):
        DominoFamily(family.states, alphas, family.beta_parts)
    betas = family.beta_parts[:8] + (np.outer(family.beta_parts[8], family.beta_parts[8]),)
    with pytest.raises(InvalidStateError, match="3 entries"):
        DominoFamily(family.states, family.alpha_parts, betas)


def test_merging_state_entropy():
    rho = merging_state()
    assert rho.dims == (9, 3, 3)
    assert abs(von_neumann_entropy(rho) - math.log2(9)) < 1e-12


def test_merging_state_ab_marginal_uniform():
    # The nine domino projectors resolve the identity, so the AB marginal
    # is maximally mixed.
    rho = merging_state()
    marginal = partial_trace(rho, {1, 2})
    assert np.abs(marginal.mat - np.eye(9) / 9).max() < 1e-12


def test_merging_state_qire_value():
    rho = merging_state()
    assert abs(qi_relative_entropy(rho, Bipartition((0,), (1, 2))) - 8 / 9) < 1e-9


def test_merging_state_matches_kron_definition(monkeypatch):
    # sum_i |i><i| x psi_i psi_i' / 9 by kron, byte for byte, validated
    # once without the DensityMatrix constructor: its nine 9-dim R blocks
    # are solved as one stack, and no full-order eigenproblem is solved
    family = domino_states()
    expected = np.zeros((81, 81), dtype=complex)
    for i, psi in enumerate(family.states):
        flag = np.outer(ket(i, 9), ket(i, 9).conj())
        expected += np.kron(flag, np.outer(psi.vec, psi.vec.conj())) / 9.0
    orders = []
    post_init = DensityMatrix.__post_init__

    def counted_post_init(self):
        orders.append(np.shape(self.mat)[-1])
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
    solves = []
    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            solves.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert merging_state().mat.tobytes() == expected.tobytes()
    assert orders == []
    assert solves == [(1, 9, 9, 9)]


def test_maximally_correlated_bell_case():
    psi2 = maximally_coherent(2)
    rho = maximally_correlated(np.outer(psi2.vec, psi2.vec.conj()))
    bell = bell_states()[0].to_density()
    assert np.abs(rho.mat - bell.mat).max() < 1e-12


def test_maximally_correlated_diagonal_coeffs_incoherent():
    rho = maximally_correlated(np.diag([0.25, 0.75]).astype(complex))
    assert abs(c_r(rho)) < 1e-12


def test_maximally_correlated_entropy_identity():
    # S(dephase_B(rho)) - S(rho) equals the same gap for the coefficient
    # matrix, both sides evaluated with the kernel primitives.
    from coherlab.measures import dephase

    coeffs = random_density((2,), 2, 123)
    rho = maximally_correlated(coeffs.mat)
    lhs = von_neumann_entropy(dephase(rho, (1,))) - von_neumann_entropy(rho)
    rhs = von_neumann_entropy(np.diag(np.diag(coeffs.mat))) - von_neumann_entropy(coeffs)
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_maximally_correlated_places_coefficients_at_ii_jj(d):
    coeffs = random_density((d,), d, 7).mat
    expected = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            expected[i * d + i, j * d + j] = coeffs[i, j]
    assert maximally_correlated(coeffs).mat.tobytes() == expected.tobytes()


def test_maximally_correlated_rejects_bad_coeffs():
    with pytest.raises(InvalidCoefficientsError):
        maximally_correlated(np.eye(2) * 0.9)


def test_fourier_basis_d2_is_plus_minus():
    basis = fourier_mc_basis(2)
    s = 1 / math.sqrt(2)
    assert np.allclose(basis[0].vec, [s, s])
    assert np.allclose(basis[1].vec, [s, -s])


@pytest.mark.parametrize("d", range(2, 10))
def test_fourier_basis_unitary(d):
    basis = fourier_mc_basis(d)
    mat = np.array([b.vec for b in basis]).T
    assert np.abs(mat.conj().T @ mat - np.eye(d)).max() < 1e-10
    assert np.abs(np.abs(mat) - 1 / math.sqrt(d)).max() < 1e-12


def test_random_pure_normalized():
    psi = random_pure((2, 2), 99)
    assert abs(np.linalg.norm(psi.vec) - 1.0) < 1e-12


def test_random_density_rank_one_is_pure():
    rho = random_density((2,), 1, 5)
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-12


def test_random_density_rejects_bad_rank():
    with pytest.raises(BadRankError):
        random_density((2,), 5, 0)
    with pytest.raises(BadRankError):
        random_density((2,), 0, 0)


def test_random_qi_state_has_zero_qire():
    for seed in range(10):
        rho = random_qi_state((2, 3), seed)
        assert qi_relative_entropy(rho, Bipartition((0,), (1,))) < 1e-10


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (1, 3)])
def test_random_qi_state_matches_kron_definition(dims):
    # The same draws as the generator, then sum_j block_j x |j><j| by kron.
    da, db = dims
    for seed in range(5):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(db))
        expected = np.zeros((da * db, da * db), dtype=complex)
        for j in range(db):
            g = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
            block = g @ g.conj().T
            block *= probs[j] / np.trace(block).real
            expected += np.kron(block, np.diag(np.eye(db)[j]))
        assert random_qi_state(dims, seed).mat.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(4, 1), (4, 4), (9, 3), (2, 2)])
def test_ginibre_draws_in_one_call_what_two_calls_draw(shape):
    # one (2, rows, cols) draw holds the real parts and then the imaginary
    # parts: the values of two (rows, cols) draws, bit for bit, with the
    # generator left at the same point of its stream
    from coherlab.states import _ginibre

    for seed in (0, 7, 2**63 - 1):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference.standard_normal(shape) + 1j * reference.standard_normal(shape)
        assert _ginibre(rng, *shape).tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.standard_normal(3).tobytes() == reference.standard_normal(3).tobytes()


def test_generators_deterministic():
    a = random_pure((2, 2), 42)
    b = random_pure((2, 2), 42)
    assert np.array_equal(a.vec, b.vec)
    ra = random_density((2, 2), 3, 42)
    rb = random_density((2, 2), 3, 42)
    assert np.array_equal(ra.mat, rb.mat)
    qa = random_qi_state((2, 2), 42)
    qb = random_qi_state((2, 2), 42)
    assert np.array_equal(qa.mat, qb.mat)


@pytest.mark.parametrize("draw", [
    lambda seed: random_pure((2, 3), seed).vec,
    lambda seed: random_density((2, 3), 4, seed).mat,
    lambda seed: random_qi_state((2, 3), seed).mat,
], ids=["pure", "density", "qi"])
def test_random_states_draw_from_a_generator_given_as_the_seed(draw):
    # default_rng passes a Generator through, so it names the same state
    assert draw(np.random.default_rng(11)).tobytes() == draw(11).tobytes()


def _mixed_draw(rng):
    """Bytes of draws that read the generator's stream in several ways."""
    return (rng.integers(2**63, size=3).tobytes() + rng.standard_normal(5).tobytes()
            + rng.permutation(7).tobytes() + rng.random(4).tobytes())


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def test_generators_equal_default_rng_bit_for_bit():
    seeds = np.random.default_rng(2024).integers(0, 2**64, size=2000, dtype=np.uint64).tolist() + EDGE_SEEDS
    for seed, rng in zip(seeds, _generators(seeds)):
        reference = np.random.default_rng(seed)
        assert rng.bit_generator.state == reference.bit_generator.state, seed
        assert _mixed_draw(rng) == _mixed_draw(reference), seed


@pytest.mark.parametrize("kind", [int, np.int64, np.uint64], ids=lambda kind: kind.__name__)
def test_generators_take_numpy_integer_seeds(kind):
    top = 2**63 - 1 if kind is np.int64 else 2**64 - 1
    seeds = [kind(seed) for seed in [s for s in EDGE_SEEDS if s <= top] + [7, 2**40 + 3]]
    for stack in (seeds, np.array(seeds, dtype=np.int64 if kind is np.int64 else np.uint64)):
        for seed, rng in zip(stack, _generators(stack)):
            reference = np.random.default_rng(seed)
            assert rng.bit_generator.state == reference.bit_generator.state, seed
            assert _mixed_draw(rng) == _mixed_draw(reference), seed


@pytest.mark.parametrize("other", [-1, np.int64(-3), 2**64, 2**70, 1.5, "generator"],
                         ids=["-1", "int64(-3)", "2**64", "2**70", "1.5", "generator"])
@pytest.mark.parametrize("n", [1, 12])
def test_generators_pass_other_seeds_to_default_rng(other, n):
    # a seed the batched hash does not take, alone or inside a hashed stack,
    # raises what default_rng raises or gives what default_rng gives
    if isinstance(other, str):
        other = np.random.default_rng(5)
    seeds = list(range(n))
    seeds[n // 2] = other
    try:
        reference = np.random.default_rng(other)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        with pytest.raises(type(exc)):
            _generators(seeds)
        return
    rngs = _generators(seeds)
    if isinstance(other, np.random.Generator):
        assert rngs[n // 2] is other
    else:
        assert rngs[n // 2].bit_generator.state == reference.bit_generator.state
    for seed, rng in zip(seeds, rngs):
        if seed is not other:
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_random_unitary_is_unitary():
    u = random_unitary(5, 3)
    assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12


# Every invariant check must fail on non-finite input: a NaN residual
# compares False with ">", so a "residual > tol" check would let it through.
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
def test_density_matrix_rejects_non_finite_entries(bad, where):
    mat = np.diag([0.5, 0.5]).astype(complex)
    mat[where] = bad
    with pytest.raises(InvalidStateError):
        DensityMatrix(mat, (2,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(InvalidStateError):
        PureState(np.array([bad, 1.0], dtype=complex), (2,))
