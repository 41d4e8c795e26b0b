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


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def test_generators_equal_default_rng_bit_for_bit():
    # a stacked drawer reads the stream of default_rng(seed) for every
    # integer seed in [0, 2**64), the edges included
    from coherlab import states as st

    seeds = np.random.default_rng(2024).integers(0, 2**64, size=2000, dtype=np.uint64).tolist() + EDGE_SEEDS
    expected = np.array([_reference_pure(np.random.default_rng(seed), 2) for seed in seeds])
    assert st._random_pure_vecs((2,), seeds).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", [int, np.int64, np.uint64], ids=lambda kind: kind.__name__)
def test_generators_take_numpy_integer_seeds(kind):
    # numpy integer seeds, in a list or as an array, name what the equal
    # Python ints name
    from coherlab import states as st

    top = 2**63 - 1 if kind is np.int64 else 2**64 - 1
    seeds = [kind(seed) for seed in [s for s in EDGE_SEEDS if s <= top] + [7, 2**40 + 3]]
    expected = np.array([_reference_density(np.random.default_rng(int(seed)), 4, 2) for seed in seeds])
    for stack in (seeds, np.array(seeds, dtype=np.int64 if kind is np.int64 else np.uint64)):
        assert st._random_density_mats((2, 2), 2, stack).tobytes() == expected.tobytes()


@pytest.mark.parametrize("other", [-1, np.int64(-3), 2**64, 2**70, 1.5, "generator"],
                         ids=["-1", "int64(-3)", "2**64", "2**70", "1.5", "generator"])
@pytest.mark.parametrize("n", [1, 12])
def test_generators_pass_other_seeds_to_default_rng(other, n):
    # any other seed, alone or inside a stack, raises what default_rng
    # raises or draws from what default_rng gives
    from coherlab import states as st

    twin = other
    if isinstance(other, str):
        other, twin = np.random.default_rng(5), np.random.default_rng(5)
    seeds = list(range(n))
    seeds[n // 2] = other
    try:
        reference = np.random.default_rng(twin)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        with pytest.raises(type(exc)):
            st._random_density_mats((2, 2), 2, seeds)
        return
    drawn = st._random_density_mats((2, 2), 2, seeds)
    expected = [_reference_density(reference if seed is other else np.random.default_rng(seed), 4, 2)
                for seed in seeds]
    assert drawn.tobytes() == np.array(expected).tobytes()


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


def _reference_density(rng, d, rank):
    """One seed's G G' / Tr(G G'), drawn and normalized on its own."""
    from coherlab.states import _ginibre

    g = _ginibre(rng, d, rank)
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _reference_pure(rng, d):
    """One seed's normalized complex-Gaussian vector, drawn on its own."""
    from coherlab.states import _ginibre

    v = _ginibre(rng, d, 1).reshape(-1)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (3, 3)], ids=str)
def test_stacked_state_draws_equal_per_seed_draws(dims):
    # the stacked draws, their per-rank grouping included, name each seed's
    # state bit for bit as drawing it alone does; one generator repeated at
    # different ranks is read in seed order
    from coherlab import states as st

    d = math.prod(dims)
    seeds = list(range(300, 340))
    ranks = [1 + (7 * k) % d for k in range(len(seeds))]
    rngs = [np.random.default_rng(s) for s in seeds]
    assert st._random_density_mats(dims, ranks, seeds).tobytes() == np.array(
        [_reference_density(rng, d, rank) for rng, rank in zip(rngs, ranks)]).tobytes()
    rng, reference = np.random.default_rng(9), np.random.default_rng(9)
    stack = st._random_density_mats(dims, ranks[:6], [rng] * 6)
    assert stack.tobytes() == np.array([_reference_density(reference, d, rank) for rank in ranks[:6]]).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    rngs = [np.random.default_rng(s) for s in seeds]
    assert st._random_pure_vecs(dims, seeds).tobytes() == np.array(
        [_reference_pure(rng, d) for rng in rngs]).tobytes()


def _draw_stacks() -> dict[str, np.ndarray]:
    """Every stacked and one-seed random draw that the draw goldens pin, by
    name.  The stacks hold 1, 3, 20 and 64 seeds, so both the one-by-one and
    the batched seeding run, and two of them repeat one ``Generator``
    object at different ranks."""
    from coherlab import channels as ch
    from coherlab import states as st

    def script_ops(scripts):
        a_ops, b_ops, _ = ch._products(scripts)
        rounds = np.concatenate([node.instrument.ops.ravel() for s in scripts for node in s._rounds])
        return np.concatenate([rounds, a_ops.ravel(), b_ops.ravel()])

    seeds = {n: list(range(100, 100 + n)) for n in (1, 3, 20, 64)}
    ranks = [1 + k % 4 for k in range(64)]
    rng = np.random.default_rng(11)
    repeated = [rng] * 6
    mixed = [np.random.default_rng(12), 5, np.random.default_rng(12), 6, 7, 8, 9]
    draws = {}
    for n, s in seeds.items():
        draws[f"density_mixed_ranks_2x2_n{n}"] = st._random_density_mats((2, 2), ranks[:n], s)
        draws[f"density_full_rank_3_n{n}"] = st._random_density_mats((3,), 3, s)
        draws[f"pure_2_n{n}"] = st._random_pure_vecs((2,), s)
        draws[f"pure_2x3_n{n}"] = st._random_pure_vecs((2, 3), s)
        draws[f"qi_2x2_n{n}"] = st._random_qi_mats((2, 2), s)
        draws[f"qi_3x2_n{n}"] = st._random_qi_mats((3, 2), s)
        for d in (2, 3):
            for k in (2, 3):
                draws[f"incoherent_d{d}_k{k}_n{n}"] = np.stack(
                    [c.ops for c in ch._random_incoherent_channels((d,), k, s)])
        draws[f"instruments_2_k2_n{n}"] = np.stack([c.ops for c in ch._random_instruments((2,), 2, s)])
        draws[f"instruments_3_k3_n{n}"] = np.stack([c.ops for c in ch._random_instruments((3,), 3, s)])
        draws[f"sqi_scripts_1round_n{n}"] = script_ops(
            ch._random_scripts((2,), (2,), 1, s, incoherent_a=False, n_outcomes=2))
        draws[f"licc_scripts_1round_n{n}"] = script_ops(
            ch._random_scripts((2,), (2,), 1, s, incoherent_a=True, n_outcomes=2))
    draws["density_repeated_generator"] = st._random_density_mats((2, 2), [1, 3, 2, 4, 3, 1], repeated)
    draws["density_mixed_generators_and_seeds"] = st._random_density_mats((2, 2), [2, 4, 1, 4, 3, 2, 2], mixed)
    draws["sqi_scripts_3rounds_qutrit_n3"] = script_ops(
        ch._random_scripts((3,), (3,), 3, seeds[3], incoherent_a=False, n_outcomes=3))
    draws["licc_scripts_3rounds_n20"] = script_ops(
        ch._random_scripts((2,), (2,), 3, seeds[20], incoherent_a=True, n_outcomes=2))
    for seed in (0, 7, 123456789):
        draws[f"random_density_3x3_rank9_s{seed}"] = random_density((3, 3), 9, seed).mat
        draws[f"random_density_2_rank2_s{seed}"] = random_density((2,), 2, seed).mat
        draws[f"random_density_2x2_rank3_s{seed}"] = random_density((2, 2), 3, seed).mat
        draws[f"random_pure_2x2_s{seed}"] = random_pure((2, 2), seed).vec
        draws[f"random_qi_state_3x2_s{seed}"] = random_qi_state((3, 2), seed).mat
        draws[f"random_incoherent_channel_3_k2_s{seed}"] = ch.random_incoherent_channel((3,), 2, seed).ops
        draws[f"random_instrument_2_k3_s{seed}"] = ch.random_instrument((2,), 3, seed).ops
        draws[f"random_sqi_channel_2rounds_s{seed}"] = script_ops([ch.random_sqi_channel((2,), (2,), 2, seed)])
    return draws


def test_draws_at_seed_zero_give_the_golden_bytes():
    # SHA-256 of each draw's bytes; the file was captured before the draws
    # were filled into preallocated stacks, so every seed still names the
    # same state, channel and script bit for bit
    import hashlib
    import json
    import os

    with open(os.path.join(os.path.dirname(__file__), "golden", "draws_seed0.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = {name: hashlib.sha256(np.ascontiguousarray(draw).tobytes()).hexdigest()
               for name, draw in _draw_stacks().items()}
    assert digests == golden
