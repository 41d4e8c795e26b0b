import math
import re

import numpy as np
import pytest

from coherlab import measures
from coherlab.exceptions import BadSubsystemError, DimensionTooLargeError, InternalConsistencyError
from coherlab.linalg import (
    DensityMatrix,
    PureState,
    _density_stack,
    partial_trace,
    relative_entropy,
    trace_norm,
    von_neumann_entropy,
)
from coherlab.measures import (
    Bipartition,
    MeasureReport,
    ORACLE_MAX_ITER,
    basis_dependent_discord,
    binary_entropy,
    c_r,
    coherence_of_assistance,
    continuity_bound,
    dephase,
    mutual_information,
    qi_relative_entropy,
    qi_relative_entropy_oracle,
    _assistance_objective,
    _hermitian_basis,
    _qi_oracle_objective,
    _qi_oracle_values,
)
from coherlab.states import (
    bell_states,
    maximally_coherent,
    random_density,
    random_pure,
    random_qi_state,
)

from conftest import ptrace_oracle

AB = Bipartition((0,), (1,))


def dephase_oracle(mat, dims, subsystems):
    """Direct index-zeroing definition of the dephasing map."""
    out = mat.copy()
    n = mat.shape[0]
    for row in range(n):
        for col in range(n):
            mrow = np.unravel_index(row, dims)
            mcol = np.unravel_index(col, dims)
            if any(mrow[s] != mcol[s] for s in subsystems):
                out[row, col] = 0.0
    return out


# ---------------------------------------------------------------------------
# Bipartition / MeasureReport


def test_bipartition_parse():
    split = Bipartition.parse("A=0;B=1,2")
    assert split.a == (0,) and split.b == (1, 2)
    split = Bipartition.parse("B=0,1")
    assert split.a == () and split.b == (0, 1)


def test_bipartition_validation():
    with pytest.raises(BadSubsystemError):
        Bipartition((0,), ())
    with pytest.raises(BadSubsystemError):
        Bipartition((0,), (0,))
    with pytest.raises(BadSubsystemError):
        Bipartition((0,), (1,)).validate(3)


def test_bipartition_rejects_a_repeated_subsystem():
    # a repeat would be dropped by the closed forms, which read sets
    for a, b in (((0,), (1, 1)), ((0, 0), (1,)), ((), (0, 0))):
        with pytest.raises(BadSubsystemError, match="twice"):
            Bipartition(a, b)
    with pytest.raises(BadSubsystemError, match="twice"):
        Bipartition.parse("A=0;B=1,1")


@pytest.mark.parametrize("bad", [0.5, True, 1.0, np.float64(2.0), "1"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_bipartition_rejects_a_non_integer_index(side, bad):
    # int() would truncate 0.5 to 0, and True would count as subsystem 1
    a, b = ((bad,), (1,)) if side == "a" else ((0,), (bad,))
    with pytest.raises(BadSubsystemError, match=rf"^subsystem index {re.escape(repr(bad))} is not an integer$"):
        Bipartition(a, b)


def test_bipartition_takes_numpy_integers():
    split = Bipartition((np.int64(0),), np.arange(1, 3, dtype=np.int32))
    assert split == Bipartition((0,), (1, 2))
    assert all(type(i) is int for i in split.a + split.b)


def test_bipartition_parse_rejects_a_repeated_side():
    # a later part would otherwise replace the earlier one without a word
    for spec in ("A=1;A=0;B=1", "B=0;B=1", "A=0;B=1;B=1"):
        with pytest.raises(BadSubsystemError, match="names side [AB] twice"):
            Bipartition.parse(spec)


def test_measure_report_clamps_rounding():
    report = MeasureReport("cr", -5e-10, {})
    assert report.value == 0.0
    from coherlab.exceptions import InternalConsistencyError

    with pytest.raises(InternalConsistencyError):
        MeasureReport("cr", -1e-6, {})


# ---------------------------------------------------------------------------
# dephase


def test_dephase_diagonal_fixed_point():
    rho = DensityMatrix(np.diag([0.4, 0.6]).astype(complex), (2,))
    out = dephase(rho, (0,))
    assert np.abs(out.mat - rho.mat).max() < 1e-15


def test_dephase_psi2_gives_maximally_mixed():
    rho = maximally_coherent(2).to_density()
    out = dephase(rho, (0,))
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12


def test_dephase_bell_on_b_matches_oracle():
    bell = bell_states()[0].to_density()
    out = dephase(bell, (1,))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.abs(out.mat - expected).max() < 1e-12
    assert np.abs(out.mat - dephase_oracle(bell.mat, bell.dims, (1,))).max() < 1e-12


def test_dephase_random_matches_oracle():
    rho = random_density((2, 3), 6, 8)
    for subsystems in [(0,), (1,), (0, 1)]:
        out = dephase(rho, subsystems)
        assert np.abs(out.mat - dephase_oracle(rho.mat, rho.dims, subsystems)).max() < 1e-12


def test_dephase_idempotent():
    for seed in range(10):
        rho = random_density((2, 2), 4, seed)
        once = dephase(rho, (1,))
        twice = dephase(once, (1,))
        assert np.abs(once.mat - twice.mat).max() < 1e-12


def test_dephase_empty_set_is_identity():
    rho = random_density((2, 2), 4, 3)
    assert dephase(rho, ()) is rho


# ---------------------------------------------------------------------------
# c_r


def test_cr_psi2_is_one():
    assert abs(c_r(maximally_coherent(2).to_density()) - 1.0) < 1e-12


def test_cr_diagonal_is_zero():
    rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]).astype(complex), (3,))
    assert c_r(rho) == 0.0


def test_cr_mixture_against_grid_minimization_oracle():
    # State: half |psi2><psi2| + half |0><0|; the closed form must match
    # the minimum of S(rho || sigma) over a dense grid of diagonal sigma.
    psi2 = maximally_coherent(2).to_density()
    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    rho = DensityMatrix(0.5 * psi2.mat + 0.5 * zero.mat, (2,))
    closed = c_r(rho)
    qs = np.linspace(1e-6, 1 - 1e-6, 4001)
    grid = min(
        relative_entropy(rho, DensityMatrix(np.diag([q, 1 - q]).astype(complex), (2,)))
        for q in qs
    )
    assert closed <= grid + 1e-12
    assert abs(closed - grid) < 1e-6
    # direct eigenvalue evaluation of the same value
    direct = von_neumann_entropy(np.diag(np.diag(rho.mat))) - von_neumann_entropy(rho)
    assert abs(closed - direct) < 1e-12


def test_cr_equals_relative_entropy_to_dephased():
    for seed in range(20):
        rho = random_density((2, 2), 4, seed)
        assert abs(c_r(rho) - relative_entropy(rho, dephase(rho, (0, 1)))) < 1e-9


def dephase_route(rho, subsystems):
    """S(dephase(rho)) - S(rho) with both entropies from full eigensolves."""
    return von_neumann_entropy(dephase(rho, subsystems).mat) - von_neumann_entropy(rho.mat)


def discord_route(rho, split):
    """I(A:B)(rho) - I(A:B)(dephase_B(rho)), every entropy from a full
    eigensolve of the built matrix, the marginals and the dephased state
    from the index-loop oracles, not from the library's kernels."""

    def mi(mat):
        marginals = (ptrace_oracle(mat, rho.dims, split.a), ptrace_oracle(mat, rho.dims, split.b))
        return sum(von_neumann_entropy(m) for m in marginals) - von_neumann_entropy(mat)

    return mi(rho.mat) - mi(dephase_oracle(rho.mat, rho.dims, split.b))


SPLITS_232 = {
    "non-contiguous": Bipartition((1,), (0, 2)),
    "out-of-order": Bipartition((1,), (2, 0)),
    "b-covers-all": Bipartition((), (0, 1, 2)),
}


@pytest.mark.parametrize("rank", [1, 5, 12])
@pytest.mark.parametrize("case", sorted(SPLITS_232))
def test_closed_forms_match_dephase_built_route(case, rank):
    split = SPLITS_232[case]
    for seed in range(5):
        rho = random_density((2, 3, 2), rank, seed)
        assert abs(c_r(rho) - dephase_route(rho, (0, 1, 2))) < 1e-12
        assert abs(qi_relative_entropy(rho, split) - dephase_route(rho, split.b)) < 1e-12
        if split.a:
            assert abs(basis_dependent_discord(rho, split) - discord_route(rho, split)) < 1e-12


def test_discord_and_mutual_information_need_an_a_side():
    rho = random_density((2, 2), 4, 1)
    split = Bipartition((), (0, 1))
    with pytest.raises(BadSubsystemError, match="^basis-dependent discord needs a non-empty A side$"):
        basis_dependent_discord(rho, split)
    with pytest.raises(BadSubsystemError, match="^mutual information needs a non-empty A side$"):
        mutual_information(rho, split)


def test_discord_solves_no_eigenproblem_for_rho_a(monkeypatch):
    # S(rho_A) cancels: the solvers see rho_B, validated, and the A-blocks
    # of the B-dephased state, one per basis label of B, and nothing of A
    rho = random_density((3, 9, 9), 8, 3)
    shapes = []
    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            shapes.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    value = basis_dependent_discord(rho, Bipartition((0,), (1, 2)))
    assert shapes == [(1, 81, 81), (1, 81, 3, 3)]
    assert value >= 0.0


# ---------------------------------------------------------------------------
# QI relative entropy


def test_qire_zero_on_qi_states():
    for seed in range(10):
        assert qi_relative_entropy(random_qi_state((2, 2), seed), AB) < 1e-10


def test_qire_bell_is_one():
    assert abs(qi_relative_entropy(bell_states()[0].to_density(), AB) - 1.0) < 1e-12


def test_qire_equals_relative_entropy_identity():
    # Closed form vs direct relative entropy on 200 random bipartite states.
    rng = np.random.default_rng(0)
    for _ in range(200):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        rho = random_density(dims, int(np.prod(dims)), int(rng.integers(2**31)))
        closed = qi_relative_entropy(rho, AB)
        direct = relative_entropy(rho, dephase(rho, (1,)))
        assert abs(closed - direct) < 1e-9


def test_qire_is_the_first_term_of_the_chain_rule():
    # For QI sigma, S(rho||sigma) = S(rho||dephase_B(rho)) + S(dephase_B(rho)||sigma),
    # and the closed form is the first term: no optimizer involved.
    for seed in range(20):
        sigma = random_qi_state((2, 3), seed)
        rho = random_density((2, 3), 6, seed + 1000)
        chain = qi_relative_entropy(rho, AB) + relative_entropy(dephase(rho, (1,)), sigma)
        assert abs(relative_entropy(rho, sigma) - chain) < 1e-9


def test_qire_additive_over_tensor_products():
    for seed in range(10):
        rho = random_density((2, 2), 4, seed)
        sigma = random_density((2, 2), 4, seed + 100)
        joint = rho.tensor(sigma)
        split = Bipartition((0, 2), (1, 3))
        total = qi_relative_entropy(joint, split)
        parts = qi_relative_entropy(rho, AB) + qi_relative_entropy(sigma, AB)
        assert abs(total - parts) < 1e-9


def test_qire_faithful():
    for seed in range(20):
        rho = random_density((2, 2), 4, seed)
        value = qi_relative_entropy(rho, AB)
        gap = trace_norm(rho.mat - dephase(rho, (1,)).mat)
        if value < 1e-12:
            assert gap <= 1e-8
        if gap <= 1e-10:
            assert value < 1e-8
    qi = random_qi_state((2, 2), 7)
    assert qi_relative_entropy(qi, AB) < 1e-10
    assert trace_norm(qi.mat - dephase(qi, (1,)).mat) <= 1e-8


def test_cr_upper_bounds_qire():
    # Dephasing more subsystems cannot decrease the entropy gap.
    for seed in range(20):
        rho = random_density((2, 2), 4, seed)
        assert c_r(rho) >= qi_relative_entropy(rho, AB) - 1e-9
        assert c_r(rho) >= qi_relative_entropy(rho, Bipartition((1,), (0,))) - 1e-9


def test_qire_pure_state_equals_dephased_marginal_entropy():
    for seed in range(10):
        psi = random_pure((2, 3), seed)
        rho_b = partial_trace(psi.to_density(), {1})
        lhs = qi_relative_entropy(psi.to_density(), AB)
        rhs = von_neumann_entropy(dephase(rho_b, (0,)))
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# oracle


def test_oracle_near_zero_for_qi_input():
    rho = random_qi_state((2, 2), 1)
    assert qi_relative_entropy_oracle(rho, AB, starts=6, seed=0) < 1e-4


def test_oracle_matches_closed_form_on_bell():
    bell = bell_states()[0].to_density()
    oracle = qi_relative_entropy_oracle(bell, AB, starts=8, seed=0)
    assert abs(oracle - 1.0) < 1e-3


def test_oracle_rejects_large_dimension():
    with pytest.raises(DimensionTooLargeError):
        qi_relative_entropy_oracle(random_density((4, 5), 4, 0), AB)


def test_oracle_agreement_band_small_batch():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density((2, 2), int(rng.integers(1, 5)), int(rng.integers(2**31)))
        closed = qi_relative_entropy(rho, AB)
        oracle = qi_relative_entropy_oracle(rho, AB, starts=8, seed=1)
        assert -1e-4 <= oracle - closed <= 1e-2


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_oracle_agreement_band_at_every_rank(dims):
    d = dims[0] * dims[1]
    for rank in range(1, d + 1):
        rho = random_density(dims, rank, 100 * d + rank)
        closed = qi_relative_entropy(rho, AB)
        oracle = qi_relative_entropy_oracle(rho, AB, starts=8, seed=1)
        assert -1e-4 <= oracle - closed <= 1e-2


def test_oracle_reads_the_a_blocks_in_the_split_order(monkeypatch):
    # against permuting rho to (A, B) order, reading its B-diagonal blocks
    # and taking their coordinates Tr[rho_j E_k]; S(rho) is the unpermuted
    # state's
    from coherlab.linalg import permute_subsystems

    seen = []
    minimize = measures.minimize

    def recorded_minimize(fun, x0, args=(), **kwargs):
        seen.append(args)
        return minimize(fun, x0, args, **kwargs)

    monkeypatch.setattr(measures, "minimize", recorded_minimize)
    rho = random_density((2, 3, 2), 5, 17)
    qi_relative_entropy_oracle(rho, Bipartition((2, 0), (1,)), starts=2, seed=0)
    (c, neg_entropy, basis), = seen
    permuted = permute_subsystems(rho, (2, 0, 1))
    reference = np.einsum("ajbj->jab", permuted.mat.reshape(4, 3, 4, 3))
    assert c.shape == (3, 16)
    assert np.array_equal(c, block_coordinates(reference))
    assert np.array_equal(basis, _hermitian_basis(4).reshape(16, 16))
    assert neg_entropy == -von_neumann_entropy(rho)


def test_oracle_does_not_stop_after_a_halved_step():
    # on this rank-1 state the minimum lies at infinity; a stop on a small
    # relative decrease of the value ended the search 9.97e-9 above the
    # closed form, and the stop on the gradient alone ends it 2.8e-10 above
    rho = random_density((2, 3), 1, 772680123)
    oracle = qi_relative_entropy_oracle(rho, AB, starts=32, seed=445)
    assert -1e-4 <= oracle - qi_relative_entropy(rho, AB) <= 1e-8


def central_difference_gradient(f, x, h=1e-6):
    """Central differences of a real function of a real vector."""
    steps = h * np.eye(x.size)
    return np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in steps])


def block_coordinates(blocks):
    """Tr[rho_j E_k] for each (da, da) block rho_j and each matrix E_k of
    the Hermitian basis, shape (db, da^2)."""
    da = blocks.shape[-1]
    return np.einsum("jab,kba->jk", blocks, _hermitian_basis(da)).real


def oracle_inputs(rho, da, db):
    """The coordinates of rho's A-blocks per B label, -S(rho) and the
    flattened Hermitian basis, as the oracle passes them."""
    blocks = np.einsum("ajbj->jab", rho.mat.reshape(da, db, da, db))
    return block_coordinates(blocks), -von_neumann_entropy(rho), _hermitian_basis(da).reshape(da * da, da * da)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_oracle_gradient_matches_central_differences(dims):
    """The stacked objective's gradient matches central differences of the
    summed value, and each start's slice is that start's gradient alone.
    The middle start has entries of +-30, so its H_j have eigenvalues of
    +-50 to +-100: sigma is nearly pure, and log Z is mostly the shift by
    the largest eigenvalue."""
    da, db = dims
    n_params = db * da * da
    rng = np.random.default_rng(11)
    for rank in (da * db, 2):
        rho = random_density(dims, rank, int(rng.integers(2**31)))
        args = oracle_inputs(rho, da, db)
        for _ in range(3):
            x = rng.standard_normal((3, n_params))
            x[1] = 30.0 * np.sign(x[1])
            _, grad, _ = _qi_oracle_objective(x.ravel(), *args)
            numeric = central_difference_gradient(lambda y: _qi_oracle_objective(y, *args)[0], x.ravel())
            assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(numeric)
            for start, grad_start in zip(x, grad.reshape(3, n_params)):
                assert np.array_equal(grad_start, _qi_oracle_objective(start, *args)[1])


def test_oracle_objective_is_finite_at_large_coordinates():
    """Entries of +-1e3 put the H_j's eigenvalues in the thousands, where
    exp overflows without the shift: the value and the gradient stay
    finite, and each start's value and gradient slice are that start's
    alone."""
    da, db = 2, 2
    n_params = db * da * da
    args = oracle_inputs(random_density((da, db), 3, 2), da, db)
    x = np.random.default_rng(3).standard_normal((3, n_params))
    x[1] = 1e3 * np.sign(x[1])
    values = _qi_oracle_values(x.ravel(), *args)[0]
    value, grad, start_values = _qi_oracle_objective(x.ravel(), *args)
    assert np.array_equal(start_values, values)
    assert np.isfinite(values).all() and np.isfinite(value) and np.isfinite(grad).all()
    grad = grad.reshape(3, n_params)
    for s in range(3):
        assert values[s] == _qi_oracle_values(x[s], *args)[0][0]
        assert np.array_equal(grad[s], _qi_oracle_objective(x[s], *args)[1])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_oracle_objective_is_convex(dims):
    """On random segments [a, b] of coordinates, f((a + b) / 2) is at most
    (f(a) + f(b)) / 2: log Z is a log-sum-exp of the H_j's eigenvalues and
    x.c is linear."""
    da, db = dims
    rng = np.random.default_rng(21)
    for rank in (1, 2, da * db):
        args = oracle_inputs(random_density(dims, rank, int(rng.integers(2**31))), da, db)
        for scale in (0.1, 1.0, 10.0):
            a, b = scale * rng.standard_normal((2, 16, db * da * da))
            f_a, f_b, f_mid = (_qi_oracle_values(x.ravel(), *args)[0] for x in (a, b, (a + b) / 2.0))
            assert (f_mid <= (f_a + f_b) / 2.0 + 1e-12).all()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_oracle_converges_from_every_start(monkeypatch, dims):
    """The summed objective is convex, so on a full-rank state, where the
    minimum is attained, every start ends at the closed form, not only the
    best one."""
    ends = []
    solver = measures.minimize

    def recording_minimize(fun, x0, args=(), **kwargs):
        res = solver(fun, x0, args, **kwargs)
        ends.append(_qi_oracle_values(res.x, *args)[0])
        return res

    monkeypatch.setattr(measures, "minimize", recording_minimize)
    for seed in range(10):
        rho = random_density(dims, dims[0] * dims[1], seed)
        qi_relative_entropy_oracle(rho, AB, starts=8, seed=seed)
        assert np.abs(ends[-1] - qi_relative_entropy(rho, AB)).max() <= 1e-7


@pytest.mark.parametrize("starts", [1, 8, 32])
def test_oracle_solves_its_starts_in_one_minimize_call(monkeypatch, starts):
    """One L-BFGS run per oracle call, from the starts drawn one after
    another from default_rng(seed), db * da^2 coordinates each, and the
    result is the best start's value where that run ends."""
    runs = []
    solver = measures.minimize

    def recording_minimize(fun, x0, *args, **kwargs):
        res = solver(fun, x0, *args, **kwargs)
        runs.append((x0.copy(), res.x))
        return res

    monkeypatch.setattr(measures, "minimize", recording_minimize)
    da, db = 2, 3
    rho = random_density((da, db), 3, 4)
    value = qi_relative_entropy_oracle(rho, AB, starts=starts, seed=9)
    assert len(runs) == 1
    x0, x_end = runs[0]
    rng = np.random.default_rng(9)
    n_params = db * da * da
    assert np.array_equal(x0, np.concatenate([rng.standard_normal(n_params) for _ in range(starts)]))
    assert value == _qi_oracle_values(x_end, *oracle_inputs(rho, da, db))[0].min()


def test_oracle_reads_its_value_from_the_run(monkeypatch):
    """The oracle's value is the starts' values that the L-BFGS run
    computed at its last accepted point: it evaluates no point after the
    run, so the run's evaluations are all there are."""
    evaluations, runs = [], []
    values, solver = measures._qi_oracle_values, measures.minimize

    def counted_values(*args, **kwargs):
        evaluations.append(args[0].copy())
        return values(*args, **kwargs)

    def recording_minimize(fun, x0, *args, **kwargs):
        res = solver(fun, x0, *args, **kwargs)
        runs.append(res)
        return res

    monkeypatch.setattr(measures, "_qi_oracle_values", counted_values)
    monkeypatch.setattr(measures, "minimize", recording_minimize)
    for seed in range(3):
        rho = random_density((2, 3), 3, seed)
        evaluations.clear()
        value = qi_relative_entropy_oracle(rho, AB, starts=4, seed=seed)
        res = runs[-1]
        assert len(evaluations) == res.nfev
        assert any(np.array_equal(x, res.x) for x in evaluations)
        assert value == values(res.x, *oracle_inputs(rho, 2, 3))[0].min()
        assert value == res.extra[0].min()


def random_quadratic(n, seed):
    """f(x) = (x - m)^T A (x - m) / 2 with A symmetric positive definite
    (eigenvalues in [0.5, 5]), its gradient, and its minimizer m."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q * rng.uniform(0.5, 5.0, n)) @ q.T
    m = rng.standard_normal(n)

    def fun(x):
        r = a @ (x - m)
        return 0.5 * float((x - m) @ r), r

    return fun, m


@pytest.mark.parametrize("n", [1, 5, 30])
def test_minimize_reaches_the_minimizer_of_a_convex_quadratic(n):
    for seed in range(5):
        fun, m = random_quadratic(n, seed)
        res = measures.minimize(fun, np.zeros(n), gtol=1e-10)
        assert np.abs(res.x - m).max() <= 1e-8
        assert res.fun == fun(res.x)[0]


def test_minimize_respects_maxiter_and_never_rises_above_the_start():
    fun, _ = random_quadratic(30, 7)
    x0 = np.random.default_rng(8).standard_normal(30)
    for maxiter in (0, 1, 3, 10):
        res = measures.minimize(fun, x0, maxiter=maxiter, gtol=0.0)
        assert res.nit <= maxiter
        assert res.fun <= fun(x0)[0]
    da, db = 3, 2
    args = oracle_inputs(random_density((da, db), 2, 6), da, db)
    for seed in range(10):
        x0 = np.random.default_rng(seed).standard_normal(8 * db * da * da)
        res = measures.minimize(_qi_oracle_objective, x0, args=args)
        assert res.nit <= ORACLE_MAX_ITER
        assert res.nfev >= res.nit + 1
        assert res.fun <= _qi_oracle_objective(x0, *args)[0]


# ---------------------------------------------------------------------------
# mutual information and discord


def test_bell_discord_values():
    bell = bell_states()[0].to_density()
    assert abs(mutual_information(bell, AB) - 2.0) < 1e-12
    assert abs(mutual_information(dephase(bell, (1,)), AB) - 1.0) < 1e-12
    assert abs(basis_dependent_discord(bell, AB) - 1.0) < 1e-12


def test_discord_zero_on_product_states():
    rho = random_density((2,), 2, 1).tensor(random_density((2,), 2, 2))
    assert basis_dependent_discord(rho, AB) < 1e-10


def test_discord_zero_on_qi_states():
    for seed in range(10):
        assert basis_dependent_discord(random_qi_state((2, 2), seed), AB) < 1e-9


def test_mutual_information_nonnegative():
    for seed in range(20):
        rho = random_density((2, 3), 6, seed)
        assert mutual_information(rho, AB) >= 0.0


# ---------------------------------------------------------------------------
# coherence of assistance


def test_assistance_pure_state_is_cr():
    rho = random_density((2,), 1, 9)
    value, ensemble = coherence_of_assistance(rho, budget=1, seed=0)
    assert abs(value - c_r(rho)) < 1e-12
    assert len(ensemble) == 1 and abs(ensemble[0][0] - 1.0) < 1e-12


def test_assistance_maximally_mixed_qubit_reaches_one():
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    value, ensemble = coherence_of_assistance(rho, budget=8, seed=0)
    assert value >= 1.0 - 1e-8
    # exhibit the plus/minus ensemble explicitly: it attains the bound
    plus = PureState(np.array([1, 1]) / math.sqrt(2), (2,))
    minus = PureState(np.array([1, -1]) / math.sqrt(2), (2,))
    explicit = 0.5 * c_r(plus.to_density()) + 0.5 * c_r(minus.to_density())
    assert abs(explicit - 1.0) < 1e-12
    avg = sum(p * np.outer(s.vec, s.vec.conj()) for p, s in ensemble)
    assert np.abs(avg - rho.mat).max() < 1e-8


def test_assistance_between_cr_and_dephased_entropy():
    for seed in range(6):
        rho = random_density((2,), 2, seed)
        value, ensemble = coherence_of_assistance(rho, budget=2, seed=seed)
        assert value <= von_neumann_entropy(dephase(rho, (0,))) + 1e-9
        assert value >= c_r(rho) - 1e-9
        avg = sum(p * np.outer(s.vec, s.vec.conj()) for p, s in ensemble)
        assert np.abs(avg - rho.mat).max() < 1e-8


def _shannon(p):
    p = np.asarray(p)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _qubit_cases():
    cases = [random_density((2,), 2, seed) for seed in range(50)]
    cases.append(DensityMatrix(np.diag([0.3, 0.7]), (2,)))  # x = y = 0
    psi = random_pure((2,), 3).vec
    eps = 1e-10
    cases.append(DensityMatrix((1 - eps) * np.outer(psi, psi.conj()) + eps * np.eye(2) / 2, (2,)))
    return cases


def _exact_assistance(rho):
    """The closed-form ensemble of rho, checked: the value is S(dephase(rho)),
    every member has diagonal diag(rho) and the members average to rho, all
    within 1e-12."""
    (value,), (ensemble,), (method,) = measures._assistances(rho.mat[None], rho.spectrum[None], rho.dims, 1, [0])
    diag = np.diag(rho.mat).real
    assert method == "closed-form"
    assert abs(value - _shannon(diag)) <= 1e-12
    for _, member in ensemble:
        assert np.abs(np.abs(member.vec) ** 2 - diag).max() <= 1e-12
    avg = sum(p * np.outer(s.vec, s.vec.conj()) for p, s in ensemble)
    assert np.abs(avg - rho.mat).max() <= 1e-12
    return ensemble


def test_assistance_qubit_closed_form_is_ground_truth():
    for rho in _qubit_cases():
        assert len(_exact_assistance(rho)) == 2


def test_assistance_qutrit_face_walk_is_ground_truth():
    # 500 seeded qutrits of each rank that is mixed
    for rank in (2, 3):
        for seed in range(500):
            assert len(_exact_assistance(random_density((3,), rank, 1000 * rank + seed))) <= 4


def _embedded_qutrit():
    """A rank-3 state on (2, 2) whose diagonal entry 2 is zero."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[np.ix_([0, 1, 3], [0, 1, 3])] = random_density((3,), 3, 77).mat
    return DensityMatrix(mat, (2, 2))


def _near_pure_qutrit():
    psi = random_pure((3,), 5).vec
    eps = 1e-10
    return DensityMatrix((1 - eps) * np.outer(psi, psi.conj()) + eps * np.eye(3) / 3, (3,))


FACE_WALK_EDGES = {
    "maximally-mixed": lambda: DensityMatrix(np.eye(3) / 3, (3,)),
    # rank 2: the Gram matrix of three real unit vectors 120 degrees apart
    "120-degrees": lambda: DensityMatrix((1.5 * np.eye(3) - 0.5 * np.ones((3, 3))) / 3, (3,)),
    "zero-diagonal-entry": lambda: DensityMatrix(np.diag([0.5, 0.5, 0.0]), (3,)),
    "near-pure": _near_pure_qutrit,
    "2x2-zero-diagonal-entry": _embedded_qutrit,
}


@pytest.mark.parametrize("make", FACE_WALK_EDGES.values(), ids=FACE_WALK_EDGES.keys())
def test_assistance_face_walk_edge_cases(make):
    assert len(_exact_assistance(make())) <= 4


def test_assistance_face_walk_checks_its_ensemble_against_rho():
    # within the 1e-9 positivity tolerance a zero diagonal entry can sit
    # beside an off-diagonal 1e-5; members with diagonal diag(rho) cannot
    # reproduce it, and the check says so instead of returning S(dephase)
    mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
    mat[0, 2] = mat[2, 0] = 1e-5
    with pytest.raises(InternalConsistencyError, match="misses rho by 1.000e-05"):
        coherence_of_assistance(DensityMatrix(mat, (3,)), budget=1)
    # in a stack the check names the state it rejects
    mats = np.stack([random_density((3,), 3, 0).mat, mat])
    with pytest.raises(InternalConsistencyError, match=r"^state 1: assistance ensemble misses rho by 1\.000e-05"):
        measures._assistances(mats, _density_stack(mats, (3,)), (3,), 1, [0, 0])


def test_assistance_single_level_support_of_rank_two_is_closed_form():
    # within the 1e-9 positivity tolerance a state with one nonzero diagonal
    # entry can have rank 2; it takes the walk, value S(dephase(rho)) = 0 and
    # the one member |0>, not c_r, whose S(rho) would leave it below -1e-9
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 0] = 1.0
    mat[1, 2] = mat[2, 1] = 5e-10
    value, ensemble = coherence_of_assistance(DensityMatrix(mat, (3,)), budget=1)
    assert value == 0.0 and len(ensemble) == 1
    assert np.abs(ensemble[0][1].vec - [1, 0, 0]).max() <= 1e-12


def _support_02_qutrit():
    """A rank-2 qutrit whose diagonal entry 1 is zero."""
    mat = np.zeros((3, 3), dtype=complex)
    mat[np.ix_([0, 2], [0, 2])] = random_density((2,), 2, 88).mat
    return DensityMatrix(mat, (3,))


# stacks of states, each stack on one dims: qubits; qutrits with supports of
# two levels (two different supports) and of three; and a (2, 2) stack with
# one face-walk state, one pure state and one state for the ascent
ASSISTANCE_STACKS = {
    "qubits": _qubit_cases,
    "qutrit-supports": lambda: [FACE_WALK_EDGES["zero-diagonal-entry"](), _support_02_qutrit()]
    + [random_density((3,), rank, 1000 * rank + seed) for rank in (2, 3) for seed in range(3)],
    "2x2-routes": lambda: [_embedded_qutrit(), random_density((2, 2), 1, 3), random_density((2, 2), 4, 5)],
}


@pytest.mark.parametrize("make", ASSISTANCE_STACKS.values(), ids=ASSISTANCE_STACKS.keys())
def test_assistance_stack_equals_one_state_calls(make):
    # values, methods, weights and member bytes, bit for bit
    rhos = make()
    seeds = list(range(100, 100 + len(rhos)))
    mats = np.stack([rho.mat for rho in rhos])
    stacked = measures._assistances(mats, _density_stack(mats, rhos[0].dims), rhos[0].dims, 1, seeds)
    for rho, seed, value, ensemble, method in zip(rhos, seeds, *stacked):
        (single_value,), (single,), (single_method,) = measures._assistances(
            rho.mat[None], rho.spectrum[None], rho.dims, 1, [seed])
        assert np.array(value).tobytes() == np.array(single_value).tobytes()
        assert method == single_method
        assert np.array([p for p, _ in ensemble]).tobytes() == np.array([p for p, _ in single]).tobytes()
        assert np.array([s.vec for _, s in ensemble]).tobytes() == np.array([s.vec for _, s in single]).tobytes()
        if method == "closed-form" and np.linalg.matrix_rank(rho.mat, tol=1e-14) > 1:
            _exact_assistance(rho)
    assert stacked[2].count("optimized") == (1 if rhos[0].dims == (2, 2) else 0)


def test_assistance_ascent_leaves_a_diagonal_state_at_its_upper_end():
    # on a diagonal state the eigen-ensemble start is a stationary point of
    # the ascent at value 0; the first restart must start elsewhere
    for diag, dims in (([0.25] * 4, (4,)), ([0.1, 0.2, 0.3, 0.4], (2, 2))):
        rho = DensityMatrix(np.diag(diag), dims)
        (value,), _, (method,) = measures._assistances(rho.mat[None], rho.spectrum[None], dims, 1, [0])
        assert method == "optimized"
        assert abs(value - _shannon(diag)) <= 1e-12


@pytest.mark.parametrize("dims,rank", [((3,), 3), ((3,), 2), ((2, 2), 4)])
def test_assistance_gradient_matches_central_differences(dims, rank):
    rng = np.random.default_rng(12)
    rho = random_density(dims, rank, int(rng.integers(2**31)))
    w, v = np.linalg.eigh(rho.mat)
    w_mat = v[:, -rank:] * np.sqrt(w[-rank:])
    m = rho.dim**2
    for _ in range(3):
        v0 = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        _, grad = _assistance_objective(w_mat, v0)
        # dF = 2 Re Tr[G^dagger dV]: the real gradient is 2 Re G, 2 Im G.
        analytic = 2.0 * np.concatenate([grad.real.ravel(), grad.imag.ravel()])

        def f(y):
            return _assistance_objective(w_mat, (y[: m * rank] + 1j * y[m * rank :]).reshape(m, rank))[0]

        numeric = central_difference_gradient(f, np.concatenate([v0.real.ravel(), v0.imag.ravel()]))
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(numeric)


# (dims, rank, seed): 20 qutrits of ranks 3 and 2, and two mixed 2x2 states.
ASSISTANCE_REGRESSION = (
    [((3,), 3, seed) for seed in range(400, 410)]
    + [((3,), 2, seed) for seed in range(400, 410)]
    + [((2, 2), 4, 500), ((2, 2), 3, 501)]
)


@pytest.mark.parametrize("dims,rank,seed", ASSISTANCE_REGRESSION)
def test_assistance_bracket_beyond_qubits(dims, rank, seed):
    rho = random_density(dims, rank, seed)
    value, ensemble = coherence_of_assistance(rho, budget=2, seed=seed)
    upper = von_neumann_entropy(dephase(rho, range(len(dims))))
    assert c_r(rho) - 1e-9 <= value <= upper + 1e-9
    avg = sum(p * np.outer(s.vec, s.vec.conj()) for p, s in ensemble)
    assert np.abs(avg - rho.mat).max() <= 1e-8
    if dims == (3,) and rank == 3:
        assert upper - value < 1e-8


def test_assistance_rejects_large_mixed_dimension():
    with pytest.raises(DimensionTooLargeError):
        coherence_of_assistance(random_density((17,), 2, 0), budget=1)
    # pure states and qubits never reach the search
    value, _ = coherence_of_assistance(random_density((17,), 1, 0), budget=1)
    assert value >= 0.0


# ---------------------------------------------------------------------------
# continuity bound


def test_continuity_bound_zero_for_equal_states():
    rho = random_density((2, 2), 4, 1)
    assert continuity_bound(rho, rho, AB) < 1e-12


def test_continuity_bound_bell_vs_dephased():
    bell = bell_states()[0].to_density()
    dephased = dephase(bell, (0, 1))
    t = trace_norm(bell.mat - dephased.mat) / 2
    assert abs(t - 0.5) < 1e-12
    bound = continuity_bound(bell, dephased, AB)
    assert abs(bound - 4.0) < 1e-12
    diff = abs(qi_relative_entropy(bell, AB) - qi_relative_entropy(dephased, AB))
    assert diff <= bound


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_continuity_bound_dominates_difference():
    rng = np.random.default_rng(3)
    for _ in range(30):
        rho = random_density((2, 2), 4, int(rng.integers(2**31)))
        sigma = random_density((2, 2), 4, int(rng.integers(2**31)))
        diff = abs(qi_relative_entropy(rho, AB) - qi_relative_entropy(sigma, AB))
        assert diff <= continuity_bound(rho, sigma, AB) + 1e-12


def test_continuity_bound_flags_large_t():
    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    one = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
    with pytest.warns(UserWarning):
        continuity_bound(zero, one)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    assert abs(binary_entropy(0.25) - (2.0 - 0.75 * math.log2(3.0))) < 1e-12
