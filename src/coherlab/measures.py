"""Scalar coherence and correlation quantifiers.

Dephasing maps, relative entropy of coherence, the quantum-incoherent (QI)
relative entropy in closed form and as a small-scale minimization oracle
(a convex search over the QI Gibbs states, whose gradient is sigma - rho,
solved by the numpy L-BFGS ``minimize``), basis-dependent discord, mutual
information, coherence of assistance on stacks of states (in closed form
where the diagonal has at most three nonzero entries, qubits included, by
one face walk per support size that the Grone-Pierce-Watkins rank bound
on the extreme correlation matrices justifies, and by gradient ascent
above), and the trace-distance continuity bound.  All values are in bits.
The module needs numpy only: a solver that needs scipy must import it
inside the function that uses it, so that ``import coherlab`` never loads
scipy.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .exceptions import (
    BadSubsystemError,
    DimensionTooLargeError,
    InternalConsistencyError,
)
from .linalg import (
    DensityMatrix,
    PureState,
    partial_trace,
    trace_norm,
    von_neumann_entropy,
    _basis_rows,
    _density_matrices,
    _density_stack,
    _entropies,
    _indexed,
    _pure_stack,
    _subsystem_index,
    _unchecked,
    _validate_subsystems,
)

__all__ = [
    "Bipartition",
    "MeasureReport",
    "binary_entropy",
    "dephase",
    "c_r",
    "qi_relative_entropy",
    "qi_relative_entropy_oracle",
    "mutual_information",
    "basis_dependent_discord",
    "coherence_of_assistance",
    "continuity_bound",
]

# Rounding guard: values in [-NEG_CLAMP, 0) are clamped to 0, anything more
# negative is an internal-consistency failure.
NEG_CLAMP = 1e-9

# Coherence-of-assistance ascent: iterations per restart, the squared
# gradient norm at which a restart counts as converged, and the distance to
# the upper bound S(dephase(rho)) at which the search stops.
ASSIST_MAX_ITER = 2000
ASSIST_SLOPE_TOL = 1e-18
ASSIST_GAP_TOL = 1e-12
# Largest mixed state the ascent accepts: each step diagonalizes a
# (d^2 x d^2) matrix, one row per outcome of the ancilla measurement.
ASSIST_MAX_DIM = 16
# Largest max |sum_j p_j psi_j psi_j^dagger - rho| the closed-form ensemble
# of a state with at most three nonzero diagonal entries may leave.  The
# walk reproduces a Hermitian positive rho to rounding, so a larger
# residual is an internal fault, or a rho further from Hermitian positive
# than the 1e-9 its validation allows.
ASSIST_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Bipartition:
    """A|B split of the subsystems: the B side is the incoherent-restricted
    party.  No subsystem may be listed twice, on one side or on both, and the
    sides must be exhaustive; B is non-empty."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(map(_subsystem_index, self.a)))
        object.__setattr__(self, "b", tuple(map(_subsystem_index, self.b)))
        if not self.b:
            raise BadSubsystemError("B side of a bipartition must be non-empty")
        if len(set(self.a) | set(self.b)) < len(self.a) + len(self.b):
            raise BadSubsystemError(f"bipartition {self.a}|{self.b} lists a subsystem twice")

    def validate(self, n_subsystems: int) -> None:
        if set(self.a) | set(self.b) != set(range(n_subsystems)):
            raise BadSubsystemError(
                f"bipartition {self.a}|{self.b} does not cover all {n_subsystems} subsystems"
            )

    @classmethod
    def parse(cls, spec: str) -> "Bipartition":
        """Parse a split spec such as ``"A=0;B=1,2"`` (A may be empty, and
        each side may be named once)."""
        sides: dict[str, tuple[int, ...]] = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            name, _, values = part.partition("=")
            name = name.strip().upper()
            if name not in ("A", "B"):
                raise BadSubsystemError(f"unknown side {name!r} in split spec {spec!r}")
            if name in sides:
                raise BadSubsystemError(f"split spec {spec!r} names side {name} twice")
            try:
                indices = tuple(int(v) for v in values.split(",") if v.strip() != "")
            except ValueError as exc:
                raise BadSubsystemError(f"non-integer index in split spec {spec!r}") from exc
            sides[name] = indices
        if "B" not in sides:
            raise BadSubsystemError(f"split spec {spec!r} does not define the B side")
        return cls(a=sides.get("A", ()), b=sides["B"])


def _finalize(value: float, what: str) -> float:
    if value < -NEG_CLAMP:
        raise InternalConsistencyError(f"{what} came out at {value:.3e} < -{NEG_CLAMP:.0e}")
    return 0.0 if value < 0.0 else float(value)


@dataclass(frozen=True)
class MeasureReport:
    """A named scalar result together with the inputs that produced it and
    how it was obtained ("closed-form" | "optimized").  The QI oracle makes
    no report: it returns a bare float, an upper bound on the closed form."""

    name: str
    value: float
    inputs: dict
    method: str = "closed-form"

    def __post_init__(self):
        object.__setattr__(self, "value", _finalize(self.value, self.name))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "method": self.method,
            "inputs": self.inputs,
        }


def binary_entropy(t: float) -> float:
    """h(t) = -t log2 t - (1-t) log2 (1-t), with h(0) = h(1) = 0."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return float(-t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t))


def _dephase_stack(mats: np.ndarray, dims: tuple[int, ...], subsystems) -> np.ndarray:
    """Each matrix of an (n, N, N) stack with subsystem dims ``dims``, its
    off-diagonal elements in the basis of the selected subsystems zeroed."""
    rows = _basis_rows(dims, _validate_subsystems(subsystems, len(dims), allow_empty=True))
    # one block per basis label of the selection, its rows and columns rows[s]
    mask = np.zeros(mats.shape[-2:], dtype=bool)
    mask[rows[:, :, None], rows[:, None, :]] = True
    return np.where(mask, mats, 0.0)


def dephase(rho: DensityMatrix, subsystems) -> DensityMatrix:
    """Zero every off-diagonal element in the incoherent basis of the
    selected subsystems.  Empty selection is the identity map; the full
    selection is total dephasing.  Trace-preserving and idempotent.  The
    result is block-diagonal over the selection's basis labels, so its
    validation solves those blocks (``linalg._density_stack``)."""
    selected = _validate_subsystems(subsystems, rho.n_subsystems, allow_empty=True)
    if not selected:
        return rho
    mats = _dephase_stack(rho.mat[None], rho.dims, selected)
    spectra = _density_stack(mats, rho.dims, _basis_rows(rho.dims, selected))
    return _density_matrices(mats, spectra, rho.dims)[0]


def _dephased_entropy(mats: np.ndarray, dims: tuple[int, ...], subsystems) -> np.ndarray:
    """S(dephase(rho, subsystems)) for each rho of an (n, N, N) stack with
    subsystem dims ``dims``, without building the dephased states.

    Dephasing the set S leaves rho block-diagonal over S's basis labels,
    one (d_rest, d_rest) block per label, so its spectrum is the union of
    the blocks' spectra; the blocks of the whole stack go through one
    batched eigvalsh.  With S every subsystem the blocks are the diagonal
    entries and the entropy is their Shannon entropy."""
    rows = _basis_rows(dims, _validate_subsystems(subsystems, len(dims)))
    if rows.shape[1] == 1:
        return _entropies(np.diagonal(mats, axis1=1, axis2=2))
    blocks = mats[:, rows[:, :, None], rows[:, None, :]]
    return _entropies(np.linalg.eigvalsh(blocks))


def _coherences(mats: np.ndarray, spectra: np.ndarray, dims: tuple[int, ...]) -> list[float]:
    """``c_r`` of each state of a validated (n, N, N) stack with spectra
    ``spectra`` and subsystem dims ``dims``, the dephased entropies from one
    call."""
    values = _dephased_entropy(mats, dims, range(len(dims))) - _entropies(spectra)
    return [_finalize(value, "relative entropy of coherence") for value in values.tolist()]


def c_r(rho: DensityMatrix) -> float:
    """Relative entropy of coherence S(dephase(rho)) - S(rho); equals the
    distillable coherence.  S(dephase(rho)) is the Shannon entropy of the
    diagonal and S(rho) comes from rho's stored spectrum."""
    return _coherences(rho.mat[None], rho.spectrum[None], rho.dims)[0]


def _qi_relative_entropies(mats: np.ndarray, spectra: np.ndarray, dims: tuple[int, ...],
                           split: Bipartition) -> np.ndarray:
    """``qi_relative_entropy`` of each state of a validated (n, N, N) stack
    with spectra ``spectra`` and subsystem dims ``dims``."""
    split.validate(len(dims))
    values = _dephased_entropy(mats, dims, split.b) - _entropies(spectra)
    return np.array([_finalize(value, "QI relative entropy") for value in values.tolist()])


def qi_relative_entropy(rho: DensityMatrix, split: Bipartition) -> float:
    """Relative-entropy distance to the quantum-incoherent set for the A|B
    split, in closed form: S(dephase_B(rho)) - S(rho).  S(dephase_B(rho))
    comes from the A-blocks of rho, one per basis label of B, and S(rho)
    from rho's stored spectrum."""
    return float(_qi_relative_entropies(rho.mat[None], rho.spectrum[None], rho.dims, split)[0])


@functools.cache
def _hermitian_basis(r: int) -> np.ndarray:
    """The r^2 matrices E_aa, E_ab + E_ba and i(E_ab - E_ba) (a < b), a real
    basis of the Hermitian (r, r) matrices, shape (r^2, r, r).  Built once
    per r and read-only."""
    eye = np.eye(r)
    a, b = np.triu_indices(r, 1)
    e_ab = eye[a, :, None] * eye[b, None, :]
    basis = np.concatenate([eye[:, :, None] * eye, e_ab + e_ab.swapaxes(1, 2), 1j * (e_ab - e_ab.swapaxes(1, 2))])
    basis.flags.writeable = False
    return basis


# Largest state the oracle accepts.
ORACLE_MAX_DIM = 16
# L-BFGS run of the oracle, with scipy's L-BFGS-B defaults: iteration cap,
# curvature pairs kept, and the stop on max |gradient|.
ORACLE_MAX_ITER = 200
ORACLE_HISTORY = 10
ORACLE_GTOL = 1e-5


class MinimizeResult(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    extra: tuple = ()


def minimize(fun, x0, args=(), maxiter=ORACLE_MAX_ITER, gtol=ORACLE_GTOL) -> MinimizeResult:
    """Unconstrained L-BFGS on ``fun(x, *args) -> (value, gradient, *extra)``.

    The direction comes from the two-loop recursion over the last
    ORACLE_HISTORY curvature pairs (s, y), with the initial inverse Hessian
    scaled by s.y / y.y of the newest pair; a pair with s.y <= 1e-10 y.y is
    not kept.  Each step starts at length 1 (1 / max|g| on the first) and
    is halved until the Armijo condition f(x + t d) <= f(x) + 1e-4 t g.d
    holds, which a value that is not finite never meets.  Stops once
    max|g| <= ``gtol``, after ``maxiter`` iterations, or when no step
    lowers the value.  The value never rises above fun(x0).  Any items
    ``fun`` returns past the gradient come back, for the point returned,
    as ``extra``, so no caller evaluates that point again."""
    x = np.array(x0, dtype=float)
    f, g, *extra = fun(x, *args)
    nit, nfev, pairs = 0, 1, []
    while nit < maxiter and np.abs(g).max() > gtol:
        q, alphas = g.copy(), []
        for s, y, r in reversed(pairs):
            alphas.append(r * (s @ q))
            q -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        else:
            q /= np.abs(g).max()
        for (s, y, r), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - r * (y @ q)) * s
        slope, step = -(g @ q), 1.0
        while True:
            x_new = x - step * q
            f_new, g_new, *extra_new = fun(x_new, *args)
            nfev += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-20:
                return MinimizeResult(x, f, nit, nfev, tuple(extra))
        s, y = x_new - x, g_new - g
        if s @ y > 1e-10 * (y @ y):
            pairs = (pairs + [(s, y, 1.0 / (s @ y))])[-ORACLE_HISTORY:]
        nit += 1
        x, f, g, extra = x_new, f_new, g_new, extra_new
    return MinimizeResult(x, f, nit, nfev, tuple(extra))


def _qi_oracle_values(x: np.ndarray, c: np.ndarray, neg_entropy: float,
                      basis: np.ndarray) -> tuple[np.ndarray, tuple]:
    """S(rho||sigma_s) in bits for each start s, for the QI Gibbs states
    sigma_s = sum_j exp(H_j) (x) |j><j| / Z, Z = sum_k Tr exp(H_k), on
    (A, B) block order.

    x holds the starts' coordinates back to back: per start and B label j,
    H_j = sum_k x_jk E_k, with E_k the rows of ``basis``, the
    (da^2, da^2) flattened ``_hermitian_basis(da)``.  c[j, k] = Tr[rho_j E_k]
    holds the coordinates of rho's A-block rho_j, and neg_entropy is
    -S(rho).  Since Tr[rho log sigma] = x.c - log Z, the value is
    -S(rho) - (x.c - log Z) / ln 2, with log Z taken after shifting by the
    largest eigenvalue, so every finite x has a finite value.

    Returns the values, shape (starts,), and each sigma_j's eigenvectors
    and eigenvalues, shapes (starts, db, da, da) and (starts, db, da)."""
    db, n = c.shape
    da = math.isqrt(n)
    x = x.reshape(-1, db * n)
    w, vecs = np.linalg.eigh((x.reshape(-1, db, n) @ basis).reshape(-1, db, da, da))
    shift = w.max(axis=(1, 2))
    weights = np.exp(w - shift[:, None, None])
    z = weights.sum(axis=(1, 2))
    values = neg_entropy - (x @ c.ravel() - shift - np.log(z)) / math.log(2.0)
    return values, (vecs, weights / z[:, None, None])


def _qi_oracle_objective(x: np.ndarray, c: np.ndarray, neg_entropy: float,
                         basis: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The sum over starts of S(rho||sigma_s) (see ``_qi_oracle_values``),
    its gradient in x, and the starts' values, the item past the gradient
    that ``minimize`` hands back for its last point.  The sum is separable,
    so its gradient is the starts' own gradients back to back.

    Each term is -S(rho) + (log Z - x.c) / ln 2: x.c is linear, and
    log Z = log sum_j Tr exp(H_j) is convex in the H_j, so the sum is
    convex in x.  The derivative of log Z in x_jk is Tr[sigma_j E_k], so
    the gradient is (Tr[sigma_j E_k] - c[j, k]) / ln 2, the coordinates of
    sigma - rho."""
    values, (vecs, p) = _qi_oracle_values(x, c, neg_entropy, basis)
    sigma = (vecs * p[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    coords = (sigma.reshape(-1, *c.shape) @ basis.conj().T).real
    return float(values.sum()), ((coords - c) / math.log(2.0)).ravel(), values


def qi_relative_entropy_oracle(
    rho: DensityMatrix,
    split: Bipartition,
    starts: int = 32,
    seed: int = 0,
) -> float:
    """Desk-scale check of the closed form: minimize S(rho||sigma) over the
    quantum-incoherent Gibbs states of ``_qi_oracle_values`` from
    ``starts`` random starts, drawn from ``default_rng(seed)``.  The starts
    are solved as one stacked problem, by a single numpy L-BFGS run
    (``minimize``) on the sum of their values with the gradient sigma - rho
    of ``_qi_oracle_objective``.  That sum is convex, so every start heads
    for the same minimum, and the result is the smallest start's value at
    the end of the run, as the run evaluated it, an upper bound on the
    closed form.  Only intended to validate ``qi_relative_entropy``."""
    split.validate(rho.n_subsystems)
    if rho.dim > ORACLE_MAX_DIM:
        raise DimensionTooLargeError(f"oracle limited to dimension {ORACLE_MAX_DIM}, got {rho.dim}")
    # rho's A-block for each B label, both sides' labels in the split's order
    rows = _basis_rows(rho.dims, split.b, split.a)
    db, da = rows.shape
    basis = _hermitian_basis(da).reshape(da * da, da * da)
    c = (rho.mat[rows[:, :, None], rows[:, None, :]].reshape(db, da * da) @ basis.conj().T).real
    # S(rho||sigma) = -S(rho) - Tr[rho log2 sigma]; only the second term
    # depends on sigma.
    neg_entropy = -von_neumann_entropy(rho)
    x0 = np.random.default_rng(seed).standard_normal((max(1, starts), db * da * da))
    res = minimize(_qi_oracle_objective, x0.ravel(), args=(c, neg_entropy, basis))
    return float(res.extra[0].min())


def mutual_information(rho: DensityMatrix, split: Bipartition) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho), each entropy from a stored
    spectrum: both marginals are validated states."""
    split.validate(rho.n_subsystems)
    if not split.a:
        raise BadSubsystemError("mutual information needs a non-empty A side")
    rho_a, rho_b = partial_trace(rho, split.a), partial_trace(rho, split.b)
    value = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b) - von_neumann_entropy(rho)
    return _finalize(value, "mutual information")


def basis_dependent_discord(rho: DensityMatrix, split: Bipartition) -> float:
    """Mutual-information loss under dephasing of the B side:
    I(A:B)(rho) - I(A:B)(dephase_B(rho)).

    Dephasing B leaves rho_A unchanged and dephases rho_B, so S(rho_A)
    cancels and is not computed:
    discord = S(rho_B) - S(rho) - H(diag rho_B) + S(dephase_B(rho)).
    S(rho_B) and S(rho) come from the stored spectra of rho and of the
    validated rho_B, and S(dephase_B(rho)) from the A-blocks of rho."""
    split.validate(rho.n_subsystems)
    if not split.a:
        raise BadSubsystemError("basis-dependent discord needs a non-empty A side")
    rho_b = partial_trace(rho, split.b)
    value = (von_neumann_entropy(rho_b) - von_neumann_entropy(rho)
             - _dephased_entropy(rho_b.mat[None], rho_b.dims, range(rho_b.n_subsystems))[0]
             + _dephased_entropy(rho.mat[None], rho.dims, split.b)[0])
    return _finalize(value, "basis-dependent discord")


def _assistance_objective(w_mat: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Average coherence F = sum_j p_j H(q_.j / p_j) in bits of the ensemble
    Phi = W V^T (column j is member j, unnormalized; q = |Phi|^2 and p_j is
    column j's weight), and its gradient dF/d(conj V) = G_Phi^T conj(W), where
    dF/d(conj phi_ij) = log2(p_j / q_ij) phi_ij.  Entries with q_ij = 0
    contribute nothing to either."""
    phi = w_mat @ v.T
    q = np.abs(phi) ** 2
    ratio = np.divide(q.sum(axis=0), q, out=np.ones_like(q), where=q > 0.0)
    log_ratio = np.log2(ratio)
    return float((q * log_ratio).sum()), (log_ratio * phi).T @ w_mat.conj()


def _assistance_ascent(w_mat: np.ndarray, v: np.ndarray, target: float) -> tuple[float, np.ndarray]:
    """Maximize ``_assistance_objective`` over isometries V by gradient
    ascent along V <- exp(tX) V with X = G V^dagger - V G^dagger.

    X is anti-Hermitian, so exp(tX) is unitary and V stays an isometry;
    dF/dt at t = 0 is ||X||_F^2.  Each step starts at the Barzilai-Borwein
    length <s, s> / -<s, y> (s the last step tX, y the change in X) and is
    halved until the Armijo condition F_new >= F + 1e-4 t ||X||_F^2 holds.
    Stops once F is within ASSIST_GAP_TOL of ``target`` (an upper bound on
    F), or the slope falls below ASSIST_SLOPE_TOL, or no step gains."""
    value, grad = _assistance_objective(w_mat, v)
    step, last = 1.0, None
    for _ in range(ASSIST_MAX_ITER):
        if value >= target - ASSIST_GAP_TOL:
            break
        a = grad @ v.conj().T
        x = a - a.conj().T
        slope = float(np.vdot(x, x).real)
        if slope < ASSIST_SLOPE_TOL:
            break
        if last is not None:
            s, y = last[0] * last[1], x - last[1]
            curvature = -float(np.vdot(s, y).real)
            step = float(np.vdot(s, s).real) / curvature if curvature > 0.0 else 1.0
        # exp(tX) = U diag(exp(-i t w)) U^dagger from the Hermitian iX = U diag(w) U^dagger.
        wh, vh = np.linalg.eigh(1j * x)
        rotated = vh.conj().T @ v
        while True:
            trial = (vh * np.exp(-1j * step * wh)) @ rotated
            trial_value, trial_grad = _assistance_objective(w_mat, trial)
            if trial_value >= value + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-12:
                return value, v
        last = (step, x)
        value, grad, v = trial_value, trial_grad, trial
    return value, v


def _face_directions(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a unit Hermitian (r, r)
    N with diag(F N F^dagger) = 0, per factor F of a (k, n, r) stack with
    n <= 3 and r = 2 or 3.

    F (I + tN) F^dagger keeps the diagonal of F F^dagger for every t: N
    points along the face of the states with that diagonal.  N is the last
    right-singular vector of the real linear map from its coordinates in
    ``_hermitian_basis(r)`` to that diagonal, n rows against r^2 >= 4
    unknowns, so an exact null vector exists.  Its eigenvalues straddle 0:
    a definite N would give f_i N f_i^dagger != 0 on a nonzero row f_i of
    F, and a multiple of the identity would give diag(F F^dagger) = 0."""
    basis = _hermitian_basis(f.shape[-1])
    rows = np.einsum("kia,mab,kib->kim", f, basis, f.conj()).real
    null = np.linalg.svd(rows)[2][:, -1]
    return np.linalg.eigh(np.einsum("km,mab->kab", null, basis))


def _face_walk(f: np.ndarray) -> np.ndarray:
    """Rows phi_j, (k, 4, n) for n = 3, (k, 2, n) for n = 2 and F for n = 1,
    with sum_j phi_j phi_j^dagger = F F^dagger and |phi_ji|^2 proportional
    to (F F^dagger)_ii, for each (n, n) factor F of a (k, n, n) stack of
    states of n <= 3 levels, each with a positive diagonal entry.

    Each step splits every node of a level, as one stack, with the
    eigenvalues nu (span nu_max - nu_min > 0) and eigenvectors w of its
    ``_face_directions``; it works on factors, so it never inverts a state.
    - Rank 3 to 2 (n = 3): F F^dagger = F+ F+^dagger + F- F-^dagger with
      F+ = F w diag(sqrt((nu - nu_min) / span)) and
      F- = F w diag(sqrt((nu_max - nu) / span)), each with one zero column
      dropped.  As diag(F N F^dagger) = 0, their diagonals are
      -nu_min / span and nu_max / span times F F^dagger's: they are the two
      ends F (I + t N) F^dagger, t = -1/nu_min and -1/nu_max, of the face,
      weighted in the ratio of their distances to the other end.
    - Rank 2 to 1: the members are F w_1 and F w_2, and add up to
      F F^dagger.  diag(F N F^dagger) = 0 reads
      nu_1 |(F w_1)_i|^2 + nu_2 |(F w_2)_i|^2 = 0, so each member's moduli
      are proportional to the square roots of F F^dagger's diagonal."""
    k, n = f.shape[:2]
    if n == 3:
        nu, w = _face_directions(f)
        g = f @ w
        span = nu[:, 2:] - nu[:, :1]
        f = np.concatenate([g[:, :, 1:] * np.sqrt((nu[:, 1:] - nu[:, :1]) / span)[:, None],
                            g[:, :, :2] * np.sqrt((nu[:, 2:] - nu[:, :2]) / span)[:, None]])
    if f.shape[-1] == 2:
        f = f @ _face_directions(f)[1]
    # every F+, then every F- for n = 3: each state's members, F+'s first
    return f.reshape(-1, k, n, f.shape[-1]).transpose(1, 0, 3, 2).reshape(k, -1, n)


def coherence_of_assistance(rho: DensityMatrix, budget: int = 64,
                            seed: int = 0) -> tuple[float, list[tuple[float, PureState]]]:
    """Best average pure-state coherence over the decompositions of rho:
    ``(value, ensemble)``, the one-state case of ``_assistances``.  Exact,
    S(dephase(rho)), when rho's diagonal has at most three nonzero entries
    (every qubit and qutrit); above that a lower bound from gradient ascent."""
    values, ensembles, _ = _assistances(rho.mat[None], rho.spectrum[None], rho.dims, budget, [seed])
    return values[0], ensembles[0]


def _assistances(mats: np.ndarray, spectra: np.ndarray, dims: tuple[int, ...], budget: int,
                 seeds) -> tuple[list[float], list[list[tuple[float, PureState]]], list[str]]:
    """``(values, ensembles, methods)`` of the best average pure-state
    coherence over the decompositions of each state of a validated (k, d, d)
    stack with spectra ``spectra``: each ensemble averages back to its
    state, and each method is "closed-form" where the value is exact,
    "optimized" for the ascent.  Every value lies in [c_r(rho),
    S(dephase(rho))].  The stack takes one eigh; the states of one route
    take their members' validation as one stack.
    - A pure state: its only decomposition, value c_r(rho).
    - At most three nonzero diagonal entries (every qubit and qutrit):
      S(dephase(rho)), from one face walk per support size n.  Each member
      is sqrt(diag rho) times the phases of a ``_face_walk`` row, weighted by
      the row's squared norm, so it has diagonal diag(rho).  Such ensembles
      exist as a complex correlation matrix of order n has extreme points of
      rank r only for r^2 <= n (Grone, Pierce and Watkins, Linear Algebra
      Appl. 134, 63 (1990)).  An ensemble must average back to its state
      within ASSIST_RESIDUAL_TOL, or InternalConsistencyError names the
      first state it misses.
    - Otherwise (d >= 4): per state, gradient ascent over a measurement
      basis on a purification ancilla (d^2 outcomes), a certified lower
      bound with upper end S(dephase(rho)).  ``budget`` caps the restarts,
      the first from the first r columns of the d^2-point DFT matrix (r the
      rank), the rest from random bases drawn from ``default_rng(seeds[i])``;
      they stop once the value reaches the upper end.  Mixed states above
      ASSIST_MAX_DIM dimensions raise ``DimensionTooLargeError``."""
    k, d = mats.shape[:2]
    w, v = np.linalg.eigh(mats)
    w = np.maximum(w, 0.0)
    diag = mats.diagonal(axis1=1, axis2=2).real
    # S(dephase(rho)), the Shannon entropy of the diagonal
    values = _entropies(diag).tolist()
    ensembles = [None] * k
    # each state's support size, 0 for a pure state (no second eigenvalue
    # above 1e-14): it picks the route
    on = diag > 0.0
    sizes = np.where(w[:, :-1].max(axis=1, initial=0.0) > 1e-14, on.sum(axis=1), 0)
    for n in sorted(set(sizes.tolist())):
        idx = np.flatnonzero(sizes == n)
        sel = slice(None) if idx.size == k else idx
        if n == 0:
            # Pure state: the only decomposition is the state itself.
            for i, value in zip(idx.tolist(), _coherences(mats[sel], spectra[sel], dims)):
                values[i] = value
            group = _ensembles(np.ones((idx.size, 1)), v[sel][:, :, -1][:, None], dims)
        elif n <= 3:
            # the top n eigenpairs factor each state's block on its support:
            # the others have eigenvalue 0; a support of every level is
            # sliced, a smaller one gathered
            rows = on[sel]
            f = v[sel] if n == d else v[sel][rows].reshape(-1, n, d)
            phi = _face_walk(f[:, :, -n:] * np.sqrt(w[sel, None, -n:]))
            p = np.einsum("kji,kji->kj", phi, phi.conj()).real
            modulus = np.abs(phi)
            # each member is sqrt(diag rho) times the phases of its row
            phases = np.divide(phi, modulus, out=np.ones_like(phi), where=modulus > 0.0)
            if n == d:
                psi = np.sqrt(diag[sel])[:, None] * phases
            else:
                psi = np.zeros(phi.shape[:2] + (d,), dtype=complex)
                psi.swapaxes(1, 2)[rows] = (np.sqrt(diag[sel][rows])[:, None]
                                            * phases.swapaxes(1, 2).reshape(-1, phi.shape[1]))
            residuals = np.abs((p[:, :, None] * psi).swapaxes(1, 2) @ psi.conj() - mats[sel]).max(axis=(1, 2))
            for i, residual in zip(idx.tolist(), residuals.tolist()):
                if not residual <= ASSIST_RESIDUAL_TOL:
                    raise _indexed(InternalConsistencyError, "state", i, k,
                                   f"assistance ensemble misses rho by {residual:.3e} > {ASSIST_RESIDUAL_TOL:.0e}")
            group = _ensembles(p, psi, dims)
        else:
            if d > ASSIST_MAX_DIM:
                raise DimensionTooLargeError(f"assistance search limited to dimension {ASSIST_MAX_DIM}, got {d}")
            group = []
            for i in idx.tolist():
                keep = w[i] > 1e-14
                values[i], p, psi = _assistance_search(v[i][:, keep] * np.sqrt(w[i][keep]), values[i],
                                                       budget, seeds[i])
                group += _ensembles(p[None], psi[None], dims)
        for i, ensemble in zip(idx.tolist(), group):
            ensembles[i] = ensemble
    return values, ensembles, ["optimized" if n > 3 else "closed-form" for n in sizes.tolist()]


def _ensembles(p: np.ndarray, psi: np.ndarray, dims: tuple[int, ...]) -> list[list[tuple[float, PureState]]]:
    """The ensembles of a (k, m) stack of weights ``p`` and the (k, m, N)
    stack ``psi`` of their members, each member of weight 0 left out; the
    kept ones are validated as one stack and stored C-contiguous, read-only."""
    keep = p > 0.0
    psi = np.ascontiguousarray(psi)
    _pure_stack(psi[keep], dims)
    psi.flags.writeable = False
    return [[(q, _unchecked(PureState, vec=vec, dims=dims)) for q, vec in compress(zip(qs, vecs), kept)]
            for qs, vecs, kept in zip(p.tolist(), psi, keep.tolist())]


def _assistance_search(w_mat: np.ndarray, upper: float, budget: int,
                       seed: int) -> tuple[float, np.ndarray, np.ndarray]:
    """``(value, weights, members)`` of the best of ``budget`` restarts of
    ``_assistance_ascent`` on the (d, r) eigenbranch vectors W: member j is
    sum_k V[j, k] W[:, k], normalized, unless its weight is at most 1e-12."""
    d, r = w_mat.shape
    m = d * d
    rng = np.random.default_rng(seed)
    best_val, best_v = -1.0, None
    for trial in range(max(1, budget)):
        if trial == 0:
            # not the eigen-ensemble, a stationary point at value 0 on a
            # diagonal rho: the DFT columns spread every eigenvector over
            # all members
            v0 = np.exp(-2j * math.pi * np.outer(np.arange(m), np.arange(r)) / m) / math.sqrt(m)
        else:
            v0 = np.linalg.qr(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))[0]
        value, v_opt = _assistance_ascent(w_mat, v0, upper)
        if value > best_val:
            best_val, best_v = value, v_opt
        if best_val >= upper - ASSIST_GAP_TOL:
            break
    phi = best_v @ w_mat.T
    p = np.einsum("ji,ji->j", phi, phi.conj()).real
    keep = p > 1e-12
    return best_val, p[keep], phi[keep] / np.sqrt(p[keep])[:, None]


def continuity_bound(rho: DensityMatrix, sigma: DensityMatrix, split: Bipartition | None = None) -> float:
    """Trace-distance continuity bound 2 T log2(d) + 2 h(T) on the change
    of the QI relative entropy, where T = trace_norm(rho - sigma)/2.

    The bound is computed for any T; a warning flags T > 1/2 where the
    expression is no longer monotone in T."""
    if rho.dims != sigma.dims:
        raise BadSubsystemError(f"dimension mismatch {rho.dims} vs {sigma.dims}")
    if split is not None:
        split.validate(rho.n_subsystems)
    t = trace_norm(rho.mat - sigma.mat) / 2.0
    if t > 0.5:
        warnings.warn(f"trace distance T = {t:.3f} > 1/2: bound is outside its monotone range")
    return _continuity_bound(t, rho.dim)


def _continuity_bound(t: float, d: int) -> float:
    """2 T log2(d) + 2 h(T) for the trace distance T on dimension d."""
    return 2.0 * t * math.log2(d) + 2.0 * binary_entropy(t)
