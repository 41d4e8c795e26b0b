"""Scalar coherence and correlation quantifiers.

Dephasing maps, relative entropy of coherence, the quantum-incoherent (QI)
relative entropy in closed form and as a small-scale minimization oracle,
basis-dependent discord, mutual information, coherence of assistance, and
the trace-distance continuity bound.  All values are in bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .exceptions import (
    BadSubsystemError,
    DimensionTooLargeError,
    InternalConsistencyError,
)
from .linalg import (
    DensityMatrix,
    PureState,
    partial_trace,
    permute_subsystems,
    trace_norm,
    von_neumann_entropy,
    _entropy_from_eigs,
    _validate_subsystems,
)

__all__ = [
    "Bipartition",
    "MeasureReport",
    "binary_entropy",
    "dephase",
    "c_r",
    "distillable_coherence",
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
# Largest mixed state the ascent accepts for d >= 3: each step diagonalizes
# a (d^2 x d^2) matrix, one row per outcome of the ancilla measurement.
ASSIST_MAX_DIM = 16


@dataclass(frozen=True)
class Bipartition:
    """A|B split of the subsystems: the B side is the incoherent-restricted
    party.  The two sides must be disjoint and exhaustive; B is non-empty."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(i) for i in self.a))
        object.__setattr__(self, "b", tuple(int(i) for i in self.b))
        if not self.b:
            raise BadSubsystemError("B side of a bipartition must be non-empty")
        if set(self.a) & set(self.b):
            raise BadSubsystemError("bipartition sides overlap")

    def validate(self, n_subsystems: int) -> None:
        if set(self.a) | set(self.b) != set(range(n_subsystems)):
            raise BadSubsystemError(
                f"bipartition {self.a}|{self.b} does not cover all {n_subsystems} subsystems"
            )

    @classmethod
    def parse(cls, spec: str) -> "Bipartition":
        """Parse a split spec such as ``"A=0;B=1,2"`` (A may be empty)."""
        sides: dict[str, tuple[int, ...]] = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            name, _, values = part.partition("=")
            name = name.strip().upper()
            if name not in ("A", "B"):
                raise BadSubsystemError(f"unknown side {name!r} in split spec {spec!r}")
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
    how it was obtained ("closed-form" | "optimized" | "oracle")."""

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


def dephase(rho: DensityMatrix, subsystems) -> DensityMatrix:
    """Zero every off-diagonal element in the incoherent basis of the
    selected subsystems.  Empty selection is the identity map; the full
    selection is total dephasing.  Trace-preserving and idempotent."""
    idx = _validate_subsystems(subsystems, rho.n_subsystems, allow_empty=True)
    if not idx:
        return rho
    size = rho.dim
    multi = np.array(np.unravel_index(np.arange(size), rho.dims))
    mask = np.ones((size, size), dtype=bool)
    for s in idx:
        mask &= multi[s][:, None] == multi[s][None, :]
    return DensityMatrix(np.where(mask, rho.mat, 0.0), rho.dims)


def _dephased_entropy(rho: DensityMatrix, subsystems) -> float:
    """S(dephase(rho, subsystems)) without building the dephased state.

    Dephasing the set S leaves rho block-diagonal over S's basis labels,
    one (d_rest, d_rest) block per label, so its spectrum is the union of
    the blocks' spectra.  With S every subsystem the blocks are the
    diagonal entries and the entropy is their Shannon entropy."""
    idx = _validate_subsystems(subsystems, rho.n_subsystems)
    rest = tuple(i for i in range(rho.n_subsystems) if i not in idx)
    # labels[s, r]: row of rho holding S-label s and rest-label r.
    labels = np.arange(rho.dim).reshape(rho.dims).transpose(idx + rest)
    labels = labels.reshape(math.prod(rho.dims[i] for i in idx), -1)
    if labels.shape[1] == 1:
        return _entropy_from_eigs(np.diagonal(rho.mat))
    blocks = rho.mat[labels[:, :, None], labels[:, None, :]]
    return _entropy_from_eigs(np.linalg.eigvalsh(blocks))


def c_r(rho: DensityMatrix) -> float:
    """Relative entropy of coherence S(dephase(rho)) - S(rho); equals the
    distillable coherence.  S(dephase(rho)) is the Shannon entropy of the
    diagonal and S(rho) comes from rho's stored spectrum."""
    value = _dephased_entropy(rho, range(rho.n_subsystems)) - von_neumann_entropy(rho)
    return _finalize(value, "relative entropy of coherence")


# The distillable coherence coincides with c_r for every state.
distillable_coherence = c_r


def qi_relative_entropy(rho: DensityMatrix, split: Bipartition) -> float:
    """Relative-entropy distance to the quantum-incoherent set for the A|B
    split, in closed form: S(dephase_B(rho)) - S(rho).  S(dephase_B(rho))
    comes from the A-blocks of rho, one per basis label of B, and S(rho)
    from rho's stored spectrum."""
    split.validate(rho.n_subsystems)
    value = _dephased_entropy(rho, split.b) - von_neumann_entropy(rho)
    return _finalize(value, "QI relative entropy")


# Floor on the eigenvalues of the oracle's sigma, so the objective stays
# finite where a block is rank-deficient.
ORACLE_EIG_FLOOR = 1e-12
# Largest state the oracle accepts.
ORACLE_MAX_DIM = 16


def _qi_oracle_objective(x: np.ndarray, rho_blocks: np.ndarray, neg_entropy: float) -> tuple[float, np.ndarray]:
    """S(rho||sigma) in bits and its gradient in x, for the QI state
    sigma = sum_j p_j G_j / tr(G_j) (x) |j><j| on (A, B) block order.

    p = softmax(x[:db]); G_j = g_j g_j^dagger, with g_j read from the rest
    of x as da*da real parts followed by da*da imaginary parts, per B label
    j.  rho_blocks[j] is rho's A-block for B label j and neg_entropy is
    -S(rho).  sigma's eigenvalues are floored at ORACLE_EIG_FLOOR.

    sigma is block diagonal, so Tr[rho log2 sigma] = sum_j Tr[rho_j f(sigma_j)]
    with f = log2 of the floored eigenvalues.  Its derivative is
    Tr[Gamma_j d sigma_j], Gamma_j = V (L o V^dagger rho_j V) V^dagger, where
    V diagonalizes sigma_j and L holds the first divided differences of f at
    its eigenvalues (Daleckii-Krein)."""
    db, da, _ = rho_blocks.shape
    logits = x[:db] - x[:db].max()
    p = np.exp(logits)
    p /= p.sum()
    raw = x[db:].reshape(db, 2, da, da)
    g = raw[:, 0] + 1j * raw[:, 1]
    b, vecs = np.linalg.eigh(g @ g.conj().transpose(0, 2, 1))
    t = b.sum(axis=1)
    scale = np.divide(p, t, out=np.zeros(db), where=t > 0.0)  # an all-zero g_j gives sigma_j = 0
    s = scale[:, None] * b
    s_floor = np.maximum(s, ORACLE_EIG_FLOOR)
    rho_rot = vecs.conj().transpose(0, 2, 1) @ rho_blocks @ vecs
    value = neg_entropy - float((np.diagonal(rho_rot, axis1=1, axis2=2).real * np.log2(s_floor)).sum())

    # Divided differences (f(s_k) - f(s_l)) / (s_k - s_l), and f'(s_k) where s_k = s_l.
    num = np.log1p((s_floor[:, :, None] - s_floor[:, None, :]) / s_floor[:, None, :]) / math.log(2.0)
    gap = s[:, :, None] - s[:, None, :]
    deriv = np.where(s > ORACLE_EIG_FLOOR, 1.0 / (s_floor * math.log(2.0)), 0.0)
    dd = np.divide(num, gap, out=np.repeat(deriv[:, :, None], da, axis=2), where=gap != 0.0)
    gamma_rot = dd * rho_rot
    # a_j = Tr[Gamma_j G_j] / t_j is the derivative of block j's term in p_j.
    a = np.divide(np.einsum("jkk,jk->j", gamma_rot, b).real, t, out=np.zeros(db), where=t > 0.0)
    gamma = vecs @ gamma_rot @ vecs.conj().transpose(0, 2, 1)
    gamma -= a[:, None, None] * np.eye(da)
    grad_g = 2.0 * scale[:, None, None] * (gamma @ g)
    grad = np.concatenate([
        -p * (a - p @ a),
        -np.stack([grad_g.real, grad_g.imag], axis=1).ravel(),
    ])
    if not (np.isfinite(value) and np.isfinite(grad).all()):
        return 1e6, np.zeros_like(x)
    return value, grad


def qi_relative_entropy_oracle(
    rho: DensityMatrix,
    split: Bipartition,
    starts: int = 32,
    seed: int = 0,
) -> float:
    """Desk-scale check of the closed form: minimize S(rho||sigma) over a
    parameterized family of quantum-incoherent sigma by multi-start
    L-BFGS-B with the analytic gradient of ``_qi_oracle_objective``.  Only
    intended to validate ``qi_relative_entropy``."""
    split.validate(rho.n_subsystems)
    if rho.dim > ORACLE_MAX_DIM:
        raise DimensionTooLargeError(f"oracle limited to dimension {ORACLE_MAX_DIM}, got {rho.dim}")
    da = math.prod(rho.dims[i] for i in split.a) if split.a else 1
    db = math.prod(rho.dims[i] for i in split.b)
    # Work in (A-block, B-block) order; permute rho once if needed.
    order = tuple(split.a) + tuple(split.b)
    if order != tuple(range(rho.n_subsystems)):
        rho = permute_subsystems(rho, order)
    rho_blocks = np.einsum("ajbj->jab", rho.mat.reshape(da, db, da, db))
    # S(rho||sigma) = -S(rho) - Tr[rho log2 sigma]; only the second term
    # depends on sigma.
    neg_entropy = -von_neumann_entropy(rho)
    n_params = db + db * 2 * da * da
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(max(1, starts)):
        x0 = rng.standard_normal(n_params)
        res = minimize(_qi_oracle_objective, x0, args=(rho_blocks, neg_entropy), jac=True,
                       method="L-BFGS-B", options={"maxiter": 200})
        if res.fun < best:
            best = float(res.fun)
    return best


def _marginals(rho: DensityMatrix, split: Bipartition) -> tuple[DensityMatrix, DensityMatrix]:
    if not split.a:
        raise BadSubsystemError("mutual information needs a non-empty A side")
    return partial_trace(rho, split.a), partial_trace(rho, split.b)


def mutual_information(rho: DensityMatrix, split: Bipartition) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho)."""
    split.validate(rho.n_subsystems)
    rho_a, rho_b = _marginals(rho, split)
    value = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b) - von_neumann_entropy(rho)
    return _finalize(value, "mutual information")


def basis_dependent_discord(rho: DensityMatrix, split: Bipartition) -> float:
    """Mutual-information loss under dephasing of the B side:
    I(A:B)(rho) - I(A:B)(dephase_B(rho)).

    Dephasing B leaves rho_A unchanged and dephases rho_B, so
    I(A:B)(dephase_B(rho)) = S(rho_A) + H(diag rho_B) - S(dephase_B(rho)),
    the last term from the A-blocks of rho; S(rho), S(rho_A) and S(rho_B)
    come from the stored spectra."""
    split.validate(rho.n_subsystems)
    rho_a, rho_b = _marginals(rho, split)
    s_a = von_neumann_entropy(rho_a)
    before = s_a + von_neumann_entropy(rho_b) - von_neumann_entropy(rho)
    after = s_a + _dephased_entropy(rho_b, range(rho_b.n_subsystems)) - _dephased_entropy(rho, split.b)
    return _finalize(before - after, "basis-dependent discord")


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


def _qubit_assistance(rho: DensityMatrix) -> list[tuple[float, PureState]]:
    """The two-member ensemble of a mixed qubit whose members both have
    diagonal diag(rho), so its average coherence is S(dephase(rho)).

    A pure state with diagonal (p0, p1) has off-diagonal sqrt(p0 p1) u for a
    phase u.  The members' off-diagonals c +- i (c/|c|) sqrt(p0 p1 - |c|^2)
    average to rho's off-diagonal c; on the Bloch sphere they are the ends
    of the chord through rho perpendicular to its radius, on the circle at
    rho's height."""
    p0, p1 = rho.mat[0, 0].real, rho.mat[1, 1].real
    c = rho.mat[0, 1]
    norm = math.sqrt(p0 * p1)
    g = min(abs(c) / norm, 1.0)
    direction = c / abs(c) if c != 0 else 1.0
    ensemble = []
    for sign in (1.0, -1.0):
        u = direction * complex(g, sign * math.sqrt(1.0 - g * g))
        ensemble.append((0.5, PureState(np.array([math.sqrt(p0), math.sqrt(p1) * np.conj(u)]), rho.dims)))
    return ensemble


def coherence_of_assistance(
    rho: DensityMatrix,
    budget: int = 64,
    seed: int = 0,
) -> tuple[float, list[tuple[float, PureState]]]:
    """Best average pure-state coherence over the decompositions of rho.

    Returns ``(value, ensemble)`` where the ensemble averages back to rho.
    Every decomposition's average lies in [c_r(rho), S(dephase(rho))].  For
    a qubit the value is exactly S(dephase(rho)), from a two-member
    ensemble.  For d >= 3 the decomposition is found by gradient ascent over
    a measurement basis on a purification ancilla (d^2 outcomes), so the
    value is a certified lower bound, with upper end S(dephase(rho)).
    ``budget`` caps the restarts, the first from the eigen-ensemble and the
    rest from random bases drawn from ``default_rng(seed)``; they stop
    early once the value reaches the upper end.  Mixed states above
    ASSIST_MAX_DIM dimensions raise ``DimensionTooLargeError``.
    """
    d = rho.dim
    w, v = np.linalg.eigh(rho.mat)
    w = np.clip(w.real, 0.0, None)
    keep = w > 1e-14
    lam, vecs = w[keep], v[:, keep]
    r = lam.size
    # Pure state: the only decomposition is the state itself.
    if r <= 1:
        psi = PureState(vecs[:, 0], rho.dims)
        return c_r(rho), [(1.0, psi)]
    upper = _dephased_entropy(rho, range(rho.n_subsystems))
    if d == 2:
        return upper, _qubit_assistance(rho)
    if d > ASSIST_MAX_DIM:
        raise DimensionTooLargeError(f"assistance search limited to dimension {ASSIST_MAX_DIM}, got {d}")
    # Columns of W are the sub-normalized eigenbranch vectors; member j of
    # the ensemble for the isometry V is sum_k V[j, k] W[:, k].
    w_mat = vecs * np.sqrt(lam)
    m = d * d
    rng = np.random.default_rng(seed)
    best_val, best_v = -1.0, None
    for trial in range(max(1, budget)):
        if trial == 0:
            v0 = np.eye(m, r, dtype=complex)
        else:
            v0 = np.linalg.qr(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))[0]
        value, v_opt = _assistance_ascent(w_mat, v0, upper)
        if value > best_val:
            best_val, best_v = value, v_opt
        if best_val >= upper - ASSIST_GAP_TOL:
            break
    phi = w_mat @ best_v.T
    ensemble = []
    for j in range(phi.shape[1]):
        p = float(np.linalg.norm(phi[:, j]) ** 2)
        if p > 1e-12:
            ensemble.append((p, PureState(phi[:, j] / math.sqrt(p), rho.dims)))
    return best_val, ensemble


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
    return 2.0 * t * math.log2(rho.dim) + 2.0 * binary_entropy(t)
