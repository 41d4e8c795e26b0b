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


def _qi_sigma(x: np.ndarray, da: int, db: int) -> np.ndarray:
    """Build a QI state on (A, B) block order from unconstrained reals:
    softmax weights + one Cholesky-style A factor per B basis label, whose
    block sits on the rows and columns j, j + db, ... of B label j."""
    logits = x[:db]
    logits = logits - logits.max()
    p = np.exp(logits)
    p /= p.sum()
    n_per = 2 * da * da
    sigma = np.zeros((da * db, da * db), dtype=complex)
    for j in range(db):
        raw = x[db + j * n_per : db + (j + 1) * n_per]
        g = raw[: da * da].reshape(da, da) + 1j * raw[da * da :].reshape(da, da)
        block = g @ g.conj().T
        tr = np.trace(block).real
        if tr <= 0.0:
            continue
        block *= p[j] / tr
        sigma[j::db, j::db] = block
    return sigma


def _log_overlap_floor(rho_mat: np.ndarray, sigma_mat: np.ndarray, floor: float = 1e-12) -> float:
    """Tr[rho log2 sigma] with sigma eigenvalues floored so the optimizer
    always sees a finite, smooth objective."""
    w_s, v_s = np.linalg.eigh(sigma_mat)
    w_s = np.maximum(w_s.real, floor)
    weights = np.real(np.einsum("ij,ik,kj->j", v_s.conj(), rho_mat, v_s))
    return float((weights * np.log2(w_s)).sum())


def qi_relative_entropy_oracle(
    rho: DensityMatrix,
    split: Bipartition,
    starts: int = 32,
    seed: int = 0,
    max_dim: int = 16,
) -> float:
    """Desk-scale check of the closed form: minimize S(rho||sigma) over a
    parameterized family of quantum-incoherent sigma by multi-start local
    optimization.  Only intended to validate ``qi_relative_entropy``."""
    split.validate(rho.n_subsystems)
    if rho.dim > max_dim:
        raise DimensionTooLargeError(f"oracle limited to dimension {max_dim}, got {rho.dim}")
    da = math.prod(rho.dims[i] for i in split.a) if split.a else 1
    db = math.prod(rho.dims[i] for i in split.b)
    # Work in (A-block, B-block) order; permute rho once if needed.
    order = tuple(split.a) + tuple(split.b)
    if order != tuple(range(rho.n_subsystems)):
        rho = permute_subsystems(rho, order)
    rho_block = rho.mat
    # S(rho||sigma) = -S(rho) - Tr[rho log2 sigma]; only the second term
    # depends on sigma.
    neg_entropy = -von_neumann_entropy(rho)
    n_params = db + db * 2 * da * da
    rng = np.random.default_rng(seed)

    def objective(x: np.ndarray) -> float:
        val = neg_entropy - _log_overlap_floor(rho_block, _qi_sigma(x, da, db))
        return val if np.isfinite(val) else 1e6

    best = math.inf
    for _ in range(max(1, starts)):
        x0 = rng.standard_normal(n_params)
        res = minimize(objective, x0, method="L-BFGS-B", options={"maxiter": 200})
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


def _shannon_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


def _hermitian_from_params(x: np.ndarray, m: int) -> np.ndarray:
    h = np.zeros((m, m), dtype=complex)
    diag = x[:m]
    off = x[m:]
    h[np.diag_indices(m)] = diag
    iu = np.triu_indices(m, k=1)
    n_off = iu[0].size
    h[iu] = off[:n_off] + 1j * off[n_off:]
    h[(iu[1], iu[0])] = np.conj(h[iu])
    return h


def coherence_of_assistance(
    rho: DensityMatrix,
    budget: int = 64,
    seed: int = 0,
    n_outcomes: int | None = None,
) -> tuple[float, list[tuple[float, PureState]]]:
    """Best average pure-state coherence over the decompositions of rho
    found by optimizing a measurement basis on a purification ancilla.

    Returns ``(value, ensemble)`` where the ensemble averages back to rho.
    The value is a certified lower bound on the coherence of assistance
    (any valid decomposition is); ``budget`` counts optimizer restarts.
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
    m = n_outcomes if n_outcomes is not None else d * d
    if m < r:
        raise BadSubsystemError(f"need at least {r} measurement outcomes, got {m}")
    # Columns of W are the sub-normalized eigenbranch vectors.
    w_mat = vecs * np.sqrt(lam)

    def ensemble_from_unitary(u: np.ndarray) -> np.ndarray:
        # Phi[:, j] = sum_k U[j, k] W[:, k]; columns are unnormalized members.
        return w_mat @ u[:, :r].T

    def score(phi: np.ndarray) -> float:
        probs_per_entry = np.abs(phi) ** 2
        p = probs_per_entry.sum(axis=0)
        total = 0.0
        for j in range(phi.shape[1]):
            if p[j] > 1e-14:
                total += p[j] * _shannon_bits(probs_per_entry[:, j] / p[j])
        return total

    def objective(x: np.ndarray) -> float:
        h = _hermitian_from_params(x, m)
        wh, vh = np.linalg.eigh(h)
        u = (vh * np.exp(1j * wh)) @ vh.conj().T
        return -score(ensemble_from_unitary(u))

    rng = np.random.default_rng(seed)
    n_params = m * m
    best_val, best_x = -1.0, np.zeros(n_params)
    for trial in range(max(1, budget)):
        x0 = np.zeros(n_params) if trial == 0 else rng.standard_normal(n_params)
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": 300 * m, "fatol": 1e-10, "xatol": 1e-7})
        if -res.fun > best_val:
            best_val, best_x = -float(res.fun), res.x
    h = _hermitian_from_params(best_x, m)
    wh, vh = np.linalg.eigh(h)
    u = (vh * np.exp(1j * wh)) @ vh.conj().T
    phi = ensemble_from_unitary(u)
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
