"""Constructors for the named states used throughout the library, plus
seeded random-state generators for property tests.

The incoherent reference basis is always the computational basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import BadDimensionError, BadRankError, InvalidCoefficientsError, InvalidStateError
from .linalg import DensityMatrix, PureState

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ket",
    "maximally_coherent",
    "bell_states",
    "DominoFamily",
    "domino_states",
    "merging_state",
    "maximally_correlated",
    "fourier_mc_basis",
    "random_pure",
    "random_density",
    "random_qi_state",
    "random_unitary",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise BadDimensionError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def maximally_coherent(d: int) -> PureState:
    """Uniform-amplitude state (|0> + ... + |d-1>)/sqrt(d)."""
    if d < 2:
        raise BadDimensionError(f"maximally coherent state needs d >= 2, got {d}")
    return PureState(np.full(d, 1.0 / math.sqrt(d), dtype=complex), (d,))


def bell_states() -> list[PureState]:
    """The orthonormal two-qubit Bell basis, |phi+> first."""
    s = 1.0 / math.sqrt(2.0)
    vectors = [
        np.array([s, 0, 0, s]),  # phi+
        np.array([s, 0, 0, -s]),  # phi-
        np.array([0, s, s, 0]),  # psi+
        np.array([0, s, -s, 0]),  # psi-
    ]
    return [PureState(v.astype(complex), (2, 2)) for v in vectors]


@dataclass(frozen=True, eq=False)
class DominoFamily:
    """Nine orthonormal product states on a 3x3 system, together with their
    local factors.  Orthonormality and product structure are validated on
    construction."""

    states: tuple[PureState, ...]
    alpha_parts: tuple[np.ndarray, ...]
    beta_parts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.states) != 9 or len(self.alpha_parts) != 9 or len(self.beta_parts) != 9:
            raise InvalidStateError("domino family must hold exactly nine states")
        if any(state.dims != (3, 3) for state in self.states):
            raise InvalidStateError("domino states must live on a 3x3 system")
        vecs = np.array([state.vec for state in self.states])
        gap = np.abs(vecs.conj() @ vecs.T - np.eye(9)).max()
        if gap > 1e-12:
            raise InvalidStateError(f"domino states not orthonormal: Gram gap {gap:.3e}")
        for vec, a, b in zip(vecs, self.alpha_parts, self.beta_parts):
            if np.abs(np.outer(a, b).ravel() - vec).max() > 1e-12:
                raise InvalidStateError("domino state is not the product of its local factors")


def domino_states() -> DominoFamily:
    """The nine orthonormal 3x3 "domino" product states, in their
    conventional order."""
    s = 1.0 / math.sqrt(2.0)
    k0, k1, k2 = (ket(i, 3) for i in range(3))
    plus01, minus01 = s * (k0 + k1), s * (k0 - k1)
    plus12, minus12 = s * (k1 + k2), s * (k1 - k2)
    parts = [
        (k1, k1),
        (k0, plus01),
        (k0, minus01),
        (k2, plus12),
        (k2, minus12),
        (plus12, k0),
        (minus12, k0),
        (plus01, k2),
        (minus01, k2),
    ]
    states = tuple(PureState(np.outer(a, b).ravel(), (3, 3)) for a, b in parts)
    return DominoFamily(
        states=states,
        alpha_parts=tuple(a for a, _ in parts),
        beta_parts=tuple(b for _, b in parts),
    )


# The family is fixed, so it is built and checked once.
_DOMINO = domino_states()


def merging_state() -> DensityMatrix:
    """Uniform mixture of the nine domino states, each flagged by an
    orthogonal pointer state on a 9-dimensional register R.

    Subsystem order is (R, A, B) with dims (9, 3, 3).  The mixture is read
    from the domino family built once at import, and each call builds and
    validates it anew.
    """
    mat = np.zeros((81, 81), dtype=complex)
    for i, psi in enumerate(_DOMINO.states):
        # |i><i| x psi psi' is psi psi' on the i-th diagonal block; adding
        # it to the zeros turns its -0.0 imaginary parts into +0.0
        mat[9 * i:9 * i + 9, 9 * i:9 * i + 9] += np.outer(psi.vec, psi.vec.conj()) / 9.0
    return DensityMatrix(mat, (9, 3, 3))


def maximally_correlated(coeffs) -> DensityMatrix:
    """Lift a d x d density matrix c to the state sum_ij c_ij |ii><jj| on
    a (d, d) bipartite system."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidCoefficientsError(f"coefficients must be square, got shape {c.shape}")
    try:
        base = DensityMatrix(c, (c.shape[0],))
    except InvalidStateError as exc:
        raise InvalidCoefficientsError(f"coefficients are not a density matrix: {exc}") from exc
    d = base.dim
    diag = np.arange(d) * (d + 1)  # row of |ii>
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[np.ix_(diag, diag)] = base.mat
    return DensityMatrix(mat, (d, d))


def fourier_mc_basis(d: int) -> list[PureState]:
    """d mutually orthogonal maximally coherent states
    |psi_j> = (1/sqrt(d)) sum_k exp(2 pi i j k / d) |k>."""
    if d < 2:
        raise BadDimensionError(f"basis needs d >= 2, got {d}")
    k = np.arange(d)
    return [
        PureState(np.exp(2j * np.pi * j * k / d) / math.sqrt(d), (d,))
        for j in range(d)
    ]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_pure_vecs(dims: tuple[int, ...], seeds) -> np.ndarray:
    """The vectors of ``random_pure(dims, seed)`` for each seed, as an
    (n, d) stack, not validated: callers that draw many validate them as
    one stack.  Each is drawn from its own ``default_rng(seed)`` and
    divided by its own norm (a row-wise norm of the stack rounds
    differently)."""
    d = math.prod(dims)
    vecs = np.empty((len(seeds), d), dtype=complex)
    for k, seed in enumerate(seeds):
        v = _ginibre(np.random.default_rng(seed), d, 1).reshape(-1)
        vecs[k] = v / np.linalg.norm(v)
    return vecs


def random_pure(dims, seed) -> PureState:
    """Haar-random pure state (normalized complex-Gaussian vector)."""
    dims = tuple(int(d) for d in dims)
    return PureState(_random_pure_vecs(dims, [seed])[0], dims)


def _random_density_mat(dims: tuple[int, ...], rank, seed) -> np.ndarray:
    """The matrix of ``random_density(dims, rank, seed)``, not validated:
    callers that draw many validate them as one stack."""
    d = math.prod(dims)
    if not 1 <= rank <= d:
        raise BadRankError(f"rank {rank} invalid for total dimension {d}")
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, d, rank)
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_density(dims, rank, seed) -> DensityMatrix:
    """Random mixed state G G' / Tr(G G') for a Gaussian d x rank matrix."""
    dims = tuple(int(d) for d in dims)
    return DensityMatrix(_random_density_mat(dims, rank, seed), dims)


def _random_qi_mat(dims: tuple[int, int], seed) -> np.ndarray:
    """The matrix of ``random_qi_state(dims, seed)``, not validated."""
    da, db = (int(d) for d in dims)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(db))
    # per B label, the real and then the imaginary part of its Ginibre draw
    parts = rng.standard_normal((db, 2, da, da))
    g = parts[:, 0] + 1j * parts[:, 1]
    blocks = g @ g.conj().swapaxes(1, 2)
    blocks *= (probs / np.trace(blocks, axis1=1, axis2=2).real)[:, None, None]
    mat = np.zeros((da, db, da, db), dtype=complex)
    labels = np.arange(db)
    mat[:, labels, :, labels] += blocks  # block j on the rows and columns with B label j
    return mat.reshape(da * db, da * db)


def random_qi_state(dims, seed) -> DensityMatrix:
    """Random quantum-incoherent state sum_j p_j sigma_j^A x |j><j|^B on a
    bipartite (d_A, d_B) system: arbitrary on A, diagonal on B."""
    da, db = (int(d) for d in dims)
    return DensityMatrix(_random_qi_mat((da, db), seed), (da, db))


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
