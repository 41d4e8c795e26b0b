"""Constructors for the named states used throughout the library, plus
seeded random-state generators for property tests.

The incoherent reference basis is always the computational basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import BadDimensionError, BadRankError, InvalidCoefficientsError, InvalidStateError
from .linalg import (DensityMatrix, PureState, _basis_rows, _density_matrices, _density_stack, _integer,
                     _subsystem_dims)

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
        if any(np.shape(part) != (3,) for part in (*self.alpha_parts, *self.beta_parts)):
            raise InvalidStateError("domino local factors must be vectors of 3 entries")
        products = np.array(self.alpha_parts)[:, :, None] * np.array(self.beta_parts)[:, None, :]
        if np.abs(products.reshape(9, -1) - vecs).max() > 1e-12:
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
    validates it anew.  It is block-diagonal over R, so its validation
    solves the nine 9 x 9 (R, R) blocks, not the 81 x 81 matrix
    (``linalg._density_stack``); their sorted eigenvalues are its spectrum.
    """
    vecs = np.array([psi.vec for psi in _DOMINO.states])
    mat = np.zeros((9, 9, 9, 9), dtype=complex)
    # |i><i| x psi_i psi_i' is psi_i psi_i' on the i-th diagonal block;
    # adding it to the zeros turns its -0.0 imaginary parts into +0.0
    mat[range(9), :, range(9)] += vecs[:, :, None] * vecs.conj()[:, None, :] / 9.0
    mats, dims = mat.reshape(1, 81, 81), (9, 3, 3)
    return _density_matrices(mats, _density_stack(mats, dims, _basis_rows(dims, (0,))), dims)[0]


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
    """A (rows, cols) complex Gaussian matrix: the real parts, then the
    imaginary parts, from one draw."""
    real, imag = rng.standard_normal((2, rows, cols))
    return real + 1j * imag


def _random_pure_vecs(dims: tuple[int, ...], seeds) -> np.ndarray:
    """One Haar-random unit vector on ``dims`` per seed, as an (n, d)
    stack, not validated: callers that draw many validate them as one
    stack.  Each is drawn from the stream of ``default_rng(seed)``; a seed
    may be a ``Generator``, which is read as it is, in seed order when it
    appears more than once.  Per seed, one ``standard_normal`` fills its
    (2, d) slab of a preallocated stack, the real parts then the imaginary
    parts; the vectors are then assembled once for the stack, and each is
    divided by its own ``np.linalg.norm``, whose rounding a batched norm
    does not always reproduce."""
    d = math.prod(dims)
    parts = np.empty((len(seeds), 2, d))
    for seed, slab in zip(seeds, parts):
        np.random.default_rng(seed).standard_normal(out=slab)
    vecs = parts[:, 0] + 1j * parts[:, 1]
    for v in vecs:
        v /= np.linalg.norm(v)
    return vecs


def random_pure(dims, seed) -> PureState:
    """Haar-random pure state (normalized complex-Gaussian vector), the
    one-seed case of ``_random_pure_vecs``."""
    dims = _subsystem_dims(dims)
    return PureState(_random_pure_vecs(dims, [seed])[0], dims)


def _check_rank(rank, d: int) -> None:
    if not 1 <= _integer(rank, "rank", BadRankError) <= d:
        raise BadRankError(f"rank {rank} invalid for total dimension {d}")


def _random_density_mats(dims: tuple[int, ...], ranks, seeds) -> np.ndarray:
    """One random mixed state G G' / Tr(G G') on ``dims`` per seed, G a
    Gaussian d x rank matrix, with one rank for all or one per seed, as an
    (n, d, d) stack, not validated: callers that draw many validate them
    as one stack.  Each is drawn from the stream of ``default_rng(seed)``
    (a seed may be a ``Generator``, which is read as it is, and may appear
    more than once).  Per seed, in seed order, one ``standard_normal``
    fills its (2, d, rank) slab, the real then the imaginary parts of G, in
    a preallocated stack per rank; then, per rank, G G' is formed, traced
    and divided once for the stack.  A rank must be a Python or numpy
    integer."""
    d = math.prod(dims)
    if isinstance(ranks, (int, np.integer)):
        ranks = [ranks] * len(seeds)
    else:
        ranks = np.broadcast_to(ranks, len(seeds)).tolist()
    for rank in ranks:
        _check_rank(rank, d)
    parts = {rank: np.empty((ranks.count(rank), 2, d, rank)) for rank in dict.fromkeys(ranks)}
    slabs = {rank: iter(stack) for rank, stack in parts.items()}
    for seed, rank in zip(seeds, ranks):
        np.random.default_rng(seed).standard_normal(out=next(slabs[rank]))
    if len(parts) == 1:
        return _normalized_grams(parts[ranks[0]])
    mats = np.empty((len(seeds), d, d), dtype=complex)
    for rank, stack in parts.items():
        mats[np.equal(ranks, rank)] = _normalized_grams(stack)
    return mats


def _normalized_grams(parts: np.ndarray) -> np.ndarray:
    """G G' / Tr(G G') for each G = real + i imag of an (n, 2, rows, cols)
    stack of real and imaginary parts."""
    g = parts[:, 0] + 1j * parts[:, 1]
    grams = g @ g.conj().swapaxes(-1, -2)
    return grams / grams.trace(axis1=1, axis2=2).real[:, None, None]


def random_density(dims, rank, seed) -> DensityMatrix:
    """Random mixed state G G' / Tr(G G') for a Gaussian d x rank matrix,
    the one-seed case of ``_random_density_mats``."""
    dims = _subsystem_dims(dims)
    return DensityMatrix(_random_density_mats(dims, rank, [seed])[0], dims)


def _random_qi_mats(dims: tuple[int, int], seeds) -> np.ndarray:
    """One random quantum-incoherent state (as ``random_qi_state``
    describes it) per seed, as an (n, d, d) stack, not validated, each
    drawn from the stream of ``default_rng(seed)``.  Per seed, one
    ``dirichlet`` gives its weights and one ``standard_normal`` fills its
    (d_B, 2, d_A, d_A) slab, per B label the real then the imaginary part
    of that block's Ginibre matrix; the blocks are then formed, normalized
    and placed once for the whole stack."""
    da, db = (int(d) for d in dims)
    n = len(seeds)
    probs, parts = np.empty((n, db)), np.empty((n, db, 2, da, da))
    alphas = np.ones(db)
    for seed, p, slab in zip(seeds, probs, parts):
        rng = np.random.default_rng(seed)
        p[:] = rng.dirichlet(alphas)
        rng.standard_normal(out=slab)
    g = parts[:, :, 0] + 1j * parts[:, :, 1]
    blocks = g @ g.conj().swapaxes(-1, -2)
    blocks *= (probs / blocks.trace(axis1=-2, axis2=-1).real)[..., None, None]
    mats = np.zeros((n, da, db, da, db), dtype=complex)
    labels = np.arange(db)
    # block j of each state on the rows and columns with B label j
    mats[:, :, labels, :, labels] += blocks.swapaxes(0, 1)
    return mats.reshape(n, da * db, da * db)


def random_qi_state(dims, seed) -> DensityMatrix:
    """Random quantum-incoherent state sum_j p_j sigma_j^A x |j><j|^B on a
    bipartite (d_A, d_B) system: arbitrary on A, diagonal on B; the
    one-seed case of ``_random_qi_mats``."""
    da, db = _subsystem_dims(dims)
    return DensityMatrix(_random_qi_mats((da, db), [seed])[0], (da, db))


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
