"""Dense complex-matrix kernel.

Hermitian eigendecomposition, tensor products, partial trace, trace norm
and the entropy primitives everything else is built on.  All entropies are
in bits (base-2 logarithms).  Subsystem ordering is row-major in the tensor
index layout and is never permuted implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import (
    BadSubsystemError,
    DimensionMismatchError,
    InvalidStateError,
    NoConvergenceError,
    NonHermitianError,
)

# Tolerances used for every invariant check in the package.  Chosen with
# double-precision headroom for total dimensions up to a few hundred.  Each
# check is written as "not residual <= tol", so that the NaN residual of a
# non-finite input fails it.
TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_PSD = 1e-9
TOL_RECON = 1e-10
TOL_KERNEL_MASS = 1e-9

__all__ = [
    "TOL_HERM",
    "TOL_TRACE",
    "TOL_PSD",
    "TOL_RECON",
    "TOL_KERNEL_MASS",
    "DensityMatrix",
    "PureState",
    "eig_hermitian",
    "tensor_product",
    "partial_trace",
    "apply_local",
    "permute_subsystems",
    "trace_norm",
    "von_neumann_entropy",
    "relative_entropy",
]


def _to_matrix(m) -> np.ndarray:
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {mat.shape}")
    return mat


def _to_square(m) -> np.ndarray:
    mat = _to_matrix(m)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _check_dims(dims, total: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise BadSubsystemError(f"invalid subsystem dimensions {dims}")
    if math.prod(dims) != total:
        raise DimensionMismatchError(
            f"subsystem dimensions {dims} do not multiply to matrix order {total}"
        )
    return dims


def eig_hermitian(m, tol: float = TOL_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as the matching columns, so that
    ``V @ diag(w) @ V.conj().T`` reconstructs the input.

    Raises NonHermitianError when the symmetry check fails and
    NoConvergenceError when the underlying solver gives up.
    """
    mat = _to_square(m)
    asym = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if not asym <= tol:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |M - M'| = {asym:.3e} exceeds {tol:.0e}"
        )
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    return w[::-1].copy(), v[:, ::-1].copy()


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two matrices (subsystem dims concatenate)."""
    return np.kron(_to_matrix(a), _to_matrix(b))


def trace_norm(m) -> float:
    """Trace norm ||M|| = sum of singular values."""
    mat = _to_square(m)
    try:
        s = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD failed: {exc}") from exc
    return float(s.sum())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive semidefinite, unit-trace complex matrix tagged with the
    ordered list of subsystem dimensions.

    The matrix is validated on construction (hermiticity, positivity and
    trace, each within the module tolerances) and stored read-only.  The
    positivity check's eigenvalues are kept, ascending and read-only, as
    ``spectrum``; the von Neumann entropy and the rho term of the relative
    entropy read them instead of solving again.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _to_square(self.mat).copy()
        dims = _check_dims(self.dims, mat.shape[0])
        if not np.isfinite(mat).all():
            raise InvalidStateError("matrix has a non-finite (nan or inf) entry")
        asym = np.abs(mat - mat.conj().T).max()
        if not asym <= TOL_HERM:
            raise InvalidStateError(
                f"hermiticity violated: max |M - M'| = {asym:.3e} exceeds {TOL_HERM:.0e}"
            )
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TOL_TRACE:
            raise InvalidStateError(
                f"unit trace violated: |Tr(M) - 1| = {abs(tr - 1.0):.3e} exceeds {TOL_TRACE:.0e}"
            )
        try:
            spectrum = np.linalg.eigvalsh(mat)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
        w_min = float(spectrum[0])
        if not w_min >= -TOL_PSD:
            raise InvalidStateError(
                f"positivity violated: min eigenvalue = {w_min:.3e} below -{TOL_PSD:.0e}"
            )
        mat.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return DensityMatrix(np.kron(self.mat, other.mat), self.dims + other.dims)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector tagged with subsystem dimensions."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=complex).reshape(-1).copy()
        dims = _check_dims(self.dims, vec.shape[0])
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= TOL_TRACE:
            # the norm raises no warning on nan or inf, so finiteness is
            # tested only once the norm check has failed
            if not np.isfinite(vec).all():
                raise InvalidStateError("amplitude vector has a non-finite (nan or inf) entry")
            raise InvalidStateError(
                f"unit norm violated: |norm - 1| = {abs(norm - 1.0):.3e} exceeds {TOL_TRACE:.0e}"
            )
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()), self.dims)

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(np.kron(self.vec, other.vec), self.dims + other.dims)

    def overlap(self, other: "PureState") -> complex:
        if self.dim != other.dim:
            raise DimensionMismatchError("states live on different dimensions")
        return complex(np.vdot(self.vec, other.vec))


def _validate_subsystems(indices, n: int, allow_empty: bool = False) -> tuple[int, ...]:
    idx = tuple(sorted({int(i) for i in indices}))
    if not idx and not allow_empty:
        raise BadSubsystemError("subsystem index set must be non-empty")
    if any(i < 0 or i >= n for i in idx):
        raise BadSubsystemError(f"subsystem indices {idx} out of range for {n} subsystems")
    return idx


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not in ``keep``.

    ``keep`` is a set of subsystem indices; the result carries the kept
    subsystems in their original order.
    """
    keep_idx = _validate_subsystems(keep, rho.n_subsystems)
    traced = [i for i in range(rho.n_subsystems) if i not in keep_idx]
    dims = list(rho.dims)
    tensor = rho.mat.reshape(dims + dims)
    for idx in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    d = math.prod(dims)
    return DensityMatrix(tensor.reshape(d, d), tuple(dims))


def apply_local(m, k, before: int = 1, after: int = 1) -> np.ndarray:
    """(I_before x K x I_after) M (I_before x K x I_after)' without forming
    the embedded operator.

    K, square or rectangular, acts on the middle factor of a square matrix
    whose row and column index is (before, K's input, after).  Each side is
    one batched matmul over the ``before`` index: H = K M, then the
    right-hand product through its transpose, (H K')^T = conj(K) H^T, which
    needs no conjugated copy of the large matrix.
    """
    k = _to_matrix(k)
    mat = _to_square(m)
    p, q = k.shape
    n = before * p * after
    if mat.shape[0] != before * q * after:
        raise DimensionMismatchError(
            f"matrix order {mat.shape[0]} != {before} x {q} x {after}"
        )
    half = (k @ mat.reshape(before, q, -1)).reshape(n, -1)
    return (k.conj() @ half.T.reshape(before, q, -1)).reshape(n, -1).T


def permute_subsystems(rho: DensityMatrix, order: Sequence[int]) -> DensityMatrix:
    """Reorder subsystems so that new position k holds old subsystem order[k]."""
    n = rho.n_subsystems
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(n)):
        raise BadSubsystemError(f"{order} is not a permutation of 0..{n - 1}")
    tensor = rho.mat.reshape(rho.dims + rho.dims)
    axes = list(order) + [n + i for i in order]
    new_dims = tuple(rho.dims[i] for i in order)
    mat = tensor.transpose(axes).reshape(rho.dim, rho.dim)
    return DensityMatrix(mat, new_dims)


def _entropy_from_eigs(w: np.ndarray) -> float:
    w = np.clip(w.real, 0.0, 1.0)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log2(w)).sum())


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -Tr[rho log2 rho] in bits.

    A DensityMatrix contributes the spectrum its validation computed; a
    plain matrix is diagonalized here.  Eigenvalues are clamped to [0, 1];
    0 log 0 is taken as 0.
    """
    if isinstance(rho, DensityMatrix):
        return _entropy_from_eigs(rho.spectrum)
    try:
        w = np.linalg.eigvalsh(_to_square(rho))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    return _entropy_from_eigs(w)


def relative_entropy(rho, sigma) -> float:
    """Relative entropy S(rho||sigma) = Tr[rho log2 rho] - Tr[rho log2 sigma].

    Returns ``math.inf`` when rho has more than TOL_KERNEL_MASS weight in
    the kernel of sigma (eigenvalues of sigma below TOL_PSD define the
    kernel); support violations are a signal, not an error.  The rho term
    reads a DensityMatrix's stored spectrum.
    """
    r = rho.mat if isinstance(rho, DensityMatrix) else _to_square(rho)
    s = sigma.mat if isinstance(sigma, DensityMatrix) else _to_square(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shape mismatch {r.shape} vs {s.shape}")
    w_r = rho.spectrum if isinstance(rho, DensityMatrix) else np.linalg.eigvalsh(r)
    w_s, v_s = eig_hermitian(s, tol=TOL_HERM * max(1.0, np.abs(s).max()))
    in_kernel = w_s < TOL_PSD
    if np.any(in_kernel):
        kernel_vecs = v_s[:, in_kernel]
        mass = float(np.real(np.einsum("ij,ik,kj->", kernel_vecs.conj(), r, kernel_vecs)))
        if mass > TOL_KERNEL_MASS:
            return math.inf
    w_pos = np.clip(w_r.real, 0.0, 1.0)
    w_pos = w_pos[w_pos > 0.0]
    term_rho = float((w_pos * np.log2(w_pos)).sum()) if w_pos.size else 0.0
    support = ~in_kernel
    if not np.any(support):
        # sigma numerically zero: only reachable for invalid sigma
        return math.inf
    vecs = v_s[:, support]
    weights = np.real(np.einsum("ij,ik,kj->j", vecs.conj(), r, vecs))
    term_sigma = float((weights * np.log2(w_s[support].real)).sum())
    return term_rho - term_sigma
