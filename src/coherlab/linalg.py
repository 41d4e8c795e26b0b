"""Dense complex-matrix kernel.

Hermitian eigendecomposition, tensor products, partial trace, trace norm
and the entropy primitives everything else is built on.  All entropies are
in bits (base-2 logarithms).  Subsystem ordering is row-major in the tensor
index layout and is never permuted implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from .exceptions import (
    BadSubsystemError,
    CoherlabError,
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
TOL_KERNEL_MASS = 1e-9

__all__ = [
    "TOL_HERM",
    "TOL_TRACE",
    "TOL_PSD",
    "TOL_KERNEL_MASS",
    "DensityMatrix",
    "PureState",
    "eig_hermitian",
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


def _subsystem_dims(dims) -> tuple[int, ...]:
    """``dims`` as a non-empty tuple of positive ints: the one check of
    subsystem dimensions that every state, channel and script constructor
    makes.  Each must be a Python or numpy integer, as an index must."""
    dims = tuple(dims)
    if set(map(type, dims)) != {int}:  # plain ints skip the per-entry check
        dims = tuple(_integer(d, "subsystem dimension") for d in dims)
    if not dims or min(dims) < 1:
        raise BadSubsystemError(f"invalid subsystem dimensions {dims}")
    return dims


def _check_dims(dims, total: int) -> tuple[int, ...]:
    dims = _subsystem_dims(dims)
    if math.prod(dims) != total:
        raise DimensionMismatchError(
            f"subsystem dimensions {dims} do not multiply to matrix order {total}"
        )
    return dims


def _hermitian(m, tol: float = TOL_HERM) -> np.ndarray:
    """``m`` as a square complex matrix, or NonHermitianError when
    max |M - M'| exceeds ``tol``, or is nan, as a non-finite entry makes it."""
    mat = _to_square(m)
    with np.errstate(invalid="ignore"):  # inf - inf is the nan that fails
        asym = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if not asym <= tol:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |M - M'| = {asym:.3e} exceeds {tol:.0e}"
        )
    return mat


def eig_hermitian(m, tol: float = TOL_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as the matching columns, so that
    ``V @ diag(w) @ V.conj().T`` reconstructs the input.

    Raises NonHermitianError when the symmetry check fails and
    NoConvergenceError when the underlying solver gives up.
    """
    mat = _hermitian(m, tol)
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    return w[::-1].copy(), v[:, ::-1].copy()


def _trace_norms(mats: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix of an (n, N, N) stack, from one batched SVD."""
    try:
        s = np.linalg.svd(mats, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD failed: {exc}") from exc
    return s.sum(axis=-1)


def trace_norm(m) -> float:
    """Trace norm ||M|| = sum of singular values."""
    return float(_trace_norms(_to_square(m)[None])[0])


def _indexed(error: type, noun: str, k: int, n: int, message: str) -> Exception:
    """``error`` for item k of a stack of n that a stacked check rejected:
    the message a single item gets, prefixed with ``{noun} k: `` when the
    stack holds more than one item."""
    return error((f"{noun} {k}: " if n > 1 else "") + message)


def _unchecked(cls: type, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, past its ``__post_init__``: the one way to wrap values that a
    stacked check has validated already."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _density_stack(mats: np.ndarray, dims, blocks=None, spectra=None) -> np.ndarray:
    """Validate an (n, N, N) stack of density matrices with subsystem dims
    ``dims`` and return their spectra, ascending, shape (n, N).

    The checks of ``DensityMatrix`` run on the whole stack, in this order:
    finite entries, hermiticity, unit trace and positivity.  A failure
    raises InvalidStateError with the message a single state gets,
    prefixed, in a stack of more than one state, with the index of the
    first state that fails that check.  Positivity reads the spectra, which
    come from the structure the stack is built with, where one is named:
    - ``spectra``: the spectra the construction fixes (``_rank_one``), used
      as given, so no eigenproblem is solved;
    - ``blocks``: a ``_basis_rows`` table whose row s lists the rows and
      columns of block s.  When every entry off the blocks is exactly zero,
      the spectra are the blocks' eigenvalues, from one batched eigvalsh,
      sorted; otherwise the claim is dropped, so a wrong claim costs the
      full solve and never a wrong spectrum;
    - neither: one batched eigvalsh of the whole stack."""
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {mats.shape}")
    _check_dims(dims, mats.shape[-1])
    n = len(mats)
    if not np.isfinite(mats).all():
        k = int(np.argmin(np.isfinite(mats).reshape(n, -1).all(axis=1)))
        raise _indexed(InvalidStateError, "state", k, n, "matrix has a non-finite (nan or inf) entry")
    asym = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
    for k, r in enumerate(asym.tolist()):
        if not r <= TOL_HERM:
            raise _indexed(InvalidStateError, "state", k, n,
                           f"hermiticity violated: max |M - M'| = {r:.3e} exceeds {TOL_HERM:.0e}")
    for k, tr in enumerate(mats.trace(axis1=1, axis2=2).tolist()):
        if not abs(tr - 1.0) <= TOL_TRACE:
            raise _indexed(InvalidStateError, "state", k, n,
                           f"unit trace violated: |Tr(M) - 1| = {abs(tr - 1.0):.3e} exceeds {TOL_TRACE:.0e}")
    if spectra is None:
        try:
            if blocks is not None:
                parts = mats[:, blocks[:, :, None], blocks[:, None, :]]
                # the blocks hold each in-block entry once: no nonzero entry
                # lies off them when they hold all of the stack's
                if np.count_nonzero(parts) == np.count_nonzero(mats):
                    spectra = np.sort(np.linalg.eigvalsh(parts).reshape(n, -1), axis=1)
            if spectra is None:
                spectra = np.linalg.eigvalsh(mats)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    for k, w_min in enumerate(spectra[:, 0].tolist()):
        if not w_min >= -TOL_PSD:
            raise _indexed(InvalidStateError, "state", k, n,
                           f"positivity violated: min eigenvalue = {w_min:.3e} below -{TOL_PSD:.0e}")
    return spectra


def _rank_one(vecs: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray]:
    """The densities psi psi' of an (n, N) stack of unit vectors psi with
    subsystem dims ``dims``, validated by ``_density_stack``, and their
    spectra: the one place such densities are built.  A rank-one Hermitian
    matrix has the single nonzero eigenvalue ||psi||^2, its trace, so each
    spectrum is (0, ..., 0, ||psi||^2), read off the diagonal, and no
    eigenproblem is solved."""
    mats = vecs[:, :, None] * vecs.conj()[:, None, :]
    spectra = np.zeros(vecs.shape)
    spectra[:, -1] = mats.trace(axis1=1, axis2=2).real
    return mats, _density_stack(mats, dims, spectra=spectra)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive semidefinite, unit-trace complex matrix tagged with the
    ordered list of subsystem dimensions.

    The matrix is validated on construction (hermiticity, positivity and
    trace, each within the module tolerances) and stored read-only.  The
    positivity check's eigenvalues, or the spectrum the state's structure
    fixes (``_density_stack``), are kept, ascending and read-only, as
    ``spectrum``; the von Neumann entropy and the rho term of the relative
    entropy read them instead of solving again.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _to_square(self.mat).copy()
        dims = _check_dims(self.dims, mat.shape[0])
        spectrum = _density_stack(mat[None], dims)[0]
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


def _density_matrices(mats: np.ndarray, spectra: np.ndarray, dims) -> list[DensityMatrix]:
    """The states of a stack that ``_density_stack`` validated, with the
    spectra it returned, copied read-only and wrapped by ``_unchecked``,
    not validated again."""
    dims = tuple(map(int, dims))
    mats, spectra = mats.copy(), spectra.copy()
    mats.flags.writeable = spectra.flags.writeable = False
    return [_unchecked(DensityMatrix, mat=mat, dims=dims, spectrum=spectrum)
            for mat, spectrum in zip(mats, spectra)]


def _squared_norms(vecs: np.ndarray) -> np.ndarray:
    """||v||^2 of each vector of a (..., N) complex stack, from its real and
    imaginary parts, which an infinite entry leaves inf, not nan."""
    parts = np.ascontiguousarray(vecs).view(np.float64)
    return np.einsum("...j,...j->...", parts, parts)


def _pure_stack(vecs: np.ndarray, dims) -> None:
    """Validate an (n, N) stack of complex amplitude vectors with subsystem
    dims ``dims``: each squared norm, the trace of the vector's density,
    must be 1 within TOL_TRACE, so every valid vector has a valid density
    (``_rank_one``).  A failure raises InvalidStateError for the first
    state that fails, named as ``_indexed`` names it."""
    if vecs.ndim != 2:
        raise DimensionMismatchError(f"expected a stack of vectors, got shape {vecs.shape}")
    _check_dims(dims, vecs.shape[-1])
    for k, square in enumerate(_squared_norms(vecs).tolist()):
        if not abs(square - 1.0) <= TOL_TRACE:
            # the sum raises no warning on nan or inf, so finiteness is
            # tested only once the norm check has failed
            if not np.isfinite(vecs[k]).all():
                message = "amplitude vector has a non-finite (nan or inf) entry"
            else:
                message = f"unit norm violated: |norm^2 - 1| = {abs(square - 1.0):.3e} exceeds {TOL_TRACE:.0e}"
            raise _indexed(InvalidStateError, "state", k, len(vecs), message)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector tagged with subsystem dimensions."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=complex).reshape(-1).copy()
        dims = _check_dims(self.dims, vec.shape[0])
        _pure_stack(vec[None], dims)
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def to_density(self) -> DensityMatrix:
        """|psi><psi|, built and validated by ``_rank_one``."""
        mats, spectra = _rank_one(self.vec[None], self.dims)
        return _density_matrices(mats, spectra, self.dims)[0]

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(np.kron(self.vec, other.vec), self.dims + other.dims)

    def overlap(self, other: "PureState") -> complex:
        if self.dim != other.dim:
            raise DimensionMismatchError("states live on different dimensions")
        return complex(np.vdot(self.vec, other.vec))


def _integer(value, what: str, error: type[CoherlabError] = BadSubsystemError) -> int:
    """``value`` as an int when it is a Python or numpy integer; a bool, a
    float or anything else raises ``error``, never a truncated value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} {value!r} is not an integer")
    return int(value)


def _subsystem_index(i) -> int:
    return _integer(i, "subsystem index")


def _validate_subsystems(indices, n: int, allow_empty: bool = False) -> tuple[int, ...]:
    idx = tuple(sorted({_subsystem_index(i) for i in indices}))
    if not idx and not allow_empty:
        raise BadSubsystemError("subsystem index set must be non-empty")
    if any(i < 0 or i >= n for i in idx):
        raise BadSubsystemError(f"subsystem indices {idx} out of range for {n} subsystems")
    return idx


def _basis_rows(dims: tuple[int, ...], subsystems: tuple[int, ...], rest=None) -> np.ndarray:
    """The table rows[s, r]: the row of the basis state with row-major label
    s on the ordered ``subsystems`` and label r on ``rest`` (by default the
    other subsystems, in order), for subsystem dims ``dims``.  The
    subsystems must be checked already, as ``_validate_subsystems`` checks
    them."""
    if rest is None:
        rest = tuple(i for i in range(len(dims)) if i not in subsystems)
    rows = np.arange(math.prod(dims)).reshape(dims).transpose(tuple(subsystems) + tuple(rest))
    return rows.reshape(math.prod(dims[i] for i in subsystems), -1)


def _partial_traces(mats: np.ndarray, dims: tuple[int, ...], keep) -> tuple[np.ndarray, tuple[int, ...]]:
    """Trace every subsystem not in ``keep`` out of each matrix of an
    (n, N, N) stack with subsystem dims ``dims``: the reduced stack and its
    dims, the kept subsystems in their original order.

    One contraction does it.  Each run of adjacent subsystems that are all
    kept or all traced becomes one axis (a subsystem of dimension 1, which
    either fate leaves alike, joins the run around it), and one einsum on
    the grouped (n, *groups, *groups) view sums the diagonals of every
    traced group at once.  Its integer labels number 1 + 2 x groups, at
    most 1 + 2 log2 N, far inside einsum's 52."""
    keep_idx = _validate_subsystems(keep, len(dims))
    sizes, kept = [], []  # the size and the fate of each run
    for i, d in enumerate(dims):
        if d > 1:
            if kept and kept[-1] == (i in keep_idx):
                sizes[-1] *= d
            else:
                sizes.append(d)
                kept.append(i in keep_idx)
    m = len(sizes)
    rows = range(1, m + 1)
    # a traced group's column axis carries its row label, so it is summed
    cols = [r + m if k else r for r, k in zip(rows, kept)]
    out = [0, *compress(rows, kept), *compress(cols, kept)]
    reduced = np.einsum(mats.reshape(len(mats), *sizes, *sizes), [0, *rows, *cols], out)
    kept_dims = tuple(dims[i] for i in keep_idx)
    d = math.prod(kept_dims)
    return reduced.reshape(len(mats), d, d), kept_dims


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not in ``keep``.

    ``keep`` is a set of subsystem indices, Python or numpy integers; the
    result carries the kept subsystems in their original order.  The one
    contraction of ``_partial_traces`` computes it, and it is validated as
    a ``DensityMatrix``.
    """
    mats, dims = _partial_traces(rho.mat[None], rho.dims, keep)
    return DensityMatrix(mats[0], dims)


def apply_local(m, k, before: int = 1, after: int = 1) -> np.ndarray:
    """(I_before x K x I_after) M (I_before x K x I_after)' without forming
    the embedded operator.

    K, square or rectangular, acts on the middle factor of a square matrix
    whose row and column index is (before, K's input, after).  Both
    arguments broadcast over their leading axes: M of shape (..., N, N) and
    K of shape (..., p, q) give one result per entry of the broadcast
    leading shape, so a stack of operators on one matrix (K[:, None] on a
    stack of matrices, or K[i] paired with M[i]) is one call.  Each side is
    one batched matmul over the ``before`` index: H = K M, then the
    right-hand product through its transpose, (H K')^T = conj(K) H^T, which
    needs no conjugated copy of the large matrix.
    """
    k = np.asarray(k, dtype=complex)
    mat = np.asarray(m, dtype=complex)
    if k.ndim < 2 or mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionMismatchError(
            f"expected operators (..., p, q) and square matrices (..., N, N), "
            f"got shapes {k.shape} and {mat.shape}"
        )
    p, q = k.shape[-2:]
    n = before * p * after
    if mat.shape[-1] != before * q * after:
        raise DimensionMismatchError(
            f"matrix order {mat.shape[-1]} != {before} x {q} x {after}"
        )
    k = k[..., None, :, :]  # broadcast over the ``before`` index
    half = k @ mat.reshape(*mat.shape[:-2], before, q, -1)
    lead = half.shape[:-3]
    half = half.reshape(*lead, n, -1).swapaxes(-1, -2)
    return (k.conj() @ half.reshape(*lead, before, q, -1)).reshape(*lead, n, n).swapaxes(-1, -2)


def permute_subsystems(rho: DensityMatrix, order: Sequence[int]) -> DensityMatrix:
    """Reorder subsystems so that new position k holds old subsystem order[k]."""
    n = rho.n_subsystems
    order = tuple(map(_subsystem_index, order))
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
    # 0 - sum, not -sum: the sum of a pure spectrum is +0.0, whose negation
    # would be reported as -0.0
    return 0.0 - float((w * np.log2(w)).sum())


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """``_entropy_from_eigs`` of each entry of a stack of spectra (the
    eigenvalues of state i are spectra[i], of any shape), bit for bit.

    The terms of a whole row are summed at once, a zero standing in for
    each eigenvalue clamped to 0 (or nan).  That is the sum of the positive
    terms alone while a row has fewer than 8 entries (numpy then sums in
    order), or when no term is dropped; any other row, and a row with no
    positive eigenvalue, is summed on its own."""
    if len(spectra) == 1:
        # one state: its positive terms summed alone cost less than a row
        return np.array([_entropy_from_eigs(spectra[0])])
    w = np.minimum(np.fmax(spectra.real.reshape(len(spectra), -1), 0.0), 1.0)
    keep = w > 0.0
    # a dropped entry is 0, and log2(0 + 1) = 0; a kept one is w + 0 = w
    values = 0.0 - (w * np.log2(w + ~keep)).sum(axis=1)
    if not keep.all():
        exact = keep.any(axis=1) if w.shape[1] < 8 else keep.all(axis=1)
        for i in np.nonzero(~exact)[0]:
            values[i] = _entropy_from_eigs(w[i])
    return values


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -Tr[rho log2 rho] in bits.

    A DensityMatrix contributes the spectrum its validation computed; a
    plain matrix must be Hermitian within TOL_HERM (NonHermitianError
    otherwise, a non-finite entry included) and is diagonalized here.
    Eigenvalues are clamped to [0, 1]; 0 log 0 is taken as 0.
    """
    if isinstance(rho, DensityMatrix):
        return _entropy_from_eigs(rho.spectrum)
    try:
        w = np.linalg.eigvalsh(_hermitian(rho))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    return _entropy_from_eigs(w)


def _relative_entropies(r: np.ndarray, w_r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """S(rho_i||sigma_i) for an (n, N, N) stack of rho_i with spectra
    w_r[i] and a stack of sigma_i of the same shape.

    Each sigma_i must be Hermitian within TOL_HERM times its largest
    modulus (or 1); one batched eigh then gives its eigenpairs.  A value is
    ``math.inf`` when rho_i has more than TOL_KERNEL_MASS weight in the
    kernel of sigma_i (the eigenvectors with eigenvalue below TOL_PSD), or
    when sigma_i is numerically zero."""
    asym = np.abs(s - s.conj().swapaxes(1, 2)).max(axis=(1, 2))
    tol = TOL_HERM * np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
    if not (asym <= tol).all():
        k = int(np.argmin(asym <= tol))
        raise NonHermitianError(
            f"matrix is not Hermitian: max |M - M'| = {asym[k]:.3e} exceeds {tol[k]:.0e}"
        )
    try:
        w_s, v_s = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    in_kernel = w_s < TOL_PSD
    # weights[i, j] = <v_j| rho_i |v_j> for the eigenvectors v_j of sigma_i
    weights = np.real((v_s.conj() * (r @ v_s)).sum(axis=1))
    mass = np.where(in_kernel, weights, 0.0).sum(axis=1)
    log_s = np.log2(np.where(in_kernel, 1.0, w_s))
    term_sigma = (np.where(in_kernel, 0.0, weights) * log_s).sum(axis=1)
    values = -_entropies(w_r) - term_sigma
    return np.where((mass > TOL_KERNEL_MASS) | in_kernel.all(axis=1), math.inf, values)


def relative_entropy(rho, sigma) -> float:
    """Relative entropy S(rho||sigma) = Tr[rho log2 rho] - Tr[rho log2 sigma].

    Returns ``math.inf`` when rho has more than TOL_KERNEL_MASS weight in
    the kernel of sigma (eigenvalues of sigma below TOL_PSD define the
    kernel); support violations are a signal, not an error.  The rho term
    reads a DensityMatrix's stored spectrum; a plain rho must be Hermitian
    within TOL_HERM, as ``von_neumann_entropy`` requires, and is
    diagonalized here.
    """
    r = rho.mat if isinstance(rho, DensityMatrix) else _hermitian(rho)
    s = sigma.mat if isinstance(sigma, DensityMatrix) else _to_square(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shape mismatch {r.shape} vs {s.shape}")
    w_r = rho.spectrum if isinstance(rho, DensityMatrix) else np.linalg.eigvalsh(r)
    return float(_relative_entropies(r[None], w_r[None], s[None])[0])
