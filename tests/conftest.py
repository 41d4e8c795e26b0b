import math

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_hermitian(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0


def ptrace_oracle(mat, dims, keep):
    """Brute-force index contraction over the traced subsystems."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    dk = math.prod(kept_dims)
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(mat.shape[0]):
        for col in range(mat.shape[1]):
            mrow = np.unravel_index(row, dims)
            mcol = np.unravel_index(col, dims)
            if any(mrow[t] != mcol[t] for t in traced):
                continue
            krow = np.ravel_multi_index([mrow[i] for i in keep], kept_dims) if kept_dims else 0
            kcol = np.ravel_multi_index([mcol[i] for i in keep], kept_dims) if kept_dims else 0
            out[krow, kcol] += mat[row, col]
    return out
