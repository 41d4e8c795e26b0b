import contextlib
import io
import math
from typing import NamedTuple

import numpy as np
import pytest

from coherlab.cli import main


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


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: Exception | None  # an exception the CLI did not handle


def run_cli(args) -> CliResult:
    """Run one ``coherlab`` command in this process with stdout and stderr
    redirected to StringIOs, as an embedding caller does."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, out.getvalue(), err.getvalue(), exception)
