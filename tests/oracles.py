"""Test instruments: a dense spectral oracle, a query-recording wrapper, an
operator that outputs nan, a reference power-law builder and a peak-memory
probe.

None is part of the package.  ``DenseReference`` supplies exact spectral
quantities to check the randomized estimators against,
``RecordingOperator`` keeps the blocks an estimator queried, for the
accounting and non-adaptivity tests, ``NanOperator`` answers every query
with nan, for the tests that a fault raises where it is made,
``power_law_reference`` builds the power-law matrix through
``orthonormalize``, the bits ``power_law_matrix`` must keep, and
``peak_rss_growth`` measures how far one call raises a fresh interpreter's
peak resident set.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike, NDArray

from tracekit.linop import LinearOperator, WrappedOperator, orthonormalize
from tracekit.synth import power_law_eigenvalues


class RecordingOperator(WrappedOperator):
    """Wrapper that records every query block passed through it.

    After a run, ``queries`` holds copies of the exact blocks the wrapped
    operator was asked to multiply, in call order.
    """

    def __init__(self, inner: LinearOperator):
        super().__init__(inner)
        self.queries: list[NDArray[np.float64]] = []

    def _apply_block(self, X):
        self.queries.append(X.copy())
        return self._inner.matmat(X)


class NanOperator(LinearOperator):
    """An operator whose every output entry is nan."""

    def _apply_block(self, X):
        return np.full(X.shape, np.nan)


class DenseReference:
    """Exact quantities of an explicit square matrix.

    Serves as the test oracle for the randomized estimators: trace by
    diagonal sum, Frobenius norm entrywise, and (lazily, on first access)
    best rank-k approximation tails from the eigenvalues.  The spectral
    query needs symmetric input and raises ValueError otherwise.
    """

    def __init__(self, matrix: ArrayLike):
        A = np.asarray(matrix, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("matrix contains non-finite entries")
        self.matrix = A
        self.dim = A.shape[0]

    @cached_property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @cached_property
    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    @cached_property
    def _tail_sq(self) -> NDArray[np.float64]:
        # _tail_sq[k] = sum of squared eigenvalues strictly past rank k, by
        # descending magnitude (the best rank-k approximation keeps the
        # largest magnitudes).
        A = self.matrix
        atol = 1e-12 * max(1.0, float(np.abs(A).max()))
        if not np.allclose(A, A.T, rtol=0.0, atol=atol):
            raise ValueError("spectral queries need a symmetric matrix")
        sq = np.sort(np.abs(np.linalg.eigvalsh(A)))[::-1] ** 2
        suffix = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
        return np.maximum(suffix, 0.0)

    def rank_k_tail_frobenius(self, k: int) -> float:
        """Frobenius distance to the best rank-k approximation, ||A - A_k||_F."""
        k = int(k)
        if k < 0:
            raise ValueError(f"rank must be >= 0, got {k}")
        if k >= self.dim:
            return 0.0
        return float(np.sqrt(self._tail_sq[k]))


def power_law_reference(dim: int, exponent: float, rng=None) -> NDArray[np.float64]:
    """The power-law matrix of ``power_law_matrix``, built the plain way.

    The same draw is orthonormalized by ``orthonormalize`` (a QR of the
    C-order draw, which LAPACK factors in a Fortran copy of its own), and the
    product and symmetrization are the same.  ``power_law_matrix`` factors a
    Fortran copy in place to hold fewer n x n arrays, and must give these
    bytes.
    """
    lam = power_law_eigenvalues(dim, exponent)
    d = lam.size
    Q = orthonormalize(np.random.default_rng(rng).standard_normal((d, d)))
    A = (Q.T * lam) @ Q
    return (A + A.T) / 2.0


_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"

# The peak is read as VmHWM, the high-water mark of the interpreter's own
# address space.  A spawned child's ru_maxrss starts at the peak of the
# process it was spawned from (Linux keeps the larger of the two across
# exec), so under a test runner bigger than the child it under-reports.
_PEAK_GROWTH = """
import sys
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
before = peak_kib()
exec(sys.argv[3])
print(peak_kib() - before)
"""


def peak_rss_growth(setup: str, call: str) -> int:
    """Bytes by which ``call`` raises the peak resident set.

    Runs ``setup`` and then ``call`` in a fresh interpreter with the
    package's sources importable, and returns the growth of the peak
    resident set across ``call`` (Linux only).  The interpreter inherits the
    test run's environment, so the one BLAS thread the root conftest.py
    sets.  The growth is
    the call's own peak only if ``setup`` leaves its own peak resident, so
    setup should keep what it builds rather than build and free large
    temporaries.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_GROWTH, str(_SRC), setup, call],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) * 1024


def blas_builds() -> str:
    """The numpy and scipy versions running, each with the BLAS it bundles."""
    import scipy

    def blas(pkg):
        build = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{build.get('name')} {build.get('version')}"

    return (
        f"numpy {np.__version__} ({blas(np)}), "
        f"scipy {scipy.__version__} ({blas(scipy)})"
    )


def perfbench_module(name: str):
    """Load ``perfbench/<name>.py`` read-only, as module ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", _ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
