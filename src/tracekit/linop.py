"""Matrix-free linear operators and the dense linear algebra they lean on.

A :class:`LinearOperator` is a square matrix accessed only through
matrix-vector products; every application is counted so estimators can report
their exact query budget.  The module also provides random probe generation,
rank-revealing orthonormalization, Moore-Penrose pseudoinversion, and a dense
reference oracle (exact trace, norms, spectrum, and low-rank tails) used to
validate the randomized estimators.
"""

from __future__ import annotations

import enum
import threading
from copy import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "Distribution",
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "WrappedOperator",
    "RecordingOperator",
    "ProbeMatrix",
    "sample_probes",
    "orthonormalize",
    "pseudoinverse",
    "DenseReference",
    "as_generator",
]


class Distribution(str, enum.Enum):
    """Probe entry distributions."""

    RADEMACHER = "rademacher"
    GAUSSIAN = "gaussian"


def _coerce_distribution(distribution: Distribution | str) -> Distribution:
    if isinstance(distribution, Distribution):
        return distribution
    try:
        return Distribution(str(distribution).lower())
    except ValueError:
        valid = ", ".join(d.value for d in Distribution)
        raise ValueError(
            f"unknown probe distribution {distribution!r}; expected one of: {valid}"
        ) from None


def as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Return ``rng`` as a numpy Generator.

    Accepts an existing Generator (returned unchanged), anything
    ``numpy.random.default_rng`` accepts as a seed, or None for a
    nondeterministic generator.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


class LinearOperator:
    """Square operator accessed through counted matrix-vector products.

    Subclasses implement ``_apply_block`` (and may override ``_apply_vec``).
    The operator is immutable after construction except for its query
    counter; counter updates are lock-protected so concurrent applications
    never lose increments.
    """

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"operator dimension must be >= 1, got {dim}")
        self._dim = dim
        self._query_count = 0
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def query_count(self) -> int:
        """Total number of vector applications consumed so far."""
        with self._lock:
            return self._query_count

    def _count(self, k: int) -> None:
        with self._lock:
            self._query_count += k

    def _apply_vec(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return self._apply_block(x[:, None])[:, 0]

    def _apply_block(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        # Default: column-at-a-time; dense subclasses override with one GEMM.
        return np.column_stack([self._apply_vec(X[:, j]) for j in range(X.shape[1])])

    def matvec(self, x: ArrayLike) -> NDArray[np.float64]:
        """Apply the operator to one vector; increments query_count by 1."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._dim,):
            raise ValueError(
                f"matvec expects a vector of length {self._dim}, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("matvec input contains non-finite entries")
        y = self._apply_vec(x)
        self._count(1)
        return y

    def matmat(self, X: ArrayLike) -> NDArray[np.float64]:
        """Apply the operator to each column of X; increments query_count by k."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self._dim:
            raise ValueError(
                f"matmat expects a ({self._dim}, k) block, got shape {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("matmat input contains non-finite entries")
        if X.shape[1] == 0:
            return np.zeros((self._dim, 0))
        Y = self._apply_block(X)
        self._count(X.shape[1])
        return Y

    def clone(self) -> "LinearOperator":
        """Fresh operator sharing read-only data but with a zeroed counter."""
        dup = copy(self)
        dup._lock = threading.Lock()
        dup._query_count = 0
        return dup


class DenseOperator(LinearOperator):
    """LinearOperator backed by an explicit square dense matrix."""

    def __init__(self, matrix: ArrayLike):
        A = np.asarray(matrix, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("matrix contains non-finite entries")
        super().__init__(A.shape[0])
        self.matrix = A

    def _apply_vec(self, x):
        return self.matrix @ x

    def _apply_block(self, X):
        return self.matrix @ X


class DiagonalOperator(LinearOperator):
    """LinearOperator for a diagonal matrix, applied in O(d) per query."""

    def __init__(self, diagonal: ArrayLike):
        diag = np.asarray(diagonal, dtype=np.float64)
        if diag.ndim != 1:
            raise ValueError(f"expected a 1-d diagonal, got shape {diag.shape}")
        if not np.all(np.isfinite(diag)):
            raise ValueError("diagonal contains non-finite entries")
        super().__init__(diag.shape[0])
        self.diagonal = diag

    def _apply_vec(self, x):
        return self.diagonal * x

    def _apply_block(self, X):
        return self.diagonal[:, None] * X


class WrappedOperator(LinearOperator):
    """Operator applied through a private clone of another operator.

    Subclasses apply ``self._inner``.  The wrapper's own query_count is the
    trace-estimation budget; the multiplies it spends on the wrapped
    operator are counted apart, as ``inner_matvecs``.  A clone gets its own
    inner clone, so both counters start from zero.
    """

    def __init__(self, inner: LinearOperator):
        super().__init__(inner.dim)
        self._inner = inner.clone()

    @property
    def inner_matvecs(self) -> int:
        """Raw multiplies spent on the wrapped operator by this operator."""
        return self._inner.query_count

    def clone(self):
        dup = super().clone()
        dup._inner = self._inner.clone()
        return dup


class RecordingOperator(WrappedOperator):
    """Wrapper that records every query block passed through it.

    Used to test query accounting and the non-adaptivity contract: after a
    run, ``queries`` holds copies of the exact blocks the wrapped operator
    was asked to multiply, in call order.
    """

    def __init__(self, inner: LinearOperator):
        super().__init__(inner)
        self.queries: list[NDArray[np.float64]] = []

    def _apply_block(self, X):
        self.queries.append(X.copy())
        return self._inner.matmat(X)

    def clone(self):
        dup = super().clone()
        dup.queries = []
        return dup


@dataclass(frozen=True)
class ProbeMatrix:
    """A d x k block of i.i.d. random probe vectors (as columns)."""

    dim: int
    cols: int
    distribution: Distribution
    entries: NDArray[np.float64]


def sample_probes(
    d: int,
    k: int,
    distribution: Distribution | str,
    rng: np.random.Generator | int | None,
) -> ProbeMatrix:
    """Draw a d x k probe matrix with i.i.d. entries.

    Args:
        d: number of rows (operator dimension).
        k: number of probe columns.
        distribution: ``Distribution.RADEMACHER`` (exact +/-1 entries) or
            ``Distribution.GAUSSIAN`` (standard normal).
        rng: seed or Generator; a fixed seed reproduces the matrix exactly.

    Returns:
        ProbeMatrix with the drawn entries.
    """
    d, k = int(d), int(k)
    if d < 1:
        raise ValueError(f"probe dimension must be >= 1, got {d}")
    if k < 1:
        raise ValueError(f"probe column count must be >= 1, got {k}")
    distribution = _coerce_distribution(distribution)
    gen = as_generator(rng)
    if distribution is Distribution.RADEMACHER:
        entries = 2.0 * gen.integers(0, 2, size=(d, k)).astype(np.float64) - 1.0
    else:
        entries = gen.standard_normal((d, k))
    return ProbeMatrix(dim=d, cols=k, distribution=distribution, entries=entries)


def orthonormalize(X: ArrayLike, drop_tol: float = 1e-12) -> NDArray[np.float64]:
    """Orthonormal basis for the column span of X, dropping dependent columns.

    Columns whose residual norm against the span of the preceding columns
    falls below ``drop_tol * ||X||_F`` are discarded, so the output is d x r
    with r the numerical rank of X.  An all-zero X yields a d x 0 result.

    Args:
        X: d x k matrix, d >= k >= 1.
        drop_tol: relative column-residual drop tolerance.

    Returns:
        Q with orthonormal columns spanning range(X).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {X.shape}")
    d, k = X.shape
    if not (d >= k >= 1):
        raise ValueError(f"expected d >= k >= 1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains non-finite entries")
    scale = np.linalg.norm(X)
    if scale == 0.0:
        return np.zeros((d, 0))
    threshold = drop_tol * scale
    # Householder QR; |R_jj| is column j's residual norm against the span of
    # the previous columns.  Fast path when every column clears the tolerance.
    Q, R = scipy.linalg.qr(X, mode="economic")
    if np.all(np.abs(np.diag(R)) >= threshold):
        return Q
    # Rank-deficient: redo with column pivoting so the kept prefix spans X.
    Q, R, _ = scipy.linalg.qr(X, mode="economic", pivoting=True)
    rdiag = np.abs(np.diag(R))  # non-increasing by pivoting
    r = int(np.searchsorted(-rdiag, -threshold, side="right"))
    return Q[:, :r]


def pseudoinverse(M: ArrayLike, tol: float = 1e-12) -> NDArray[np.float64]:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``tol`` times the largest singular value are
    treated as zero.  The zero matrix maps to the (transposed-shape) zero
    matrix.
    """
    M = np.asarray(M, dtype=np.float64)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.pinv(M, rtol=tol)


class DenseReference:
    """Exact spectral quantities of an explicit square matrix.

    Serves as the test oracle for the randomized estimators: trace by
    diagonal sum, Frobenius norm entrywise, and (lazily, on first access)
    the full spectrum, nuclear norm, and best rank-k approximation tails.
    Symmetric input uses its eigendecomposition; general input falls back to
    singular values.
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
    def _magnitudes(self) -> NDArray[np.float64]:
        # Magnitudes of the spectrum, descending: |eigenvalues| for symmetric
        # input (the best rank-k approximation keeps the largest magnitudes),
        # singular values otherwise.
        A = self.matrix
        atol = 1e-12 * max(1.0, float(np.abs(A).max()))
        if np.allclose(A, A.T, rtol=0.0, atol=atol):
            w = np.linalg.eigvalsh(A)
            self._eigs_desc = w[::-1].copy()
            return np.sort(np.abs(w))[::-1]
        s = np.linalg.svd(A, compute_uv=False)
        self._eigs_desc = s.copy()
        return s

    @cached_property
    def eigenvalues_descending(self) -> NDArray[np.float64]:
        """Eigenvalues (symmetric input) or singular values, descending."""
        _ = self._magnitudes
        return self._eigs_desc

    @cached_property
    def nuclear_norm(self) -> float:
        return float(self._magnitudes.sum())

    @cached_property
    def _tail_sq(self) -> NDArray[np.float64]:
        # _tail_sq[k] = sum of squared magnitudes strictly past rank k.
        sq = self._magnitudes**2
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
