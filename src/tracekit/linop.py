"""Matrix-free linear operators and the dense linear algebra they lean on.

A :class:`LinearOperator` is a square matrix accessed only through
matrix-vector products; every application is counted so estimators can report
their exact query budget.  The module also provides random probe generation,
rank-revealing orthonormalization and Moore-Penrose pseudoinversion.
"""

from __future__ import annotations

import operator
import threading
from copy import copy
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "WrappedOperator",
    "ProbeMatrix",
    "sample_probes",
    "orthonormalize",
    "pseudoinverse",
]


def _size(value, name: str, minimum: int = 1) -> int:
    """``value`` as an exact int >= minimum: the one rule for every size argument.

    A float (even an integral one) raises TypeError instead of truncating;
    numpy integers pass.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_finite(X, what: str) -> None:
    """The one finiteness rule for arrays entering or leaving the package."""
    if not np.isfinite(X).all():
        raise ValueError(f"{what} contains non-finite entries")


class LinearOperator:
    """Square operator accessed through counted matrix-vector products.

    Subclasses implement ``_apply_block`` only, the product with a d x k
    block; ``matvec`` queries it with one column.  The operator is immutable
    after construction except for its query counter; counter updates are
    lock-protected so concurrent applications never lose increments.
    """

    def __init__(self, dim: int):
        self._dim = _size(dim, "operator dimension")
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

    def _apply_block(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        raise NotImplementedError

    def matvec(self, x: ArrayLike) -> NDArray[np.float64]:
        """Apply the operator to one vector; increments query_count by 1.

        A non-finite result raises ValueError naming the operator class.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._dim,):
            raise ValueError(
                f"matvec expects a vector of length {self._dim}, got shape {x.shape}"
            )
        return self._query(x[:, None])[:, 0]

    def matmat(self, X: ArrayLike) -> NDArray[np.float64]:
        """Apply the operator to each column of X; increments query_count by k.

        A non-finite result raises ValueError naming the operator class.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self._dim:
            raise ValueError(
                f"matmat expects a ({self._dim}, k) block, got shape {X.shape}"
            )
        if X.shape[1] == 0:
            return np.zeros((self._dim, 0))
        return self._query(X)

    def _query(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        # The one query path.  matvec calls it directly, not through matmat,
        # so a profiler wrapping both public methods sees one query per call.
        _require_finite(X, f"{type(self).__name__} input")
        Y = self._apply_block(X)
        self._count(X.shape[1])
        self._check_output(Y)
        return Y

    def _check_output(self, Y: NDArray[np.float64]) -> None:
        # A nan or inf from any operator stops the caller here instead of
        # reaching an estimate (or the CSV).
        _require_finite(Y, f"{type(self).__name__} output")

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
        _require_finite(A, "matrix")
        super().__init__(A.shape[0])
        self.matrix = A

    def _apply_block(self, X):
        return self.matrix @ X


class DiagonalOperator(LinearOperator):
    """LinearOperator for a diagonal matrix, applied in O(d) per query."""

    def __init__(self, diagonal: ArrayLike):
        diag = np.asarray(diagonal, dtype=np.float64)
        if diag.ndim != 1:
            raise ValueError(f"expected a 1-d diagonal, got shape {diag.shape}")
        _require_finite(diag, "diagonal")
        super().__init__(diag.shape[0])
        self.diagonal = diag

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


@dataclass(frozen=True)
class ProbeMatrix:
    """A d x k block of i.i.d. random probe vectors (as columns).

    The class outlives its other fields only because perfbench's tracer
    reads ``result.entries.size``.  Deleting it, so that ``sample_probes``
    returns the array, waits for the benchmark to take its probe counts from
    a run record kept by the package.
    """

    entries: NDArray[np.float64]


_PROBE_DISTRIBUTIONS = ("rademacher", "gaussian")


def sample_probes(
    d: int,
    k: int,
    distribution: str,
    rng: np.random.Generator | int | None,
) -> ProbeMatrix:
    """Draw a d x k probe matrix with i.i.d. entries.

    Args:
        d: number of rows (operator dimension).
        k: number of probe columns.
        distribution: ``"rademacher"`` (exact +/-1 entries) or
            ``"gaussian"`` (standard normal); any other string raises.
        rng: seed or Generator; a Generator is advanced in place, and a
            fixed seed reproduces the matrix exactly.

    Returns:
        ProbeMatrix with the drawn entries.
    """
    d, k = _size(d, "probe dimension d"), _size(k, "probe column count k")
    if distribution not in _PROBE_DISTRIBUTIONS:
        raise ValueError(
            f"unknown probe distribution {distribution!r}; "
            f"expected one of: {', '.join(_PROBE_DISTRIBUTIONS)}"
        )
    gen = np.random.default_rng(rng)
    if distribution == "rademacher":
        entries = 2.0 * gen.integers(0, 2, size=(d, k)).astype(np.float64) - 1.0
    else:
        entries = gen.standard_normal((d, k))
    return ProbeMatrix(entries)


def orthonormalize(X: ArrayLike) -> NDArray[np.float64]:
    """Orthonormal basis for the column span of X, dropping dependent columns.

    Columns whose residual norm against the span of the preceding columns
    falls below ``1e-12 * ||X||_F`` are discarded, so the output is d x r
    with r the numerical rank of X.  An all-zero X yields a d x 0 result.

    Args:
        X: d x k matrix; for k > d the result has at most d columns.

    Returns:
        Q with orthonormal columns spanning range(X).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {X.shape}")
    _require_finite(X, "matrix")
    scale = np.linalg.norm(X)
    if scale == 0.0:
        return np.zeros((X.shape[0], 0))
    threshold = 1e-12 * scale
    # Householder QR; |R_jj| is column j's residual norm against the span of
    # the previous columns.  Fast path when every column clears the tolerance.
    # X is known finite, so LAPACK's input check is skipped.
    Q, R = scipy.linalg.qr(X, mode="economic", check_finite=False)
    if np.all(np.abs(np.diag(R)) >= threshold):
        return Q
    # Rank-deficient: redo with column pivoting so the kept prefix spans X.
    Q, R, _ = scipy.linalg.qr(X, mode="economic", pivoting=True, check_finite=False)
    rdiag = np.abs(np.diag(R))  # non-increasing by pivoting
    r = int(np.searchsorted(-rdiag, -threshold, side="right"))
    return Q[:, :r]


def pseudoinverse(M: ArrayLike) -> NDArray[np.float64]:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below 1e-12 times the largest singular value are
    treated as zero.  The zero matrix maps to the (transposed-shape) zero
    matrix.
    """
    M = np.asarray(M, dtype=np.float64)
    _require_finite(M, "matrix")
    return np.linalg.pinv(M, rtol=1e-12)
