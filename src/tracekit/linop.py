"""Matrix-free linear operators and the dense linear algebra they lean on.

A :class:`LinearOperator` is a square matrix accessed only through
matrix-vector products; every application is counted so estimators can report
their exact query budget.  The module also provides random probe generation,
rank-revealing orthonormalization and Moore-Penrose pseudoinversion.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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


def _norm(X) -> float:
    """||X||_F (a vector's 2-norm) of a finite X, safe from over- and underflow.

    The plain sum of squares overflows past about 1e154 per entry and
    flushes to 0 below about 1e-162; only then is it recomputed on X scaled
    by its largest |entry|, so every other norm has np.linalg.norm's bits.
    """
    # np.linalg.norm is the square root of this same BLAS dot of the same
    # raveled X; np.vdot takes it without numpy's overflow warning.
    x = np.ravel(X, order="K")
    norm = math.sqrt(np.vdot(x, x))
    if norm == math.inf or (norm == 0.0 and x.any()):
        big = float(np.abs(x).max())
        x = x / big
        norm = big * math.sqrt(np.vdot(x, x))
    return norm


class LinearOperator:
    """Square operator accessed through counted matrix-vector products.

    Subclasses implement ``_apply_block``, the product with a d x k block,
    which ``matmat`` queries.  ``matvec`` queries ``_apply_vec``, the same
    product taken as k separate vectors, each bit-identical to its
    one-vector query; it defaults to ``_apply_block``, and an operator whose
    block kernel rounds differently (a dense GEMM) overrides it.  A
    non-finite input or result raises ValueError naming the operator class.
    Counter updates are lock-protected so concurrent applications never lose
    increments.
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

    def _apply_block(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        raise NotImplementedError

    def _apply_vec(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        return self._apply_block(X)

    def matvec(self, x: ArrayLike) -> NDArray[np.float64]:
        """Apply the operator to one vector, or to each column of a d x k
        block as k separate vectors, each bit-identical to its one-vector
        call; increments query_count by 1 (or k)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self._dim:
            raise ValueError(
                f"matvec expects a vector of length {self._dim} or a "
                f"({self._dim}, k) block, got shape {x.shape}"
            )
        if x.ndim == 1:
            return self._query(x[:, None], self._apply_vec)[:, 0]
        return self._query(x, self._apply_vec)

    def matmat(self, X: ArrayLike) -> NDArray[np.float64]:
        """Apply the operator to each column of X; increments query_count by k."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self._dim:
            raise ValueError(
                f"matmat expects a ({self._dim}, k) block, got shape {X.shape}"
            )
        return self._query(X, self._apply_block)

    def _query(self, X: NDArray[np.float64], kernel) -> NDArray[np.float64]:
        # The one query path.  matvec calls it directly, not through matmat,
        # so a profiler wrapping both public methods sees one query per call.
        # A nan or inf from any operator stops the caller here instead of
        # reaching an estimate (or the CSV).
        _require_finite(X, f"{type(self).__name__} input")
        Y = kernel(X)
        with self._lock:
            self._query_count += X.shape[1]
        _require_finite(Y, f"{type(self).__name__} output")
        return Y


_PANEL = 64
# Multiply-adds (d*d*k for a dense matvec, nnz*k for a sparse product) from
# which _run_bands, its one reader, splits a query into row bands.  A split's
# handoff costs about 40 us: at one BLAS thread on 2 CPUs, a dense one-vector
# query at d = 1000 (1M) took 308 us in one band and 507 us split, two
# vectors (2M) 531 against 434 us.
_SPLIT_MIN = 3 * 2**19
# (pid, workers, ThreadPoolExecutor or None).  Two threads' first splits may
# each make a pool; the one not kept ends once its bands are done.
_pool = (None, 0, None)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _band_pool():
    """This process's band workers, one fewer than its CPUs, made at first use.

    A forked child makes its own: the parent's threads do not run in it.
    """
    global _pool
    pid, workers, pool = _pool
    if pid != os.getpid():
        workers = _cpu_count() - 1
        pool = ThreadPoolExecutor(workers) if workers else None
        _pool = os.getpid(), workers, pool
    return workers, pool


def _run_bands(work, rows, cuts, band):
    """Run ``band(a, b)`` on row bands [a, b) covering a query's ``rows`` rows.

    Below ``_SPLIT_MIN`` multiply-adds of ``work``, the calling thread runs
    ``band(0, rows)`` and no pool is made.  From it, the bands lie between
    consecutive edges of ``cuts(n)``, which splits the rows into at most n
    bands, n being the CPUs the process may use: the calling thread runs the
    first band and the band pool the others.  Returns when every band is
    done, and raises the first fault among them.  A band should run only
    numpy or scipy kernels on its own rows, so that the query is counted,
    checked and traced on the calling thread alone.
    """
    if work < _SPLIT_MIN:
        band(0, rows)
        return
    workers, pool = _band_pool()
    edges = cuts(workers + 1)
    futures = []
    try:
        for a, b in zip(edges[1:-1], edges[2:]):
            futures.append(pool.submit(band, a, b))
        band(edges[0], edges[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _panel_gemvs(A, Xt, Y):
    """Y = one GEMV per (64-row panel of A, vector of Xt), all numpy.

    The last call takes 64 to 127 rows (or all of fewer than 64): a one-row
    call would be a dot product, which rounds differently from a GEMV.
    """
    P = max(A.shape[0] // _PANEL - 1, 0)
    h = P * _PANEL
    # A C-order (P, k) result makes numpy loop over the vectors inside
    # the loop over panels, so each panel is read from memory once.
    head = A[:h].reshape(P, 1, _PANEL, A.shape[1]) @ Xt
    Y[:, :h] = head.transpose(1, 0, 2, 3).reshape(len(Y), h)
    np.matmul(A[h:], Xt, out=Y[:, h:, None])


class DenseOperator(LinearOperator):
    """LinearOperator backed by an explicit square dense matrix; a float64
    array is kept, not copied, so writing to it changes the operator.

    ``matmat`` is one GEMM.  ``matvec`` runs one GEMV per (64-row panel,
    vector), so a panel stays in cache while every vector of the block
    passes it; a column of the block is bit-identical to its one-vector
    query, which runs the same panels.  A panel's height is a multiple of
    4, so at one BLAS thread each row's dot product is the one the full
    GEMV ``A @ x`` computes (OpenBLAS's GEMV kernel takes rows four at a
    time); a threaded BLAS splits the full GEMV at other rows, and at two
    threads 3 rows differ at d = 1130 (none at d = 1000).

    ``matvec`` is d*d*k multiply-adds to ``_run_bands``, cut into bands of
    whole panels, the last keeping the tail panel.  Every row keeps its GEMV
    call, so the bytes do not depend on the CPU count.
    """

    def __init__(self, matrix: ArrayLike):
        A = np.asarray(matrix, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        _require_finite(A, "matrix")
        super().__init__(A.shape[0])
        self.matrix = A

    def _apply_block(self, X):
        return self.matrix @ X

    def _apply_vec(self, X):
        d, k = X.shape
        A, Xt = self.matrix, X.T[:, :, None]  # k vectors, each d x 1
        Y = np.empty((k, d))  # row i is vector i's product
        panels = max(d // _PANEL, 1)  # the tail counts as one

        def cuts(n):
            rows = -(-panels // n) * _PANEL  # per band but the last
            return [*range(0, (panels - 1) * _PANEL + 1, rows), d]

        _run_bands(d * d * k, d, cuts, lambda a, b: _panel_gemvs(A[a:b], Xt, Y[:, a:b]))
        return Y.T


class DiagonalOperator(LinearOperator):
    """LinearOperator for a diagonal matrix, applied in O(d) per query; a
    float64 array is kept, not copied, so writing to it changes the operator."""

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
    """Operator applied through the operator it is given, not a copy.

    Subclasses apply ``self._inner``.  The wrapper's own query_count is the
    trace-estimation budget; the wrapped operator counts the multiplies spent
    on it, which ``inner_matvecs`` reads.
    """

    def __init__(self, inner: LinearOperator):
        super().__init__(inner.dim)
        self._inner = inner

    @property
    def inner_matvecs(self) -> int:
        """The wrapped operator's own query_count."""
        return self._inner.query_count


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
    scale = _norm(X)
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
