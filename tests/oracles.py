"""Test instruments: a dense spectral oracle and a query-recording wrapper.

Neither is part of the package.  ``DenseReference`` supplies exact spectral
quantities to check the randomized estimators against, and
``RecordingOperator`` keeps the blocks an estimator queried, for the
accounting and non-adaptivity tests.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike, NDArray

from tracekit.linop import LinearOperator, WrappedOperator


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

    def clone(self):
        dup = super().clone()
        dup.queries = []
        return dup


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
