"""Matrix functions f(B) as LinearOperators, via the Lanczos method.

Given a symmetric operator B available only through matvecs, the one
Lanczos routine, ``lanczos_apply``, approximates f(B)x after j steps as
||x|| * V f(T) e_1, where T is the j x j tridiagonal and V the orthonormal
Krylov basis.  Full reorthogonalization keeps the basis usable at the
iteration counts the trace experiments need.  Wrappers expose exp(B),
log(B + lambda*I) and exact monomial powers B^q (``PowerOperator``); each
wrapper counts its own queries (the trace budget), and B counts the raw
multiplies against it, which the wrapper reports as inner_matvecs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg

from tracekit.linop import LinearOperator, WrappedOperator, _norm, _size

__all__ = [
    "lanczos_apply",
    "exp_operator",
    "shifted_log_operator",
    "LanczosFunctionOperator",
    "PowerOperator",
]


_BREAKDOWN = 1e-12
_GROUP = 8  # columns run in lockstep, one inner query per Krylov step


def lanczos_apply(
    op: LinearOperator,
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Approximate f(B) x with at most min(iterations, d) Lanczos steps per column.

    x is one vector or a d x k block.  Its columns run in lockstep, _GROUP
    at a time: each Krylov step queries B once, ``op.matvec`` on the block
    of the group's live columns, and each column keeps its own d x n
    workspace, so it is bit-identical to its own call.  A zero column maps
    to 0 without a query.  The caller asserts B = B^T.  Each Krylov vector
    is reorthogonalized against its whole basis, twice.  A column stops
    early, exact on its exhausted Krylov space, once beta <= _BREAKDOWN *
    (the largest |alpha| or beta so far), a scale-free test.  f maps the
    eigenvalues of the j x j tridiagonal T to f(eigenvalues), and a column's
    result is ||x|| * V f(T) e_1, for exactly j matvecs on B.
    """
    n = min(_size(iterations, "iterations"), op.dim)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != op.dim:
        raise ValueError(f"expected {op.dim} rows, got shape {x.shape}")
    X = x.reshape(op.dim, -1)
    k = X.shape[1]
    Y = np.zeros(X.shape)
    V = np.empty((min(_GROUP, k), op.dim, n))  # V[s] is slot s's C-order basis
    alphas = np.empty((len(V), n))
    betas = np.empty((len(V), n))
    for first in range(0, k, _GROUP):
        live = {}  # slot -> (column, ||x||)
        for s, c in enumerate(range(first, min(first + _GROUP, k))):
            norm_x = _norm(X[:, c])
            if norm_x != 0.0:
                V[s, :, 0] = X[:, c] / norm_x
                live[s] = c, norm_x
        scales = np.zeros(len(V))
        j = 0
        while live:
            slots = list(live)
            # Row i of W is B v_j of slots[i], contiguous as a matvec result.
            W = np.ascontiguousarray(op.matvec(V[slots, :, j].T).T)
            for s, w in zip(slots, W):
                v = V[s]
                alphas[s, j] = float(v[:, j] @ w)
                w -= alphas[s, j] * v[:, j]
                if j > 0:
                    w -= betas[s, j - 1] * v[:, j - 1]
                # Full reorthogonalization, twice, against everything so far.
                basis = v[:, : j + 1]
                w -= basis @ (basis.T @ w)
                w -= basis @ (basis.T @ w)
                beta = _norm(w)
                scales[s] = max(scales[s], abs(alphas[s, j]), beta)
                if j + 1 == n or beta <= _BREAKDOWN * scales[s]:
                    c, norm_x = live.pop(s)
                    theta, U = scipy.linalg.eigh_tridiagonal(alphas[s, : j + 1], betas[s, :j])
                    coeff = U @ (np.asarray(f(theta)) * U[0, :])
                    Y[:, c] = norm_x * (v[:, : j + 1] @ coeff)
                else:
                    betas[s, j] = beta
                    v[:, j + 1] = w / beta
            j += 1
    return Y.reshape(x.shape)


class LanczosFunctionOperator(WrappedOperator):
    """f(B) as a LinearOperator: each query block is one ``lanczos_apply`` call."""

    def __init__(
        self,
        inner: LinearOperator,
        f: Callable[[np.ndarray], np.ndarray],
        iterations: int,
    ):
        iterations = _size(iterations, "iterations")
        super().__init__(inner)
        self._f = f
        self._iterations = iterations

    def _apply_block(self, X):
        return lanczos_apply(self._inner, self._f, X, self._iterations)


def exp_operator(B: LinearOperator, iterations: int) -> LanczosFunctionOperator:
    """exp(B) for symmetric B, applied via `iterations`-step Lanczos."""
    return LanczosFunctionOperator(B, np.exp, iterations)


def shifted_log_operator(
    B: LinearOperator, lam: float, iterations: int
) -> LanczosFunctionOperator:
    """log(B + lambda*I) for PSD B, so trace gives logdet(B + lambda*I).

    Lanczos Ritz values can undershoot the spectrum floor slightly; values
    below -lambda*(1 - 1e-9) are clamped to -lambda + 1e-12 before the log.
    """
    lam = float(lam)
    if not 0.0 < lam < np.inf:
        raise ValueError(f"shift lambda must be finite and > 0, got {lam}")

    floor = -lam * (1.0 - 1e-9)

    def f(theta: np.ndarray) -> np.ndarray:
        theta = np.where(theta < floor, -lam + 1e-12, theta)
        return np.log(theta + lam)

    return LanczosFunctionOperator(B, f, iterations)


class PowerOperator(WrappedOperator):
    """B^q as a LinearOperator: q sequential multiplies per query, exact."""

    def __init__(self, inner: LinearOperator, q: int):
        q = _size(q, "q")
        super().__init__(inner)
        self._q = q

    def _apply_block(self, X):
        Y = X
        for _ in range(self._q):
            Y = self._inner.matvec(Y)
        return Y
