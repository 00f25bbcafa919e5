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

from tracekit.linop import LinearOperator, WrappedOperator, _size

__all__ = [
    "lanczos_apply",
    "exp_operator",
    "shifted_log_operator",
    "LanczosFunctionOperator",
    "PowerOperator",
]


_BREAKDOWN = 1e-12


def lanczos_apply(
    op: LinearOperator,
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Approximate f(B) x with at most min(iterations, d) Lanczos steps per column.

    x is one vector or a d x k block whose columns share one workspace; a
    zero column maps to 0 without a query.  The caller asserts B = B^T.
    Each Krylov vector is reorthogonalized against the whole basis, twice.
    A column stops early, exact on its exhausted Krylov space, once beta <=
    _BREAKDOWN * (the largest |alpha| or beta so far), a scale-free test.
    f maps the eigenvalues of the j x j tridiagonal T to f(eigenvalues), and
    a column's result is ||x|| * V f(T) e_1, for exactly j matvecs on B.
    """
    n = min(_size(iterations, "iterations"), op.dim)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != op.dim:
        raise ValueError(f"expected {op.dim} rows, got shape {x.shape}")
    X = x.reshape(op.dim, -1)
    Y = np.zeros(X.shape)
    V = np.empty((op.dim, n))
    alphas = np.empty(n)
    betas = np.empty(n)
    for c in range(X.shape[1]):
        norm_x = float(np.linalg.norm(X[:, c]))
        if norm_x == 0.0:
            continue
        V[:, 0] = X[:, c] / norm_x
        j = scale = 0
        while True:
            w = op.matvec(V[:, j])
            alphas[j] = float(V[:, j] @ w)
            w = w - alphas[j] * V[:, j]
            if j > 0:
                w = w - betas[j - 1] * V[:, j - 1]
            # Full reorthogonalization, twice, against everything so far.
            basis = V[:, : j + 1]
            w = w - basis @ (basis.T @ w)
            w = w - basis @ (basis.T @ w)
            beta = float(np.linalg.norm(w))
            scale = max(scale, abs(alphas[j]), beta)
            j += 1
            if j == n or beta <= _BREAKDOWN * scale:
                break
            betas[j - 1] = beta
            V[:, j] = w / beta
        theta, U = scipy.linalg.eigh_tridiagonal(alphas[:j], betas[: j - 1])
        coeff = U @ (np.asarray(f(theta)) * U[0, :])
        Y[:, c] = norm_x * (V[:, :j] @ coeff)
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
            Y = self._inner.matmat(Y)
        return Y
