"""Matrix functions f(B) as LinearOperators, via the Lanczos method.

Given a symmetric operator B available only through matvecs, approximate
f(B)x with a j-step Lanczos decomposition: f(B)x ~ ||x|| * V f(T) e_1, where
T is the j x j tridiagonal and V the orthonormal Krylov basis.  Full
reorthogonalization keeps the basis usable at the iteration counts the
trace experiments need.  Wrappers expose exp(B), log(B + lambda*I) and exact
monomial powers B^q; each wrapper counts its own queries (the trace budget)
while raw multiplies against B are reported separately via inner_matvecs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from tracekit.linop import LinearOperator, WrappedOperator

__all__ = [
    "LanczosDecomposition",
    "lanczos_decompose",
    "lanczos_apply",
    "exp_operator",
    "shifted_log_operator",
    "power_operator",
    "LanczosFunctionOperator",
    "PowerOperator",
]


@dataclass(frozen=True)
class LanczosDecomposition:
    """j-step Lanczos factorization of a symmetric operator.

    ``alphas`` (length j) is the tridiagonal diagonal, ``betas`` (length
    j-1) the off-diagonal, ``basis`` the d x j orthonormal Krylov vectors.
    """

    alphas: np.ndarray
    betas: np.ndarray
    basis: np.ndarray
    iterations: int


def lanczos_decompose(
    op: LinearOperator, x: np.ndarray, max_iterations: int
) -> LanczosDecomposition:
    """Run at most max_iterations Lanczos steps from x (caller asserts B=B^T).

    Fully reorthogonalizes each new vector against the whole basis (twice).
    Terminates early when an off-diagonal beta falls below
    1e-12 * ||x||, in which case the Krylov space is exhausted and the
    truncated decomposition is exact on it.
    """
    max_iterations = int(max_iterations)
    if max_iterations < 1:
        raise ValueError(f"need max_iterations >= 1, got {max_iterations}")
    x = np.asarray(x, dtype=np.float64)
    norm_x = float(np.linalg.norm(x))
    if norm_x == 0.0:
        raise ValueError("Lanczos starting vector must be nonzero")
    breakdown_tol = 1e-12 * norm_x

    d = op.dim
    V = np.empty((d, max_iterations))
    alphas = np.empty(max_iterations)
    betas = np.empty(max(max_iterations - 1, 0))
    V[:, 0] = x / norm_x
    j = 0
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
        j += 1
        if j == max_iterations or beta < breakdown_tol:
            break
        betas[j - 1] = beta
        V[:, j] = w / beta
    return LanczosDecomposition(
        alphas=alphas[:j].copy(),
        betas=betas[: j - 1].copy(),
        basis=V[:, :j].copy(),
        iterations=j,
    )


def lanczos_apply(
    op: LinearOperator,
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Approximate f(B) x with an `iterations`-step Lanczos recurrence.

    f maps an array of tridiagonal eigenvalues to f(eigenvalues); it is
    evaluated after a dense symmetric eigendecomposition of the small T.
    Consumes exactly j matvecs on B (j <= iterations; early Krylov
    breakdown truncates and the result is then exact on the subspace).
    """
    dec = lanczos_decompose(op, x, iterations)
    if dec.iterations == 1:
        theta = dec.alphas
        U = np.ones((1, 1))
    else:
        theta, U = scipy.linalg.eigh_tridiagonal(dec.alphas, dec.betas)
    coeff = U @ (np.asarray(f(theta)) * U[0, :])
    norm_x = float(np.linalg.norm(np.asarray(x, dtype=np.float64)))
    return norm_x * (dec.basis @ coeff)


class LanczosFunctionOperator(WrappedOperator):
    """f(B) as a LinearOperator, each matvec one Lanczos solve on B.

    Each wrapper query spends at most `iterations` ``inner_matvecs`` on B.
    """

    def __init__(
        self,
        inner: LinearOperator,
        f: Callable[[np.ndarray], np.ndarray],
        iterations: int,
    ):
        iterations = int(iterations)
        if iterations < 1:
            raise ValueError(f"need iterations >= 1, got {iterations}")
        super().__init__(inner)
        self._f = f
        self._iterations = iterations

    def _apply_vec(self, x):
        return lanczos_apply(self._inner, self._f, x, self._iterations)


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
    if lam <= 0.0:
        raise ValueError(f"shift lambda must be > 0, got {lam}")

    floor = -lam * (1.0 - 1e-9)

    def f(theta: np.ndarray) -> np.ndarray:
        theta = np.where(theta < floor, -lam + 1e-12, theta)
        return np.log(theta + lam)

    return LanczosFunctionOperator(B, f, iterations)


class PowerOperator(WrappedOperator):
    """B^q as a LinearOperator: q sequential multiplies per query, exact."""

    def __init__(self, inner: LinearOperator, q: int):
        q = int(q)
        if q < 1:
            raise ValueError(f"need q >= 1, got {q}")
        super().__init__(inner)
        self._q = q

    def _apply_block(self, X):
        Y = X
        for _ in range(self._q):
            Y = self._inner.matmat(Y)
        return Y


def power_operator(B: LinearOperator, q: int) -> PowerOperator:
    """Exact monomial power B^q (q >= 1) as a LinearOperator."""
    return PowerOperator(B, q)
