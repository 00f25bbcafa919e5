"""Synthetic PSD test matrices: rotated power-law spectra and Gaussian kernels."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from tracekit.linop import DenseOperator, _require_finite, _size, orthonormalize

__all__ = [
    "SpectrumSpec",
    "power_law_matrix",
    "gaussian_kernel_matrix",
    "synthetic_2d_points",
    "load_points",
]


@dataclass(frozen=True)
class SpectrumSpec:
    """Power-law spectrum lambda_i = i^(-exponent), i = 1..dim.

    exponent 0 is the flat spectrum (identity); larger exponents decay
    faster, which is the regime where low-rank deflation wins.
    """

    dim: int
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _size(self.dim, "dim"))
        if not float(self.exponent) >= 0.0:
            raise ValueError(f"exponent must be >= 0, got {self.exponent}")
        object.__setattr__(self, "exponent", float(self.exponent))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order (all positive)."""
        return np.arange(1, self.dim + 1, dtype=np.float64) ** (-self.exponent)

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())


def power_law_matrix(spec: SpectrumSpec, rng=None) -> tuple[np.ndarray, DenseOperator]:
    """Dense symmetric PSD matrix with the requested spectrum, plus its operator.

    A = Q^T Lambda Q where Q orthonormalizes a d x d Gaussian draw, then A is
    symmetrized to kill rounding asymmetry.  Eigenvalues match the requested
    i^(-c) law to working precision.
    """
    gen = np.random.default_rng(rng)
    d = spec.dim
    Q = orthonormalize(gen.standard_normal((d, d)))
    lam = spec.eigenvalues
    A = (Q.T * lam) @ Q
    A = (A + A.T) / 2.0
    return A, DenseOperator(A)


def gaussian_kernel_matrix(points, gamma: float) -> np.ndarray:
    """Gaussian kernel B_ij = exp(-gamma * ||p_i - p_j||^2), unit diagonal.

    PSD for any point set and gamma > 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    _require_finite(pts, "points")
    gamma = float(gamma)
    if not gamma > 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    # Exactly symmetric: (a-b)^2 == (b-a)^2 in IEEE arithmetic, summed in
    # the same coordinate order for both pairs.  One n x n buffer, scaled
    # and exponentiated in place.
    B = cdist(pts, pts, metric="sqeuclidean")
    B *= -gamma
    np.exp(B, out=B)
    np.fill_diagonal(B, 1.0)
    return B


def synthetic_2d_points(n: int, rng=None) -> np.ndarray:
    """n uniform points in the unit square, seed-reproducible; shape (n, 2)."""
    n = _size(n, "n")
    return np.random.default_rng(rng).random((n, 2))


def load_points(path) -> np.ndarray:
    """Read 2-d coordinates from a two-column whitespace or CSV file.

    Coordinates are min-max normalized per axis to [0,1]^2 on ingestion (the
    kernel width convention assumes unit-square coordinates).  A constant
    axis collapses to 0.
    """
    path = Path(path)
    try:
        pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError:
        pts = np.loadtxt(path, dtype=np.float64, ndmin=2, delimiter=",")
    if pts.shape[1] != 2:
        raise ValueError(
            f"{path}: expected two columns (x y per line), got {pts.shape[1]}"
        )
    _require_finite(pts, str(path))
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return (pts - lo) / span
