"""Synthetic PSD test matrices: rotated power-law spectra and Gaussian kernels."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from tracekit.linop import DenseOperator, _require_finite, _size

__all__ = [
    "power_law_eigenvalues",
    "power_law_matrix",
    "gaussian_kernel_matrix",
    "synthetic_2d_points",
    "load_points",
]

# Point-file number grammar, what np.loadtxt reads as float64: an optional
# sign and ASCII digits with an optional point and exponent, or inf,
# infinity or nan in any case.  float() alone takes '1_0' and '\uff11' too.
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.ASCII | re.IGNORECASE,
)


def power_law_eigenvalues(dim: int, exponent: float) -> np.ndarray:
    """Power-law spectrum lambda_i = i^(-exponent), i = 1..dim, descending.

    exponent 0 is the flat spectrum (identity); larger exponents decay
    faster, which is the regime where low-rank deflation wins.
    """
    dim = _size(dim, "dim")
    if not float(exponent) >= 0.0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    return np.arange(1, dim + 1, dtype=np.float64) ** (-float(exponent))


def power_law_matrix(
    dim: int, exponent: float, rng=None
) -> tuple[np.ndarray, DenseOperator]:
    """Dense symmetric PSD matrix with a power-law spectrum, plus its operator.

    A = Q^T Lambda Q where Q is the orthogonal factor of a dim x dim Gaussian
    draw and Lambda = power_law_eigenvalues(dim, exponent), then A is
    symmetrized to kill rounding asymmetry.  Eigenvalues match the requested
    i^(-c) law to working precision.
    """
    lam = power_law_eigenvalues(dim, exponent)
    gen = np.random.default_rng(rng)
    d = lam.size
    # The draw is copied to Fortran order once, so the C-order draw is freed
    # at once, and LAPACK factors that copy in place.  These are the same
    # geqrf/orgqr calls on the same data as a QR of the C-order draw.
    F = np.asfortranarray(gen.standard_normal((d, d)))
    Q = scipy.linalg.qr(F, overwrite_a=True, mode="economic", check_finite=False)[0]
    A = (Q.T * lam) @ Q
    A = (A + A.T) / 2.0
    return A, DenseOperator(A)


def gaussian_kernel_matrix(points, gamma: float) -> np.ndarray:
    """Gaussian kernel B_ij = exp(-gamma * ||p_i - p_j||^2), unit diagonal.

    PSD for any point set and finite gamma > 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    _require_finite(pts, "points")
    gamma = float(gamma)
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
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
    """Read 2-d coordinates from a two-column whitespace or CSV UTF-8 file.

    The first data line (less its '#' comment and blanks) sets the layout:
    CSV if it holds a comma, whitespace otherwise.  One pass reads, checks
    and converts each line; a fault names the file and the 1-based file line
    it is on.  Axes are min-max normalized to [0,1]^2, the kernel width's
    convention; a constant axis collapses to 0, and an axis whose span
    overflows float64 is refused.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    width, values = 0, []
    for number, line in enumerate(lines, 1):
        text = line.partition("#")[0].strip()
        if not text:
            continue
        if not width:
            delimiter = "," if "," in text else None
        fields = [field.strip() for field in text.split(delimiter)]
        width = width or len(fields)
        if len(fields) != width:
            raise ValueError(
                f"{path}: line {number}: expected {width} fields, as on the "
                f"first data line, got {len(fields)}"
            )
        for column, field in enumerate(fields, 1):
            if not _NUMBER.fullmatch(field):
                raise ValueError(
                    f"{path}: line {number}, column {column}: {field!r} is not a number"
                )
            values.append(float(field))
    if not width:
        raise ValueError(f"{path}: no points")
    if width != 2:
        raise ValueError(f"{path}: expected two columns (x y per line), got {width}")
    pts = np.array(values).reshape(-1, 2)
    _require_finite(pts, str(path))
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        span = pts.max(axis=0) - lo
    if np.isinf(span).any():
        raise ValueError(f"{path}: an axis spans more than the largest float64")
    span[span == 0.0] = 1.0
    return (pts - lo) / span
