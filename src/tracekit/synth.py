"""Synthetic PSD test matrices: rotated power-law spectra and Gaussian kernels."""

from __future__ import annotations

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
    """Read 2-d coordinates from a two-column whitespace or CSV file.

    The first data line (less its '#' comment and blanks) sets the layout:
    CSV if it holds a comma, whitespace otherwise.  One parse; a fault names
    the file and the 1-based file line it is on.  Axes are min-max
    normalized to [0,1]^2, the kernel width's convention; a constant axis
    collapses to 0.
    """
    path = Path(path)
    try:
        lines = path.read_text().split("\n")
        data = (line.partition("#")[0].strip() for line in lines)
        first = next(d for d in data if d)
        delimiter = "," if "," in first else None
        pts = np.loadtxt(lines, ndmin=2, delimiter=delimiter)
    except StopIteration:
        raise ValueError(f"{path}: no points") from None
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    except ValueError as err:
        raise ValueError(f"{path}: {_first_fault(lines, delimiter) or err}") from None
    if pts.shape[1] != 2:
        raise ValueError(
            f"{path}: expected two columns (x y per line), got {pts.shape[1]}"
        )
    _require_finite(pts, str(path))
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return (pts - lo) / span


def _first_fault(lines, delimiter) -> str | None:
    """The 1-based file line, and the fault, of the first data line that
    np.loadtxt refuses; None when no line is at fault by this reading.

    numpy's own message counts data rows only, from 0 or from 1 by the kind
    of fault.
    """
    width = None
    for number, line in enumerate(lines, 1):
        text = line.partition("#")[0].strip()
        if not text:
            continue
        fields = text.split(delimiter)
        width = width or len(fields)
        if len(fields) != width:
            return (
                f"line {number}: expected {width} fields, as on the first "
                f"data line, got {len(fields)}"
            )
        for column, field in enumerate(fields, 1):
            try:
                float(field)
            except ValueError:
                return f"line {number}, column {column}: {field.strip()!r} is not a number"
    return None
