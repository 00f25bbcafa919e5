"""Synthetic PSD sources: power-law spectra, Gaussian kernels, point sets."""

import numpy as np
import pytest

from tracekit.linop import DenseReference
from tracekit.synth import (
    SpectrumSpec,
    gaussian_kernel_matrix,
    load_points,
    power_law_matrix,
    synthetic_2d_points,
)


# ---------------------------------------------------------------- SpectrumSpec


def test_spectrum_spec_eigenvalues_and_trace():
    spec = SpectrumSpec(4, 1.0)
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 0.5, 1 / 3, 0.25])
    assert spec.trace == pytest.approx(1.0 + 0.5 + 1 / 3 + 0.25)
    flat = SpectrumSpec(7, 0.0)
    np.testing.assert_array_equal(flat.eigenvalues, np.ones(7))
    assert flat.trace == 7.0


def test_spectrum_spec_validation():
    with pytest.raises(ValueError):
        SpectrumSpec(0, 1.0)
    with pytest.raises(ValueError):
        SpectrumSpec(5, -0.5)


# ------------------------------------------------------------ power_law_matrix


def test_power_law_flat_spectrum_is_identity():
    A, op = power_law_matrix(SpectrumSpec(50, 0.0), rng=0)
    np.testing.assert_allclose(A, np.eye(50), atol=1e-10)
    assert op.dim == 50


def test_power_law_matrix_spectrum_fidelity():
    spec = SpectrumSpec(300, 1.5)
    A, _ = power_law_matrix(spec, rng=1)
    w = np.linalg.eigvalsh(A)[::-1]
    np.testing.assert_allclose(w, spec.eigenvalues, rtol=1e-8, atol=1e-12)


def test_power_law_matrix_exactly_symmetric():
    A, _ = power_law_matrix(SpectrumSpec(80, 2.0), rng=2)
    np.testing.assert_array_equal(A, A.T)


def test_power_law_matrix_deterministic_in_seed():
    A1, _ = power_law_matrix(SpectrumSpec(30, 1.0), rng=7)
    A2, _ = power_law_matrix(SpectrumSpec(30, 1.0), rng=7)
    np.testing.assert_array_equal(A1, A2)
    A3, _ = power_law_matrix(SpectrumSpec(30, 1.0), rng=8)
    assert not np.array_equal(A1, A3)


def test_power_law_operator_matches_matrix():
    A, op = power_law_matrix(SpectrumSpec(25, 1.0), rng=3)
    x = np.random.default_rng(4).standard_normal(25)
    np.testing.assert_allclose(op.matvec(x), A @ x, rtol=1e-13)


def test_power_law_rotation_spreads_diagonal():
    # The point of rotating: diagonal entries are no longer the eigenvalues,
    # so sign probes are not trivially exact.
    spec = SpectrumSpec(100, 2.0)
    A, _ = power_law_matrix(spec, rng=5)
    assert np.abs(np.sort(np.diag(A))[::-1] - spec.eigenvalues).max() > 1e-3


def test_power_law_tail_matches_reference():
    spec = SpectrumSpec(120, 1.0)
    A, _ = power_law_matrix(spec, rng=6)
    ref = DenseReference(A)
    lam = spec.eigenvalues
    for k in (0, 5, 40):
        expected = float(np.sqrt((lam[k:] ** 2).sum()))
        assert ref.rank_k_tail_frobenius(k) == pytest.approx(expected, rel=1e-8)


def test_power_law_large_tail_ratio():
    # d=5000, c=2: the best rank-20 deflation removes almost all of the
    # Frobenius mass, while c=0.5 keeps most of it.
    spec = SpectrumSpec(5000, 2.0)
    lam = spec.eigenvalues
    full = np.sqrt((lam**2).sum())
    tail = np.sqrt((lam[20:] ** 2).sum())
    assert tail / full < 0.01
    slow = SpectrumSpec(5000, 0.5).eigenvalues
    assert np.sqrt((slow[20:] ** 2).sum()) / np.sqrt((slow**2).sum()) > 0.7


# ------------------------------------------------------- gaussian_kernel_matrix


def test_kernel_single_point():
    K = gaussian_kernel_matrix([[0.3, 0.7]], gamma=10.0)
    np.testing.assert_array_equal(K, [[1.0]])


def test_kernel_two_points_closed_form():
    pts = [[0.0, 0.0], [0.5, 0.0]]
    K = gaussian_kernel_matrix(pts, gamma=4.0)
    off = np.exp(-4.0 * 0.25)
    np.testing.assert_allclose(K, [[1.0, off], [off, 1.0]], rtol=1e-15)


def test_kernel_unit_diagonal_and_symmetry():
    pts = synthetic_2d_points(60, rng=10)
    K = gaussian_kernel_matrix(pts, gamma=25.0)
    np.testing.assert_array_equal(np.diag(K), np.ones(60))
    np.testing.assert_array_equal(K, K.T)
    assert K.min() > 0.0


def test_kernel_is_psd():
    pts = synthetic_2d_points(50, rng=11)
    K = gaussian_kernel_matrix(pts, gamma=40.0)
    assert np.linalg.eigvalsh(K).min() > -1e-10


def test_kernel_validation():
    with pytest.raises(ValueError):
        gaussian_kernel_matrix([[0.0, 0.0]], gamma=0.0)
    with pytest.raises(ValueError):
        gaussian_kernel_matrix([[np.nan, 0.0]], gamma=1.0)
    with pytest.raises(ValueError):
        gaussian_kernel_matrix(np.empty((0, 2)), gamma=1.0)


# ------------------------------------------------------------------ point sets


def test_synthetic_points_shape_and_range():
    pts = synthetic_2d_points(500, rng=12)
    assert pts.shape == (500, 2)
    assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_synthetic_points_deterministic():
    np.testing.assert_array_equal(
        synthetic_2d_points(20, rng=13), synthetic_2d_points(20, rng=13)
    )
    with pytest.raises(ValueError):
        synthetic_2d_points(0)


def test_load_points_whitespace(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("0.0 0.0\n2.0 4.0\n1.0 2.0\n")
    pts = load_points(p)
    np.testing.assert_allclose(pts, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])


def test_load_points_csv(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.0,1.0\n4.0,3.0\n")
    pts = load_points(p)
    np.testing.assert_allclose(pts, [[0.0, 0.0], [1.0, 1.0]])


def test_load_points_constant_axis_collapses(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("5.0 1.0\n5.0 2.0\n")
    pts = load_points(p)
    np.testing.assert_allclose(pts[:, 0], [0.0, 0.0])
    np.testing.assert_allclose(pts[:, 1], [0.0, 1.0])


def test_load_points_rejects_bad_files(tmp_path):
    three = tmp_path / "three.txt"
    three.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n")
    with pytest.raises(ValueError, match="two columns"):
        load_points(three)
    nan = tmp_path / "nan.txt"
    nan.write_text("1.0 nan\n2.0 3.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_points(nan)


def test_loaded_points_feed_kernel(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("\n".join(f"{x:.4f} {y:.4f}" for x, y in
                            synthetic_2d_points(30, rng=14) * 100.0))
    pts = load_points(p)
    K = gaussian_kernel_matrix(pts, gamma=64.0)
    assert K.shape == (30, 30)
    assert np.linalg.eigvalsh(K).min() > -1e-10
