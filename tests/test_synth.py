"""Synthetic PSD sources: power-law spectra, Gaussian kernels, point sets."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracekit.synth import (
    gaussian_kernel_matrix,
    load_points,
    power_law_eigenvalues,
    power_law_matrix,
    synthetic_2d_points,
)

from oracles import DenseReference, peak_rss_growth, power_law_reference


# ------------------------------------------------------- power_law_eigenvalues


def test_power_law_eigenvalues_and_trace():
    lam = power_law_eigenvalues(4, 1.0)
    np.testing.assert_allclose(lam, [1.0, 0.5, 1 / 3, 0.25])
    assert lam.sum() == pytest.approx(1.0 + 0.5 + 1 / 3 + 0.25)
    flat = power_law_eigenvalues(7, 0.0)
    np.testing.assert_array_equal(flat, np.ones(7))
    assert flat.sum() == 7.0


def test_power_law_eigenvalues_validation():
    with pytest.raises(ValueError):
        power_law_eigenvalues(0, 1.0)
    with pytest.raises(ValueError):
        power_law_eigenvalues(5, -0.5)
    with pytest.raises(ValueError, match="exponent"):
        power_law_eigenvalues(4, np.nan)
    # power_law_matrix validates through it, before drawing anything.
    with pytest.raises(ValueError, match="exponent"):
        power_law_matrix(4, -1.0)


# ------------------------------------------------------------ power_law_matrix


def test_power_law_flat_spectrum_is_identity():
    A, op = power_law_matrix(50, 0.0, rng=0)
    np.testing.assert_allclose(A, np.eye(50), atol=1e-10)
    assert op.dim == 50


def test_power_law_matrix_spectrum_fidelity():
    A, _ = power_law_matrix(300, 1.5, rng=1)
    w = np.linalg.eigvalsh(A)[::-1]
    np.testing.assert_allclose(w, power_law_eigenvalues(300, 1.5), rtol=1e-8, atol=1e-12)


def test_power_law_matrix_exactly_symmetric():
    A, _ = power_law_matrix(80, 2.0, rng=2)
    np.testing.assert_array_equal(A, A.T)


def test_power_law_matrix_deterministic_in_seed():
    A1, _ = power_law_matrix(30, 1.0, rng=7)
    A2, _ = power_law_matrix(30, 1.0, rng=7)
    np.testing.assert_array_equal(A1, A2)
    A3, _ = power_law_matrix(30, 1.0, rng=8)
    assert not np.array_equal(A1, A3)


def test_power_law_matrix_equals_the_plain_build_bytewise():
    # Factoring a Fortran copy of the draw in place runs the same LAPACK
    # calls on the same data as orthonormalize's QR of the C-order draw.
    # Sizes straddle OpenBLAS's and LAPACK's blocking.
    sizes = (1, 2, 7, 40, 63, 64, 65, 127, 128, 129, 191, 192, 193, 256, 500, 777, 1000, 1500)
    for d in sizes:
        for c in (0.0, 0.5, 2.0):
            for seed in (0, 5):
                A, op = power_law_matrix(d, c, rng=seed)
                assert A.tobytes() == power_law_reference(d, c, rng=seed).tobytes(), (d, c, seed)
                assert op.matrix is A


def test_power_law_matrix_rebuilds_hold_two_dense_copies():
    # One n x n float64 array is 32 MB at n = 2,000.  While the QR runs,
    # set-up holds the Fortran copy of the draw and the economic R; the
    # C-order draw beside them raised three successive builds' peak by
    # 4.32 n^2 doubles, against 3.32 without it.
    n = 2000
    setup = "from tracekit.synth import power_law_matrix\n"
    call = f"for s in range(3):\n    power_law_matrix({n}, 0.5, s)\n"
    growth = peak_rss_growth(setup, call)
    assert growth <= 3.6 * n * n * 8, f"peak grew by {growth / (8 * n * n):.2f} n^2 doubles"


def test_power_law_operator_matches_matrix():
    A, op = power_law_matrix(25, 1.0, rng=3)
    x = np.random.default_rng(4).standard_normal(25)
    np.testing.assert_allclose(op.matvec(x), A @ x, rtol=1e-13)


def test_power_law_rotation_spreads_diagonal():
    # The point of rotating: diagonal entries are no longer the eigenvalues,
    # so sign probes are not trivially exact.
    A, _ = power_law_matrix(100, 2.0, rng=5)
    assert np.abs(np.sort(np.diag(A))[::-1] - power_law_eigenvalues(100, 2.0)).max() > 1e-3


def test_power_law_tail_matches_reference():
    A, _ = power_law_matrix(120, 1.0, rng=6)
    ref = DenseReference(A)
    lam = power_law_eigenvalues(120, 1.0)
    for k in (0, 5, 40):
        expected = float(np.sqrt((lam[k:] ** 2).sum()))
        assert ref.rank_k_tail_frobenius(k) == pytest.approx(expected, rel=1e-8)


def test_power_law_large_tail_ratio():
    # d=5000, c=2: the best rank-20 deflation removes almost all of the
    # Frobenius mass, while c=0.5 keeps most of it.
    lam = power_law_eigenvalues(5000, 2.0)
    full = np.sqrt((lam**2).sum())
    tail = np.sqrt((lam[20:] ** 2).sum())
    assert tail / full < 0.01
    slow = power_law_eigenvalues(5000, 0.5)
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
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            gaussian_kernel_matrix([[0.0, 0.0], [0.5, 0.5]], gamma=gamma)
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
    # Commas inside comments do not make a whitespace file CSV.
    p.write_text("# x, y\n0.0 0.0\n2.0 4.0 # a,b\n")
    np.testing.assert_allclose(load_points(p), [[0.0, 0.0], [1.0, 1.0]])


def test_load_points_csv(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.0,1.0\n4.0,3.0\n")
    pts = load_points(p)
    np.testing.assert_allclose(pts, [[0.0, 0.0], [1.0, 1.0]])
    p.write_bytes(b"0.0, 1.0\r\n4.0,3.0\r\n")
    np.testing.assert_allclose(load_points(p), [[0.0, 0.0], [1.0, 1.0]])
    # A line that is blank once its comment is gone is skipped in either
    # layout (np.loadtxt read it as a one-field row of a CSV).
    p.write_text(" \n0.0,1.0\n  # c\n\t\n4.0,3.0\n")
    np.testing.assert_allclose(load_points(p), [[0.0, 0.0], [1.0, 1.0]])


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
    # The first data line sets the layout, and a fault's message names the
    # file and the fault's 1-based line, counting comments and blank lines.
    for name, text, where in [
        ("short.txt", "0.1 0.2\n0.3\n", "line 2: expected 2 fields, as on the first data line, got 1"),
        ("short.csv", "0.1,0.2\n0.3\n", "line 2: expected 2 fields, as on the first data line, got 1"),
        ("mixed.csv", "0.1,0.2\n0.3 0.4\n", "line 2: expected 2 fields, as on the first data line, got 1"),
        ("empty_field.csv", "0.1,,0.2\n", "line 1, column 2: '' is not a number"),
        ("bad_field.txt", "# h\n\n0 0\n1 x\n", "line 4, column 2: 'x' is not a number"),
        ("short_late.txt", "# h\n\n0 0\n1\n", "line 4: expected 2 fields, as on the first data line, got 1"),
        # float() reads these two, but they are outside the number grammar.
        ("underscore.txt", "0 0\n1 1_0\n", "line 2, column 2: '1_0' is not a number"),
        ("fullwidth.txt", "0 0\n1 \uff11\n", "line 2, column 2: '\uff11' is not a number"),
    ]:
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(
            ValueError, match=rf"^{re.escape(str(bad))}: {re.escape(where)}"
        ):
            load_points(bad)
    # Text that does not decode is a fault of the file, and names it.
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"# caf\xe9\n0 0\n2 4\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(latin))}: .*decode"):
        load_points(latin)
    # An empty or comment-only file is refused before any parse, so numpy's
    # "input contained no data" warning never fires.
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    comments = tmp_path / "comments.txt"
    comments.write_text("# x y\n\n# nothing yet\n")
    for path in (empty, comments):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no points$"):
                load_points(path)


def test_load_points_refuses_an_axis_whose_span_overflows(tmp_path):
    p = tmp_path / "wide.txt"
    p.write_text("-1e308 0\n1e308 1\n0 0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ValueError,
            match=rf"^{re.escape(str(p))}: an axis spans more than the largest float64$",
        ):
            load_points(p)
    # A span just inside float64 still loads.
    p.write_text("-1e308 0\n7e307 1\n0 0.5\n")
    assert np.isfinite(load_points(p)).all()


def test_load_points_parses_once(tmp_path, monkeypatch):
    calls = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        calls.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    for name, text, ok in [
        ("pts.txt", "0.0 0.0\n2.0 4.0\n", True),
        ("pts.csv", "0.0,1.0\n4.0,3.0\n", True),
        ("bad.csv", "0.1,0.2\n0.3\n", False),
        ("bad.txt", "# h\n\n0 0\n1 x\n", False),
    ]:
        p = tmp_path / name
        p.write_text(text)
        calls.clear()
        if ok:
            load_points(p)
        else:
            with pytest.raises(ValueError):
                load_points(p)
        assert calls == [p], name


_LAYOUTS = [" ", "\t", ",", ", "]
_FORMATS = [repr, "{:.6e}".format]


@st.composite
def _point_file(draw) -> str:
    pairs = draw(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                    st.floats(allow_nan=False, allow_infinity=False)),
                          min_size=1, max_size=20))
    layout = draw(st.sampled_from(_LAYOUTS))
    lines = []
    for x, y in pairs:
        lines += draw(st.lists(st.sampled_from(["", "# x, y", "#"]), max_size=2))
        fmt = draw(st.sampled_from(_FORMATS))
        lines.append(f"{fmt(x)}{layout}{fmt(y)}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200, deadline=None)
@given(_point_file())
@example("-1e308 0\n1e308 1\n")
def test_load_points_matches_numpy_bytewise(tmp_path_factory, text):
    # np.loadtxt of the same text, normalized as load_points normalizes, is
    # the reference parse.
    p = tmp_path_factory.mktemp("points") / "pts.txt"
    p.write_text(text, encoding="utf-8")
    delimiter = "," if "," in text.replace("# x, y", "") else None
    pts = np.loadtxt(text.split("\n"), ndmin=2, delimiter=delimiter)
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        span = pts.max(axis=0) - lo
    if np.isinf(span).any():
        # The reference's normalization overflows; load_points refuses.
        with pytest.raises(ValueError, match="spans more than the largest float64"):
            load_points(p)
        return
    span[span == 0.0] = 1.0
    want = (pts - lo) / span
    got = load_points(p)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_loaded_points_feed_kernel(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("\n".join(f"{x:.4f} {y:.4f}" for x, y in
                            synthetic_2d_points(30, rng=14) * 100.0))
    pts = load_points(p)
    K = gaussian_kernel_matrix(pts, gamma=64.0)
    assert K.shape == (30, 30)
    assert np.linalg.eigvalsh(K).min() > -1e-10
