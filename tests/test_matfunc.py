"""Lanczos matrix functions: f(B)x by ``lanczos_apply``, and the wrappers."""

import numpy as np
import pytest
import scipy.linalg

from tracekit import linop
from tracekit.estimators import exact_trace, hutchinson
from tracekit.graph import AdjacencyOperator, Graph
from tracekit.linop import DenseOperator, DiagonalOperator
from tracekit.matfunc import (
    LanczosFunctionOperator,
    PowerOperator,
    exp_operator,
    lanczos_apply,
    shifted_log_operator,
)

from oracles import NanOperator, RecordingOperator


def _sym(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    A = (A + A.T) / 2
    return scale * A / np.abs(np.linalg.eigvalsh(A)).max()


def _exact_fx(A, f, x):
    w, U = np.linalg.eigh(A)
    return U @ (f(w) * (U.T @ x))


# --------------------------------------------------------------- lanczos_apply


def test_apply_exhausts_40_dimensions_in_at_most_40_queries():
    # With 80 steps allowed, the Krylov space of a 40 x 40 B is exhausted by
    # step 40; full reorthogonalization is what lets the recurrence see that
    # and stop, with the result exact on the whole space.
    A = _sym(40, 0, scale=2.0)
    op = DenseOperator(A)
    x = np.random.default_rng(1).standard_normal(40)
    y = lanczos_apply(op, np.exp, x, 80)
    assert op.query_count <= 40
    ref = _exact_fx(A, np.exp, x)
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-12


def test_apply_spends_one_query_on_an_eigenvector():
    op = DiagonalOperator([4.0, 1.0, 1.0])
    y = lanczos_apply(op, np.exp, np.array([1.0, 0.0, 0.0]), 10)
    assert op.query_count == 1
    np.testing.assert_allclose(y, [np.exp(4.0), 0.0, 0.0], rtol=1e-15, atol=0.0)


def test_apply_exhausts_small_dimension():
    op = DiagonalOperator([1.0, 2.0, 3.0])
    x = np.random.default_rng(2).standard_normal(3)
    y = lanczos_apply(op, np.exp, x, 50)
    assert op.query_count <= 3
    np.testing.assert_allclose(y, np.exp([1.0, 2.0, 3.0]) * x, rtol=1e-12)
    # The workspace is sized by min(iterations, d), so a huge step cap
    # allocates no more than d Krylov vectors.
    op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
    y = lanczos_apply(op, np.exp, np.ones(3), 10**9)
    assert op.query_count <= 3
    np.testing.assert_allclose(y, np.exp([1.0, 2.0, 3.0]), rtol=1e-14)


def test_apply_argument_errors():
    op = DiagonalOperator(np.ones(3))
    # A zero vector maps to zero with no query: f(B) 0 = 0.
    y = lanczos_apply(op, np.exp, np.zeros(3), 5)
    assert y.shape == (3,) and not y.any()
    with pytest.raises(ValueError, match="iterations"):
        lanczos_apply(op, np.exp, np.ones(3), 0)
    for bad in (np.ones(6), np.ones((2, 3)), np.ones((3, 1, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="expected 3 rows"):
            lanczos_apply(op, np.exp, bad, 5)
    assert op.query_count == 0


def _block_test_operator(kind, d):
    """B with an invariant block on nodes 0-2 (a 3 x 3 block, or a triangle),
    and the steps a vector inside that block takes before it breaks down."""
    if kind == "dense":
        A = _sym(d, 19)
        A[:3, 3:] = A[3:, :3] = 0.0
        return DenseOperator(A), 3
    # a triangle beside a ring with chords, as a sparse adjacency
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(3 + i, 3 + (i + 1) % (d - 3)) for i in range(d - 3)]
    edges += [(3 + i, 3 + (i + 7) % (d - 3)) for i in range(0, d - 3, 3)]
    return AdjacencyOperator(Graph(node_count=d, edges=edges)), 2


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_apply_block_equals_its_columns_bitwise(kind):
    # One call on a block runs its columns in lockstep, eight at a time, with
    # one query per Krylov step; each column is byte-identical to its own
    # call, with iterations both below and above d.  d = 130 is two 64-row
    # panels and 2 rows more, and 11 columns cross a group.  Column 2 is
    # zero, and column 7 lies in B's invariant block, so it breaks down
    # early while its group runs on.
    for d in (30, 130):
        B, early = _block_test_operator(kind, d)
        X = np.random.default_rng(20).standard_normal((d, 11))
        X[:, 2] = 0.0
        X[3:, 7] = 0.0
        for iterations in (12, d + 15):
            before = B.query_count
            Y = lanczos_apply(B, np.exp, X, iterations)
            block_queries = B.query_count - before
            assert Y.shape == X.shape and not Y[:, 2].any()
            steps = []
            for c in range(X.shape[1]):
                start = B.query_count
                y = lanczos_apply(B, np.exp, X[:, c], iterations)
                steps.append(B.query_count - start)
                assert y.tobytes() == Y[:, c].tobytes(), (d, iterations, c)
            assert block_queries == sum(steps)
            assert steps[2] == 0 and steps[7] == early


def test_apply_stopping_test_is_scale_free():
    # f(B)(s x) = s f(B) x: the breakdown test compares beta with the
    # recurrence's own scale, not with ||x||, so no s stops a column early.
    A = _sym(50, 21)
    x = np.random.default_rng(22).standard_normal(50)
    ref = _exact_fx(A, np.exp, x)
    for s in 10.0 ** np.arange(-20, 21, 4):
        op = DenseOperator(A)
        y = lanczos_apply(op, np.exp, s * x, 40)
        assert op.query_count == 40, s
        assert np.linalg.norm(y / s - ref) / np.linalg.norm(ref) < 1e-14, s
    # An exact zero beta still stops: B = 0 spends one query per column.
    op = DenseOperator(np.zeros((4, 4)))
    y = lanczos_apply(op, np.exp, np.full(4, 1e-30), 10)
    assert op.query_count == 1
    np.testing.assert_array_equal(y, np.full(4, 1e-30))


def test_apply_survives_norm_overflow_and_underflow():
    # ||x|| and beta are plain sums of squares, which overflow past about
    # 1e154 per entry and flush to 0 below about 1e-162.  An inf beta
    # stopped a column after one query, and a 0 ||x|| mapped x to 0 unqueried.
    B = np.diag(np.linspace(1.0, 2.0, 20))
    x = np.random.default_rng(24).standard_normal(20)
    op = DenseOperator(B)
    ref = lanczos_apply(op, np.exp, x, 20)
    for scale_b, scale_x in [(1e160, 1.0), (1.0, 1e-170), (1.0, 1e160), (1e160, 1e-170)]:
        scaled = DenseOperator(scale_b * B)
        y = lanczos_apply(scaled, lambda t: np.exp(t / scale_b), scale_x * x, 20)
        assert scaled.query_count == op.query_count, (scale_b, scale_x)
        err = np.linalg.norm(y / scale_x - ref) / np.linalg.norm(ref)
        assert err < 1e-12, (scale_b, scale_x)


def test_apply_exp_of_zero_is_identity():
    op = DenseOperator(np.zeros((5, 5)))
    x = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    y = lanczos_apply(op, np.exp, x, 10)
    np.testing.assert_allclose(y, x, atol=1e-14)


def test_apply_exact_in_two_steps_on_2d():
    op = DiagonalOperator([np.log(2.0), np.log(3.0)])
    y = lanczos_apply(op, np.exp, np.array([1.0, 1.0]), 2)
    np.testing.assert_allclose(y, [2.0, 3.0], rtol=1e-14)


def test_apply_exp_converges_100d():
    A = _sym(100, 3, scale=2.0)
    op = DenseOperator(A)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(100)
    y = lanczos_apply(op, np.exp, x, 40)
    ref = _exact_fx(A, np.exp, x)
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-8


def test_apply_full_dimension_exact():
    A = _sym(12, 5)
    op = DenseOperator(A)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(12)
    for f in (np.exp, lambda t: np.log(t + 2.0)):
        y = lanczos_apply(op, f, x, 12)
        np.testing.assert_allclose(y, _exact_fx(A, f, x), rtol=1e-9, atol=1e-12)


def test_apply_error_decreases_with_iterations():
    A = _sym(60, 7)
    op = DenseOperator(A)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(60)
    ref = _exact_fx(A, np.exp, x)
    errs = [
        np.linalg.norm(lanczos_apply(op, np.exp, x, k) - ref) for k in (2, 5, 10, 20)
    ]
    assert errs[0] > errs[-1]
    assert errs[-1] < 1e-12
    for a, b in zip(errs, errs[1:]):
        assert b <= 10.0 * a + 1e-13  # never regresses past round-off


def test_apply_consumes_at_most_requested_matvecs():
    op = DenseOperator(_sym(30, 9))
    rng = np.random.default_rng(10)
    x = rng.standard_normal(30)
    lanczos_apply(op, np.exp, x, 12)
    assert op.query_count <= 12


# ---------------------------------------------------------------- exp_operator


def test_exp_operator_zero_matrix_trace():
    outer = exp_operator(DenseOperator(np.zeros((5, 5))), 10)
    est = exact_trace(outer)
    assert est.value == pytest.approx(5.0, abs=1e-12)
    # Krylov space from each basis vector collapses immediately.
    assert outer.inner_matvecs == 5


def test_exp_operator_scalar():
    outer = exp_operator(DenseOperator([[1.0]]), 5)
    y = outer.matvec(np.array([2.0]))
    assert y[0] == pytest.approx(2.0 * np.e, rel=1e-14)


def test_exp_operator_triangle_graph_oracle():
    # Adjacency of the 3-cycle: sum of exp(eigenvalues) = e^2 + 2/e.
    A = np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])
    outer = exp_operator(DenseOperator(A), 3)
    est = exact_trace(outer)
    assert est.value == pytest.approx(np.exp(2.0) + 2.0 * np.exp(-1.0), rel=1e-12)


def test_wrappers_charge_the_operator_they_are_given():
    # A wrapper queries the operator it is given, not a copy, so each
    # multiply is counted once, by the operator that did it.
    inner = DenseOperator(_sym(8, 11))
    outer = exp_operator(inner, 8)
    outer.matvec(np.ones(8))
    assert outer.query_count == 1
    assert inner.query_count == outer.inner_matvecs > 0
    assert outer.inner_matvecs <= 8
    B = DenseOperator(_sym(6, 12))
    cube = PowerOperator(B, 3)
    cube.matmat(np.ones((6, 2)))
    cube.matvec(np.ones(6))
    assert cube.query_count == 3
    assert B.query_count == cube.inner_matvecs == 3 * cube.query_count


def test_exp_operator_under_hutchinson_budget_accounting():
    outer = exp_operator(DenseOperator(_sym(20, 13)), 10)
    est = hutchinson(outer, 7, rng=0)
    assert est.matvecs_used == 7
    assert outer.inner_matvecs <= 7 * 10


# ---------------------------------------------------------------- shifted log


def test_shifted_log_zero_matrix():
    outer = shifted_log_operator(DenseOperator(np.zeros((4, 4))), 1.0, 5)
    assert exact_trace(outer).value == pytest.approx(0.0, abs=1e-12)


def test_shifted_log_scalar():
    outer = shifted_log_operator(DenseOperator([[3.0]]), 2.0, 4)
    y = outer.matvec(np.array([1.0]))
    assert y[0] == pytest.approx(np.log(5.0), rel=1e-14)


def test_shifted_log_requires_positive_shift():
    op = DiagonalOperator(np.ones(3))
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="shift lambda"):
            shifted_log_operator(op, lam, 5)


def test_shifted_log_clamps_spectrum_floor():
    # An eigenvalue exactly at -lambda would send log to -inf; the clamp
    # keeps the output finite instead.
    lam = 0.5
    outer = shifted_log_operator(DiagonalOperator([-lam, 1.0]), lam, 2)
    y = outer.matvec(np.array([1.0, 0.0]))
    assert np.all(np.isfinite(y))


def test_shifted_log_logdet_200d_kernel():
    from tracekit.synth import gaussian_kernel_matrix, synthetic_2d_points

    pts = synthetic_2d_points(200, rng=21)
    K = gaussian_kernel_matrix(pts, gamma=32.0)
    shift = 0.008
    sign, ref = np.linalg.slogdet(K + shift * np.eye(200))
    assert sign > 0
    outer = shifted_log_operator(DenseOperator(K), shift, 60)
    est = exact_trace(outer)
    assert abs(est.value - ref) / abs(ref) < 1e-5


# ---------------------------------------------------------------------- powers


def test_power_operator_first_power_is_identity_wrap():
    A = _sym(10, 14)
    inner = DenseOperator(A)
    outer = PowerOperator(inner, 1)
    x = np.arange(10.0)
    np.testing.assert_allclose(outer.matvec(x), A @ x, rtol=1e-14)


def test_power_operator_cube_diagonal():
    outer = PowerOperator(DiagonalOperator([2.0, 3.0]), 3)
    np.testing.assert_allclose(outer.matvec(np.ones(2)), [8.0, 27.0])
    assert outer.inner_matvecs == 3
    assert outer.query_count == 1


def test_power_operator_matches_matrix_power():
    A = _sym(20, 15)
    outer = PowerOperator(DenseOperator(A), 3)
    X = np.random.default_rng(16).standard_normal((20, 4))
    np.testing.assert_allclose(
        outer.matmat(X), np.linalg.matrix_power(A, 3) @ X, rtol=1e-12, atol=1e-14
    )
    assert outer.query_count == 4
    assert outer.inner_matvecs == 12


def test_power_operator_rejects_bad_exponent():
    with pytest.raises(ValueError):
        PowerOperator(DiagonalOperator(np.ones(2)), 0)


def test_power_operator_trace_of_cube_oracle():
    # Triangle counting identity on the 3-cycle: trace(A^3) = 6.
    A = np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])
    outer = PowerOperator(DenseOperator(A), 3)
    assert exact_trace(outer).value == 6.0


def test_wrappers_pass_on_checked_inner_output(monkeypatch):
    # Every query checks its own input and its own output, so a wrapper
    # checks what its inner operator already checked; a nan raises first at
    # the operator that made it.
    A = _sym(6, 17)
    power = PowerOperator(DenseOperator(A), 3)
    recording = RecordingOperator(DenseOperator(A))
    checked = []
    check = linop._require_finite

    def labelling(X, what):
        checked.append(what)
        check(X, what)

    monkeypatch.setattr(linop, "_require_finite", labelling)
    power.matmat(np.ones((6, 2)))
    inner = ["DenseOperator input", "DenseOperator output"]
    assert checked == ["PowerOperator input", *inner * 3, "PowerOperator output"]
    checked.clear()
    recording.matvec(np.ones(6))
    assert checked == ["RecordingOperator input", *inner, "RecordingOperator output"]
    for wrapped in (PowerOperator(NanOperator(4), 3), RecordingOperator(NanOperator(4))):
        with pytest.raises(ValueError, match="NanOperator output contains non-finite"):
            wrapped.matmat(np.ones((4, 1)))


# ------------------------------------------------------------------- wrappers


def test_function_operator_validates_iterations():
    with pytest.raises(ValueError):
        LanczosFunctionOperator(DiagonalOperator(np.ones(3)), np.exp, 0)


def test_function_operator_matmat_per_column():
    A = _sym(15, 17)
    outer = exp_operator(DenseOperator(A), 15)
    X = np.random.default_rng(18).standard_normal((15, 3))
    Y = outer.matmat(X)
    cols = np.column_stack([outer.matvec(X[:, j]) for j in range(3)])
    np.testing.assert_allclose(Y, cols, rtol=1e-13, atol=1e-14)
    ref = _exact_fx(A, np.exp, X[:, 0])
    np.testing.assert_allclose(Y[:, 0], ref, rtol=1e-9, atol=1e-11)
