"""Operator plumbing: apply contracts, query accounting, QR/pinv/reference oracles."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracekit.graph import AdjacencyOperator, Graph
from tracekit.linop import (
    DenseOperator,
    DiagonalOperator,
    orthonormalize,
    pseudoinverse,
    sample_probes,
)
from tracekit.matfunc import PowerOperator, exp_operator, shifted_log_operator

from oracles import DenseReference, RecordingOperator


# ---------------------------------------------------------------- matvec/matmat


def test_matvec_identity():
    op = DiagonalOperator(np.ones(3))
    np.testing.assert_array_equal(op.matvec([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_matvec_diagonal_action():
    op = DiagonalOperator([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(op.matvec([1.0, 1.0, 1.0]), [1.0, 2.0, 3.0])


def test_matvec_dense_column_extraction():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((5, 5))
    op = DenseOperator(A)
    e2 = np.zeros(5)
    e2[1] = 1.0
    np.testing.assert_allclose(op.matvec(e2), A[:, 1], rtol=0, atol=0)


def test_matvec_dimension_mismatch():
    op = DenseOperator(np.eye(4))
    with pytest.raises(ValueError, match="length 4"):
        op.matvec(np.ones(5))
    with pytest.raises(ValueError, match="non-finite"):
        op.matvec(np.array([1.0, np.nan, 0.0, 0.0]))


def test_matmat_identity_counts():
    op = DiagonalOperator(np.ones(4))
    X = np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(op.matmat(X), X)
    assert op.query_count == 3


def test_matmat_scaled_identity():
    op = DenseOperator(np.diag([2.0, 2.0]))
    np.testing.assert_array_equal(op.matmat(np.eye(2)), 2.0 * np.eye(2))
    assert op.query_count == 2


def test_matmat_matches_columnwise_matvec():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((10, 10))
    X = rng.standard_normal((10, 3))
    op = DenseOperator(A)
    Y = op.matmat(X)
    for j in range(3):
        # GEMM and GEMV may round differently in the last ulp.
        np.testing.assert_allclose(Y[:, j], op.matvec(X[:, j]), rtol=1e-13, atol=1e-15)
    assert op.query_count == 3 + 3


def _operators():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((12, 12))
    sym = (M + M.T) / 8.0
    psd = M @ M.T / 12.0
    ring = Graph(node_count=12, edges=[(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
    return {
        "dense": DenseOperator(M),
        "diagonal": DiagonalOperator(np.arange(1.0, 13.0)),
        "adjacency": AdjacencyOperator(ring),
        "power": PowerOperator(DenseOperator(sym), 3),
        "exp": exp_operator(DenseOperator(sym), 8),
        "shifted_log": shifted_log_operator(DenseOperator(psd), 0.5, 8),
    }


@pytest.mark.parametrize("name", list(_operators()))
def test_matvec_is_the_one_column_matmat_of_every_operator(name):
    op = _operators()[name]
    X = np.random.default_rng(12).standard_normal((12, 3))
    # A column of a C-order block is strided, as Lanczos passes its basis.
    for x in (X[:, 1], X[:, 1].copy()):
        before = op.query_count
        y = op.matvec(x)
        assert op.query_count == before + 1
        Y = op.matmat(x[:, None])
        assert op.query_count == before + 2
        assert y.shape == (12,) and y.tobytes() == Y[:, 0].tobytes()  # bitwise


def test_matmat_dimension_mismatch():
    op = DenseOperator(np.eye(4))
    with pytest.raises(ValueError, match="matmat"):
        op.matmat(np.ones((5, 2)))


def test_query_count_exact_over_mixed_calls():
    op = DenseOperator(np.eye(6))
    op.matvec(np.ones(6))
    op.matmat(np.ones((6, 4)))
    op.matvec(np.ones(6))
    op.matmat(np.ones((6, 2)))
    assert op.query_count == 1 + 4 + 1 + 2


def test_query_count_thread_safe():
    op = DenseOperator(np.eye(8))
    x = np.ones(8)

    def worker():
        for _ in range(50):
            op.matvec(x)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert op.query_count == 8 * 50


def test_clone_shares_data_resets_counter():
    A = np.diag([1.0, 2.0])
    op = DenseOperator(A)
    op.matvec(np.ones(2))
    dup = op.clone()
    assert dup.query_count == 0
    assert dup.matrix is op.matrix
    np.testing.assert_array_equal(dup.matvec(np.ones(2)), [1.0, 2.0])
    assert op.query_count == 1 and dup.query_count == 1


def test_recording_operator_captures_blocks():
    op = RecordingOperator(DenseOperator(np.eye(3)))
    X = np.arange(6.0).reshape(3, 2)
    op.matmat(X)
    op.matvec(np.ones(3))
    assert len(op.queries) == 2
    np.testing.assert_array_equal(op.queries[0], X)
    assert op.queries[1].shape == (3, 1)
    assert op.query_count == 3


# ---------------------------------------------------------------- sample_probes


def test_probes_rademacher_entries_exact():
    pm = sample_probes(4, 2, "rademacher", rng=0)
    assert set(np.unique(pm.entries)) <= {-1.0, 1.0}
    assert pm.entries.shape == (4, 2)


def test_probes_gaussian_moments():
    # Standard error of the mean at n=1000 is ~0.032; 0.15 is ~5 sigma.
    pm = sample_probes(1000, 1, "gaussian", rng=123)
    col = pm.entries[:, 0]
    assert abs(col.mean()) < 0.15
    assert abs(col.var() - 1.0) < 0.15


def test_probes_deterministic_for_seed():
    a = sample_probes(50, 3, "gaussian", rng=99).entries
    b = sample_probes(50, 3, "gaussian", rng=99).entries
    np.testing.assert_array_equal(a, b)


def test_probes_advance_a_passed_generator_in_place():
    gen = np.random.default_rng(5)
    first = sample_probes(6, 2, "gaussian", gen).entries
    second = sample_probes(6, 2, "gaussian", gen).entries
    fresh = np.random.default_rng(5)
    np.testing.assert_array_equal(first, fresh.standard_normal((6, 2)))
    np.testing.assert_array_equal(second, fresh.standard_normal((6, 2)))


def test_probes_take_exact_lowercase_names():
    with pytest.raises(ValueError, match="expected one of: rademacher, gaussian$"):
        sample_probes(4, 1, "Gaussian", rng=0)


def test_probes_argument_errors():
    with pytest.raises(ValueError):
        sample_probes(0, 1, "rademacher", rng=0)
    with pytest.raises(ValueError):
        sample_probes(4, 0, "rademacher", rng=0)
    with pytest.raises(ValueError, match="distribution"):
        sample_probes(4, 1, "uniform", rng=0)


# -------------------------------------------------------------- orthonormalize


def test_orthonormalize_identity():
    np.testing.assert_allclose(orthonormalize(np.eye(3)), np.eye(3), atol=1e-14)


def test_orthonormalize_collinear_columns():
    X = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    Q = orthonormalize(X)
    assert Q.shape == (3, 1)
    np.testing.assert_allclose(np.abs(Q[:, 0]), [1.0, 0.0, 0.0], atol=1e-14)


def test_orthonormalize_full_rank_oracle():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 5))
    Q = orthonormalize(X)
    assert Q.shape == (20, 5)
    assert np.max(np.abs(Q.T @ Q - np.eye(5))) < 1e-10
    assert np.linalg.norm(X - Q @ (Q.T @ X)) < 1e-10


def test_orthonormalize_zero_matrix():
    Q = orthonormalize(np.zeros((4, 2)))
    assert Q.shape == (4, 0)


def test_orthonormalize_interior_dependent_column():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(10)
    w = rng.standard_normal(10)
    X = np.column_stack([v, 2.0 * v, w])
    Q = orthonormalize(X)
    assert Q.shape == (10, 2)
    # Span is preserved even though a middle column was dropped.
    assert np.linalg.norm(X - Q @ (Q.T @ X)) < 1e-10 * np.linalg.norm(X)


def test_orthonormalize_shape_errors():
    # A block wider than the operator is spanned by a d x d basis.
    X = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 5.0]])
    Q = orthonormalize(X)
    assert Q.shape == (2, 2)
    np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(Q @ (Q.T @ X), X, atol=1e-14)
    with pytest.raises(ValueError, match="2-d"):
        orthonormalize(np.ones(3))


@pytest.mark.parametrize(
    "check",
    [orthonormalize, pseudoinverse, DenseOperator, DiagonalOperator],
    ids=lambda check: check.__name__,
)
def test_orthonormalize_rejects_non_finite(check):
    X = np.ones((4, 4))
    X[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        check(X if check is not DiagonalOperator else X[:, 0])


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=30),
    k=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_orthonormalize_gaussian_property(d, k, seed):
    """Random full-rank input: orthonormal columns, span preserved."""
    if k > d:
        d, k = k, d
    X = np.random.default_rng(seed).standard_normal((d, k))
    Q = orthonormalize(X)
    r = Q.shape[1]
    assert np.max(np.abs(Q.T @ Q - np.eye(r))) < 1e-10
    assert np.linalg.norm(X - Q @ (Q.T @ X)) < 1e-9 * np.linalg.norm(X)


# --------------------------------------------------------------- pseudoinverse


def test_pseudoinverse_diagonal():
    np.testing.assert_allclose(
        pseudoinverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14
    )


def test_pseudoinverse_zero_matrix():
    P = pseudoinverse(np.zeros((3, 2)))
    assert P.shape == (2, 3)
    np.testing.assert_array_equal(P, np.zeros((2, 3)))


def test_pseudoinverse_rank_deficient_oracle():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 4))  # rank 3, 6x4
    P = pseudoinverse(M)
    scale = np.linalg.norm(M)
    assert np.linalg.norm(M @ P @ M - M) < 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=8),
    q=st.integers(min_value=1, max_value=8),
    r=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_pseudoinverse_penrose_property(p, q, r, seed):
    """All four Moore-Penrose identities across rank profiles."""
    r = min(r, p, q)
    rng = np.random.default_rng(seed)
    if r == 0:
        M = np.zeros((p, q))
    else:
        M = rng.standard_normal((p, r)) @ rng.standard_normal((r, q))
    P = pseudoinverse(M)
    scale = max(np.linalg.norm(M), 1e-30)
    assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * scale
    assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * max(np.linalg.norm(P), 1e-30)
    assert np.linalg.norm((M @ P).T - M @ P) <= 1e-8
    assert np.linalg.norm((P @ M).T - P @ M) <= 1e-8


# ------------------------------------------------------------- DenseReference


def test_reference_identity():
    ref = DenseReference(np.eye(5))
    assert ref.trace == 5.0
    assert ref.frobenius_norm == pytest.approx(np.sqrt(5.0), rel=1e-15)
    assert ref.nuclear_norm == pytest.approx(5.0, rel=1e-12)


def test_reference_rank_tail_drop_smallest():
    ref = DenseReference(np.diag([3.0, 1.0]))
    assert ref.rank_k_tail_frobenius(1) == pytest.approx(1.0, rel=1e-12)
    assert ref.rank_k_tail_frobenius(0) == pytest.approx(
        ref.frobenius_norm, rel=1e-12
    )
    assert ref.rank_k_tail_frobenius(2) == 0.0


def test_reference_power_law_frobenius_trace_ratio():
    # diag(i^-2) at d=5000: Frobenius norm sits at 63% of the trace.
    lam = np.arange(1, 5001, dtype=float) ** -2.0
    ref = DenseReference(np.diag(lam))
    assert ref.frobenius_norm / ref.trace == pytest.approx(0.63, abs=0.01)


def test_reference_psd_nuclear_equals_trace():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((12, 12))
    A = X @ X.T
    ref = DenseReference(A)
    assert ref.nuclear_norm == pytest.approx(ref.trace, rel=1e-10)
    assert ref.nuclear_norm >= ref.frobenius_norm >= 0.0


def test_reference_tail_non_increasing():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((15, 15))
    A = A + A.T
    ref = DenseReference(A)
    tails = [ref.rank_k_tail_frobenius(k) for k in range(16)]
    assert tails[0] == pytest.approx(ref.frobenius_norm, rel=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))


def test_reference_nonsymmetric_uses_singular_values():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((9, 9))
    ref = DenseReference(A)
    s = np.linalg.svd(A, compute_uv=False)
    np.testing.assert_allclose(ref.eigenvalues_descending, s, rtol=1e-12)
    assert ref.nuclear_norm == pytest.approx(s.sum(), rel=1e-12)


def test_reference_symmetric_eigenvalues_descending():
    A = np.diag([1.0, -4.0, 2.0])
    ref = DenseReference(A)
    np.testing.assert_allclose(ref.eigenvalues_descending, [2.0, 1.0, -4.0])
    # Best rank-1 approximation keeps the -4 eigenvalue (largest magnitude).
    assert ref.rank_k_tail_frobenius(1) == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_reference_non_square_rejected():
    with pytest.raises(ValueError):
        DenseReference(np.ones((2, 3)))


def test_reference_low_rank_tail_bounds_psd():
    # trace/sqrt(k) bound and its sharpened trace/(2 sqrt(k)) form on a PSD
    # power-law spectrum.
    lam = np.arange(1, 201, dtype=float) ** -1.0
    ref = DenseReference(np.diag(lam))
    tr = ref.trace
    for k in range(1, 200):
        tail = ref.rank_k_tail_frobenius(k)
        assert tail <= tr / np.sqrt(k) + 1e-12
        assert tail <= tr / (2.0 * np.sqrt(k)) + 1e-12
