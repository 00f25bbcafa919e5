"""Operator plumbing: apply contracts, query accounting, QR/pinv/reference oracles."""

import multiprocessing
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracekit import graph, linop
from tracekit.graph import AdjacencyOperator, Graph
from tracekit.linop import (
    DenseOperator,
    DiagonalOperator,
    _norm,
    orthonormalize,
    pseudoinverse,
    sample_probes,
)
from tracekit.matfunc import PowerOperator, exp_operator, shifted_log_operator

from oracles import DenseReference, RecordingOperator, perfbench_module


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
    for bad in (np.ones((4, 2, 1)), np.ones((5, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="matvec expects"):
            op.matvec(bad)
    assert op.query_count == 0
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
    # matvec on a block is its one-vector calls, bit for bit, counted k.
    stacked = np.column_stack([op.matvec(X[:, i]) for i in range(3)])
    before = op.query_count
    assert op.matvec(X).tobytes() == stacked.tobytes()
    assert op.query_count == before + 3
    # A zero-width block takes the same query path and spends nothing; a zero
    # column maps to zero.
    before = op.query_count
    assert op.matmat(np.empty((12, 0))).shape == (12, 0)
    assert op.matvec(np.empty((12, 0))).shape == (12, 0)
    assert op.query_count == before
    X[:, 1] = 0.0
    Y = op.matmat(X)
    assert op.query_count == before + 3
    assert Y.shape == (12, 3) and not Y[:, 1].any()


@pytest.mark.parametrize("d", [1, 3, 64, 67, 200, 1000, 1130])
def test_dense_matvec_on_a_block_is_its_one_vector_gemvs_bitwise(d):
    # matvec runs a block through 64-row panels; each column must be the
    # bits of its one-vector call, and that call the bits of the full GEMV,
    # whatever layout the block comes in.  A BLAS whose GEMV rounds a row
    # differently by panel height fails here.  At d >= 1000 the 9-column
    # block is past linop._SPLIT_MIN, so on a multi-CPU machine it runs in
    # row bands.
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    op = DenseOperator(A)
    for k in (1, 2, 9):
        X = rng.standard_normal((d, k))
        stacked = np.column_stack([op.matvec(X[:, i]) for i in range(k)])
        for i in range(k):
            assert stacked[:, i].tobytes() == (A @ X[:, i]).tobytes(), (k, i)
        for block in (X, np.asfortranarray(X)):
            before = op.query_count
            Y = op.matvec(block)
            assert op.query_count - before == k
            assert Y.shape == (d, k) and Y.tobytes() == stacked.tobytes(), k


@pytest.mark.parametrize(
    "d, rows",
    [(880, [256, 256, 256, 112]), (1130, [320, 320, 320, 170])],
    ids=["880", "1130"],
)
def test_dense_matvec_in_uneven_bands_is_its_one_vector_gemvs_bitwise(
    d, rows, band_workers, monkeypatch
):
    # Three workers make four bands: at d = 880 the last band is the tail
    # panel alone, at d = 1130 it is shorter than the others.
    assert d * d < linop._SPLIT_MIN, "a one-vector query must stay below the split"
    band_workers(3)
    ran = []
    gemvs = linop._panel_gemvs

    def recording(A, Xt, Y):
        ran.append((A.shape[0], threading.get_ident()))
        gemvs(A, Xt, Y)

    monkeypatch.setattr(linop, "_panel_gemvs", recording)
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    op = DenseOperator(A)
    X = rng.standard_normal((d, 8))
    stacked = np.column_stack([op.matvec(X[:, i]) for i in range(8)])
    assert [r for r, _ in ran] == [d] * 8  # below the split: one band
    for block in (X, np.asfortranarray(X)):
        ran.clear()
        before = op.query_count
        Y = op.matvec(block)
        assert op.query_count - before == 8
        assert Y.shape == (d, 8) and Y.tobytes() == stacked.tobytes()
        assert sorted(r for r, _ in ran) == sorted(rows)
        on_caller = [r for r, thread in ran if thread == threading.get_ident()]
        assert on_caller == rows[:1]


def _dense_split_case():
    rng = np.random.default_rng(2)
    op = DenseOperator(rng.standard_normal((1000, 1000)))
    X = rng.standard_normal((1000, 4))  # 4M multiply-adds, past the split
    # Each one-vector query is below the split, so runs in one band.
    return op, X, np.column_stack([op.matvec(x) for x in X.T])


def _adjacency_split_case():
    # graph_triangles' graph: 190,538 stored entries, so 10 columns split.
    edges, _ = perfbench_module("graphgen").geometric_edges(4000, 50.0, 3)
    op = AdjacencyOperator(Graph(node_count=4000, edges=edges))
    X = np.random.default_rng(2).standard_normal((4000, 10))
    return op, X, op.matrix @ X


SPLIT_CASES = {"dense": _dense_split_case, "adjacency": _adjacency_split_case}


def _estrada_graph():
    """graph_estrada's graph at seed 3: 1,500 nodes, so 8 columns stay below
    the split."""
    edges, _ = perfbench_module("graphgen").geometric_edges(1500, 12.0, 3)
    return Graph(node_count=1500, edges=edges)


def test_a_query_below_the_split_makes_no_pool(band_workers, monkeypatch):
    # Below linop._SPLIT_MIN each kernel runs one band over every row on the
    # calling thread, and no band pool is made, whatever the CPU count.
    band_workers(3)
    ran = []
    gemvs, kernel = linop._panel_gemvs, graph._sparsetools.csr_matvecs

    def recording_gemvs(A, Xt, Y):
        ran.append((A.shape[0], threading.get_ident()))
        gemvs(A, Xt, Y)

    def recording_kernel(rows, *args):
        ran.append((int(rows), threading.get_ident()))
        kernel(rows, *args)

    monkeypatch.setattr(linop, "_panel_gemvs", recording_gemvs)
    monkeypatch.setattr(graph, "_sparsetools", SimpleNamespace(csr_matvecs=recording_kernel))
    rng = np.random.default_rng(6)
    dense = DenseOperator(rng.standard_normal((1000, 1000)))
    adjacency = AdjacencyOperator(_estrada_graph())
    for op, k, work in ((dense, 1, 1000 * 1000), (adjacency, 8, adjacency.matrix.nnz * 8)):
        assert work < linop._SPLIT_MIN
        ran.clear()
        op.matvec(rng.standard_normal((op.dim, k)))
        assert linop._pool == (None, 0, None), type(op).__name__
        assert ran == [(op.dim, threading.get_ident())], type(op).__name__


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
@pytest.mark.parametrize("case", SPLIT_CASES)
def test_a_forked_child_runs_split_queries_on_its_own_pool(band_workers, case):
    # The parent's pool has a live thread when the child is forked; the
    # child must not queue its bands on that thread's copy, which never runs.
    band_workers(1)
    op, X, expected = SPLIT_CASES[case]()
    assert op.matvec(X).tobytes() == expected.tobytes()
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)

    def child():
        writer.send((op.matvec(X).tobytes(), linop._pool[0] == os.getpid()))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert reader.poll(30), "the forked child's split matvec did not return"
        got, own_pool = reader.recv()
    finally:
        proc.kill()
        proc.join()
    assert own_pool and got == expected.tobytes()


@pytest.mark.parametrize("case", [*SPLIT_CASES, "adjacency below the split"])
def test_split_queries_keep_the_tracers_spans_nested(band_workers, case):
    # perfbench's tracer nests spans through one stack; band workers run
    # only numpy and scipy, so every span opens and closes on the calling
    # thread.  The dense kernel runs inside Lanczos's lockstep queries, the
    # adjacency kernel inside a B^3 query's three products, and below the
    # split inside graph_estrada's exp(B) queries, where perfbench's traced
    # inner query columns must equal inner_matvecs.
    band_workers(1)
    tracing = perfbench_module("tracing")
    if case == "dense":
        rng = np.random.default_rng(4)
        G = rng.standard_normal((1000, 1000))
        inner = DenseOperator(G @ G.T / 1000)
        X = rng.standard_normal((1000, 8))
        steps = 20
        query = shifted_log_operator(inner, 0.1, steps)
        kernel, chain = "linop.DenseOperator._apply_vec", ["linop.LinearOperator.matvec"]
    elif case == "adjacency":
        inner, X, _ = _adjacency_split_case()
        steps, query = 3, PowerOperator(inner, 3)
        kernel = "graph.AdjacencyOperator._apply_block"
        chain = [
            "linop.LinearOperator._apply_vec",
            "linop.LinearOperator.matvec",
            "matfunc.PowerOperator._apply_block",
        ]
    else:
        inner = AdjacencyOperator(_estrada_graph())
        X = np.random.default_rng(4).standard_normal((1500, 8))
        steps = 40
        query = exp_operator(inner, steps)
        kernel = "graph.AdjacencyOperator._apply_block"
        chain = ["linop.LinearOperator._apply_vec", "linop.LinearOperator.matvec"]
    k = X.shape[1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        query.matvec(X)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    for span in spans:
        assert span.t0 <= span.t1, span.name
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.t0 <= span.t0 and span.t1 <= parent.t1, span.name
    kernels = [i for i, s in enumerate(spans) if s.name == kernel]
    assert inner.query_count == k * steps  # no column broke down
    assert len(kernels) == steps
    for i in kernels:
        assert spans[i].info[0] == k
        up = spans[i].parent
        for name in chain:
            assert spans[up].name == name
            up = spans[up].parent
    assert not {s.parent for s in spans} & set(kernels)  # no traced call inside
    queried = sum(
        s.info[1]
        for s in spans
        if s.name in ("linop.LinearOperator.matvec", "linop.LinearOperator.matmat")
        and s.info[0] is inner
    )
    assert queried == query.inner_matvecs


def test_dense_and_diagonal_operators_reject_malformed_arrays():
    with pytest.raises(ValueError, match="square matrix"):
        DenseOperator(np.ones((2, 3)))
    with pytest.raises(ValueError, match="1-d diagonal"):
        DiagonalOperator(np.eye(3))


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


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_queries_from_many_threads_keep_their_bytes_and_count(band_workers, case):
    # Eight callers share three band workers; a short switch interval makes
    # their submits, bands and joins interleave as often as it can.
    band_workers(3)
    op, X, expected = SPLIT_CASES[case]()
    before = op.query_count
    results = []

    def caller():
        for _ in range(20):
            results.append(op.matvec(X).tobytes())

    threads = [threading.Thread(target=caller) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 * 20 and set(results) == {expected.tobytes()}
    assert op.query_count == before + 8 * 20 * X.shape[1]


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


def test_norm_keeps_numpys_bits_and_survives_over_and_underflow():
    M = np.random.default_rng(7).standard_normal((130, 9))
    for X in (M, np.asfortranarray(M), M[:, 3], M[5, :], M[:, :4], M.T, M[:0]):
        assert _norm(X) == float(np.linalg.norm(X))
    # The plain sum of squares is inf at 1e160 and 0.0 at 1e-170.
    for s in (1e160, 1e-170):
        assert _norm(s * M) == pytest.approx(s * np.linalg.norm(M), rel=1e-15)
    assert _norm(np.zeros((3, 2))) == 0.0


def test_orthonormalize_keeps_a_sketch_whose_norm_over_or_underflows():
    # The rank cut is relative to ||X||_F; an overflowed norm cut every
    # column and an underflowed one took X for zero.
    rng = np.random.default_rng(6)
    X = rng.standard_normal((50, 4))
    Q = orthonormalize(X)
    v, w = rng.standard_normal((2, 10))
    dependent = np.column_stack([v, 2.0 * v, w])
    for s in (1e160, 1e-170, 1e150, 1e-150):
        np.testing.assert_allclose(orthonormalize(s * X), Q, atol=1e-14)
        assert orthonormalize(s * dependent).shape == (10, 2), s


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


def test_reference_tail_non_increasing():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((15, 15))
    A = A + A.T
    ref = DenseReference(A)
    tails = [ref.rank_k_tail_frobenius(k) for k in range(16)]
    assert tails[0] == pytest.approx(ref.frobenius_norm, rel=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))


def test_reference_symmetric_eigenvalues_descending():
    A = np.diag([1.0, -4.0, 2.0])
    ref = DenseReference(A)
    # Best rank-1 approximation keeps the -4 eigenvalue (largest magnitude).
    assert ref.rank_k_tail_frobenius(1) == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_reference_non_square_rejected():
    with pytest.raises(ValueError):
        DenseReference(np.ones((2, 3)))
    # trace takes any square matrix; a spectral query needs a symmetric one.
    skew = DenseReference(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert skew.trace == 0.0
    with pytest.raises(ValueError, match="symmetric"):
        skew.rank_k_tail_frobenius(1)


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
