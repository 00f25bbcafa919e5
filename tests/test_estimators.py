"""Estimator contracts: exactness cases, unbiasedness, budgets, non-adaptivity."""

import math
import tracemalloc

import numpy as np
import pytest

from tracekit.linop import DenseOperator, DiagonalOperator
from tracekit.estimators import (
    ESTIMATORS,
    _na_hutch_pp_split,
    exact_trace,
    hutch_pp,
    hutch_pp_gauss,
    hutchinson,
    na_hutch_pp,
    na_hutch_pp_probes,
    run_estimator,
    subspace_projection,
)
from tracekit.synth import SpectrumSpec, power_law_matrix

from oracles import DenseReference, RecordingOperator


def _rng(*key):
    return np.random.default_rng(key)


# ------------------------------------------------------------------ hutchinson


def test_hutchinson_identity_exact():
    for d in (2, 7, 33):
        op = DiagonalOperator(np.ones(d))
        for seed in range(5):
            est = hutchinson(op.clone(), 4, "rademacher", rng=seed)
            assert est.value == float(d)


def test_hutchinson_diagonal_sign_probes_exact():
    # g^T A g = sum_i a_ii g_i^2 = sum_i a_ii for sign probes: error is 0.0.
    op = DiagonalOperator([1.0, 2.0, 3.0])
    for m in (1, 3, 10):
        for seed in range(10):
            est = hutchinson(op.clone(), m, "rademacher", rng=seed)
            assert est.value == 6.0
            assert est.matvecs_used == m


def test_hutchinson_gaussian_variance_oracle():
    # Empirical variance against (2/l) ||A||_F^2 (smoke-sized run; the
    # acceptance suite runs the full 1e5-trial version).
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((50, 50))
    A = X @ X.T
    op = DenseOperator(A)
    vals = np.array(
        [hutchinson(op.clone(), 10, "gaussian", rng=_rng(77, t)).value
         for t in range(20000)]
    )
    expected = (2.0 / 10.0) * np.linalg.norm(A) ** 2
    assert vals.var(ddof=1) == pytest.approx(expected, rel=0.15)


def test_hutchinson_rejects_bad_budget():
    op = DiagonalOperator(np.ones(3))
    with pytest.raises(ValueError):
        hutchinson(op, 0)


# -------------------------------------------------------------------- hutch_pp


def test_hutch_pp_rank_one_exact_capture():
    # A s is always a nonzero multiple of v for sign probes (v^T s is odd),
    # so Q spans v, the deflated residual vanishes, and the value is exact.
    v = np.array([1.0, 2.0, 2.0])
    A = np.outer(v, v)
    op = DenseOperator(A)
    for seed in range(25):
        est = hutch_pp(op.clone(), 3, rng=seed)
        assert est.value == pytest.approx(9.0, rel=1e-9)
        assert est.split == {"sketch": 1, "basis": 1, "residual": 1}


def test_hutch_pp_unbiased_on_identity():
    # m=3: Q captures one direction exactly, the remaining trace 2 is
    # estimated without bias; mean over 1e4 seeds stays within 3 SEs.
    op = DenseOperator(np.eye(3))
    vals = np.array(
        [hutch_pp(op.clone(), 3, rng=_rng(78, t)).value for t in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 3.0) <= 3.0 * se


def test_hutch_pp_beats_hutchinson_fast_decay():
    # c=2 spectrum, d=1000, m=60, 200 trials: median relative errors separate
    # by more than an order of magnitude.
    A, op = power_law_matrix(SpectrumSpec(1000, 2.0), rng=5)
    tr = np.trace(A)
    hp = [
        abs(hutch_pp(op.clone(), 60, rng=_rng(81, t)).value - tr) / tr
        for t in range(200)
    ]
    hu = [
        abs(hutchinson(op.clone(), 60, rng=_rng(82, t)).value - tr) / tr
        for t in range(200)
    ]
    assert np.median(hp) < np.median(hu)


def test_hutch_pp_budget_and_rank_deficiency():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((30, 30))
    A = A @ A.T
    est = hutch_pp(DenseOperator(A), 10, rng=1)
    assert est.matvecs_used == 9  # 3 * floor(10/3)
    assert est.split["basis"] == 3
    # Zero operator: sketch has rank 0, A*Q is skipped, divisor stays b.
    est = hutch_pp(DenseOperator(np.zeros((6, 6))), 9, rng=2)
    assert est.value == 0.0
    assert est.split["basis"] == 0
    assert est.matvecs_used == 6  # A*S and A*G_def only


def test_hutch_pp_rejects_small_budget():
    with pytest.raises(ValueError):
        hutch_pp(DiagonalOperator(np.ones(4)), 2)


# ----------------------------------------------------------------- na_hutch_pp


def test_na_hutch_pp_zero_matrix():
    est = na_hutch_pp(DenseOperator(np.zeros((6, 6))), 12, rng=0)
    assert est.value == 0.0


def test_na_hutch_pp_scalar_dimension():
    # d=1: every sketch is a scalar and the algebra collapses to a_11.
    est = na_hutch_pp(DenseOperator([[5.0]]), 12, rng=3)
    assert est.value == pytest.approx(5.0, rel=1e-12)


def test_na_hutch_pp_unbiased():
    lam = np.arange(1, 1001, dtype=float) ** -1.5
    op = DiagonalOperator(lam)
    tr = lam.sum()
    vals = np.array(
        [na_hutch_pp(op.clone(), 100, rng=_rng(80, t)).value for t in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - tr) <= 3.0 * se


def test_na_hutch_pp_fraction_validation():
    # The split is floor(c * m) for the fractions (1/4, 1/2, 1/4), floored
    # with the 1e-9 slack the configurable fraction rule used.
    for m in range(2001):
        floors = tuple(math.floor(c * m + 1e-9) for c in (0.25, 0.5, 0.25))
        if min(floors) < 1:
            with pytest.raises(ValueError, match="empty probe block"):
                _na_hutch_pp_split(m)
        else:
            assert _na_hutch_pp_split(m) == floors
    with pytest.raises(ValueError, match="empty probe block"):
        na_hutch_pp(DiagonalOperator(np.ones(8)), 3)


def test_na_hutch_pp_single_batched_query():
    # The non-adaptivity contract: one matmat call whose content is fully
    # reproducible from the seed before any operator output exists.
    lam = np.arange(1, 101, dtype=float) ** -1.0
    recorder = RecordingOperator(DiagonalOperator(lam))
    est = na_hutch_pp(recorder, 40, rng=12345)
    assert len(recorder.queries) == 1
    S, R, G = na_hutch_pp_probes(100, 40, rng=12345)
    assert recorder.queries[0].tobytes() == np.hstack([S, R, G]).tobytes()
    assert est.matvecs_used == S.shape[1] + R.shape[1] + G.shape[1]


def test_na_hutch_pp_holds_its_probes_once():
    # The probes are not held a second time next to the queried block.  At
    # d=2000, m=240 (one 240-column block is 3.84 MB) the tracemalloc peak
    # read 12.0 MB with S, R and G kept beside the block and 8.16 MB
    # (hutchinson's) with S and G as views of it.
    d, m = 2000, 240
    op = DiagonalOperator(np.linspace(1.0, 2.0, d))
    na_hutch_pp(op.clone(), m, rng=0)  # warm up before tracing
    tracemalloc.start()
    try:
        na_hutch_pp(op.clone(), m, rng=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * d * m * 8, f"peak {peak / 1e6:.2f} MB"


def test_na_hutch_pp_floor_split():
    est = na_hutch_pp(DiagonalOperator(np.ones(50)), 10, rng=0)
    assert est.split == {"sketch": 2, "range": 5, "residual": 2}
    assert est.matvecs_used == 9  # leftover budget discarded


# -------------------------------------------------------------- hutch_pp_gauss


def test_hutch_pp_gauss_budget_validation_names_neighbors():
    op = DiagonalOperator(np.ones(4))
    with pytest.raises(ValueError) as exc:
        hutch_pp_gauss(op, 12)
    assert "10" in str(exc.value) and "14" in str(exc.value)
    with pytest.raises(ValueError):
        hutch_pp_gauss(op, 4)
    with pytest.raises(ValueError):
        hutch_pp_gauss(op, 7)


@pytest.mark.parametrize(
    "m, nearest", [(4, "6"), (8, "6 and 10"), (12, "10 and 14")]
)
def test_hutch_pp_gauss_names_the_nearest_valid_budgets(m, nearest):
    # One budget below the smallest valid one, and one each side of a
    # valid pair, so both branches of the message are pinned.
    with pytest.raises(ValueError, match=f"nearest valid budgets: {nearest}$"):
        hutch_pp_gauss(DiagonalOperator(np.ones(4)), m)


def test_hutch_pp_gauss_unbiased_on_identity():
    op = DenseOperator(np.eye(4))
    vals = np.array(
        [hutch_pp_gauss(op.clone(), 6, rng=_rng(79, t)).value for t in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 4.0) <= 3.0 * se
    # S Gaussian 4x2 is almost surely full rank: first term is rank(Q) = 2.


def test_hutch_pp_gauss_exact_low_rank_capture():
    # rank(A)=2 <= 3 sketch columns: the deflated residual is identically 0.
    rng = np.random.default_rng(17)
    V = rng.standard_normal((12, 2))
    A = V @ V.T
    tr = np.trace(A)
    op = DenseOperator(A)
    for seed in range(20):
        est = hutch_pp_gauss(op.clone(), 10, rng=seed)
        assert est.value == pytest.approx(tr, rel=1e-9)
        # A S has rank 2, so the basis block shrinks and the count is honest.
        assert est.split["basis"] == 2
        assert est.matvecs_used == 9


def test_hutch_pp_gauss_variance_bound_smoke():
    # Variance cap 16/(m-2)^2 tr^2 at m=26 (acceptance runs the full grid).
    lam = np.arange(1, 201, dtype=float) ** -1.5
    A = np.diag(lam)
    op = DiagonalOperator(lam)
    tr = lam.sum()
    vals = np.array(
        [hutch_pp_gauss(op.clone(), 26, rng=_rng(90, t)).value for t in range(3000)]
    )
    bound = 16.0 / (26 - 2) ** 2 * tr**2
    assert vals.var(ddof=1) <= 1.1 * bound
    # Tighter non-PSD form with k = (m-2)/8 - 1 = 2.
    tail = DenseReference(A).rank_k_tail_frobenius(2)
    assert vals.var(ddof=1) <= 1.1 * (8.0 / 24.0) * tail**2


# --------------------------------------------------------- subspace_projection


def test_subspace_projection_identity_is_k():
    op = DenseOperator(np.eye(9))
    for seed in range(5):
        est = subspace_projection(op.clone(), 8, 1, rng=seed)
        assert est.value == pytest.approx(4.0, rel=1e-12)
        assert est.matvecs_used == 8  # k(q+1)


def test_subspace_projection_captures_dominant_eigenvalue():
    op = DiagonalOperator([10.0, 1e-6, 1e-6])
    for seed in range(10):
        est = subspace_projection(op.clone(), 2, 1, rng=seed)
        assert est.value == pytest.approx(10.0, abs=1e-4)


def test_subspace_projection_loses_on_slow_decay():
    # c=0.5: the spectrum has no dominant directions, so projection onto
    # k=m/2 of them misses most of the trace while Hutchinson does fine.
    A, op = power_law_matrix(SpectrumSpec(1000, 0.5), rng=6)
    tr = np.trace(A)
    sp = [
        abs(subspace_projection(op.clone(), 60, 1, rng=_rng(83, t)).value - tr) / tr
        for t in range(200)
    ]
    hu = [
        abs(hutchinson(op.clone(), 60, rng=_rng(84, t)).value - tr) / tr
        for t in range(200)
    ]
    assert np.median(sp) > np.median(hu)


def test_subspace_projection_multiple_rounds():
    lam = np.array([5.0, 4.0, 0.1, 0.05, 0.01])
    op = DiagonalOperator(lam)
    est = subspace_projection(op.clone(), 8, 3, rng=0)
    assert est.matvecs_used == 8  # k(q+1) = 2*4
    assert est.value == pytest.approx(9.0, abs=1e-3)


def test_subspace_projection_argument_errors():
    op = DiagonalOperator(np.ones(3))
    with pytest.raises(ValueError):
        subspace_projection(op, 0, 1)
    with pytest.raises(ValueError):
        subspace_projection(op, 1, 0)
    with pytest.raises(ValueError, match="budget m must be >= 3"):
        subspace_projection(op, 2, 2)  # k = floor(2/3) would be 0
    with pytest.raises(ValueError, match="iterations_q"):
        subspace_projection(op, 0, 0)  # q is checked before m


def test_subspace_projection_spends_k_of_floor_m_over_q_plus_1():
    # m = 11, q = 2: k = 3 columns, 9 matvecs, the same probes as m = 9.
    _, op = power_law_matrix(SpectrumSpec(40, 1.0), rng=5)
    est = subspace_projection(op.clone(), 11, 2, rng=4)
    assert est.matvecs_used == 9
    assert est.split == {"sketch": 3, "rounds": 2, "projection": 3}
    assert est.value == subspace_projection(op.clone(), 9, 2, rng=4).value


# ----------------------------------------------------------------- exact_trace


def test_exact_trace_small_cases():
    assert exact_trace(DiagonalOperator(np.ones(7))).value == 7.0
    assert exact_trace(DiagonalOperator([1.0, 2.0, 3.0])).value == 6.0


def test_exact_trace_matches_reference():
    rng = np.random.default_rng(30)
    A = rng.standard_normal((30, 30))
    op = DenseOperator(A)
    est = exact_trace(op)
    ref = DenseReference(A)
    assert est.value == pytest.approx(ref.trace, abs=1e-12)
    assert est.matvecs_used == 30
    assert op.query_count == 30


def test_exact_trace_chunking():
    # 600 = 256 + 256 + 88: the last query block is ragged.
    lam = np.arange(1.0, 601.0)
    est = exact_trace(DiagonalOperator(lam))
    assert est.value == lam.sum()
    assert est.matvecs_used == 600


# --------------------------------------------------- cross-estimator contracts


def test_budget_formulas_all_estimators():
    rng = np.random.default_rng(40)
    A = rng.standard_normal((40, 40))
    A = A @ A.T
    op = DenseOperator(A)
    assert hutchinson(op.clone(), 13, rng=0).matvecs_used == 13
    assert hutch_pp(op.clone(), 13, rng=0).matvecs_used == 12
    est = na_hutch_pp(op.clone(), 13, rng=0)
    assert est.matvecs_used == 3 + 6 + 3
    assert hutch_pp_gauss(op.clone(), 14, rng=0).matvecs_used == 14
    assert subspace_projection(op.clone(), 15, 2, rng=0).matvecs_used == 15
    assert exact_trace(op.clone()).matvecs_used == 40


def test_matvecs_used_equals_query_delta():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((25, 25))
    op = DenseOperator(A + A.T)
    op.matvec(np.ones(25))  # pre-existing queries must not leak into the delta
    before = op.query_count
    est = hutch_pp(op, 9, rng=7)
    assert est.matvecs_used == op.query_count - before


def test_gaussian_hutchinson_unbiased_dense():
    rng = np.random.default_rng(55)
    X = rng.standard_normal((30, 30))
    A = X @ X.T
    tr = np.trace(A)
    op = DenseOperator(A)
    vals = np.array(
        [hutchinson(op.clone(), 5, "gaussian", rng=_rng(86, t)).value
         for t in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - tr) <= 4.0 * se


def test_quantile_scaling_in_budget():
    # The 0.9 quantile of |H_l - trace| falls like l^(-1/2) (times ||A||_F):
    # the log-log slope over l in {16, 64, 256, 1024} sits near -0.5.
    rng = np.random.default_rng(31)
    Qm, _ = np.linalg.qr(rng.standard_normal((100, 100)))
    lam = np.concatenate(
        [np.arange(1, 51, dtype=float) ** -0.5, -np.arange(1, 51, dtype=float) ** -1.0]
    )
    B = (Qm * lam) @ Qm.T
    B = (B + B.T) / 2
    tr = np.trace(B)
    op = DenseOperator(B)
    budgets = (16, 64, 256, 1024)
    qs = []
    for l in budgets:
        devs = [
            abs(hutchinson(op.clone(), l, "gaussian", rng=_rng(85, l, t)).value - tr)
            for t in range(500)
        ]
        qs.append(np.quantile(devs, 0.9))
    slope = np.polyfit(np.log(budgets), np.log(qs), 1)[0]
    assert -0.65 <= slope <= -0.35


# ------------------------------------------------------------------ registry


def test_run_estimator_dispatch():
    lam = np.arange(1.0, 21.0)
    op = DiagonalOperator(lam)
    assert list(ESTIMATORS) == [
        "hutchinson", "hutch_pp", "na_hutch_pp", "hutch_pp_gauss", "subspace_projection"
    ]  # trial seeds key on this order
    for name in ESTIMATORS:
        m = 14  # valid for every estimator (2 mod 4, >= minimums)
        est = run_estimator(op.clone(), name, m, rng=3)
        assert est.estimator == name
    est = run_estimator(op.clone(), "subspace_projection", 14, rng=3)
    assert est.matvecs_used == 14  # k = 7, q = 1
    with pytest.raises(ValueError, match="unknown estimator"):
        run_estimator(op, "simple_average", 10)
    # Each registry value is its estimator's budget rule.
    assert ESTIMATORS["hutch_pp"](14) == 4
    assert ESTIMATORS["subspace_projection"](14) == 7
    # Each budget rule rejects exactly the budgets its estimator rejects.
    for name, rule in ESTIMATORS.items():
        for m in range(1, 31):
            try:
                rule(m)
                rule_accepts = True
            except ValueError:
                rule_accepts = False
            try:
                run_estimator(op.clone(), name, m, rng=m)
                runs = True
            except ValueError:
                runs = False
            assert rule_accepts == runs, (name, m)


def test_zero_operator_through_every_registry_entry():
    # A rank-0 sketch costs no A*Q queries and leaves the residual probes as
    # drawn, so the estimate is exactly 0.0.
    expected = {
        "hutchinson": (14, {"probes": 14}),
        "hutch_pp": (8, {"sketch": 4, "basis": 0, "residual": 4}),
        "na_hutch_pp": (13, {"sketch": 3, "range": 7, "residual": 3}),
        "hutch_pp_gauss": (10, {"sketch": 4, "basis": 0, "residual": 6}),
        "subspace_projection": (7, {"sketch": 7, "rounds": 1, "projection": 0}),
    }
    for name in ESTIMATORS:
        est = run_estimator(DenseOperator(np.zeros((12, 12))), name, 14, rng=0)
        assert est.value == 0.0
        assert (est.matvecs_used, est.split) == expected[name], name
