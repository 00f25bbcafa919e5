"""Estimator contracts: exactness cases, unbiasedness, budgets, non-adaptivity."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tracekit import estimators
from tracekit.linop import DenseOperator, DiagonalOperator, ProbeMatrix, sample_probes
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
from tracekit.matfunc import exp_operator, shifted_log_operator
from tracekit.synth import power_law_matrix

from oracles import DenseReference, RecordingOperator


def _rng(*key):
    return np.random.default_rng(key)


# ------------------------------------------------------------------ hutchinson


def test_hutchinson_identity_exact():
    for d in (2, 7, 33):
        op = DiagonalOperator(np.ones(d))
        for seed in range(5):
            est = hutchinson(op, 4, "rademacher", rng=seed)
            assert est.value == float(d)


def test_hutchinson_diagonal_sign_probes_exact():
    # g^T A g = sum_i a_ii g_i^2 = sum_i a_ii for sign probes: error is 0.0.
    op = DiagonalOperator([1.0, 2.0, 3.0])
    for m in (1, 3, 10):
        for seed in range(10):
            est = hutchinson(op, m, "rademacher", rng=seed)
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
        [hutchinson(op, 10, "gaussian", rng=_rng(77, t)).value for t in range(20000)]
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
        est = hutch_pp(op, 3, rng=seed)
        assert est.value == pytest.approx(9.0, rel=1e-9)
        assert est.split == {"sketch": 1, "basis": 1, "residual": 1}


def test_hutch_pp_unbiased_on_identity():
    # m=3: Q captures one direction exactly, the remaining trace 2 is
    # estimated without bias; mean over 1e4 seeds stays within 3 SEs.
    op = DenseOperator(np.eye(3))
    vals = np.array(
        [hutch_pp(op, 3, rng=_rng(78, t)).value for t in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 3.0) <= 3.0 * se


def test_hutch_pp_beats_hutchinson_fast_decay():
    # c=2 spectrum, d=1000, m=60, 200 trials: median relative errors separate
    # by more than an order of magnitude.
    A, op = power_law_matrix(1000, 2.0, rng=5)
    tr = np.trace(A)
    hp = [
        abs(hutch_pp(op, 60, rng=_rng(81, t)).value - tr) / tr
        for t in range(200)
    ]
    hu = [
        abs(hutchinson(op, 60, rng=_rng(82, t)).value - tr) / tr
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


def test_hutch_pp_keeps_its_basis_at_extreme_scales():
    # A sketch whose Frobenius norm overflows (1e160) or underflows
    # (1e-170) is still full rank, and the estimate scales with A.
    plain = hutch_pp(DiagonalOperator(np.ones(60)), 30, rng=0)
    for s in (1e160, 1e-170):
        est = hutch_pp(DiagonalOperator(np.full(60, s)), 30, rng=0)
        assert est.split == {"sketch": 10, "basis": 10, "residual": 10}
        assert est.matvecs_used == 30
        assert est.value == pytest.approx(s * plain.value, rel=1e-12)


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
        [na_hutch_pp(op, 100, rng=_rng(80, t)).value for t in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - tr) <= 3.0 * se


def test_na_hutch_pp_fraction_validation():
    # The split is floor(c * m + 1e-9) for the fractions (1/4, 1/2, 1/4).
    for m in range(2001):
        floors = tuple(math.floor(c * m + 1e-9) for c in (0.25, 0.5, 0.25))
        if min(floors) < 1:
            with pytest.raises(ValueError, match="na_hutch_pp budget m must be >= 4"):
                _na_hutch_pp_split(m)
        else:
            assert _na_hutch_pp_split(m) == floors
    with pytest.raises(ValueError, match="na_hutch_pp budget m must be >= 4, got 3"):
        na_hutch_pp(DiagonalOperator(np.ones(8)), 3)


def test_na_hutch_pp_single_batched_query():
    # The non-adaptivity contract: one matmat call whose content is fully
    # reproducible from the seed before any operator output exists.
    lam = np.arange(1, 101, dtype=float) ** -1.0
    recorder = RecordingOperator(DiagonalOperator(lam))
    est = na_hutch_pp(recorder, 40, rng=12345)
    assert len(recorder.queries) == 1
    block = na_hutch_pp_probes(100, 40, rng=12345)
    assert block.shape == recorder.queries[0].shape == (100, 10 + 20 + 10)
    assert recorder.queries[0].tobytes() == block.tobytes()
    assert est.matvecs_used == block.shape[1]


def test_na_hutch_pp_holds_its_probes_once():
    # The probes are not held a second time next to the queried block.  At
    # d=2000, m=240 (one 240-column block is 3.84 MB) the tracemalloc peak
    # read 12.0 MB with S, R and G kept beside the block and 8.16 MB
    # (hutchinson's) with S and G as views of it.
    d, m = 2000, 240
    op = DiagonalOperator(np.linspace(1.0, 2.0, d))
    na_hutch_pp(op, m, rng=0)  # warm up before tracing
    tracemalloc.start()
    try:
        na_hutch_pp(op, m, rng=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * d * m * 8, f"peak {peak / 1e6:.2f} MB"


def test_na_hutch_pp_floor_split():
    est = na_hutch_pp(DiagonalOperator(np.ones(50)), 10, rng=0)
    assert est.split == {"sketch": 2, "range": 5, "residual": 2}
    assert est.matvecs_used == 9  # leftover budget discarded


# -------------------------------------------------------------- hutch_pp_gauss


def test_hutch_pp_gauss_spends_every_budget_exactly():
    # Any m >= 3 splits into s = floor((m+2)/4) sketch columns, spent twice,
    # and m - 2s residual probes; a full-rank operator spends all of m.
    op = DiagonalOperator(np.linspace(1.0, 2.0, 80))
    for m in range(3, 65):
        s = (m + 2) // 4
        est = hutch_pp_gauss(op, m, rng=m)
        assert est.split == {"sketch": s, "basis": s, "residual": m - 2 * s}
        assert est.matvecs_used == m
    for m in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="hutch_pp_gauss budget m must be >= 3"):
            hutch_pp_gauss(op, m)


def test_hutch_pp_gauss_unbiased_on_identity():
    op = DenseOperator(np.eye(4))
    vals = np.array(
        [hutch_pp_gauss(op, 6, rng=_rng(79, t)).value for t in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 4.0) <= 3.0 * se
    # S Gaussian 4x2 is almost surely full rank: first term is rank(Q) = 2.
    # m = 12 is not 2 (mod 4): 3 sketch columns and 6 residual probes.
    vals = np.array(
        [hutch_pp_gauss(op, 12, rng=_rng(81, t)).value for t in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 4.0) <= 3.0 * se


def test_hutch_pp_gauss_exact_low_rank_capture():
    # rank(A)=2 <= 3 sketch columns: the deflated residual is identically 0.
    rng = np.random.default_rng(17)
    V = rng.standard_normal((12, 2))
    A = V @ V.T
    tr = np.trace(A)
    op = DenseOperator(A)
    for seed in range(20):
        est = hutch_pp_gauss(op, 10, rng=seed)
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
        [hutch_pp_gauss(op, 26, rng=_rng(90, t)).value for t in range(3000)]
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
        est = subspace_projection(op, 8, rng=seed)
        assert est.value == pytest.approx(4.0, rel=1e-12)
        assert est.matvecs_used == 8  # 2k


def test_subspace_projection_captures_dominant_eigenvalue():
    op = DiagonalOperator([10.0, 1e-6, 1e-6])
    for seed in range(10):
        est = subspace_projection(op, 2, rng=seed)
        assert est.value == pytest.approx(10.0, abs=1e-4)


def test_subspace_projection_loses_on_slow_decay():
    # c=0.5: the spectrum has no dominant directions, so projection onto
    # k=m/2 of them misses most of the trace while Hutchinson does fine.
    A, op = power_law_matrix(1000, 0.5, rng=6)
    tr = np.trace(A)
    sp = [
        abs(subspace_projection(op, 60, rng=_rng(83, t)).value - tr) / tr
        for t in range(200)
    ]
    hu = [
        abs(hutchinson(op, 60, rng=_rng(84, t)).value - tr) / tr
        for t in range(200)
    ]
    assert np.median(sp) > np.median(hu)


def test_subspace_projection_argument_errors():
    op = DiagonalOperator(np.ones(3))
    for m in (0, 1):  # k = floor(m/2) would be 0
        with pytest.raises(ValueError, match="budget m must be >= 2"):
            subspace_projection(op, m)


def test_subspace_projection_spends_2k_of_floor_m_over_2():
    # m = 11: k = 5 columns, 10 matvecs, the same probes as m = 10.
    _, op = power_law_matrix(40, 1.0, rng=5)
    est = subspace_projection(op, 11, rng=4)
    assert est.matvecs_used == 10
    assert est.split == {"sketch": 5, "basis": 5}
    assert est.value == subspace_projection(op, 10, rng=4).value


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
    assert hutchinson(op, 13, rng=0).matvecs_used == 13
    assert hutch_pp(op, 13, rng=0).matvecs_used == 12
    est = na_hutch_pp(op, 13, rng=0)
    assert est.matvecs_used == 3 + 6 + 3
    assert hutch_pp_gauss(op, 14, rng=0).matvecs_used == 14
    assert subspace_projection(op, 15, rng=0).matvecs_used == 14
    assert exact_trace(op).matvecs_used == 40


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
        [hutchinson(op, 5, "gaussian", rng=_rng(86, t)).value for t in range(10000)]
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
            abs(hutchinson(op, l, "gaussian", rng=_rng(85, l, t)).value - tr)
            for t in range(500)
        ]
        qs.append(np.quantile(devs, 0.9))
    slope = np.polyfit(np.log(budgets), np.log(qs), 1)[0]
    assert -0.65 <= slope <= -0.35


# ------------------------------------------------------------ general matrices


@pytest.mark.parametrize("c, symmetric", [
    pytest.param(1.0, True, id="1.0"),
    pytest.param(1.0, False, id="1.0-nonsymmetric"),
    pytest.param(2.0, True, id="2.0", marks=pytest.mark.slow),
    pytest.param(2.0, False, id="2.0-nonsymmetric", marks=pytest.mark.slow),
])
def test_error_rates_on_an_indefinite_matrix(c, symmetric):
    # The paper's general-matrix claim: error <= eps * ||A||_* at O(1/eps)
    # matvecs for Hutch++, O(1/eps^2) for Hutchinson.  A = Q^T diag(lam) Q
    # with lam = +-i^(-c), random signs, so the trace is far below ||A||_*
    # and error relative to the trace would hide the rate.  Bands from the
    # rates -1 and -1/2.  The non-symmetric input is A = Q diag(i^(-c)) V^T
    # with Q, V independent random orthogonal matrices; na_hutch_pp assumes
    # A = A^T, so there it keeps only Hutchinson's rate, and its slope is
    # reported with no band.
    d, budgets, trials = 1000, (30, 60, 120, 240, 480), 100
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if symmetric:
        lam = rng.choice([-1.0, 1.0], d) * np.arange(1, d + 1, dtype=float) ** -c
        op, trace = DenseOperator((Q.T * lam) @ Q), lam.sum()
    else:
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = np.arange(1, d + 1, dtype=float) ** -c
        A = (Q * lam) @ V.T
        op, trace = DenseOperator(A), np.trace(A)
    nuclear = np.abs(lam).sum()
    slopes = {}
    for i, name in enumerate(("hutchinson", "hutch_pp", "na_hutch_pp")):
        medians = [
            np.median([
                abs(run_estimator(op, name, m, rng=_rng(121, i, m, t)).value - trace)
                for t in range(trials)
            ]) / nuclear
            for m in budgets
        ]
        slopes[name] = np.polyfit(np.log(budgets), np.log(medians), 1)[0]
    assert slopes["hutch_pp"] <= -0.80, slopes
    if symmetric:
        assert slopes["na_hutch_pp"] <= -0.80, slopes
    assert -0.70 <= slopes["hutchinson"] <= -0.30, slopes


# ------------------------------------------------------- exact unbiasedness


def _enumerated_mean(monkeypatch, A, name, m, fixed_blocks):
    """The mean of estimator `name` at budget m over all 2^d sign vectors of
    its last probe column, every earlier probe block drawn from a fixed seed."""
    d = A.shape[0]
    op, values = DenseOperator(A), []
    for signs in itertools.product([-1.0, 1.0], repeat=d):
        calls = []

        def fixed_then_signs(rows, k, distribution, rng):
            calls.append(k)
            if len(calls) <= fixed_blocks:
                return sample_probes(rows, k, distribution, len(calls))
            assert (rows, k) == (d, 1)
            return ProbeMatrix(np.array(signs)[:, None])

        monkeypatch.setattr(estimators, "sample_probes", fixed_then_signs)
        values.append(run_estimator(op, name, m, rng=0).value)
        assert len(calls) == fixed_blocks + 1
    return np.mean(values)


def _enumeration_matrices():
    rng = np.random.default_rng(40)
    B = rng.standard_normal((8, 8))
    return {"symmetric-indefinite": (B + B.T) / 2, "nonsymmetric": rng.standard_normal((8, 8))}


@pytest.mark.parametrize("matrix", ["symmetric-indefinite", "nonsymmetric"])
@pytest.mark.parametrize("name, m, fixed_blocks", [
    ("hutchinson", 1, 0),  # the one probe column
    ("hutch_pp", 3, 1),  # S, then the residual column
    ("hutch_pp_gauss", 3, 1),  # Gaussian S, then the residual column
    ("na_hutch_pp", 4, 2),  # S and R, then the residual column G
])
def test_unbiased_estimators_are_exact_over_every_sign_vector(
    monkeypatch, matrix, name, m, fixed_blocks
):
    # Conditional on the fixed blocks, the mean over all 2^d Rademacher
    # residual columns is the exact expectation, so an unbiased estimator's
    # mean is the trace to rounding, not to sampling error.
    A = _enumeration_matrices()[matrix]
    mean = _enumerated_mean(monkeypatch, A, name, m, fixed_blocks)
    assert abs(mean - np.trace(A)) <= 1e-12 * np.linalg.norm(A), (mean, np.trace(A))


@pytest.mark.parametrize("matrix", ["symmetric-indefinite", "nonsymmetric"])
def test_subspace_projection_is_biased_over_every_sign_vector(monkeypatch, matrix):
    # One sketch column cannot capture a full-rank 8 x 8 matrix: the mean of
    # trace(Q^T A Q) over every sketch column is not the trace.
    A = _enumeration_matrices()[matrix]
    mean = _enumerated_mean(monkeypatch, A, "subspace_projection", 2, 0)
    assert abs(mean - np.trace(A)) > 0.1 * np.linalg.norm(A), (mean, np.trace(A))


# ------------------------------------------------------------------ registry


def _accepts(call, m) -> bool:
    try:
        call(m)
    except ValueError:
        return False
    return True


def test_run_estimator_dispatch():
    lam = np.arange(1.0, 21.0)
    op = DiagonalOperator(lam)
    assert list(ESTIMATORS) == [
        "hutchinson", "hutch_pp", "na_hutch_pp", "hutch_pp_gauss", "subspace_projection"
    ]  # trial seeds key on this order
    # run_estimator(name) returns what the estimator of that name returns,
    # and no two estimators return the same, so the name picks the function.
    results = {}
    for name in ESTIMATORS:
        m = 14  # above every estimator's minimum
        est = run_estimator(op, name, m, rng=3)
        direct = getattr(estimators, name)(op, m, rng=3)
        results[name] = (est.value.hex(), est.matvecs_used, est.split)
        assert results[name] == (direct.value.hex(), direct.matvecs_used, direct.split), name
    assert len({repr(r) for r in results.values()}) == len(ESTIMATORS), results
    est = run_estimator(op, "subspace_projection", 14, rng=3)
    assert est.matvecs_used == 14  # k = 7
    with pytest.raises(ValueError, match="unknown estimator"):
        run_estimator(op, "simple_average", 10)
    # Each registry value is its estimator's budget rule.
    assert ESTIMATORS["hutch_pp"](14) == 4
    assert ESTIMATORS["subspace_projection"](14) == 7
    # Each budget rule rejects exactly the budgets its estimator rejects.
    for name, rule in ESTIMATORS.items():
        for m in range(1, 31):
            runs = _accepts(lambda m: run_estimator(op, name, m, rng=m), m)
            assert _accepts(rule, m) == runs, (name, m)


def test_every_budget_rule_is_monotone():
    # A rule that accepts m accepts m + 1, so a budget grid runs an
    # estimator somewhere exactly when its largest budget is accepted.
    for name, rule in ESTIMATORS.items():
        accepted = [_accepts(rule, m) for m in range(301)]
        assert accepted == sorted(accepted), name


def test_zero_operator_through_every_registry_entry():
    # A rank-0 sketch costs no A*Q queries and leaves the residual probes as
    # drawn, so the estimate is exactly 0.0.
    expected = {
        "hutchinson": (14, {"probes": 14}),
        "hutch_pp": (8, {"sketch": 4, "basis": 0, "residual": 4}),
        "na_hutch_pp": (13, {"sketch": 3, "range": 7, "residual": 3}),
        "hutch_pp_gauss": (10, {"sketch": 4, "basis": 0, "residual": 6}),
        "subspace_projection": (7, {"sketch": 7, "basis": 0}),
    }
    for name in ESTIMATORS:
        est = run_estimator(DenseOperator(np.zeros((12, 12))), name, 14, rng=0)
        assert est.value == 0.0
        assert (est.matvecs_used, est.split) == expected[name], name


def test_scalar_matrix_functions_through_every_registry_entry():
    # At d = 1 the sketch captures everything, so the deflated residual
    # probes are exactly 0 and f(B) 0 = 0 must cost no Lanczos solve.
    for make, exact in (
        (lambda: exp_operator(DenseOperator([[0.5]]), 10), math.exp(0.5)),
        (lambda: shifted_log_operator(DenseOperator([[3.0]]), 2.0, 10), math.log(5.0)),
    ):
        for name in ESTIMATORS:
            est = run_estimator(make(), name, 14, rng=0)
            assert est.value == pytest.approx(exact, rel=1e-14), name


# float.hex of run_estimator(op, name, m, np.random.default_rng(seed)).value
# and its matvecs_used, recorded at one BLAS thread.  A change to either
# estimator's probes or arithmetic moves them; the byte replay of perfbench's
# workloads runs neither estimator.
_PINNED = {
    (0.5, "hutch_pp_gauss", 6, 0): ("0x1.a17af79ab5faap+4", 6),
    (0.5, "hutch_pp_gauss", 6, 1): ("0x1.9d0499d0e4af8p+4", 6),
    (0.5, "hutch_pp_gauss", 30, 0): ("0x1.a933131e76d67p+4", 30),
    (0.5, "hutch_pp_gauss", 30, 1): ("0x1.9f0f65ccc6e38p+4", 30),
    (0.5, "hutch_pp_gauss", 62, 0): ("0x1.ac0a310d0b489p+4", 62),
    (0.5, "hutch_pp_gauss", 62, 1): ("0x1.a572fcbb07c9fp+4", 62),
    (0.5, "subspace_projection", 2, 0): ("0x1.15badf01da28dp-1", 2),
    (0.5, "subspace_projection", 2, 1): ("0x1.56a51f6133e00p-2", 2),
    (0.5, "subspace_projection", 31, 0): ("0x1.156080bb7762dp+2", 30),
    (0.5, "subspace_projection", 31, 1): ("0x1.05872e3d057f8p+2", 30),
    (0.5, "subspace_projection", 60, 0): ("0x1.c3068efbe3d29p+2", 60),
    (0.5, "subspace_projection", 60, 1): ("0x1.c64658b5b5927p+2", 60),
    (2.0, "hutch_pp_gauss", 6, 0): ("0x1.9dba1f2ccbdccp+0", 6),
    (2.0, "hutch_pp_gauss", 6, 1): ("0x1.ac0ac17a5cd5fp+0", 6),
    (2.0, "hutch_pp_gauss", 30, 0): ("0x1.a3e79ced13a47p+0", 30),
    (2.0, "hutch_pp_gauss", 30, 1): ("0x1.a105dab3561edp+0", 30),
    (2.0, "hutch_pp_gauss", 62, 0): ("0x1.a3c443a590b3ap+0", 62),
    (2.0, "hutch_pp_gauss", 62, 1): ("0x1.a422dbdd0e33cp+0", 62),
    (2.0, "subspace_projection", 2, 0): ("0x1.19f31cd539c3cp-1", 2),
    (2.0, "subspace_projection", 2, 1): ("0x1.f46ec45184cb9p-3", 2),
    (2.0, "subspace_projection", 31, 0): ("0x1.90bfbe09b56a5p+0", 30),
    (2.0, "subspace_projection", 31, 1): ("0x1.9057fa13d1953p+0", 30),
    (2.0, "subspace_projection", 60, 0): ("0x1.9aeb97281345fp+0", 60),
    (2.0, "subspace_projection", 60, 1): ("0x1.9a942d8b48916p+0", 60),
}
# A rank-3 operator: both sketches outgrow its range and spend fewer queries.
_PINNED_RANK_3 = {
    ("hutch_pp_gauss", 30): ("0x1.47eb7ca2ca9abp+9", 25),
    ("subspace_projection", 20): ("0x1.47eb7ca2ca9abp+9", 13),
}


def test_gauss_and_projection_estimates_match_their_pinned_bits():
    ops = {c: power_law_matrix(200, c, rng=seed)[1]
           for c, seed in ((0.5, 11), (2.0, 12))}
    got = {}
    for c, name, m, seed in _PINNED:
        est = run_estimator(ops[c], name, m, np.random.default_rng(seed))
        got[c, name, m, seed] = (est.value.hex(), est.matvecs_used)
    assert got == _PINNED
    X = np.random.default_rng(13).standard_normal((200, 3))
    low = DenseOperator(X @ X.T)
    got = {}
    for name, m in _PINNED_RANK_3:
        est = run_estimator(low, name, m, np.random.default_rng(0))
        got[name, m] = (est.value.hex(), est.matvecs_used)
    assert got == _PINNED_RANK_3
