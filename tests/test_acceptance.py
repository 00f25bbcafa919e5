"""End-to-end acceptance checks for the trace-estimation toolkit.

Each test prints one `[criterion N] name: PASS/FAIL (elapsed s cpu)` line and
then asserts both the substantive checks and the runtime budget.  The budget
is the process's own CPU time, so a loaded host does not fail a check whose
computation passes; with BLAS pinned to one thread (conftest.py) it matches
the wall time on an idle host.  Run with
`pytest tests/test_acceptance.py -v -s` to see every line; criterion 7 is
opt-in via `-m slow` because it works at dimension 5000, and criterion 12
because its 200-trial sweep adds about a minute to the suite.
"""

import time

import numpy as np
import pytest

from tracekit.bench import ExperimentSpec, PowerLawSource, fit_loglog_slope, run_sweep
from tracekit.estimators import (
    exact_trace,
    hutch_pp,
    hutch_pp_gauss,
    hutchinson,
    na_hutch_pp,
    na_hutch_pp_probes,
    subspace_projection,
)
from tracekit.graph import (
    AdjacencyOperator,
    Graph,
    estrada_index_exact,
    triangle_count_exact,
)
from tracekit.linop import DenseOperator, DiagonalOperator
from tracekit.matfunc import PowerOperator, exp_operator, lanczos_apply
from tracekit.synth import power_law_eigenvalues, power_law_matrix

from oracles import DenseReference, RecordingOperator


def _report(number: int, name: str, ok: bool, t0: float) -> float:
    elapsed = time.process_time() - t0
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({elapsed:.1f} s cpu)")
    return elapsed


def _er_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    mask = rng.random((n, n)) < p
    edges = tuple((a, b) for a in range(n) for b in range(a + 1, n) if mask[a, b])
    return Graph(node_count=n, edges=edges)


def test_criterion_01_sign_probe_diagonal_exactness():
    t0 = time.process_time()
    op = DiagonalOperator(np.arange(1.0, 101.0))
    worst = 0.0
    for s in range(1000):
        for m in (1, 5, 50):
            rng = np.random.default_rng((101, s, m))
            est = hutchinson(op, m, "rademacher", rng=rng)
            worst = max(worst, abs(est.value - 5050.0))
    ok = worst == 0.0
    elapsed = _report(1, "sign-probe diagonal exactness", ok, t0)
    assert ok, f"worst absolute error {worst}, expected exactly 0.0"
    assert elapsed < 1.0


def test_criterion_02_gaussian_probe_variance():
    t0 = time.process_time()
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((50, 50))
    A = X @ X.T
    op = DenseOperator(A)
    vals = np.array(
        [
            hutchinson(op, 10, "gaussian", rng=np.random.default_rng((102, t))).value
            for t in range(100_000)
        ]
    )
    var = vals.var(ddof=1)
    expected = (2.0 / 10.0) * np.linalg.norm(A) ** 2
    ratio = var / expected
    ok = abs(ratio - 1.0) <= 0.10
    elapsed = _report(2, "gaussian-probe variance law", ok, t0)
    assert ok, f"variance ratio {ratio:.4f} outside 1 +/- 0.10"
    assert elapsed < 30.0


def test_criterion_03_deflated_gaussian_variance_bounds():
    t0 = time.process_time()
    A, op = power_law_matrix(500, 1.5, rng=77)
    tr = float(np.trace(A))
    ref = DenseReference(A)
    failures = []
    for m in (14, 26, 50):
        vals = np.array(
            [
                hutch_pp_gauss(op, m, rng=np.random.default_rng((300, m, t))).value
                for t in range(10_000)
            ]
        )
        var = vals.var(ddof=1)
        loose = 16.0 / (m - 2) ** 2 * tr * tr
        k = max((m - 2) // 8 - 1, 0)
        tight = 8.0 / (m - 2) * ref.rank_k_tail_frobenius(k) ** 2
        if var > 1.1 * loose:
            failures.append(f"m={m}: var {var:.4g} > 1.1 * {loose:.4g}")
        if var > 1.1 * tight:
            failures.append(f"m={m}: var {var:.4g} > 1.1 * tight {tight:.4g}")
    ok = not failures
    elapsed = _report(3, "deflated gaussian variance bounds", ok, t0)
    assert ok, "; ".join(failures)
    assert elapsed < 120.0


def test_criterion_04_tail_mass_bound():
    t0 = time.process_time()
    worst = 0.0
    for c in (0.5, 1.0, 1.5, 2.0):
        lam = power_law_eigenvalues(1000, c)
        ref = DenseReference(np.diag(lam))
        tr = float(lam.sum())
        for k in range(1, 1000):
            bound = tr / (2.0 * np.sqrt(k))
            worst = max(worst, ref.rank_k_tail_frobenius(k) / bound)
    ok = worst <= 1.0
    elapsed = _report(4, "rank-k tail mass bound", ok, t0)
    assert ok, f"tail exceeded trace/(2 sqrt(k)) by factor {worst:.4f}"
    assert elapsed < 5.0


def _rate_separation_checks(exponent: float) -> dict[str, bool]:
    """Slope bands and hutch_pp dominance on the i^(-exponent) spectrum, d=1000."""
    spec = ExperimentSpec(
        PowerLawSource(exponent=exponent, dim=1000),
        ("hutchinson", "hutch_pp", "na_hutch_pp"),
        (30, 60, 120, 240, 480),
        trials=200,
        seed=0,
    )
    rows = run_sweep(spec)
    by_est = {}
    for r in rows:
        by_est.setdefault(r.estimator, []).append(r)
    slope_h = fit_loglog_slope(by_est["hutchinson"])
    slope_pp = fit_loglog_slope(by_est["hutch_pp"])
    slope_na = fit_loglog_slope(by_est["na_hutch_pp"])
    med = {(r.estimator, r.m): r.median_rel_err for r in rows}
    dominance = all(
        med[("hutch_pp", m)] < med[("hutchinson", m)] for m in (60, 120, 240, 480)
    )
    return {
        f"hutchinson slope {slope_h:+.3f} in [-0.65,-0.35]": -0.65 <= slope_h <= -0.35,
        f"hutch_pp slope {slope_pp:+.3f} in [-1.30,-0.70]": -1.30 <= slope_pp <= -0.70,
        f"na_hutch_pp slope {slope_na:+.3f} in [-1.30,-0.70]": -1.30 <= slope_na <= -0.70,
        "hutch_pp beats hutchinson at every m >= 60": dominance,
    }


def test_criterion_05_convergence_rate_separation():
    # Known-red configuration: with eigenvalues i^(-1/2) at d=1000 the
    # deflated Frobenius tail shrinks only logarithmically.  Over seeds 0-15
    # the hutch_pp slope was -0.62..-0.74 and the na_hutch_pp slope
    # -0.58..-0.72 (band wants <= -0.70), and hutch_pp's median error
    # exceeded hutchinson's at m=60 on 16/16 seeds (ratio 1.07-1.34); the
    # median ratio over seeds crosses 1 between m=120 (1.05) and m=240
    # (0.91).  An exact-variance model (Rademacher Hutchinson's variance
    # 2(||A||_F^2 - sum A_ii^2)/m; hutch_pp's, given its sketch, that of
    # Hutchinson on the deflated matrix) predicts hutch_pp/hutchinson median
    # ratios of 1.37, 1.21, 1.04, 0.89 and 0.78 at m = 30..480 and a hutch_pp
    # slope of -0.706, so the dominance clause fails in expectation, not by
    # seed.  The checks are kept as stated rather than tuned to pass.
    t0 = time.process_time()
    checks = _rate_separation_checks(exponent=0.5)
    ok = all(checks.values())
    elapsed = _report(5, "convergence-rate separation", ok, t0)
    assert elapsed < 180.0
    assert ok, "; ".join(label for label, passed in checks.items() if not passed)


def test_criterion_06_fast_decay_ordering():
    t0 = time.process_time()
    spec = ExperimentSpec(
        PowerLawSource(exponent=2.0, dim=1000),
        ("hutchinson", "hutch_pp", "subspace_projection"),
        (96,),
        trials=200,
        seed=0,
    )
    med = {r.estimator: r.median_rel_err for r in run_sweep(spec)}
    sp, h, pp = (
        med["subspace_projection"],
        med["hutchinson"],
        med["hutch_pp"],
    )
    ok = sp < h and pp <= 1.5 * sp
    elapsed = _report(6, "fast-decay estimator ordering", ok, t0)
    assert ok, f"sp={sp:.4g} h={h:.4g} pp={pp:.4g}"
    assert elapsed < 60.0


@pytest.mark.slow
def test_criterion_07_frobenius_trace_ratios():
    t0 = time.process_time()
    results = {}
    for c in (2.0, 0.5):
        ref = DenseReference(np.diag(power_law_eigenvalues(5000, c)))
        results[c] = ref.frobenius_norm / ref.trace
    ok = abs(results[2.0] - 0.63) <= 0.01 and abs(results[0.5] - 0.02) <= 0.005
    elapsed = _report(7, "frobenius-to-trace spectrum ratios", ok, t0)
    assert ok, f"ratios c=2: {results[2.0]:.4f}, c=0.5: {results[0.5]:.4f}"
    assert elapsed < 60.0


def test_criterion_08_matrix_exponential_fidelity():
    t0 = time.process_time()
    rng = np.random.default_rng(42)
    A = rng.standard_normal((100, 100))
    A = (A + A.T) / 2
    A *= 2.0 / np.abs(np.linalg.eigvalsh(A)).max()  # spectrum in [-2, 2]
    w, U = np.linalg.eigh(A)
    op = DenseOperator(A)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(100)
        y = lanczos_apply(op, np.exp, x, 40)
        ref = U @ (np.exp(w) * (U.T @ x))
        worst = max(worst, np.linalg.norm(y - ref) / np.linalg.norm(ref))
    ok = worst < 1e-8
    elapsed = _report(8, "matrix exponential fidelity", ok, t0)
    assert ok, f"worst relative error {worst:.3e}"
    assert elapsed < 5.0


def test_criterion_09_graph_oracle_equivalence():
    t0 = time.process_time()
    rng = np.random.default_rng(123)
    tri_mismatches = 0
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        p = float(rng.choice([0.02, 0.05, 0.1]))
        g = _er_graph(n, p, rng)
        aop = AdjacencyOperator(g)
        cube = exact_trace(PowerOperator(aop, 3)).value
        if cube / 6.0 != float(triangle_count_exact(g)):
            tri_mismatches += 1
        dense = estrada_index_exact(g)
        est = exact_trace(exp_operator(aop, 40)).value
        worst_rel = max(worst_rel, abs(est - dense) / dense)
    ok = tri_mismatches == 0 and worst_rel < 1e-6
    elapsed = _report(9, "graph oracle equivalence", ok, t0)
    assert ok, f"{tri_mismatches} triangle mismatches, worst estrada {worst_rel:.2e}"
    assert elapsed < 30.0


def test_criterion_10_indefinite_cubed_adjacency():
    t0 = time.process_time()
    g = _er_graph(300, 0.05, np.random.default_rng(0))
    op = PowerOperator(AdjacencyOperator(g), 3)
    truth = 6.0 * triangle_count_exact(g)
    assert truth != 0.0
    h_err, pp_err = [], []
    for t in range(200):
        h = hutchinson(op, 102, rng=np.random.default_rng((200, t)))
        pp = hutch_pp(op, 102, rng=np.random.default_rng((201, t)))
        h_err.append(abs(h.value - truth) / abs(truth))
        pp_err.append(abs(pp.value - truth) / abs(truth))
    pp_med, h_med = np.median(pp_err), np.median(h_err)
    ok = pp_med <= h_med
    elapsed = _report(10, "indefinite cubed-adjacency accuracy", ok, t0)
    assert ok, f"hutch_pp median {pp_med:.4f} > hutchinson median {h_med:.4f}"
    assert elapsed < 60.0


def test_criterion_11_budget_and_non_adaptivity():
    t0 = time.process_time()
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((40, 40))
    A = Y @ Y.T
    failures = []

    def check(label, est, expected, op):
        if est.matvecs_used != expected or op.query_count != expected:
            failures.append(
                f"{label}: reported {est.matvecs_used}, counted "
                f"{op.query_count}, expected {expected}"
            )

    op = RecordingOperator(DenseOperator(A))
    check("hutchinson m=13", hutchinson(op, 13, rng=1), 13, op)
    op = RecordingOperator(DenseOperator(A))
    check("hutch_pp m=13", hutch_pp(op, 13, rng=1), 12, op)
    op = RecordingOperator(DenseOperator(A))
    check("na_hutch_pp m=13", na_hutch_pp(op, 13, rng=1), 12, op)
    op = RecordingOperator(DenseOperator(A))
    check("hutch_pp_gauss m=14", hutch_pp_gauss(op, 14, rng=1), 14, op)
    op = RecordingOperator(DenseOperator(A))
    check("subspace_projection m=15", subspace_projection(op, 15, rng=1), 14, op)
    op = RecordingOperator(DenseOperator(A))
    check("exact_trace", exact_trace(op), 40, op)

    recorder = RecordingOperator(DenseOperator(A))
    na_hutch_pp(recorder, 20, rng=424242)
    block = na_hutch_pp_probes(40, 20, rng=424242)
    if len(recorder.queries) != 1:
        failures.append(f"na_hutch_pp issued {len(recorder.queries)} query batches")
    elif not (recorder.queries[0].shape == block.shape
              and recorder.queries[0].tobytes() == block.tobytes()):
        failures.append("na_hutch_pp queries differ from the seed-determined probes")

    ok = not failures
    elapsed = _report(11, "budget accounting and non-adaptivity", ok, t0)
    assert ok, "; ".join(failures)
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_12_convergence_rate_separation_at_c_1():
    # Criterion 5's configuration and bands at c = 1, where they hold: seeds
    # 0-7 gave hutchinson slopes -0.42..-0.55, hutch_pp -1.07..-1.15 and
    # na_hutch_pp -1.00..-1.12, and hutch_pp beat hutchinson at every
    # m >= 60 (median error ratio 0.31-0.39 at m=60) for all eight.
    t0 = time.process_time()
    checks = _rate_separation_checks(exponent=1.0)
    ok = all(checks.values())
    elapsed = _report(12, "convergence-rate separation at c = 1", ok, t0)
    assert ok, "; ".join(label for label, passed in checks.items() if not passed)
    assert elapsed < 180.0
