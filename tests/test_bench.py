"""Sweep harness, CSV emission, slope fitting, and the CLI entry point."""

import math

import numpy as np
import pytest

from tracekit.bench import (
    ExperimentSpec,
    GraphEstradaSource,
    GraphTrianglesSource,
    KernelLogDetSource,
    PowerLawSource,
    TrialStats,
    emit_csv,
    fit_loglog_slope,
    run_sweep,
)
from tracekit import bench, cli
from tracekit.cli import build_parser, main
from tracekit.estimators import ESTIMATORS, hutchinson, run_estimator, subspace_projection
from tracekit.graph import Graph, estrada_index_exact, load_edge_list
from tracekit.linop import (
    DenseOperator,
    DiagonalOperator,
    LinearOperator,
    WrappedOperator,
    sample_probes,
)
from tracekit.matfunc import PowerOperator, exp_operator, lanczos_apply
from tracekit.synth import (
    gaussian_kernel_matrix,
    load_points,
    power_law_eigenvalues,
    synthetic_2d_points,
)

from oracles import NanOperator, peak_rss_growth


def _stats(pairs):
    return [
        TrialStats(
            estimator="hutchinson",
            m=m,
            median_rel_err=err,
            q25_rel_err=err,
            q75_rel_err=err,
            mean_matvecs=float(m),
        )
        for m, err in pairs
    ]


# -------------------------------------------------------------- ExperimentSpec


def test_spec_validation(tmp_path, capsys):
    src = PowerLawSource(exponent=1.0, dim=50)
    with pytest.raises(ValueError, match="unknown estimator"):
        ExperimentSpec(src, ("hutchinson", "magic"), (8,), 3)
    with pytest.raises(ValueError, match=r"must not repeat, got \['hutchinson'\]"):
        ExperimentSpec(src, ("hutchinson", "hutch_pp", "hutchinson"), (8,), 3)
    out = tmp_path / "x.csv"
    rc = main(["--source", "power_law", "--estimators", "hutchinson,hutchinson",
               "--out", str(out)])
    assert rc == 2
    assert "'hutchinson'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="at least one estimator"):
        ExperimentSpec(src, (), (8,), 3)
    with pytest.raises(ValueError, match="at least one budget"):
        ExperimentSpec(src, ("hutchinson",), (), 3)
    with pytest.raises(ValueError, match="ascending"):
        ExperimentSpec(src, ("hutchinson",), (8, 8), 3)
    with pytest.raises(ValueError, match="ascending"):
        ExperimentSpec(src, ("hutchinson",), (16, 8), 3)
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec(src, ("hutchinson",), (8,), 0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentSpec(src, ("hutchinson",), (8,), 3, seed=-1)
    with pytest.raises(TypeError, match="seed"):
        ExperimentSpec(src, ("hutchinson",), (8,), 3, seed=1.5)


def test_fractional_budgets_and_trials_raise_instead_of_truncating():
    # Every size argument goes through one rule: a float raises TypeError
    # naming the argument instead of being truncated to the integer below.
    src = PowerLawSource(1.0, 40)
    op = DiagonalOperator(np.ones(4))
    two = DiagonalOperator([2.0])
    cases = [
        ("budget", lambda: ExperimentSpec(src, ("hutchinson",), (12.9, 24.5), 2)),
        ("trials", lambda: ExperimentSpec(src, ("hutchinson",), (12, 24), trials=2.7)),
        ("seed", lambda: ExperimentSpec(src, ("hutchinson",), (12, 24), 2, seed=1.5)),
        ("m", lambda: hutchinson(op, 2.9)),
        ("q", lambda: PowerOperator(two, 2.9).matvec([1.0])),
        ("iterations", lambda: exp_operator(op, 3.7)),
        ("iterations", lambda: lanczos_apply(op, np.exp, np.ones(4), 3.7)),
        ("k", lambda: sample_probes(4, 2.5, "rademacher", 0)),
        ("m", lambda: subspace_projection(op, 5.4)),
        ("dim", lambda: power_law_eigenvalues(5.5, 1.0)),
        ("n", lambda: synthetic_2d_points(3.9)),
        ("dimension", lambda: LinearOperator(4.0)),
        ("node_count", lambda: Graph(node_count=4.5, edges=())),
        ("edge node id", lambda: Graph(3, [[0, 1.9], [1.2, 2]])),
    ]
    for name, call in cases:
        with pytest.raises(TypeError, match=rf"\b{name} must be an integer"):
            call()
    for rule in ESTIMATORS.values():
        with pytest.raises(TypeError, match=r"\bm must be an integer"):
            rule(12.5)
    # numpy integers are exact integers and pass.
    spec = ExperimentSpec(
        src, ("hutchinson",), (np.int64(12), np.int32(24)), np.int64(2), np.int64(7)
    )
    assert spec.budgets == (12, 24) and spec.trials == 2 and spec.seed == 7
    assert hutchinson(op, np.int64(3)).matvecs_used == 3
    assert PowerOperator(two, np.int64(3)).matvec([1.0]).tolist() == [8.0]
    assert sample_probes(4, np.int32(2), "rademacher", 0).entries.shape == (4, 2)
    assert power_law_eigenvalues(np.int64(5), 1.0).shape == (5,)
    assert synthetic_2d_points(np.int64(3)).shape == (3, 2)
    assert Graph(node_count=np.int64(4), edges=()).node_count == 4


# ------------------------------------------------------------------- run_sweep


def test_sweep_single_trial_quartiles_collapse():
    spec = ExperimentSpec(
        PowerLawSource(exponent=1.0, dim=60),
        ("hutchinson",),
        (4, 8),
        trials=1,
        seed=3,
    )
    rows = run_sweep(spec)
    assert len(rows) == 2
    for r in rows:
        assert r.q25_rel_err == r.median_rel_err == r.q75_rel_err
        assert r.mean_matvecs == r.m


def test_sweep_diagonal_source_is_exact_for_sign_probes():
    # Flat spectrum: every partial sum is an integer, so the estimate and
    # the truth agree bit for bit and the error is exactly 0.
    spec = ExperimentSpec(
        PowerLawSource(exponent=0.0, dim=120, rotate=False),
        ("hutchinson",),
        (4, 8, 16),
        trials=12,
        seed=0,
    )
    for r in run_sweep(spec):
        assert r.median_rel_err == 0.0
        assert r.q75_rel_err == 0.0
    # Non-integer diagonals reduce in a different order than the reference
    # sum, so exactness degrades only to summation round-off.
    spec = ExperimentSpec(
        PowerLawSource(exponent=1.5, dim=120, rotate=False),
        ("hutchinson",),
        (4, 8, 16),
        trials=12,
        seed=0,
    )
    for r in run_sweep(spec):
        assert r.q75_rel_err < 5e-15


def test_sweep_deflation_beats_plain_on_fast_decay():
    spec = ExperimentSpec(
        PowerLawSource(exponent=2.0, dim=200),
        ("hutchinson", "hutch_pp"),
        (60,),
        trials=20,
        seed=11,
    )
    rows = {r.estimator: r for r in run_sweep(spec)}
    assert rows["hutch_pp"].median_rel_err < rows["hutchinson"].median_rel_err


def test_sweep_error_shrinks_with_budget():
    spec = ExperimentSpec(
        PowerLawSource(exponent=1.0, dim=200),
        ("hutchinson",),
        (8, 32, 128),
        trials=50,
        seed=5,
    )
    rows = run_sweep(spec)
    meds = [r.median_rel_err for r in rows]
    assert meds[0] > meds[1] > meds[2]


def test_sweep_budget_accounting_columns():
    spec = ExperimentSpec(
        PowerLawSource(exponent=1.0, dim=100),
        ("hutchinson", "hutch_pp", "na_hutch_pp"),
        (10, 20),
        trials=3,
        seed=9,
    )
    rows = {(r.estimator, r.m): r for r in run_sweep(spec)}
    assert rows[("hutchinson", 10)].mean_matvecs == 10.0
    assert rows[("hutch_pp", 10)].mean_matvecs == 9.0  # 3 * floor(10/3)
    assert rows[("hutch_pp", 20)].mean_matvecs == 18.0
    assert rows[("na_hutch_pp", 10)].mean_matvecs == 9.0  # 2 + 5 + 2


def test_sweep_skips_invalid_budget_cells_and_continues(caplog):
    spec = ExperimentSpec(
        PowerLawSource(exponent=1.0, dim=60),
        ("hutch_pp_gauss", "hutchinson"),
        (2, 10),
        trials=4,
        seed=2,
    )
    with caplog.at_level("WARNING"):
        rows = run_sweep(spec)
    cells = {(r.estimator, r.m) for r in rows}
    # m=2 is below hutch_pp_gauss's minimum of 3: that one cell drops.
    assert cells == {("hutch_pp_gauss", 10), ("hutchinson", 2), ("hutchinson", 10)}
    assert any("skipping hutch_pp_gauss at m=2" in rec.getMessage()
               for rec in caplog.records)


def test_a_grid_that_runs_no_cell_of_an_estimator_is_refused(tmp_path, capsys, monkeypatch):
    src = PowerLawSource(exponent=1.0, dim=40)
    with pytest.raises(
        ValueError,
        match="no budget in the grid can run na_hutch_pp: "
        "na_hutch_pp budget m must be >= 4, got 3",
    ):
        ExperimentSpec(src, ("hutchinson", "na_hutch_pp"), (2, 3), 2)
    # Refused before the source is built or its ground truth computed.
    monkeypatch.setattr(PowerLawSource, "materialize", None)
    out = tmp_path / "x.csv"
    rc = main(["--source", "power_law", "--estimators", "na_hutch_pp",
               "--budgets", "2,3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: no budget in the grid can run na_hutch_pp: "
        "na_hutch_pp budget m must be >= 4, got 3\n"
    )
    assert not out.exists()


def test_a_sketch_wider_than_the_operator_runs():
    # m=30 on d=8: a 10-column sketch spans all of R^8, so the 8-column
    # basis spends 10 + 8 + 10 queries and the estimate is exact to rounding.
    rows = run_sweep(
        ExperimentSpec(PowerLawSource(1.0, 8), ("hutch_pp",), (12, 30), trials=2)
    )
    assert [r.m for r in rows] == [12, 30]
    assert rows[1].mean_matvecs == 28.0
    assert rows[1].q75_rel_err < 1e-14
    result = run_estimator(DenseOperator(np.zeros((6, 6))), "subspace_projection", 14)
    assert (result.value, result.matvecs_used) == (0.0, 7)


def test_a_rank_deficient_projection_spends_fewer_than_2k(monkeypatch):
    # m=14 on d=8: k=7.  Trial 0's sketch keeps 6 of its 7 columns, so the
    # projection queries 6 and the trial spends 13 of at most 2k=14.
    spent = []

    def recording(*args):
        result = run_estimator(*args)
        spent.append((result.matvecs_used, result.split["basis"]))
        return result

    monkeypatch.setattr(bench, "run_estimator", recording)
    rows = run_sweep(
        ExperimentSpec(PowerLawSource(1.0, 8), ("subspace_projection",), (14,), trials=3)
    )
    assert spent == [(13, 6), (14, 7), (14, 7)]
    assert rows[0].mean_matvecs == 41 / 3


class _NanSource:
    def materialize(self, seed):
        return NanOperator(30), 1.0


@pytest.mark.parametrize("estimator", ["hutchinson", "hutch_pp", "na_hutch_pp"])
def test_sweep_fails_loudly_mid_cell(estimator, tmp_path, capsys, monkeypatch):
    # A valid budget whose trials fail is an error, not a skipped cell.
    spec = ExperimentSpec(_NanSource(), (estimator,), (6, 12), trials=2)
    with pytest.raises(ValueError, match="NanOperator output contains non-finite"):
        run_sweep(spec)
    monkeypatch.setitem(cli._SOURCES, "nan", lambda args: _NanSource())
    out = tmp_path / "nan.csv"
    rc = main(["--source", "nan", "--estimators", estimator, "--budgets", "6,12",
               "--trials", "2", "--out", str(out)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_zero_trace_truth(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n")  # path graph: no triangles, trace(B^3) = 0
    spec = ExperimentSpec(
        GraphTrianglesSource(path=str(p)), ("hutchinson",), (4,), trials=2
    )
    with pytest.raises(ValueError, match="zero"):
        run_sweep(spec)


class _TruthSource:
    def __init__(self, truth):
        self.op, self.truth = DiagonalOperator(np.ones(5)), truth

    def materialize(self, seed):
        return self.op, self.truth


@pytest.mark.parametrize("truth", [np.inf, -np.inf, np.nan])
def test_sweep_rejects_non_finite_truth_before_any_trial(truth):
    # A dense Estrada truth past exp(709) overflows to inf; the sweep names
    # the truth, not the first query of a trial.
    source = _TruthSource(truth)
    spec = ExperimentSpec(source, ("hutchinson",), (4,), trials=2)
    with pytest.raises(ValueError, match="^ground-truth trace contains non-finite"):
        run_sweep(spec)
    assert source.op.query_count == 0


def test_sweep_results_independent_of_estimator_subset():
    base = dict(budgets=(12, 24), trials=6, seed=21)
    both = run_sweep(
        ExperimentSpec(
            PowerLawSource(exponent=1.5, dim=80),
            ("hutchinson", "hutch_pp"),
            **base,
        )
    )
    only = run_sweep(
        ExperimentSpec(PowerLawSource(exponent=1.5, dim=80), ("hutch_pp",), **base)
    )
    both_pp = [r for r in both if r.estimator == "hutch_pp"]
    assert both_pp == only


def test_sweep_deterministic_in_seed():
    spec = ExperimentSpec(
        PowerLawSource(exponent=1.0, dim=70), ("na_hutch_pp",), (12,), 5, seed=4
    )
    assert run_sweep(spec) == run_sweep(spec)
    other = ExperimentSpec(
        PowerLawSource(exponent=1.0, dim=70), ("na_hutch_pp",), (12,), 5, seed=5
    )
    assert run_sweep(other) != run_sweep(spec)


def test_sweep_kernel_logdet_source():
    spec = ExperimentSpec(
        KernelLogDetSource(n_points=40, gamma=32.0, lanczos_iterations=30),
        ("hutchinson",),
        (8,),
        trials=5,
        seed=1,
    )
    rows = run_sweep(spec)
    assert len(rows) == 1
    assert math.isfinite(rows[0].median_rel_err)
    assert rows[0].mean_matvecs == 8.0


def test_kernel_logdet_source_rejects_a_nan_shift():
    # Raised before any ground truth is computed, not at the first query.
    for shift in (np.nan, np.inf):
        with pytest.raises(ValueError, match="shift lambda"):
            KernelLogDetSource(n_points=5, shift=shift).materialize(seed=0)


def test_kernel_logdet_source_reads_its_points_file(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("0.0 0.0\n1.0 0.5\n0.25 1.0\n")
    source = KernelLogDetSource(n_points=50, points_path=str(p))
    op, truth = source.materialize(seed=0)
    assert op.dim == 3  # the file overrides n_points
    B = gaussian_kernel_matrix(load_points(p), source.gamma)
    assert truth == np.linalg.slogdet(B + source.shift * np.eye(3))[1]
    # The truth shifts the kernel's own diagonal and must set it back.
    assert np.array_equal(op._inner.matrix, B)
    assert np.all(np.diag(op._inner.matrix) == 1.0)
    drawn = KernelLogDetSource(n_points=50)
    op, truth = drawn.materialize(seed=3)
    B = gaussian_kernel_matrix(synthetic_2d_points(50, bench._source_rng(3)), drawn.gamma)
    assert truth == np.linalg.slogdet(B + drawn.shift * np.eye(50))[1]
    assert np.array_equal(op._inner.matrix, B)
    # Two identical points make the kernel singular; 1e-300 does not lift it.
    p.write_text("0.5 0.5\n0.5 0.5\n")
    singular = KernelLogDetSource(n_points=2, shift=1e-300, points_path=str(p))
    with pytest.raises(ValueError, match="not positive definite"):
        singular.materialize(seed=0)


def test_kernel_logdet_truth_holds_one_dense_copy():
    # One n x n float64 array is 32 MB at 2,000 points.  The kernel is one;
    # slogdet's LAPACK copy is the other.  Forming B + shift * I beside the
    # kernel held a third, and grew the peak by about 3.2 n^2 doubles.
    n = 2000
    setup = "from tracekit.bench import KernelLogDetSource\n"
    growth = peak_rss_growth(setup, f"KernelLogDetSource(n_points={n}).materialize(0)")
    assert growth <= 2.6 * n * n * 8, f"peak grew by {growth / 1e6:.1f} MB"


def test_sweep_graph_estrada_source(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("0 1\n1 2\n2 0\n")
    spec = ExperimentSpec(
        GraphEstradaSource(path=str(p), lanczos_iterations=3),
        ("hutchinson",),
        (4, 8),
        trials=10,
        seed=6,
    )
    rows = run_sweep(spec)
    assert [r.m for r in rows] == [4, 8]
    assert all(math.isfinite(r.median_rel_err) for r in rows)
    assert all(r.median_rel_err < 1.0 for r in rows)


def test_estrada_sketch_whose_norm_overflows_keeps_its_basis(tmp_path):
    # exp(B) of the complete graph on 707 nodes has the eigenvalue e^706,
    # about 4e306, so a two-column sketch's plain Frobenius norm overflows.
    # The sketch is numerically rank one: hutch_pp at m = 6 spends 2 + 1 + 2
    # matvecs a trial.  An overflowed norm dropped the whole basis, for 4
    # matvecs and a 79 % error.
    n = 707
    p = tmp_path / "complete.txt"
    p.write_text("".join(f"{i} {j}\n" for i in range(n) for j in range(i + 1, n)))
    source = GraphEstradaSource(path=str(p), lanczos_iterations=10)
    [row] = run_sweep(ExperimentSpec(source, ("hutch_pp",), (6,), trials=2))
    assert row.mean_matvecs == 5.0
    assert row.q75_rel_err < 1e-9


def _sweep_to_csv(source, out):
    emit_csv(run_sweep(ExperimentSpec(source, ("hutchinson",), (4,), trials=2)), out)


def _disjoint_triangles(path, n):
    path.write_text("".join(
        f"{a} {a + 1}\n{a + 1} {a + 2}\n{a + 2} {a}\n" for a in range(0, n, 3)
    ))
    return str(path)


def test_estrada_truth_of_a_2007_node_graph_writes_no_file(tmp_path):
    # 669 disjoint triangles: 2,007 nodes, each with eigenvalues 2, -1, -1.
    # The truth is the dense oracle at this size as at any other.
    p = _disjoint_triangles(tmp_path / "triangles.txt", 2007)
    source = GraphEstradaSource(path=p, lanczos_iterations=3)
    op, truth = source.materialize(seed=0)
    assert op.dim == 2007
    assert truth == pytest.approx(669 * (math.e**2 + 2 / math.e), rel=1e-12)
    assert truth == estrada_index_exact(load_edge_list(p))
    assert source.materialize(seed=1)[1] == truth
    _sweep_to_csv(source, tmp_path / "out.csv")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out.csv", "triangles.txt"]


@pytest.mark.parametrize("name", ["power_law", "power_law_diagonal", "kernel_logdet",
                                  "graph_estrada", "graph_estrada_2007", "graph_triangles"])
def test_no_truth_queries_its_operator(name, tmp_path):
    # A sweep's set-up ends at its first query: no source's ground truth
    # queries the operator it returns, nor the operator that one wraps.
    k4 = tmp_path / "k4.txt"
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    source = {
        "power_law": PowerLawSource(exponent=1.0, dim=40),
        "power_law_diagonal": PowerLawSource(exponent=1.0, dim=40, rotate=False),
        "kernel_logdet": KernelLogDetSource(n_points=40, lanczos_iterations=10),
        "graph_estrada": GraphEstradaSource(path=str(k4)),
        "graph_estrada_2007": GraphEstradaSource(
            path=_disjoint_triangles(tmp_path / "triangles.txt", 2007)
        ),
        "graph_triangles": GraphTrianglesSource(path=str(k4)),
    }[name]
    op, _ = source.materialize(seed=0)
    assert op.query_count == 0
    if isinstance(op, WrappedOperator):
        assert op.inner_matvecs == 0
    assert isinstance(op, WrappedOperator) == name.startswith(("kernel", "graph"))


def test_triangle_truth_is_exact_past_5000_nodes_without_a_cache(tmp_path):
    p = tmp_path / "triangles.txt"
    p.write_text("".join(
        f"{a} {a + 1}\n{a + 1} {a + 2}\n{a + 2} {a}\n" for a in range(0, 6000, 3)
    ))
    source = GraphTrianglesSource(path=str(p))
    op, truth = source.materialize(seed=0)
    assert op.dim == 6000
    assert truth == 12000.0  # 6 x 2000 triangles
    _sweep_to_csv(source, tmp_path / "out.csv")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out.csv", "triangles.txt"]


# ------------------------------------------------------------ fit_loglog_slope


def test_slope_recovers_exact_power_laws():
    stats = _stats([(m, 1.0 / m) for m in (4, 8, 16, 32)])
    assert fit_loglog_slope(stats) == pytest.approx(-1.0, abs=1e-9)
    stats = _stats([(m, m**-0.5) for m in (4, 8, 16, 32)])
    assert fit_loglog_slope(stats) == pytest.approx(-0.5, abs=1e-9)


def test_slope_excludes_zero_cells():
    stats = _stats([(4, 0.25), (8, 0.125), (16, 0.0625), (32, 0.0)])
    assert fit_loglog_slope(stats) == pytest.approx(-1.0, abs=1e-9)


def test_slope_needs_three_points():
    with pytest.raises(ValueError, match=">= 3"):
        fit_loglog_slope(_stats([(4, 0.1), (8, 0.05)]))
    with pytest.raises(ValueError, match=">= 3"):
        fit_loglog_slope(_stats([(4, 0.0), (8, 0.0), (16, 0.1), (32, 0.05)]))


# -------------------------------------------------------------------- emit_csv


def test_csv_header_only_when_empty(tmp_path):
    out = tmp_path / "r.csv"
    emit_csv([], out)
    assert out.read_text() == "estimator,m,median_rel_err,q25,q75,mean_matvecs\n"


def test_csv_single_row_format(tmp_path):
    row = TrialStats("hutch_pp", 48, 0.5, 0.25, 0.75, 48.0)
    out = tmp_path / "r.csv"
    emit_csv([row], out)
    assert out.read_text() == (
        "estimator,m,median_rel_err,q25,q75,mean_matvecs\n"
        "hutch_pp,48,0.5,0.25,0.75,48\n"
    )


def test_csv_rejects_a_fractional_budget_instead_of_truncating(tmp_path):
    row = TrialStats("hutchinson", 12.9, 0.1, 0.1, 0.1, 12.0)
    with pytest.raises(TypeError, match=r"\bm must be an integer"):
        emit_csv([row], tmp_path / "r.csv")


def test_csv_round_trips_exact_floats(tmp_path):
    vals = (1 / 3, math.pi * 1e-7, 2e-16)
    row = TrialStats("hutchinson", 12, *vals, 12.0)
    out = tmp_path / "r.csv"
    emit_csv([row], out)
    text = out.read_text()
    assert "\r" not in text
    fields = text.splitlines()[1].split(",")
    assert float(fields[2]) == vals[0]
    assert float(fields[3]) == vals[1]
    assert float(fields[4]) == vals[2]


def test_sweep_to_csv_is_byte_deterministic(tmp_path):
    spec = ExperimentSpec(
        PowerLawSource(exponent=1.0, dim=80),
        ("hutchinson", "hutch_pp"),
        (6, 12),
        trials=5,
        seed=13,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(spec), a)
    emit_csv(run_sweep(spec), b)
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------------- CLI


def test_cli_source_table_builds_each_source():
    # A flagless CLI source is the dataclass built from its required fields
    # alone, so the CLI's defaults are the sources' own; both Lanczos sources
    # share --lanczos-iters, so their defaults must agree too.
    expected = {
        "power_law": PowerLawSource(exponent=1.0),
        "kernel_logdet": KernelLogDetSource(n_points=400),
        "graph_estrada": GraphEstradaSource(path="g.txt"),
        "graph_triangles": GraphTrianglesSource(path="g.txt"),
    }
    assert list(cli._SOURCES) == list(expected)
    for name, source in expected.items():
        args = build_parser().parse_args(["--source", name, "--graph", "g.txt"])
        assert cli._SOURCES[name](args) == source


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "res.csv"
    rc = main(
        [
            "--source", "power_law", "--c", "1.5", "--d", "80",
            "--estimators", "hutchinson,hutch_pp",
            "--budgets", "6,12",
            "--trials", "4",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert f"wrote 4 row(s) to {out}" in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == "estimator,m,median_rel_err,q25,q75,mean_matvecs"
    assert len(lines) == 5
    assert lines[1].startswith("hutchinson,6,")


def test_cli_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    xy = synthetic_2d_points(30, rng=5).tolist()
    pts.write_text("# x y\n\n" + "".join(f"{x!r} {y!r}\n" for x, y in xy))
    out = tmp_path / "res.csv"
    args = ["--source", "kernel_logdet", "--estimators", "hutchinson",
            "--budgets", "4", "--trials", "2", "--lanczos-iters", "10",
            "--out", str(out)]
    assert main([*args, "--points-file", str(pts)]) == 0
    assert f"wrote 1 row(s) to {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "estimator,m,median_rel_err,q25,q75,mean_matvecs"
    assert len(lines) == 2 and lines[1].startswith("hutchinson,4,")
    out.unlink()
    bad = tmp_path / "bad.txt"
    bad.write_text("# h\n\n0 0\n1 x\n")
    assert main([*args, "--points-file", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 4, column 2: 'x' is not a number\n"
    assert not out.exists()


def test_cli_rejects_unknown_estimator(tmp_path, capsys):
    rc = main(
        ["--source", "power_law", "--estimators", "whatever",
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_graph_source_requires_graph_flag(tmp_path, capsys):
    rc = main(
        ["--source", "graph_estrada", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "--graph" in capsys.readouterr().err


def test_cli_rejects_malformed_budgets(tmp_path, capsys):
    rc = main(
        ["--source", "power_law", "--budgets", "8,sixteen",
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "--budgets" in capsys.readouterr().err


class _OutOfMemorySource:
    def materialize(self, seed):
        raise MemoryError("Unable to allocate 29.1 TiB for an array")


def test_cli_reports_a_source_out_of_memory(tmp_path, capsys, monkeypatch):
    # The source raises before it allocates, so the test allocates nothing.
    monkeypatch.setitem(cli._SOURCES, "huge", lambda args: _OutOfMemorySource())
    out = tmp_path / "x.csv"
    rc = main(["--source", "huge", "--budgets", "4", "--trials", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: Unable to allocate 29.1 TiB for an array\n"
    assert not out.exists()


def test_cli_unwritable_output(tmp_path, capsys):
    rc = main(
        ["--source", "power_law", "--d", "40", "--budgets", "4",
         "--trials", "2", "--out", str(tmp_path / "missing" / "x.csv")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_graph_pipeline(tmp_path, capsys):
    g = tmp_path / "k4.txt"
    g.write_text("# K4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    out = tmp_path / "tri.csv"
    rc = main(
        [
            "--source", "graph_triangles", "--graph", str(g),
            "--estimators", "hutchinson",
            "--budgets", "3,6",
            "--trials", "6",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3
