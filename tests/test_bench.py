"""Sweep harness, CSV emission, slope fitting, and the CLI entry point."""

import io
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
    _cached_exact_trace,
    run_sweep,
)
from tracekit.cli import main
from tracekit.linop import DiagonalOperator, LinearOperator


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


def test_spec_validation():
    src = PowerLawSource(exponent=1.0, dim=50)
    with pytest.raises(ValueError, match="unknown estimator"):
        ExperimentSpec(src, ("hutchinson", "magic"), (8,), 3)
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
        (8, 10),
        trials=4,
        seed=2,
    )
    with caplog.at_level("WARNING"):
        rows = run_sweep(spec)
    cells = {(r.estimator, r.m) for r in rows}
    # m=8 is not 2 mod 4: that one cell drops, everything else stays.
    assert cells == {("hutch_pp_gauss", 10), ("hutchinson", 8), ("hutchinson", 10)}
    assert any("skipping hutch_pp_gauss at m=8" in rec.getMessage()
               for rec in caplog.records)


class _NanOperator(LinearOperator):
    def _apply_block(self, X):
        return np.full(X.shape, np.nan)


class _NanSource:
    def materialize(self, seed):
        return _NanOperator(30), 1.0


def test_sweep_fails_loudly_mid_cell():
    # A valid budget whose trials fail is an error, not a skipped cell.
    spec = ExperimentSpec(_NanSource(), ("hutch_pp",), (6, 12), trials=2)
    with pytest.raises(ValueError, match="non-finite"):
        run_sweep(spec)


def test_cached_exact_trace_is_keyed_on_file_contents(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    assert _cached_exact_trace(p, "diag", DiagonalOperator([1.0, 2.0])) == 3.0
    # Same bytes: the cached value is returned without querying the operator.
    assert _cached_exact_trace(p, "diag", DiagonalOperator([5.0, 5.0])) == 3.0
    p.write_text("0 1\n1 2\n")
    assert _cached_exact_trace(p, "diag", DiagonalOperator([5.0, 5.0])) == 10.0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "g.txt", "g.txt.trace-cache.json"
    ]  # no temporary file left behind


def test_sweep_rejects_zero_trace_truth(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n")  # path graph: no triangles, trace(B^3) = 0
    spec = ExperimentSpec(
        GraphTrianglesSource(path=str(p)), ("hutchinson",), (4,), trials=2
    )
    with pytest.raises(ValueError, match="zero"):
        run_sweep(spec)


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


def test_csv_header_only_when_empty():
    buf = io.StringIO()
    emit_csv([], buf)
    assert buf.getvalue() == "estimator,m,median_rel_err,q25,q75,mean_matvecs\n"


def test_csv_single_row_format():
    row = TrialStats("hutch_pp", 48, 0.5, 0.25, 0.75, 48.0)
    buf = io.StringIO()
    emit_csv([row], buf)
    assert buf.getvalue() == (
        "estimator,m,median_rel_err,q25,q75,mean_matvecs\n"
        "hutch_pp,48,0.5,0.25,0.75,48\n"
    )


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


def test_csv_path_and_filelike_agree(tmp_path):
    rows = _stats([(4, 0.25), (8, 0.125)])
    out = tmp_path / "a.csv"
    emit_csv(rows, out)
    buf = io.StringIO()
    emit_csv(rows, buf)
    assert out.read_text() == buf.getvalue()


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
