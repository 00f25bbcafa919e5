"""Self-tests of the benchmark: generator, span arithmetic, gate, tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from gate import check_csv  # noqa: E402
from graphgen import count_triangles, geometric_edges, write_geometric_graph  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

# --- graph generator --------------------------------------------------------


def test_generator_is_deterministic_in_its_seed(tmp_path):
    a = write_geometric_graph(tmp_path / "a.txt", 400, 8.0, seed=11)
    b = write_geometric_graph(tmp_path / "b.txt", 400, 8.0, seed=11)
    c = write_geometric_graph(tmp_path / "c.txt", 400, 8.0, seed=12)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert a == b
    assert (tmp_path / "a.txt").read_bytes() != (tmp_path / "c.txt").read_bytes()
    assert a.edges > 0 and a.triangles > 0


def test_generator_stats_match_the_parsed_graph(tmp_path):
    from tracekit.graph import load_edge_list, triangle_count_exact

    stats = write_geometric_graph(tmp_path / "g.txt", 300, 10.0, seed=3)
    g = load_edge_list(tmp_path / "g.txt")
    assert (g.node_count, g.edge_count) == (stats.nodes, stats.edges)
    assert triangle_count_exact(g) == stats.triangles


def test_triangle_count_on_a_known_graph():
    # Two triangles sharing the edge (1, 2), plus a pendant edge.
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
    assert count_triangles(np.asarray(edges, dtype=np.int64)) == 2


def test_edges_are_sorted_and_simple():
    edges, _ = geometric_edges(500, 12.0, seed=5)
    assert (edges[:, 0] < edges[:, 1]).all()
    assert [tuple(e) for e in edges.tolist()] == sorted(set(map(tuple, edges.tolist())))


# --- span arithmetic ---------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.child", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_split_set_up_from_trials():
    op = object()
    spans = [
        Span("bench.run_sweep", -1, 0.0, 10.0),
        Span("synth.power_law_matrix", 0, 0.0, 2.0),
        Span("linop.orthonormalize", 1, 0.5, 1.5, (3, 4.0, 2.0, False)),
        Span("linop.LinearOperator.clone", 0, 2.1, 2.2),
        Span("estimators.run_estimator", 0, 2.3, 5.0),
        Span("estimators.hutchinson", 4, 2.4, 4.9),
        Span("linop.sample_probes", 5, 2.5, 2.7, 30),
        Span("linop.LinearOperator.matmat", 5, 3.0, 4.5, (op, 3)),
        Span("linop.DenseOperator._apply_block", 7, 3.1, 4.4, (3, 60.0, 24.0)),
        Span("bench.emit_csv", -1, 10.0, 10.5),
    ]
    layers = layer_metrics(spans, boundary=3.0)
    m = layers.metrics
    assert m["synth.power_law_matrix.s"] == pytest.approx(2.0)
    assert m["synth.self_s"] == pytest.approx(1.0)
    assert m["linop.orthonormalize.calls"] == 0  # inside set-up
    assert m["linop.sample_probes.calls"] == 1  # before the boundary, inside a trial
    assert m["linop.sample_probes.entries"] == 30
    assert m["linop.clone.calls"] == 1
    assert m["linop.matmat.outer.cols"] == 3
    assert m["linop.dense_gemm.gflops_computed"] == pytest.approx(60.0 / 1.3 / 1e9)
    assert m["linop.dense_gemm.flop_per_byte_computed"] == pytest.approx(2.5)
    assert m["estimators.hutchinson.self_s"] == pytest.approx(2.5 - 0.2 - 1.5)
    assert m["bench.trial_loop.self_s"] == pytest.approx((10.0 - 3.0) - (5.0 - 3.0))
    assert m["bench.emit_csv.s"] == pytest.approx(0.5)
    assert layers.trial_ms == pytest.approx([2700.0])
    assert layers.inner_query_cols == 0


# --- correctness gate ----------------------------------------------------------

REFERENCE = (
    "estimator,m,median_rel_err,q25,q75,mean_matvecs\n"
    "hutchinson,30,0.012345678901234567,0.01,0.02,30\n"
    "hutch_pp,30,0.0012345678901234567,0.001,0.002,30\n"
)
CELLS = [("hutchinson", 30), ("hutch_pp", 30)]


def test_gate_accepts_the_reference_and_rounding_noise():
    assert check_csv(REFERENCE, REFERENCE, CELLS).ok
    nudged = REFERENCE.replace("0.012345678901234567", repr(0.012345678901234567 * (1 + 1e-14)))
    assert check_csv(nudged, REFERENCE, CELLS).ok


def test_gate_rejects_a_perturbed_csv():
    perturbed = REFERENCE.replace("0.0012345678901234567", "0.0012345678901")
    result = check_csv(perturbed, REFERENCE, CELLS)
    assert (result.attempted, result.failed, result.ok) == (2, 1, False)
    assert "hutch_pp m=30" in result.problems[0]


def test_gate_rejects_changed_matvecs_and_nan():
    fewer = REFERENCE.replace("0.002,30", "0.002,29")
    assert check_csv(fewer, REFERENCE, CELLS).failed == 1
    nan = REFERENCE.replace("0.01,0.02", "nan,0.02")
    assert check_csv(nan, REFERENCE, CELLS).failed == 1


def test_gate_rejects_a_skipped_cell_and_an_extra_row():
    skipped = "\n".join(REFERENCE.splitlines()[:2]) + "\n"
    result = check_csv(skipped, REFERENCE, CELLS)
    assert result.failed == 1 and "skipped" in result.problems[0]
    extra = REFERENCE + "na_hutch_pp,30,0.1,0.1,0.1,28\n"
    result = check_csv(extra, REFERENCE, CELLS)
    assert result.failed == 0 and not result.ok


def test_gate_treats_an_unreadable_csv_as_all_failed():
    result = check_csv("not,a,csv\n", REFERENCE, CELLS)
    assert result.failed == 2 and not result.ok


# --- run.py on a tiny real sweep ------------------------------------------------


def _tiny_spec():
    from tracekit.bench import ExperimentSpec, PowerLawSource

    return ExperimentSpec(
        source=PowerLawSource(exponent=0.5, dim=60),
        estimators=("hutchinson", "hutch_pp", "na_hutch_pp"),
        budgets=(12, 24),
        trials=3,
        seed=4,
    )


def test_traced_rep_counts_outer_matvecs_exactly_and_restores_the_package(tmp_path):
    from tracekit import bench
    from tracekit.estimators import orthonormalize as before

    spec = _tiny_spec()
    bench.emit_csv(bench.run_sweep(spec), tmp_path / "ref.csv")
    reference = (tmp_path / "ref.csv").read_text()
    plain = run.run_rep(spec, tmp_path, reference)
    traced = run.run_rep(spec, tmp_path, reference, Tracer())
    assert plain.problems == [] and traced.problems == []
    assert traced.layers.metrics["linop.matmat.outer.cols"] == plain.outer_matvecs == 3 * (
        12 + 24 + 12 + 24 + 12 + 24
    )
    from tracekit.estimators import orthonormalize as after

    assert after is before and not hasattr(bench.run_sweep, "__wrapped__")


def test_printed_metrics_match_benchmark_json(tmp_path):
    from tracekit import bench

    spec = _tiny_spec()
    bench.emit_csv(bench.run_sweep(spec), tmp_path / "ref.csv")
    reference = (tmp_path / "ref.csv").read_text()
    reps = [
        run.run_rep(spec, tmp_path, reference, Tracer() if i % 2 else None) for i in range(4)
    ]
    for kind, reduce in (("end_to_end", run.end_to_end), ("per_layer", run.per_layer)):
        printed = reduce(reps, 12, 0)
        assert set(printed) == {m["name"] for m in run.BENCHMARK[kind]}
        assert all(isinstance(v["value"], (int, float)) for v in printed.values())


def test_workload_names_match_benchmark_json():
    from workloads import WORKLOADS

    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_slow_decile_takes_the_slow_end():
    times = [float(t) for t in range(1, 12)]
    assert run.slow_decile(times) == 10.0
    assert run.slow_decile(times, "higher") == 2.0


def test_setup_clock_fires_once_and_restores():
    from tracekit.linop import DenseOperator, LinearOperator

    original = vars(LinearOperator)["matmat"]
    op = DenseOperator([[2.0, 0.0], [0.0, 3.0]])
    with run.SetupClock(LinearOperator) as clock:
        assert clock.at is None
        op.matmat([[1.0], [1.0]])
        first = clock.at
        assert vars(LinearOperator)["matmat"] is original
        op.matvec([1.0, 1.0])
    assert clock.at == first is not None


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "powerlaw_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
