"""The four benchmark workloads: one ``trace-bench`` sweep each.

Every workload is a single-process closed loop: the next sweep starts when
the previous one has returned and written its CSV.  The inputs depend only on
the input seed; graph workloads write a fresh generated edge list into the
run's own work directory, so no ground-truth cache can be read or reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from graphgen import write_geometric_graph
from tracekit.bench import (
    ExperimentSpec,
    GraphEstradaSource,
    GraphTrianglesSource,
    KernelLogDetSource,
    PowerLawSource,
)

ESTIMATORS = ("hutchinson", "hutch_pp", "na_hutch_pp")

#: Inputs repeat with period REFERENCE_SEEDS so that every run has a recorded
#: reference CSV to be checked against.
REFERENCE_SEEDS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    budgets: tuple[int, ...]
    trials: int
    # (input seed, work directory) -> (matrix source, facts about the inputs)
    make_source: Callable[[int, Path], tuple[object, dict]]

    def spec(self, input_seed: int, workdir: Path) -> tuple[ExperimentSpec, dict]:
        source, facts = self.make_source(input_seed, workdir)
        spec = ExperimentSpec(
            source=source,
            estimators=ESTIMATORS,
            budgets=self.budgets,
            trials=self.trials,
            seed=input_seed,
        )
        return spec, facts


def _power_law(seed: int, workdir: Path):
    return PowerLawSource(exponent=0.5, dim=1000, rotate=True), {"dim": 1000}


def _kernel(seed: int, workdir: Path):
    source = KernelLogDetSource(
        n_points=1000, gamma=64.0, shift=0.008, lanczos_iterations=40
    )
    return source, {"dim": 1000}


def _graph(n: int, mean_degree: float, make):
    def build(seed: int, workdir: Path):
        path = workdir / f"graph-{seed}.txt"
        stats = write_geometric_graph(path, n, mean_degree, seed)
        facts = {
            "graph_nodes": stats.nodes,
            "graph_edges": stats.edges,
            "graph_triangles": stats.triangles,
            "graph_radius": stats.radius,
        }
        return make(str(path)), facts

    return build


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="powerlaw_dense",
            budgets=(30, 60, 120, 240, 480),
            trials=8,
            make_source=_power_law,
        ),
        Workload(
            name="kernel_logdet",
            budgets=(12, 24, 48),
            trials=1,
            make_source=_kernel,
        ),
        Workload(
            name="graph_estrada",
            budgets=(12, 24, 48),
            trials=2,
            make_source=_graph(
                1500, 12.0, lambda p: GraphEstradaSource(path=p, lanczos_iterations=40)
            ),
        ),
        Workload(
            name="graph_triangles",
            budgets=(30, 60, 120, 240),
            trials=3,
            make_source=_graph(4000, 50.0, lambda p: GraphTrianglesSource(path=p)),
        ),
    )
}
