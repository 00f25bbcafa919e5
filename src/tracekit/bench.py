"""Error-vs-budget experiment harness with CSV output.

An :class:`ExperimentSpec` names a matrix source, a set of estimators, an
ascending budget grid, a trial count, and a base seed.  :func:`run_sweep`
materializes the source once, computes its exact trace, runs every
(estimator, budget) cell for `trials` independently seeded repetitions, and
reduces each cell to median / quartile relative error plus the mean matvec
spend.  Results are deterministic in the base seed regardless of estimator
subset or execution order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from tracekit.estimators import ESTIMATORS, run_estimator
from tracekit.graph import (
    AdjacencyOperator,
    estrada_index_exact,
    load_edge_list,
    triangle_count_exact,
)
from tracekit.linop import DenseOperator, DiagonalOperator, LinearOperator
from tracekit.linop import _require_finite, _size
from tracekit.matfunc import PowerOperator, exp_operator, shifted_log_operator
from tracekit.synth import (
    gaussian_kernel_matrix,
    load_points,
    power_law_eigenvalues,
    power_law_matrix,
    synthetic_2d_points,
)

logger = logging.getLogger(__name__)

__all__ = [
    "PowerLawSource",
    "KernelLogDetSource",
    "GraphEstradaSource",
    "GraphTrianglesSource",
    "MatrixSource",
    "ExperimentSpec",
    "TrialStats",
    "run_sweep",
    "fit_loglog_slope",
    "emit_csv",
]

@dataclass(frozen=True)
class PowerLawSource:
    """Rotated (or, with rotate=False, exactly diagonal) power-law spectrum."""

    exponent: float
    dim: int = 1000
    rotate: bool = True

    def materialize(self, seed: int) -> tuple[LinearOperator, float]:
        """The source operator and its exact trace."""
        if not self.rotate:
            lam = power_law_eigenvalues(self.dim, self.exponent)
            return DiagonalOperator(lam), float(lam.sum())
        A, op = power_law_matrix(self.dim, self.exponent, _source_rng(seed))
        return op, float(np.trace(A))


@dataclass(frozen=True)
class KernelLogDetSource:
    """logdet(B + shift*I) for a Gaussian kernel on 2-d points.

    Points come from a coordinates file when points_path is set, otherwise
    n_points uniform draws in the unit square.  The exact log-det shifts the
    kernel's own diagonal for one slogdet and then restores it, so the truth
    holds one LAPACK copy beside the kernel (2 n^2 doubles).
    """

    n_points: int
    gamma: float = 64.0
    shift: float = 0.008
    lanczos_iterations: int = 40
    points_path: str | None = None

    def materialize(self, seed: int) -> tuple[LinearOperator, float]:
        """The source operator and its exact trace."""
        if self.points_path is not None:
            pts = load_points(self.points_path)
        else:
            pts = synthetic_2d_points(self.n_points, _source_rng(seed))
        B = gaussian_kernel_matrix(pts, self.gamma)
        op = shifted_log_operator(DenseOperator(B), self.shift, self.lanczos_iterations)
        # The kernel's diagonal is exactly 1.0 and every other entry is
        # exp(.) >= +0, so B + shift*I is B with 1.0 + shift on the diagonal,
        # bit for bit.  No query runs before the diagonal is restored.
        np.fill_diagonal(B, 1.0 + float(self.shift))
        try:
            sign, logabsdet = np.linalg.slogdet(B)
        finally:
            np.fill_diagonal(B, 1.0)
        if not sign > 0:
            raise ValueError("kernel + shift is not positive definite")
        return op, float(logabsdet)


@dataclass(frozen=True)
class GraphEstradaSource:
    """trace(exp(B)) for a graph adjacency matrix read from an edge list; the dense
    truth holds one n x n float64 copy, 8n**2 bytes (128 MB at 4,000 nodes)."""

    path: str
    lanczos_iterations: int = 40

    def materialize(self, seed: int) -> tuple[LinearOperator, float]:
        """The source operator and its exact trace."""
        g = load_edge_list(self.path)
        op = exp_operator(AdjacencyOperator(g), self.lanczos_iterations)
        return op, estrada_index_exact(g)


@dataclass(frozen=True)
class GraphTrianglesSource:
    """trace(B^3) for a graph adjacency matrix (6x the triangle count)."""

    path: str

    def materialize(self, seed: int) -> tuple[LinearOperator, float]:
        """The source operator and its exact trace."""
        g = load_edge_list(self.path)
        op = PowerOperator(AdjacencyOperator(g), 3)
        return op, 6.0 * triangle_count_exact(g)


class MatrixSource(Protocol):
    """The operator and its exact trace, computed with no operator query."""

    def materialize(self, seed: int) -> tuple[LinearOperator, float]: ...


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark sweep: source x estimators x budgets, `trials` deep.

    Budgets, trials and seed must be integers; a float raises TypeError.
    Estimators must not repeat, budgets must be strictly ascending, and the
    largest budget must reach every estimator's minimum.
    """

    source: MatrixSource
    estimators: tuple[str, ...]
    budgets: tuple[int, ...]
    trials: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(
            self, "budgets", tuple(_size(m, "budget") for m in self.budgets)
        )
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown:
            raise ValueError(
                f"unknown estimators {unknown!r}; valid: {', '.join(ESTIMATORS)}"
            )
        if not self.estimators:
            raise ValueError("need at least one estimator")
        repeated = sorted({e for e in self.estimators if self.estimators.count(e) > 1})
        if repeated:
            raise ValueError(f"estimators must not repeat, got {repeated!r} more than once")
        if not self.budgets:
            raise ValueError("need at least one budget")
        if any(b <= a for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError(f"budgets must be strictly ascending, got {self.budgets}")
        # A rule that accepts m accepts m + 1: the largest budget decides
        # whether an estimator runs anywhere on the grid.
        for e in self.estimators:
            try:
                ESTIMATORS[e](self.budgets[-1])
            except ValueError as exc:
                raise ValueError(f"no budget in the grid can run {e}: {exc}") from None
        object.__setattr__(self, "trials", _size(self.trials, "trials"))
        object.__setattr__(self, "seed", _size(self.seed, "seed", minimum=0))


@dataclass(frozen=True)
class TrialStats:
    """Per-cell summary: quartiles of relative error and mean budget spent."""

    estimator: str
    m: int
    median_rel_err: float
    q25_rel_err: float
    q75_rel_err: float
    mean_matvecs: float


def _source_rng(seed: int) -> np.random.Generator:
    # The matrix/points draw gets its own child so trial seeds never collide.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _trial_rng(seed: int, estimator: str, m: int, trial: int) -> np.random.Generator:
    # Stable realization of hash(base_seed, estimator, m, trial): the
    # registry index keys the estimator, so results do not depend on which
    # subset the user requested or its order.
    idx = list(ESTIMATORS).index(estimator)
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(1, idx, m, trial))
    )


def run_sweep(spec: ExperimentSpec) -> list[TrialStats]:
    """Run the full sweep; one TrialStats row per valid (estimator, m) cell.

    A budget below the estimator's minimum is logged and its cell skipped
    before any trial runs; any other failure propagates.  Quartiles
    use linear interpolation between order statistics.
    """
    op, truth = spec.source.materialize(spec.seed)
    _require_finite(truth, "ground-truth trace")
    if truth == 0.0:
        raise ValueError("ground-truth trace is zero; relative error is undefined")
    rows: list[TrialStats] = []
    for estimator in spec.estimators:
        for m in spec.budgets:
            try:
                ESTIMATORS[estimator](m)
            except ValueError as exc:
                logger.warning("skipping %s at m=%d: %s", estimator, m, exc)
                continue
            errors = np.empty(spec.trials)
            matvecs = np.empty(spec.trials)
            for t in range(spec.trials):
                result = run_estimator(
                    op, estimator, m, _trial_rng(spec.seed, estimator, m, t)
                )
                errors[t] = abs(result.value - truth) / abs(truth)
                matvecs[t] = result.matvecs_used
            q25, med, q75 = np.percentile(errors, [25.0, 50.0, 75.0])
            rows.append(
                TrialStats(
                    estimator=estimator,
                    m=m,
                    median_rel_err=float(med),
                    q25_rel_err=float(q25),
                    q75_rel_err=float(q75),
                    mean_matvecs=float(matvecs.mean()),
                )
            )
    return rows


def fit_loglog_slope(stats: list[TrialStats]) -> float:
    """Least-squares slope of log(median error) against log(budget).

    Cells with zero median error carry no log-scale information; they are
    excluded (and noted).  Needs at least three usable points.
    """
    usable = [s for s in stats if s.median_rel_err > 0.0]
    dropped = len(stats) - len(usable)
    if dropped:
        logger.info("fit_loglog_slope: excluded %d zero-error cell(s)", dropped)
    if len(usable) < 3:
        raise ValueError(
            f"need >= 3 budgets with positive median error, have {len(usable)}"
        )
    x = np.log([s.m for s in usable])
    y = np.log([s.median_rel_err for s in usable])
    return float(np.polyfit(x, y, 1)[0])


_CSV_HEADER = "estimator,m,median_rel_err,q25,q75,mean_matvecs"


def _fmt(x: float) -> str:
    # 17 significant digits: decimal round-trips to the exact float.
    return format(float(x), ".17g")


def emit_csv(stats: list[TrialStats], destination) -> None:
    """Write sweep rows as CSV (LF endings, >= 12 significant digits).

    destination is a file path; an existing file is overwritten.
    """
    lines = [_CSV_HEADER]
    for s in stats:
        lines.append(
            ",".join(
                [
                    s.estimator,
                    str(_size(s.m, "TrialStats.m")),
                    _fmt(s.median_rel_err),
                    _fmt(s.q25_rel_err),
                    _fmt(s.q75_rel_err),
                    _fmt(s.mean_matvecs),
                ]
            )
        )
    with open(destination, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
