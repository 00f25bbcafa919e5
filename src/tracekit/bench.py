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

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from tracekit.estimators import ESTIMATORS, exact_trace, run_estimator
from tracekit.graph import (
    adjacency_operator,
    estrada_index_exact,
    load_edge_list,
    triangle_count_exact,
)
from tracekit.linop import DenseOperator, DiagonalOperator, LinearOperator
from tracekit.matfunc import exp_operator, power_operator, shifted_log_operator
from tracekit.synth import (
    SpectrumSpec,
    gaussian_kernel_matrix,
    load_points,
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

# Dense Estrada / triangle oracles are only used below these sizes; larger
# graphs get (cached) exact_trace on the wrapped operator instead.
_DENSE_ESTRADA_MAX = 2000
_TRIANGLE_ENUM_MAX = 5000


@dataclass(frozen=True)
class PowerLawSource:
    """Rotated (or, with rotate=False, exactly diagonal) power-law spectrum."""

    exponent: float
    dim: int = 1000
    rotate: bool = True

    def materialize(self, seed: int) -> tuple[LinearOperator, float]:
        """The source operator and its exact trace."""
        spec = SpectrumSpec(self.dim, self.exponent)
        if not self.rotate:
            return DiagonalOperator(spec.eigenvalues), spec.trace
        A, op = power_law_matrix(spec, _source_rng(seed))
        return op, float(np.trace(A))


@dataclass(frozen=True)
class KernelLogDetSource:
    """logdet(B + shift*I) for a Gaussian kernel on 2-d points.

    Points come from a coordinates file when points_path is set, otherwise
    n_points uniform draws in the unit square.
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
        sign, logabsdet = np.linalg.slogdet(B + self.shift * np.eye(B.shape[0]))
        if sign <= 0:
            raise ValueError("kernel + shift is not positive definite")
        op = shifted_log_operator(DenseOperator(B), self.shift, self.lanczos_iterations)
        return op, float(logabsdet)


@dataclass(frozen=True)
class GraphEstradaSource:
    """trace(exp(B)) for a graph adjacency matrix read from an edge list."""

    path: str
    lanczos_iterations: int = 40

    def materialize(self, seed: int) -> tuple[LinearOperator, float]:
        """The source operator and its exact trace."""
        g = load_edge_list(self.path)
        op = exp_operator(adjacency_operator(g), self.lanczos_iterations)
        if g.node_count <= _DENSE_ESTRADA_MAX:
            return op, estrada_index_exact(g)
        label = f"estrada_lanczos{self.lanczos_iterations}"
        return op, _cached_exact_trace(self.path, label, op)


@dataclass(frozen=True)
class GraphTrianglesSource:
    """trace(B^3) for a graph adjacency matrix (6x the triangle count)."""

    path: str

    def materialize(self, seed: int) -> tuple[LinearOperator, float]:
        """The source operator and its exact trace."""
        g = load_edge_list(self.path)
        op = power_operator(adjacency_operator(g), 3)
        if g.node_count <= _TRIANGLE_ENUM_MAX:
            return op, 6.0 * triangle_count_exact(g)
        return op, _cached_exact_trace(self.path, "adjacency_cubed", op)


MatrixSource = Union[
    PowerLawSource, KernelLogDetSource, GraphEstradaSource, GraphTrianglesSource
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark sweep: source x estimators x budgets, `trials` deep.

    The source is anything with ``materialize(seed) -> (operator, trace)``.
    """

    source: MatrixSource
    estimators: tuple[str, ...]
    budgets: tuple[int, ...]
    trials: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "budgets", tuple(int(m) for m in self.budgets))
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown:
            raise ValueError(
                f"unknown estimators {unknown!r}; valid: {', '.join(ESTIMATORS)}"
            )
        if not self.estimators:
            raise ValueError("need at least one estimator")
        if not self.budgets:
            raise ValueError("need at least one budget")
        if any(b <= a for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError(f"budgets must be strictly ascending, got {self.budgets}")
        if int(self.trials) < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "trials", int(self.trials))


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
        np.random.SeedSequence(seed, spawn_key=(1, idx, int(m), int(trial)))
    )


def _cached_exact_trace(path, label: str, op: LinearOperator) -> float:
    """exact_trace of op, cached in a JSON file beside `path`.

    Entries are keyed on the sha256 of the file's bytes plus `label`, so an
    edited file never reuses an old value; the cache is replaced atomically.
    """
    path = Path(path)
    key = f"{hashlib.sha256(path.read_bytes()).hexdigest()}:{label}"
    cache_path = path.with_name(path.name + ".trace-cache.json")
    try:
        cache = json.loads(cache_path.read_text())
    except (OSError, json.JSONDecodeError):
        cache = {}
    if key in cache:
        return float(cache[key])
    logger.info("computing exact ground truth for %s (%s); this is O(d) matvecs",
                path, label)
    cache[key] = value = exact_trace(op.clone()).value
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=cache_path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(cache, fh, indent=1, sort_keys=True)
        os.replace(tmp, cache_path)
    except OSError:
        logger.warning("could not write ground-truth cache %s", cache_path)
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
    return value


def run_sweep(spec: ExperimentSpec) -> list[TrialStats]:
    """Run the full sweep; one TrialStats row per valid (estimator, m) cell.

    A budget the estimator's budget rule rejects is logged and its cell
    skipped before any trial runs; any other failure propagates.  Quartiles
    use linear interpolation between order statistics.
    """
    op, truth = spec.source.materialize(spec.seed)
    if truth == 0.0:
        raise ValueError("ground-truth trace is zero; relative error is undefined")
    rows: list[TrialStats] = []
    for estimator in spec.estimators:
        for m in spec.budgets:
            try:
                ESTIMATORS[estimator].split(m)
            except ValueError as exc:
                logger.warning("skipping %s at m=%d: %s", estimator, m, exc)
                continue
            errors = np.empty(spec.trials)
            matvecs = np.empty(spec.trials)
            for t in range(spec.trials):
                result = run_estimator(
                    op.clone(), estimator, m, _trial_rng(spec.seed, estimator, m, t)
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

    destination is a path or a file-like object with write().
    """
    lines = [_CSV_HEADER]
    for s in stats:
        lines.append(
            ",".join(
                [
                    s.estimator,
                    str(int(s.m)),
                    _fmt(s.median_rel_err),
                    _fmt(s.q25_rel_err),
                    _fmt(s.q75_rel_err),
                    _fmt(s.mean_matvecs),
                ]
            )
        )
    content = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(content)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(content)
