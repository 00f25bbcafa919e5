"""Stochastic trace estimators driven by a matvec budget m.

All estimators consume a :class:`~tracekit.linop.LinearOperator` and report
the exact number of matrix-vector queries spent.  ``hutchinson`` is the
classic unbiased quadratic-form average; ``hutch_pp`` and ``hutch_pp_gauss``
reduce its variance by projecting out a sketched dominant subspace and
estimating only the deflated remainder; ``na_hutch_pp`` achieves the same
with a single non-adaptive batch of queries; ``subspace_projection`` is the
biased projection-only baseline, and ``exact_trace`` spends d queries on the
standard basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tracekit.linop import (
    Distribution,
    LinearOperator,
    as_generator,
    orthonormalize,
    pseudoinverse,
    sample_probes,
)

__all__ = [
    "TraceEstimate",
    "ESTIMATORS",
    "hutchinson",
    "hutch_pp",
    "na_hutch_pp",
    "na_hutch_pp_probes",
    "hutch_pp_gauss",
    "subspace_projection",
    "exact_trace",
    "run_estimator",
]

DEFAULT_FRACTIONS = (0.25, 0.5, 0.25)


@dataclass(frozen=True)
class TraceEstimate:
    """Result of one estimator run.

    ``matvecs_used`` equals the operator's query-count delta across the call,
    exactly.  ``split`` records how the budget was spent (column counts per
    phase); ``basis`` entries may be smaller than the sketch size when the
    sketch was rank-deficient.
    """

    value: float
    matvecs_used: int
    estimator: str
    split: dict[str, int] = field(default_factory=dict)


# Budget rules: each maps a budget m to the column counts its estimator
# spends, or raises ValueError when the estimator cannot use m.  The
# estimator and the registry below call the same rule.


def _hutchinson_split(m: int) -> int:
    if int(m) < 1:
        raise ValueError(f"hutchinson needs m >= 1 probes, got {m}")
    return int(m)


def _hutch_pp_split(m: int) -> int:
    if int(m) < 3:
        raise ValueError(f"hutch_pp needs m >= 3 (one probe per phase), got {m}")
    return int(m) // 3


def _hutch_pp_gauss_split(m: int) -> tuple[int, int]:
    m = int(m)
    if m < 6 or m % 4 != 2:
        rem = (m - 2) % 4
        lower = m - rem
        upper = lower + 4
        if upper < 6:
            upper = 6
        nearest = f"{lower} and {upper}" if lower >= 6 else f"{upper}"
        raise ValueError(
            f"hutch_pp_gauss needs m = 2 (mod 4) and m >= 6, got {m}; "
            f"nearest valid budgets: {nearest}"
        )
    return (m + 2) // 4, (m - 2) // 2


def _na_hutch_pp_split(m: int, fractions=DEFAULT_FRACTIONS) -> tuple[int, int, int]:
    if len(fractions) != 3:
        raise ValueError(f"expected three split fractions, got {fractions!r}")
    c1, c2, c3 = (float(c) for c in fractions)
    if min(c1, c2, c3) <= 0.0:
        raise ValueError(f"split fractions must all be positive, got {fractions!r}")
    if not c1 < c2:
        raise ValueError(f"split fractions require c1 < c2, got {fractions!r}")
    if abs(c1 + c2 + c3 - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions!r}")
    m = int(m)
    # The epsilon absorbs binary representation error in the fractions
    # (0.15 * 20 = 2.999...96 must floor to 3, not 2).
    n1 = math.floor(c1 * m + 1e-9)
    n2 = math.floor(c2 * m + 1e-9)
    n3 = math.floor(c3 * m + 1e-9)
    if min(n1, n2, n3) < 1:
        raise ValueError(
            f"budget m={m} with fractions {fractions!r} leaves an empty probe "
            f"block (floors: {n1}, {n2}, {n3}); increase m"
        )
    return n1, n2, n3


def _subspace_projection_split(m: int) -> int:
    if int(m) < 2:
        raise ValueError(f"subspace_projection needs a budget of >= 2 matvecs, got {m}")
    return int(m) // 2


def _trace_inner(X: np.ndarray, Y: np.ndarray) -> float:
    # trace(X^T Y) = sum of elementwise products.
    return float(np.einsum("ij,ij->", X, Y))


def hutchinson(
    op: LinearOperator,
    m: int,
    distribution: Distribution | str = Distribution.RADEMACHER,
    rng=None,
) -> TraceEstimate:
    """Plain Hutchinson estimate (1/m) * sum_i g_i^T A g_i with m probes.

    Unbiased for any distribution with i.i.d. zero-mean unit-variance
    entries.  Rademacher probes are exact on diagonal operators since
    g_i^2 = 1 entrywise.
    """
    m = _hutchinson_split(m)
    gen = as_generator(rng)
    G = sample_probes(op.dim, m, distribution, gen).entries
    before = op.query_count
    Y = op.matmat(G)
    value = _trace_inner(G, Y) / m
    return TraceEstimate(
        value=value,
        matvecs_used=op.query_count - before,
        estimator="hutchinson",
        split={"probes": m},
    )


def _deflated_estimate(
    op: LinearOperator,
    S: np.ndarray,
    G: np.ndarray,
    estimator: str,
) -> TraceEstimate:
    # Shared core of hutch_pp and hutch_pp_gauss: project out the span of
    # A*S exactly, then run Hutchinson on the deflated remainder.  The
    # deflated quadratic form g^T (I-QQ^T) A (I-QQ^T) g needs only one
    # multiply per probe because (I-QQ^T) is idempotent: deflate g first,
    # then apply A.
    before = op.query_count
    AS = op.matmat(S)
    Q = orthonormalize(AS)
    r = Q.shape[1]
    if r > 0:
        AQ = op.matmat(Q)
        leading = _trace_inner(Q, AQ)
        G_def = G - Q @ (Q.T @ G)
    else:
        leading = 0.0
        G_def = G
    AG = op.matmat(G_def)
    residual = _trace_inner(G_def, AG) / G.shape[1]
    return TraceEstimate(
        value=leading + residual,
        matvecs_used=op.query_count - before,
        estimator=estimator,
        split={"sketch": S.shape[1], "basis": r, "residual": G.shape[1]},
    )


def hutch_pp(
    op: LinearOperator,
    m: int,
    distribution: Distribution | str = Distribution.RADEMACHER,
    rng=None,
) -> TraceEstimate:
    """Variance-reduced trace estimate with budget m split three ways.

    With b = floor(m/3): draws sketch probes S and residual probes G (d x b
    each, independent streams), forms Q = orthonormalize(A S), and returns

        trace(Q^T A Q) + (1/b) * sum_j <g_j, A g_j>,  g_j = (I - QQ^T) G_j.

    The first term is the exact trace of A restricted to the captured
    subspace; the second is Hutchinson on the deflated remainder, so the
    estimate stays unbiased.  Spends 3b matvecs (A S, A Q, A G_def); if the
    sketch is rank-deficient the A Q block shrinks and matvecs_used reports
    the true count.
    """
    b = _hutch_pp_split(m)
    gen = as_generator(rng)
    g_sketch, g_resid = gen.spawn(2)
    S = sample_probes(op.dim, b, distribution, g_sketch).entries
    G = sample_probes(op.dim, b, distribution, g_resid).entries
    return _deflated_estimate(op, S, G, "hutch_pp")


def hutch_pp_gauss(op: LinearOperator, m: int, rng=None) -> TraceEstimate:
    """Gaussian-sketch variant of hutch_pp with an exact budget of m matvecs.

    Requires m = 2 (mod 4) and m >= 6 so the split is integral: the sketch S
    is Gaussian with (m+2)/4 columns (spent twice: A S and A Q), the
    residual probes G are Rademacher with (m-2)/2 columns, and the residual
    average uses the factor 2/(m-2).
    """
    n_sketch, n_resid = _hutch_pp_gauss_split(m)
    gen = as_generator(rng)
    g_sketch, g_resid = gen.spawn(2)
    S = sample_probes(op.dim, n_sketch, Distribution.GAUSSIAN, g_sketch).entries
    G = sample_probes(op.dim, n_resid, Distribution.RADEMACHER, g_resid).entries
    return _deflated_estimate(op, S, G, "hutch_pp_gauss")


def na_hutch_pp_probes(
    d: int,
    m: int,
    fractions=DEFAULT_FRACTIONS,
    distribution: Distribution | str = Distribution.RADEMACHER,
    rng=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (S, R, G) probe blocks na_hutch_pp will use for this seed.

    Exposed so callers (and the non-adaptivity test) can reconstruct every
    query vector from the seed alone, before any operator output exists.
    Column counts are floor(c_i * m), each required >= 1; leftover budget is
    discarded.
    """
    n1, n2, n3 = _na_hutch_pp_split(m, fractions)
    gen = as_generator(rng)
    g1, g2, g3 = gen.spawn(3)
    S = sample_probes(d, n1, distribution, g1).entries
    R = sample_probes(d, n2, distribution, g2).entries
    G = sample_probes(d, n3, distribution, g3).entries
    return S, R, G


def na_hutch_pp(
    op: LinearOperator,
    m: int,
    fractions=DEFAULT_FRACTIONS,
    distribution: Distribution | str = Distribution.RADEMACHER,
    rng=None,
) -> TraceEstimate:
    """Non-adaptive variance-reduced trace estimate.

    Splits the budget into blocks S (n1 = floor(c1*m) columns), R (n2 =
    floor(c2*m)), G (n3 = floor(c3*m)), samples all of them up front, and
    issues exactly one batched multiply [S | R | G] -> [W | Z | AG]; no
    query depends on a prior query's result.  With the rank-n1 surrogate
    A~ = Z (S^T Z)^+ W^T the estimate is

        trace((S^T Z)^+ (W^T Z)) + (1/n3) * [trace(G^T A G) - trace(G^T A~ G)]

    i.e. the surrogate's trace plus Hutchinson on the remainder, which keeps
    the combined estimator unbiased.  A singular S^T Z is handled by the
    pseudoinverse cutoff.
    """
    S, R, G = na_hutch_pp_probes(op.dim, m, fractions, distribution, rng)
    n1, n2, n3 = S.shape[1], R.shape[1], G.shape[1]
    before = op.query_count
    Y = op.matmat(np.hstack([S, R, G]))
    W = Y[:, :n1]
    Z = Y[:, n1 : n1 + n2]
    AG = Y[:, n1 + n2 :]
    P = pseudoinverse(S.T @ Z)  # n2 x n1
    leading = float(np.einsum("ij,ji->", P, W.T @ Z))
    hutch = _trace_inner(G, AG)
    # trace(G^T Z P W^T G), small n3 x n3 product avoided via two GEMMs.
    GtZP = (G.T @ Z) @ P
    surrogate = float(np.einsum("ij,ji->", GtZP, W.T @ G))
    value = leading + (hutch - surrogate) / n3
    return TraceEstimate(
        value=value,
        matvecs_used=op.query_count - before,
        estimator="na_hutch_pp",
        split={"sketch": n1, "range": n2, "residual": n3},
    )


def subspace_projection(
    op: LinearOperator,
    k: int,
    iterations_q: int = 1,
    rng=None,
) -> TraceEstimate:
    """Projection-only baseline: trace of A restricted to a sketched subspace.

    Runs q rounds of subspace iteration from a d x k Rademacher block
    (Q_0 = orth(A S), then Q_i = orth(A Q_{i-1})) and returns
    trace(Q^T A Q).  Spends k(q+1) matvecs.  Biased: it misses the trace
    mass outside the captured subspace, so it only wins when the spectrum
    decays fast.
    """
    k = int(k)
    q = int(iterations_q)
    if k < 1:
        raise ValueError(f"subspace_projection needs k >= 1, got {k}")
    if q < 1:
        raise ValueError(f"subspace_projection needs iterations_q >= 1, got {q}")
    gen = as_generator(rng)
    S = sample_probes(op.dim, k, Distribution.RADEMACHER, gen).entries
    before = op.query_count
    Q = orthonormalize(op.matmat(S))
    for _ in range(q - 1):
        if Q.shape[1] == 0:
            break
        Q = orthonormalize(op.matmat(Q))
    if Q.shape[1] > 0:
        value = _trace_inner(Q, op.matmat(Q))
    else:
        value = 0.0
    return TraceEstimate(
        value=value,
        matvecs_used=op.query_count - before,
        estimator="subspace_projection",
        split={"sketch": k, "rounds": q, "projection": Q.shape[1]},
    )


def exact_trace(op: LinearOperator, chunk: int = 256) -> TraceEstimate:
    """Exact trace via d standard-basis queries (chunked for batching)."""
    d = op.dim
    before = op.query_count
    total = 0.0
    for start in range(0, d, chunk):
        stop = min(start + chunk, d)
        width = stop - start
        E = np.zeros((d, width))
        cols = np.arange(width)
        E[start + cols, cols] = 1.0
        Y = op.matmat(E)
        total += float(Y[start + cols, cols].sum())
    return TraceEstimate(
        value=total,
        matvecs_used=op.query_count - before,
        estimator="exact_trace",
        split={"basis_vectors": d},
    )


@dataclass(frozen=True)
class _Entry:
    # `run` looks its estimator up by module name at call time, so a wrapper
    # installed on the module function (a profiler, a test double) also sees
    # the calls made through the registry.
    run: Callable[[LinearOperator, int, object], TraceEstimate]
    split: Callable[[int], object]


#: The estimator registry: name -> how to run it at a budget of m matvecs,
#: and its budget rule (raises ValueError for a budget it cannot use).  The
#: order is fixed: trial seeds key on each name's index.
ESTIMATORS: dict[str, _Entry] = {
    "hutchinson": _Entry(
        lambda op, m, rng: hutchinson(op, m, rng=rng), _hutchinson_split
    ),
    "hutch_pp": _Entry(lambda op, m, rng: hutch_pp(op, m, rng=rng), _hutch_pp_split),
    "na_hutch_pp": _Entry(
        lambda op, m, rng: na_hutch_pp(op, m, rng=rng), _na_hutch_pp_split
    ),
    "hutch_pp_gauss": _Entry(
        lambda op, m, rng: hutch_pp_gauss(op, m, rng=rng), _hutch_pp_gauss_split
    ),
    "subspace_projection": _Entry(
        lambda op, m, rng: subspace_projection(
            op, _subspace_projection_split(m), 1, rng
        ),
        _subspace_projection_split,
    ),
}


def run_estimator(
    op: LinearOperator, name: str, budget_m: int, rng=None
) -> TraceEstimate:
    """Run the registered estimator `name` at a total budget of m matvecs.

    subspace_projection maps the budget to k = floor(m/2) with q = 1 so its
    k(q+1) spend matches m.
    """
    if name not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {name!r}; expected one of {', '.join(ESTIMATORS)}"
        )
    return ESTIMATORS[name].run(op, budget_m, rng)
