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

from dataclasses import dataclass

import numpy as np

from tracekit.linop import (
    LinearOperator,
    _size,
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
    split: dict[str, int]


# Budget rules: each is one minimum and one split.  It maps a budget m to
# the column counts its estimator spends, or raises ValueError when m is
# below the estimator's minimum, so a rule that accepts m accepts m + 1.
# The estimator and the registry below call the same rule.


def _hutchinson_split(m: int) -> int:
    return _size(m, "hutchinson budget m")


def _hutch_pp_split(m: int) -> int:
    # One probe per phase.
    return _size(m, "hutch_pp budget m", minimum=3) // 3


def _hutch_pp_gauss_split(m: int) -> tuple[int, int]:
    # The sketch is spent twice (A S and A Q); the residual takes the rest.
    m = _size(m, "hutch_pp_gauss budget m", minimum=3)
    s = (m + 2) // 4
    return s, m - 2 * s


def _na_hutch_pp_split(m: int) -> tuple[int, int, int]:
    m = _size(m, "na_hutch_pp budget m", minimum=4)
    return m // 4, m // 2, m // 4


def _subspace_projection_split(m: int) -> int:
    # k columns, each spent twice: A S and A Q.
    return _size(m, "subspace_projection budget m", minimum=2) // 2


def _trace_inner(X: np.ndarray, Y: np.ndarray) -> float:
    # trace(X^T Y) = sum of elementwise products.
    return float(np.einsum("ij,ij->", X, Y))


def hutchinson(
    op: LinearOperator,
    m: int,
    distribution: str = "rademacher",
    rng=None,
) -> TraceEstimate:
    """Plain Hutchinson estimate (1/m) * sum_i g_i^T A g_i with m probes.

    ``distribution`` is ``"rademacher"`` or ``"gaussian"``.  Unbiased for
    either, as for any i.i.d. zero-mean unit-variance entries.  Rademacher
    probes are exact on diagonal operators since g_i^2 = 1 entrywise.
    """
    m = _hutchinson_split(m)
    G = sample_probes(op.dim, m, distribution, rng).entries
    before = op.query_count
    Y = op.matmat(G)
    value = _trace_inner(G, Y) / m
    return TraceEstimate(
        value=value,
        matvecs_used=op.query_count - before,
        split={"probes": m},
    )


def _project(op: LinearOperator, S: np.ndarray) -> tuple[np.ndarray, float]:
    # The sketch-and-project step: Q spans A*S, and trace(Q^T A Q) is the
    # exact trace of A restricted to that span.  A rank-0 Q costs no A*Q
    # queries and gives 0.0.
    Q = orthonormalize(op.matmat(S))
    return Q, _trace_inner(Q, op.matmat(Q))


def _deflated_estimate(
    op: LinearOperator,
    n_sketch: int,
    sketch_distribution: str,
    n_resid: int,
    rng,
) -> TraceEstimate:
    # Shared core of hutch_pp and hutch_pp_gauss: project out the span of
    # A*S exactly, then run Hutchinson with Rademacher probes G on the
    # deflated remainder.  The deflated quadratic form
    # g^T (I-QQ^T) A (I-QQ^T) g needs only one multiply per probe because
    # (I-QQ^T) is idempotent: deflate g first, then apply A.
    g_sketch, g_resid = np.random.default_rng(rng).spawn(2)
    S = sample_probes(op.dim, n_sketch, sketch_distribution, g_sketch).entries
    G = sample_probes(op.dim, n_resid, "rademacher", g_resid).entries
    before = op.query_count
    Q, leading = _project(op, S)
    G_def = G - Q @ (Q.T @ G)
    residual = _trace_inner(G_def, op.matmat(G_def)) / n_resid
    return TraceEstimate(
        value=leading + residual,
        matvecs_used=op.query_count - before,
        split={"sketch": n_sketch, "basis": Q.shape[1], "residual": n_resid},
    )


def hutch_pp(op: LinearOperator, m: int, rng=None) -> TraceEstimate:
    """Variance-reduced trace estimate with budget m split three ways.

    With b = floor(m/3): draws Rademacher sketch probes S and residual
    probes G (d x b each, independent streams), forms Q = orthonormalize(A S),
    and returns

        trace(Q^T A Q) + (1/b) * sum_j <g_j, A g_j>,  g_j = (I - QQ^T) G_j.

    The first term is the exact trace of A restricted to the captured
    subspace; the second is Hutchinson on the deflated remainder, so the
    estimate stays unbiased.  Spends 3b matvecs (A S, A Q, A G_def); if the
    sketch is rank-deficient the A Q block shrinks and matvecs_used reports
    the true count.
    """
    b = _hutch_pp_split(m)
    return _deflated_estimate(op, b, "rademacher", b, rng)


def hutch_pp_gauss(op: LinearOperator, m: int, rng=None) -> TraceEstimate:
    """Gaussian-sketch variant of hutch_pp with an exact budget of m matvecs.

    Takes any m >= 3: the sketch S is Gaussian with s = floor((m+2)/4)
    columns (spent twice: A S and A Q), and the residual probes G are
    Rademacher with the other m - 2s columns, over which the residual
    average runs.
    """
    n_sketch, n_resid = _hutch_pp_gauss_split(m)
    return _deflated_estimate(op, n_sketch, "gaussian", n_resid, rng)


def na_hutch_pp_probes(d: int, m: int, rng=None) -> np.ndarray:
    """The d x (n1 + n2 + n3) block [S | R | G] that na_hutch_pp queries.

    Exposed so callers (and the non-adaptivity test) can reconstruct every
    query vector from the seed alone, before any operator output exists.
    The Rademacher blocks S, R and G have floor(m/4), floor(m/2) and
    floor(m/4) columns (so m >= 4), drawn from independent streams;
    leftover budget is discarded.
    """
    return np.hstack([
        sample_probes(d, n, "rademacher", g).entries
        for n, g in zip(_na_hutch_pp_split(m), np.random.default_rng(rng).spawn(3))
    ])


def na_hutch_pp(op: LinearOperator, m: int, rng=None) -> TraceEstimate:
    """Non-adaptive variance-reduced trace estimate.

    Splits the budget into blocks S (n1 = floor(m/4) columns), R (n2 =
    floor(m/2)), G (n3 = floor(m/4)), samples all of them up front, and
    issues exactly one batched multiply [S | R | G] -> [W | Z | AG]; no
    query depends on a prior query's result.  With the rank-n1 surrogate
    A~ = Z (S^T Z)^+ W^T the estimate is

        trace((S^T Z)^+ (W^T Z)) + (1/n3) * [trace(G^T A G) - trace(G^T A~ G)]

    i.e. the surrogate's trace plus Hutchinson on the remainder, which keeps
    the combined estimator unbiased.  A singular S^T Z is handled by the
    pseudoinverse cutoff.  Assumes A = A^T: W = A S stands in for A^T S, so
    on a general A the estimate stays unbiased but falls to Hutchinson's rate.
    """
    n1, n2, n3 = _na_hutch_pp_split(m)
    # The probes exist once: S and G are column views of the queried block.
    block = na_hutch_pp_probes(op.dim, m, rng)
    S, G = block[:, :n1], block[:, n1 + n2 :]
    before = op.query_count
    Y = op.matmat(block)
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
        split={"sketch": n1, "range": n2, "residual": n3},
    )


def subspace_projection(op: LinearOperator, m: int, rng=None) -> TraceEstimate:
    """Projection-only baseline: Hutch++'s first term, trace(Q^T A Q), alone.

    With k = floor(m/2): Q = orthonormalize(A S) for a d x k Rademacher
    block S.  Spends at most 2k matvecs; a rank-deficient sketch spends
    fewer.  Biased: it misses the trace mass outside the captured subspace,
    so it only wins when the spectrum decays fast.
    """
    k = _subspace_projection_split(m)
    S = sample_probes(op.dim, k, "rademacher", rng).entries
    before = op.query_count
    Q, value = _project(op, S)
    return TraceEstimate(
        value=value,
        matvecs_used=op.query_count - before,
        split={"sketch": k, "basis": Q.shape[1]},
    )


# Standard-basis columns per exact_trace query block.
_EXACT_TRACE_CHUNK = 256


def exact_trace(op: LinearOperator) -> TraceEstimate:
    """Exact trace via d standard-basis queries (chunked for batching)."""
    d = op.dim
    before = op.query_count
    total = 0.0
    for start in range(0, d, _EXACT_TRACE_CHUNK):
        width = min(_EXACT_TRACE_CHUNK, d - start)
        # Column c is the standard basis vector e_{start+c}.
        Y = op.matmat(np.eye(d, width, -start))
        total += float(np.trace(Y, -start))
    return TraceEstimate(
        value=total,
        matvecs_used=op.query_count - before,
        split={"basis_vectors": d},
    )


#: The estimator registry: name -> the budget rule of the estimator of that
#: name, which raises ValueError for a budget m it cannot use.  The order is
#: fixed: trial seeds key on each name's index.
ESTIMATORS = {
    "hutchinson": _hutchinson_split,
    "hutch_pp": _hutch_pp_split,
    "na_hutch_pp": _na_hutch_pp_split,
    "hutch_pp_gauss": _hutch_pp_gauss_split,
    "subspace_projection": _subspace_projection_split,
}


def run_estimator(
    op: LinearOperator, name: str, budget_m: int, rng=None
) -> TraceEstimate:
    """Run the registered estimator `name` at a total budget of m matvecs."""
    if name not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {name!r}; expected one of {', '.join(ESTIMATORS)}"
        )
    # Looked up at call time, so a wrapper installed on the module function
    # (a profiler, a test double) also sees the calls made here.
    return globals()[name](op, budget_m, rng=rng)
