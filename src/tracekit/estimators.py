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

from dataclasses import dataclass, field

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
    estimator: str
    split: dict[str, int] = field(default_factory=dict)


# Budget rules: each maps a budget m to the column counts its estimator
# spends, or raises ValueError when the estimator cannot use m.  The
# estimator and the registry below call the same rule.


def _hutchinson_split(m: int) -> int:
    return _size(m, "hutchinson budget m")


def _hutch_pp_split(m: int) -> int:
    # One probe per phase.
    return _size(m, "hutch_pp budget m", minimum=3) // 3


def _hutch_pp_gauss_split(m: int) -> tuple[int, int]:
    m = _size(m, "hutch_pp_gauss budget m", minimum=0)
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


def _na_hutch_pp_split(m: int) -> tuple[int, int, int]:
    m = _size(m, "na_hutch_pp budget m", minimum=0)
    n1, n2, n3 = m // 4, m // 2, m // 4
    if min(n1, n2, n3) < 1:
        raise ValueError(
            f"budget m={m} leaves an empty probe block "
            f"(floors: {n1}, {n2}, {n3}); increase m"
        )
    return n1, n2, n3


def _subspace_projection_split(m: int, iterations_q: int = 1) -> int:
    # k columns, each spent q+1 times.
    rounds = iterations_q + 1
    return _size(m, "subspace_projection budget m", minimum=rounds) // rounds


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
    # A rank-0 Q costs no queries, gives leading 0.0 and leaves G unchanged.
    leading = _trace_inner(Q, op.matmat(Q))
    G_def = G - Q @ (Q.T @ G)
    AG = op.matmat(G_def)
    residual = _trace_inner(G_def, AG) / G.shape[1]
    return TraceEstimate(
        value=leading + residual,
        matvecs_used=op.query_count - before,
        estimator=estimator,
        split={"sketch": S.shape[1], "basis": Q.shape[1], "residual": G.shape[1]},
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
    g_sketch, g_resid = np.random.default_rng(rng).spawn(2)
    S = sample_probes(op.dim, b, "rademacher", g_sketch).entries
    G = sample_probes(op.dim, b, "rademacher", g_resid).entries
    return _deflated_estimate(op, S, G, "hutch_pp")


def hutch_pp_gauss(op: LinearOperator, m: int, rng=None) -> TraceEstimate:
    """Gaussian-sketch variant of hutch_pp with an exact budget of m matvecs.

    Requires m = 2 (mod 4) and m >= 6 so the split is integral: the sketch S
    is Gaussian with (m+2)/4 columns (spent twice: A S and A Q), the
    residual probes G are Rademacher with (m-2)/2 columns, and the residual
    average uses the factor 2/(m-2).
    """
    n_sketch, n_resid = _hutch_pp_gauss_split(m)
    g_sketch, g_resid = np.random.default_rng(rng).spawn(2)
    S = sample_probes(op.dim, n_sketch, "gaussian", g_sketch).entries
    G = sample_probes(op.dim, n_resid, "rademacher", g_resid).entries
    return _deflated_estimate(op, S, G, "hutch_pp_gauss")


def na_hutch_pp_probes(
    d: int, m: int, rng=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (S, R, G) Rademacher probe blocks na_hutch_pp will use for this seed.

    Exposed so callers (and the non-adaptivity test) can reconstruct every
    query vector from the seed alone, before any operator output exists.
    Column counts are floor(m/4), floor(m/2) and floor(m/4), each required
    >= 1; leftover budget is discarded.
    """
    n1, n2, n3 = _na_hutch_pp_split(m)
    g1, g2, g3 = np.random.default_rng(rng).spawn(3)
    S = sample_probes(d, n1, "rademacher", g1).entries
    R = sample_probes(d, n2, "rademacher", g2).entries
    G = sample_probes(d, n3, "rademacher", g3).entries
    return S, R, G


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
    pseudoinverse cutoff.
    """
    n1, n2, n3 = _na_hutch_pp_split(m)
    # The probes exist once: S and G are column views of the queried block.
    block = np.hstack(na_hutch_pp_probes(op.dim, m, rng))
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
        estimator="na_hutch_pp",
        split={"sketch": n1, "range": n2, "residual": n3},
    )


def subspace_projection(
    op: LinearOperator,
    m: int,
    iterations_q: int = 1,
    rng=None,
) -> TraceEstimate:
    """Projection-only baseline: trace of A restricted to a sketched subspace.

    With k = floor(m/(q+1)): runs q rounds of subspace iteration from a
    d x k Rademacher block (Q_0 = orth(A S), then Q_i = orth(A Q_{i-1})) and
    returns trace(Q^T A Q).  Spends at most k(q+1) matvecs; a rank-deficient
    sketch spends fewer.  Biased: it misses the trace mass outside the
    captured subspace, so it only wins when the spectrum decays fast.
    """
    q = _size(iterations_q, "iterations_q")
    k = _subspace_projection_split(m, q)
    S = sample_probes(op.dim, k, "rademacher", rng).entries
    before = op.query_count
    Q = orthonormalize(op.matmat(S))
    for _ in range(q - 1):
        if Q.shape[1] == 0:
            break
        Q = orthonormalize(op.matmat(Q))
    return TraceEstimate(
        value=_trace_inner(Q, op.matmat(Q)),
        matvecs_used=op.query_count - before,
        estimator="subspace_projection",
        split={"sketch": k, "rounds": q, "projection": Q.shape[1]},
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
        estimator="exact_trace",
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
