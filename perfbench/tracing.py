"""Per-layer tracing of tracekit from outside the package.

``Tracer.install()`` replaces every public function and every public method
of a public class in the traced modules, plus the operators' private
``_apply_block`` / ``_apply_vec`` kernels, with a wrapper that records a
:class:`Span` in an in-memory list.  Every module-level binding of a traced
function is replaced, so call sites that did ``from tracekit.linop import f``
are traced as well.  ``uninstall()`` restores the originals.

``layer_metrics()`` reduces the spans of one sweep to the per-layer figures.
A span belongs to set-up when it ends before the set-up boundary (the first
operator query) outside any estimator span; the trial-phase layers count only
the other spans.  A span's self time is its duration minus the durations of
its direct children, which are properly nested because the sweep runs in one
thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any

PACKAGE = "tracekit"
MODULES = ("bench", "estimators", "linop", "matfunc", "graph", "synth")
KERNEL_METHODS = ("_apply_block", "_apply_vec")
QUERY_SPANS = ("linop.LinearOperator.matmat", "linop.LinearOperator.matvec")
TRIAL_ESTIMATORS = ("hutchinson", "hutch_pp", "na_hutch_pp")


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the parent span in the same list, -1 for a root
    t0: float
    t1: float = 0.0
    info: Any = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.t1 - s.t0
    return [s.t1 - s.t0 - c for s, c in zip(spans, covered)]


# --- what each traced call records (computed from shapes and nnz) ---------


def _block_cols(result) -> int:
    return 1 if result.ndim == 1 else result.shape[1]


def _query(args, kwargs, result):
    return args[0], _block_cols(result)  # (operator, columns applied)


def _dense_kernel(args, kwargs, result):
    # GEMM/GEMV: 2 d^2 k flops; the matrix is read once, X read, Y written.
    d, k = args[0].dim, _block_cols(result)
    return k, 2.0 * d * d * k, 8.0 * (d * d + 2 * d * k)


def _sparse_kernel(args, kwargs, result):
    # CSR SpMM/SpMV: 2 nnz k flops; the CSR arrays are read once.
    A, k = args[0].matrix, _block_cols(result)
    csr_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    return k, 2.0 * A.nnz * k, float(csr_bytes + 16 * A.shape[0] * k)


def _householder(args, kwargs, result):
    # Economic Householder QR of d x k, R plus explicit Q:
    # 2(2 d k^2 - 2 k^3 / 3) flops; a rank-deficient input is factored twice.
    X = args[0] if args else kwargs["X"]
    d, k = X.shape
    deficient = result.shape[1] < k
    factorizations = 2 if deficient else 1
    flops = factorizations * (4.0 * d * k * k - 4.0 * k**3 / 3.0)
    return k, flops, 8.0 * factorizations * 2 * d * k, deficient


def _basis_deficit(args, kwargs, result):
    return result.split["sketch"] - result.split["basis"]


def _lanczos(args, kwargs, result):
    max_iterations = args[2] if len(args) > 2 else kwargs["max_iterations"]
    return result.iterations, result.iterations < int(max_iterations)


CAPTURES = {
    "linop.LinearOperator.matmat": _query,
    "linop.LinearOperator.matvec": _query,
    "linop.DenseOperator._apply_block": _dense_kernel,
    "linop.DenseOperator._apply_vec": _dense_kernel,
    "graph.AdjacencyOperator._apply_block": _sparse_kernel,
    "graph.AdjacencyOperator._apply_vec": _sparse_kernel,
    "linop.orthonormalize": _householder,
    "linop.sample_probes": lambda args, kwargs, result: result.entries.size,
    "estimators.hutch_pp": _basis_deficit,
    "estimators.hutch_pp_gauss": _basis_deficit,
    "matfunc.lanczos_decompose": _lanczos,
    "graph.load_edge_list": lambda args, kwargs, result: result.edge_count,
}


class Tracer:
    """Installs span-recording wrappers on tracekit's public callables."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{obj.__name__}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (
                            not attr.startswith("_") or attr in KERNEL_METHODS
                        ):
                            name = f"{short}.{obj.__name__}.{attr}"
                            self._patch(obj, attr, self._wrap(name, member))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        capture = CAPTURES.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if capture is not None:
                span.info = capture(args, kwargs, result)
            return result

        return traced


# --- reduction of one sweep's spans to per-layer metrics -------------------


@dataclass
class SweepLayers:
    """Per-layer figures of one traced sweep."""

    metrics: dict[str, float]
    trial_ms: list[float]  # duration of each top-level estimator call
    inner_query_cols: int  # columns queried by the operators the sweep queried


def _kernel_metrics(prefix: str, spans: list[Span], picks: list[int]) -> dict:
    seconds = sum(spans[i].t1 - spans[i].t0 for i in picks)
    flops = sum(spans[i].info[1] for i in picks)
    nbytes = sum(spans[i].info[2] for i in picks)
    return {
        f"{prefix}.calls": len(picks),
        f"{prefix}.cols": sum(spans[i].info[0] for i in picks),
        f"{prefix}.s": seconds,
        f"{prefix}.flops_computed": flops,
        f"{prefix}.bytes_computed": nbytes,
        f"{prefix}.flop_per_byte_computed": flops / nbytes if nbytes else 0.0,
        f"{prefix}.gflops_computed": flops / seconds / 1e9 if seconds > 0 else 0.0,
    }


def layer_metrics(spans: list[Span], boundary: float) -> SweepLayers:
    """Per-layer figures for one sweep whose set-up ended at ``boundary``."""
    own = self_times(spans)
    n = len(spans)

    def dur(i: int) -> float:
        return spans[i].t1 - spans[i].t0

    # Nesting depths, counting the span itself; parents precede children.
    query_depth, clone_depth, estimator_depth = [0] * n, [0] * n, [0] * n
    for i, s in enumerate(spans):
        p = s.parent
        query_depth[i] = (query_depth[p] if p >= 0 else 0) + (s.name in QUERY_SPANS)
        clone_depth[i] = (clone_depth[p] if p >= 0 else 0) + s.name.endswith(".clone")
        estimator_depth[i] = (estimator_depth[p] if p >= 0 else 0) + s.name.startswith(
            "estimators."
        )

    every: dict[str, list[int]] = {}
    trial: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        every.setdefault(s.name, []).append(i)
        if s.t1 > boundary or estimator_depth[i]:
            trial.setdefault(s.name, []).append(i)

    def total(groups: dict[str, list[int]], name: str) -> float:
        return sum(dur(i) for i in groups.get(name, ()))

    m: dict[str, float] = {}
    for short in MODULES:
        names = [k for k in every if k.startswith(short + ".")]
        m[f"{short}.calls"] = sum(len(every[k]) for k in names)
        m[f"{short}.self_s"] = sum(own[i] for k in names for i in every[k])

    # set-up layers
    for name in (
        "synth.power_law_matrix",
        "synth.gaussian_kernel_matrix",
        "graph.load_edge_list",
        "graph.triangle_count_exact",
        "graph.estrada_index_exact",
    ):
        m[f"{name}.s"] = total(every, name)
    m["graph.edges"] = sum(spans[i].info for i in every.get("graph.load_edge_list", ()))

    # trial-phase layers
    queries = [i for k in QUERY_SPANS for i in trial.get(k, ())]
    outer = [i for i in queries if query_depth[i] == 1]
    m["linop.matmat.outer.calls"] = len(outer)
    m["linop.matmat.outer.cols"] = sum(spans[i].info[1] for i in outer)
    m["linop.matmat.outer.s"] = sum(dur(i) for i in outer)

    def kernel_spans(cls: str) -> list[int]:
        return [i for k in KERNEL_METHODS for i in trial.get(f"{cls}.{k}", ())]

    m.update(_kernel_metrics("graph.adjacency", spans, kernel_spans("graph.AdjacencyOperator")))
    m.update(_kernel_metrics("linop.dense_gemm", spans, kernel_spans("linop.DenseOperator")))

    qr = trial.get("linop.orthonormalize", [])
    m.update(_kernel_metrics("linop.orthonormalize", spans, qr))
    m["linop.orthonormalize.rank_deficient"] = sum(spans[i].info[3] for i in qr)

    probes = trial.get("linop.sample_probes", [])
    m["linop.sample_probes.calls"] = len(probes)
    m["linop.sample_probes.entries"] = sum(spans[i].info for i in probes)
    m["linop.sample_probes.s"] = total(trial, "linop.sample_probes")
    m["linop.pseudoinverse.calls"] = len(trial.get("linop.pseudoinverse", ()))
    m["linop.pseudoinverse.s"] = total(trial, "linop.pseudoinverse")
    # Every clone call the sweep made that is not inside another clone,
    # including the one a wrapped operator makes when it is built.
    m["linop.clone.calls"] = sum(
        1 for k, idx in every.items() if k.endswith(".clone") for i in idx if clone_depth[i] == 1
    )

    for est in TRIAL_ESTIMATORS:
        idx = trial.get(f"estimators.{est}", [])
        m[f"estimators.{est}.calls"] = len(idx)
        m[f"estimators.{est}.s"] = sum(dur(i) for i in idx)
        m[f"estimators.{est}.self_s"] = sum(own[i] for i in idx)
    m["estimators.basis_deficit"] = sum(
        spans[i].info
        for k in ("estimators.hutch_pp", "estimators.hutch_pp_gauss")
        for i in trial.get(k, ())
    )

    lanczos = trial.get("matfunc.lanczos_decompose", [])
    m["matfunc.lanczos_decompose.calls"] = len(lanczos)
    m["matfunc.lanczos_decompose.iterations"] = sum(spans[i].info[0] for i in lanczos)
    m["matfunc.lanczos_decompose.breakdowns"] = sum(spans[i].info[1] for i in lanczos)
    m["matfunc.lanczos_decompose.s"] = sum(dur(i) for i in lanczos)
    m["matfunc.lanczos_decompose.self_s"] = sum(own[i] for i in lanczos)
    applies = trial.get("matfunc.lanczos_apply", [])
    m["matfunc.lanczos_apply.calls"] = len(applies)
    m["matfunc.lanczos_apply.self_s"] = sum(own[i] for i in applies)
    queried = {id(spans[i].info[0]): spans[i].info[0] for i in outer}
    m["matfunc.inner_matvecs"] = sum(getattr(op, "inner_matvecs", 0) for op in queried.values())
    m["matfunc.power.calls"] = len(trial.get("matfunc.PowerOperator._apply_block", ()))
    m["matfunc.power.s"] = total(trial, "matfunc.PowerOperator._apply_block")

    # The sweep after set-up, less the top-level estimator calls: RNG
    # set-up, clones and the per-trial Python of the loop.
    top = [i for k, idx in trial.items() if k.startswith("estimators.") for i in idx
           if estimator_depth[i] == 1]
    sweep_end = max((spans[i].t1 for i in every.get("bench.run_sweep", ())), default=boundary)
    in_estimators = sum(spans[i].t1 - max(spans[i].t0, boundary) for i in top)
    m["bench.trial_loop.self_s"] = (sweep_end - boundary) - in_estimators
    m["bench.emit_csv.s"] = total(every, "bench.emit_csv")

    return SweepLayers(
        metrics=m,
        trial_ms=[1e3 * dur(i) for i in top],
        inner_query_cols=sum(spans[i].info[1] for i in queries if query_depth[i] == 2),
    )
