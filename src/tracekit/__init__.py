"""Matrix-free stochastic trace estimation toolkit.

Estimate trace(A) for a square matrix A available only through
matrix-vector products: Hutchinson's estimator, the variance-reduced
Hutch++ family, a subspace-projection baseline, Lanczos-based operators
for f(B) (matrix exponential, shifted log, monomial powers), synthetic
PSD test matrices, graph adjacency sources, and a CSV benchmark harness.
"""

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
from tracekit.estimators import (
    ESTIMATORS,
    TraceEstimate,
    exact_trace,
    hutch_pp,
    hutch_pp_gauss,
    hutchinson,
    na_hutch_pp,
    na_hutch_pp_probes,
    run_estimator,
    subspace_projection,
)
from tracekit.graph import (
    EdgeListParseError,
    Graph,
    adjacency_operator,
    estrada_index_exact,
    load_edge_list,
    natural_connectivity,
    parse_edge_list,
    triangle_count_exact,
)
from tracekit.linop import (
    DenseOperator,
    DenseReference,
    DiagonalOperator,
    Distribution,
    LinearOperator,
    ProbeMatrix,
    RecordingOperator,
    WrappedOperator,
    as_generator,
    orthonormalize,
    pseudoinverse,
    sample_probes,
)
from tracekit.matfunc import (
    LanczosDecomposition,
    LanczosFunctionOperator,
    PowerOperator,
    exp_operator,
    lanczos_apply,
    lanczos_decompose,
    power_operator,
    shifted_log_operator,
)
from tracekit.synth import (
    SpectrumSpec,
    gaussian_kernel_matrix,
    load_points,
    power_law_matrix,
    synthetic_2d_points,
)

__version__ = "0.1.0"

__all__ = [
    # operators and probes
    "Distribution",
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "WrappedOperator",
    "RecordingOperator",
    "ProbeMatrix",
    "sample_probes",
    "orthonormalize",
    "pseudoinverse",
    "DenseReference",
    "as_generator",
    # estimators
    "ESTIMATORS",
    "TraceEstimate",
    "hutchinson",
    "hutch_pp",
    "hutch_pp_gauss",
    "na_hutch_pp",
    "na_hutch_pp_probes",
    "subspace_projection",
    "exact_trace",
    "run_estimator",
    # matrix functions
    "LanczosDecomposition",
    "LanczosFunctionOperator",
    "PowerOperator",
    "lanczos_decompose",
    "lanczos_apply",
    "exp_operator",
    "shifted_log_operator",
    "power_operator",
    # synthetic sources
    "SpectrumSpec",
    "power_law_matrix",
    "gaussian_kernel_matrix",
    "synthetic_2d_points",
    "load_points",
    # graphs
    "EdgeListParseError",
    "Graph",
    "parse_edge_list",
    "load_edge_list",
    "adjacency_operator",
    "triangle_count_exact",
    "estrada_index_exact",
    "natural_connectivity",
    # benchmark harness
    "PowerLawSource",
    "KernelLogDetSource",
    "GraphEstradaSource",
    "GraphTrianglesSource",
    "ExperimentSpec",
    "TrialStats",
    "run_sweep",
    "fit_loglog_slope",
    "emit_csv",
    "__version__",
]
