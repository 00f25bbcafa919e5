"""Matrix-free stochastic trace estimation toolkit.

Estimate trace(A) for a square matrix A available only through
matrix-vector products: Hutchinson's estimator, the variance-reduced
Hutch++ family, a subspace-projection baseline, Lanczos-based operators
for f(B) (matrix exponential, shifted log, monomial powers), synthetic
PSD test matrices, graph adjacency sources, and a CSV benchmark harness.

Each public name is declared once, in its module's ``__all__``; the package
re-exports those lists.
"""

from tracekit import bench, estimators, graph, linop, matfunc, synth
from tracekit.bench import *  # noqa: F403
from tracekit.estimators import *  # noqa: F403
from tracekit.graph import *  # noqa: F403
from tracekit.linop import *  # noqa: F403
from tracekit.matfunc import *  # noqa: F403
from tracekit.synth import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *linop.__all__,
    *estimators.__all__,
    *matfunc.__all__,
    *synth.__all__,
    *graph.__all__,
    *bench.__all__,
    "__version__",
]
