"""Edge-list ingestion and graph trace sources (adjacency, triangles, Estrada)."""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse import _sparsetools

from tracekit.linop import LinearOperator, _run_bands, _size

__all__ = [
    "Graph",
    "EdgeListParseError",
    "parse_edge_list",
    "load_edge_list",
    "AdjacencyOperator",
    "triangle_count_exact",
    "estrada_index_exact",
]

# Edge-list grammar.  Lines end in "\n" or "\r\n".  A line is blank, a
# comment whose first non-blank character is "#", or two node ids (an
# optional sign and ASCII digits) separated by spaces or tabs.  Characters
# that str.splitlines treats as line breaks are refused even in comments, so
# no tool splits a comment into a data line.
_COMMENT = re.compile(r"[ \t]*(?:#[^\r\v\f\x1c-\x1e\x85\u2028\u2029]*)?")
_NOT_DATA = re.compile(r"[^0-9+\- \t\n]")

# Largest graph whose Estrada index is computed by dense eigendecomposition.
_DENSE_ESTRADA_MAX = 2000


class EdgeListParseError(ValueError):
    """Malformed edge-list input; the message names the offending line."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with nodes relabeled to 0..n-1.

    ``edges`` is a read-only (E, 2) int64 array holding each edge once, in
    either orientation, with ids in [0, node_count) and no self-loops.  A
    non-empty array of any other shape, a non-integer id (TypeError, never
    truncated), a self-loop or an out-of-range id raises here, an edge given
    twice when the adjacency is built.  ``parse_edge_list`` emits (u, v) with
    u < v and drops self-loops (their count is kept for reporting).
    """

    node_count: int
    edges: np.ndarray
    self_loops_dropped: int = 0

    def __post_init__(self):
        node_count = _size(self.node_count, "node_count", minimum=0)
        object.__setattr__(self, "node_count", node_count)
        edges = np.asarray(self.edges)
        if edges.size and not np.issubdtype(edges.dtype, np.integer):
            raise TypeError(f"edge node id must be an integer, got dtype {edges.dtype}")
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be an (E, 2) array, got shape {edges.shape}")
        edges = np.array(edges, dtype=np.int64)
        if edges.size and not 0 <= edges.min() <= edges.max() < node_count:
            raise ValueError(f"edge node ids must lie in [0, {node_count})")
        if (edges[:, 0] == edges[:, 1]).any():
            raise ValueError("edges must not include self-loops")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> scipy.sparse.csr_matrix:
        """Symmetric 0/1 adjacency matrix in canonical CSR form, built once.

        The adjacency operator, the triangle count and the Estrada index all
        read this one matrix.
        """
        u, v = self.edges[:, 0], self.edges[:, 1]
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        n = self.node_count
        A = scipy.sparse.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
        # Building the CSR sums duplicates, so an edge given twice stores a 2.
        if (A.data != 1.0).any():
            raise ValueError("an undirected edge is given more than once")
        for part in (A.data, A.indices, A.indptr):
            part.flags.writeable = False
        return A


def _edge_ids(text: str) -> np.ndarray:
    """The (E, 2) int64 ids of a "\\n"-split text; ValueError off the grammar."""
    # A line holding anything but digits, signs and blanks must be a comment.
    pos = 0
    while match := _NOT_DATA.search(text, pos):
        start = text.rfind("\n", 0, match.start()) + 1
        pos = text.find("\n", match.start())
        pos = len(text) if pos < 0 else pos
        if not _COMMENT.fullmatch(text, start, pos):
            raise ValueError("a line is neither blank, a comment nor data")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        ids = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
    if ids.size and ids.shape[1] != 2:
        raise ValueError(f"{ids.shape[1]} node ids on a line")
    return ids.reshape(-1, 2)


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal values: ``(inverse, first)``.

    ``first[g]`` is the first position of group g, groups in increasing value
    order, and ``inverse[i]`` is the group of ``values[i]``.  One unstable
    sort; the minimum over each group's positions makes the result
    independent of how the sort orders ties.
    """
    perm = np.argsort(values)
    ordered = values[perm]
    start = np.ones(len(values), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    first = np.minimum.reduceat(perm, np.flatnonzero(start))
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[perm] = np.cumsum(start) - 1
    return inverse, first


def parse_edge_list(text: str) -> Graph:
    """Parse a SNAP-style whitespace edge list.

    Each line is blank, a comment (first non-blank character '#'), or two
    integer node IDs (optional sign, ASCII digits, within int64) separated by
    spaces or tabs; lines end in '\\n' or '\\r\\n'.  One check (a scan and one
    ``np.loadtxt`` call) accepts the text, or runs on each line to name the
    first it refuses.  IDs are compacted to 0..n-1 in first-seen order,
    (u,v)/(v,u) duplicates merge, and self-loops are dropped (counted).
    """
    text = text.replace("\r\n", "\n")
    try:
        ids = _edge_ids(text)
    except ValueError:
        # The same check, line by line, names the first line it refuses.
        for lineno, line in enumerate(text.split("\n"), start=1):
            try:
                _edge_ids(line)
            except ValueError:
                raise EdgeListParseError(
                    f"line {lineno}: expected two integer node ids, got {line!r}"
                ) from None
        raise
    loops = ids[:, 0] == ids[:, 1]
    ids = ids[~loops]
    # Label each ID by the rank of its first appearance, row-major.
    inverse, first = _first_seen(ids.ravel())
    label = np.empty(len(first), dtype=np.int64)
    label[np.argsort(first)] = np.arange(len(first))
    a, b = label[inverse].reshape(-1, 2).T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # Keep each undirected edge at its first appearance, in file order.
    _, first_edge = _first_seen(lo * len(first) + hi)
    keep = np.sort(first_edge)
    return Graph(
        node_count=len(first),
        edges=np.stack([lo[keep], hi[keep]], axis=1),
        self_loops_dropped=int(loops.sum()),
    )


def load_edge_list(path) -> Graph:
    """Parse a UTF-8 file's bytes as parse_edge_list parses a text, with no
    newline translation (a bare CR is refused); a fault names the file."""
    try:
        return parse_edge_list(Path(path).read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, EdgeListParseError) as err:
        raise EdgeListParseError(f"{path}: {err}") from None


class AdjacencyOperator(LinearOperator):
    """Symmetric 0/1 adjacency matvec in O(|E|) per query (the graph's CSR).

    A k-column query is nnz*k multiply-adds to ``_run_bands``, cut where
    the bands hold equal shares of the stored entries (a band may hold no
    rows).  Each band runs scipy's block kernel for ``A @ X`` on its rows of
    the one CSR, whose arrays it shares, into its rows of one result; a row
    sums in the order ``A @ X`` sums it, so the bytes do not depend on the
    CPU count.
    """

    def __init__(self, graph: Graph):
        super().__init__(graph.node_count)
        self.matrix = graph.adjacency

    def _apply_block(self, X):
        A, (d, k) = self.matrix, X.shape
        indptr, nnz = A.indptr, A.nnz
        x = np.ascontiguousarray(X).ravel()  # the one copy A @ X makes
        Y = np.zeros((d, k))  # the kernel adds A X into it

        def cuts(bands):
            return [*np.searchsorted(indptr, [i * nnz // bands for i in range(bands)]), d]

        def band(a, b):
            _sparsetools.csr_matvecs(
                b - a, d, k, indptr[a : b + 1], A.indices, A.data, x, Y[a:b].ravel()
            )

        _run_bands(nnz * k, d, cuts, band)
        return Y


def triangle_count_exact(g: Graph) -> int:
    """Exact triangle count as a sparse product, at any graph size.

    With U the strictly upper adjacency triangle, (U @ U)[i, k] counts the
    paths i < j < k, so masking by U[i, k] counts each triangle once.
    """
    U = scipy.sparse.triu(g.adjacency, k=1, format="csr")
    return int((U @ U).multiply(U).sum())


def estrada_index_exact(g: Graph) -> float:
    """Estrada index trace(exp(B)) via dense eigendecomposition (<= 2,000 nodes)."""
    if g.node_count > _DENSE_ESTRADA_MAX:
        raise ValueError(
            f"graph has {g.node_count} nodes > dense guard {_DENSE_ESTRADA_MAX}"
        )
    if g.node_count < 1:
        raise ValueError("graph has no nodes")
    # The adjacency is exactly symmetric, so the transpose of its one dense
    # copy is the same matrix in Fortran order, which LAPACK factors in place.
    dense = g.adjacency.toarray().T
    eigenvalues = scipy.linalg.eigh(
        dense, eigvals_only=True, driver="evd", overwrite_a=True, check_finite=False
    )
    return float(np.exp(eigenvalues).sum())

