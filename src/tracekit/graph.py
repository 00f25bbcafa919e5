"""Edge-list ingestion and graph trace sources (adjacency, triangles, Estrada)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse

from tracekit.linop import LinearOperator

__all__ = [
    "Graph",
    "EdgeListParseError",
    "parse_edge_list",
    "load_edge_list",
    "adjacency_operator",
    "AdjacencyOperator",
    "triangle_count_exact",
    "estrada_index_exact",
    "natural_connectivity",
]


class EdgeListParseError(ValueError):
    """Malformed edge-list input; the message names the offending line."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with nodes relabeled to 0..n-1.

    Edges are stored once as (u, v) with u < v; self-loops never survive
    parsing (their count is kept for reporting).
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    self_loops_dropped: int = 0

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def parse_edge_list(text: str) -> Graph:
    """Parse a SNAP-style whitespace edge list.

    Lines starting with '#' are comments; each data line holds two integer
    node IDs.  IDs are compacted to 0..n-1 in first-seen order, (u,v)/(v,u)
    duplicates merge, and self-loops are dropped (counted).
    """
    ids: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    self_loops = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two node ids, got {raw!r}"
            )
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: non-integer node id in {raw!r}"
            ) from None
        if a == b:
            self_loops += 1
            continue
        u = ids.setdefault(a, len(ids))
        v = ids.setdefault(b, len(ids))
        key = (u, v) if u < v else (v, u)
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return Graph(
        node_count=len(ids), edges=tuple(edges), self_loops_dropped=self_loops
    )


def load_edge_list(path) -> Graph:
    """Parse an edge-list file (see parse_edge_list)."""
    return parse_edge_list(Path(path).read_text())


class AdjacencyOperator(LinearOperator):
    """Symmetric 0/1 adjacency matvec in O(|E|) per query (CSR storage)."""

    def __init__(self, graph: Graph):
        if graph.node_count < 1:
            raise ValueError("graph has no nodes; adjacency operator undefined")
        super().__init__(graph.node_count)
        n = graph.node_count
        if graph.edges:
            e = np.asarray(graph.edges, dtype=np.int64)
            rows = np.concatenate([e[:, 0], e[:, 1]])
            cols = np.concatenate([e[:, 1], e[:, 0]])
            data = np.ones(rows.shape[0])
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            data = np.zeros(0)
        self.matrix = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n))

    def _apply_block(self, X):
        return np.asarray(self.matrix @ X)

    def _apply_vec(self, x):
        return np.asarray(self.matrix @ x)


def adjacency_operator(g: Graph) -> AdjacencyOperator:
    """Adjacency matrix of g as a counted LinearOperator."""
    return AdjacencyOperator(g)


def triangle_count_exact(g: Graph, max_nodes: int = 5000, force: bool = False) -> int:
    """Exact triangle count as a sparse product, guarded to max_nodes nodes.

    With U the strictly upper adjacency triangle, (U @ U)[i, k] counts the
    paths i < j < k, so masking by U[i, k] counts each triangle once.
    force=True lifts the guard.
    """
    if g.node_count > max_nodes and not force:
        raise ValueError(
            f"graph has {g.node_count} nodes > guard {max_nodes}; "
            "pass force=True to enumerate anyway"
        )
    if not g.edges:
        return 0
    U = scipy.sparse.triu(adjacency_operator(g).matrix, k=1, format="csr")
    return int((U @ U).multiply(U).sum())


def estrada_index_exact(g: Graph, max_nodes: int = 2000) -> float:
    """Estrada index trace(exp(B)) via dense eigendecomposition (small n)."""
    if g.node_count > max_nodes:
        raise ValueError(
            f"graph has {g.node_count} nodes > dense guard {max_nodes}"
        )
    if g.node_count < 1:
        raise ValueError("graph has no nodes")
    B = np.zeros((g.node_count, g.node_count))
    for u, v in g.edges:
        B[u, v] = 1.0
        B[v, u] = 1.0
    return float(np.exp(np.linalg.eigvalsh(B)).sum())


def natural_connectivity(estrada: float, n: int) -> float:
    """log(estrada / n): average-eigenvalue form of the Estrada index."""
    estrada = float(estrada)
    n = int(n)
    if estrada <= 0.0:
        raise ValueError(f"estrada index must be > 0, got {estrada}")
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return math.log(estrada / n)
