"""Seeded random geometric graphs written as SNAP-style edge lists.

Nodes are uniform points in the unit square; two nodes are joined when they
lie within a radius chosen so that an interior node has the requested mean
degree (n * pi * r^2 = mean_degree, ignoring the boundary).  Geometric graphs
are locally dense, so they carry many triangles, which keeps the triangle and
Estrada ground truths far from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.spatial import cKDTree


@dataclass(frozen=True)
class GraphStats:
    """What the generator wrote: non-isolated nodes, edges, triangles."""

    nodes: int
    edges: int
    triangles: int
    radius: float


def geometric_edges(n: int, mean_degree: float, seed: int) -> tuple[np.ndarray, float]:
    """Edges (u < v, sorted) of a random geometric graph on n points."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    points = rng.random((n, 2))
    radius = math.sqrt(mean_degree / (math.pi * n))
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return pairs.astype(np.int64), radius


def count_triangles(edges: np.ndarray) -> int:
    """Exact triangle count: sum of (A @ A) * A over all entries, divided by 6."""
    n = int(edges.max()) + 1 if edges.size else 0
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    A = scipy.sparse.csr_matrix(
        (np.ones(rows.shape[0], dtype=np.int64), (rows, cols)), shape=(n, n)
    )
    return int((A @ A).multiply(A).sum()) // 6


def write_geometric_graph(path: Path, n: int, mean_degree: float, seed: int) -> GraphStats:
    """Write the graph as a whitespace edge list with '#' header lines."""
    edges, radius = geometric_edges(n, mean_degree, seed)
    header = (
        f"# Random geometric graph in the unit square: {n} points, "
        f"radius {radius!r}, seed {seed}\n"
        f"# Nodes: {n} Edges: {len(edges)}\n"
        "# FromNodeId\tToNodeId\n"
    )
    body = "".join(f"{u}\t{v}\n" for u, v in edges.tolist())
    Path(path).write_text(header + body)
    return GraphStats(
        nodes=int(np.unique(edges).size),
        edges=int(len(edges)),
        triangles=count_triangles(edges),
        radius=radius,
    )
