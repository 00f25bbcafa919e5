"""Edge-list ingestion, adjacency oracle, triangle and Estrada references."""

import math

import numpy as np
import pytest

from tracekit.estimators import exact_trace
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
from tracekit.matfunc import power_operator


def _triangle() -> Graph:
    return parse_edge_list("0 1\n1 2\n2 0\n")


def _complete(n: int) -> Graph:
    lines = [f"{i} {j}" for i in range(n) for j in range(i + 1, n)]
    return parse_edge_list("\n".join(lines))


# --------------------------------------------------------------------- parsing


def test_parse_basic_triangle():
    g = _triangle()
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.self_loops_dropped == 0
    assert set(g.edges) == {(0, 1), (1, 2), (0, 2)}


def test_parse_comments_loops_and_duplicates():
    g = parse_edge_list("# comment line\n5 5\n5 6\n6 5\n")
    # The loop line drops entirely; 5 and 6 then appear in first-seen order.
    assert g.node_count == 2
    assert g.edges == ((0, 1),)
    assert g.self_loops_dropped == 1


def test_parse_first_seen_compaction():
    g = parse_edge_list("30 10\n10 20\n")
    # 30 -> 0, 10 -> 1, 20 -> 2.
    assert g.edges == ((0, 1), (1, 2))


def test_parse_blank_lines_and_tabs():
    g = parse_edge_list("\n\n0\t1\n\n  1   2  \n")
    assert g.node_count == 3
    assert g.edge_count == 2


def test_parse_empty_input():
    g = parse_edge_list("# only comments\n")
    assert g.node_count == 0
    assert g.edge_count == 0


def test_parse_errors_name_the_line():
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list("0 1\n0 1 2\n")
    with pytest.raises(EdgeListParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\nx 3\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list("7\n")


def test_load_edge_list_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header\n0 1\n1 2\n")
    g = load_edge_list(p)
    assert g.node_count == 3
    assert g.edge_count == 2


# ------------------------------------------------------------------- adjacency


def test_adjacency_path_graph_matvec():
    g = parse_edge_list("0 1\n1 2\n")
    op = adjacency_operator(g)
    np.testing.assert_array_equal(op.matvec([0.0, 1.0, 0.0]), [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(op.matvec([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0])


def test_adjacency_matches_dense_on_random_graph():
    rng = np.random.default_rng(50)
    n = 100
    dense = np.zeros((n, n))
    # A path 0-1-...-99 first, so first-seen compaction keeps numeric order.
    lines = [f"{i} {i + 1}" for i in range(n - 1)]
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.05:
                dense[i, j] = dense[j, i] = 1.0
                lines.append(f"{i} {j}")
    op = adjacency_operator(parse_edge_list("\n".join(lines)))
    X = rng.standard_normal((n, 6))
    np.testing.assert_array_equal(op.matmat(X), dense @ X)


def test_adjacency_trace_is_zero():
    op = adjacency_operator(_complete(6))
    assert exact_trace(op).value == 0.0


def test_adjacency_isolated_graph_edge_cases():
    g = Graph(node_count=4, edges=())
    op = adjacency_operator(g)
    np.testing.assert_array_equal(op.matvec(np.ones(4)), np.zeros(4))
    with pytest.raises(ValueError):
        adjacency_operator(Graph(node_count=0, edges=()))


# ------------------------------------------------------------------- triangles


def test_triangle_count_small_graphs():
    assert triangle_count_exact(_triangle()) == 1
    assert triangle_count_exact(parse_edge_list("0 1\n1 2\n")) == 0
    assert triangle_count_exact(_complete(5)) == 10  # C(5,3)
    assert triangle_count_exact(Graph(node_count=1, edges=())) == 0
    assert triangle_count_exact(Graph(node_count=0, edges=())) == 0
    rng = np.random.default_rng(17)
    pairs = rng.integers(0, 60, size=(500, 2))
    g = parse_edge_list("\n".join(f"{a} {b}" for a, b in pairs))
    A = adjacency_operator(g).matrix.toarray()
    count = triangle_count_exact(g)
    assert count > 0 and 6 * count == round(np.trace(A @ A @ A))


def test_triangle_count_matches_cube_trace():
    g = _complete(7)
    op = power_operator(adjacency_operator(g), 3)
    assert exact_trace(op).value / 6.0 == triangle_count_exact(g)


def test_triangle_count_guard():
    g = Graph(node_count=10, edges=((0, 1),))
    with pytest.raises(ValueError, match="force=True"):
        triangle_count_exact(g, max_nodes=5)
    assert triangle_count_exact(g, max_nodes=5, force=True) == 0


# --------------------------------------------------------------------- estrada


def test_estrada_empty_graph_is_node_count():
    g = Graph(node_count=3, edges=())
    assert estrada_index_exact(g) == pytest.approx(3.0, rel=1e-14)


def test_estrada_triangle_closed_form():
    # Eigenvalues 2, -1, -1.
    expected = math.exp(2.0) + 2.0 * math.exp(-1.0)
    assert estrada_index_exact(_triangle()) == pytest.approx(expected, rel=1e-13)


def test_estrada_guard_has_no_override():
    g = Graph(node_count=3000, edges=((0, 1),))
    with pytest.raises(ValueError, match="3000"):
        estrada_index_exact(g, max_nodes=2000)


def test_estrada_complete_graph():
    # K_n: eigenvalues n-1 once and -1 (n-1 times).
    n = 6
    expected = math.exp(n - 1.0) + (n - 1) * math.exp(-1.0)
    assert estrada_index_exact(_complete(n)) == pytest.approx(expected, rel=1e-12)


# -------------------------------------------------------- natural connectivity


def test_natural_connectivity_values():
    # Single node: log(e^0 / 1) = 0.
    assert natural_connectivity(1.0, 1) == 0.0
    g = _triangle()
    ee = estrada_index_exact(g)
    expected = math.log(ee / 3.0)
    assert natural_connectivity(ee, 3) == pytest.approx(expected, rel=1e-14)
    assert natural_connectivity(ee, 3) == pytest.approx(0.99631, abs=1e-4)


def test_natural_connectivity_validation():
    with pytest.raises(ValueError):
        natural_connectivity(0.0, 3)
    with pytest.raises(ValueError):
        natural_connectivity(5.0, 0)


# ------------------------------------------------------------- cross-checking


def test_pipeline_on_karate_sized_random_graph():
    rng = np.random.default_rng(51)
    lines = []
    seen = set()
    for _ in range(120):
        a, b = rng.integers(0, 34, size=2)
        if a != b:
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                lines.append(f"{a} {b}")
    g = parse_edge_list("\n".join(lines))
    A = adjacency_operator(g).matrix.toarray()
    w = np.linalg.eigvalsh(A)
    assert estrada_index_exact(g) == pytest.approx(np.exp(w).sum(), rel=1e-12)
    assert triangle_count_exact(g) == int(round((w**3).sum() / 6.0))
