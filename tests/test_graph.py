"""Edge-list ingestion, adjacency oracle, triangle and Estrada references."""

import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracekit
from tracekit import graph, linop
from tracekit.cli import main
from tracekit.estimators import exact_trace
from tracekit.graph import (
    AdjacencyOperator,
    EdgeListParseError,
    Graph,
    estrada_index_exact,
    load_edge_list,
    parse_edge_list,
    triangle_count_exact,
)
from tracekit.matfunc import PowerOperator

from oracles import blas_builds, peak_rss_growth, perfbench_module


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
    assert sorted(g.edges.tolist()) == [[0, 1], [0, 2], [1, 2]]


def test_parse_comments_loops_and_duplicates():
    g = parse_edge_list("# comment line\n5 5\n5 6\n6 5\n")
    # The loop line drops entirely; 5 and 6 then appear in first-seen order.
    assert g.node_count == 2
    assert g.edges.tolist() == [[0, 1]]
    assert g.self_loops_dropped == 1


def test_parse_first_seen_compaction():
    g = parse_edge_list("30 10\n10 20\n")
    # 30 -> 0, 10 -> 1, 20 -> 2.
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_parse_blank_lines_and_tabs():
    g = parse_edge_list("\n\n0\t1\n\n  1   2  \n")
    assert g.node_count == 3
    assert g.edge_count == 2


def test_parse_empty_input():
    for text in ("# only comments\n", "", "\n \t\n"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = parse_edge_list(text)
        assert g.node_count == 0
        assert g.edge_count == 0
        assert g.edges.shape == (0, 2)


def test_parse_errors_name_the_line():
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list("0 1\n0 1 2\n")
    with pytest.raises(EdgeListParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\nx 3\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list("7\n")


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("1_000 2\n", id="underscore"),  # int() accepts it
        pytest.param("\u0661 2\n", id="non-ascii-digit"),
        pytest.param("1\xa02\n", id="no-break-space"),
        pytest.param("1 2\v3 4\n", id="vertical-tab"),
        pytest.param("1 2\r3 4\n", id="bare-cr"),
        pytest.param("# note\x85 1 2\n", id="line-break-in-comment"),
        pytest.param("9223372036854775808 1\n", id="past-int64"),
        pytest.param("1 2 # 3\n", id="comment-after-data"),
    ],
)
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list("0 1\n" + text)


# The line-loop parser that parse_edge_list replaced, kept as the reference:
# returns (node_count, edge tuples, self_loops_dropped).
def _reference_parse(text: str) -> tuple[int, list[tuple[int, int]], int]:
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
    return len(ids), edges, self_loops


def _reference_adjacency(n: int, edges: list) -> scipy.sparse.csr_matrix:
    # scipy's own COO -> CSR build of the same edges, both orientations.
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows, cols = np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
    return scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


_blanks = st.text(" \t", max_size=3)
_gap = st.text(" \t", min_size=1, max_size=3)
_comment = st.builds(
    lambda lead, body: f"{lead}#{body}",
    _blanks,
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)
_node = st.one_of(st.integers(-3, 12), st.integers(-(2**63), 2**63 - 1))


@st.composite
def _node_id(draw) -> str:
    value = draw(_node)
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    return sign + "0" * draw(st.integers(0, 2)) + str(abs(value))


@st.composite
def _data_lines(draw) -> list[str]:
    # One edge, then maybe its reverse, a repeat, or a self-loop on its tail.
    a, b = draw(_node_id()), draw(_node_id())
    pairs = [(a, b)] + draw(st.sampled_from([[], [(b, a)], [(a, b)], [(a, a)]]))
    return [draw(_blanks) + u + draw(_gap) + v + draw(_blanks) for u, v in pairs]


_line_groups = st.lists(
    st.one_of(
        _data_lines(),
        st.builds(lambda line: [line], _comment),
        st.builds(lambda line: [line], _blanks),
    ),
    max_size=25,
)
_malformed = st.sampled_from(
    ["5", " 1 2 3", "1 x", "1.5 2", "0x10 3", "1 2 # 3 4", "1 2#", "-", "+ 1"]
)


@st.composite
def _edge_list_text(draw, malformed: bool = False) -> str:
    lines = [line for group in draw(_line_groups) for line in group]
    if malformed:
        lines.insert(draw(st.integers(0, len(lines))), draw(_malformed))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                            min_size=len(lines), max_size=len(lines)))
    last = draw(st.sampled_from(["", "7 8", "# tail"]))  # no line ending
    return "".join(line + end for line, end in zip(lines, endings)) + last


@settings(max_examples=300, deadline=None)
@given(_edge_list_text())
@example("-9223372036854775808 9223372036854775807\n"  # ids across the int64 range
         "4611686018427387904 -4611686018427387904\n"
         "9223372036854775807 -4611686018427387904\n-1 4611686018427387904\n")
@example("5 9\n9 5\n5 9\n2 5\n9 5\n5 2\n2 9\n")  # repeats in both orientations
@example("1 1\n1 2\n2 2\n2 3\n3 1\n3 3\n")  # self-loops among edges
@example("")
@example("4 4\n-7 -7\n4 4\n")  # self-loops only
def test_parse_matches_the_line_loop_reference(text):
    got = parse_edge_list(text)
    node_count, edges, self_loops = _reference_parse(text)
    assert got.node_count == node_count
    assert got.self_loops_dropped == self_loops
    assert got.edges.dtype == np.int64 and got.edges.shape == (len(edges), 2)
    assert got.edges.tolist() == [list(e) for e in edges]
    A, B = got.adjacency, _reference_adjacency(node_count, edges)
    for part in ("indptr", "indices", "data"):
        a, b = getattr(A, part), getattr(B, part)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    if edges:
        # One edge given again in the other orientation is a duplicate.
        u, v = edges[0]
        with pytest.raises(ValueError, match="more than once"):
            Graph(node_count=node_count, edges=[*edges, (v, u)]).adjacency


@settings(max_examples=200, deadline=None)
@given(_edge_list_text(malformed=True))
def test_parse_errors_name_the_reference_line(text):
    with pytest.raises(EdgeListParseError) as want:
        _reference_parse(text)
    with pytest.raises(EdgeListParseError) as got:
        parse_edge_list(text)
    lineno = int(re.match(r"line (\d+):", str(want.value))[1])
    bad = text.splitlines()[lineno - 1]
    assert str(got.value) == f"line {lineno}: expected two integer node ids, got {bad!r}"


def test_load_edge_list_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header\n0 1\n1 2\n")
    g = load_edge_list(p)
    assert g.node_count == 3
    assert g.edge_count == 2


def test_load_edge_list_names_an_undecodable_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_bytes(b"# caf\xe9\n0 1\n")
    with pytest.raises(
        EdgeListParseError, match=rf"^{re.escape(str(p))}: 'utf-8' codec can't decode"
    ):
        load_edge_list(p)


def test_load_edge_list_names_its_file_in_a_parse_fault(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n1 x\n")
    message = f"{p}: line 3: expected two integer node ids, got '1 x'"
    with pytest.raises(EdgeListParseError, match=f"^{re.escape(message)}$"):
        load_edge_list(p)
    out = tmp_path / "x.csv"
    assert main(["--source", "graph_triangles", "--graph", str(p),
                 "--estimators", "hutchinson", "--budgets", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@st.composite
def _edge_list_file_text(draw) -> str:
    # Good and malformed texts, some with a bare CR inserted anywhere.
    text = draw(_edge_list_text(malformed=draw(st.booleans())))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    return text


@settings(max_examples=200, deadline=None)
@given(_edge_list_file_text())
@example("0 1\r1 2\n")
@example("# note\r0 5\n1 2\n")
def test_load_edge_list_parses_a_file_as_its_text(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "edges.txt"
    p.write_bytes(text.encode("utf-8"))
    try:
        want = parse_edge_list(text)
    except EdgeListParseError as err:
        with pytest.raises(EdgeListParseError) as got:
            load_edge_list(p)
        assert str(got.value) == f"{p}: {err}"
        return
    got = load_edge_list(p)
    assert (got.node_count, got.self_loops_dropped) == (want.node_count, want.self_loops_dropped)
    np.testing.assert_array_equal(got.edges, want.edges)


def test_load_edge_list_refuses_a_bare_cr_and_reads_crlf(tmp_path):
    p = tmp_path / "g.txt"
    for data, line in [(b"0 1\r1 2\n", "0 1\r1 2"), (b"# note\r0 5\n1 2\n", "# note\r0 5")]:
        p.write_bytes(data)
        message = f"{p}: line 1: expected two integer node ids, got {line!r}"
        with pytest.raises(EdgeListParseError, match=f"^{re.escape(message)}$"):
            load_edge_list(p)
    p.write_bytes(b"# header\r\n5 6\r\n6 7\r\n")
    assert load_edge_list(p).edges.tolist() == [[0, 1], [1, 2]]


def test_parse_edge_list_reads_a_good_text_once(monkeypatch):
    calls = []
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    for text in ["# h\n0 1\r\n1 2\n", "", "3 3\n"]:
        calls.clear()
        parse_edge_list(text)
        assert len(calls) == 1, text


# Loads a point file and an edge list in an interpreter whose locale
# encoding is ASCII and which turns every default-encoding read into an error.
_READ_IN_C_LOCALE = """
import codecs, locale, sys
sys.path.insert(0, sys.argv[1])
from tracekit.graph import load_edge_list
from tracekit.synth import load_points
assert codecs.lookup(locale.getencoding()).name == "ascii", locale.getencoding()
print(load_points(sys.argv[2]).tolist(), load_edge_list(sys.argv[3]).edges.tolist())
"""


def test_file_readers_decode_utf8_in_any_locale(tmp_path):
    points, edges = tmp_path / "pts.txt", tmp_path / "g.txt"
    points.write_text("# caf\u00e9\n0 0\n2 4\n", encoding="utf-8")
    edges.write_text("# caf\u00e9\n0 1\n1 2\n", encoding="utf-8")
    src = Path(tracekit.__file__).parents[1]
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", _READ_IN_C_LOCALE, str(src), str(points), str(edges)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[[0.0, 0.0], [1.0, 1.0]] [[0, 1], [1, 2]]\n"


# ------------------------------------------------------------------- adjacency


def test_adjacency_path_graph_matvec():
    g = parse_edge_list("0 1\n1 2\n")
    op = AdjacencyOperator(g)
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
    op = AdjacencyOperator(parse_edge_list("\n".join(lines)))
    X = rng.standard_normal((n, 6))
    np.testing.assert_array_equal(op.matmat(X), dense @ X)


def test_adjacency_is_built_once_and_read_only():
    g = _complete(5)
    A = g.adjacency
    assert AdjacencyOperator(g).matrix is A
    assert AdjacencyOperator(g).matrix is A
    assert not any(a.flags.writeable for a in (A.data, A.indices, A.indptr, g.edges))


def test_adjacency_trace_is_zero():
    op = AdjacencyOperator(_complete(6))
    assert exact_trace(op).value == 0.0


def test_adjacency_isolated_graph_edge_cases():
    g = Graph(node_count=4, edges=())
    op = AdjacencyOperator(g)
    np.testing.assert_array_equal(op.matvec(np.ones(4)), np.zeros(4))
    with pytest.raises(ValueError):
        AdjacencyOperator(Graph(node_count=0, edges=()))


def test_graph_rejects_edges_its_adjacency_cannot_hold():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(node_count=3, edges=[(0, 1), (1, 2), (0, 2), (1, 1), (2, 0)])
    for edges in ([(0, 5)], [(-1, 1)]):
        with pytest.raises(ValueError, match=r"in \[0, 2\)"):
            Graph(node_count=2, edges=edges)
    # (0, 2) and (2, 0) are one undirected edge given twice.
    g = Graph(node_count=3, edges=[(0, 1), (1, 2), (0, 2), (2, 0)])
    with pytest.raises(ValueError, match="more than once"):
        g.adjacency
    # Either orientation is accepted once.
    assert triangle_count_exact(Graph(node_count=3, edges=[(0, 1), (2, 1), (2, 0)])) == 1
    # Edges are (E, 2) pairs; no other shape is regrouped into pairs.
    for edges in ([[0, 1, 2, 3]], [0, 1, 1, 2], np.zeros((2, 1, 2), dtype=np.int64),
                  [[0], [1]], [[0, 1, 2]]):
        with pytest.raises(ValueError, match=r"\(E, 2\) array"):
            Graph(node_count=4, edges=edges)
    for empty in ((), [], np.empty((0, 2), dtype=np.int64)):
        g = Graph(node_count=0, edges=empty)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64


def _triangles_graph() -> Graph:
    """graph_triangles' graph at seed 3: 4,000 nodes, 190,538 stored entries."""
    edges, _ = perfbench_module("graphgen").geometric_edges(4000, 50.0, 3)
    return Graph(node_count=4000, edges=edges)


def _hub_graph() -> Graph:
    """Node 100 links to nodes 101-4100; nodes 0-99 and 4101-4499 are isolated.

    The hub's row holds half the 8,000 stored entries, so the entry-balanced
    cuts give it a band of its own and, at four bands, an empty band after
    it.
    """
    leaves = np.arange(101, 4101)
    return Graph(node_count=4500, edges=np.stack([np.full_like(leaves, 100), leaves], 1))


def _int64_csr(A: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    """A with int64 index arrays, which scipy's constructor would narrow."""
    B = A.copy()
    B.indptr, B.indices = A.indptr.astype(np.int64), A.indices.astype(np.int64)
    return B


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_adjacency_products_in_bands_are_its_csr_products_bitwise(
    workers, band_workers, monkeypatch
):
    # From nnz*k >= linop._SPLIT_MIN a query runs one band per CPU, each a
    # csr_matvecs call on its rows; below it, one csr_matvecs call on every
    # row, on the calling thread.  Every column count, layout, index width
    # and query kind must give the bytes of A @ X (at k = 1, of scipy's
    # one-vector kernel), and the count must rise by k.
    band_workers(workers)
    ran = []
    kernel = graph._sparsetools.csr_matvecs

    def recording(rows, cols, k, indptr, *args):
        # (the band's first stored entry, its rows, the thread running it)
        ran.append((int(indptr[0]), int(rows), threading.get_ident()))
        kernel(rows, cols, k, indptr, *args)

    monkeypatch.setattr(graph, "_sparsetools", SimpleNamespace(csr_matvecs=recording))
    rng = np.random.default_rng(workers)
    hub_bands = {1: [101, 4399], 2: [101, 1333, 3066], 3: [101, 0, 2000, 2399]}
    for g, bands in ((_triangles_graph(), None), (_hub_graph(), hub_bands[workers])):
        op = AdjacencyOperator(g)
        for matrix in (g.adjacency, _int64_csr(g.adjacency)):
            op.matrix = matrix
            for k in (1, 8, 9, 10, 240):
                X = rng.standard_normal((g.node_count, k))
                expected = (g.adjacency @ X).tobytes()
                split = matrix.nnz * k >= linop._SPLIT_MIN
                for block in (X, np.asfortranarray(X)):
                    for query in (op.matmat, op.matvec):
                        ran.clear()
                        before = op.query_count
                        assert query(block).tobytes() == expected, (k, query)
                        assert op.query_count - before == k
                        assert len(ran) == (workers + 1 if split else 1), k
                        assert sum(rows for _, rows, _ in ran) == g.node_count
                        mine = [s for s, _, t in ran if t == threading.get_ident()]
                        assert mine == [0]  # the caller runs the first band
                        if split:
                            assert bands is None or [r for _, r, _ in sorted(ran)] == bands
    # graph_triangles' B^3 query is three chained products, each split.
    g = _triangles_graph()
    A, X = g.adjacency, rng.standard_normal((4000, 10))
    ran.clear()
    Y = PowerOperator(AdjacencyOperator(g), 3).matmat(X)
    assert len(ran) == 3 * (workers + 1)
    assert Y.tobytes() == (A @ (A @ (A @ X))).tobytes()


def test_a_banded_adjacency_product_holds_one_result(band_workers):
    # The bands share the one CSR and write their rows of one result, so a
    # split query's peak is A @ X's: the contiguous copy of the block and
    # the result.  Per-band CSR slices and results stacked afterwards hold
    # the result twice.
    band_workers(1)
    op = AdjacencyOperator(_triangles_graph())
    X = np.asfortranarray(np.random.default_rng(5).standard_normal((4000, 240)))
    assert op.matrix.nnz * 240 >= linop._SPLIT_MIN
    op.matmat(X)  # the band pool is made outside the measured call

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    banded = peak(lambda: op._apply_block(X))
    plain = peak(lambda: np.asarray(op.matrix @ X))
    assert banded <= 1.1 * plain, (banded, plain)


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
    A = AdjacencyOperator(g).matrix.toarray()
    count = triangle_count_exact(g)
    assert count > 0 and 6 * count == round(np.trace(A @ A @ A))


def test_triangle_count_matches_cube_trace():
    g = _complete(7)
    op = PowerOperator(AdjacencyOperator(g), 3)
    assert exact_trace(op).value / 6.0 == triangle_count_exact(g)


# --------------------------------------------------------------------- estrada


def test_estrada_empty_graph_is_node_count():
    g = Graph(node_count=3, edges=())
    assert estrada_index_exact(g) == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(ValueError, match="no nodes"):
        estrada_index_exact(Graph(node_count=0, edges=()))


def test_estrada_triangle_closed_form():
    # Eigenvalues 2, -1, -1.
    expected = math.exp(2.0) + 2.0 * math.exp(-1.0)
    assert estrada_index_exact(_triangle()) == pytest.approx(expected, rel=1e-13)


def test_estrada_guard_has_no_override():
    g = Graph(node_count=3000, edges=((0, 1),))
    with pytest.raises(ValueError, match="3000"):
        estrada_index_exact(g)


def test_estrada_matches_the_dense_loop_build_bitwise():
    rng = np.random.default_rng(23)
    pairs = rng.integers(0, 80, size=(400, 2))
    g = parse_edge_list("\n".join(f"{a} {b}" for a, b in pairs))
    B = np.zeros((g.node_count, g.node_count))
    for u, v in g.edges.tolist():
        B[u, v] = 1.0
        B[v, u] = 1.0
    assert estrada_index_exact(g) == float(np.exp(np.linalg.eigvalsh(B)).sum())


def test_estrada_matches_eigvalsh_bitwise_at_benchmark_size(tmp_path):
    # The graph_estrada benchmark graph (1,500 nodes, mean degree 12).  The
    # oracle factors with scipy's LAPACK, the reference with numpy's; each
    # bundles its own OpenBLAS build.
    path = tmp_path / "g.txt"
    perfbench_module("graphgen").write_geometric_graph(path, 1500, 12.0, 0)
    g = load_edge_list(path)
    want = float(np.exp(np.linalg.eigvalsh(g.adjacency.toarray())).sum())
    got = estrada_index_exact(g)
    assert got == want, f"{got!r} != {want!r} with {blas_builds()}"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_adjacency_is_exactly_symmetric(data):
    # The Estrada oracle factors the transposed dense copy in place, which is
    # the same matrix only because the adjacency equals its transpose.
    n = data.draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = data.draw(st.sets(st.tuples(node, node).map(sorted).map(tuple)
                              .filter(lambda e: e[0] != e[1])))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(sorted(pairs), flips)]
    dense = Graph(node_count=n, edges=edges).adjacency.toarray()
    assert (dense == dense.T).all()


def test_estrada_oracle_holds_one_dense_copy():
    # One n x n float64 copy is 32 MB at 2,000 nodes.  Every node links to
    # the nodes 1, 251, 501 and 751 places further around the ring, so every 4 KiB
    # page of the dense copy holds an edge and is resident.  Handing the copy
    # to np.linalg.eigvalsh, which copies it into a LAPACK buffer, grew the
    # peak by about 65 MB; factoring it in place grows it by about 33 MB.
    n = 2000
    setup = (
        "import numpy as np\n"
        "from tracekit.graph import Graph, estrada_index_exact\n"
        f"ring = np.arange({n})\n"
        "edges = [np.stack([ring, (ring + step) % ring.size], axis=1)"
        " for step in (1, 251, 501, 751)]\n"
        f"g = Graph(node_count={n}, edges=np.concatenate(edges))\n"
        "g.adjacency\n"
    )
    growth = peak_rss_growth(setup, "estrada_index_exact(g)")
    assert growth <= 1.5 * n * n * 8, f"peak grew by {growth / 1e6:.1f} MB"


def test_estrada_complete_graph():
    # K_n: eigenvalues n-1 once and -1 (n-1 times).
    n = 6
    expected = math.exp(n - 1.0) + (n - 1) * math.exp(-1.0)
    assert estrada_index_exact(_complete(n)) == pytest.approx(expected, rel=1e-12)


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
    A = AdjacencyOperator(g).matrix.toarray()
    w = np.linalg.eigvalsh(A)
    assert estrada_index_exact(g) == pytest.approx(np.exp(w).sum(), rel=1e-12)
    assert triangle_count_exact(g) == int(round((w**3).sum() / 6.0))
