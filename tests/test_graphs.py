import itertools
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from posemiring import constructions as cons
from posemiring import harness, ringlab
from posemiring.core import StructureError
from posemiring.graphs import (
    GraphMetrics,
    ZdGraph,
    build_zdgraph,
    classify_shape,
    component_count,
    eccentricity,
    export_dot,
    girth,
    graph_metrics,
    maximal_cliques,
    quadrilateral_free,
    triangle_free,
)


def graph_from_edges(n, edges):
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return ZdGraph(vertices=tuple(range(1, n + 1)), masks=tuple(masks))


class TestBuild:
    def test_vertices_are_zero_divisors(self):
        A = cons.example_2_6(2)
        G = build_zdgraph(A.mul)
        assert G.vertices == (1, 2, 3)          # a, b1, b2

    def test_rejects_noncommutative_table(self):
        mul = [b"\0\0", b"\1\0"]
        with pytest.raises(StructureError):
            build_zdgraph(mul)

    def test_rejects_nonabsorbing_zero(self):
        mul = [b"\0\1", b"\1\1"]
        with pytest.raises(StructureError):
            build_zdgraph(mul)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_matches_cell_scan(self, data):
        # a commutative table with absorbing 0, then a few cells mutated,
        # each one alone or together with its mirror cell
        n = data.draw(st.integers(2, 12))
        value = st.one_of(st.just(0), st.integers(0, n - 1))
        mul = [[0] * n for _ in range(n)]
        for x in range(1, n):
            for y in range(x, n):
                mul[x][y] = mul[y][x] = data.draw(value)
        cell = st.integers(0, n - 1)
        for x, y, v, mirror in data.draw(st.lists(
                st.tuples(cell, cell, cell, st.booleans()), max_size=3)):
            mul[x][y] = v
            if mirror:
                mul[y][x] = v
        rows = tuple(map(bytes, mul))
        try:
            want = oracles.build_zdgraph(mul)
        except StructureError as exc:
            with pytest.raises(StructureError) as got:
                build_zdgraph(rows)
            assert str(got.value) == str(exc)
        else:
            G = build_zdgraph(rows)
            assert (G.vertices, oracles.adjacency(G)) == want


def printed(G):
    """The metrics the graph commands print for G."""
    return graph_metrics(classify_shape(G))


class TestMetrics:
    def test_empty_graph(self):
        G = graph_from_edges(0, [])
        m = printed(G)
        assert m.diameter is None and m.girth is None
        assert m.clique_number == 0 and component_count(G.masks) == 0

    def test_path_p4(self):
        m = printed(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert m.diameter == 3
        assert m.girth is None
        assert m.clique_number == 2
        assert m.triangle_free and m.quadrilateral_free

    def test_cycle_c4(self):
        m = printed(graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert m.girth == 4
        assert m.triangle_free
        assert not m.quadrilateral_free

    def test_cycle_c5(self):
        m = printed(graph_from_edges(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        assert m.girth == 5
        assert m.diameter == 2
        assert m.triangle_free and m.quadrilateral_free

    def test_triangle(self):
        m = printed(graph_from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        assert m.girth == 3
        assert m.clique_number == 3
        assert not m.triangle_free

    def test_disconnected_diameter_infinite(self):
        G = graph_from_edges(3, [(0, 1)])
        assert printed(G).diameter == math.inf
        assert component_count(G.masks) == 2

    def test_clique_number_k23(self):
        edges = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
        m = printed(graph_from_edges(5, edges))
        assert m.clique_number == 2
        assert not m.quadrilateral_free


def labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_edges(n, [p for i, p in enumerate(pairs)
                                   if mask >> i & 1])


@st.composite
def graphs(draw, sizes=st.integers(6, 9)):
    n = draw(sizes)
    pairs = list(itertools.combinations(range(n), 2))
    density = draw(st.floats(0, 1))
    picks = draw(st.lists(st.floats(0, 1), min_size=len(pairs),
                          max_size=len(pairs)))
    return graph_from_edges(n, [p for p, u in zip(pairs, picks)
                                if u < density])


@st.composite
def cycles_with_chords(draw):
    """A cycle through vertices 0..k-1 of 10-40 vertices, and up to four
    more edges, so that long girths are drawn too."""
    n = draw(st.integers(10, 40))
    k = draw(st.integers(3, n))
    vertex = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex).filter(
        lambda e: e[0] != e[1]), max_size=4))
    return graph_from_edges(n, [(i, (i + 1) % k) for i in range(k)] + chords)


def oracle_printed(m):
    """The facts of the oracle record m that the graph commands print."""
    return GraphMetrics(diameter=m.diameter, girth=m.girth,
                        clique_number=m.clique_number,
                        triangle_free=m.triangle_free,
                        quadrilateral_free=m.quadrilateral_free)


def assert_facts(G, m):
    """Each fact function, and each fact a shape computes alone, equals the
    field of the oracle facts m; reading the others caches no girth."""
    masks = G.masks
    assert maximal_cliques(masks) == m.maximal_cliques
    assert tuple(eccentricity(masks, v) for v in range(G.n)) == m.eccentricity
    assert triangle_free(masks) == m.triangle_free == (m.clique_number < 3)
    assert quadrilateral_free(masks) == m.quadrilateral_free
    assert (girth(masks), component_count(masks)) == (m.girth,
                                                      m.component_count)
    s = classify_shape(G)
    assert (s.maximal_cliques, s.clique_number, s.triangle_free,
            s.quadrilateral_free) == (m.maximal_cliques, m.clique_number,
                                      m.triangle_free, m.quadrilateral_free)
    assert "girth" not in s.__dict__
    assert s.girth == m.girth


class TestOracle:
    def test_every_graph_up_to_five_vertices(self):
        count = 0
        for n in range(6):
            for G in labelled_graphs(n):
                s = classify_shape(G)
                assert "girth" not in s.__dict__  # no tag reads it
                m = oracles.graph_metrics(G)
                assert (s, graph_metrics(s), s.acyclic) == (
                    oracles.classify_shape(G), oracle_printed(m),
                    m.girth is None)
                assert_facts(G, m)
                count += 1
        assert count == 1 + 1 + 2 + 8 + 64 + 1024

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graphs())
    def test_graphs_of_six_to_nine_vertices(self, G):
        s = classify_shape(G)
        assert (s, graph_metrics(s)) == (
            oracles.classify_shape(G), oracle_printed(oracles.graph_metrics(G)))
        assert_facts(G, oracles.graph_metrics(G))


class TestGirth:
    """girth against the edge-by-edge oracle, on graphs beyond the reach of
    the subset-enumerating metrics oracle."""

    def test_ring_graphs(self):
        graphs_seen = 0
        for _, R in harness.default_ring_corpus():
            for shape in (ringlab.ring_zdgraph(R),
                          ringlab.annihilating_ideal_graph(R)[0]):
                G = shape.graph
                assert girth(G.masks) == oracles.girth(G), shape
                graphs_seen += 1
        assert graphs_seen == 2 * 167

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(graphs(st.integers(10, 40)), cycles_with_chords()))
    def test_graphs_of_ten_to_forty_vertices(self, G):
        assert girth(G.masks) == oracles.girth(G)


class TestShapes:
    def test_single_vertex(self):
        assert classify_shape(graph_from_edges(1, [])).tag == "single-vertex"

    def test_k2_reports_complete(self):
        s = classify_shape(graph_from_edges(2, [(0, 1)]))
        assert (s.tag, s.params) == ("complete", (2,))
        assert s.line() == "complete n=2"

    def test_complete_k3(self):
        s = classify_shape(graph_from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        assert (s.tag, s.params) == ("complete", (3,))

    def test_star(self):
        s = classify_shape(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert (s.tag, s.params) == ("star", (3,))
        assert s.line() == "star r=3"

    def test_two_star_p4(self):
        s = classify_shape(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert (s.tag, s.params) == ("two-star", (1, 1))
        assert s.line() == "two-star r=1 s=1 (K1+K1+K1+D_1)"

    def test_two_star_unbalanced(self):
        edges = [(0, 1), (2, 0), (3, 1), (4, 1)]
        s = classify_shape(graph_from_edges(5, edges))
        assert (s.tag, s.params) == ("two-star", (1, 2))
        assert "K1+K1+K1+D_2" in s.line()

    def test_two_star_both_sides(self):
        edges = [(0, 1), (2, 0), (3, 0), (4, 1), (5, 1)]
        s = classify_shape(graph_from_edges(6, edges))
        assert (s.tag, s.params) == ("two-star", (2, 2))
        assert "D_2+K1+K1+D_2" in s.line()

    def test_complete_bipartite(self):
        edges = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
        s = classify_shape(graph_from_edges(5, edges))
        assert (s.tag, s.params) == ("complete-bipartite", (2, 3))

    def test_forest(self):
        # spider with a length-2 leg: not a star or two-star
        edges = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]
        s = classify_shape(graph_from_edges(6, edges))
        assert s.tag == "forest"

    def test_cyclic(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]
        s = classify_shape(graph_from_edges(5, edges))
        assert s.tag == "cyclic"
        assert s.girth == 4


class TestDot:
    def test_edges_and_isolated_vertices(self):
        A = cons.example_3_2(1)
        G = build_zdgraph(A.mul)
        dot = export_dot(G, A.names)
        assert dot.startswith("graph zd {")
        assert '"a";' in dot                    # isolated single vertex

    def test_edge_lines(self):
        A = cons.example_2_6(1)
        G = build_zdgraph(A.mul)
        dot = export_dot(G, A.names)
        assert '"a" -- "b1";' in dot

    def test_quoting(self):
        G = graph_from_edges(2, [(0, 1)])
        labels = {1: 'v"1', 2: "v2"}
        dot = export_dot(G, labels)
        assert '"v\\"1" -- "v2";' in dot

    def test_backslash_escaped_before_quote(self):
        # unescaped, the name a\ would end in \", which does not close it
        G = graph_from_edges(2, [(0, 1)])
        line = export_dot(G, {1: "a\\", 2: 'b"'}).splitlines()[1]
        assert line == '  "a\\\\" -- "b\\"";'
        string = r'"((?:[^"\\]|\\.)*)"'     # each \ pairs with the next char
        ends = re.fullmatch(f"  {string} -- {string};", line).groups()
        assert [re.sub(r"\\(.)", r"\1", s) for s in ends] == ["a\\", 'b"']
