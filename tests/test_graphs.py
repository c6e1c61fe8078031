import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from posemiring import constructions as cons
from posemiring.core import StructureError
from posemiring.graphs import (
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
        mul = [[0, 0], [1, 0]]
        with pytest.raises(StructureError):
            build_zdgraph(mul)

    def test_rejects_nonabsorbing_zero(self):
        mul = [[0, 1], [1, 1]]
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
        try:
            want = oracles.build_zdgraph(mul)
        except StructureError as exc:
            with pytest.raises(StructureError) as got:
                build_zdgraph(mul)
            assert str(got.value) == str(exc)
        else:
            G = build_zdgraph(mul)
            assert (G.vertices, oracles.adjacency(G)) == want


class TestMetrics:
    def test_empty_graph(self):
        m = graph_metrics(graph_from_edges(0, []))
        assert m.diameter is None and m.girth is None
        assert m.clique_number == 0 and m.component_count == 0

    def test_path_p4(self):
        m = graph_metrics(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert m.diameter == 3
        assert m.girth is None
        assert m.clique_number == 2
        assert m.triangle_free and m.quadrilateral_free

    def test_cycle_c4(self):
        m = graph_metrics(graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert m.girth == 4
        assert m.triangle_free
        assert not m.quadrilateral_free

    def test_cycle_c5(self):
        m = graph_metrics(graph_from_edges(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        assert m.girth == 5
        assert m.diameter == 2
        assert m.triangle_free and m.quadrilateral_free

    def test_triangle(self):
        m = graph_metrics(graph_from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        assert m.girth == 3
        assert m.clique_number == 3
        assert not m.triangle_free

    def test_disconnected_diameter_infinite(self):
        m = graph_metrics(graph_from_edges(3, [(0, 1)]))
        assert m.diameter == math.inf
        assert m.component_count == 2

    def test_clique_number_k23(self):
        edges = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
        m = graph_metrics(graph_from_edges(5, edges))
        assert m.clique_number == 2
        assert not m.quadrilateral_free


def labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_edges(n, [p for i, p in enumerate(pairs)
                                   if mask >> i & 1])


@st.composite
def graphs(draw):
    n = draw(st.integers(6, 9))
    pairs = list(itertools.combinations(range(n), 2))
    density = draw(st.floats(0, 1))
    picks = draw(st.lists(st.floats(0, 1), min_size=len(pairs),
                          max_size=len(pairs)))
    return graph_from_edges(n, [p for p, u in zip(pairs, picks)
                                if u < density])


def assert_facts(G, m):
    """Each fact function, and each fact a shape computes alone, equals the
    field of the oracle metrics m, without computing the full metrics."""
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
    assert tuple(map(s.eccentricity, range(G.n))) == m.eccentricity
    assert "metrics" not in s.__dict__


class TestOracle:
    def test_every_graph_up_to_five_vertices(self):
        count = 0
        for n in range(6):
            for G in labelled_graphs(n):
                s = classify_shape(G)
                assert "metrics" not in s.__dict__  # no tag reads them
                m = oracles.graph_metrics(G)
                assert (s, s.metrics, s.acyclic) == (
                    oracles.classify_shape(G), m, m.girth is None)
                assert_facts(G, m)
                count += 1
        assert count == 1 + 1 + 2 + 8 + 64 + 1024

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graphs())
    def test_graphs_of_six_to_nine_vertices(self, G):
        s = classify_shape(G)
        assert (s, s.metrics) == (oracles.classify_shape(G),
                                  oracles.graph_metrics(G))
        assert_facts(G, oracles.graph_metrics(G))


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
        assert s.metrics.girth == 4


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
