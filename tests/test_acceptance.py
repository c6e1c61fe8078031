"""Acceptance gate: one test per criterion, with the stated runtime budgets.

Each criterion is tested against independently derived or pinned expected
values; failures here indicate the package does not meet its contract.
"""

import time

import pytest

import oracles
from posemiring import constructions as cons
from posemiring import harness, ringlab
from posemiring.census import enumerate_posemirings
from posemiring.core import (
    analyze_elements,
    check_conditions,
    is_prime_element,
    lower_ideal,
    zero_divisors,
)
from posemiring.graphs import classify_shape, graph_metrics


def shape_of(A):
    return classify_shape(cons.posemiring_zdgraph(A))


class TestCriterion1CensusCounts:
    def test_orders_two_and_three(self):
        start = time.perf_counter()
        r2 = enumerate_posemirings(2)
        r3 = enumerate_posemirings(3)
        elapsed = time.perf_counter() - start
        assert r2.count_up_to_iso == 1
        assert r3.count_up_to_iso == 2
        assert elapsed < 1.0


class TestCriterion2OracleEquivalence:
    def test_order_four_fast_vs_naive(self):
        start = time.perf_counter()
        fast = enumerate_posemirings(4)
        keys, labelled = oracles.naive_census(4)
        elapsed = time.perf_counter() - start
        assert fast.count_up_to_iso == len(keys)
        assert fast.count_labeled == labelled
        assert {oracles.canonical_form(A) for A in fast.instances} == keys
        assert elapsed < 60.0


class TestCriterion3TheoremHarness:
    def test_full_catalog_zero_failures(self):
        start = time.perf_counter()
        corpus = harness.full_corpus(5)
        report = harness.run_catalog(corpus)
        elapsed = time.perf_counter() - start
        assert report.failures == []
        assert report.counts["pass"] > 0
        assert elapsed < 600.0


class TestCriterion4GraphFixtures:
    def test_ring_z2_x_z4(self):
        R = ringlab.ring_product(ringlab.ring_zn(2), ringlab.ring_zn(4))
        shape = ringlab.ring_zdgraph(R)
        assert (shape.tag, shape.params) == ("two-star", (1, 2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trivial_times_example_3_2(self, k):
        A = cons.direct_product(cons.trivial(), cons.example_3_2(k))
        shape = shape_of(A)
        assert (shape.tag, shape.params) == ("two-star", (1, k + 1))
        assert shape.params[1] == cons.example_3_2(k).order - 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_example_3_2_single_vertex(self, k):
        assert shape_of(cons.example_3_2(k)).tag == "single-vertex"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_example_2_6_star_with_k_leaves(self, k):
        shape = shape_of(cons.example_2_6(k))
        if k == 1:
            # the star with one leaf is the complete graph on two vertices
            assert (shape.tag, shape.params) == ("complete", (2,))
        else:
            assert (shape.tag, shape.params) == ("star", (k,))


class TestCriterion5RingFixtures:
    def test_complete_two_trio(self):
        for n in (6, 8, 27):
            shape, _ = ringlab.annihilating_ideal_graph(ringlab.ring_zn(n))
            assert (shape.tag, shape.params) == ("complete", (2,))

    def test_z12_two_star(self):
        shape, _ = ringlab.annihilating_ideal_graph(ringlab.ring_zn(12))
        assert (shape.tag, shape.params) == ("two-star", (1, 1))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_prime_fields_empty(self, p):
        shape, _ = ringlab.annihilating_ideal_graph(ringlab.ring_zn(p))
        assert shape.tag == "empty"

    def test_c44_equivalence_over_default_corpus(self):
        start = time.perf_counter()
        corpus = harness.Corpus()
        corpus.rings.extend(harness.default_ring_corpus())
        report = harness.run_catalog(corpus, check_ids=["C4.4"])
        elapsed = time.perf_counter() - start
        assert report.failures == []
        assert elapsed < 120.0


class TestCriterion6ConditionFixtures:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("build", [cons.example_2_6, cons.example_3_2])
    def test_examples_c2_false_c3_true(self, build, k):
        cond = check_conditions(build(k))
        assert cond.c2 is False
        assert cond.c3 is True

    def test_ideal_semirings_satisfy_c1(self):
        for rid, R in harness.default_ring_corpus():
            table, _ = ringlab.ideal_semiring(R)
            assert check_conditions(table).c1, rid


class TestCriterion7RoundTrips:
    def test_recognize_small_z_on_census(self, census_instances):
        covered = 0
        for A in census_instances:
            zd = zero_divisors(A)
            if len(zd) not in (1, 2):
                continue
            if len(zd) == 2 and all(A.mul[x][y] == 0 for x in zd for y in zd):
                continue            # the Z^2 = 0 case reports conditions
            dec = cons.recognize_small_z(A)
            assert dec.witness is not None
            covered += 1
        assert covered > 0

    def test_recognize_small_z_on_constructions(self):
        targets = [cons.adjoin_z1(cons.chain_lattice(k)) for k in (1, 2)]
        targets += [cons.adjoin_z2_chain(cons.chain_lattice(k), u2)
                    for k in (1, 2) for u2 in ("c", "u")]
        targets += [cons.adjoin_z2_incomparable(cons.chain_lattice(1)),
                    cons.example_3_2(2)]
        for A in targets:
            dec = cons.recognize_small_z(A)
            assert dec.witness is not None

    def test_peel_boolean_on_c3_census(self, census_instances):
        covered = 0
        for A in census_instances:
            if not check_conditions(A).c3:
                continue
            peel = cons.peel_boolean(A)
            assert peel.witness is not None
            covered += 1
        assert covered > 0

    def test_split_two_star_on_census_products(self, census_instances):
        # a two-star graph needs at least four vertices, so order >= 6:
        # extend the census with the {0,1} x S products that first reach it
        pool = list(census_instances)
        pool += [cons.direct_product(cons.trivial(), S)
                 for S in census_instances
                 if len(zero_divisors(S)) == 1]
        covered = 0
        for A in pool:
            if not check_conditions(A).c3:
                continue
            shape = shape_of(A)
            if shape.tag != "two-star" or shape.params[0] != 1:
                continue
            split = cons.split_two_star(A)
            assert split is not None
            assert split.r == split.s.order - 2
            covered += 1
        assert covered > 0


class TestCriterion8StructuralProperties:
    def test_products_are_lower_bounds(self, census_instances):
        for A in census_instances:
            assert oracles.derived_checks(A) == ()

    def test_maximal_implies_prime(self, census_instances):
        for A in census_instances:
            ana = analyze_elements(A)
            assert ana.maximals <= ana.primes

    def test_prime_element_iff_prime_lower_ideal(self, census_instances):
        for A in census_instances:
            for p in A.elements():
                assert is_prime_element(A, p) == lower_ideal(A, p).prime

    def test_minimal_eccentricity_at_most_two(self, census_instances):
        for A in census_instances:
            if not zero_divisors(A):
                continue
            G = cons.posemiring_zdgraph(A)
            metrics = graph_metrics(G)
            pos = {v: i for i, v in enumerate(G.vertices)}
            for u in analyze_elements(A).minimals:
                assert u in pos
                assert metrics.eccentricity[pos[u]] <= 2

    def test_clique_number_bounds_minimals(self, census_instances):
        for A in census_instances:
            if not zero_divisors(A):
                continue
            metrics = graph_metrics(cons.posemiring_zdgraph(A))
            assert metrics.clique_number >= len(analyze_elements(A).minimals)

    def test_vertex_count_under_chain_hypotheses(self, census_instances):
        for A in census_instances:
            cond = check_conditions(A)
            if not (cond.c1 or cond.c2):
                continue
            if not zero_divisors(A):
                continue
            assert cons.posemiring_zdgraph(A).n == A.order - 2
