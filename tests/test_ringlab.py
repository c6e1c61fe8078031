import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from posemiring import constructions as cons
from posemiring import core, harness, ringlab
from posemiring.core import (
    ORDER_CAP,
    DomainError,
    StructureError,
    analyze_elements,
    check_conditions,
    find_isomorphism,
    principal_ideal,
    verify_axioms,
)
from posemiring.graphs import build_zdgraph


def brute_force_ring_ideals(R):
    found = set()
    elems = list(R.elements())
    for r in range(1, len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            s = set(subset)
            if 0 not in s:
                continue
            if any(R.add[i][j] not in s for i in s for j in s):
                continue
            if any(R.mul[i][a] not in s for i in s for a in elems):
                continue
            found.add(frozenset(s))
    return found


def monomial_ring_text(p, basis):
    """F_p[x,y] modulo every monomial outside basis, as `ring 1` text.

    basis lists exponent pairs (i, j) closed under division, starting with
    (0, 0); the element with coefficient vector v has index sum v_k p^(K-1-k).
    """
    pos = {m: k for k, m in enumerate(basis)}
    vecs = list(itertools.product(range(p), repeat=len(basis)))
    index = {v: k for k, v in enumerate(vecs)}

    def mul(u, v):
        w = [0] * len(basis)
        for (i, j), a in zip(basis, u):
            for (k, l), b in zip(basis, v):
                if (i + k, j + l) in pos:
                    w[pos[i + k, j + l]] = (w[pos[i + k, j + l]] + a * b) % p
        return index[tuple(w)]

    def name(v):
        terms = [("" if c == 1 and i + j else str(c)) + "x" * i + "y" * j
                 for c, (i, j) in zip(v, basis) if c]
        return "+".join(terms) or "0"

    add = [[index[tuple((a + b) % p for a, b in zip(u, v))] for v in vecs]
           for u in vecs]
    one = index[(1,) + (0,) * (len(basis) - 1)]
    lines = ["ring 1", f"order {len(vecs)}", f"one {one}",
             "names " + " ".join(map(name, vecs)), "add"]
    lines += [" ".join(map(str, row)) for row in add] + ["mul"]
    lines += [" ".join(str(mul(u, v)) for v in vecs) for u in vecs]
    return "\n".join(lines) + "\n"


def rows_as_tuples(R):
    """R's (add, mul) bytes rows as int tuples, the oracles' form."""
    return tuple(map(tuple, R.add)), tuple(map(tuple, R.mul))


MAXIMAL_SQUARE_ZERO = ((0, 0), (1, 0), (0, 1))      # F_p[x,y]/(x^2,xy,y^2)
DUAL_SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))      # F_p[x,y]/(x^2,y^2)


class TestRingConstruction:
    def test_zn_basics(self):
        R = ringlab.ring_zn(6)
        assert R.order == 6 and R.one == 1
        assert R.mul[2][3] == 0

    def test_zn_caps(self):
        with pytest.raises(DomainError):
            ringlab.ring_zn(1)
        with pytest.raises(DomainError):
            ringlab.ring_zn(513)
        with pytest.raises(DomainError):
            ringlab.ring_zn(ORDER_CAP + 1)

    def test_zn_matches_oracle(self):
        for n in (*range(2, 65), 210, 255, ORDER_CAP):
            R = ringlab.ring_zn(n)
            assert rows_as_tuples(R) == tuple(
                tuple(map(tuple, op)) for op in oracles.zn_tables(n)), n

    def test_quadratic_field(self):
        # x^2 + x + 1 is irreducible over Z_2: this is the field F_4
        R = ringlab.ring_quadratic(2, 1, 1)
        nonzero = [x for x in R.elements() if x != 0]
        assert all(any(R.mul[x][y] == R.one for y in nonzero) for x in nonzero)

    def test_quadratic_nilpotent(self):
        # Z_2[x]/(x^2): x is nilpotent
        R = ringlab.ring_quadratic(2, 0, 0)
        x = 1
        assert R.names[x] == "x"
        assert R.mul[x][x] == 0

    def test_quadratic_rejects_nonprime(self):
        with pytest.raises(DomainError):
            ringlab.ring_quadratic(4, 0, 0)
        with pytest.raises(DomainError):
            ringlab.ring_quadratic(17, 0, 0)

    def test_product(self):
        R = ringlab.ring_product(ringlab.ring_zn(2), ringlab.ring_zn(3))
        assert R.order == 6
        # Z_2 x Z_3 is isomorphic to Z_6: same number of ideals
        assert len(ringlab.enumerate_ring_ideals(R)) == \
            len(ringlab.enumerate_ring_ideals(ringlab.ring_zn(6)))

    def test_quadratic_matches_oracle(self):
        cases = [(p, c1, c0) for p in (2, 3, 5, 7)
                 for c1 in range(p) for c0 in range(p)]
        cases += [(p, c1, c0) for p in (11, 13) for c1 in (0, 1)
                  for c0 in (0, 1)]
        for p, c1, c0 in cases:
            R = ringlab.ring_quadratic(p, c1, c0)
            assert rows_as_tuples(R) == tuple(
                tuple(map(tuple, op))
                for op in oracles.quadratic_tables(p, c1, c0)), (p, c1, c0)

    @pytest.mark.parametrize("left,right", [
        ("zn:2", "zn:128"), ("zn:128", "zn:2"), ("zn:3", "zn:5"),
        ("zn:6", "zn:4"), ("zpx:2:1:1", "zn:7"), ("zn:5", "zpx:3:0:0"),
        ("zpx:2:0:0", "zpx:3:1:2")])
    def test_product_rows_match_oracle(self, left, right):
        R, S = ringlab.make_ring(left), ringlab.make_ring(right)
        got = [core.product_rows(R.add, S.add), core.product_rows(R.mul, S.mul)]
        want = oracles.product_tables((R.add, R.mul), (S.add, S.mul))
        assert got == [list(map(bytes, op)) for op in want]

    def test_product_order_bounded_before_building(self, monkeypatch):
        calls = []
        quadratic = ringlab.ring_quadratic
        monkeypatch.setattr(ringlab, "ring_quadratic",
                            lambda *args: calls.append(args) or quadratic(*args))
        with pytest.raises(DomainError,
                           match=r"^product order 28561 exceeds cap 256$"):
            ringlab.make_ring("prod(zpx:13:0:1,zpx:13:0:2)")
        assert calls == []
        assert ringlab.make_ring("prod(zpx:3:0:1,zn:2)").order == 18
        assert calls == [(3, 0, 1)]

    @pytest.mark.parametrize("spec,message", [
        # errors come in the order building would meet them
        ("prod(zn:999,prod(zn:128,zn:4))", r"zn order must be in \[2, 256\]"),
        ("prod(prod(zn:128,zn:4),zn:999)", r"product order 512 exceeds"),
        ("prod(prod(zn:16,zn:4),zn:8)", r"product order 512 exceeds"),
        ("prod(zpx:4:0:0,zn:999)", r"zpx modulus must be a prime"),
        ("prod(zn:2,zpx:3:0)", r"zpx spec is zpx:p:c1:c0")])
    def test_spec_errors_in_build_order(self, spec, message):
        with pytest.raises((DomainError, StructureError), match=message):
            ringlab.make_ring(spec)

    def test_make_ring_grammar(self):
        assert ringlab.make_ring("zn:4").order == 4
        assert ringlab.make_ring("zpx:3:0:1").order == 9
        assert ringlab.make_ring("prod(zn:2,zn:2)").order == 4
        with pytest.raises(StructureError):
            ringlab.make_ring("zq:4")
        with pytest.raises(StructureError):
            ringlab.make_ring("zn:x")

    def test_file_round_trip(self):
        R = ringlab.ring_zn(6)
        S = ringlab.parse_ring_file(oracles.ring_to_text(R))
        assert S.add == R.add and S.mul == R.mul and S.one == R.one

    def test_file_rejects_invalid_ring(self):
        R = ringlab.ring_zn(4)
        text = oracles.ring_to_text(R).replace("one 1", "one 2")
        with pytest.raises(StructureError):
            ringlab.parse_ring_file(text)


class TestIdeals:
    @pytest.mark.parametrize("spec", ["zn:8", "zn:12", "zpx:2:0:0",
                                      "prod(zn:2,zn:4)"])
    def test_enumeration_matches_subset_oracle(self, spec):
        R = ringlab.make_ring(spec)
        fast = {i.members for i in ringlab.enumerate_ring_ideals(R)}
        assert fast == brute_force_ring_ideals(R)

    def test_z12_ideal_lattice(self):
        R = ringlab.ring_zn(12)
        ideals = ringlab.enumerate_ring_ideals(R)
        assert len(ideals) == 6
        names = [ringlab.ideal_name(R, i) for i in ideals]
        assert names[0] == "(0)"
        assert names[-1] == "(1)"
        sizes = [len(i.members) for i in ideals]
        assert sizes == [1, 2, 3, 4, 6, 12]

    def test_nested_pairs_are_not_summed(self, monkeypatch):
        # I in J gives I + J = J, so ideal_family never sums such a pair
        pairs = []
        ideal_sum = core.ideal_sum

        def checking(A, I, J):
            pairs.append((I, J))
            return ideal_sum(A, I, J)

        monkeypatch.setattr(core, "ideal_sum", checking)
        for _, R in harness.default_ring_corpus():
            ringlab.enumerate_ring_ideals(R)
        assert pairs
        assert not [(I, J) for I, J in pairs if I <= J or J <= I]

    def test_ideal_ordering_zero_first_ring_last(self):
        for spec in ("zn:9", "zn:16", "zpx:3:0:0"):
            R = ringlab.make_ring(spec)
            ideals = ringlab.enumerate_ring_ideals(R)
            assert ideals[0].members == frozenset({0})
            assert ideals[-1].members == frozenset(R.elements())


class TestIdealSemiring:
    def test_z4_is_nilpotent_chain(self):
        table, ideals = ringlab.ideal_semiring(ringlab.ring_zn(4))
        assert table.order == 3
        chain = cons.adjoin_z1(cons.trivial())
        assert find_isomorphism(table, chain) is not None

    def test_field_gives_trivial(self):
        table, _ = ringlab.ideal_semiring(ringlab.ring_zn(7))
        assert table.order == 2

    def test_product_of_fields_gives_boolean_square(self):
        table, _ = ringlab.ideal_semiring(ringlab.ring_zn(6))
        assert find_isomorphism(table, cons.boolean_power(2)) is not None

    def test_always_valid_posemiring(self):
        for spec in ("zn:12", "zn:16", "zpx:2:1:0", "prod(zn:4,zn:2)"):
            table, _ = ringlab.ideal_semiring(ringlab.make_ring(spec))
            assert verify_axioms(table).valid

    def test_c3_and_c1_hold(self):
        for spec in ("zn:12", "zn:30", "zpx:5:0:0"):
            table, _ = ringlab.ideal_semiring(ringlab.make_ring(spec))
            cond = check_conditions(table)
            assert cond.c1 and cond.c2 and cond.c3


class TestGraphs:
    @pytest.mark.parametrize("spec,expected", [
        ("zn:6", ("complete", (2,))),
        ("zn:8", ("complete", (2,))),
        ("zn:27", ("complete", (2,))),
        ("zn:12", ("two-star", (1, 1))),
        ("zn:7", ("empty", ())),
        ("zpx:2:0:0", ("single-vertex", ())),
    ])
    def test_annihilating_ideal_graph_shapes(self, spec, expected):
        R = ringlab.make_ring(spec)
        shape, _ = ringlab.annihilating_ideal_graph(R)
        assert (shape.tag, shape.params) == expected

    def test_annihilating_ideal_graph_reads_the_verified_rows(
            self, monkeypatch):
        # AG(R) = Gamma(I(R)) on every rings:default spec, built without
        # build_zdgraph's raw-row checks: ideal_semiring verified I(R)
        corpus = harness.default_ring_corpus()
        want = [build_zdgraph(ringlab.ideal_semiring(R)[0].mul)
                for _, R in corpus]

        def refused(mul):
            raise AssertionError("build_zdgraph called")

        monkeypatch.setattr(ringlab, "build_zdgraph", refused)
        assert [ringlab.annihilating_ideal_graph(R)[0].graph
                for _, R in corpus] == want

    def test_zero_divisor_graph_z2xz4(self):
        R = ringlab.make_ring("prod(zn:2,zn:4)")
        shape = ringlab.ring_zdgraph(R)
        assert (shape.tag, shape.params) == ("two-star", (1, 2))

    def test_zero_divisor_graph_z2x_z2x_mod_xsq(self):
        # Z_2 x Z_2[x]/(x^2) has the same graph as Z_2 x Z_4
        R = ringlab.make_ring("prod(zn:2,zpx:2:0:0)")
        shape = ringlab.ring_zdgraph(R)
        assert (shape.tag, shape.params) == ("two-star", (1, 2))

    def test_zero_divisor_graph_z2_mod_xsq_alone(self):
        shape = ringlab.ring_zdgraph(ringlab.make_ring("zpx:2:0:0"))
        assert shape.tag == "single-vertex"

    def test_zero_divisor_graph_z9(self):
        shape = ringlab.ring_zdgraph(ringlab.ring_zn(9))
        assert (shape.tag, shape.params) == ("complete", (2,))


class TestRadicals:
    def test_z12(self):
        R = ringlab.ring_zn(12)
        rad = ringlab.radicals(R)
        assert rad.nilradical.members == frozenset({0, 6})
        assert rad.jacobson.members == frozenset({0, 6})
        assert rad.idempotents == frozenset({0, 1, 4, 9})

    def test_maximal_ideals_z12(self):
        R = ringlab.ring_zn(12)
        maxes = {m.members for m in ringlab.maximal_ideals(R)}
        assert maxes == {frozenset({0, 2, 4, 6, 8, 10}),
                         frozenset({0, 3, 6, 9})}

    def test_local(self):
        assert ringlab.is_local(ringlab.ring_zn(8))
        assert ringlab.is_local(ringlab.ring_zn(9))
        assert not ringlab.is_local(ringlab.ring_zn(6))

    def test_jacobson_equals_nilradical_on_finite_rings(self):
        for spec in ("zn:8", "zn:12", "zn:30", "zpx:3:0:0", "zpx:2:1:1"):
            rad = ringlab.radicals(ringlab.make_ring(spec))
            assert rad.nilradical.members == rad.jacobson.members

    def test_nilpotents_nilpotency(self):
        R = ringlab.ring_zn(8)
        assert ringlab.nilpotents(R) == frozenset({0, 2, 4, 6})


class TestElementAnalysisOnIdealSemiring:
    def test_z12_structure(self):
        R = ringlab.ring_zn(12)
        table, ideals = ringlab.ideal_semiring(R)
        members = [i.members for i in ideals]
        six = members.index(frozenset({0, 6}))
        ana = analyze_elements(table)
        assert ana.nilpotency == {six: 2}
        # (6) is the annihilator-graph center: adjacent to everything nontrivial
        shape, _ = ringlab.annihilating_ideal_graph(R)
        assert shape.tag == "two-star"


class TestIdealCache:
    def test_ideals_enumerated_once_and_immutable(self, monkeypatch):
        calls = []
        enumerate_ring_ideals = ringlab.enumerate_ring_ideals
        monkeypatch.setattr(
            ringlab, "enumerate_ring_ideals",
            lambda R: calls.append(R) or enumerate_ring_ideals(R))
        R = ringlab.ring_zn(12)
        ringlab.ideal_semiring(R)
        ringlab.radicals(R)
        ringlab.is_local(R)
        ringlab.maximal_ideals(R)
        assert calls == [R]
        assert isinstance(R.ideals, tuple)

    def test_maximal_ideals_found_once(self, monkeypatch):
        calls = []
        maximal_ideals = ringlab.maximal_ideals
        monkeypatch.setattr(ringlab, "maximal_ideals",
                            lambda R: calls.append(R) or maximal_ideals(R))
        R = ringlab.ring_zn(12)
        ringlab.radicals(R)
        ringlab.is_local(R)
        assert calls == [R]
        assert R.maximal_ideals == maximal_ideals(R)

    def test_principal_ideals_name_their_least_generator(self):
        R = ringlab.ring_zn(12)
        assert [i.generators for i in R.ideals] == [(0,), (6,), (4,), (3,),
                                                    (2,), (1,)]


class TestRingFileBounds:
    def test_order_cap(self):
        text = oracles.ring_to_text(ringlab.ring_zn(2)).replace(
            "order 2", f"order {ORDER_CAP + 1}")
        with pytest.raises(StructureError, match="order must be in"):
            ringlab.parse_ring_file(text)

    def test_zero_ring_rejected(self):
        text = "ring 1\norder 1\none 0\nnames 0\nadd\n0\nmul\n0\n"
        with pytest.raises(StructureError, match="order must be in"):
            ringlab.parse_ring_file(text)

    def test_bad_row_rejected(self):
        text = oracles.ring_to_text(ringlab.ring_zn(2)).replace(
            "add\n0 1\n", "add\n0 2\n")
        with pytest.raises(StructureError, match="add"):
            ringlab.parse_ring_file(text)


# ---------------------------------------------------------------------------
# The ideal layer against the pairwise loops in tests/oracles.py

LARGE_RINGS = ("zn:210", "prod(zn:16,zn:16)", "prod(zn:12,zn:20)",
               "prod(zn:8,zn:32)", "prod(prod(zn:4,zn:4),zn:16)",
               "prod(zpx:3:0:0,zn:27)")


def assert_ideal_layer_matches_oracles(R):
    assert [(i.members, i.generators) for i in R.ideals] == \
        oracles.ring_ideals(R)
    assert all(principal_ideal(R, a) == oracles.principal_ideal(R, a)
               for a in R.elements())
    assert ringlab.nilpotents(R) == oracles.nilpotents(R)
    table, _ = ringlab.ideal_semiring(R)
    assert table == oracles.ideal_semiring(R)


class TestIdealLayerOracles:
    def test_default_ring_corpus(self):
        for _, R in harness.default_ring_corpus():
            assert_ideal_layer_matches_oracles(R)

    @pytest.mark.parametrize("spec", LARGE_RINGS)
    def test_large_rings(self, spec):
        assert_ideal_layer_matches_oracles(ringlab.make_ring(spec))

    @pytest.mark.parametrize("p,basis", [(2, MAXIMAL_SQUARE_ZERO),
                                         (3, MAXIMAL_SQUARE_ZERO),
                                         (5, MAXIMAL_SQUARE_ZERO),
                                         (2, DUAL_SQUARE), (3, DUAL_SQUARE)],
                             ids=["xy2", "xy3", "xy5", "dual2", "dual3"])
    def test_non_principal_rings(self, p, basis):
        R = ringlab.parse_ring_file(monomial_ring_text(p, basis))
        assert_ideal_layer_matches_oracles(R)


def group_fact_rings():
    """rings:default, and the monomial rings whose maximal ideal is not
    principal, as (label, ring)."""
    return harness.default_ring_corpus() + [
        ((p, basis), ringlab.parse_ring_file(monomial_ring_text(p, basis)))
        for p in (2, 3) for basis in (MAXIMAL_SQUARE_ZERO, DUAL_SQUARE)]


class TestAdditiveGroupFacts:
    """The two sizes I(R) is built from, on the oracles' (x) and I + J:
    |(x)| |Ann(x)| = |R|, and |I + J| |I & J| = |I| |J|."""

    def test_principal_ideal_size(self):
        for label, R in group_fact_rings():
            for x in R.elements():
                ann = sum(1 for r in R.elements() if R.mul[x][r] == 0)
                assert len(oracles.principal_ideal(R, x)) * ann == R.order, \
                    (label, x)

    def test_ideal_sum_size(self):
        for label, R in group_fact_rings():
            ideals = [i.members for i in R.ideals]
            for I, J in itertools.combinations_with_replacement(ideals, 2):
                K = oracles._ideal_sum(R, I, J)
                assert len(K) * len(I & J) == len(I) * len(J), (label, I, J)


def test_ideal_semiring_of_a_product_is_the_product():
    """I(R x S) is isomorphic to I(R) x I(S), on every product ring of
    rings:default."""
    products = [spec for spec, _ in harness.default_ring_corpus()
                if spec.startswith("prod(")]
    assert len(products) == 66
    for spec in products:
        left, right = core.split_top_level(spec[len("prod("):-1])
        factors = [ringlab.ideal_semiring(ringlab.make_ring(f))[0]
                   for f in (left, right)]
        table, _ = ringlab.ideal_semiring(ringlab.make_ring(spec))
        assert find_isomorphism(table, cons.direct_product(*factors)) \
            is not None, spec


ring_trees = st.recursive(
    st.one_of(st.integers(2, 32).map(lambda n: ("zn", n)),
              st.tuples(st.just("zpx"), st.sampled_from((2, 3, 5)),
                        st.integers(0, 4), st.integers(0, 4))),
    lambda trees: st.tuples(st.just("prod"), trees, trees), max_leaves=3)


def tree_order(t):
    return (tree_order(t[1]) * tree_order(t[2]) if t[0] == "prod"
            else t[1] if t[0] == "zn" else t[1] ** 2)


def tree_spec(t):
    if t[0] == "prod":
        return f"prod({tree_spec(t[1])},{tree_spec(t[2])})"
    return ":".join(map(str, t))


def tree_tables(t):
    if t[0] == "prod":
        return oracles.product_tables(tree_tables(t[1]), tree_tables(t[2]))
    return (oracles.zn_tables(t[1]) if t[0] == "zn"
            else oracles.quadratic_tables(*t[1:]))


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(ring_trees.filter(lambda t: tree_order(t) <= ORDER_CAP))
def test_product_rings_match_oracles(tree):
    R = ringlab.make_ring(tree_spec(tree))
    assert rows_as_tuples(R) == tuple(tuple(map(tuple, op))
                                      for op in tree_tables(tree))
    assert_ideal_layer_matches_oracles(R)


class TestNonPrincipalLocalRings:
    """F_p[x,y]/(x^2,xy,y^2): the maximal ideal m = (x,y) is not principal;
    the other ideals are 0, R and the p + 1 lines of m."""

    @pytest.fixture(params=[2, 3], ids=["p2", "p3"])
    def ring(self, request):
        p = request.param
        return p, ringlab.parse_ring_file(
            monomial_ring_text(p, MAXIMAL_SQUARE_ZERO))

    def test_ideals(self, ring):
        p, R = ring
        assert R.order == p ** 3
        assert len(R.ideals) == p + 4
        (m,) = [i for i in R.ideals if not i.generators]
        assert m.members == frozenset(range(p * p))   # constant term 0

    def test_maximal_ideal_squares_to_zero(self, ring):
        _, R = ring
        table, ideals = ringlab.ideal_semiring(R)
        m = next(k for k, i in enumerate(ideals) if not i.generators)
        assert table.mul[m][m] == 0 and ideals[0].members == {0}

    def test_ring_checks_pass(self, ring):
        _, R = ring
        corpus = harness.Corpus(rings=[("R", R)])
        report = harness.run_catalog(
            corpus, check_ids=["Prop1.2", "C2.5", "C2.8", "C4.4"])
        assert len(report.results) == 4 and not report.failures
