import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from posemiring.census import enumerate_posemirings
from posemiring.core import (
    DomainError,
    StructureError,
    analyze_elements,
    annihilator,
    check_conditions,
    enumerate_ideals,
    find_isomorphism,
    ideal_sum,
    is_ideal,
    is_idempotent,
    is_maximal_element,
    is_minimal_element,
    is_prime_element,
    lower_ideal,
    make_table,
    nilpotency_index,
    orthogonal_complement,
    orthogonal_complements,
    parse_psr,
    primitive_decomposition,
    principal_ideal,
    to_text,
    verify_axioms,
    zero_divisors,
)
from posemiring import constructions as cons
from posemiring import core, harness, ringlab


def chain3_nilpotent():
    # 0 < a < 1 with a^2 = 0
    return make_table(3, ("0", "a", "1"),
                      [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                      [[0, 0, 0], [0, 0, 1], [0, 1, 2]])


def chain3_idempotent():
    return make_table(3, ("0", "a", "1"),
                      [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                      [[0, 0, 0], [0, 1, 1], [0, 1, 2]])


class TestMakeTable:
    def test_rejects_small_order(self):
        with pytest.raises(StructureError):
            make_table(1, ("0",), [[0]], [[0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(StructureError):
            make_table(2, ("0", "1"), [[0, 1]], [[0, 0], [0, 1]])

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(StructureError):
            make_table(2, ("0", "1"), [[0, 1], [1, 5]], [[0, 0], [0, 1]])

    def test_rejects_duplicate_names(self):
        with pytest.raises(StructureError):
            make_table(2, ("x", "x"), [[0, 1], [1, 1]], [[0, 0], [0, 1]])

    @pytest.mark.parametrize("label", ["add", "mul"])
    @pytest.mark.parametrize("rows,bad", [
        ([[0, 1], [1, 5]], 5),
        ([[0, 2], [-1, 1]], 2),         # row-major: 2 comes before -1
        ([[0, 1], [-1, 9]], -1),
        ([[0, 1], [1.0, 256]], 256),
    ])
    def test_names_first_out_of_range_entry(self, label, rows, bad):
        tables = {"add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]],
                  label: rows}
        with pytest.raises(StructureError) as err:
            make_table(2, ("0", "1"), tables["add"], tables["mul"])
        assert str(err.value) == f"{label} entry {bad} out of range [0, 2)"

    def test_entries_become_ints(self):
        A = make_table(2, ("0", "1"), [["0", 1.0], [True, 1]],
                       [[0, 0], [0, "1"]])
        assert (A.add, A.mul) == ((b"\0\1", b"\1\1"), (b"\0\0", b"\0\1"))
        assert all(type(v) is int for row in A.add + A.mul for v in row)


@pytest.mark.parametrize("produce", [
    lambda: make_table(2, ("0", "1"), [[0, 1], [1, 1]], [[0, 0], [0, 1]]),
    lambda: parse_psr(to_text(cons.example_2_6(2))),
    lambda: enumerate_posemirings(5).instances[-1],
    lambda: cons.direct_product(cons.trivial(), cons.chain_lattice(1)),
    lambda: cons.adjoin_z1(cons.chain_lattice(1)),
    lambda: cons.adjoin_z2_incomparable(cons.chain_lattice(1)),
    lambda: cons.adjoin_z2_chain(cons.chain_lattice(1), "u"),
    lambda: cons.recognize_small_z(cons.adjoin_z1(cons.chain_lattice(2))).a1,
    lambda: cons.peel_boolean(cons.boolean_power(3)).a1,
    lambda: ringlab.ideal_semiring(ringlab.make_ring("zn:12"))[0],
    lambda: ringlab.make_ring("prod(zn:2,zpx:2:1:1)"),
    lambda: ringlab.parse_ring_file(oracles.ring_to_text(
        ringlab.make_ring("zn:6"))),
], ids=["make_table", "parse_psr", "census", "direct_product", "adjoin_z1",
        "adjoin_z2i", "adjoin_z2c", "small_z_a1", "peel_a1", "ideal_semiring",
        "make_ring", "parse_ring_file"])
def test_every_producer_yields_bytes_rows(produce):
    T = produce()
    assert type(T.add) is tuple and type(T.mul) is tuple
    assert len(T.add) == len(T.mul) == T.order
    assert all(type(row) is bytes and len(row) == T.order
               for row in T.add + T.mul)


class TestVerifyAxioms:
    def test_valid_chain(self):
        assert verify_axioms(chain3_nilpotent()).valid

    def test_broken_cell_is_caught_and_replayable(self):
        A = chain3_nilpotent()
        add = [list(r) for r in A.add]
        add[1][2] = 1          # a + 1 = a breaks one-is-top
        B = make_table(3, A.names, add, A.mul)
        report = verify_axioms(B)
        assert not report.valid
        for axiom, witness in report.violations:
            assert oracles.replay_violation(B, axiom, witness)

    def test_every_axiom_id_reachable(self):
        # non-commutative multiplication
        A = chain3_idempotent()
        mul = [list(r) for r in A.mul]
        mul[1][2] = 0
        B = make_table(3, A.names, A.add, mul)
        report = verify_axioms(B)
        assert "mul-commutative" in {ax for ax, _ in report.violations}

    def test_report_kept_on_the_table(self, axiom_kernel_calls):
        # the kernel runs on a table's first verify_axioms only
        A = chain3_nilpotent()
        add = [list(r) for r in A.add]
        add[1][2] = 1
        B = make_table(3, A.names, add, A.mul)
        for table in (A, B, A, B):
            report = verify_axioms(table)
            assert verify_axioms(table) is report
        assert axiom_kernel_calls == [A, B]
        assert verify_axioms(A).valid and not verify_axioms(B).valid

    def test_derived_checks_empty_on_valid(self, census_instances):
        for A in census_instances:
            assert oracles.derived_checks(A) == ()


class TestElements:
    def test_nilpotency(self):
        A = chain3_nilpotent()
        assert nilpotency_index(A, 1) == 2
        assert nilpotency_index(A, 2) is None
        with pytest.raises(DomainError):
            nilpotency_index(A, 0)

    def test_zero_divisors_example(self):
        A = cons.example_2_6(2)
        assert sorted(A.names[x] for x in zero_divisors(A)) == ["a", "b1", "b2"]

    def test_zero_prime_iff_integral(self):
        assert is_prime_element(chain3_idempotent(), 0)
        assert not is_prime_element(chain3_nilpotent(), 0)

    def test_one_never_prime_or_maximal(self, census_instances):
        for A in census_instances:
            assert not is_prime_element(A, A.one)
            assert not is_maximal_element(A, A.one)

    def test_order_two_extremes(self):
        A = cons.trivial()
        assert is_minimal_element(A, 1)
        assert not is_minimal_element(A, 0)
        assert is_maximal_element(A, 0)

    def test_analysis_example_2_6(self):
        A = cons.example_2_6(2)
        ana = analyze_elements(A)
        by_name = lambda xs: sorted(A.names[x] for x in xs)
        assert ana.nilpotency == {1: 2}
        assert by_name(ana.idempotents) == ["1", "b1", "b2"]
        assert by_name(ana.minimals) == ["a"]
        assert by_name(ana.maximals) == ["b2"]
        assert by_name(ana.primes) == ["a", "b1", "b2"]

    def test_primitive_idempotents_boolean_square(self):
        A = cons.boolean_power(2)
        ana = analyze_elements(A)
        assert ana.primitive_idempotents == frozenset({1, 2})
        assert primitive_decomposition(A, A.one) == (1, 2)

    def test_primitive_decomposition_needs_no_c2(self, census7_and_grid):
        # splitting along A.splits ends on a finite table, and parts from
        # the two sides of a split w + v are orthogonal: pq <= wv = 0
        seen = without_c2 = 0
        for A in census7_and_grid:
            c2 = check_conditions(A).c2
            primitive = analyze_elements(A).primitive_idempotents
            for e in A.nonzero():
                if not is_idempotent(A, e):
                    continue
                parts = primitive_decomposition(A, e)
                assert parts == oracles.primitive_parts(A, e)
                assert set(parts) <= primitive
                assert all(A.mul[p][q] == 0
                           for p, q in itertools.combinations(parts, 2))
                total = 0
                for p in parts:
                    total = A.add[total][p]
                assert total == e
                seen += 1
                without_c2 += not c2
        assert (seen, without_c2) == (2240, 1987)

    def test_primitive_decomposition_rejects_non_idempotents(self):
        A = chain3_nilpotent()
        for x in (0, 1):
            with pytest.raises(DomainError):
                primitive_decomposition(A, x)


class TestIdeals:
    def brute_force_ideals(self, A):
        found = set()
        elems = list(A.elements())
        for r in range(1, len(elems) + 1):
            for subset in itertools.combinations(elems, r):
                if is_ideal(A, subset):
                    found.add(frozenset(subset))
        return found

    def test_enumeration_matches_subset_oracle(self, census_instances):
        grid = [A for _, A in harness.construction_grid().posemirings
                if A.order <= 10]
        for A in list(census_instances) + grid:
            fast = {i.members for i in enumerate_ideals(A)}
            assert fast == self.brute_force_ideals(A)

    @pytest.fixture(scope="class")
    def census6_and_grid(self):
        return ([A for n in range(2, 7)
                 for A in enumerate_posemirings(n).instances]
                + [A for _, A in harness.construction_grid().posemirings])

    def test_principal_ideals_are_closures(self, census6_and_grid):
        # xa + xb = x(a + b), x0 = 0 and x1 = x: the row of x is closed
        for A in census6_and_grid:
            for x in A.elements():
                assert principal_ideal(A, x) == frozenset(A.mul[x]) == \
                    oracles.ideal_closure(A, {x})

    def test_complement_down_sets_are_principal(self, census7_and_grid):
        # x <= f means x = xe + xf = xf when e, f are complements: xe <= fe = 0
        for A in census7_and_grid:
            for _, f in A.splits[A.one]:
                assert principal_ideal(A, f) == oracles.lower_members(A, f)

    def test_sums_are_closures(self, census_instances):
        # the coset skip: J + J lies in J
        grid = [A for _, A in harness.construction_grid().posemirings]
        for A in list(census_instances) + grid:
            family = [i.members for i in enumerate_ideals(A)]
            for I in family:
                for J in family:
                    assert ideal_sum(A, I, J) == \
                        oracles.ideal_closure(A, I | J)

    def test_family_pinned(self, census6_and_grid):
        # members, flags and their order, as the fixpoint closure gave them
        h = hashlib.sha256()
        for A in census6_and_grid:
            for i in enumerate_ideals(A):
                h.update(repr((sorted(i.members), i.hereditary, i.prime,
                               i.principal_annihilating,
                               i.lower_principal)).encode())
            h.update(b"|")
        assert (len(census6_and_grid), h.hexdigest()) == (
            202,
            "96356fc5ed72bd0de602bd1dc5010603913e7eb46cb8ccb54d1d3b2ad503cd1b")

    def test_enumeration_matches_oracle_on_examples(self):
        for A in (cons.example_2_6(2), cons.example_4_6(1, "c")):
            fast = {i.members for i in enumerate_ideals(A)}
            assert fast == self.brute_force_ideals(A)

    def test_lower_ideal_flags(self):
        A = cons.example_2_6(2)
        low = lower_ideal(A, 2)     # <b1> = {0, a, b1}
        assert low.members == frozenset({0, 1, 2})
        assert low.hereditary
        assert low.prime
        assert low.lower_principal == 2

    def test_annihilator(self):
        A = cons.example_2_6(2)
        ann = annihilator(A, 1)     # ann(a) = {0, a, b1, b2}
        assert ann.members == frozenset({0, 1, 2, 3})
        assert ann.principal_annihilating


class TestConditions:
    def test_examples_fail_c2_hold_c3(self):
        for k in (1, 2, 3):
            for build in (cons.example_2_6, cons.example_3_2):
                cond = check_conditions(build(k))
                assert not cond.c2
                assert cond.c3

    def test_c1_on_boolean_power(self):
        cond = check_conditions(cons.boolean_power(2))
        assert cond.c1 and cond.c2 and cond.c3

    def test_builds_no_down_set_index(self, monkeypatch):
        def refuse(A):
            raise AssertionError("order_index called")

        monkeypatch.setattr(core, "order_index", refuse)
        for A in (cons.boolean_power(3), cons.example_2_6(2),
                  cons.example_3_2(2)):
            assert check_conditions(A).c3

    def test_witnesses_are_orthogonal_pairs(self):
        # check_conditions serves u by a pair (w, v) of A.splits[A.one]
        # with w != 0 and w <= u
        A = cons.boolean_power(2)
        assert check_conditions(A).c1
        pairs = [p for p in A.splits[A.one] if p[0] != 0]
        for u in A.nonzero():
            w, v = next(p for p in pairs if A.leq(p[0], u))
            assert A.leq(w, u)
            assert A.add[w][v] == A.one
            assert A.mul[w][v] == 0
            assert is_idempotent(A, w) and is_idempotent(A, v)

    def test_c1_is_c2(self):
        # a non-nilpotent u has a nonzero idempotent power u^k <= u, and an
        # idempotent is not nilpotent; the oracle scans (C1) on its own
        tables = [A for n in range(2, 9)
                  for A in enumerate_posemirings(n).instances]
        tables += [A for _, A in harness.construction_grid().posemirings]
        tables += [ringlab.ideal_semiring(R)[0]
                   for _, R in harness.default_ring_corpus()]
        assert len(tables) == 5804
        for A in tables:
            cond = check_conditions(A)
            assert oracles.check_conditions(A).c1 == cond.c1 == cond.c2

    def test_orthogonal_complement(self):
        A = cons.boolean_power(2)
        assert orthogonal_complement(A, 1) == 2
        assert orthogonal_complement(A, A.one) == 0


class TestIsomorphism:
    def brute_force_iso(self, A, B):
        if A.order != B.order:
            return None
        n = A.order
        for middle in itertools.permutations(range(1, n - 1)):
            perm = (0,) + middle + (n - 1,)
            if all(perm[A.add[x][y]] == B.add[perm[x]][perm[y]]
                   and perm[A.mul[x][y]] == B.mul[perm[x]][perm[y]]
                   for x in range(n) for y in range(n)):
                return perm
        return None

    def test_matches_brute_force_on_census_pairs(self, census_instances):
        insts = census_instances
        for A in insts:
            for B in insts:
                fast = find_isomorphism(A, B)
                slow = self.brute_force_iso(A, B)
                assert (fast is None) == (slow is None)

    @staticmethod
    def relabelled(A, perm):
        """A with every index x renamed perm[x]."""
        n = A.order
        inv = [perm.index(i) for i in range(n)]
        add = [[perm[A.add[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
        mul = [[perm[A.mul[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
        return make_table(n, tuple(A.names[inv[i]] for i in range(n)), add, mul)

    @staticmethod
    def assert_carries(perm, A, B):
        n = A.order
        assert sorted(perm) == list(range(n))
        assert perm[0] == 0 and perm[n - 1] == n - 1
        for x in range(n):
            for y in range(n):
                assert perm[A.add[x][y]] == B.add[perm[x]][perm[y]]
                assert perm[A.mul[x][y]] == B.mul[perm[x]][perm[y]]

    def test_witness_transports(self, census):
        for A in census[4].instances:
            self.assert_carries(find_isomorphism(A, A), A, A)

    def test_carries_tables_accepts_only_isomorphisms(self):
        # 0 < a < b < 1 relabelled by swapping a and b
        A = cons.example_2_6(1)
        B = self.relabelled(A, [0, 2, 1, 3])
        carries = core.carries_tables(A, B.add, B.mul)
        assert carries([0, 2, 1, 3]) and carries((0, 2, 1, 3))
        assert core.carries_tables(A, A.add, A.mul)([0, 1, 2, 3])
        for phi in ([0, 1, 2, 3],       # not an isomorphism onto B
                    [0, 2, 2, 3],       # not a bijection
                    [0, 2, 1], [0, 2, 1, 3, 4],
                    [0, 2, 1, 7], [0, 2, 1, -1]):
            assert not carries(phi)
        # a map moving 0 or 1 fails even when the cells would match
        T = cons.trivial()
        swapped = core.carries_tables(T, [[1, 0], [0, 0]], [[1, 1], [1, 0]])
        assert not swapped([1, 0])
        # tables of another order
        assert not core.carries_tables(A, T.add, T.mul)([0, 1, 2, 3])

    def test_relabeled_instance_is_isomorphic(self):
        A = cons.example_2_6(2)
        # transpose the interior indices 1 and 3
        assert find_isomorphism(A, self.relabelled(A, [0, 3, 2, 1, 4])) \
            is not None

    @pytest.mark.parametrize("source", ["census:7", "bool:n=6",
                                        "product(bool:n=3,chain:k=2)",
                                        "product(chain:k=3,chain:k=4)"])
    def test_seeded_relabellings(self, source):
        # every census class up to order 7, and lattices with many
        # join-irreducibles of one invariant, against a seeded relabelling
        if source.startswith("census:"):
            tables = [A for n in range(2, 8)
                      for A in enumerate_posemirings(n).instances]
        else:
            tables = [cons.construct_from_text(source)]
        rng = random.Random(source)
        for A in tables:
            n = A.order
            middle = list(range(1, n - 1))
            rng.shuffle(middle)
            B = self.relabelled(A, [0, *middle, n - 1])
            self.assert_carries(find_isomorphism(A, B), A, B)

    def test_equal_invariant_census6_pairs_are_rejected(self):
        # distinct census classes are not isomorphic; these 83 pairs of
        # order 6 agree on every element invariant the search prunes with,
        # collected here by A.leq scans
        def invariants(A):
            return sorted(
                (sum(A.leq(x, y) for y in A.elements()),
                 sum(A.leq(y, x) for y in A.elements()),
                 A.mul[x][x] == x,
                 sum(A.mul[y][x] == 0 for y in A.elements()))
                for x in A.elements())

        groups = {}
        for A in enumerate_posemirings(6).instances:
            groups.setdefault(tuple(invariants(A)), []).append(A)
        pairs = [p for g in groups.values()
                 for p in itertools.combinations(g, 2)]
        assert len(pairs) == 83
        for A, B in pairs:
            assert find_isomorphism(A, B) is None
            assert find_isomorphism(B, A) is None

    def test_distinguishes_order_three_pair(self):
        A = chain3_nilpotent()
        B = chain3_idempotent()
        assert find_isomorphism(A, B) is None

    def test_makes_no_element_analysis(self, monkeypatch):
        calls = []
        analyze = core.analyze_elements

        def counting(A):
            calls.append(A)
            return analyze(A)

        monkeypatch.setattr(core, "analyze_elements", counting)
        A, B = cons.boolean_power(3), cons.chain_lattice(6)
        assert find_isomorphism(A, A) is not None
        assert find_isomorphism(A, B) is None
        assert find_isomorphism(A, cons.boolean_power(2)) is None
        assert calls == []


def prime_element_oracle(A, p):
    """The defining double loop: p != 1 and xy <= p implies x <= p or y <= p."""
    if p == A.one:
        return False
    for x in A.elements():
        for y in A.elements():
            if A.leq(A.mul[x][y], p) and not (A.leq(x, p) or A.leq(y, p)):
                return False
    return True


def prime_ideal_oracle(A, members):
    """members != A and no x, y outside members with xy inside."""
    whole = frozenset(A.elements())
    return members != whole and all(
        not (A.mul[x][y] in members and x not in members and y not in members)
        for x in A.elements() for y in A.elements())


class TestPrimeKernels:
    """is_prime_element and is_prime_ideal against their definitions."""

    @pytest.fixture(scope="class")
    def instances(self, census_instances):
        grid = [A for _, A in harness.construction_grid().posemirings]
        rings = [ringlab.ideal_semiring(R)[0]
                 for _, R in harness.default_ring_corpus()]
        return list(census_instances) + grid + rings

    def test_prime_element_matches_oracle(self, instances):
        for A in instances:
            for p in A.elements():
                assert is_prime_element(A, p) == prime_element_oracle(A, p)

    def test_prime_ideal_matches_oracle(self, instances):
        for A in instances:
            for ideal in enumerate_ideals(A):
                assert ideal.prime == prime_ideal_oracle(A, ideal.members)


def assert_idempotent_index_matches_oracles(A):
    """Everything read from A.splits against the pair scans it replaced."""
    assert A.splits == oracles.splits(A)
    ana = analyze_elements(A)
    assert ana.primitive_idempotents == frozenset(
        e for e in ana.idempotents if oracles.is_primitive_idempotent(A, e))
    cond = check_conditions(A)
    want = oracles.check_conditions(A)
    assert cond == want
    for w in ana.idempotents:
        assert orthogonal_complements(A, w) == \
            oracles.orthogonal_complements(A, w)
        assert primitive_decomposition(A, w) == oracles.primitive_parts(A, w)
    ctx = harness.Ctx(A)
    assert harness.chk_p21c(ctx) == oracles.chk_p21c(ctx)
    # through the runner, which tests T2.2t's hypothesis and notes a pass
    ((_, _, tail),) = harness._run([harness._BY_ID["T2.2t"]], "", ctx)
    want = oracles.chk_t22_tail(ctx)
    assert (tail.status, tail.witness) == (want.status, want.witness)
    assert tail.status == "pass" or tail.note == want.note


class TestIdempotentIndex:
    """PoSemiringTable.splits readers against the pair scans in oracles."""

    def test_census_grid_and_ideal_semirings(self):
        tables = [A for n in range(2, 7)
                  for A in enumerate_posemirings(n).instances]
        tables += [A for _, A in harness.construction_grid().posemirings]
        tables += [ringlab.ideal_semiring(R)[0]
                   for _, R in harness.default_ring_corpus()]
        for A in tables:
            assert_idempotent_index_matches_oracles(A)

    def test_splits_are_the_orthogonal_idempotent_pairs(self):
        A = cons.boolean_power(2)       # 0 < a, b < 1
        assert A.splits == (((0, 0),), ((0, 1), (1, 0)), ((0, 2), (2, 0)),
                            ((0, 3), (1, 2), (2, 1), (3, 0)))
        assert A == cons.boolean_power(2) and hash(A) == hash(
            cons.boolean_power(2))


SMALL_CENSUS = [A for n in range(2, 5)
                for A in enumerate_posemirings(n).instances]


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SMALL_CENSUS), st.sampled_from(SMALL_CENSUS))
def test_idempotent_index_matches_oracles_on_products(A, B):
    assert_idempotent_index_matches_oracles(cons.direct_product(A, B))


def assert_analysis_matches_oracle(A, each_element=True):
    """analyze_elements and its down-set index against the A.leq scans in
    oracles, field by field."""
    ana, want = analyze_elements(A), oracles.analyze_elements(A)
    for f in dataclasses.fields(core.ElementAnalysis):
        assert getattr(ana, f.name) == getattr(want, f.name), f.name
    if each_element:
        for x in A.elements():
            assert is_prime_element(A, x) == (x in want.primes)
            assert is_minimal_element(A, x) == (x in want.minimals)
            assert is_maximal_element(A, x) == (x in want.maximals)
            if x:
                assert nilpotency_index(A, x) == \
                    oracles.nilpotency_index(A, x)


class TestDownSetIndex:
    """Readers of order_index against the A.leq scans in oracles."""

    def test_census_grid_and_ideal_semirings(self):
        tables = [A for n in range(2, 8)
                  for A in enumerate_posemirings(n).instances]
        tables += [A for _, A in harness.construction_grid().posemirings]
        tables += [ringlab.ideal_semiring(R)[0]
                   for _, R in harness.default_ring_corpus()]
        for A in tables:
            assert_analysis_matches_oracle(A)

    def test_order_256_product(self):
        A = cons.construct_from_text("product(chain:k=6,chain:k=30)")
        assert A.order == 256
        assert_analysis_matches_oracle(A, each_element=False)

    def test_ideal_flags(self, census_instances):
        grid = [A for _, A in harness.construction_grid().posemirings]
        for A in list(census_instances) + grid:
            for ideal in enumerate_ideals(A):
                assert ideal == oracles.flag_ideal(A, ideal.members)
            for u in A.elements():
                for ideal in (annihilator(A, u), lower_ideal(A, u)):
                    assert ideal == oracles.flag_ideal(A, ideal.members)

    def test_down_takes_no_part_in_equality(self):
        A = cons.boolean_power(2)
        ana = analyze_elements(A)
        assert ana.down == (0b0001, 0b0011, 0b0101, 0b1111)
        other = dataclasses.replace(ana, down=())
        assert other == ana and hash(other) == hash(ana)


class TestTextFormat:
    def test_round_trip(self, census_instances):
        for A in census_instances:
            B = parse_psr(to_text(A))
            assert B.add == A.add and B.mul == A.mul and B.names == A.names

    def test_comments_and_blanks_ignored(self):
        text = to_text(cons.trivial())
        noisy = "# header\n\n" + text.replace("add", "add  # tables\n# x")
        B = parse_psr(noisy)
        assert B.order == 2

    @pytest.mark.parametrize("mangle", [
        lambda t: t.replace("psr 1", "psr 2"),
        lambda t: t.replace("order 2", "order two"),
        lambda t: t + "extra\n",
        lambda t: t.replace("names 0 1", "names 0"),
    ])
    def test_malformed_inputs_rejected(self, mangle):
        with pytest.raises(StructureError):
            parse_psr(mangle(to_text(cons.trivial())))


@given(st.integers(min_value=0, max_value=6))
def test_chain_lattice_is_valid_for_any_length(k):
    A = cons.chain_lattice(k)
    assert verify_axioms(A).valid
    assert oracles.derived_checks(A) == ()
    assert zero_divisors(A) == frozenset()
