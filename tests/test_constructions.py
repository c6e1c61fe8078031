import hashlib
import itertools

import pytest

import oracles
from posemiring import constructions as cons
from posemiring import core, harness
from posemiring.census import enumerate_posemirings
from posemiring.core import (
    ClosureError,
    DomainError,
    NotApplicableError,
    StructureError,
    analyze_elements,
    check_conditions,
    find_isomorphism,
    to_text,
    verify_axioms,
    zero_divisors,
)
from posemiring.graphs import classify_shape


def shape_of(A):
    return classify_shape(cons.posemiring_zdgraph(A))


class TestBasicConstructors:
    def test_trivial(self):
        A = cons.trivial()
        assert A.order == 2
        assert zero_divisors(A) == frozenset()

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_chain_lattice(self, k):
        A = cons.chain_lattice(k)
        assert A.order == k + 2
        assert verify_axioms(A).valid
        assert zero_divisors(A) == frozenset()

    def test_chain_rejects_negative(self):
        with pytest.raises(DomainError):
            cons.chain_lattice(-1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_example_2_6(self, k):
        A = cons.example_2_6(k)
        assert A.order == k + 3
        assert len(zero_divisors(A)) == k + 1
        ana = analyze_elements(A)
        # a is nilpotent of index 2; every b_i is idempotent and prime
        assert ana.nilpotency == {1: 2}
        assert all(p in ana.primes for p in range(1, A.order - 1))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_example_3_2_single_vertex(self, k):
        A = cons.example_3_2(k)
        assert zero_divisors(A) == frozenset({1})
        assert shape_of(A).tag == "single-vertex"

    @pytest.mark.parametrize("u2", ["zero", "c", "u"])
    def test_example_4_6(self, u2):
        A = cons.example_4_6(2, u2)
        assert sorted(zero_divisors(A)) == [1, 2]
        sq = A.mul[2][2]
        assert sq == {"zero": 0, "c": 1, "u": 2}[u2]

    def test_example_4_6_rejects_bad_u2(self):
        with pytest.raises(DomainError):
            cons.example_4_6(2, "one")

    def test_example_4_7_order_structure(self):
        A = cons.example_4_7(3, 2)
        c, u, b1 = 1, 2, 3
        assert sorted(zero_divisors(A)) == [c, u]
        assert A.mul[u][u] == 0 and A.mul[c][c] == 0
        # u incomparable to b_1, below b_2
        assert not A.leq(u, b1) and not A.leq(b1, u)
        assert A.leq(u, 4)
        assert A.mul[u][b1] == c

    def test_example_4_7_rejects_bad_position(self):
        with pytest.raises(DomainError):
            cons.example_4_7(3, 1)
        with pytest.raises(DomainError):
            cons.example_4_7(2, 3)

    def test_direct_product_names_and_order(self):
        P = cons.direct_product(cons.trivial(), cons.chain_lattice(1))
        assert P.order == 6
        assert P.names[0] == "0×0"
        assert verify_axioms(P).valid

    def test_boolean_power_cap(self):
        assert cons.boolean_power(3).order == 8
        with pytest.raises(DomainError):
            cons.boolean_power(7)
        with pytest.raises(DomainError):
            cons.boolean_power(0)


class TestAdjunctions:
    def test_adjoin_z1(self):
        A = cons.adjoin_z1(cons.chain_lattice(1))
        assert sorted(zero_divisors(A)) == [1]
        assert A.mul[1][1] == 0

    def test_adjoin_requires_integral_base(self):
        with pytest.raises(DomainError):
            cons.adjoin_z1(cons.example_3_2(1))

    def test_adjoin_z2_incomparable(self):
        A = cons.adjoin_z2_incomparable(cons.chain_lattice(1))
        c, u = 1, 2
        assert sorted(zero_divisors(A)) == [c, u]
        assert not A.leq(c, u) and not A.leq(u, c)
        assert A.mul[c][c] == c and A.mul[u][u] == u
        assert A.add[c][u] == 3          # c + u is the least element of the base

    def test_adjoin_z2_incomparable_needs_least_element(self):
        base = cons.boolean_power(2)     # two incomparable atoms, no least
        with pytest.raises(DomainError):
            cons.adjoin_z2_incomparable(base)

    @pytest.mark.parametrize("u2", ["c", "u"])
    def test_adjoin_z2_chain(self, u2):
        A = cons.adjoin_z2_chain(cons.chain_lattice(1), u2)
        c, u = 1, 2
        assert A.leq(c, u)
        assert A.mul[c][c] == 0
        assert A.mul[u][u] == (c if u2 == "c" else u)


def integral_adjoins(max_n):
    """Every adjoin of every integral census class of order <= max_n, with
    its base and the number of elements it inserts."""
    for n in range(2, max_n + 1):
        for A1 in enumerate_posemirings(n).instances:
            if zero_divisors(A1):
                continue
            yield A1, 1, cons.adjoin_z1(A1)
            for u2 in ("c", "u"):
                yield A1, 2, cons.adjoin_z2_chain(A1, u2)
            try:
                yield A1, 2, cons.adjoin_z2_incomparable(A1)
            except DomainError:     # no least nonzero element
                pass


class TestTableKernels:
    """direct_product and the adjoins against cell-by-cell oracles and
    digests of the tables they built before sharing their kernels."""

    def test_product_matches_cell_oracle(self, census_instances):
        small = [A for A in census_instances if A.order <= 4]
        grid = [A for _, A in harness.construction_grid().posemirings]
        for A in small:
            for B in grid:
                for X, Y in ((A, B), (B, A)):
                    P = cons.direct_product(X, Y)
                    want = oracles.product_tables((X.add, X.mul),
                                                  (Y.add, Y.mul))
                    assert [P.add, P.mul] == [tuple(map(bytes, t))
                                              for t in want]

    def test_construction_grid_pinned(self):
        grid = harness.construction_grid().posemirings
        digest = hashlib.sha256()
        for name, A in grid:
            digest.update(f"{name}\n{to_text(A)}".encode())
        assert (len(grid), digest.hexdigest()) == (
            37,
            "486dd5347e438f511a019a0f1770219a259504f1988fa64e68c69b6f0f7907d8")

    def test_adjoins_embed_the_base(self):
        # the old elements, shifted up, are a sub-po-semiring equal to A1,
        # and each new element l has l + y = y and l y = l above it
        for A1, s, A in integral_adjoins(6):
            old = [0, *range(s + 1, A.order)]
            sub, _ = cons.sub_posemiring(A, old, top=A.one)
            assert (sub.add, sub.mul) == (A1.add, A1.mul)
            for low in range(1, s + 1):
                assert all(A.add[low][y] == y and A.mul[low][y] == low
                           for y in old[1:])

    def test_adjoins_on_integral_census_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for _, _, A in integral_adjoins(6):
            digest.update(to_text(A).encode())
            count += 1
        assert (count, digest.hexdigest()) == (
            148,
            "ec8f580c892bd1706c6a315ee5d56972e1642a804baa1b6c9b3df45c14b52799")


class TestSubPosemiring:
    def test_closed_subset(self):
        A = cons.example_2_6(2)
        sub, index = cons.sub_posemiring(A, {0, 2, 3, 4}, top=4)
        assert sub.order == 4
        assert index[4] == 3

    def test_closure_error_carries_witness(self):
        A = cons.boolean_power(2)
        with pytest.raises(ClosureError) as err:
            cons.sub_posemiring(A, {0, 1, 2}, top=2)   # 1 + 2 = 3 escapes
        x, y, op = err.value.witness
        assert op == "add"


class TestDecompositions:
    def test_recognize_z1(self):
        A = cons.adjoin_z1(cons.chain_lattice(2))
        dec = cons.recognize_small_z(A)
        assert isinstance(dec, cons.Z1Decomposition)
        assert dec.a1.order == A.order - 1
        assert zero_divisors(dec.a1) == frozenset()

    def test_recognize_z2_incomparable(self):
        A = cons.adjoin_z2_incomparable(cons.chain_lattice(1))
        dec = cons.recognize_small_z(A)
        assert isinstance(dec, cons.Z2IncomparableDecomposition)
        assert dec.a0 == 1

    @pytest.mark.parametrize("u2", ["c", "u"])
    def test_recognize_z2_chain(self, u2):
        A = cons.adjoin_z2_chain(cons.chain_lattice(2), u2)
        dec = cons.recognize_small_z(A)
        assert isinstance(dec, cons.Z2ChainDecomposition)
        assert dec.u_square == u2

    def test_recognize_z2_square_zero_reports_conditions(self):
        for A in (cons.example_4_6(2, "zero"), cons.example_4_7(3, 2)):
            rep = cons.recognize_small_z(A)
            assert isinstance(rep, cons.Prop45Report)
            assert rep.ok
            assert zero_divisors(rep.a1) == frozenset()

    def test_recognize_not_applicable(self):
        with pytest.raises(NotApplicableError):
            cons.recognize_small_z(cons.chain_lattice(1))
        with pytest.raises(NotApplicableError):
            cons.recognize_small_z(cons.example_2_6(2))

    def test_witness_is_isomorphism(self):
        A = cons.adjoin_z1(cons.chain_lattice(1))
        dec = cons.recognize_small_z(A)
        rebuilt = cons.adjoin_z1(dec.a1)
        perm = dec.witness
        for x in A.elements():
            for y in A.elements():
                assert perm[A.add[x][y]] == rebuilt.add[perm[x]][perm[y]]
                assert perm[A.mul[x][y]] == rebuilt.mul[perm[x]][perm[y]]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_peel_boolean_power(self, n):
        peel = cons.peel_boolean(cons.boolean_power(n))
        # the terminal factor {0,1} stays as the base
        assert peel.n == n - 1
        assert peel.a1.order == 2

    def test_peel_boolean_mixed(self):
        A = cons.direct_product(cons.trivial(), cons.example_3_2(1))
        peel = cons.peel_boolean(A)
        assert peel.n == 1
        assert find_isomorphism(peel.a1, cons.example_3_2(1)) is not None

    def test_peel_requires_c3(self):
        A = cons.adjoin_z2_incomparable(cons.chain_lattice(1))
        assert not check_conditions(A).c3
        with pytest.raises(NotApplicableError):
            cons.peel_boolean(A)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_split_two_star(self, k):
        A = cons.direct_product(cons.trivial(), cons.example_3_2(k))
        split = cons.split_two_star(A)
        assert split is not None
        assert split.r == k + 1
        assert split.r == split.s.order - 2
        assert len(zero_divisors(split.s)) == 1

    def test_split_rejects_wrong_shape(self):
        with pytest.raises(NotApplicableError):
            cons.split_two_star(cons.example_2_6(2))


class TestMapCertification:
    """The decompositions check their construction map against the rebuild
    instead of searching for an isomorphism; they must agree with the
    references that verify every table and search (tests/oracles.py)."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_census_agrees_with_search_reference(self, n):
        applied, mismatches = oracles.decomposition_mismatches(
            enumerate_posemirings(n).instances)
        assert mismatches == []
        assert applied == (1, 2, 10, 24, 113, 613)[n - 2]

    def test_grid_agrees_with_search_reference(self):
        applied, mismatches = oracles.decomposition_mismatches(
            [A for _, A in harness.construction_grid().posemirings])
        assert (applied, mismatches) == (60, [])

    def test_sub_instances_are_valid(self, monkeypatch, census7_and_grid):
        built = []
        sub_posemiring = cons.sub_posemiring

        def recording(A, members, top):
            sub, index = sub_posemiring(A, members, top)
            built.append(sub)
            return sub, index

        monkeypatch.setattr(cons, "sub_posemiring", recording)
        for A in census7_and_grid:
            for decompose, _ in oracles.DECOMPOSITIONS:
                try:
                    decompose(A)
                except NotApplicableError:
                    pass
        assert len(built) > 100
        for sub in built:
            assert verify_axioms(sub).valid
            assert oracles.verify_axioms(sub).valid

    def test_sub_posemiring_matches_reference(self, census7_and_grid):
        # the down-set fA of every idempotent f
        for A in census7_and_grid:
            tops = [f for f in A.nonzero() if A.mul[f][f] == f]
            for f in tops:
                members = set(A.mul[f])
                assert cons.sub_posemiring(A, members, f) == \
                    oracles._verified_sub(A, members, f)

    def test_closure_witness_order_matches_reference(self, census7_and_grid):
        # row-major, add before mul, on the subsets {0, x, y, 1}; some fail
        # at a cell where the sum and the product both leave the subset
        failed = both = 0
        for A in census7_and_grid:
            for x, y in itertools.combinations(range(1, A.one), 2):
                members = {0, x, y, A.one}
                try:
                    oracles._verified_sub(A, members, A.one)
                    continue
                except ClosureError as exc:
                    want = exc.witness
                except StructureError:      # closed, but 1 is no identity
                    continue
                with pytest.raises(ClosureError) as err:
                    cons.sub_posemiring(A, members, A.one)
                assert err.value.witness == want
                failed += 1
                both += A.mul[want[0]][want[1]] not in members
        assert failed > 0 and both > 0

    @pytest.mark.parametrize("spec", [
        "product(bool:n=2,example-3.2:k=1)",
        "product(bool:n=3,adjoin-z1(chain:k=1))",
        "product(bool:n=2,adjoin-z2c(chain:k=1,u2=u))",
        "product(trivial,example-3.2:k=3)",
    ])
    def test_products_agree_with_search_reference(self, spec):
        # peels of two or three {0,1} factors above a base of order > 2,
        # which no census class up to order 7 has, and a two-star split
        A = cons.construct_from_text(spec)
        assert oracles.decomposition_mismatches([A]) == (
            2 if spec.startswith("product(trivial") else 1, [])

    def test_failing_map_is_a_structure_error(self):
        A = cons.adjoin_z2_incomparable(cons.chain_lattice(2))
        c, u, b1 = 1, 2, 3
        mul = [list(row) for row in A.mul]
        mul[c][b1] = mul[b1][c] = u     # c b1 = c in any adjoin
        bad = core.make_table(A.order, A.names, A.add, mul)
        with pytest.raises(StructureError, match="^adjoin_z2_incomparable "
                           "rebuild is not isomorphic to the input$"):
            cons.recognize_small_z(bad)
        assert oracles.small_z_reference(A).a0 == \
            cons.recognize_small_z(A).a0 == 1


class TestSpecGrammar:
    @pytest.mark.parametrize("text,order", [
        ("trivial", 2),
        ("chain:k=2", 4),
        ("example-2.6:k=1", 4),
        ("example-3.2:k=2", 5),
        ("example-4.6:k=1,u2=zero", 5),
        ("example-4.7:k=2,n=2", 6),
        ("bool:n=2", 4),
        ("product(trivial,chain:k=1)", 6),
        ("adjoin-z1(chain:k=1)", 4),
        ("adjoin-z2i(chain:k=1)", 5),
        ("adjoin-z2c(chain:k=1,u2=c)", 5),
        ("product(product(trivial,trivial),trivial)", 8),
    ])
    def test_round_trip(self, text, order):
        A = cons.construct_from_text(text)
        assert A.order == order
        assert verify_axioms(A).valid

    @pytest.mark.parametrize("text", [
        "unknown",
        "chain",                       # missing k
        "chain:k=2,extra=1",
        "product(trivial)",
        "adjoin-z2c(trivial)",         # missing u2
        "example-4.6:k=1",             # missing u2
        "chain:k",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(StructureError):
            cons.construct_from_text(text)

    def test_rejects_repeated_param(self):
        with pytest.raises(StructureError,
                           match=r"^chain: duplicate parameter 'k'$"):
            cons.construct_from_text("chain:k=1,k=2")

    def test_rejects_non_integer_param(self):
        with pytest.raises(StructureError):
            cons.construct_from_text("chain:k=two")


LEAF_GRID = (
    ["trivial"]
    + [f"chain:k={k}" for k in (0, 1, 5)]
    + [f"example-{x}:k={k}" for x in ("2.6", "3.2") for k in (1, 3)]
    + [f"example-4.6:k={k},u2={u}" for k in (1, 2) for u in ("zero", "c", "u")]
    + [f"example-4.7:k={k},n={n}" for k in (2, 4) for n in range(2, k + 1)]
    + [f"bool:n={n}" for n in (1, 2, 3)])


class TestSpecPlan:
    """_plan gives a spec's order before any table is built."""

    @pytest.mark.parametrize("spec", LEAF_GRID + [
        "product(chain:k=2,bool:n=2)",
        "product(trivial,example-4.6:k=1,u2=c)",
        "product(example-4.7:k=3,n=2,example-2.6:k=1)",
        "product(product(trivial,trivial),adjoin-z2i(chain:k=1))",
        "adjoin-z1(chain:k=3)",
        "adjoin-z2c(chain:k=1,u2=u)",
        "product(adjoin-z1(chain:k=2),adjoin-z2c(chain:k=1,u2=c))",
    ])
    def test_planned_order_is_built_order(self, spec):
        order, build = cons._plan(spec)
        assert order == build().order == cons.construct_from_text(spec).order

    @pytest.mark.parametrize("spec,order", [
        ("product(chain:k=200,chain:k=200)", 40804),
        ("product(chain:k=254,trivial)", 512),
        ("adjoin-z1(chain:k=254)", 257),
    ])
    def test_over_cap_builds_no_table(self, monkeypatch, spec, order):
        verified = []
        verify = cons.verify_axioms
        monkeypatch.setattr(cons, "verify_axioms",
                            lambda A: verified.append(A.order) or verify(A))
        with pytest.raises(DomainError,
                           match=rf"^order {order} exceeds cap 256$"):
            cons.construct_from_text(spec)
        assert verified == []
        cons.construct_from_text("product(chain:k=1,trivial)")
        assert verified == [3, 2, 6]

    def test_multi_parameter_leaves_compose(self):
        assert cons.construct_from_text(
            "product(trivial,example-4.6:k=1,u2=c)") == cons.direct_product(
                cons.trivial(), cons.example_4_6(1, "c"))
        assert cons.construct_from_text(
            "product(example-4.7:k=2,n=2,trivial)") == cons.direct_product(
                cons.example_4_7(2, 2), cons.trivial())

    def test_adjoin_z2c_u2_strips_spaces_like_leaf_parameters(self):
        want = cons.construct_from_text("adjoin-z2c(chain:k=1,u2=c)")
        for spec in ("adjoin-z2c(chain:k=1,u2 =c)",
                     "adjoin-z2c(chain:k=1,u2= c)",
                     "adjoin-z2c(chain:k =1, u2 = c )"):
            assert cons.construct_from_text(spec) == want, spec

    def test_adjoin_z2c_takes_its_own_u2_last(self):
        # the leaf keeps u2=zero; the adjoin's u2=c is the last part
        with pytest.raises(DomainError,
                           match=r"^base instance is not integral$"):
            cons.construct_from_text(
                "adjoin-z2c(example-4.6:k=1,u2=zero,u2=c)")
