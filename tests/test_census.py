import gc
import inspect
import itertools
import math
import random

import pytest

import oracles
from posemiring import constructions as cons
from posemiring import harness
from posemiring.census import (
    _bounded_semilattices,
    _fixing_perms,
    _generic_names,
    _join_endomorphisms,
    _join_table,
    _least_relabellings,
    _linear_posets,
    _mul_backtrack,
    automorphism_count,
    canonical_form,
    enumerate_posemirings,
    tables_from_canonical,
)
from posemiring.core import (
    DomainError,
    derived_checks,
    find_isomorphism,
    make_table,
    verify_axioms,
)


def first_labelled_lattices(n):
    """Lattice key -> (first labelled lattice of the class, the perms taking
    it to the key), over _bounded_semilattices(n): the lattices the census
    searches, each labelled by a linear extension."""
    perms = _fixing_perms(n)
    first = {}
    for add in _bounded_semilattices(n):
        key, hits = _least_relabellings(add, perms)
        first.setdefault(key, (add, hits))
    return first


def relabel(A, perm):
    """A with element x renamed perm[x]."""
    n = A.order
    inv = [perm.index(x) for x in range(n)]
    add = [[perm[A.add[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    mul = [[perm[A.mul[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    return make_table(n, A.names, add, mul)


class TestCounts:
    def test_pinned_counts(self, census):
        got = {n: (census[n].count_up_to_iso, census[n].count_labeled)
               for n in census}
        assert got[2] == (1, 1)
        assert got[3] == (2, 2)
        assert got[4] == (7, 13)
        assert got[5] == (26, 147)

    def test_order_seven_pinned(self):
        # 723 classes: commutative column of Belohlavek & Vychodil,
        # "Residuated lattices of size <= 12", Order 27 (2010).
        result = enumerate_posemirings(7)
        assert (result.count_up_to_iso, result.count_labeled) == (723, 80415)

    def test_burnside_count_oracle(self):
        # counted from the lattice automorphisms, with no census key
        for n in range(2, 9):
            result = enumerate_posemirings(n)
            got = oracles.burnside_counts(n)
            assert got == (result.count_up_to_iso, result.count_labeled)
            assert got[0] == {2: 1, 3: 2, 4: 7, 5: 26, 6: 129, 7: 723,
                              8: 4712}[n]

    def test_heyting_algebra_count(self):
        # an idempotent integral multiplication is the meet, so the classes
        # with every element idempotent are the finite Heyting algebras:
        # OEIS A006982 (heyting_count checks each mul against the meet)
        assert [oracles.heyting_count(n) for n in range(2, 9)] == [
            1, 1, 2, 3, 5, 8, 15]

    def test_all_instances_valid(self, census_instances):
        for A in census_instances:
            assert verify_axioms(A).valid
            assert derived_checks(A) == ()

    def test_instances_pairwise_nonisomorphic(self, census):
        insts = census[4].instances
        for A, B in itertools.combinations(insts, 2):
            assert find_isomorphism(A, B) is None

    def test_naive_agrees_with_fast(self, census):
        # the oracle sweep shares no code with the census or its keys
        for n in (2, 3, 4, 5):
            keys, labelled = oracles.naive_census(n)
            assert census[n].count_up_to_iso == len(keys)
            assert census[n].count_labeled == labelled
            assert {oracles.canonical_form(A)
                    for A in census[n].instances} == keys

    def test_caps(self):
        with pytest.raises(DomainError, match=r"^order 1 outside \[2, 9\]$"):
            enumerate_posemirings(1)
        with pytest.raises(DomainError, match=r"^order 10 outside \[2, 9\]$"):
            enumerate_posemirings(10)
        assert list(inspect.signature(enumerate_posemirings).parameters) == [
            "n"]

    def test_residuated_lattice_counts(self):
        # MV-algebras: one per factorization of n, OEIS A001055; BL-chains:
        # one per composition of n - 1, 2^(n-2)
        assert [oracles.residuated_counts(n) for n in range(2, 9)] == list(
            zip([1, 1, 2, 1, 2, 1, 3], [2 ** (n - 2) for n in range(2, 9)]))


class TestLattices:
    def test_join_table_equals_scan(self):
        # every poset labelled by a linear extension, lattice or not, up to
        # order 7 (408 posets, 320 lattices)
        for n in range(2, 8):
            lattices = 0
            for below in oracles.linear_posets(n):
                got = _join_table(below)
                assert got == oracles.join_table(below)
                lattices += got is not None
            assert lattices == {2: 1, 3: 1, 4: 2, 5: 7, 6: 39, 7: 320}[n]

    def test_generator_keeps_every_class_in_size_order(self):
        # the size-ordered labellings reach the key of every labelled
        # lattice; their classes are OEIS A006966
        for n in range(2, 8):
            perms = _fixing_perms(n)
            labelled = list(_bounded_semilattices(n))
            for add in labelled:
                sizes = [(sum(row[x] == x for row in add),
                          sum(v == y for y, v in enumerate(add[x])))
                         for x in range(n)]
                assert sizes == sorted(sizes)
            keys = {_least_relabellings(add, perms)[0] for add in labelled}
            assert keys == {_least_relabellings(add, perms)[0]
                            for add in oracles.lattices(n)}
            assert (len(keys), len(labelled)) == {
                2: (1, 1), 3: (1, 1), 4: (2, 2), 5: (5, 5), 6: (15, 16),
                7: (53, 64)}[n]
            assert all(len(below[x]) <= len(below[x + 1])
                       for below in _linear_posets(n) for x in range(n - 1))

    def test_order_eight_labelled_lattices(self):
        perms = _fixing_perms(8)
        labelled = list(_bounded_semilattices(8))
        keys = {_least_relabellings(add, perms)[0] for add in labelled}
        assert (len(keys), len(labelled)) == (222, 318)

    def test_join_endomorphisms_equal_brute_force(self):
        # every labelled lattice and every lattice key up to order 6; the
        # keys are not labelled by a linear extension
        def brute(add):
            n = len(add)
            down = [[z for z in range(n) if add[z][y] == y] for y in range(n)]
            return {bytes(f) for f in itertools.product(*down)
                    if all(f[add[a][b]] == add[f[a]][f[b]]
                           for a in range(n) for b in range(n))}

        unsorted = 0    # keys with an element below one of smaller index
        for n in range(2, 7):
            labelled = list(oracles.lattices(n))
            perms = _fixing_perms(n)
            keys = dict.fromkeys(_least_relabellings(add, perms)[0]
                                 for add in labelled)
            keyed = [[list(key[x * n:(x + 1) * n]) for x in range(n)]
                     for key in keys]
            unsorted += sum(any(key[x][y] == y for x in range(n)
                                for y in range(x)) for key in keyed)
            for add in labelled + keyed:
                got = list(_join_endomorphisms(add))
                assert len(got) == len(set(got))
                assert set(got) == brute(add)
        assert unsorted > 0


class TestMulSearch:
    def test_yields_exactly_the_valid_multiplications(self):
        # brute force over every symmetric interior assignment with each
        # product below both factors, filtered by verify_axioms
        for n in (3, 4, 5):
            one = n - 1
            cells = [(x, y) for x in range(1, one) for y in range(x, one)]
            for add in oracles.lattices(n):
                below = [[v for v in range(n)
                          if add[v][x] == x and add[v][y] == y]
                         for x, y in cells]
                want = set()
                for values in itertools.product(*below):
                    mul = [[0] * n for _ in range(n)]
                    for x in range(n):
                        mul[one][x] = mul[x][one] = x
                    for (x, y), v in zip(cells, values):
                        mul[x][y] = mul[y][x] = v
                    A = make_table(n, _generic_names(n), add, mul)
                    if verify_axioms(A).valid:
                        want.add(A.mul)
                got = oracles.search_tables(n, add)
                assert len(got) == len(set(got))
                assert set(got) == want

    def test_matches_cell_search_oracle(self):
        # the same set per lattice class, with no duplicates
        for n in range(2, 8):
            for add, _ in first_labelled_lattices(n).values():
                got = oracles.search_tables(n, add)
                assert len(got) == len(set(got))
                assert set(got) == set(oracles.mul_backtrack(n, add))

    def test_every_output_satisfies_the_axioms(self):
        # the census keeps every table the search yields without verifying it
        for n in range(2, 8):
            lattices = first_labelled_lattices(n)
            tables = 0
            for add, _ in lattices.values():
                for mul in oracles.search_tables(n, add):
                    A = make_table(n, _generic_names(n), add, mul)
                    assert oracles.verify_axioms(A).valid
                    tables += 1
            # lattice classes: OEIS A006966
            assert (len(lattices), tables) == {
                2: (1, 1), 3: (1, 2), 4: (2, 7), 5: (5, 27), 6: (15, 142),
                7: (53, 839)}[n]

    def test_rejects_labels_not_a_linear_extension(self):
        # the chain 0 < 2 < 1 < 3
        rank = [0, 2, 1, 3]
        add = [[max(x, y, key=rank.__getitem__) for y in range(4)]
               for x in range(4)]
        with pytest.raises(DomainError, match="linear extension"):
            next(_mul_backtrack(4, add))


    def test_raw_output_pinned(self):
        # every table the search yields on the lattices the census searches,
        # duplicates kept
        assert oracles.search_digest(8) == (
            5803,
            "e9673bc43e39f6bcb231a6990340c010c7238bd8228b37b5ff37b631cfbb5c82")


class TestCanonicalForm:
    def test_round_trip(self, census):
        for A in census[4].instances:
            key = canonical_form(A)
            [B] = tables_from_canonical(A.order, [key])
            assert canonical_form(B) == key
            assert find_isomorphism(A, B) is not None

    def test_invariant_under_relabeling(self, census):
        for A in census[4].instances:
            n = A.order
            for middle in itertools.permutations(range(1, n - 1)):
                B = relabel(A, (0,) + middle + (n - 1,))
                assert canonical_form(B) == canonical_form(A)

    def test_representatives_are_canonical_and_sorted(self):
        for n in range(2, 7):
            keys = []
            for A in enumerate_posemirings(n).instances:
                key = canonical_form(A)
                assert [A] == tables_from_canonical(n, [key])
                keys.append(key)
            assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_separates_order_three_classes(self, census):
        keys = {canonical_form(A) for A in census[3].instances}
        assert len(keys) == 2


class TestRelabellingKernel:
    @staticmethod
    def agree(tab, perms):
        key, hits = _least_relabellings(tab, perms)
        pairs = [(perm, [perm.index(x) for x in range(len(perm))])
                 for perm, *_ in perms]
        want_key, want_hits = oracles.least_relabellings(tab, pairs)
        assert key == want_key
        assert [perm for perm, *_ in hits] == [perm for perm, _ in want_hits]

    def test_every_labelled_lattice(self):
        # n = 2 has no cell for pick; n = 3 has one
        for n in range(2, 8):
            perms = _fixing_perms(n)
            for add in oracles.lattices(n):
                self.agree(add, perms)

    def test_every_table_under_lattice_automorphisms(self):
        # as the census keys them: on the first labelled lattice of each
        # class, over the coset of Aut(L) taking it to its key; and each
        # table carried to the lattice key by that coset's first perm,
        # over Aut(L) on the key
        for n in range(2, 7):
            perms = _fixing_perms(n)
            for key, (add, hits) in first_labelled_lattices(n).items():
                keyed = [list(key[x * n:(x + 1) * n]) for x in range(n)]
                aut = _least_relabellings(keyed, perms)[1]
                for mul in oracles.search_tables(n, add):
                    self.agree(mul, hits)
                    moved = _least_relabellings(mul, hits[:1])[0]
                    self.agree([moved[x * n:(x + 1) * n] for x in range(n)],
                               aut)


class TestKeysAgainstOracle:
    def test_keys_and_automorphisms_match(self):
        # census <= 6, a seeded relabelling of each, the construction grid
        reps = [A for n in range(2, 7)
                for A in enumerate_posemirings(n).instances]
        rng = random.Random(6)
        relabelled = []
        for A in reps:
            middle = rng.sample(range(1, A.order - 1), A.order - 2)
            relabelled.append(relabel(A, [0] + middle + [A.order - 1]))
        grid = [A for _, A in harness.construction_grid().posemirings]
        for A in reps + relabelled + grid:
            assert canonical_form(A) == oracles.canonical_form(A)
            assert automorphism_count(A) == oracles.automorphism_count(A)


class TestAutomorphisms:
    def test_boolean_square_has_atom_swap(self):
        A = cons.boolean_power(2)
        assert automorphism_count(A) == 2

    def test_chain_is_rigid(self):
        assert automorphism_count(cons.chain_lattice(2)) == 1

    def test_orbit_counting_consistency(self, census):
        # labeled count = sum over classes of (n-2)! / |Aut|
        for n in (3, 4, 5, 6):
            result = enumerate_posemirings(n)
            total = sum(math.factorial(n - 2) // oracles.automorphism_count(A)
                        for A in result.instances)
            assert total == result.count_labeled


class TestNoCyclicGarbage:
    """The census frees everything it allocates by reference counting."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_census_leaves_no_cycles(self, n):
        gc.collect()
        enumerate_posemirings(n)
        assert gc.collect() == 0


class TestKnownClassesAppear:
    def test_order_three_classes(self, census):
        nil = cons.adjoin_z1(cons.trivial())
        idem = cons.chain_lattice(1)
        for target in (nil, idem):
            assert any(find_isomorphism(A, target) is not None
                       for A in census[3].instances)

    def test_boolean_square_in_order_four(self, census):
        assert any(find_isomorphism(A, cons.boolean_power(2)) is not None
                   for A in census[4].instances)

    def test_constructed_instances_in_census(self, census):
        for A in (cons.example_2_6(1), cons.example_3_2(1),
                  cons.chain_lattice(2)):
            assert any(find_isomorphism(A, B) is not None
                       for B in census[4].instances)
