"""Brute-force references for the table-law kernels, census keys, graphs,
the ring ideal layer, the orthogonal-idempotent index and the down-set
index.

The law checks walk every pair or triple in the loop order that defines
which witness or message comes first; a reported witness is replayed on
the cells it names, and the order laws the axioms imply are re-checked
through A.leq; the keys try every permutation in
full, or build each relabelled row cell by cell; the lattices are labelled
by every linear extension, and Burnside's lemma over their automorphisms
counts the census without keys; the Section 4 counts read Z(A) off each
class's mul rows, and the adjoins' images are told apart by the keys here;
the naive census sweeps every
pair of associative add and mul tables and keys the valid ones with the
keys here; the residuum joins every z with xz <= y; the multiplication
search fills one cell at a time, and the row search's flat output is read
as rows and pinned by a digest; the classes with every element idempotent
are checked against the lattice meet; the Gödel algebras are counted as
forests by their down-set counts; graphs are built by a scan of every
cell, their metrics and shapes enumerate vertex subsets and bipartitions,
and the girth closes each edge by a shortest path around it; ring tables
are filled cell by cell, and written out for the ring-file parser,
ideal sums and products take every pair of members, the least ideal
containing a set is a fixpoint of sums and products, and nilpotency takes
every power; complements, primitive idempotents, (C1)-(C3) and primitive
decompositions scan every pair of elements; the element analysis, the
isomorphism invariants and the ideal flags test the order one pair at a
time through A.leq; the decompositions verify every sub-instance and
rebuild, search for their witness with find_isomorphism, and a witness is
checked cell by cell.  Tests compare the package against them.
"""

import functools
import hashlib
import itertools
import math
from collections import deque
from dataclasses import dataclass, replace

from posemiring import census, core, harness
from posemiring import constructions as cons
from posemiring.census import _join_table, _mul_backtrack
from posemiring.core import (
    AxiomReport,
    ClosureError,
    ConditionReport,
    DomainError,
    ElementAnalysis,
    IdealSubset,
    NotApplicableError,
    StructureError,
    find_isomorphism,
    is_idempotent,
    is_prime_ideal,
    make_table,
    write_table_text,
)
from posemiring.graphs import GraphShape


def verify_axioms(A) -> AxiomReport:
    """core.verify_axioms as a triple loop per axiom."""
    n, add, mul, one = A.order, A.add, A.mul, A.one
    violations = []

    def first(axiom, gen):
        for w in gen:
            violations.append((axiom, w))
            return

    first("add-commutative", ((x, y) for x in range(n) for y in range(n)
                              if add[x][y] != add[y][x]))
    first("add-associative", ((x, y, z) for x in range(n) for y in range(n)
                              for z in range(n)
                              if add[add[x][y]][z] != add[x][add[y][z]]))
    first("add-identity", ((x,) for x in range(n) if add[0][x] != x))
    first("one-is-top", ((x,) for x in range(n) if add[one][x] != one))
    first("mul-commutative", ((x, y) for x in range(n) for y in range(n)
                              if mul[x][y] != mul[y][x]))
    first("mul-associative", ((x, y, z) for x in range(n) for y in range(n)
                              for z in range(n)
                              if mul[mul[x][y]][z] != mul[x][mul[y][z]]))
    first("mul-identity", ((x,) for x in range(n) if mul[one][x] != x))
    first("zero-absorbs", ((x,) for x in range(n) if mul[0][x] != 0))
    first("distributive", ((x, y, z) for x in range(n) for y in range(n)
                           for z in range(n)
                           if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]))
    return AxiomReport(valid=not violations, violations=tuple(violations))


def replay_violation(A, axiom, witness) -> bool:
    """True when the witness still exhibits the recorded axiom violation."""
    add, mul, one = A.add, A.mul, A.one
    if axiom == "add-commutative":
        x, y = witness
        return add[x][y] != add[y][x]
    if axiom == "add-associative":
        x, y, z = witness
        return add[add[x][y]][z] != add[x][add[y][z]]
    if axiom == "add-identity":
        return add[0][witness[0]] != witness[0]
    if axiom == "one-is-top":
        return add[one][witness[0]] != one
    if axiom == "mul-commutative":
        x, y = witness
        return mul[x][y] != mul[y][x]
    if axiom == "mul-associative":
        x, y, z = witness
        return mul[mul[x][y]][z] != mul[x][mul[y][z]]
    if axiom == "mul-identity":
        return mul[one][witness[0]] != witness[0]
    if axiom == "zero-absorbs":
        return mul[0][witness[0]] != 0
    if axiom == "distributive":
        x, y, z = witness
        return mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]
    raise DomainError(f"unknown axiom id {axiom!r}")


def derived_checks(A):
    """Redundant consequences of the axioms, re-checked directly.

    Empty for every valid instance: idempotent addition, the add-derived
    relation being a partial order, and products being lower bounds.
    """
    n, add, mul = A.order, A.add, A.mul
    bad = []
    for x in range(n):
        if add[x][x] != x:
            bad.append(("add-idempotent", (x,)))
    for x in range(n):
        for y in range(n):
            if A.leq(x, y) and A.leq(y, x) and x != y:
                bad.append(("order-antisymmetric", (x, y)))
            for z in range(n):
                if A.leq(x, y) and A.leq(y, z) and not A.leq(x, z):
                    bad.append(("order-transitive", (x, y, z)))
            p = mul[x][y]
            if not (A.leq(p, x) and A.leq(p, y)):
                bad.append(("product-lower-bound", (x, y)))
    return tuple(bad)


def ring_to_text(R) -> str:
    """The ring file ringlab.parse_ring_file reads for R."""
    return write_table_text("ring 1", {"order": R.order, "one": R.one},
                            R.names, R.add, R.mul)


def check_ring(R):
    """ringlab._check_ring as one loop over x, y, z."""
    n, add, mul = R.order, R.add, R.mul
    for x in range(n):
        if add[0][x] != x:
            raise StructureError("0 is not the additive identity")
        if mul[R.one][x] != x:
            raise StructureError("recorded identity is not multiplicative identity")
        if not any(add[x][y] == 0 for y in range(n)):
            raise StructureError(f"element {x} has no additive inverse")
        for y in range(n):
            if add[x][y] != add[y][x] or mul[x][y] != mul[y][x]:
                raise StructureError("operations are not commutative")
            for z in range(n):
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    raise StructureError("addition is not associative")
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    raise StructureError("multiplication is not associative")
                if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                    raise StructureError("distributivity fails")


def zn_tables(n):
    """ringlab.ring_zn's (add, mul) cell by cell."""
    return ([[(x + y) % n for y in range(n)] for x in range(n)],
            [[(x * y) % n for y in range(n)] for x in range(n)])


def quadratic_tables(p, c1, c0):
    """ringlab.ring_quadratic's (add, mul) cell by cell, a + b*x at a*p + b."""
    n = p * p

    def mul(x, y):
        a, b = divmod(x, p)
        c, d = divmod(y, p)
        # x^2 = -(c1 x + c0)
        return ((a * c - b * d * c0) % p * p
                + (a * d + b * c - b * d * c1) % p)

    return ([[((x // p + y // p) % p) * p + (x % p + y % p) % p
              for y in range(n)] for x in range(n)],
            [[mul(x, y) for y in range(n)] for x in range(n)])


def product_tables(r, s):
    """core.product_rows on the (add, mul) of two factors, cell by cell:
    the tables of ringlab.ring_product and constructions.direct_product."""
    ns, n = len(s[0]), len(r[0]) * len(s[0])
    return tuple([[tr[x // ns][y // ns] * ns + ts[x % ns][y % ns]
                   for y in range(n)] for x in range(n)]
                 for tr, ts in zip(r, s))


def principal_ideal(R, a):
    """core.principal_ideal as the column {ra : r in R}."""
    return frozenset(R.mul[r][a] for r in R.elements())


def ideal_closure(A, seed):
    """The least ideal of a po-semiring or ring containing the seed set, as
    the fixpoint of adding every sum and every product: core's
    principal_ideal on {x} and ideal_sum on I | J."""
    cur = set(seed) | {0}
    while True:
        new = set()
        for i in cur:
            for j in cur:
                new.add(A.add[i][j])
            for a in A.elements():
                new.add(A.mul[i][a])
        if new <= cur:
            return frozenset(cur)
        cur |= new


def _ideal_sum(R, I, J):
    return frozenset(R.add[i][j] for i in I for j in J)


def ring_ideals(R):
    """ringlab.enumerate_ring_ideals as (members, generators) pairs: the
    principal ideals closed under sums taken over every pair of members."""
    generator = {}
    for a in reversed(R.elements()):
        generator[principal_ideal(R, a)] = a
    family = set(generator)
    pending, done = list(family), []
    while pending:
        I = pending.pop()
        for J in done:
            K = _ideal_sum(R, I, J)
            if K not in family:
                family.add(K)
                pending.append(K)
        done.append(I)
    family = sorted(family, key=lambda m: (len(m), sorted(m)))
    return [(m, (generator[m],) if m in generator else ()) for m in family]


def ideal_semiring(R):
    """ringlab.ideal_semiring's table, with IJ built from every product xy
    of members and each ideal named by its least generator or its members."""
    ideals = ring_ideals(R)
    names = []
    for members, gens in ideals:
        nm = (f"({R.names[gens[0]]})" if gens else
              "{" + ",".join(R.names[x] for x in sorted(members)) + "}")
        while nm in names:
            nm += "'"
        names.append(nm)

    def least(elems):
        return next(pos for pos, (m, _) in enumerate(ideals) if elems <= m)

    add = [[least(a | b) for b, _ in ideals] for a, _ in ideals]
    mul = [[least({R.mul[x][y] for x in a for y in b}) for b, _ in ideals]
           for a, _ in ideals]
    return make_table(len(ideals), names, add, mul)


def nilpotents(R):
    """ringlab.nilpotents by taking x, x^2, ..., x^|R|."""
    out = set()
    for x in R.elements():
        p = x
        for _ in range(R.order):
            if p == 0:
                out.add(x)
                break
            p = R.mul[p][x]
    return frozenset(out)


def linear_posets(n):
    """Every bounded poset on 0..n-1 whose indices form a linear extension,
    as its list of strict down-sets; census._linear_posets without the
    down-set size order."""

    def rec(i, below):
        if i == n - 1:
            yield below + [frozenset(range(n - 1))]
            return
        for r in range(i):
            for extra in itertools.combinations(range(1, i), r):
                s = frozenset((0,) + extra)
                if all(below[j] <= s for j in s):
                    yield from rec(i + 1, below + [s])

    yield from rec(1, [frozenset()])


def lattices(n):
    """Join tables of every lattice from linear_posets(n)."""
    for below in linear_posets(n):
        tab = _join_table(below)
        if tab is not None:
            yield tab


def join_table(below):
    """census._join_table by scanning all upper bounds of every pair."""
    n = len(below)
    leq = [[x == y or x in below[y] for y in range(n)] for x in range(n)]
    add = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            ubs = [z for z in range(n) if leq[x][z] and leq[y][z]]
            least = [z for z in ubs if all(leq[z][w] for w in ubs)]
            if not least:
                return None
            add[x][y] = least[0]
    return list(map(bytes, add))


def _fixing_perms(n):
    """Every permutation of 0..n-1 fixing 0 and n-1, with its inverse."""
    for middle in itertools.permutations(range(1, n - 1)):
        perm = (0,) + middle + (n - 1,)
        yield perm, [perm.index(x) for x in range(n)]


def _relabelled(tab, perm, inv):
    n = len(tab)
    return bytes(perm[tab[inv[x]][inv[y]]] for x in range(n) for y in range(n))


def canonical_form(A) -> bytes:
    """census.canonical_form as the least full serialization over all
    0,1-fixing permutations."""
    return min(_relabelled(A.add, perm, inv) + _relabelled(A.mul, perm, inv)
               for perm, inv in _fixing_perms(A.order))


def automorphism_count(A) -> int:
    """census.automorphism_count by transporting every 0,1-fixing
    permutation over both tables."""
    n = A.order
    return sum(all(perm[A.add[x][y]] == A.add[perm[x]][perm[y]]
                   and perm[A.mul[x][y]] == A.mul[perm[x]][perm[y]]
                   for x in range(n) for y in range(n))
               for perm, _ in _fixing_perms(n))


def least_relabellings(tab, perms):
    """census._least_relabellings building each relabelled interior row
    cell by cell and leaving a perm at its first row above the least;
    perms are (perm, inverse) pairs."""
    n = len(tab)
    best, hits = None, []
    for perm, inv in perms:
        rows = []
        tied = best is not None
        for x in range(1, n - 1):
            src = tab[inv[x]]
            row = bytes([perm[src[inv[y]]] for y in range(n)])
            if tied and row != best[x - 1]:
                if row > best[x - 1]:
                    break
                tied = False
            rows.append(row)
        else:
            if tied:
                hits.append((perm, inv))
            else:
                best, hits = rows, [(perm, inv)]
    return b"".join([bytes(tab[0]), *best, bytes(tab[-1])]), hits


def burnside_counts(n):
    """(classes, labelled) of the order-n census by Burnside's lemma, with
    no census key: labelled = sum over lattice classes L of
    (n-2)!/|Aut L| * #mul(L), and classes = sum over L of
    (1/|Aut L|) * sum over g in Aut L of #{mul fixed by g}.  The classes
    are told apart by the part of their orbits labelled by a linear
    extension and Aut L found by trying every 0,1-fixing permutation; the
    lattices come from every linear extension (not the census's
    size-ordered labellings) and their multiplications from the census's
    row search."""
    perms = list(_fixing_perms(n))
    seen = set()
    classes = labelled = 0
    for add in lattices(n):
        flat = bytes(v for row in add for v in row)
        if flat in seen:
            continue
        images = [_relabelled(add, perm, inv) for perm, inv in perms]
        aut = [perm for (perm, _), image in zip(perms, images)
               if image == flat]
        orbit = set(images)
        assert len(orbit) * len(aut) == math.factorial(n - 2)
        less = [(x, y) for x in range(1, n - 1) for y in range(1, n - 1)
                if x != y and add[x][y] == y]
        seen.update(image for (perm, _), image in zip(perms, images)
                    if all(perm[x] < perm[y] for x, y in less))
        muls = search_tables(n, add)
        labelled += len(orbit) * len(muls)
        fixed = sum(all(g[mul[x][y]] == mul[g[x]][g[y]]
                        for x in range(n) for y in range(n))
                    for g in aut for mul in muls)
        assert fixed % len(aut) == 0
        classes += fixed // len(aut)
    return classes, labelled


def search_tables(n, add):
    """census._mul_backtrack's flat tables, each cut into bytes rows."""
    return [tuple(tab[x:x + n] for x in range(0, n * n, n))
            for tab in _mul_backtrack(n, add)]


def search_digest(n):
    """(tables, sha256) of the raw order-n search output: on the first
    labelled lattice of each class that census._bounded_semilattices yields
    (the one the census searches), every table from census._mul_backtrack
    as its n*n add bytes and then its n*n mul bytes, the sorted list hashed
    concatenated.  Duplicates are kept, so a table found twice, which the
    census keys would merge, changes the digest."""
    perms = census._fixing_perms(n)
    first = {}
    for add in census._bounded_semilattices(n):
        first.setdefault(census._least_relabellings(add, perms)[0], add)
    tables = sorted(bytes(v for row in add for v in row) + mul
                    for add in first.values()
                    for mul in _mul_backtrack(n, add))
    return len(tables), hashlib.sha256(b"".join(tables)).hexdigest()


def meet_table(add):
    """The meet of the lattice with join table add: for each x and y, the
    lower bound of both that lies above every other one."""
    n = len(add)
    leq = [[add[x][y] == y for y in range(n)] for x in range(n)]
    meet = []
    for x in range(n):
        row = []
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            row.append(next(z for z in lower
                            if all(leq[w][z] for w in lower)))
        meet.append(bytes(row))
    return tuple(meet)


def heyting_count(n):
    """The number of order-n census classes with every element idempotent,
    each checked to multiply by the meet of its lattice: the finite Heyting
    algebras of order n (OEIS A006982)."""
    count = 0
    for A in census.enumerate_posemirings(n).instances:
        if all(A.mul[x][x] == x for x in range(n)):
            assert A.mul == meet_table(A.add), A
            count += 1
    return count


def godel_counts(n):
    """(forests, census classes) of order n: the finite Gödel algebras
    counted twice.  A Gödel algebra is the down-set lattice of a forest, a
    poset whose principal down-sets are chains; a rooted tree has
    D = 1 + prod D(child) down-sets and a forest the product of the D of its
    trees, so the forests are counted by that product, up to isomorphism.
    The census classes are those whose mul is the lattice meet and whose
    join-irreducibles below any join-irreducible form a chain."""

    @functools.cache
    def forests(m, top):
        # multisets of trees with at most top down-sets each, product m
        if m == 1:
            return 1
        total = 0
        for d in range(2, min(top, m) + 1):
            trees = forests(d - 1, d - 1)   # a root below a forest
            rest, k = m, 0
            while rest % d == 0:
                rest //= d
                k += 1
                total += math.comb(trees + k - 1, k) * forests(rest, d - 1)
        return total

    classes = 0
    r = range(n)
    for A in census.enumerate_posemirings(n).instances:
        add = A.add
        if not (all(A.mul[x][x] == x for x in r)
                and A.mul == meet_table(add)):
            continue
        leq = [[add[x][y] == y for y in r] for x in r]
        irr = [j for j in range(1, n) if functools.reduce(
            lambda u, v: add[u][v], (z for z in r if z != j and leq[z][j]),
            0) != j]
        classes += all(leq[a][b] or leq[b][a] for j in irr
                       for a in irr if leq[a][j] for b in irr if leq[b][j])
    return forests(n, n), classes


def section4_classes(n):
    """The order-n census classes of each Section 4 kind: "integral" (Z(A)
    empty), "z1" (|Z(A)| = 1) and "z2" (|Z(A)| = 2 and Z(A)^2 != 0), each
    Z(A) read off the mul rows (x != 0 with xy = 0 for some y != 0)."""
    kinds = {"integral": [], "z1": [], "z2": []}
    for A in census.enumerate_posemirings(n).instances:
        mul = A.mul
        z = [x for x in range(1, n) if 0 in mul[x][1:]]
        if not z:
            kinds["integral"].append(A)
        elif len(z) == 1:
            kinds["z1"].append(A)
        elif len(z) == 2 and any(mul[x][y] for x in z for y in z):
            kinds["z2"].append(A)
    return kinds


def section4_counts(n):
    """(integral, z1, z2): the number of classes of each section4_classes
    kind.

    Section 4 of the paper gives integral(n) = C(n-1), the number of
    classes of order n - 1, z1(n) = integral(n-1) and z2(n) =
    3 integral(n-2)."""
    return tuple(map(len, section4_classes(n).values()))


def section4_bijections(n):
    """(images, distinct images, classes, classes reached) for z1 and then
    for z2 at order n, all compared by canonical_form keys: the z1 images
    are adjoin_z1 of the integral classes of order n-1, the z2 images
    adjoin_z2_incomparable and adjoin_z2_chain with u^2 = c and with
    u^2 = u of those of order n-2.  Section 4 makes each kind's adjoins
    one-to-one onto its classes, so the four numbers of a kind are equal."""
    def integral(m):
        return section4_classes(m)["integral"] if m >= 2 else []

    images = {
        "z1": [cons.adjoin_z1(B) for B in integral(n - 1)],
        "z2": [T for B in integral(n - 2)
               for T in (cons.adjoin_z2_incomparable(B),
                         cons.adjoin_z2_chain(B, "c"),
                         cons.adjoin_z2_chain(B, "u"))]}
    kinds = section4_classes(n)
    out = []
    for kind in ("z1", "z2"):
        got = [canonical_form(T) for T in images[kind]]
        want = {canonical_form(A) for A in kinds[kind]}
        out += [len(got), len(set(got)), len(want), len(want & set(got))]
    return tuple(out)


def _verified_sub(A, members, top):
    """constructions.sub_posemiring built the old way: the closure checked
    cell by cell, then the tables through make_table and verify_axioms."""
    members = set(members)
    ordered = [0] + sorted(members - {0, top}) + [top]
    index = {old: new for new, old in enumerate(ordered)}
    for x in ordered:
        for y in ordered:
            for op, table in (("add", A.add), ("mul", A.mul)):
                if table[x][y] not in members:
                    raise ClosureError((x, y, op))
    sub = make_table(len(ordered), [A.names[x] for x in ordered],
                     *([[index[t[x][y]] for y in ordered] for x in ordered]
                       for t in (A.add, A.mul)))
    core.verify_axioms(sub).require_valid("subset")
    return sub, index


def _searched(A, rebuilt, what):
    """An isomorphism of A onto rebuilt found by find_isomorphism."""
    perm = find_isomorphism(A, rebuilt)
    if perm is None:
        raise StructureError(f"{what} rebuild is not isomorphic to the input")
    return perm


def small_z_reference(A):
    """constructions.recognize_small_z built the old way: the base through
    _verified_sub, the rebuild by the verifying adjoin constructors, and the
    witness searched for by find_isomorphism."""
    zd = sorted(core.zero_divisors(A))
    if len(zd) not in (1, 2):
        raise NotApplicableError(f"|Z(A)| = {len(zd)}, expected 1 or 2")
    rest = [x for x in A.elements() if x not in zd]
    a1, index = _verified_sub(A, rest, A.one)
    if len(zd) == 1:
        return cons.Z1Decomposition(
            a1, _searched(A, cons.adjoin_z1(a1), "adjoin_z1"))
    c, u = zd
    if all(A.mul[x][y] == 0 for x in zd for y in zd):
        if A.leq(u, c):
            c, u = u, c
        return cons.Prop45Report(a1, cons._prop45_conditions(A, c, u, rest))
    if A.leq(c, u) or A.leq(u, c):
        if A.leq(u, c):
            c, u = u, c
        u_square = "c" if A.mul[u][u] == c else "u"
        return cons.Z2ChainDecomposition(a1, u_square, _searched(
            A, cons.adjoin_z2_chain(a1, u_square), "adjoin_z2_chain"))
    return cons.Z2IncomparableDecomposition(a1, index[A.add[c][u]], _searched(
        A, cons.adjoin_z2_incomparable(a1), "adjoin_z2_incomparable"))


def _idempotent_minimals(A):
    return [x for x in A.nonzero()
            if A.mul[x][x] == x and is_minimal_element(A, x)]


def peel_boolean_reference(A):
    """constructions.peel_boolean built the old way: each factor through
    _verified_sub, the witness searched for by find_isomorphism against the
    verified direct_product(boolean_power(n), a1)."""
    if not core.check_conditions(A).c3:
        raise NotApplicableError("condition (C3) does not hold")
    count, cur = 0, A
    while cur.order > 2 and (found := _idempotent_minimals(cur)):
        f = core.orthogonal_complement(cur, found[0])
        if not f:
            break
        cur, _ = _verified_sub(cur, set(cur.mul[f]), f)
        count += 1
    if count == 0:
        return cons.BooleanPeel(0, A, tuple(A.elements()))
    return cons.BooleanPeel(count, cur, _searched(
        A, cons.direct_product(cons.boolean_power(count), cur), "boolean peel"))


def split_two_star_reference(A):
    """constructions.split_two_star built the old way: each factor through
    _verified_sub, tried by find_isomorphism against {0,1} x S."""
    if not core.check_conditions(A).c3:
        raise NotApplicableError("condition (C3) does not hold")
    shape = cons.classify_shape(cons.posemiring_zdgraph(A))
    if shape.tag != "two-star" or shape.params[0] != 1:
        raise NotApplicableError(f"shape is {shape.line()}, not K1+K1+K1+D_r")
    for e in _idempotent_minimals(A):
        f = core.orthogonal_complement(A, e)
        if not f:
            continue
        s, _ = _verified_sub(A, set(A.mul[f]), f)
        if len(core.zero_divisors(s)) != 1:
            continue
        perm = find_isomorphism(A, cons.direct_product(cons.trivial(), s))
        if perm is not None:
            return cons.TwoStarSplit(s, s.order - 2, perm)
    return None


def transports(phi, A, B) -> bool:
    """phi is a bijection of A's indices onto B's that carries every sum
    and product of A to the one of B, checked cell by cell."""
    r = range(A.order)
    return (sorted(phi) == list(range(B.order)) == list(r)
            and all(phi[A.add[x][y]] == B.add[phi[x]][phi[y]]
                    and phi[A.mul[x][y]] == B.mul[phi[x]][phi[y]]
                    for x in r for y in r))


def _rebuilt(A, result):
    """The table a decomposition result says A is isomorphic to, by the
    verifying public constructors."""
    if isinstance(result, cons.Z1Decomposition):
        return cons.adjoin_z1(result.a1)
    if isinstance(result, cons.Z2ChainDecomposition):
        return cons.adjoin_z2_chain(result.a1, result.u_square)
    if isinstance(result, cons.Z2IncomparableDecomposition):
        return cons.adjoin_z2_incomparable(result.a1)
    if isinstance(result, cons.BooleanPeel):
        return (cons.direct_product(cons.boolean_power(result.n), result.a1)
                if result.n else A)
    return cons.direct_product(cons.trivial(), result.s)


#: each decomposition with the reference it must agree with
DECOMPOSITIONS = ((cons.recognize_small_z, small_z_reference),
                  (cons.peel_boolean, peel_boolean_reference),
                  (cons.split_two_star, split_two_star_reference))


def _outcome(decompose, A):
    """What decompose(A) gives without its witness, and the result itself:
    a raised error as (type name, message)."""
    try:
        result = decompose(A)
    except (ClosureError, DomainError, NotApplicableError,
            StructureError) as exc:
        return (type(exc).__name__, str(exc)), None
    if hasattr(result, "witness"):
        return replace(result, witness=None), result
    return result, None


def decomposition_mismatches(instances):
    """(applied, mismatches) over the three decompositions on each valid
    instance: applied counts the runs the reference did not find
    NotApplicable; a mismatch (name, instance) is a run whose result or
    error differs from the reference's, apart from the witness, or whose
    witness fails transports onto the rebuild of its result."""
    applied, mismatches = 0, []
    for A in instances:
        for decompose, reference in DECOMPOSITIONS:
            want, _ = _outcome(reference, A)
            got, result = _outcome(decompose, A)
            applied += not (isinstance(want, tuple)
                            and want[0] == "NotApplicableError")
            if got != want or result is not None and not transports(
                    result.witness, A, _rebuilt(A, result)):
                mismatches.append((decompose.__name__, A))
    return applied, mismatches


def decomposition_agreement(n):
    """(applied, mismatched runs) of decomposition_mismatches over the
    census classes of order n."""
    applied, bad = decomposition_mismatches(
        census.enumerate_posemirings(n).instances)
    return applied, len(bad)


def _swept_tables(n, fixed):
    """Every commutative table on 0..n-1 with the cells fixed(x, y) (None
    for a free cell) and associative by a triple loop, as lists of rows."""
    tab = [[fixed(x, y) for y in range(n)] for x in range(n)]
    free = [(x, y) for x in range(n) for y in range(x, n)
            if tab[x][y] is None]
    r = range(n)
    for values in itertools.product(r, repeat=len(free)):
        for (x, y), v in zip(free, values):
            tab[x][y] = tab[y][x] = v
        if all(tab[tab[x][y]][z] == tab[x][tab[y][z]]
               for x in r for y in r for z in r):
            yield [row[:] for row in tab]


def naive_census(n):
    """(keys, labelled) of the order-n census by a table-pair sweep, with no
    census code: keys is the set of canonical_form keys of its classes.

    Cells forced by the identity, top and absorption axioms are fixed, and
    so is the add diagonal: x + x = x(1 + 1) = x by distributivity.  Every
    associative add and mul table on the other cells is swept, and each
    pair passing verify_axioms is one labelled table."""
    one = n - 1

    def add_fixed(x, y):
        if x == 0 or y == 0:
            return x + y
        if one in (x, y):
            return one
        return x if x == y else None

    def mul_fixed(x, y):
        if x == 0 or y == 0:
            return 0
        if x == one:
            return y
        return x if y == one else None

    names = ["0", *(f"x{i}" for i in range(1, one)), "1"]
    muls = list(_swept_tables(n, mul_fixed))
    keys, labelled = set(), 0
    for add in _swept_tables(n, add_fixed):
        for mul in muls:
            A = make_table(n, names, add, mul)
            if verify_axioms(A).valid:
                labelled += 1
                keys.add(canonical_form(A))
    return keys, labelled


def residuum(A):
    """x -> y, the join of every z with xz <= y, as a tuple of rows; each
    x(x -> y) <= y is checked, so it is the largest such z."""
    n, add, mul = A.order, A.add, A.mul
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            v = 0
            for z in range(n):
                if add[mul[x][z]][y] == y:
                    v = add[v][z]
            assert add[mul[x][v]][y] == y, (A, x, y)
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def is_mv_algebra(A):
    """Whether A, read as a residuated lattice through residuum, has
    (x -> y) -> y = x + y for all x and y."""
    r = range(A.order)
    imp = residuum(A)
    return all(imp[imp[x][y]][y] == A.add[x][y] for x in r for y in r)


def residuated_counts(n):
    """(MV-algebras, BL-chains) among the order-n census classes, read as
    residuated lattices through residuum: the MV-algebras are the classes
    of is_mv_algebra, one per factorization of n (OEIS A001055);
    the BL-chains are the chains with x(x -> y) = min(x, y), one per
    composition of n - 1 into the orders of their MV-chain summands."""
    r = range(n)
    mv = bl = 0
    for A in census.enumerate_posemirings(n).instances:
        add, mul = A.add, A.mul
        mv += is_mv_algebra(A)
        if all(add[x][y] in (x, y) for x in r for y in r):
            imp = residuum(A)
            bl += all(mul[x][imp[x][y]] == (x if add[x][y] == y else y)
                      for x in r for y in r)
    return mv, bl


def mul_backtrack(n, add):
    """census._mul_backtrack filling one symmetric cell at a time, pruned by
    every associativity and distributivity triple that reads a filled cell."""
    one = n - 1
    leq = [[add[x][y] == y for y in range(n)] for x in range(n)]
    down = [[z for z in range(n) if leq[z][x]] for x in range(n)]
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[0][x] = mul[x][0] = 0
        mul[one][x] = mul[x][one] = x
    inner = range(1, one)
    cells = [(x, y) for x in inner for y in range(x, one)]

    def partial_ok(cx, cy):
        # Only triples reading cell (cx, cy) can newly fail, and each has a
        # coordinate in {cx, cy}.  Triples with a 0 or 1 coordinate hold by
        # absorption and identity, since every product is below its factors.
        new = (cx,) if cx == cy else (cx, cy)
        for x in inner:
            row = mul[x]
            x_new = x in new
            for y in inner:
                v = row[y]
                if v is None:
                    continue
                row_v, row_y, add_y, add_v = mul[v], mul[y], add[y], add[v]
                for z in (inner if x_new or y in new else new):
                    # associativity on filled triples
                    yz = row_y[z]
                    if yz is not None:
                        left, right = row_v[z], row[yz]
                        if left is not None and right is not None \
                                and left != right:
                            return False
                    # distributivity on filled triples
                    w = row[z]
                    if w is not None:
                        left = row[add_y[z]]
                        if left is not None and left != add_v[w]:
                            return False
        return True

    def rec(k):
        if k == len(cells):
            yield tuple(map(bytes, mul))
            return
        x, y = cells[k]
        for v in down[x]:
            if not leq[v][y]:
                continue
            mul[x][y] = mul[y][x] = v
            if partial_ok(x, y):
                yield from rec(k + 1)
        mul[x][y] = mul[y][x] = None

    yield from rec(0)


def _subsets(n, k):
    return itertools.combinations(range(n), k)


def build_zdgraph(mul):
    """graphs.build_zdgraph as a scan of every cell in row order:
    (vertices, adjacency by vertex position), or StructureError."""
    n = len(mul)
    for x in range(n):
        for y in range(n):
            if mul[x][y] != mul[y][x]:
                raise StructureError(
                    f"multiplication not commutative at ({x}, {y})")
        if mul[0][x] != 0:
            raise StructureError(f"0 does not absorb element {x}")
    vertices = tuple(x for x in range(1, n)
                     if any(mul[x][y] == 0 for y in range(1, n)))
    adjacency = tuple(
        tuple(x != y and mul[x][y] == 0 for y in vertices) for x in vertices)
    return vertices, adjacency


def adjacency(G):
    """The bool adjacency matrix of G by vertex position, from its masks."""
    return tuple(tuple(bool(m >> j & 1) for j in range(G.n)) for m in G.masks)


@dataclass(frozen=True)
class GraphFacts:
    diameter: float | None      # None for the empty graph, inf when disconnected
    girth: int | None           # None when acyclic
    clique_number: int
    component_count: int
    eccentricity: tuple[float, ...]
    triangle_free: bool
    quadrilateral_free: bool
    maximal_cliques: tuple[tuple[int, ...], ...]   # vertex positions, sorted


def graph_metrics(G) -> GraphFacts:
    """Every graph fact of the graphs module, with Floyd-Warshall distances,
    union-find components, and girth, triangles, C4s and cliques over
    vertex subsets."""
    n, adj = G.n, adjacency(G)
    if n == 0:
        return GraphFacts(diameter=None, girth=None, clique_number=0,
                          component_count=0, eccentricity=(),
                          triangle_free=True, quadrilateral_free=True,
                          maximal_cliques=())
    dist = [[0 if x == y else 1 if adj[x][y] else math.inf
             for y in range(n)] for x in range(n)]
    for k in range(n):
        for x in range(n):
            for y in range(n):
                dist[x][y] = min(dist[x][y], dist[x][k] + dist[k][y])
    ecc = tuple(max(row) for row in dist)

    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, y in _subsets(n, 2):
        if adj[x][y]:
            root[find(x)] = find(y)

    def is_clique(S):
        return all(adj[x][y] for x, y in itertools.combinations(S, 2))

    def induced_cycle(S):
        # a shortest cycle has no chord, so it is a connected 2-regular
        # induced subgraph; S is connected when one vertex reaches it all
        if any(sum(adj[x][y] for y in S) != 2 for x in S):
            return False
        reached = {S[0]}
        for _ in S:
            reached |= {y for x in reached for y in S if adj[x][y]}
        return len(reached) == len(S)

    cliques = [S for k in range(1, n + 1) for S in _subsets(n, k)
               if is_clique(S)
               and not any(all(adj[v][x] for x in S)
                           for v in range(n) if v not in S)]
    return GraphFacts(
        diameter=max(ecc),
        girth=next((k for k in range(3, n + 1) for S in _subsets(n, k)
                    if induced_cycle(S)), None),
        clique_number=max(map(len, cliques)),
        component_count=len({find(x) for x in range(n)}),
        eccentricity=ecc,
        triangle_free=not any(is_clique(S) for S in _subsets(n, 3)),
        quadrilateral_free=not any(
            all(adj[c[i]][c[(i + 1) % 4]] for i in range(4))
            for S in _subsets(n, 4)
            for c in ((S[0], S[1], S[2], S[3]), (S[0], S[1], S[3], S[2]),
                      (S[0], S[2], S[1], S[3]))),
        maximal_cliques=tuple(sorted(cliques)),
    )


def girth(G) -> int | None:
    """graphs.girth on adjacency sets: the least, over edges uv, of 1 plus
    the breadth-first distance from u to v with uv removed."""
    nbrs = [set(G.neighbors(i)) for i in range(G.n)]
    best = None
    for u in range(G.n):
        for v in nbrs[u]:
            if v < u:
                continue
            dist = {u: 0}
            queue = deque([u])
            while queue and v not in dist:
                x = queue.popleft()
                for y in nbrs[x]:
                    if y not in dist and {x, y} != {u, v}:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            if v in dist and (best is None or dist[v] + 1 < best):
                best = dist[v] + 1
    return best


def classify_shape(G) -> GraphShape:
    """graphs.classify_shape under the same precedence, each shape tested
    from its definition: K_{m,n} by trying every bipartition."""
    m = graph_metrics(G)
    n, adj = G.n, adjacency(G)
    edges = [(x, y) for x, y in _subsets(n, 2) if adj[x][y]]
    if n <= 1:
        return GraphShape("empty" if n == 0 else "single-vertex", (), G)
    if len(edges) == n * (n - 1) // 2:
        return GraphShape("complete", (n,), G)
    if n >= 3 and any(sorted(edges) == [tuple(sorted((c, w)))
                                        for w in range(n) if w != c]
                      for c in range(n)):
        return GraphShape("star", (n - 1,), G)
    for u, v in edges:
        rest = [w for w in range(n) if w not in (u, v)]
        leaves = [{x for x in range(n) if adj[w][x]} for w in rest]
        r = leaves.count({u})
        if rest and r + leaves.count({v}) == len(rest) and 0 < r < len(rest):
            return GraphShape("two-star", tuple(sorted((r, len(rest) - r))), G)
    for k in range(2, n - 1):
        for A in _subsets(n, k):
            if all(adj[x][y] == ((x in A) != (y in A))
                   for x, y in _subsets(n, 2)):
                return GraphShape("complete-bipartite",
                                  tuple(sorted((k, n - k))), G)
    if m.girth is None:
        return GraphShape("forest", (), G)
    return GraphShape("cyclic", (), G)


# ---------------------------------------------------------------------------
# Orthogonal idempotents: pair scans in place of PoSemiringTable.splits


def splits(A):
    """PoSemiringTable.splits by scanning every pair for each x."""
    idem = [x for x in A.elements() if A.mul[x][x] == x]
    return tuple(tuple((w, v) for w in idem for v in idem
                       if A.mul[w][v] == 0 and A.add[w][v] == x)
                 for x in A.elements())


def is_primitive_idempotent(A, e):
    """core.is_primitive_idempotent over every pair of nonzero elements."""
    if e == 0 or not is_idempotent(A, e):
        return False
    for w in A.nonzero():
        if w == e or not is_idempotent(A, w):
            continue
        for v in A.nonzero():
            if v == e or not is_idempotent(A, v):
                continue
            if A.mul[w][v] == 0 and A.add[w][v] == e:
                return False
    return True


def orthogonal_complements(A, w):
    """core.orthogonal_complements by scanning every element."""
    return tuple(v for v in A.elements()
                 if A.mul[v][v] == v and A.add[w][v] == A.one
                 and A.mul[w][v] == 0)


def _dominated_complemented_idempotent(A, u):
    """Least (w, v): w nonzero idempotent <= u with orthogonal complement v."""
    for w in A.nonzero():
        if not (is_idempotent(A, w) and A.leq(w, u)):
            continue
        for v in A.elements():
            if (A.mul[v][v] == v and A.add[w][v] == A.one
                    and A.mul[w][v] == 0):
                return (w, v)
    return None


def check_conditions(A):
    """core.check_conditions as one pair scan per element of each family,
    (C1) scanned over the non-nilpotent elements in its own right, with
    minimality and w <= u tested through A.leq."""
    c1 = all(_dominated_complemented_idempotent(A, u) is not None
             for u in A.nonzero() if nilpotency_index(A, u) is None)
    c2 = all(_dominated_complemented_idempotent(A, u) is not None
             for u in A.nonzero() if is_idempotent(A, u))
    c3 = all(orthogonal_complements(A, u)
             for u in A.nonzero()
             if is_idempotent(A, u) and is_minimal_element(A, u))
    return ConditionReport(c1=c1, c2=c2, c3=c3)


def primitive_parts(A, e):
    """core.primitive_decomposition, splitting x along its least pair of
    nonzero idempotents other than x found by a pair scan."""

    def split(x):
        for w in A.nonzero():
            if w == x or not is_idempotent(A, w):
                continue
            for v in A.nonzero():
                if (v != x and is_idempotent(A, v)
                        and A.mul[w][v] == 0 and A.add[w][v] == x):
                    return (w, v)
        return None

    def rec(x):
        pair = split(x)
        if pair is None:
            return [x]
        w, v = pair
        return rec(w) + rec(v)

    return tuple(sorted(rec(e)))


def chk_p21c(ctx):
    """harness.chk_p21c with its complement pairs found by a pair scan."""
    A = ctx.A
    pairs = [(e, f) for e in A.elements() for f in A.elements()
             if A.mul[e][e] == e and A.mul[f][f] == f
             and A.add[e][f] == A.one and A.mul[e][f] == 0]
    for e1, f1 in pairs:
        for e2, f2 in pairs:
            if A.lt(e2, e1) and not A.lt(f1, f2):
                return harness._fail((e1, f1, e2, f2))
    return harness._pass()


def chk_t22_tail(ctx):
    """harness.chk_t22_tail with its complemented idempotents found by
    scanning every element for a complement."""
    if not (ctx.cond.c1 or ctx.cond.c2):
        return harness._na("neither (C1) nor (C2) holds")
    A = ctx.A
    complemented = [e for e in A.nonzero()
                    if e != A.one and is_idempotent(A, e)
                    and orthogonal_complements(A, e)]
    for c in A.nonzero():
        if c == A.one or c in ctx.ana.nilpotency:
            continue
        found = False
        for k in range(1, A.order + 1):
            p = functools.reduce(lambda q, _: A.mul[q][c], range(k), A.one)
            if any(A.mul[p][e] == p for e in complemented):
                found = True
                break
        if not found:
            return harness._fail(c)
    return harness._pass()


# ---------------------------------------------------------------------------
# Element analysis: A.leq scans in place of the down-set index


def nilpotency_index(A, x):
    """core.nilpotency_index taking all of x, x^2, ..., x^n."""
    p = x
    for k in range(1, A.order + 1):
        if p == 0:
            return k
        p = A.mul[p][x]
    return None


def is_prime_element(A, p):
    """p != 1 and no x, y outside the down-set of p with xy inside it."""
    if p == A.one:
        return False
    add = A.add
    outside = [x for x in A.elements() if add[x][p] != p]
    for x in outside:
        row = A.mul[x]
        for y in outside:
            if add[row[y]][p] == p:
                return False
    return True


def is_minimal_element(A, x):
    if x == 0:
        return False
    return all(y in (0, x) for y in A.elements() if A.leq(y, x))


def is_maximal_element(A, m):
    if m == A.one:
        return False
    return all(x in (m, A.one) for x in A.elements() if A.leq(m, x))


def lower_members(A, u):
    return frozenset(x for x in A.elements() if A.leq(x, u))


def annihilator_members(A, u):
    return frozenset(x for x in A.elements() if A.mul[x][u] == 0)


def analyze_elements(A):
    """core.analyze_elements with each element tested on its own: zero
    divisors over every nonzero product, nilpotency over every power, the
    order tests through A.leq, and down[x] from lower_members."""
    nonzero = list(A.nonzero())
    nilp = {}
    for x in nonzero:
        k = nilpotency_index(A, x)
        if k is not None:
            nilp[x] = k
    idem = frozenset(x for x in nonzero if is_idempotent(A, x))
    return ElementAnalysis(
        zero_divisors=frozenset(x for x in nonzero
                                if any(A.mul[x][y] == 0 for y in nonzero)),
        nilpotency=nilp,
        idempotents=idem,
        primitive_idempotents=frozenset(
            e for e in idem if is_primitive_idempotent(A, e)),
        primes=frozenset(p for p in A.elements() if is_prime_element(A, p)),
        maximals=frozenset(m for m in A.elements()
                           if is_maximal_element(A, m)),
        minimals=frozenset(x for x in A.elements()
                           if is_minimal_element(A, x)),
        down=tuple(sum(1 << y for y in lower_members(A, x))
                   for x in A.elements()),
    )


def flag_ideal(A, members):
    """core._flag_ideal comparing members with every down-set and
    annihilator collected as a set."""
    return IdealSubset(
        members=members,
        hereditary=all(x in members for u in members
                       for x in A.elements() if A.leq(x, u)),
        prime=is_prime_ideal(A, members),
        principal_annihilating=any(annihilator_members(A, u) == members
                                   for u in A.elements()),
        lower_principal=next((u for u in sorted(members)
                              if lower_members(A, u) == members), None))
