"""Brute-force references for the table-law kernels and census keys.

The law checks walk every pair or triple in the loop order that defines
which witness or message comes first; the keys try every permutation in
full.  Tests compare the package against them.
"""

import itertools

from posemiring.core import AxiomReport, StructureError


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
    return add


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
