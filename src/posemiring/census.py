"""Isomorph-free exhaustive generation of small po-semirings.

The census enumerates bounded join-semilattice addition tables, labelled so
that (down-set size, up-set size) never decreases (every lattice has such a
labelling, so no isomorphism class is lost), and keeps the first labelled
lattice of each class with the permutations taking it to its canonical key.
On each it searches the multiplication tables row by row on flat byte rows:
every row is a join-endomorphism of the lattice below the identity, the
labels are a linear extension, so commutativity picks a row's candidates by
the slice of its column over the rows placed before it, associativity is
checked as composition of rows, and forward checking drops a partial table
as soon as a later row has no candidate left.  Each flat table is keyed
over those permutations.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass

from .core import (
    DomainError,
    PoSemiringTable,
    lower_covers,
    order_index,
    verify_axioms,  # not called here: perfbench/spans.py times it by this name
)

FAST_CAP = 9


@dataclass(frozen=True)
class CensusResult:
    order: int
    count_up_to_iso: int
    count_labeled: int
    instances: tuple[PoSemiringTable, ...]
    seconds: float


def _generic_names(n: int) -> tuple[str, ...]:
    return ("0",) + tuple(f"x{i}" for i in range(1, n - 1)) + ("1",)


def _relabelling(perm):
    """perm with pick, rows and pmap, the C-level steps that relabel by it.

    pmap, bytes(perm) padded to 256 bytes, renames values by bytes.translate;
    rows gathers the cells (inv[x], inv[y]) of the renamed flat table, and
    pick only those with 1 <= x <= y <= n-2.  The tables keyed here are
    commutative, 0 is an identity or absorbing and n-1 an identity or top,
    so the other cells mirror these or are fixed: pick orders as rows does.
    """
    n = len(perm)
    inv = sorted(range(n), key=perm.__getitem__)
    rows = [inv[x] * n + inv[y] for x in range(n) for y in range(n)]
    upper = [rows[x * n + y] for x in range(1, n - 1) for y in range(x, n - 1)]
    # n = 2 has no such cell (itemgetter() takes one); rows serve as pick
    pick = operator.itemgetter(*(upper or rows))
    return perm, pick, operator.itemgetter(*rows), bytes(perm) + bytes(256 - n)


def _fixing_perms(n: int):
    """Permutations of 0..n-1 fixing 0 and n-1, each as a _relabelling."""
    return [_relabelling((0,) + middle + (n - 1,))
            for middle in itertools.permutations(range(1, n - 1))]


def canonical_form(A: PoSemiringTable) -> bytes:
    """Least serialization of (add, mul) over all 0,1-fixing permutations."""
    return _key_and_aut(A)[0]


def automorphism_count(A: PoSemiringTable) -> int:
    """Number of 0,1-fixing permutations that preserve both tables."""
    return _key_and_aut(A)[1]


def _key_and_aut(A: PoSemiringTable):
    """canonical_form(A) and |Aut(A)|, for A satisfying the axioms.

    The least add, then the least mul over the perms reaching it, is the
    least (add, mul); the perms reaching both are a coset of Aut(A).
    """
    add_key, add_hits = _least_relabellings(A.add, _fixing_perms(A.order))
    mul_key, hits = _least_relabellings(A.mul, add_hits)
    return add_key + mul_key, len(hits)


def tables_from_canonical(n: int, keys) -> list[PoSemiringTable]:
    """The representatives with these canonical keys, built without
    re-checks: the census makes its keys from valid tables."""
    names = _generic_names(n)
    rows = [tuple(zip(*[iter(key)] * n)) for key in keys]
    return [PoSemiringTable(order=n, names=names, add=r[:n], mul=r[n:])
            for r in rows]


def _linear_posets(n: int, below=(frozenset(),)):
    """Yield bounded posets on 0..n-1 whose strict down-sets never shrink,
    extending below, the strict down-sets of 0..len(below)-1 fixed so far.

    Each is the list of strict down-sets; 0 is the bottom and n-1 the top.
    Strict down-sets are built one element at a time, each at least as
    large as the one before, so the indices form a linear extension.
    """
    i = len(below)
    if i == n - 1:
        yield [*below, frozenset(range(n - 1))]
        return
    ground = list(range(1, i))
    for r in range(max(len(below[-1]) - 1, 0), len(ground) + 1):
        for extra in itertools.combinations(ground, r):
            s = frozenset((0,) + extra)
            if all(below[j] <= s for j in s):
                yield from _linear_posets(n, below + (s,))


def _join_table(below):
    """Join table of the poset with strict down-sets below, or None.

    The upper bounds of x and y are up[x] & up[y]; they have a least
    element z exactly when they equal up[z], so the join is a lookup.
    """
    n = len(below)
    up = [1 << x for x in range(n)]
    for y, strict in enumerate(below):
        for x in strict:
            up[x] |= 1 << y
    least = {mask: z for z, mask in enumerate(up)}
    add = []
    for ux in up:
        row = [least.get(ux & uy) for uy in up]
        if None in row:
            return None
        add.append(row)
    return add


def _bounded_semilattices(n: int):
    """Yield join tables of lattices on 0..n-1 with bottom 0 and top n-1,
    labelled so that (down-set size, up-set size) never decreases.

    x < y makes the down-set of x a proper subset of that of y, so every
    lattice sorted by these sizes is labelled by a linear extension: each
    class appears at least once.
    """
    for below in _linear_posets(n):
        ups = [1] * n
        for strict in below:
            for x in strict:
                ups[x] += 1
        if all(ups[x] <= ups[x + 1] for x in range(n - 1)
               if len(below[x]) == len(below[x + 1])):
            tab = _join_table(below)
            if tab is not None:
                yield tab


def _join_endomorphisms(add):
    """Every join-endomorphism f of the lattice with f(y) <= y, as bytes.

    The maps grow together, one element at a time, in a linear extension of
    the lattice (by down-set size; the labels need not be one).  A
    join-irreducible y with lower cover c takes any v <= y above f(c) <= c.
    A join-reducible y is forced to the join of f over its lower covers,
    which must equal f(a) + f(b) for every minimal incomparable pair with
    a + b = y; a pair (a, b) is minimal when no lower cover of a or of b
    still joins with the other to y, and every other pair follows from one
    below it by monotonicity.
    """
    n = len(add)
    up, down = order_index(add)
    members = [[z for z in range(n) if mask >> z & 1] for mask in down]
    covers = lower_covers(up, down)
    found = [[0] * n]
    for y in sorted(range(1, n), key=lambda y: len(members[y])):
        lower = covers[y]
        if len(lower) == 1:
            c = lower[0]
            above = [None] * n
            for u in members[c]:
                mask = up[u] & down[y]
                above[u] = [v for v in members[y] if mask >> v & 1]
            grown = []
            for f in found:
                for v in above[f[c]]:
                    g = f.copy()
                    g[y] = v
                    grown.append(g)
            found = grown
            continue
        pairs = [(a, b) for a in members[y] for b in members[y]
                 if a < b and add[a][b] == y and y not in (a, b)
                 and all(add[a2][b] != y for a2 in covers[a])
                 and all(add[a][b2] != y for b2 in covers[b])]
        kept = []
        for f in found:
            v = 0
            for z in lower:
                v = add[v][f[z]]
            if all(add[f[a]][f[b]] == v for a, b in pairs):
                f[y] = v
                kept.append(f)
        found = kept
    return list(map(bytes, found))


def _mul_backtrack(n: int, add):
    """Yield all multiplication tables compatible with the given join table,
    each as its n*n bytes, row-major.

    Distributivity and absorption make each row mul_x a join-endomorphism
    with mul_x(y) <= y and mul_x(1) = x, so the rows are picked from
    _join_endomorphisms(add), one row at a time in the order 1..n-2.  The
    labels must be a linear extension of the lattice, as every join table
    from _bounded_semilattices is (DomainError otherwise), so xb < x puts
    row xb before row x, and the values of row x at the rows before it are
    fixed by commutativity: its key f[1:x] is the strided slice of column
    x over rows 1..x-1 of the table placed so far.
    Associativity is one composition per earlier row: mul_x . mul_b ==
    mul_{xb}, that is x(by) = (xb)y for all y, for every b < x and for
    b = x, checked with bytes.translate on rows padded to 256 bytes.  This
    suffices: write g(u, v, w) = u(vw), symmetric in v and w by
    commutativity.  The check gives u(vw) = (uv)w = w(uv), so
    g(u, v, w) = g(w, u, v) whenever u >= v (u or v equal to 0 or to the
    identity passes trivially).  Putting the larger of q, r second, every
    g(p, q, r) equals g(max(q, r), min(q, r), p); so for a <= b <= c,
    g(a, b, c) = g(c, b, a) and g(b, a, c) = g(c, a, b) = g(c, b, a).  With
    the symmetry in the last two places, g takes one value on all six
    orders of a triple, and a(bc) = g(a, b, c) = g(c, a, b) = c(ab) = (ab)c.
    Forward checking: once row x is placed, every row y >= x+2 must still
    have a candidate whose key starts with column y over rows 1..x, found
    by bisect in its sorted keys (row x+1 is looked up next anyway).
    """
    one = n - 1
    if any(add[x][y] == y for y in range(n) for x in range(y + 1, n)):
        raise DomainError("join table labels are not a linear extension")
    tab = bytearray(n * n)
    tab[one * n:] = range(n)
    if n == 2:
        yield bytes(tab)
        return
    pad = bytes(256 - n)
    buckets = [{} for _ in range(n)]
    for f in _join_endomorphisms(add):
        x = f[one]
        if 0 < x < one:
            buckets[x].setdefault(f[1:x], []).append((f, f + pad))
    keys = [sorted(bucket) for bucket in buckets]
    rows = [bytes(n)] + [None] * (n - 2) + [bytes(range(n))]
    # stack[x - 1] iterates over the candidates left for row x
    stack = [iter(buckets[1].get(b"", ()))]
    while stack:
        x = len(stack)
        for f, fmap in stack[-1]:
            rows[x] = f
            if f.translate(fmap) != rows[f[x]]:
                continue
            for b in range(1, x):       # a loop is faster than all() here
                if rows[b].translate(fmap) != rows[f[b]]:
                    break
            else:
                tab[x * n:x * n + n] = f
                if x + 1 == one:
                    yield bytes(tab)
                elif _later_rows_open(tab, keys, n, x):
                    stack.append(iter(buckets[x + 1].get(
                        bytes(tab[n + x + 1:x * n + n:n]), ())))
                    break
        else:
            stack.pop()


def _later_rows_open(tab, keys, n, x):
    """Whether every row y >= x+2 still has a candidate: a key in keys[y]
    (sorted) starting with column y over rows 1..x of tab."""
    end = x * n + n
    for y in range(x + 2, n - 1):
        prefix = tab[n + y:end:n]
        ky = keys[y]
        i = bisect_left(ky, prefix)
        if i == len(ky) or not ky[i].startswith(prefix):
            return False
    return True


def _least_relabellings(tab, perms):
    """Least serialization of tab over perms, and the perms that reach it.

    tab is a flat table (a table of rows is joined first); perms are
    _relabelling tuples.  Each costs two C calls on the flat table,
    pick(flat.translate(pmap)); the hits are the perms tying for the least
    pick, in the order of perms, and the key is the first hit's rows.  A
    single perm is its own hit, with no pick to compare.
    """
    flat = tab if isinstance(tab, bytes) else b"".join(map(bytes, tab))
    if len(perms) > 1:
        keys = [pick(flat.translate(pmap)) for _, pick, _, pmap in perms]
        best = min(keys)
        perms = [entry for entry, key in zip(perms, keys) if key == best]
    _, _, rows, pmap = perms[0]
    return bytes(rows(flat.translate(pmap))), perms


def _fast_census(n: int):
    """Search multiplications once per lattice class, keyed over its hits.

    The hits of the first labelled lattice L of a class are the perms p
    taking it to the lattice key, a coset p0 Aut(L).  Every isomorphism
    from a table on L to one on the key lattice is such a perm, so
    lattice_key + min over the hits of the relabelled mul equals
    canonical_form, and the hits reaching that minimum number |Aut(A)|.
    No table is verified: each join table is a lattice, and _mul_backtrack
    builds every row as a join-endomorphism (identity, distributivity,
    absorption), takes it from the candidates matching the earlier rows
    (commutativity) and checks its compositions (associativity).  Its flat
    tables go to the keying as they are.
    """
    perms = _fixing_perms(n)
    lattices = {}   # lattice key -> (first labelled lattice, its hits)
    for add in _bounded_semilattices(n):
        key, hits = _least_relabellings(add, perms)
        lattices.setdefault(key, (add, hits))
    classes = {}    # canonical key -> |Aut|
    for lattice_key, (add, hits) in lattices.items():
        for mul in _mul_backtrack(n, add):
            mul_key, stabiliser = _least_relabellings(mul, hits)
            classes.setdefault(lattice_key + mul_key, len(stabiliser))
    reps = tables_from_canonical(n, sorted(classes))
    labeled = sum(math.factorial(n - 2) // aut for aut in classes.values())
    return reps, labeled


def enumerate_posemirings(n: int) -> CensusResult:
    if not 2 <= n <= FAST_CAP:
        raise DomainError(f"order {n} outside [2, {FAST_CAP}]")
    start = time.perf_counter()
    reps, labeled = _fast_census(n)
    return CensusResult(order=n, count_up_to_iso=len(reps),
                        count_labeled=labeled, instances=tuple(reps),
                        seconds=time.perf_counter() - start)
