"""Finite po-semirings as Cayley tables.

An instance is a pair of n x n operation tables over indices 0..n-1 with the
zero element at index 0 and the identity at index n-1.  The partial order is
never stored: x <= y holds exactly when add[x][y] == y.  Every table, of a
po-semiring or a ring, holds its rows as a tuple of bytes, which read as int
sequences.  Outside input takes this one format in _check_matrix; the
constructions build it and the kernels read it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from operator import and_, eq, itemgetter, or_


#: largest table order: psr files, constructions, I(R), sub-instances and
#: rings; every index then fits in a byte, which the table-law kernel needs
ORDER_CAP = 256


class StructureError(ValueError):
    """Malformed tables or files: wrong shape, out-of-range entries, bad syntax."""


class DomainError(ValueError):
    """An operation was called with an argument outside its domain."""


class NotApplicableError(Exception):
    """The hypotheses of an operation do not hold for this instance."""


class ClosureError(Exception):
    """A subset expected to be closed under the operations is not.

    Carries a witness (x, y, op) with op in {"add", "mul"}.
    """

    def __init__(self, witness):
        super().__init__(f"closure failure at {witness}")
        self.witness = witness


@dataclass(frozen=True)
class PoSemiringTable:
    order: int
    names: tuple[str, ...]
    add: tuple[bytes, ...]
    mul: tuple[bytes, ...]

    @property
    def one(self) -> int:
        return self.order - 1

    def elements(self):
        return range(self.order)

    def nonzero(self):
        return range(1, self.order)

    def leq(self, x: int, y: int) -> bool:
        return self.add[x][y] == y

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.add[x][y] == y

    @cached_property
    def splits(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """splits[x]: every (w, v) of idempotents with wv = 0 and w + v = x,
        ascending.  Complements, primitive idempotents, (C1)-(C3) and
        primitive decompositions are all read from this one index."""
        idem = [x for x in range(self.order) if self.mul[x][x] == x]
        found = [[] for _ in range(self.order)]
        for w in idem:
            add_w, mul_w = self.add[w], self.mul[w]
            for v in idem:
                if mul_w[v] == 0:
                    found[add_w[v]].append((w, v))
        return tuple(map(tuple, found))

    @cached_property
    def axioms(self) -> AxiomReport:
        """The axiom report, computed once; read by verify_axioms."""
        return _axiom_report(self)

    @cached_property
    def conditions(self) -> ConditionReport:
        """The (C1)-(C3) report, computed once; read by check_conditions."""
        return _condition_report(self)

    def __repr__(self):
        return f"PoSemiringTable(order={self.order}, names={list(self.names)})"


def make_table(order, names, add, mul) -> PoSemiringTable:
    """Build a table instance, raising StructureError on malformed input."""
    if not 2 <= order <= ORDER_CAP:
        raise StructureError(f"order must be in [2, {ORDER_CAP}], got {order}")
    names = tuple(str(s) for s in names)
    if len(names) != order:
        raise StructureError(f"expected {order} names, got {len(names)}")
    # s.split() == [s]: non-empty, and no whitespace splits the names line
    if len(set(names)) != order or any(s.split() != [s] or "#" in s
                                       for s in names):
        raise StructureError("names must be distinct, non-empty and free of "
                             "whitespace and '#'")
    return PoSemiringTable(order, names, _check_matrix(add, order, "add"),
                           _check_matrix(mul, order, "mul"))


def _check_matrix(rows, order, label):
    """rows as a tuple of bytes, the row format of every table, once they
    form an order x order table with entries in [0, order).  The entries
    are checked as one set; a bad entry is named by the first one in
    row-major order, found by a scan only once the set check has failed."""
    rows = [list(map(int, row)) for row in rows]
    if len(rows) != order or any(len(r) != order for r in rows):
        raise StructureError(f"{label} table is not {order}x{order}")
    if not set().union(*rows) <= set(range(order)):
        v = next(v for r in rows for v in r if not 0 <= v < order)
        raise StructureError(f"{label} entry {v} out of range [0, {order})")
    return tuple(map(bytes, rows))


def product_rows(ta, tb) -> list[bytes]:
    """The bytes rows of the componentwise operation on pairs (a, b), at
    index a*len(tb) + b, from the bytes rows ta and tb of two operation
    tables whose orders multiply to at most ORDER_CAP.

    Row (a, b) joins, for each u in ta's row a, tb's row b shifted by
    u*len(tb); each shifted row is one bytes.translate of tb's row.
    """
    nb = len(tb)
    pad = bytes(256 - nb)
    shifts = [bytes(range(u * nb, u * nb + nb)) + pad for u in range(len(ta))]
    shifted = [[row.translate(s) for s in shifts] for row in tb]
    return [b"".join(map(sb.__getitem__, ra)) for ra in ta for sb in shifted]


# ---------------------------------------------------------------------------
# Axiom verification


@dataclass(frozen=True)
class AxiomReport:
    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def require_valid(self, what: str) -> None:
        """Raise StructureError "<what>: not a po-semiring: <axiom> at
        <witness>" for the first violation, if there is one."""
        if self.violations:
            axiom, witness = self.violations[0]
            raise StructureError(
                f"{what}: not a po-semiring: {axiom} at {witness}")


#: reduced axiom checklist; boundedness plus distributivity force idempotent
#: addition and the compatible order, so those are not independent axioms.
AXIOM_IDS = (
    "add-commutative",
    "add-associative",
    "add-identity",
    "one-is-top",
    "mul-commutative",
    "mul-associative",
    "mul-identity",
    "zero-absorbs",
    "distributive",
)


def verify_axioms(A: PoSemiringTable) -> AxiomReport:
    """Check the reduced axiom list, reporting the first witness per axiom.

    A witness is the lexicographically least failing argument tuple.  The
    report is A.axioms: each table is checked once, on its first call.
    """
    return A.axioms


#: the report of a table satisfying every axiom
VALID = AxiomReport(valid=True, violations=())


def _axiom_report(A: PoSemiringTable) -> AxiomReport:
    """The byte-row kernel behind verify_axioms."""
    n, one = A.order, A.one
    add, mul = ByteTable(A.add), ByteTable(A.mul)
    identity = bytes(range(n))
    found = (
        ("add-commutative", commutative_witness(add)),
        ("add-associative", associative_witness(add)),
        ("add-identity", row_witness(add.rows[0], identity)),
        ("one-is-top", row_witness(add.rows[one], bytes([one]) * n)),
        ("mul-commutative", commutative_witness(mul)),
        ("mul-associative", associative_witness(mul)),
        ("mul-identity", row_witness(mul.rows[one], identity)),
        ("zero-absorbs", row_witness(mul.rows[0], bytes(n))),
        ("distributive", distributive_witness(add, mul)),
    )
    violations = tuple((axiom, w) for axiom, w in found if w is not None)
    if violations:
        return AxiomReport(valid=False, violations=violations)
    return VALID


# Byte-row kernel for the table laws.  Every index is below ORDER_CAP = 256,
# so a table row is a bytes object, and a row padded to 256 bytes is a
# translation table: data.translate(maps[x]) looks every byte of data up in
# row x in one C call.  A law builds both sides for all its argument tuples
# in lexicographic order, so the first differing byte is the least witness.


class ByteTable:
    """An operation table's bytes rows, their concatenation, and row maps."""

    __slots__ = ("n", "rows", "flat", "maps")

    def __init__(self, op):
        self.rows, self.n = op, len(op)
        self.flat = b"".join(self.rows)
        pad = bytes(256 - self.n)
        self.maps = [row + pad for row in self.rows]


def _first_difference(a: bytes, b: bytes) -> int | None:
    """Index of the first byte where a and b (of equal length) differ."""
    if a == b:
        return None
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return len(a) - 1 - (diff.bit_length() - 1) // 8


def row_witness(row: bytes, expected: bytes):
    """(x,) for the first x with row[x] != expected[x], or None."""
    x = _first_difference(row, expected)
    return None if x is None else (x,)


def commutative_witness(t: ByteTable):
    """Least (x, y) with xy != yx, or None."""
    n, flat = t.n, t.flat
    i = _first_difference(flat, b"".join([flat[y::n] for y in range(n)]))
    return None if i is None else divmod(i, n)


def _triple(i: int, n: int) -> tuple[int, int, int]:
    x, yz = divmod(i, n * n)
    return (x, *divmod(yz, n))


def associative_witness(t: ByteTable):
    """Least (x, y, z) with (xy)z != x(yz), or None."""
    left = b"".join(map(t.rows.__getitem__, t.flat))
    right = b"".join([t.flat.translate(m) for m in t.maps])
    i = _first_difference(left, right)
    return None if i is None else _triple(i, t.n)


def distributive_witness(add: ByteTable, mul: ByteTable):
    """Least (x, y, z) with x(y+z) != xy + xz, or None."""
    left = b"".join([add.flat.translate(m) for m in mul.maps])
    right = b"".join([row.translate(add.maps[v])
                      for row in mul.rows for v in row])
    i = _first_difference(left, right)
    return None if i is None else _triple(i, add.n)


# ---------------------------------------------------------------------------
# Element analysis


@dataclass(frozen=True)
class ElementAnalysis:
    """The element sets of one table, derived from one down-set index.

    ``down[x]`` is the bit mask of the down-set {y : y <= x}: bit y is set
    when add[y][x] == x.  analyze_elements builds it together with the
    up-sets in one pass over the add rows; the minimal, maximal and prime
    elements are read from it, and so are the order tests of the P2.13 and
    P2.16 checks.  It takes no part in equality or hashing.
    """
    zero_divisors: frozenset[int]
    nilpotency: dict[int, int] = field(hash=False)
    idempotents: frozenset[int]
    primitive_idempotents: frozenset[int]
    primes: frozenset[int]
    maximals: frozenset[int]
    minimals: frozenset[int]
    down: tuple[int, ...] = field(compare=False, hash=False, repr=False)


def nilpotency_index(A: PoSemiringTable, x: int) -> int | None:
    """Least k >= 1 with x^k = 0, or None.  Powers cycle within order
    steps, and a nonzero power p with p x = p repeats for ever."""
    if x == 0:
        raise DomainError("nilpotency index of the zero element is undefined")
    mul, p = A.mul, x
    for k in range(1, A.order + 1):
        if p == 0:
            return k
        q = mul[p][x]
        if q == p:
            return None
        p = q
    return None


def is_idempotent(A: PoSemiringTable, x: int) -> bool:
    return A.mul[x][x] == x


def order_index(add) -> tuple[list[int], list[int]]:
    """(up, down): the bit masks of {y : x <= y} and {y : y <= x} for every
    x, from one pass over the rows of a join table (x <= y iff
    add[x][y] == y)."""
    n = len(add)
    up, down = [0] * n, [0] * n
    for x, row in enumerate(add):
        bit, mask = 1 << x, 0
        for y, s in enumerate(row):
            if s == y:
                mask |= 1 << y
                down[y] |= bit
        up[x] = mask
    return up, down


def lower_covers(up: list[int], down: list[int]) -> list[list[int]]:
    """The lower covers of every x, ascending, from order_index's masks: the
    greatest y < x when there is one, else the maximal y < x."""
    greatest = {mask: y for y, mask in enumerate(down)}
    covers = []
    for x, mask in enumerate(down):
        strict = mask ^ 1 << x
        covers.append([greatest[strict]] if strict in greatest else
                      [y for y in range(strict.bit_length()) if strict >> y & 1
                       and up[y] & strict == 1 << y])
    return covers


def _not_prime(A: PoSemiringTable, up: list[int]) -> int:
    """Bit mask of the p with xy <= p for some x, y not below p.

    For each x, OR over y of up[xy] & ~up[y] marks the p above xy but not
    above y; masked by ~up[x] it marks the p that x and such a y refute."""
    notup = [~m for m in up]
    bad = 0
    for x, row in enumerate(A.mul):
        bad |= notup[x] & reduce(or_, map(and_, map(up.__getitem__, row),
                                          notup), 0)
    return bad


def is_prime_element(A: PoSemiringTable, p: int) -> bool:
    """p != 1 and xy <= p implies x <= p or y <= p."""
    if p == A.one:
        return False
    return not _not_prime(A, order_index(A.add)[0]) >> p & 1


def is_minimal_element(A: PoSemiringTable, x: int) -> bool:
    """x != 0 and only 0 and x lie below x: add[y][x] == x for two y."""
    return x != 0 and list(map(itemgetter(x), A.add)).count(x) == 2


def is_maximal_element(A: PoSemiringTable, m: int) -> bool:
    """m != 1 and only m and 1 lie above m: add[m][y] == y for two y."""
    return m != A.one and sum(map(eq, A.add[m], range(A.order))) == 2


def zero_divisors(A: PoSemiringTable) -> frozenset[int]:
    return frozenset(x for x in A.nonzero() if 0 in A.mul[x][1:])


def _proper_split(A: PoSemiringTable, x: int):
    """Least (w, v) in A.splits[x] with w, v outside {0, x}, or None.

    Excluding x keeps every split strictly below x on any table; on a valid
    table w, v != 0 already forces it."""
    return next((p for p in A.splits[x] if 0 not in p and x not in p), None)


def is_primitive_idempotent(A: PoSemiringTable, e: int) -> bool:
    """Nonzero idempotent not a sum of two orthogonal nontrivial idempotents."""
    return e != 0 and is_idempotent(A, e) and _proper_split(A, e) is None


def analyze_elements(A: PoSemiringTable) -> ElementAnalysis:
    """Zero divisors, nilpotency indices, idempotents and the prime, maximal
    and minimal elements of A.

    One order_index pass gives every order test: x != 0 is minimal when
    down[x] lies within {0, x}, m != 1 is maximal when up[m] lies within
    {m, 1}, and p != 1 is prime when no product of two elements outside
    down[p] lands in it.  A nonzero x is a zero divisor when 0 is in
    mul[x][1:].  The down masks are kept as the analysis's ``down``.
    """
    n, one, mul = A.order, A.one, A.mul
    up, down = order_index(A.add)
    nilp = {}
    for x in range(1, n):
        k = nilpotency_index(A, x)
        if k is not None:
            nilp[x] = k
    idem = frozenset(x for x in range(1, n) if mul[x][x] == x)
    not_prime = _not_prime(A, up)
    return ElementAnalysis(
        zero_divisors=zero_divisors(A),
        nilpotency=nilp,
        idempotents=idem,
        primitive_idempotents=frozenset(e for e in idem
                                        if _proper_split(A, e) is None),
        primes=frozenset(p for p in range(one) if not not_prime >> p & 1),
        maximals=frozenset(m for m in range(one)
                           if not up[m] & ~(1 << m | 1 << one)),
        minimals=frozenset(x for x in range(1, n)
                           if not down[x] & ~(1 << x | 1)),
        down=tuple(down),
    )


# ---------------------------------------------------------------------------
# Ideals


@dataclass(frozen=True)
class IdealSubset:
    members: frozenset[int]
    hereditary: bool
    prime: bool
    principal_annihilating: bool
    lower_principal: int | None


def is_ideal(A: PoSemiringTable, members) -> bool:
    members = set(members)
    if 0 not in members:
        return False
    for i in members:
        for j in members:
            if A.add[i][j] not in members:
                return False
        for a in A.elements():
            if A.mul[i][a] not in members:
                return False
    return True


def _annihilator_members(A: PoSemiringTable, u: int) -> frozenset[int]:
    return frozenset(x for x in A.elements() if A.mul[x][u] == 0)


def _lower_members(A: PoSemiringTable, u: int) -> frozenset[int]:
    return frozenset(x for x in A.elements() if A.leq(x, u))


def is_prime_ideal(A: PoSemiringTable, members: frozenset[int]) -> bool:
    """members is proper and xy in members implies x or y in members."""
    outside = [x for x in A.elements() if x not in members]
    if not outside:
        return False
    return all(members.isdisjoint(map(A.mul[x].__getitem__, outside))
               for x in outside)


def _flag_ideal(A: PoSemiringTable, members: frozenset[int],
                down: list[int]) -> IdealSubset:
    """Flag an ideal; down is order_index(A.add)[1]."""
    mask = sum(1 << x for x in members)
    hereditary = not any(down[u] & ~mask for u in members)
    prime = is_prime_ideal(A, members)
    princ_ann = any(_annihilator_members(A, u) == members for u in A.elements())
    lower_gen = next((u for u in sorted(members) if down[u] == mask), None)
    return IdealSubset(members=members, hereditary=hereditary, prime=prime,
                       principal_annihilating=princ_ann,
                       lower_principal=lower_gen)


def annihilator(A: PoSemiringTable, u: int) -> IdealSubset:
    return _flag_ideal(A, _annihilator_members(A, u), order_index(A.add)[1])


def lower_ideal(A: PoSemiringTable, u: int) -> IdealSubset:
    return _flag_ideal(A, _lower_members(A, u), order_index(A.add)[1])


def principal_ideal(A, x: int) -> frozenset[int]:
    """xA, the values of row x of mul, in a po-semiring or a ring: the least
    ideal containing x, since xa + xb = x(a + b), x0 = 0 and x1 = x."""
    return frozenset(A.mul[x])


def ideal_sum(A, I, J) -> frozenset[int]:
    """I + J as the union of the cosets i + J, one per coset.

    An i already in the union is some i0 + j0, and then i + J lies in
    i0 + J because J + J lies in J."""
    out = set()
    for i in I:
        if i not in out:
            out.update(map(A.add[i].__getitem__, J))
    return frozenset(out)


#: _BITS[x] = 1 << x for every index a table can hold
_BITS = tuple(1 << x for x in range(ORDER_CAP))


def member_mask(members) -> int:
    """Distinct indices as an int with bit x set for each member x."""
    return sum(map(_BITS.__getitem__, members))


def ideal_family(A) -> tuple[list[tuple[frozenset[int], int]],
                             dict[int, int]]:
    """Every ideal of a po-semiring or a ring as (members, mask), sorted by
    (size, members), and the least generator of each principal one, keyed
    by its mask: the principal ideals closed under pairwise sums.

    (x) is the set of values of row x of mul.  Its complement as sorted
    bytes is one translate of the row, so the elements are grouped by the
    ideal they generate without a set per element.  A nested pair I in J
    is not summed, as I + J = J, and neither are (x) and (y) when (x + y)
    holds x and y, as (x) + (y) = (x + y) is then in the family already.
    """
    n, add, mul = A.order, A.add, A.mul
    full = bytes(range(n))
    complements = list(map(full.translate, repeat(None), mul))
    least = dict(zip(reversed(complements), reversed(range(n))))
    keyed, generator = [], {}       # keyed: (size, members as bytes, ...)
    for outside, x in least.items():
        inside = full.translate(None, outside)
        mask = member_mask(inside)
        generator[mask] = x
        keyed.append((n - len(outside), inside, frozenset(inside), mask))
    pending = [(I, m, generator[m]) for _, _, I, m in keyed]
    seen, done = set(generator), []
    while pending:
        I, m, x = pending.pop()
        for J, mj, y in done:
            if m & mj in (m, mj):
                continue
            if x is not None and y is not None:
                z = mul[add[x][y]]
                if x in z and y in z:
                    continue
            K = ideal_sum(A, I, J)
            mk = member_mask(K)
            if mk not in seen:
                seen.add(mk)
                keyed.append((len(K), bytes(sorted(K)), K, mk))
                pending.append((K, mk, None))
        done.append((I, m, x))
    keyed.sort()
    return [(I, m) for _, _, I, m in keyed], generator


def enumerate_ideals(A: PoSemiringTable) -> list[IdealSubset]:
    """All ideals, flagged, in ideal_family's order."""
    down = order_index(A.add)[1]
    return [_flag_ideal(A, m, down) for m, _ in ideal_family(A)[0]]


# ---------------------------------------------------------------------------
# Idempotent structure and the chain conditions


def orthogonal_complements(A: PoSemiringTable, w: int) -> tuple[int, ...]:
    if w == 0 or not is_idempotent(A, w):
        raise DomainError(f"element {w} is not a nonzero idempotent")
    return tuple(v for x, v in A.splits[A.one] if x == w)


def orthogonal_complement(A: PoSemiringTable, w: int) -> int | None:
    cs = orthogonal_complements(A, w)
    return cs[0] if cs else None


@dataclass(frozen=True)
class ConditionReport:
    c1: bool
    c2: bool
    c3: bool


def check_conditions(A: PoSemiringTable) -> ConditionReport:
    """(C1)-(C3) of A, computed on the first call and kept on the table."""
    return A.conditions


def _condition_report(A: PoSemiringTable) -> ConditionReport:
    """(C2) over the idempotent and (C3) over the minimal idempotent
    nonzero elements u: each u needs a nonzero idempotent w <= u with an
    orthogonal complement.  Below a minimal u the only candidate w is u.
    Minimality and w <= u are read from the column add[.][u].

    (C1), over the non-nilpotent u, is (C2) on a finite table: an
    idempotent is not nilpotent, and a non-nilpotent u has a nonzero
    idempotent power u^k <= u, whose witness serves u.
    """
    add = A.add
    complemented = [w for w, _ in A.splits[A.one] if w != 0]

    def served(u):
        return any(add[w][u] == u for w in complemented)

    idem = [u for u in A.nonzero() if is_idempotent(A, u)]
    c2 = all(map(served, idem))
    c3 = all(served(u) for u in idem if is_minimal_element(A, u))
    return ConditionReport(c1=c2, c2=c2, c3=c3)


def primitive_decomposition(A: PoSemiringTable, e: int) -> tuple[int, ...]:
    """Orthogonal primitive idempotents summing to e, ascending by index.

    No (C2) is needed on a finite table: splitting along A.splits ends,
    each part left is primitive, and parts p, q from the two sides of a
    split w + v are orthogonal, since pq <= wv = 0."""
    if e == 0 or not is_idempotent(A, e):
        raise DomainError(f"element {e} is not a nonzero idempotent")
    parts, stack = [], [e]
    while stack:
        x = stack.pop()
        pair = _proper_split(A, x)
        if pair is None:
            parts.append(x)
        else:
            stack.extend(pair)
    return tuple(sorted(parts))


# ---------------------------------------------------------------------------
# Isomorphism


def _iso_invariants(A: PoSemiringTable):
    """(up, down, inv): order_index(A.add), and per element x the sizes of
    its up-set and down-set, whether x x = x and the zeros in row x of mul,
    which an isomorphism keeps."""
    up, down = order_index(A.add)
    return up, down, [(u.bit_count(), d.bit_count(), row[x] == x, row.count(0))
                      for x, (u, d, row) in enumerate(zip(up, down, A.mul))]


def _irreducible_images(d, phi, used, irr, cands, below, down_b):
    """Yield phi once per way of giving irr[d], irr[d+1], ... distinct
    images in B from their cands, outside the mask used, such that
    y <= irr[e] in A exactly when phi[y] <= phi[irr[e]] in B for every y
    mapped before; below[e] lists the y in irr[:e] with y <= irr[e]."""
    if d == len(irr):
        yield phi
        return
    want = sum(1 << phi[y] for y in below[d])
    for b in cands[d]:
        if not used >> b & 1 and down_b[b] & used == want:
            phi[irr[d]] = b
            yield from _irreducible_images(d + 1, phi, used | 1 << b, irr,
                                           cands, below, down_b)


def find_isomorphism(A: PoSemiringTable, B: PoSemiringTable):
    """A bijection of indices fixing 0 and 1 that carries both tables of the
    valid instance A onto those of the valid B, or None when there is none.

    The images of the join-irreducibles are searched, and each choice is
    extended to the other elements as joins of two lower covers.  A
    bijection phi carries both tables when row x of A equals row phi(x) of
    B renamed by phi^-1 and gathered at phi.  The first one found is
    returned.
    """
    if A.order != B.order:
        return None
    up_a, down_a, inv_a = _iso_invariants(A)
    down_b, inv_b = _iso_invariants(B)[1:]
    if sorted(inv_a) != sorted(inv_b):
        return None
    n, covers = A.order, lower_covers(up_a, down_a)
    order = sorted(range(1, n), key=lambda x: down_a[x].bit_count())
    irr = [x for x in order if len(covers[x]) == 1]
    joins = [(x, *covers[x][:2]) for x in order if len(covers[x]) > 1]
    masks_b = set(down_b)
    irr_b = [b for b in range(1, n) if down_b[b] ^ 1 << b in masks_b]
    if len(irr) != len(irr_b):
        return None
    cands = [[b for b in irr_b if inv_b[b] == inv_a[x]] for x in irr]
    below = [[y for y in irr[:d] if down_a[x] >> y & 1]
             for d, x in enumerate(irr)]
    carries = carries_tables(A, B.add, B.mul)
    for phi in _irreducible_images(0, [0] * n, 0, irr, cands, below, down_b):
        for x, c1, c2 in joins:
            phi[x] = B.add[phi[c1]][phi[c2]]
        if carries(phi):
            return tuple(phi)
    return None


def carries_tables(A: PoSemiringTable, add, mul):
    """The test whether a list phi of indices carries both tables of A onto
    the order-A.order tables add and mul: phi is a permutation of A's
    indices fixing 0 and A.one, and add[phi x][phi y] = phi(A.add[x][y])
    for all x, y, and likewise for mul.

    A phi that passes is an isomorphism of A onto add and mul; when A is
    valid, the tables add and mul are then valid too, as every axiom is
    carried across with 0 and 1 in place.  Row phi(x) of add and mul,
    renamed by phi^-1 with bytes.translate and gathered at phi with
    operator.itemgetter, must equal row x of A; the test stops at the
    first row that differs.
    """
    n = A.order
    rows = [a + m for a, m in zip(add, mul)]
    rows_a = [tuple(a + m) for a, m in zip(A.add, A.mul)]  # as gather gives
    everyone, pad = list(range(n)), bytes(256 - n)

    def carries(phi) -> bool:
        if (len(rows) != n or sorted(phi) != everyone or phi[0] != 0
                or phi[-1] != n - 1):
            return False
        back = bytes(sorted(everyone, key=phi.__getitem__)) + pad
        gather = itemgetter(*phi, *[p + n for p in phi])
        return all(gather(rows[p].translate(back)) == row
                   for p, row in zip(phi, rows_a))
    return carries


# ---------------------------------------------------------------------------
# Text format (psr 1)


def to_text(A: PoSemiringTable) -> str:
    return write_table_text("psr 1", {"order": A.order}, A.names, A.add,
                            A.mul)


def parse_psr(text: str) -> PoSemiringTable:
    values, names, add, mul = read_table_text(text, "psr 1", ("order",),
                                              ORDER_CAP)
    return make_table(values["order"], names, add, mul)


def read_table_text(text: str, magic: str, keys, max_order: int) -> tuple:
    """Read the layout shared by the psr and ring formats.

    '#' starts a comment; blank lines are skipped.  The layout is the magic
    line, one `key <int>` line per key (`order` among them), a `names`
    line, then `add` and `mul` sections of `order` integer rows each.  An
    order outside [2, max_order] is rejected before any row is read.
    Returns (values, names, add, mul); shapes and ranges are the caller's.
    """
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    lines = iter([line for line in lines if line])

    def take(what):
        line = next(lines, None)
        if line is None:
            raise StructureError(f"unexpected end of input, expected {what}")
        return line

    if take("magic") != magic:
        raise StructureError(f"missing '{magic}' header")
    values = {}
    for key in keys:
        parts = take(key).split()
        if len(parts) != 2 or parts[0] != key:
            raise StructureError(f"malformed {key} line")
        try:
            values[key] = int(parts[1])
        except ValueError:
            raise StructureError(f"{key} is not an integer") from None
    order = values["order"]
    if not 2 <= order <= max_order:
        raise StructureError(f"order must be in [2, {max_order}], got {order}")
    names = take("names").split()
    if names[:1] != ["names"]:
        raise StructureError("malformed names line")
    tables = []
    for label in ("add", "mul"):
        if take(label) != label:
            raise StructureError(f"expected '{label}' section")
        try:
            tables.append([[int(v) for v in take(f"{label} row").split()]
                           for _ in range(order)])
        except ValueError:
            raise StructureError(f"non-integer entry in {label} table") from None
    extra = next(lines, None)
    if extra is not None:
        raise StructureError(f"trailing garbage: {extra!r}")
    return values, names[1:], tables[0], tables[1]


def write_table_text(magic: str, values: dict, names, add, mul) -> str:
    """The layout read_table_text reads: the magic line, one `key <int>`
    line per entry of values, the names line, then the add and mul rows."""
    lines = [magic, *(f"{key} {v}" for key, v in values.items()),
             "names " + " ".join(names), "add"]
    lines += [" ".join(map(str, row)) for row in add]
    lines.append("mul")
    lines += [" ".join(map(str, row)) for row in mul]
    return "\n".join(lines) + "\n"


def split_top_level(inner: str) -> list[str]:
    """Split a spec's argument text at commas outside brackets.

    Every nesting level of a spec adds at least one element, so text nested
    deeper than ORDER_CAP is rejected here, before any recursion on it, and
    so is text whose brackets do not pair up.
    """
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
            if depth > ORDER_CAP:
                raise StructureError(f"spec nested deeper than {ORDER_CAP}")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise StructureError("unbalanced brackets")
        elif ch == "," and depth == 0:
            parts.append(inner[start:i].strip())
            start = i + 1
    if depth:
        raise StructureError("unbalanced brackets")
    parts.append(inner[start:].strip())
    return parts
