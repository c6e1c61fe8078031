"""Finite commutative rings as tables, their ideal lattice, and the ideal
po-semiring I(R) with the annihilating-ideal graph AG(R)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import and_, eq, not_

from .core import (
    ORDER_CAP,
    ByteTable,
    DomainError,
    PoSemiringTable,
    StructureError,
    _check_matrix,
    associative_witness,
    commutative_witness,
    distributive_witness,
    ideal_family,
    member_mask,
    product_rows,
    read_table_text,
    row_witness,
    split_top_level,
    verify_axioms,
)
from .graphs import GraphShape, build_zdgraph, classify_shape

IDEAL_COUNT_CAP = 64
ZPX_PRIME_CAP = 13


@dataclass(frozen=True)
class FiniteRing:
    """A finite commutative ring; add[x] and mul[x] are the bytes rows of x,
    the row format core gives every table."""
    order: int
    names: tuple[str, ...]
    add: tuple[bytes, ...]
    mul: tuple[bytes, ...]
    one: int

    def elements(self):
        return range(self.order)

    @cached_property
    def ideals(self) -> tuple[Ideal, ...]:
        """All ideals, enumerated once; every ideal query reads this."""
        return enumerate_ring_ideals(self)

    @cached_property
    def maximal_ideals(self) -> tuple[Ideal, ...]:
        """The maximal ideals, found once by the module's maximal_ideals."""
        return maximal_ideals(self)

    def __repr__(self):
        return f"FiniteRing(order={self.order})"


@dataclass(frozen=True)
class Ideal:
    members: frozenset[int]
    mask: int                   # bit x set for each member x
    generators: tuple[int, ...] = ()


def _check_ring(R: FiniteRing):
    """Raise the message that one loop over x, then y, then z meets first.

    The loop tests x's identities and inverse, then for each y the
    commutativity at (x, y) before the triples (x, y, z).  Each law's least
    witness comes from the byte-row kernel and is ranked by that place.
    """
    add, mul = ByteTable(R.add), ByteTable(R.mul)
    identity = bytes(range(R.order))
    failures = []       # (place in the loop, message)
    if w := row_witness(add.rows[0], identity):
        failures.append(((w[0], 0), "0 is not the additive identity"))
    if w := row_witness(mul.rows[R.one], identity):
        failures.append(((w[0], 1),
                         "recorded identity is not multiplicative identity"))
    x = next((x for x, row in enumerate(add.rows) if 0 not in row), None)
    if x is not None:
        failures.append(((x, 2), f"element {x} has no additive inverse"))
    for w in (commutative_witness(add), commutative_witness(mul)):
        if w:
            failures.append(((w[0], 3, w[1], 0),
                             "operations are not commutative"))
    for k, (w, message) in enumerate((
            (associative_witness(add), "addition is not associative"),
            (associative_witness(mul), "multiplication is not associative"),
            (distributive_witness(add, mul), "distributivity fails"))):
        if w:
            x, y, z = w
            failures.append(((x, 3, y, 1, z, k), message))
    if failures:
        raise StructureError(min(failures)[1])


def _make_ring(order, names, add, mul, one) -> FiniteRing:
    """The ring on these bytes rows, unchecked; parse_ring_file checks a
    file's."""
    return FiniteRing(order=order, names=tuple(names), add=tuple(add),
                      mul=tuple(mul), one=one)


def _zn_rows(n: int) -> tuple[list[bytes], list[bytes]]:
    """Z_n's add and mul rows as bytes, for 2 <= n <= ORDER_CAP.

    With m = bytes(range(n)) * n, m[k] = k mod n, so row x of + is the
    slice m[x:x+n] and row x > 0 of * the strided slice m[0:x*n:x].
    """
    m = bytes(range(n)) * n
    return ([m[x:x + n] for x in range(n)],
            [bytes(n)] + [m[0:x * n:x] for x in range(1, n)])


def _check_zn_order(n: int):
    if not 2 <= n <= ORDER_CAP:
        raise DomainError(f"zn order must be in [2, {ORDER_CAP}]")


def ring_zn(n: int) -> FiniteRing:
    _check_zn_order(n)
    add, mul = _zn_rows(n)
    return _make_ring(n, map(str, range(n)), add, mul, one=1 % n)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _check_zpx_modulus(p: int):
    if p > ZPX_PRIME_CAP or not _is_prime(p):
        raise DomainError(f"zpx modulus must be a prime <= {ZPX_PRIME_CAP}")


def ring_quadratic(p: int, c1: int, c0: int) -> FiniteRing:
    """Z_p[x]/(x^2 + c1*x + c0); element a + b*x is index a*p + b.

    A quotient of Z_p[x], it is a ring by construction and is not
    law-checked.  The additive group is Z_p x Z_p.  Multiplication by
    u = a + b*x sends c + d*x to c*u + d*(u*x), where u*x = -b*c0 +
    (a - b*c1)*x, so u's row joins, for each multiple c*u, the multiples
    d*(u*x) translated by row c*u of the add table.  Row v of the
    componentwise product on Z_p x Z_p holds t*v at index t*p + t, so the
    multiples 0, v, ..., (p-1)v of v are that row's diagonal.
    """
    _check_zpx_modulus(p)
    c1, c0 = c1 % p, c0 % p
    n = p * p
    zadd, zmul = _zn_rows(p)
    add = product_rows(zadd, zadd)
    maps = [row + bytes(256 - n) for row in add]
    multiples = [row[::p + 1] for row in product_rows(zmul, zmul)]
    mul = []
    for u in range(n):
        a, b = divmod(u, p)
        ux = multiples[-b * c0 % p * p + (a - b * c1) % p]
        mul.append(b"".join([ux.translate(maps[cu])
                             for cu in multiples[u]]))
    names = []
    for a in range(p):
        for b in range(p):
            if b == 0:
                names.append(str(a))
            else:
                bx = "x" if b == 1 else f"{b}x"
                names.append(bx if a == 0 else f"{a}+{bx}")
    return _make_ring(n, names, add, mul, one=p)


def _check_product_order(n: int):
    if n > ORDER_CAP:
        raise DomainError(f"product order {n} exceeds cap {ORDER_CAP}")


def ring_product(R: FiniteRing, S: FiniteRing) -> FiniteRing:
    """R x S with (a, b) at index a*|S| + b."""
    n = R.order * S.order
    _check_product_order(n)
    names = [f"({a},{b})" for a in R.names for b in S.names]
    return _make_ring(n, names, product_rows(R.add, S.add),
                      product_rows(R.mul, S.mul), one=R.one * S.order + S.one)


def parse_ring_file(text: str) -> FiniteRing:
    values, names, add, mul = read_table_text(text, "ring 1", ("order", "one"),
                                              ORDER_CAP)
    order, one = values["order"], values["one"]
    if len(names) != order:
        raise StructureError("malformed names line")
    if not 0 <= one < order:
        raise StructureError("identity index out of range")
    R = _make_ring(order, names, _check_matrix(add, order, "add"),
                   _check_matrix(mul, order, "mul"), one=one)
    _check_ring(R)
    return R


def make_ring(spec: str) -> FiniteRing:
    """Ring construction grammar: zn:N, zpx:p:c1:c0, prod(a,b), file:path.

    The whole spec is checked before any table is built, so a product over
    the order cap fails without building its factors.
    """
    return _ring_plan(spec)[1]()


def _ring_plan(spec: str):
    """(order, build) for a ring spec, with build() making the ring.

    Raises every error of the spec in the order building it would meet
    them: a prod(a, b) checks a, then b, then its own order.  A file is
    read and its ring built here, as its order is only known from it.
    """
    spec = spec.strip()
    m = re.fullmatch(r"prod\((.*)\)", spec)
    if m:
        parts = split_top_level(m.group(1))
        if len(parts) != 2:
            raise StructureError("prod() takes two specs")
        na, build_a = _ring_plan(parts[0])
        nb, build_b = _ring_plan(parts[1])
        _check_product_order(na * nb)
        return na * nb, lambda: ring_product(build_a(), build_b())
    if not spec.startswith("file:"):    # a file path may hold any bracket
        split_top_level(spec)           # a stray one here is not a bad number
    if spec.startswith("zn:"):
        try:
            n = int(spec[3:])
        except ValueError:
            raise StructureError(f"bad zn spec {spec!r}") from None
        _check_zn_order(n)
        return n, lambda: ring_zn(n)
    if spec.startswith("zpx:"):
        parts = spec[4:].split(":")
        if len(parts) != 3:
            raise StructureError("zpx spec is zpx:p:c1:c0")
        try:
            p, c1, c0 = (int(v) for v in parts)
        except ValueError:
            raise StructureError(f"bad zpx spec {spec!r}") from None
        _check_zpx_modulus(p)
        return p * p, lambda: ring_quadratic(p, c1, c0)
    if spec.startswith("file:"):
        path = spec[5:]
        if not path:
            raise StructureError(f"bad file spec {spec!r}")
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise StructureError(
                    f"{path}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from exc
        R = parse_ring_file(text)
        return R.order, lambda: R
    raise StructureError(f"unknown ring spec {spec!r}")


# ---------------------------------------------------------------------------
# Ideals


def enumerate_ring_ideals(R: FiniteRing) -> tuple[Ideal, ...]:
    """All ideals by (size, members), from core.ideal_family.

    Each ideal records its least generator when it is principal.  Callers
    read the cached ``R.ideals`` instead of calling this again.
    """
    if R.order > ORDER_CAP:
        raise DomainError(f"ring order {R.order} exceeds cap {ORDER_CAP}")
    family, generator = ideal_family(R)
    return tuple(Ideal(members=m, mask=mask,
                       generators=(generator[mask],) if mask in generator
                       else ()) for m, mask in family)


def ideal_name(R: FiniteRing, ideal: Ideal) -> str:
    if ideal.generators:
        return f"({R.names[ideal.generators[0]]})"
    return "{" + ",".join(R.names[x] for x in sorted(ideal.members)) + "}"


def ideal_semiring(R: FiniteRing):
    """The po-semiring I(R): ideal sum, ideal product, ordered by inclusion.

    Ideals are subgroups of the additive group, so |I + J| = |I| |J| /
    |I & J|, and (x), the image of r -> xr, has |R| / |Ann(x)| elements,
    where Ann(x) is the zeros of row x.  So I + J is the one ideal of its
    size that covers I | J, and (gh) the one ideal of its size that holds
    gh; each is looked up among the ideals of that size by bit mask.
    (g)(h) = (gh), and as every ideal is the sum of the principal ideals
    inside it, IJ is the sum of the (g)(h) over those in I and in J.
    Returns (table, ideals) with ideals[i] the ideal at table index i.
    """
    ideals = R.ideals
    k = len(ideals)
    if k > IDEAL_COUNT_CAP:
        raise DomainError(f"{k} ideals exceed cap {IDEAL_COUNT_CAP}")
    names = []
    for ideal in ideals:
        nm = ideal_name(R, ideal)
        while nm in names:
            nm += "'"
        names.append(nm)
    n, mul = R.order, R.mul
    masks = [i.mask for i in ideals]
    sizes = [len(i.members) for i in ideals]
    of_size = {}
    for pos, size in enumerate(sizes):
        of_size.setdefault(size, []).append(pos)
    add = []
    for a, (ma, sa) in enumerate(zip(masks, sizes)):
        row = [r[a] for r in add] + [a]     # from the rows above; I + I = I
        for b in range(a + 1, k):   # ideals ascend by size: J is not in I
            mb = masks[b]
            if ma & mb == ma:
                row.append(b)
                continue
            m, size = ma | mb, sa * sizes[b] // (ma & mb).bit_count()
            row.append(next(c for c in of_size[size] if masks[c] & m == m))
        add.append(bytes(row))

    principal = [p for p, i in enumerate(ideals) if i.generators]
    gens = bytes(ideals[p].generators[0] for p in principal)
    pad = bytes(256 - n)
    rows = [gens.translate(mul[g] + pad) for g in gens]
    where = bytearray(256)      # where[gh]: the position of (gh)
    for x in set(b"".join(rows)):
        for c in of_size[n // mul[x].count(0)]:
            if masks[c] >> x & 1:
                where[x] = c
                break
    times = [row.translate(where) for row in rows]
    if len(principal) < k:      # IJ: the (g)(h) summed over (g) in I, (h) in J
        column = {p: j for j, p in enumerate(principal)}
        parts = [[column[a]] if a in column else
                 [j for j, p in enumerate(principal)
                  if masks[p] & m == masks[p]] for a, m in enumerate(masks)]

        def total(positions):   # the sum of the ideals at these positions
            c = 0
            for p in positions:
                c = add[c][p]
            return c

        half = [[total(times[i][j] for i in parts[a])
                 for j in range(len(principal))] for a in range(k)]
        times = [bytes([total(row[j] for j in parts[b]) for b in range(k)])
                 for row in half]
    # every entry is a position below k <= IDEAL_COUNT_CAP and the names
    # are distinct, so make_table's checks hold by construction
    table = PoSemiringTable(order=k, names=tuple(names), add=tuple(add),
                            mul=tuple(times))
    verify_axioms(table).require_valid("I(R)")
    return table, ideals


def annihilating_ideal_graph(R: FiniteRing) -> tuple[GraphShape, PoSemiringTable]:
    """The shape of AG(R) (its graph is shape.graph) and I(R)."""
    table, _ = ideal_semiring(R)
    return classify_shape(build_zdgraph(table.mul)), table


def ring_zdgraph(R: FiniteRing) -> GraphShape:
    """The shape of the zero-divisor graph of R (its graph is shape.graph)."""
    return classify_shape(build_zdgraph(R.mul))


# ---------------------------------------------------------------------------
# Radicals and local structure


@dataclass(frozen=True)
class RadicalReport:
    nilradical: Ideal
    jacobson: Ideal
    idempotents: frozenset[int]


def nilpotents(R: FiniteRing) -> frozenset[int]:
    """The x with x^(2^s) = 0, for the least s with 2^s >= floor(log2 |R|).

    A nilpotent x of index m gives the strict chain R > (x) > ... > (x^m) = 0
    of additive subgroups, each of index at least 2, so m <= log2 |R|.
    Squaring is one translate through the diagonal of the mul table.
    """
    n = R.order
    square = _squares(R) + bytes(256 - n)
    power = bytes(range(n))
    for _ in range((n.bit_length() - 2).bit_length()):
        power = power.translate(square)
    return frozenset(compress(range(n), map(not_, power)))


def _squares(R: FiniteRing) -> bytes:
    """x^2 for each x: the diagonal of the mul table."""
    return b"".join(R.mul)[::R.order + 1]


def maximal_ideals(R: FiniteRing) -> tuple[Ideal, ...]:
    """The proper ideals below no other; callers read the cached
    ``R.maximal_ideals`` instead of scanning again."""
    proper = R.ideals[:-1]      # ideals ascend by size, and R is last
    return tuple(i for k, i in enumerate(proper)
                 if not any(i.mask & j.mask == i.mask for j in proper[k + 1:]))


def radicals(R: FiniteRing) -> RadicalReport:
    nil = member_mask(nilpotents(R))
    jac = reduce(and_, (m.mask for m in R.maximal_ideals))
    idem = frozenset(compress(R.elements(), map(eq, _squares(R),
                                                R.elements())))
    ideal = {i.mask: i for i in R.ideals}       # N and J are ideals of R
    return RadicalReport(nilradical=ideal[nil], jacobson=ideal[jac],
                         idempotents=idem)


def is_local(R: FiniteRing) -> bool:
    return len(R.maximal_ideals) == 1
