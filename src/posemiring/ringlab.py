"""Finite commutative rings as tables, their ideal lattice, and the ideal
po-semiring I(R) with the annihilating-ideal graph AG(R)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

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
    principal_ideal,
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
    order: int
    names: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
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
    """The ring on these rows, unchecked; parse_ring_file checks a file's."""
    return FiniteRing(order=order, names=tuple(names),
                      add=tuple(map(tuple, add)), mul=tuple(map(tuple, mul)),
                      one=one)


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
    d*(u*x) translated by row c*u of the add table.
    """
    _check_zpx_modulus(p)
    c1, c0 = c1 % p, c0 % p
    n = p * p
    zadd, zmul = _zn_rows(p)
    add = product_rows(zadd, zadd)
    maps = [row + bytes(256 - n) for row in add]

    def multiples(v):           # the indices of 0, v, 2v, ..., (p-1)v
        a, b = divmod(v, p)
        return bytes(i * p + j for i, j in zip(zmul[a], zmul[b]))

    mul = []
    for u in range(n):
        a, b = divmod(u, p)
        ux = multiples(-b * c0 % p * p + (a - b * c1) % p)
        mul.append(b"".join([ux.translate(maps[cu])
                             for cu in multiples(u)]))
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
    return tuple(Ideal(members=m, generators=(generator[m],) if m in generator
                       else ()) for m in family)


def ideal_name(R: FiniteRing, ideal: Ideal) -> str:
    if ideal.generators:
        return f"({R.names[ideal.generators[0]]})"
    return "{" + ",".join(R.names[x] for x in sorted(ideal.members)) + "}"


def ideal_semiring(R: FiniteRing):
    """The po-semiring I(R): ideal sum, ideal product, ordered by inclusion.

    I + J and IJ are the least ideals containing I | J and all products ij.
    Ideals are bit masks over R.  The product of principal ideals (g)(h) is
    the principal ideal (gh), found from the mask of row gh.  Every ideal is
    the sum of the maximal principal ideals inside it, so any other IJ is
    the least ideal containing every gh, with g and h the least generators
    of those inside I and inside J.  Returns (table, ideals) with ideals[i]
    the ideal at table index i.
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
    masks = [member_mask(i.members) for i in ideals]
    position = {m: pos for pos, m in enumerate(masks)}
    at = {i.generators[0]: pos for pos, i in enumerate(ideals)
          if i.generators}          # at[x]: the position of (x), once found
    principal = [(masks[pos], g) for g, pos in at.items()]
    gens = []
    for m, ideal in zip(masks, ideals):
        if ideal.generators:
            gens.append(ideal.generators)
            continue
        inside = [(p, g) for p, g in principal if p & m == p]
        gens.append(tuple(g for p, g in inside
                          if not any(p & q == p != q for q, _ in inside)))

    def least(mask, start=0):   # ideals ascend by size: the first is the least
        return next(pos for pos in range(start, k)
                    if mask & masks[pos] == mask)

    def principal_at(x):
        if x not in at:
            at[x] = position[member_mask(principal_ideal(R, x))]
        return at[x]

    add = [[0] * k for _ in range(k)]
    mul = [[0] * k for _ in range(k)]
    for a in range(k):
        ga = gens[a]
        for b in range(a, k):   # I + J contains J, so it is listed from b on
            gb = gens[b]
            add[a][b] = add[b][a] = least(masks[a] | masks[b], b)
            if ideals[a].generators and ideals[b].generators:
                mul[a][b] = mul[b][a] = principal_at(R.mul[ga[0]][gb[0]])
            else:
                mul[a][b] = mul[b][a] = least(member_mask(
                    {R.mul[g][h] for g in ga for h in gb}))
    # every entry is a position below k <= IDEAL_COUNT_CAP and the names
    # are distinct, so make_table's checks hold by construction
    table = PoSemiringTable(order=k, names=tuple(names),
                            add=tuple(map(tuple, add)),
                            mul=tuple(map(tuple, mul)))
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
    """
    square = [row[x] for x, row in enumerate(R.mul)]
    power = list(R.elements())
    for _ in range((R.order.bit_length() - 2).bit_length()):
        power = [square[v] for v in power]
    return frozenset(x for x, v in enumerate(power) if v == 0)


def maximal_ideals(R: FiniteRing) -> tuple[Ideal, ...]:
    """The proper ideals below no other; callers read the cached
    ``R.maximal_ideals`` instead of scanning again."""
    proper = [i for i in R.ideals if len(i.members) < R.order]
    return tuple(i for i in proper
                 if not any(i.members < j.members for j in proper))


def radicals(R: FiniteRing) -> RadicalReport:
    nil = nilpotents(R)
    jac = frozenset.intersection(*(m.members for m in R.maximal_ideals))
    idem = frozenset(x for x in R.elements() if R.mul[x][x] == x)
    ideal = {i.members: i for i in R.ideals}       # N and J are ideals of R
    return RadicalReport(nilradical=ideal[nil], jacobson=ideal[jac],
                         idempotents=idem)


def is_local(R: FiniteRing) -> bool:
    return len(R.maximal_ideals) == 1
