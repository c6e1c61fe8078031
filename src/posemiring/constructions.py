"""Explicit po-semiring constructions and their inverse decompositions.

Infinite families are realized as finite truncations: the chain parameter k
replaces the trailing dots, and every constructed table is re-verified
against the axioms instead of being assumed correct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

from .core import (
    ORDER_CAP,
    ClosureError,
    DomainError,
    NotApplicableError,
    PoSemiringTable,
    StructureError,
    analyze_elements,
    carries_tables,
    check_conditions,
    find_isomorphism,   # unused here: perfbench/spans.py traces this name
    is_idempotent,
    is_minimal_element,
    make_table,
    orthogonal_complement,
    principal_ideal,
    product_rows,
    split_top_level,
    verify_axioms,
    zero_divisors,
)
from .graphs import (
    ZdGraph,
    build_zdgraph,  # not called here: perfbench/spans.py times it by this name
    classify_shape,
    zdgraph_from_rows,
)

BOOLEAN_POWER_CAP = 6


def _capped(n: int) -> int:
    """n, once it is known to be a table order within ORDER_CAP."""
    if n > ORDER_CAP:
        raise DomainError(f"order {n} exceeds cap {ORDER_CAP}")
    return n


def _verified(names, add, mul) -> PoSemiringTable:
    A = make_table(len(names), names, add, mul)
    verify_axioms(A).require_valid("constructed table")
    return A


def _table_from_ops(names, addf, mulf) -> PoSemiringTable:
    n = len(names)              # each constructor has capped it
    return _verified(names, [[addf(x, y) for y in range(n)] for x in range(n)],
                     [[mulf(x, y) for y in range(n)] for x in range(n)])


def trivial() -> PoSemiringTable:
    return _table_from_ops(("0", "1"), max, min)


def _chain_order(k: int) -> int:
    if k < 0:
        raise DomainError("chain length must be >= 0")
    return _capped(k + 2)


def _b_chain(k: int, *low: str) -> tuple[str, ...]:
    """The names of the chain 0 < low < b1 < ... < bk < 1 of the Examples."""
    if k < 1:
        raise DomainError("need at least one b element (k >= 1)")
    _capped(len(low) + k + 2)
    return ("0", *low, *(f"b{i}" for i in range(1, k + 1)), "1")


def _example_4_7_names(k: int, pos: int) -> tuple[str, ...]:
    if pos < 2:
        raise DomainError("threshold position must be > 1")
    if pos > k:
        raise DomainError(f"threshold position {pos} needs chain length >= {pos}")
    return _b_chain(k, "c", "u")


def _boolean_order(n: int) -> int:
    """2^n, once n is a valid exponent of boolean_power."""
    if n < 1:
        raise DomainError("boolean power needs n >= 1")
    if n > BOOLEAN_POWER_CAP:
        raise DomainError(f"boolean power {n} exceeds cap {BOOLEAN_POWER_CAP}")
    return 2 ** n


def chain_lattice(k: int) -> PoSemiringTable:
    """The integral chain 0 < c1 < ... < ck < 1 with max addition, min product."""
    _chain_order(k)
    names = ("0",) + tuple(f"c{i}" for i in range(1, k + 1)) + ("1",)
    return _table_from_ops(names, max, min)


def example_2_6(k: int) -> PoSemiringTable:
    """Chain 0 < a < b1 < ... < bk < 1 with a annihilating every b_i."""
    names = _b_chain(k, "a")
    n = len(names)
    a, one = 1, n - 1

    def mul(x, y):
        x, y = min(x, y), max(x, y)
        if x == 0:
            return 0
        if y == one:
            return x
        if x == a:
            return 0          # a*a = 0 and a*b_i = 0
        return x              # b_i * b_j = b_min

    return _table_from_ops(names, max, mul)


def example_3_2(k: int) -> PoSemiringTable:
    """Chain 0 < a < b1 < ... < bk < 1 with max addition and min product
    except a*a = 0: the chain 0 < b1 < ... < bk < 1 with a adjoined."""
    _b_chain(k, "a")
    return _adjoin(_table_from_ops(_b_chain(k), max, min), ("a",), *_NIL1)


def example_4_6(k: int, u_square: str) -> PoSemiringTable:
    """Chain 0 < c < u < b1 < ... < bk < 1 with c, u as zero divisors: the
    chain 0 < b1 < ... < bk < 1 with c < u adjoined, cc = cu = 0 and uu
    zero, c or u."""
    _b_chain(k, "c", "u")
    if u_square not in ("zero", "c", "u"):
        raise DomainError(f"u_square must be zero/c/u, got {u_square!r}")
    u2 = ("zero", "c", "u").index(u_square)
    return _adjoin(_table_from_ops(_b_chain(k), max, min), ("c", "u"),
                   *_low_chain(u2))


def example_4_7(k: int, pos: int) -> PoSemiringTable:
    """Z(A) = {c, u} with Z(A)^2 = 0, u incomparable to b_1..b_{pos-1}, u < b_pos."""
    names = _example_4_7_names(k, pos)
    n = len(names)
    c, u, one = 1, 2, n - 1
    b = lambda i: 2 + i       # index of b_i

    def add(x, y):
        x, y = min(x, y), max(x, y)
        if x in (0, c):
            return y
        if x == u:
            if y in (u, one):
                return y
            return y if y >= b(pos) else b(pos)
        return max(x, y)      # within the chain part

    def mul(x, y):
        x, y = min(x, y), max(x, y)
        if x == 0 or y in (c, u):
            return 0          # Z(A)^2 = 0
        if y == one:
            return x
        if x in (c, u):
            return c          # c * b_i = u * b_i = c
        return b(1)           # b_i * b_j = b_1

    return _table_from_ops(names, add, mul)


def direct_product(A: PoSemiringTable, B: PoSemiringTable) -> PoSemiringTable:
    """A x B with (a, b) at index a*|B| + b."""
    _capped(A.order * B.order)
    names = tuple(f"{a}×{b}" for a in A.names for b in B.names)
    return _verified(names, product_rows(A.add, B.add),
                     product_rows(A.mul, B.mul))


def boolean_power(n: int) -> PoSemiringTable:
    _boolean_order(n)
    A = trivial()
    for _ in range(n - 1):
        A = direct_product(A, trivial())
    return A


# ---------------------------------------------------------------------------
# Adjoining small zero-divisor sets to an integral base


def _require_integral(A1: PoSemiringTable):
    if zero_divisors(A1):
        raise DomainError("base instance is not integral")


#: the low tables of one nilpotent c (c + c = c, c c = 0)
_NIL1 = ([[1]], [[0]])


def _low_chain(u2: int):
    """The low tables of a chain c < u with cc = cu = 0 and uu = u2, given
    as a new index: 0, 1 (c) or 2 (u)."""
    return [[1, 2], [2, 2]], [[0, 0], [0, u2]]


def _low_incomparable(a0: int):
    """The low tables of idempotents c, u with cu = 0 and c + u = a0, given
    as an index of the base."""
    return [[1, a0 + 2], [a0 + 2, 2]], [[1, 0], [0, 2]]


def _adjoin(A1: PoSemiringTable, low_names, low_add, low_mul) -> PoSemiringTable:
    """The table of _adjoin_rows, named and verified."""
    add, mul = _adjoin_rows(A1, len(low_names), low_add, low_mul)
    return _verified((A1.names[0], *low_names, *A1.names[1:]), add, mul)


def _adjoin_rows(A1: PoSemiringTable, s: int, low_add, low_mul):
    """The add and mul rows of A1 with s new elements 1..s between its zero
    and its nonzero elements, which move up by s.

    low_add and low_mul are the s x s tables among the new elements, with
    values in the new indices.  A new l lies below every old nonzero y, so
    l + y = y, and l y = l; on the integral A1 the old products stay
    nonzero, so A1's rows embed, translated up by s at its nonzero columns.
    """
    n = _capped(A1.order + s)
    low, old = range(1, s + 1), range(s + 1, n)
    up = bytes(range(s, 256)) + bytes(s)      # v -> v + s
    add = ([bytes(range(n))]
           + [bytes([l, *low_add[l - 1], *old]) for l in low]
           + [bytes([x] * (s + 1)) + A1.add[x - s][1:].translate(up)
              for x in old])
    mul = ([bytes(n)]
           + [bytes([0, *low_mul[l - 1], *[l] * len(old)]) for l in low]
           + [bytes([0, *low]) + A1.mul[x - s][1:].translate(up) for x in old])
    return add, mul


def adjoin_z1(A1: PoSemiringTable) -> PoSemiringTable:
    """Insert a nilpotent c directly above 0; the result has Z = {c}."""
    _require_integral(A1)
    return _adjoin(A1, ("z·c",), *_NIL1)


def _least_nonzero(A1: PoSemiringTable) -> int | None:
    for a0 in A1.nonzero():
        if all(A1.leq(a0, x) for x in A1.nonzero()):
            return a0
    return None


def adjoin_z2_incomparable(A1: PoSemiringTable) -> PoSemiringTable:
    """Insert incomparable idempotents c, u with c + u = a0; Z = {c, u}."""
    _require_integral(A1)
    a0 = _least_nonzero(A1)
    if a0 is None:
        raise DomainError("base instance has no least nonzero element")
    return _adjoin(A1, ("z·c", "z·u"), *_low_incomparable(a0))


def adjoin_z2_chain(A1: PoSemiringTable, u_square: str) -> PoSemiringTable:
    """Insert a chain 0 < c < u below A1*; u^2 is c or u, so Z^2 != 0."""
    _require_integral(A1)
    if u_square not in ("c", "u"):
        raise DomainError(f"u_square must be c or u, got {u_square!r}")
    return _adjoin(A1, ("z·c", "z·u"), *_low_chain(1 if u_square == "c" else 2))


# ---------------------------------------------------------------------------
# Sub-instances and decompositions


def sub_posemiring(A: PoSemiringTable, members, top: int):
    """Re-index a closed subset of a valid A, with identity top, as an instance.

    Returns (table, old-to-new index map), with 0 first, top last and the
    other members ascending.  Raises ClosureError for the first sum or
    product of two members that leaves the subset, in row-major order with
    add before mul.

    Precondition: A satisfies the axioms, members holds 0 and top, and top
    is the identity of the subset: top x = x and x + top = top for every
    member x.  The table is then valid and is not verified again: each
    axiom is an identity in + and ., so it holds on a subset closed under
    both, and the precondition puts the identity rows at 0 and at top.
    """
    members = set(members)
    ordered = [0] + sorted(members - {0, top}) + [top]
    index = {old: new for new, old in enumerate(ordered)}
    at, new = itemgetter(*ordered), index.get
    add, mul = [], []
    for x in ordered:
        row_add = tuple(map(new, at(A.add[x])))
        row_mul = tuple(map(new, at(A.mul[x])))
        if None in row_add or None in row_mul:
            y = next(y for y, pair in enumerate(zip(row_add, row_mul))
                     if None in pair)
            raise ClosureError((x, ordered[y],
                                "add" if row_add[y] is None else "mul"))
        add.append(bytes(row_add))
        mul.append(bytes(row_mul))
    names = tuple(A.names[x] for x in ordered)
    return PoSemiringTable(len(ordered), names, tuple(add), tuple(mul)), index


@dataclass(frozen=True)
class Z1Decomposition:
    a1: PoSemiringTable
    witness: tuple[int, ...]


@dataclass(frozen=True)
class Z2IncomparableDecomposition:
    a1: PoSemiringTable
    a0: int                     # c + u, the least nonzero of a1 (a1 index)
    witness: tuple[int, ...]


@dataclass(frozen=True)
class Z2ChainDecomposition:
    a1: PoSemiringTable
    u_square: str               # "c" or "u"
    witness: tuple[int, ...]


@dataclass(frozen=True)
class BooleanPeel:
    n: int
    a1: PoSemiringTable
    witness: tuple[int, ...]


@dataclass(frozen=True)
class TwoStarSplit:
    s: PoSemiringTable
    r: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class Prop45Report:
    a1: PoSemiringTable
    conditions: dict            # keys "1", "3".."6" -> bool

    @property
    def ok(self) -> bool:
        return all(self.conditions.values())


def _prop45_conditions(A: PoSemiringTable, c: int, u: int, rest: list[int]) -> dict:
    add, mul, one = A.add, A.mul, A.one
    rest_star = [x for x in rest if x != 0]
    a1_all = rest
    cond = {}
    cond["1"] = (
        all(add[0][x] == x for x in (c, u))
        and all(add[c][y] == y for y in A.nonzero())
        and add[u][one] == one and add[u][u] == u
        and all(add[u][add[x][y]] == add[add[u][x]][y]
                for x in rest_star for y in rest_star)
        and all(add[u][add[u][x]] == add[u][x] for x in rest_star)
    )
    cond["3"] = (
        all(mul[x][y] == 0 for x in (c, u) for y in (c, u))
        and all(mul[0][x] == 0 for x in (c, u))
        and all(mul[c][x] == c for x in rest_star)
        and all(mul[u][x] != 0 for x in rest_star)
    )
    cond["4"] = all(not (mul[x][u] == u and mul[y][u] == u)
                    or mul[mul[x][y]][u] == u
                    for x in a1_all for y in a1_all)
    cond["5"] = all(not (A.leq(y, x) and mul[y][u] == u) or mul[x][u] == u
                    for x in a1_all for y in a1_all)
    cond["6"] = (
        all(mul[x][add[y][u]] == add[mul[x][y]][mul[x][u]]
            for x in A.elements() for y in a1_all)
        and all(not (mul[u][y] == c and mul[u][z] == c)
                or mul[u][add[y][z]] == c
                for y in a1_all for z in a1_all)
    )
    return cond


def _checked_map(A: PoSemiringTable, phi, add, mul, what: str):
    """phi as a tuple, once it carries both tables of A onto add and mul:
    the witness of a decomposition whose rebuild has those rows."""
    if not carries_tables(A, add, mul)(phi):
        raise StructureError(f"{what} rebuild is not isomorphic to the input")
    return tuple(phi)


def _adjoin_witness(A, a1, index, zs, low, what: str):
    """The construction map of A onto a1 with zs adjoined by the low tables:
    zs[i] goes to i + 1 and a nonzero x outside zs to index[x] + len(zs)."""
    s = len(zs)
    phi = [0] * A.order
    for x, i in index.items():
        if i:
            phi[x] = i + s
    for new, z in enumerate(zs, 1):
        phi[z] = new
    return _checked_map(A, phi, *_adjoin_rows(a1, s, *low), what)


def recognize_small_z(A: PoSemiringTable):
    """Recover the integral base of an instance with one or two zero divisors.

    Returns a decomposition with an isomorphism witness, or a Prop45Report
    for the |Z| = 2, Z^2 = 0 case.  Raises ClosureError if the complement of
    Z(A) is not closed (which would falsify the structure theorems), and
    StructureError if the construction map is not an isomorphism onto the
    rebuild.

    A must be valid (sub_posemiring's precondition).  The witness is the
    construction map, checked by one relabelling, not searched for: any
    isomorphism of A onto the adjoin of a1 becomes this map once composed
    with an automorphism of a1, which the adjoin extends, so the verdict is
    the one a search would give.
    """
    zd = sorted(zero_divisors(A))
    if len(zd) not in (1, 2):
        raise NotApplicableError(f"|Z(A)| = {len(zd)}, expected 1 or 2")
    rest = [x for x in A.elements() if x not in zd]
    a1, index = sub_posemiring(A, rest, top=A.one)

    if len(zd) == 1:
        return Z1Decomposition(a1=a1, witness=_adjoin_witness(
            A, a1, index, zd, _NIL1, "adjoin_z1"))

    c, u = zd
    z_sq_zero = all(A.mul[x][y] == 0 for x in zd for y in zd)
    if z_sq_zero:
        if A.leq(u, c):         # c plays the least-element role
            c, u = u, c
        return Prop45Report(a1=a1, conditions=_prop45_conditions(A, c, u, rest))
    if A.leq(c, u) or A.leq(u, c):
        if A.leq(u, c):
            c, u = u, c
        u_square = "c" if A.mul[u][u] == c else "u"
        perm = _adjoin_witness(A, a1, index, (c, u),
                               _low_chain(1 if u_square == "c" else 2),
                               "adjoin_z2_chain")
        return Z2ChainDecomposition(a1=a1, u_square=u_square, witness=perm)
    a0 = index[A.add[c][u]]
    perm = _adjoin_witness(A, a1, index, (c, u), _low_incomparable(a0),
                           "adjoin_z2_incomparable")
    return Z2IncomparableDecomposition(a1=a1, a0=a0, witness=perm)


#: the add and mul rows of trivial(), the {0,1} factor
_BOOL_ROWS = ((b"\0\1", b"\1\1"), (b"\0\0", b"\0\1"))


def _peirce_map(T: PoSemiringTable, e: int, f: int, index) -> list[int]:
    """x -> ([xe != 0], index[xf]) for every x of T, at index
    [xe != 0] * len(index) + index[xf] of {0,1} x fT, where index re-indexes
    fT as sub_posemiring does.

    When e and f are complementary orthogonal idempotents and e is minimal,
    this is an isomorphism of T onto {0,1} x fT: eT = {0, e}, and
    x = xe + xf splits T into eT x fT (Peirce decomposition)."""
    return [(T.mul[x][e] != 0) * len(index) + index[T.mul[x][f]]
            for x in T.elements()]


def _boolean_times(T: PoSemiringTable, k: int):
    """The add and mul rows of {0,1}^k x T, with (b, t) at b * T.order + t."""
    add, mul = T.add, T.mul
    for _ in range(k):
        add = product_rows(_BOOL_ROWS[0], add)
        mul = product_rows(_BOOL_ROWS[1], mul)
    return add, mul


def peel_boolean(A: PoSemiringTable) -> BooleanPeel:
    """Repeatedly split off {0,1} factors at idempotent minimal elements.

    A must be valid (sub_posemiring's precondition).  The witness is the
    composite of the Peirce maps of the splits, checked by one relabelling
    against {0,1}^n x a1: the first split's bit is the most significant."""
    if not check_conditions(A).c3:
        raise NotApplicableError("condition (C3) does not hold")
    count = 0
    cur = A
    phi = list(A.elements())    # A onto {0,1}^count x cur
    while cur.order > 2:
        e = next((x for x in cur.nonzero()
                  if is_idempotent(cur, x) and is_minimal_element(cur, x)), None)
        if e is None:
            break
        f = orthogonal_complement(cur, e)
        if f is None or f == 0:
            break
        # fA is the down-set of f: x <= f means x = xe + xf = xf, as xe <= fe = 0
        sub, index = sub_posemiring(cur, principal_ideal(cur, f), top=f)
        m, split = cur.order, _peirce_map(cur, e, f, index)
        phi = [v - v % m + split[v % m] for v in phi]
        cur = sub
        count += 1
    if count == 0:
        return BooleanPeel(n=0, a1=A, witness=tuple(A.elements()))
    perm = _checked_map(A, phi, *_boolean_times(cur, count), "boolean peel")
    return BooleanPeel(n=count, a1=cur, witness=perm)


def split_two_star(A: PoSemiringTable) -> TwoStarSplit | None:
    """Split A = {0,1} x S when its graph is the two-star K1+K1+K1+D_r.

    A must be valid (sub_posemiring's precondition).  The witness is the
    Peirce map at the first split with |Z(S)| = 1, checked by one
    relabelling against {0,1} x S."""
    if not check_conditions(A).c3:
        raise NotApplicableError("condition (C3) does not hold")
    shape = classify_shape(posemiring_zdgraph(A))
    if shape.tag != "two-star" or shape.params[0] != 1:
        raise NotApplicableError(f"shape is {shape.line()}, not K1+K1+K1+D_r")
    for e in A.nonzero():
        if not (is_idempotent(A, e) and is_minimal_element(A, e)):
            continue
        f = orthogonal_complement(A, e)
        if f in (None, 0):
            continue
        s, index = sub_posemiring(A, principal_ideal(A, f), top=f)   # down-set of f
        if len(zero_divisors(s)) != 1:
            continue
        phi = _peirce_map(A, e, f, index)
        if carries_tables(A, *_boolean_times(s, 1))(phi):
            return TwoStarSplit(s=s, r=s.order - 2, witness=tuple(phi))
    return None


def posemiring_zdgraph(A: PoSemiringTable) -> ZdGraph:
    """The zero-divisor graph of A, built from A.mul once A's axiom report,
    computed once per table, shows A valid."""
    A.axioms.require_valid("no zero-divisor graph")
    return zdgraph_from_rows(A.mul)


# ---------------------------------------------------------------------------
# Construction spec grammar


_LEAVES = {     # kind: (parameters, order, constructor) on the parameters
    "trivial": ((), lambda: 2, trivial),
    "chain": (("k",), _chain_order, chain_lattice),
    "example-2.6": (("k",), lambda k: len(_b_chain(k, "a")), example_2_6),
    "example-3.2": (("k",), lambda k: len(_b_chain(k, "a")), example_3_2),
    "example-4.6": (("k", "u2"), lambda k, u2: len(_b_chain(k, "c", "u")),
                    example_4_6),
    "example-4.7": (("k", "n"), lambda k, n: len(_example_4_7_names(k, n)),
                    example_4_7),
    "bool": (("n",), _boolean_order, boolean_power),
}
_ADJOINS = {    # kind: (elements added, constructor)
    "adjoin-z1": (1, adjoin_z1), "adjoin-z2i": (2, adjoin_z2_incomparable),
    "adjoin-z2c": (2, adjoin_z2_chain)}


def construct_from_text(text: str) -> PoSemiringTable:
    """The table a spec names, built once _plan has checked the whole spec."""
    return _plan(text)[1]()


def _plan(text: str):
    """(order, build) for a construction spec, with build() making the table.

    Raises the spec's syntax and parameter errors and each product's or
    adjoin's order cap left to right, before any table is built; the
    constructors' checks on their tables and on u2 run in build().
    """
    text = text.strip()
    m = re.fullmatch(r"(product|adjoin-z1|adjoin-z2i|adjoin-z2c)\((.*)\)", text)
    if m:
        kind, parts, args = m.group(1), split_top_level(m.group(2)), ()
        key, eq, val = parts[-1].partition("=")
        if kind == "adjoin-z2c" and len(parts) > 1 and eq and key.strip() == "u2":
            parts.pop()
            args = (val.strip(),)
        parts = _join_params(parts)
        if kind == "product":
            if len(parts) != 2:
                raise StructureError("product() takes two specs")
            (na, build_a), (nb, build_b) = _plan(parts[0]), _plan(parts[1])
            return _capped(na * nb), lambda: direct_product(build_a(), build_b())
        if len(parts) != 1 or kind == "adjoin-z2c" and not args:
            raise StructureError("adjoin-z2c(<spec>,u2=c|u)" if kind == "adjoin-z2c"
                                 else f"{kind}() takes one spec")
        (n, build), (added, adjoin) = _plan(parts[0]), _ADJOINS[kind]
        return _capped(n + added), lambda: adjoin(build(), *args)
    split_top_level(text)   # a stray bracket in a leaf is not a parameter
    head, _, tail = text.partition(":")
    if head not in _LEAVES:
        raise StructureError(f"unknown construction kind {head!r}")
    keys, order, build = _LEAVES[head]
    params = {}
    for item in tail.split(",") if tail else ():
        key, _, val = item.partition("=")
        key = key.strip()
        if not val:
            raise StructureError(f"malformed parameter {item!r}")
        if key in params:
            raise StructureError(f"{head}: duplicate parameter {key!r}")
        params[key] = val.strip()
    missing, extra = set(keys) - set(params), set(params) - set(keys)
    if missing or extra:
        raise StructureError(
            f"{head}: missing {sorted(missing)}, unexpected {sorted(extra)}")
    args = [params[k] if k == "u2" else _int_param(k, params[k]) for k in keys]
    return order(*args), lambda: build(*args)


def _join_params(parts: list[str]) -> list[str]:
    """A bracket's parts, each key=value part joined to the kind:... leaf
    before it, which split_top_level cut at its own commas."""
    joined = []
    for part in parts:
        if (joined and re.fullmatch(r"[^:()]*=[^:()]*", part)
                and re.fullmatch(r"[^()]*:[^()]*", joined[-1])):
            joined[-1] += "," + part
        else:
            joined.append(part)
    return joined


def _int_param(key: str, text: str) -> int:
    """An integer parameter; none exceeds the order of the table it builds."""
    try:
        value = int(text)
    except ValueError:
        raise StructureError(f"parameter {key} must be an integer") from None
    if value > ORDER_CAP:
        raise DomainError(f"parameter {key}={value} exceeds cap {ORDER_CAP}")
    return value
