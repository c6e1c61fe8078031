"""Executable catalog of the structure theorems, run over instance corpora.

Each catalog entry declares its hypotheses.  The runner reports
not-applicable, with the note of the first one that fails; otherwise it runs
the check, which returns pass or fail (with a replayable witness).  Chain
conditions and "no infinite orthogonal idempotent set" hypotheses are
automatic on finite instances; such checks carry the note "finite-case".
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cache, cached_property

from . import constructions as cons
from . import ringlab
from .core import (
    ClosureError,
    PoSemiringTable,
    StructureError,
    analyze_elements,
    check_conditions,
    find_isomorphism,
    is_idempotent,
    is_minimal_element,
    is_prime_ideal,
    orthogonal_complement,
    primitive_decomposition,
    verify_axioms,
    zero_divisors,
)
from .graphs import (
    classify_shape,
    eccentricity,
    graph_metrics,  # not called here: perfbench/spans.py times it by this name
)


@cache
def _verdict(status, note=""):
    """One shared result per (status, note); every such note is a literal."""
    return CheckResult(status, note=note)


def _pass():
    return _verdict("pass")


def _fail(witness):
    return CheckResult("fail", witness=witness)


def _na(note):
    return _verdict("not-applicable", note)


@dataclass(frozen=True)
class CheckResult:
    status: str
    witness: object = None
    note: str = ""


@dataclass(frozen=True)
class TheoremCheck:
    id: str
    scope: str              # posemiring | product-pair | ring
    description: str
    fn: object
    hypotheses: tuple = ()  # (holds, note): holds takes the contexts of fn
    note: str = ""


class Ctx:
    """Per-instance cache shared by the checks."""

    def __init__(self, A: PoSemiringTable):
        self.A = A

    @cached_property
    def ana(self):
        return analyze_elements(self.A)

    @cached_property
    def cond(self):
        return check_conditions(self.A)

    @cached_property
    def graph(self):
        return cons.posemiring_zdgraph(self.A)

    @cached_property
    def shape(self):
        return classify_shape(self.graph)

    @property
    def zset(self):
        return self.ana.zero_divisors

    @property
    def acyclic(self):
        return self.shape.acyclic

    @cached_property
    def small_z(self):
        """What recognize_small_z(A) returned, or the error it raised."""
        try:
            return cons.recognize_small_z(self.A)
        except (ClosureError, StructureError) as exc:
            return exc


class RingCtx:
    """Per-ring cache; the ideals and the maximal ideals are cached on the
    ring as R.ideals and R.maximal_ideals."""

    def __init__(self, R: ringlab.FiniteRing):
        self.R = R

    @cached_property
    def ctx(self):
        table, _ = ringlab.ideal_semiring(self.R)
        return Ctx(table)

    @cached_property
    def rad(self):
        return ringlab.radicals(self.R)


# ---------------------------------------------------------------------------
# po-semiring checks


def chk_p21a(ctx):
    bad = sorted(ctx.ana.maximals - ctx.ana.primes)
    return _fail(bad[0]) if bad else _pass()


def chk_p21b(ctx):
    A = ctx.A
    for m in sorted(ctx.ana.maximals):
        for b in A.elements():
            if A.mul[m][b] == 0:
                if A.mul[m][m] != m and A.mul[b][b] != 0:
                    return _fail((m, b))
    return _pass()


def chk_p21c(ctx):
    A = ctx.A
    pairs = A.splits[A.one]
    for e1, f1 in pairs:
        for e2, f2 in pairs:
            if A.lt(e2, e1) and not A.lt(f1, f2):
                return _fail((e1, f1, e2, f2))
    return _pass()


def chk_t22(ctx):
    expected = frozenset(x for x in ctx.A.nonzero() if x != ctx.A.one)
    if ctx.zset != expected:
        return _fail(sorted(expected ^ ctx.zset))
    return _pass()


def chk_t22_tail(ctx):
    A = ctx.A
    complemented = {e for e, _ in A.splits[A.one]} - {0, A.one}
    for c in A.nonzero():
        if c == A.one or c in ctx.ana.nilpotency:
            continue
        p, mul_c = A.one, A.mul[c]
        for _ in range(A.order):    # p runs through c, c^2, ..., c^order
            p = mul_c[p]
            if any(A.mul[p][e] == p for e in complemented):
                break
        else:
            return _fail(c)
    return _pass()


def chk_t23(ctx):
    A = ctx.A
    for e in sorted(ctx.ana.idempotents):
        if orthogonal_complement(A, e) is None:
            return _fail(("no-complement", e))
        if e != A.one and e not in ctx.zset:
            return _fail(("not-zero-divisor", e))
        parts = primitive_decomposition(A, e)
        total = 0
        for p in parts:
            if p not in ctx.ana.primitive_idempotents:
                return _fail(("not-primitive", e, p))
            total = A.add[total][p]
        if total != e:
            return _fail(("bad-sum", e, parts))
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                if A.mul[p][q] != 0:
                    return _fail(("not-orthogonal", e, p, q))
    return _pass()


def chk_t27(ctx):
    bad = sorted(ctx.ana.primes - ctx.ana.maximals)
    return _fail(bad[0]) if bad else _pass()


def chk_t29(ctx):
    # (C2) implies the hypotheses of T2.2, P2.1a and T2.7, whose conclusions
    # together are T2.9's: the first of them to fail is T2.9's verdict
    for part in (chk_t22, chk_p21a, chk_t27):
        res = part(ctx)
        if res.status == "fail":
            return res
    return _pass()


def chk_p213(ctx):
    down = ctx.ana.down
    for u, row in enumerate(ctx.A.add):
        below = down[u]
        for v, s in enumerate(row):
            if (s == v) != (not below & ~down[v]):
                return _fail((u, v))
    return _pass()


def chk_p216(ctx):
    """p is prime exactly when its down-set is a prime ideal.  The ideal
    side reads ana.down, never ana.primes or core._not_prime, which
    computes it."""
    A, ana = ctx.A, ctx.ana
    for p, below in enumerate(ana.down):
        if (p in ana.primes) != is_prime_ideal(A, below):
            return _fail(p)
    return _pass()


def chk_t31(ctx):
    if ctx.graph.n != ctx.A.order - 2:
        return _fail((ctx.graph.n, ctx.A.order - 2))
    return _pass()


def chk_l34a(ctx):
    G = ctx.graph
    masks = G.masks
    for u, x in enumerate(G.vertices):
        if x in ctx.ana.minimals:
            continue
        nb = G.neighbors(u)
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                # a-u-b closes a triangle when a ~ b, and a quadrilateral
                # when a and b have a common neighbour besides u
                if not (masks[a] >> b & 1 or masks[a] & masks[b] & ~(1 << u)):
                    return _fail((G.vertices[a], x, G.vertices[b]))
    return _pass()


def chk_l34b(ctx):
    bad = sorted(ctx.ana.minimals - ctx.zset)
    if bad:
        return _fail(("minimal-not-zd", bad[0]))
    if ctx.shape.clique_number < len(ctx.ana.minimals):
        return _fail(("clique", ctx.shape.clique_number,
                      len(ctx.ana.minimals)))
    return _pass()


def chk_l34c(ctx):
    G = ctx.graph
    pos = {v: i for i, v in enumerate(G.vertices)}
    for u in sorted(ctx.ana.minimals):
        if u not in pos:
            return _fail(("not-a-vertex", u))
        i = pos[u]
        if eccentricity(G.masks, i) > 2:
            return _fail(("eccentricity", u))
        nb = set(G.neighbors(i))
        for K in ctx.shape.maximal_cliques:
            if len(set(K) - nb) > 1:
                return _fail(("clique-coverage", u,
                              sorted(G.vertices[w] for w in K)))
    return _pass()


def chk_t35a(ctx):
    s = ctx.shape
    if s.tag == "complete" and s.params[0] == 2:
        return _pass()                          # K2 is the star K_{1,1}
    if s.tag == "star" or s.tag == "single-vertex":
        return _pass()
    if s.tag == "two-star" and s.params[0] == 1:
        return _pass()
    return _fail(s.line())


def chk_t35b(ctx):
    split = cons.split_two_star(ctx.A)
    if split is None:
        return _fail("no {0,1} x S splitting found")
    if len(zero_divisors(split.s)) != 1:
        return _fail(("|Z(S)| != 1", split.s.order))
    if split.r != ctx.shape.params[1]:
        return _fail(("r mismatch", split.r, ctx.shape.params[1]))
    return _pass()


@cache
def _boolean_times_nil3():
    """C3.8's comparison instance {0,1} x adjoin_z1({0,1}), built lazily."""
    return cons.direct_product(cons.trivial(), cons.adjoin_z1(cons.trivial()))


@cache
def _boolean_square():
    """C4.3's comparison instance {0,1}^2, built lazily."""
    return cons.direct_product(cons.trivial(), cons.trivial())


def chk_c38(ctx):
    if ctx.acyclic and ctx.graph.n >= 1:
        s = ctx.shape
        ok = (s.tag in ("star", "single-vertex")
              or (s.tag == "complete" and s.params[0] == 2)
              or (s.tag == "two-star" and s.params == (1, 1)))
        if not ok:
            return _fail(s.line())
    is_k4 = ctx.shape.tag == "two-star" and ctx.shape.params == (1, 1)
    iso = find_isomorphism(ctx.A, _boolean_times_nil3())
    if is_k4 != (iso is not None):
        return _fail(("two-star-iff", is_k4, iso is not None))
    return _pass()


def chk_l41a(ctx):
    A = ctx.A
    (c,) = ctx.zset
    if A.mul[c][c] != 0:
        return _fail(("c^2", c))
    if any(not A.lt(c, x) for x in A.nonzero() if x != c):
        return _fail(("not-least", c))
    if c not in ctx.ana.primes:
        return _fail(("not-prime", c))
    return _pass()


def chk_l41b(ctx):
    A = ctx.A
    c, u = sorted(ctx.zset)
    rest = [x for x in A.nonzero() if x not in (c, u)]
    incomparable = not (A.leq(c, u) or A.leq(u, c))
    if incomparable:
        ok = (A.mul[c][c] == c and A.mul[u][u] == u
              and {c, u} <= ctx.ana.minimals
              and {c, u} <= ctx.ana.primes
              and all(A.lt(c, x) and A.lt(u, x) for x in rest))
        return _pass() if ok else _fail(("case-2.1", c, u))
    if A.leq(u, c):
        c, u = u, c
    ok = (A.mul[c][c] == 0
          and all(A.lt(c, x) for x in A.nonzero() if x != c)
          and u in ctx.ana.primes
          and all(A.lt(u, p) for p in ctx.ana.primes if p not in (c, u)))
    return _pass() if ok else _fail(("case-2.2", c, u))


def _z_square_zero(ctx):
    A = ctx.A
    return all(A.mul[x][y] == 0 for x in ctx.zset for y in ctx.zset)


def chk_t42(ctx):
    dec = ctx.small_z
    if isinstance(dec, Exception):
        return _fail(str(dec))
    if zero_divisors(dec.a1):
        return _fail("recovered base is not integral")
    return _pass()


def chk_c43(ctx):
    is_square = find_isomorphism(ctx.A, _boolean_square()) is not None
    dec = ctx.small_z
    if isinstance(dec, Exception):
        return _fail(str(dec))
    if not (is_square or isinstance(dec, cons.Z2ChainDecomposition)):
        return _fail("neither {0,1}^2 nor the chain construction")
    if not ctx.ana.nilpotency and not is_square:
        return _fail("nilpotent-free but not {0,1}^2")
    return _pass()


def chk_p45(ctx):
    rep = ctx.small_z
    if isinstance(rep, ClosureError):
        return _fail(("closure", rep.witness))
    if not isinstance(rep, cons.Prop45Report):
        return _fail("expected a condition report")
    if zero_divisors(rep.a1):
        return _fail("complement of Z(A) is not integral")
    bad = sorted(k for k, v in rep.conditions.items() if not v)
    return _fail(("conditions", bad)) if bad else _pass()


def chk_p48(ctx):
    try:
        peel = cons.peel_boolean(ctx.A)
    except StructureError as exc:
        return _fail(str(exc))
    a1 = peel.a1
    leftover = [x for x in a1.nonzero()
                if is_idempotent(a1, x) and is_minimal_element(a1, x)]
    if leftover and a1.order > 2:
        return _fail(("residual idempotent minimal", leftover[0]))
    return _pass()


# ---------------------------------------------------------------------------
# product-pair checks


def chk_l33a(ctx1, ctx2, ctx_prod):
    lhs = ctx_prod.shape.triangle_free
    rhs = any(not a.zset and len(b.zset) <= 1
              for a, b in ((ctx1, ctx2), (ctx2, ctx1)))
    return _pass() if lhs == rhs else _fail(("triangle", lhs, rhs))


def chk_l33b(ctx1, ctx2, ctx_prod):
    lhs = ctx_prod.acyclic
    rhs = any(a.A.order == 2 and len(b.zset) <= 1
              for a, b in ((ctx1, ctx2), (ctx2, ctx1)))
    return _pass() if lhs == rhs else _fail(("cycle", lhs, rhs))


def chk_l33c(ctx1, ctx2, ctx_prod):
    lhs = ctx_prod.shape.quadrilateral_free

    def side(a, b):
        if a.A.order != 2:
            return False
        if len(b.zset) <= 1:
            return True
        return len(b.zset) == 2 and not b.ana.nilpotency

    rhs = side(ctx1, ctx2) or side(ctx2, ctx1)
    return _pass() if lhs == rhs else _fail(("quadrilateral", lhs, rhs))


def chk_t35b_conv(ctx1, ctx2, ctx_prod):
    s_ctx = ctx2 if ctx1.A.order == 2 and len(ctx2.zset) == 1 else ctx1
    shape = ctx_prod.shape
    if shape.tag != "two-star" or shape.params != (1, s_ctx.A.order - 2):
        return _fail(shape.line())
    return _pass()


# ---------------------------------------------------------------------------
# ring checks


def chk_r12(rctx):
    cond = rctx.ctx.cond
    if not cond.c3:
        return _fail("I(R) fails (C3)")
    if not cond.c2:
        return _fail("I(R) fails (C2)")
    if rctx.rad.jacobson.members != rctx.rad.nilradical.members:
        return _fail(("J != N", sorted(rctx.rad.jacobson.members),
                      sorted(rctx.rad.nilradical.members)))
    return _pass()


def _on_ideal_semiring(rctx, *check_ids):
    """Run po-semiring checks on I(R).

    Prop 1.2 gives I(R) conditions (C1)-(C3), so a check that does not
    apply there is a failure.
    """
    for _, _, res in _run([_BY_ID[cid] for cid in check_ids], None,
                          rctx.ctx):
        if res.status == "not-applicable":
            return _fail(res.note)
        if res.status == "fail":
            return res
    return _pass()


def chk_c25(rctx):
    return _on_ideal_semiring(rctx, "T2.3")


def chk_c28(rctx):
    # P2.1a: maximal ideals are prime; T2.7: prime ideals are maximal
    return _on_ideal_semiring(rctx, "P2.1a", "T2.7")


def chk_c44(rctx):
    R = rctx.R
    shape = rctx.ctx.shape
    ag_is_k2 = shape.tag == "complete" and shape.params == (2,)
    two_fields = (len(R.maximal_ideals) == 2
                  and rctx.rad.nilradical.members == frozenset({0}))
    local = len(R.maximal_ideals) == 1
    nontrivial = len(R.ideals) - 2
    cond1 = two_fields or (local and nontrivial == 2)
    # for a in J, (a) = J when |(a)| = |R| / |Ann(a)| is |J|
    jac = rctx.rad.jacobson.members
    alpha_ok = any(
        R.order // R.mul[a].count(0) == len(jac)
        and _ring_power(R, a, 3) == 0 and _ring_power(R, a, 2) != 0
        for a in jac)
    cond3 = two_fields or (local and alpha_ok)
    if not (ag_is_k2 == cond1 == cond3):
        return _fail({"AG=K2": ag_is_k2, "fields-or-2-ideals": cond1,
                      "J=Ra,a^3=0!=a^2": cond3})
    return _pass()


def _ring_power(R, a, k):
    p = R.one
    for _ in range(k):
        p = R.mul[p][a]
    return p


# ---------------------------------------------------------------------------
# Catalog


def _checks():
    P, Q, S = "posemiring", "product-pair", "ring"
    fin = "finite-case"
    # hypotheses; on a finite table (C1) is (C2) (see core.check_conditions),
    # so "(C1) or (C2)" tests c2 alone
    c1 = (lambda ctx: ctx.cond.c1, "condition (C1) does not hold")
    c2 = (lambda ctx: ctx.cond.c2, "condition (C2) does not hold")
    c1_or_c2 = (lambda ctx: ctx.cond.c2, "neither (C1) nor (C2) holds")
    c3 = (lambda ctx: ctx.cond.c3, "condition (C3) does not hold")
    has_z = (lambda ctx: bool(ctx.zset), "Z(A) is empty")
    not_integral = (has_z[0], "instance is integral")
    forest = (lambda ctx: ctx.acyclic and ctx.graph.n > 0,
              "graph is empty or has a cycle")
    k111d = (lambda ctx: ctx.shape.tag == "two-star"
             and ctx.shape.params[0] == 1, "graph is not K1+K1+K1+D_r")
    boolean_times_z1 = (lambda ctx1, ctx2, _: any(
        a.A.order == 2 and len(b.zset) == 1
        for a, b in ((ctx1, ctx2), (ctx2, ctx1))),
        "factors are not {0,1} x (|Z| = 1)")
    z1 = (lambda ctx: len(ctx.zset) == 1, "|Z(A)| != 1")
    z2 = (lambda ctx: len(ctx.zset) == 2, "|Z(A)| != 2")
    small_z = (lambda ctx: len(ctx.zset) == 1 or (
        len(ctx.zset) == 2 and not _z_square_zero(ctx)),
        "|Z(A)| not in {1, 2} with Z(A)^2 != 0")
    c3_z2 = (lambda ctx: ctx.cond.c3 and len(ctx.zset) == 2
             and not _z_square_zero(ctx),
             "(C3), |Z(A)| = 2, Z(A)^2 != 0 required")
    z2_square_zero = (lambda ctx: len(ctx.zset) == 2 and _z_square_zero(ctx),
                      "|Z(A)| = 2 with Z(A)^2 = 0 required")
    return [
        TheoremCheck("P2.1a", P, "maximal elements are prime", chk_p21a),
        TheoremCheck("P2.1b", P, "mb=0 forces m^2=m or b^2=0", chk_p21b),
        TheoremCheck("P2.1c", P, "complement pairs reverse order", chk_p21c),
        TheoremCheck("T2.2", P, "Z(A) = A minus {0,1}", chk_t22,
                     (c1_or_c2,), fin),
        TheoremCheck("T2.2t", P, "c^n = c^n e for some complemented e",
                     chk_t22_tail, (c1_or_c2,), fin),
        TheoremCheck("T2.3", P, "idempotents complement and decompose",
                     chk_t23, (c2,), fin),
        TheoremCheck("T2.7", P, "prime elements are maximal", chk_t27,
                     (c2,), fin),
        TheoremCheck("T2.9", P, "primes = maximals under (C2)", chk_t29,
                     (c2,), fin),
        TheoremCheck("P2.13", P, "u -> <u> is an order embedding",
                     chk_p213, (), fin),
        TheoremCheck("P2.16", P, "p prime iff <p> prime ideal", chk_p216),
        TheoremCheck("T3.1", P, "|V| = |A| - 2 when not integral", chk_t31,
                     (c1_or_c2, not_integral), fin),
        TheoremCheck("L3.3a", Q, "triangle-free product criterion", chk_l33a),
        TheoremCheck("L3.3b", Q, "cycle-free product criterion", chk_l33b),
        TheoremCheck("L3.3c", Q, "quadrilateral-free product criterion",
                     chk_l33c),
        TheoremCheck("L3.4a", P, "triangle/quad-free midpoints are minimal",
                     chk_l34a, (has_z,)),
        TheoremCheck("L3.4b", P, "minimal elements are zero divisors",
                     chk_l34b, (has_z,)),
        TheoremCheck("L3.4c", P, "minimal eccentricity and clique coverage",
                     chk_l34c, (has_z,)),
        TheoremCheck("T3.5a", P, "acyclic graphs are stars or two-stars",
                     chk_t35a, (c3, forest)),
        TheoremCheck("T3.5b", P, "K1+K1+K1+D_r splits off {0,1}", chk_t35b,
                     (c3, k111d)),
        TheoremCheck("T3.5b-conv", Q, "{0,1} x (|Z|=1) gives K1+K1+K1+D_r",
                     chk_t35b_conv, (boolean_times_z1,)),
        TheoremCheck("C3.8", P, "star or K1+K1+K1+K1 under (C1)", chk_c38,
                     (c1,), fin),
        TheoremCheck("L4.1a", P, "|Z| = 1 structure", chk_l41a, (z1,)),
        TheoremCheck("L4.1b", P, "|Z| = 2 dichotomy", chk_l41b, (z2,)),
        TheoremCheck("T4.2", P, "small-Z reconstruction round trip", chk_t42,
                     (small_z,)),
        TheoremCheck("C4.3", P, "(C3), |Z|=2, Z^2 != 0 classification",
                     chk_c43, (c3_z2,)),
        TheoremCheck("P4.5", P, "Z^2 = 0 necessity conditions", chk_p45,
                     (z2_square_zero,)),
        TheoremCheck("P4.8", P, "boolean peeling round trip", chk_p48,
                     (c3,), fin),
        TheoremCheck("Prop1.2", S, "I(R) satisfies (C1)-(C3), J = N",
                     chk_r12, (), fin),
        TheoremCheck("C2.5", S, "idempotent ideals decompose", chk_c25,
                     (), fin),
        TheoremCheck("C2.8", S, "prime ideals are maximal", chk_c28, (), fin),
        TheoremCheck("C4.4", S, "AG(R) = K2 three-way equivalence", chk_c44),
    ]


CATALOG = _checks()
CHECK_IDS = tuple(c.id for c in CATALOG)
_BY_ID = {c.id: c for c in CATALOG}
#: each scope's positions in CATALOG; run_catalog reads the checks at these
#: positions when it runs, as a tracer may replace the entries in place
_SCOPE_AT = {scope: [k for k, c in enumerate(CATALOG) if c.scope == scope]
             for scope in ("posemiring", "product-pair", "ring")}


# ---------------------------------------------------------------------------
# Corpus and the runner


@dataclass
class Corpus:
    posemirings: list = field(default_factory=list)   # (id, table)
    pairs: list = field(default_factory=list)          # (id, A, B)
    rings: list = field(default_factory=list)          # (id, ring)


@dataclass
class TheoremReport:
    results: list          # (check_id, instance_id, CheckResult)

    @property
    def counts(self):
        out = {"pass": 0, "fail": 0, "not-applicable": 0}
        for _, _, res in self.results:
            out[res.status] += 1
        return out

    @property
    def failures(self):
        return [(cid, iid, res) for cid, iid, res in self.results
                if res.status == "fail"]

    def to_json(self) -> str:
        rows = [{"check": cid, "instance": iid, "result": res.status,
                 **({"witness": repr(res.witness)}
                    if res.witness is not None else {}),
                 **({"note": res.note} if res.note else {})}
                for cid, iid, res in self.results]
        return json.dumps({"results": rows, "counts": self.counts},
                          sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = []
        for cid, iid, res in self.results:
            mark = {"pass": "ok", "fail": "FAIL", "not-applicable": "n/a"}
            extra = f" witness={res.witness!r}" if res.status == "fail" else ""
            lines.append(f"{mark[res.status]:>4}  {cid:<12} {iid}{extra}")
        c = self.counts
        lines.append(f"pass={c['pass']} fail={c['fail']} "
                     f"na={c['not-applicable']}")
        return "\n".join(lines)


def run_catalog(corpus: Corpus, check_ids=None) -> TheoremReport:
    """Verify every po-semiring instance, then run the selected checks on
    one instance's contexts at a time; pair bases share one Ctx per table.
    A table keeps its axiom report, so an instance that a psr reader or a
    constructor verified, or that the census built, is not checked again."""
    if check_ids is not None:
        unknown = set(check_ids) - set(CHECK_IDS)
        if unknown:
            raise StructureError(f"unknown check ids {sorted(unknown)}")

    def scoped(scope):
        return [CATALOG[k] for k in _SCOPE_AT[scope]
                if check_ids is None or CATALOG[k].id in check_ids]

    for iid, A in corpus.posemirings:
        verify_axioms(A).require_valid(f"corpus instance {iid}")

    results = []
    if corpus.posemirings:
        checks = scoped("posemiring")
        for iid, A in corpus.posemirings:
            results += _run(checks, iid, Ctx(A))
    if corpus.pairs:
        checks, base = scoped("product-pair"), cache(Ctx)
        for iid, a, b in corpus.pairs:
            results += _run(checks, iid, base(a), base(b),
                            Ctx(cons.direct_product(a, b)))
    if corpus.rings:
        checks = scoped("ring")
        for iid, R in corpus.rings:
            results += _run(checks, iid, RingCtx(R))
    results.sort(key=lambda row: (row[0], row[1]))
    return TheoremReport(results=results)


def _run(checks, iid, *args):
    for check in checks:
        for holds, note in check.hypotheses:
            if not holds(*args):
                res = _na(note)
                break
        else:
            res = check.fn(*args)
            if check.note and res.status == "pass":
                res = _verdict("pass", check.note)
        yield check.id, iid, res


# ---------------------------------------------------------------------------
# Default corpora


def census_corpus(max_n: int) -> Corpus:
    from .census import enumerate_posemirings

    corpus = Corpus()
    for n in range(2, max_n + 1):
        result = enumerate_posemirings(n)
        for i, A in enumerate(result.instances):
            corpus.posemirings.append((f"census{n}-{i}", A))
    return corpus


#: largest parameter k of the chain, example and adjoin families in the grid
GRID_MAX_K = 3


def construction_grid() -> Corpus:
    corpus = Corpus()

    def put(name, A):
        corpus.posemirings.append((name, A))

    put("trivial", cons.trivial())
    for k in range(1, GRID_MAX_K + 1):
        put(f"chain-k{k}", cons.chain_lattice(k))
        put(f"ex2.6-k{k}", cons.example_2_6(k))
        put(f"ex3.2-k{k}", cons.example_3_2(k))
        for u2 in ("zero", "c", "u"):
            put(f"ex4.6-k{k}-{u2}", cons.example_4_6(k, u2))
    for k in range(2, GRID_MAX_K + 1):
        for pos in range(2, k + 1):
            put(f"ex4.7-k{k}-n{pos}", cons.example_4_7(k, pos))
    for n in range(1, 4):
        put(f"bool-{n}", cons.boolean_power(n))
    for k in range(1, GRID_MAX_K + 1):
        put(f"adjz1-chain{k}", cons.adjoin_z1(cons.chain_lattice(k)))
        put(f"adjz2i-chain{k}",
            cons.adjoin_z2_incomparable(cons.chain_lattice(k)))
        for u2 in ("c", "u"):
            put(f"adjz2c-chain{k}-{u2}",
                cons.adjoin_z2_chain(cons.chain_lattice(k), u2))
    return corpus


def census_pairs(max_n: int = 3) -> list:
    return _product_pairs(census_corpus(max_n).posemirings)


def _product_pairs(bases) -> list:
    return [(f"{ida}*{idb}", A, B) for (ida, A), (idb, B)
            in itertools.combinations_with_replacement(bases, 2)]


def default_ring_corpus() -> list:
    """(spec, ring) for Z/n (n <= 64), every Z_p[x]/(x^2 + c1 x + c0) with
    p <= 5, and the products of pairs of the small ones."""
    specs = [f"zn:{n}" for n in range(2, 65)]
    specs += [f"zpx:{p}:{c1}:{c0}" for p in (2, 3, 5)
              for c1 in range(p) for c0 in range(p)]
    small = [f"zn:{n}" for n in range(2, 9)]
    small += [f"zpx:2:{c1}:{c0}" for c1 in range(2) for c0 in range(2)]
    specs += [f"prod({a},{b})" for i, a in enumerate(small) for b in small[i:]]
    return [(spec, ringlab.make_ring(spec)) for spec in specs]


def full_corpus(max_n: int) -> Corpus:
    """The census to max_n, the construction grid, and the pairs of census
    instances of order at most 3, from one census run per order."""
    corpus = census_corpus(max_n)
    bases = [(iid, A) for iid, A in corpus.posemirings if A.order <= 3]
    corpus.posemirings.extend(construction_grid().posemirings)
    corpus.pairs.extend(_product_pairs(bases))
    return corpus
