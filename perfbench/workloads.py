"""The four benchmark workloads: seeded inputs, the op, and its output check.

A workload object is built from the imported package (``lib``) and a seed;
building it is the workload's set-up.  ``items`` is one pass over its inputs
in seeded order.  ``run(item)`` is the op and calls the same public functions
as the matching ``posemiring`` subcommand.  ``check(item, out)`` returns None
or a one-line reason; it relies on ``oracle`` and on constants published
outside this package, never on the code under test alone.
"""

from __future__ import annotations

import random

import oracle

# Commutative column of Belohlavek & Vychodil, "Residuated lattices of size
# <= 12", Order 27 (2010): finite po-semirings are exactly the finite
# commutative integral residuated lattices.
CENSUS_CLASSES = {2: 1, 3: 2, 4: 7, 5: 26, 6: 129}
CENSUS_LABELLED = {2: 1, 3: 2, 4: 13, 5: 147, 6: 2896}


def _relabelled(lib, A, rng):
    perm = oracle.random_perm(A.order, rng)
    add, mul = oracle.relabel(A.add, A.mul, perm)
    names = [""] * A.order
    for x, p in enumerate(perm):
        names[p] = A.names[x]
    return lib.core.make_table(A.order, names, add, mul)


def _scope_ids(lib, scope):
    return sorted(c.id for c in lib.harness.CATALOG if c.scope == scope)


def _rows(report):
    return tuple((cid, iid, res.status, res.note, repr(res.witness))
                 for cid, iid, res in report.results)


def _check_rows(rows, iid, expected_ids, reference=None):
    if sorted(cid for cid, *_ in rows) != expected_ids:
        return f"{iid}: rows {sorted(cid for cid, *_ in rows)}, " \
               f"expected one per check {expected_ids}"
    for cid, row_iid, status, note, witness in rows:
        if row_iid != iid:
            return f"{iid}: row for instance {row_iid}"
        if status == "fail":
            return f"{iid}: {cid} fails with witness {witness}"
        if reference is not None and reference[cid, iid] != (status, note):
            return f"{iid}: {cid} is {status}, unrelabelled instance " \
                   f"gives {reference[cid, iid][0]}"
    return None


class Census:
    """One op enumerates orders 2..6 in turn; the seed is not used."""

    name = "census"

    def __init__(self, lib, seed):
        self.lib = lib
        self.items = [tuple(range(2, 7))]
        self.checked = None

    def inputs_bytes(self) -> bytes:
        return repr(self.items).encode()

    def prepare(self):
        pass

    def label(self, item):
        return f"orders {item[0]}..{item[-1]}"

    def run(self, orders):
        return [self.lib.census.enumerate_posemirings(n) for n in orders]

    def signature(self, out):
        return tuple((r.order, r.count_up_to_iso, r.count_labeled,
                      tuple((A.add, A.mul) for A in r.instances))
                     for r in out)

    def check(self, orders, out):
        sig = self.signature(out)
        if self.checked is not None:
            return None if sig == self.checked else \
                "output differs from the first op, which was checked in full"
        if tuple(r[0] for r in sig) != orders:
            return f"orders {[r[0] for r in sig]}, expected {list(orders)}"
        for order, classes, labelled, tables in sig:
            if classes != CENSUS_CLASSES[order] or len(tables) != classes:
                return f"order {order}: {classes} classes with " \
                       f"{len(tables)} tables, expected {CENSUS_CLASSES[order]}"
            if labelled != CENSUS_LABELLED[order]:
                return f"order {order}: {labelled} labelled, " \
                       f"expected {CENSUS_LABELLED[order]}"
            if not all(len(add) == order and oracle.is_posemiring(add, mul)
                       for add, mul in tables):
                return f"order {order}: a representative is not a po-semiring"
            if oracle.labelled_count(tables) != labelled:
                return f"order {order}: the sum of (n-2)!/|Aut| is not {labelled}"
            if len({oracle.minimal_form(add, mul) for add, mul in tables}) \
                    != classes:
                return f"order {order}: two representatives are isomorphic"
        self.checked = sig
        return None


class Catalog:
    """One op runs the theorem catalog on one relabelled census:6 instance."""

    name = "catalog"

    def __init__(self, lib, seed):
        self.lib = lib
        h = lib.harness
        corpus = h.census_corpus(6)
        corpus.posemirings.extend(h.construction_grid().posemirings)
        corpus.pairs.extend(h.census_pairs(3))
        self.corpus = corpus
        rng = random.Random(seed)
        items = [(iid, (_relabelled(lib, A, rng),))
                 for iid, A in corpus.posemirings]
        items += [(iid, (_relabelled(lib, A, rng), _relabelled(lib, B, rng)))
                  for iid, A, B in corpus.pairs]
        rng.shuffle(items)
        self.items = items
        self.scope_ids = {1: _scope_ids(lib, "posemiring"),
                          2: _scope_ids(lib, "product-pair")}
        self.reference = None

    def inputs_bytes(self) -> bytes:
        return repr([(iid, [(A.names, A.add, A.mul) for A in tables])
                     for iid, tables in self.items]).encode()

    def prepare(self):
        report = self.lib.harness.run_catalog(self.corpus)
        self.reference = {(cid, iid): (res.status, res.note)
                          for cid, iid, res in report.results}

    def label(self, item):
        return item[0]

    def run(self, item):
        iid, tables = item
        corpus = self.lib.harness.Corpus()
        if len(tables) == 1:
            corpus.posemirings.append((iid, tables[0]))
        else:
            corpus.pairs.append((iid,) + tables)
        return self.lib.harness.run_catalog(corpus)

    def signature(self, out):
        return _rows(out)

    def check(self, item, out):
        iid, tables = item
        return _check_rows(_rows(out), iid, self.scope_ids[len(tables)],
                           self.reference)


def ring_specs() -> list[str]:
    """The instance ids of the ``rings:default`` corpus, which are ring specs."""
    specs = [f"zn:{n}" for n in range(2, 65)]
    specs += [f"zpx:{p}:{c1}:{c0}" for p in (2, 3, 5)
              for c1 in range(p) for c0 in range(p)]
    small = [f"zn:{n}" for n in range(2, 9)]
    small += [f"zpx:2:{c1}:{c0}" for c1 in range(2) for c0 in range(2)]
    specs += [f"prod({a},{b})" for i, a in enumerate(small) for b in small[i:]]
    return specs


class Rings:
    """One op builds one ring of rings:default and runs the ring checks on it."""

    name = "rings"

    def __init__(self, lib, seed):
        self.lib = lib
        self.items = ring_specs()
        random.Random(seed).shuffle(self.items)
        self.scope_ids = _scope_ids(lib, "ring")

    def inputs_bytes(self) -> bytes:
        return repr(self.items).encode()

    def prepare(self):
        pass

    def label(self, spec):
        return spec

    def run(self, spec):
        R = self.lib.ringlab.make_ring(spec)
        corpus = self.lib.harness.Corpus()
        corpus.rings.append((spec, R))
        return R.order, self.lib.harness.run_catalog(corpus)

    def signature(self, out):
        return out[0], _rows(out[1])

    def check(self, spec, out):
        if out[0] != oracle.ring_order(spec):
            return f"{spec}: order {out[0]}, expected {oracle.ring_order(spec)}"
        return _check_rows(_rows(out[1]), spec, self.scope_ids)


# Boolean powers and products containing them: large automorphism groups.
ISO_SYMMETRIC = (
    "bool:n=4", "bool:n=5", "bool:n=6",
    "product(bool:n=3,chain:k=2)", "product(bool:n=4,chain:k=1)",
    "product(bool:n=2,example-2.6:k=2)", "product(bool:n=2,chain:k=2)",
    "product(bool:n=2,chain:k=3)",
)
# Products of chains and the paper's examples: trivial automorphism groups.
ISO_RIGID = (
    "product(chain:k=2,chain:k=3)", "product(chain:k=3,chain:k=4)",
    "example-2.6:k=3", "example-3.2:k=3", "example-4.6:k=3,u2=c",
    "example-4.7:k=3,n=2", "adjoin-z1(chain:k=4)",
    "product(adjoin-z2i(chain:k=2),chain:k=2)",
)
# Pairs of distinct order-6 census classes whose elements carry equal
# invariants (zero divisor, nilpotency, idempotency, prime, minimal, maximal,
# down-set and annihilator sizes), so an isomorphism search cannot reject them
# by invariants alone.  The first table of the first eight pairs also serves
# as a rigid census representative.
ISO_NEGATIVE_BASES = (
    ("012345 111115 212225 312325 412245 555555 / "
     "000000 020001 000002 000003 000004 012345",
     "012345 111115 212225 312325 412245 555555 / "
     "000000 030001 000002 000003 000004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012301 023002 030003 000004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 013301 034002 030003 000004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012341 022002 030003 040004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 012441 022002 040003 040004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012341 023002 030003 040004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 012341 024002 030003 040004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012341 023342 033343 044444 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 013341 033342 033343 044444 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 020001 000002 000003 000004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 030001 000002 000003 000004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 023001 030002 000003 000004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 024001 040002 000003 000004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 023341 033342 033343 044444 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 033341 033342 033343 044444 012345"),
    ("012345 111115 212225 312325 412245 555555 / "
     "000000 023301 033302 033303 000004 012345",
     "012345 111115 212225 312325 412245 555555 / "
     "000000 033301 033302 033303 000004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012301 020002 030003 000004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 013301 030002 030003 000004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012301 023302 033303 000004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 013301 033302 033303 000004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012341 020002 030003 040004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 012441 020002 040003 040004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012341 022342 033003 044004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 012341 022442 034003 044004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012341 022342 033443 044444 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 012341 022442 034443 044444 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012341 023302 033303 040004 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 013341 033302 033303 040004 012345"),
    ("012345 111115 212225 312335 412345 555555 / "
     "000000 012341 023342 033343 044404 012345",
     "012345 111115 212225 312335 412345 555555 / "
     "000000 013341 033342 033343 044404 012345"),
)
ISO_NEGATIVE_FACTOR = 2          # both bases are multiplied by chain:k=2


class IsoItem:
    """Left side as a spec or psr text, right side as psr text."""

    def __init__(self, label, left, right, spec=None, left_text=None,
                 right_text=None):
        self.label = label
        self.left = left              # (add, mul) for the check
        self.right = right            # (add, mul), or None for a negative
        self.spec = spec
        self.left_text = left_text
        self.right_text = right_text
        self.order = len(left[0])


def _names(n):
    return [f"e{i}" for i in range(n)]


class Iso:
    """One op is ``posemiring iso <spec|file> <file>`` on a seeded relabelling."""

    name = "iso"

    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(seed)
        items = []

        def positive(label, table, spec=None):
            add, mul = oracle.relabel(table[0], table[1],
                                      oracle.random_perm(len(table[0]), rng))
            n = len(add)
            left_text = None if spec else oracle.psr_text(_names(n), *table)
            items.append(IsoItem(label, table, (add, mul), spec=spec,
                                 left_text=left_text,
                                 right_text=oracle.psr_text(_names(n), add,
                                                            mul)))

        for spec in ISO_SYMMETRIC + ISO_RIGID:
            A = lib.constructions.construct_from_text(spec)
            positive(spec, (A.add, A.mul), spec=spec)
        for i, (code_a, _) in enumerate(ISO_NEGATIVE_BASES[:8]):
            positive(f"census6-rep{i}", oracle.decode(code_a))
        factor = oracle.chain(ISO_NEGATIVE_FACTOR)
        for i, (code_a, code_b) in enumerate(ISO_NEGATIVE_BASES):
            a, b = oracle.decode(code_a), oracle.decode(code_b)
            if not (oracle.is_posemiring(*a) and oracle.is_posemiring(*b)) \
                    or oracle.isomorphic(a, b):
                raise ValueError(f"negative pair {i} is not two distinct "
                                 "po-semiring classes")
            # Lovasz cancellation: {0} is a one-element subalgebra of the
            # factor, so A x F and B x F are non-isomorphic because A and B are.
            left = oracle.product(a, factor)
            right = oracle.relabel(*oracle.product(b, factor),
                                   oracle.random_perm(len(left[0]), rng))
            n = len(left[0])
            items.append(IsoItem(f"neg{i}", left, None,
                                 left_text=oracle.psr_text(_names(n), *left),
                                 right_text=oracle.psr_text(_names(n),
                                                            *right)))
        rng.shuffle(items)
        self.items = items

    def inputs_bytes(self) -> bytes:
        return repr([(it.label, it.spec, it.left_text, it.right_text)
                     for it in self.items]).encode()

    def prepare(self):
        pass

    def label(self, item):
        return f"{item.label} (n={item.order})"

    def run(self, item):
        core = self.lib.core
        if item.spec is not None:
            left = self.lib.constructions.construct_from_text(item.spec)
        else:
            left = core.parse_psr(item.left_text)
        return core.find_isomorphism(left, core.parse_psr(item.right_text))

    def signature(self, out):
        return None if out is None else tuple(out)

    def check(self, item, out):
        if item.right is None:
            return None if out is None else \
                f"{item.label}: isomorphism returned for a non-isomorphic pair"
        if out is None:
            return f"{item.label}: no isomorphism found for a relabelling"
        if not oracle.transports(tuple(out), item.left, item.right):
            return f"{item.label}: the permutation does not carry the tables"
        return None


WORKLOADS = {w.name: w for w in (Census, Catalog, Rings, Iso)}
