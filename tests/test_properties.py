"""Hypothesis properties of the text formats, the spec parsers and the
axiom checkers."""

import io
from functools import cache
from unittest import mock

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from posemiring import constructions as cons
from posemiring import harness, ringlab
from posemiring.census import enumerate_posemirings
from posemiring.core import (
    DomainError,
    StructureError,
    _first_difference,
    make_table,
    parse_psr,
    to_text,
    verify_axioms,
)

FAST = settings(deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])
NAME_CHARS = "abcxyz0129·×()+',{}"


@st.composite
def tables(draw, max_order=4):
    """Arbitrary tables of order 2..max_order; most fail some axiom."""
    n = draw(st.integers(2, max_order))
    square = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    return make_table(n, names, draw(square), draw(square))


ring_leaves = st.one_of(
    st.integers(2, 12).map(lambda n: f"zn:{n}"),
    st.tuples(st.sampled_from((2, 3)), st.integers(0, 3), st.integers(0, 3))
    .map(lambda t: "zpx:%d:%d:%d" % t))
ring_specs = st.one_of(
    ring_leaves,
    st.tuples(ring_leaves, ring_leaves).map(lambda t: "prod(%s,%s)" % t))


def tokens(*words):
    return st.lists(st.sampled_from(words), max_size=12).map("".join)


construction_texts = st.one_of(st.text(max_size=40), tokens(
    "product(", "adjoin-z1(", "adjoin-z2i(", "adjoin-z2c(", ")", ",",
    "u2=c", "u2=u", "u2=x", "trivial", "chain:k=", "bool:n=",
    "example-2.6:k=", "example-3.2:k=", "example-4.6:k=", "example-4.7:k=",
    ",n=", ",u2=zero", "0", "1", "2", "-1", "x", ":", "="))
ring_texts = st.one_of(st.text(max_size=40), tokens(
    "prod(", "zn:", "zpx:", "file:", ")", ",", ":", "0", "2", "3", "6", "-1",
    "x", "ring 1\n", "order 2\n", "one 1\n", "names a b\n", "add\n", "mul\n",
    "0 1\n", "1 0\n", "0 0\n"))


@FAST
@given(tables())
def test_psr_round_trip(A):
    assert parse_psr(to_text(A)) == A


@FAST
@given(st.lists(st.text(NAME_CHARS + " \t#", min_size=1, max_size=3),
                min_size=2, max_size=4, unique=True))
@example(["zero one", "x"])
@example(["#a", "b"])
def test_names_round_trip_or_are_rejected(names):
    # the psr names line is split at whitespace and cut at '#'
    C = cons.chain_lattice(len(names) - 2)
    try:
        A = make_table(C.order, names, C.add, C.mul)
    except StructureError:
        assert any(c in " \t#" for s in names for c in s)
    else:
        assert parse_psr(to_text(A)) == A


@FAST
@given(ring_specs)
def test_ring_file_round_trip(spec):
    R = ringlab.make_ring(spec)
    assume(R.order <= 36)
    assert ringlab.parse_ring_file(oracles.ring_to_text(R)) == R


@FAST
@given(construction_texts)
def test_construction_parsers_raise_only_domain_errors(text):
    try:
        cons.construct_from_text(text)
    except (StructureError, DomainError):
        pass


@FAST
@given(ring_texts)
def test_make_ring_raises_only_domain_errors(text):
    # file:<text> reads <text> itself as the ring file
    try:
        with mock.patch.object(ringlab, "open", create=True,
                               new=lambda path, encoding: io.StringIO(path)):
            ringlab.make_ring(text)
    except (StructureError, DomainError):
        pass


@FAST
@given(tables())
def test_every_reported_violation_replays(A):
    report = verify_axioms(A)
    assert report.valid == (not report.violations)
    for axiom, witness in report.violations:
        assert oracles.replay_violation(A, axiom, witness)


# ---------------------------------------------------------------------------
# The byte-row kernel against the triple loops in tests/oracles.py


@FAST
@given(st.binary(min_size=1, max_size=64), st.data())
def test_first_difference_is_the_first_unequal_byte(a, data):
    k = data.draw(st.integers(0, len(a)))
    b = a[:k] + data.draw(st.binary(min_size=len(a) - k,
                                    max_size=len(a) - k))
    want = next((i for i in range(len(a)) if a[i] != b[i]), None)
    assert _first_difference(a, b) == want
    assert _first_difference(a, a) is None


@cache
def valid_tables():
    """Census tables up to order 5 and the construction grid."""
    census = [A for n in range(2, 6) for A in enumerate_posemirings(n).instances]
    return census + [A for _, A in harness.construction_grid().posemirings]


@st.composite
def mutations(draw, order):
    """1-3 cells (op, x, y, value) to overwrite in an order-n table pair."""
    cell = st.tuples(st.sampled_from(("add", "mul")), st.integers(0, order - 1),
                     st.integers(0, order - 1), st.integers(0, order - 1))
    return draw(st.lists(cell, min_size=1, max_size=3))


def mutated(ops, cells):
    ops = {key: [list(row) for row in rows] for key, rows in ops.items()}
    for key, x, y, v in cells:
        ops[key][x][y] = v
    return ops


@st.composite
def mutated_tables(draw):
    A = draw(st.sampled_from(valid_tables()))
    ops = mutated({"add": A.add, "mul": A.mul}, draw(mutations(A.order)))
    return make_table(A.order, A.names, ops["add"], ops["mul"])


@FAST
@given(tables(max_order=12))
def test_verify_axioms_matches_oracle_on_arbitrary_tables(A):
    assert verify_axioms(A) == oracles.verify_axioms(A)


@settings(FAST, max_examples=300)
@given(mutated_tables())
def test_verify_axioms_matches_oracle_on_mutated_tables(A):
    assert verify_axioms(A) == oracles.verify_axioms(A)


def test_verify_axioms_matches_oracle_on_valid_tables():
    # the kernel runs on a copy, which carries no report; the report A
    # carries (from birth in the census, from a constructor's check) agrees
    for A in valid_tables():
        copy = make_table(A.order, A.names, A.add, A.mul)
        assert verify_axioms(A) == verify_axioms(copy) == \
            oracles.verify_axioms(copy)


ring_bases = st.one_of(
    st.integers(2, 12).map(lambda n: f"zn:{n}"),
    st.tuples(st.sampled_from((2, 3)), st.integers(0, 2), st.integers(0, 2))
    .map(lambda t: "zpx:%d:%d:%d" % t))


def ring_check_message(check, R):
    try:
        check(R)
    except StructureError as exc:
        return str(exc)
    return None


@settings(FAST, max_examples=300)
@given(st.data())
def test_check_ring_raises_oracle_message_on_mutated_rings(data):
    R = ringlab.make_ring(data.draw(ring_bases))
    ops = mutated({"add": R.add, "mul": R.mul},
                  data.draw(mutations(R.order)))
    one = data.draw(st.sampled_from((R.one, 0, R.order - 1)))
    S = ringlab.FiniteRing(order=R.order, names=R.names,
                           add=tuple(map(bytes, ops["add"])),
                           mul=tuple(map(bytes, ops["mul"])), one=one)
    assert ring_check_message(ringlab._check_ring, S) == \
        ring_check_message(oracles.check_ring, S)
