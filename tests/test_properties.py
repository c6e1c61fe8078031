"""Hypothesis properties of the text formats, the spec parsers and the
axiom checker."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from posemiring import constructions as cons
from posemiring import ringlab
from posemiring.core import (
    DomainError,
    StructureError,
    make_table,
    parse_psr,
    replay_violation,
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
@given(ring_specs)
def test_ring_file_round_trip(spec):
    R = ringlab.make_ring(spec)
    assume(R.order <= 36)
    assert ringlab.parse_ring_file(ringlab.ring_to_text(R)) == R


@FAST
@given(construction_texts)
def test_construction_parsers_raise_only_domain_errors(text):
    for parse in (cons.parse_spec, cons.construct_from_text):
        try:
            parse(text)
        except (StructureError, DomainError):
            pass


@FAST
@given(ring_texts)
def test_make_ring_raises_only_domain_errors(text):
    # file:<text> reads <text> itself as the ring file
    try:
        ringlab.make_ring(text, read_file=lambda path: path)
    except (StructureError, DomainError):
        pass


@FAST
@given(tables())
def test_every_reported_violation_replays(A):
    report = verify_axioms(A)
    assert report.valid == (not report.violations)
    for axiom, witness in report.violations:
        assert replay_violation(A, axiom, witness)
