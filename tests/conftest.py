import pytest

from posemiring import core, harness
from posemiring.census import enumerate_posemirings


@pytest.fixture(scope="session")
def census():
    """Census results for orders 2..5, shared across the suite."""
    return {n: enumerate_posemirings(n) for n in range(2, 6)}


@pytest.fixture(scope="session")
def census_instances(census):
    out = []
    for n in sorted(census):
        out.extend(census[n].instances)
    return out


@pytest.fixture
def axiom_kernel_calls(monkeypatch):
    """The tables the axiom kernel runs on during one test, in order."""
    calls = []
    kernel = core._axiom_report
    monkeypatch.setattr(core, "_axiom_report",
                        lambda A: calls.append(A) or kernel(A))
    return calls


@pytest.fixture(scope="session")
def census7_and_grid():
    """Every census class of order 2..7, then the construction grid."""
    return ([A for n in range(2, 8) for A in enumerate_posemirings(n).instances]
            + [A for _, A in harness.construction_grid().posemirings])
