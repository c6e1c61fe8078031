import pytest

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
