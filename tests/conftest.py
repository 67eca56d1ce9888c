import pytest

from siegelcong.ring import ring_from_tag
from siegelcong.siegel import GeneratorContext, igusa_generators

INT = ring_from_tag("int")


@pytest.fixture(scope="session")
def ctx5():
    """fp:5 context at box 7 (covers every weight-44 Sturm bound)."""
    return GeneratorContext(ring_from_tag("fp:5"), 7)


@pytest.fixture(scope="session")
def ctx7():
    """fp:7 context at box 10 (covers b = 0 for the weight-16 row)."""
    return GeneratorContext(ring_from_tag("fp:7"), 10)


@pytest.fixture(scope="session")
def int_gens():
    """Exact-integer generator tables on a small box."""
    return igusa_generators(4, INT)


def holdset(certs):
    return sorted(b for b, c in certs.items() if c.holds)
