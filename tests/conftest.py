import numpy as np
import pytest

from waverep import fixtures
from waverep.laurent import LaurentPoly


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def haar_bank():
    return fixtures.haar(2)


@pytest.fixture(scope="session")
def db4_bank():
    return fixtures.db4()


@pytest.fixture(scope="session")
def monomial_bank():
    return fixtures.monomial((0, 1))


@pytest.fixture(scope="session")
def shannon_bank():
    return fixtures.shannon()


def haar_component_flag(f0, f1, window=64):
    """Whether the combined isometry of (f0, f1) has a nonzero unitary part (index >= 1)."""
    from waverep.index import spectral_solutions

    return spectral_solutions(f0, f1, window=window).index >= 1


def random_poly(rng, max_degree=12, unit_norm=False):
    """Random complex Laurent polynomial supported on [-max_degree, max_degree]."""
    n = 2 * max_degree + 1
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    p = LaurentPoly(c, min_degree=-max_degree)
    if unit_norm:
        p = p * (1.0 / p.norm2())
    return p


def loop_cycles(m, scale):
    """The cycles of j -> scale*j mod m by walking every point: the reference
    for CircleGrid.cycles (each cycle from its minimum, in order of minima)."""
    sigma = (np.arange(m) * scale) % m
    seen = np.zeros(m, dtype=bool)
    out = []
    for start in range(m):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = int(sigma[j])
        out.append(np.array(cyc, dtype=np.int64))
    return out
