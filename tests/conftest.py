import numpy as np
import pytest

from waverep import fixtures
from waverep.filterbank import AngleFunction, filter_values_at_angles
from waverep.laurent import GridFunction, LaurentPoly


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


def angle_rule(p):
    """A polynomial as a callable filter: its values at z = exp(-i t)."""
    return AngleFunction(lambda t: filter_values_at_angles(p, -t))


def exact_sample(p, grid):
    """A polynomial's values on a grid, the grid oracle of its coefficient bounds.

    The terms are folded by degree mod M, and each is taken at the exactly
    reduced angle 2 pi ((d j) mod M) / M, so a sample carries one rounding
    per term and none that grows with the degree, as Horner's rule's does.
    """
    m = grid.M
    folded = np.zeros(m, dtype=np.complex128)
    np.add.at(folded, (p.min_degree + np.arange(len(p.coeffs))) % m, p.coeffs)
    d = np.flatnonzero(folded)
    powers = np.exp(2j * np.pi * ((d[:, None] * np.arange(m)) % m) / m)
    return GridFunction(grid, folded[d] @ powers)


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


def split_cycles(grid, scale):
    """The flat cycle table (order, lengths) of grid.cycles(scale), split into
    one array per cycle, for tests that walk the cycles one by one."""
    order, lengths = grid.cycles(scale)
    return np.split(order, np.cumsum(lengths)[:-1])
