import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exact_sample, loop_cycles, split_cycles
from waverep import fixtures
from waverep.filterbank import FilterBank
from waverep.laurent import (
    CircleGrid,
    GridFunction,
    InputError,
    LaurentPoly,
    allclose,
    inner,
    sample,
)

S2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_haar_at_one():
    p = LaurentPoly([1 / S2, 1 / S2])
    assert abs(p.evaluate(1.0) - S2) < 1e-14


def test_evaluate_monomial_at_i():
    assert abs(LaurentPoly.monomial(3).evaluate(1j) - (-1j)) < 1e-14


def test_evaluate_bilateral_cancellation():
    p = LaurentPoly([1.0]) + LaurentPoly.monomial(-1)
    assert abs(p.evaluate(-1.0)) < 1e-14


def test_evaluate_rejects_off_circle():
    with pytest.raises(ValueError):
        LaurentPoly([1.0, 2.0]).evaluate(1.5)


def test_evaluate_far_below_degree_zero():
    # one step per tap and one power of 1/z: no zeros padded up to degree -1
    p = LaurentPoly([1.0, 1.0], -2**40)
    assert np.array_equal(p.evaluate(np.array([1.0, -1.0])), [2.0, 0.0])


def test_evaluate_array():
    p = LaurentPoly([1.0, 0.0, -2.0], min_degree=-1)
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 17))
    direct = 1.0 / z - 2.0 * z
    assert np.max(np.abs(p.evaluate(z) - direct)) < 1e-13


# ---------------------------------------------------------------------------
# compose_power


def test_compose_power_single():
    q = LaurentPoly.monomial(1).compose_power(2)
    assert q == LaurentPoly.monomial(2)


def test_compose_power_bilateral():
    p = LaurentPoly([1.0]) + LaurentPoly.monomial(-1)
    q = p.compose_power(3)
    assert q.coefficient(0) == 1 and q.coefficient(-3) == 1
    assert q.norm2() == pytest.approx(math.sqrt(2.0))


def test_compose_power_zero_poly():
    assert LaurentPoly.zero().compose_power(5).is_zero()


# ---------------------------------------------------------------------------
# sampling


def test_sample_constant():
    g = CircleGrid(4)
    assert np.allclose(sample(LaurentPoly.one(), g).values, 1.0)


def test_sample_monomial():
    g = CircleGrid(4)
    vals = sample(LaurentPoly.monomial(1), g).values
    assert np.allclose(vals, [1.0, 1j, -1.0, -1j], atol=1e-14)


def test_sample_haar_two_points():
    # oracle: evaluate at z = 1 and z = -1 directly
    p = LaurentPoly([1 / S2, 1 / S2])
    expected = [p.evaluate(1.0), p.evaluate(-1.0)]
    vals = sample(p, CircleGrid(2)).values
    assert np.allclose(vals, expected, atol=1e-14)
    assert abs(vals[0] - S2) < 1e-14 and abs(vals[1]) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 4, 6, 8, 4096, 4098])
def test_grid_points_are_exact_at_quarter_turns(m):
    # the one table of roots of unity: 1, i, -1, -i exactly wherever j/M is a
    # quarter turn, np.exp's value bit for bit at every other point
    exact = {0: 1.0}
    if m % 2 == 0:
        exact[m // 2] = -1.0
    if m % 4 == 0:
        exact[m // 4], exact[3 * m // 4] = 1j, -1j
    pts = CircleGrid(m).points()
    at = np.array(sorted(exact))
    assert np.array_equal(pts[at], [exact[j] for j in at])
    assert np.all((pts[at].real == 0) | (pts[at].imag == 0))
    rest = np.setdiff1d(np.arange(m), at)
    assert pts[rest].tobytes() == np.exp(2j * np.pi * np.arange(m) / m)[rest].tobytes()


@pytest.mark.parametrize("m", [4095, 4096])
@pytest.mark.parametrize("offset", [0, 1, -1, 60, -60, 2**20, -2**20, 2**40, -2**40])
def test_sample_is_exact_at_any_degree_offset(offset, m):
    # Horner from degree 0 carries about one rounding per tap, and the offset
    # z_j^lo is a table entry; a power z^lo erred by about |lo| eps
    c = np.array([1.0, 1j]) @ np.random.default_rng(7).normal(size=(2, 9))
    p = LaurentPoly(c, min_degree=offset)
    grid = CircleGrid(m)
    bound = (len(c) + 1) * 4 * np.finfo(float).eps * np.sum(np.abs(c))
    err = np.max(np.abs(sample(p, grid).values - exact_sample(p, grid).values))
    assert err <= bound


# ---------------------------------------------------------------------------
# normalization invariants


def test_trim_edges_only():
    p = LaurentPoly([1e-16, 2.0, 1e-16, 3.0, 1e-16], min_degree=-2)
    assert p.min_degree == -1 and p.max_degree == 1
    assert p.coefficient(0) == pytest.approx(1e-16)  # interior stays


def test_zero_poly_canonical():
    p = LaurentPoly([1e-16, 1e-16])
    assert p.is_zero() and p.min_degree == 0 and len(p.coeffs) == 0


def test_immutable():
    p = LaurentPoly([1.0])
    with pytest.raises(AttributeError):
        p.min_degree = 3
    with pytest.raises(ValueError):
        p.coeffs[0] = 2.0


# ---------------------------------------------------------------------------
# property tests

coeff = st.complex_numbers(min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False)
polys = st.builds(
    lambda cs, m: LaurentPoly(cs, min_degree=m),
    st.lists(coeff, min_size=1, max_size=9),
    st.integers(min_value=-6, max_value=6),
)
angles = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)


@given(polys, polys, angles)
@settings(max_examples=80, deadline=None)
def test_product_evaluates_pointwise(p, q, t):
    z = np.exp(1j * t)
    lhs = (p * q).evaluate(z)
    rhs = p.evaluate(z) * q.evaluate(z)
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) < 1e-10 * scale


@given(polys, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_compose_power_composes(p, a, b):
    assert p.compose_power(a).compose_power(b) == p.compose_power(a * b)


@given(polys, polys, coeff, coeff)
@settings(max_examples=60, deadline=None)
def test_sample_linearity(p, q, a, b):
    g = CircleGrid(32)
    lhs = sample(a * p + b * q, g).values
    rhs = a * sample(p, g).values + b * sample(q, g).values
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


@given(polys, st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_compose_power_matches_evaluation(p, n):
    z = np.exp(0.31j)
    assert abs(p.compose_power(n).evaluate(z) - p.evaluate(z**n)) < 1e-10


def test_conj_reflect_is_circle_conjugate(rng):
    for _ in range(10):
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        p = LaurentPoly(c, min_degree=-3)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(p.conj_reflect().evaluate(z) - np.conj(p.evaluate(z))) < 1e-12


def test_inner_product_parseval(rng):
    # grid inner product of samples equals coefficient inner product when the
    # grid resolves the degree window
    c1 = rng.normal(size=9) + 1j * rng.normal(size=9)
    c2 = rng.normal(size=9) + 1j * rng.normal(size=9)
    p, q = LaurentPoly(c1, min_degree=-4), LaurentPoly(c2, min_degree=-4)
    g = CircleGrid(64)
    lhs = complex(np.vdot(sample(p, g).values, sample(q, g).values) / g.M)
    assert abs(lhs - inner(p, q)) < 1e-12


# ---------------------------------------------------------------------------
# dynamics grids


@pytest.mark.parametrize("scale", [2, 3, 4, 5, 7])
def test_dynamics_grid_properties(scale):
    g = CircleGrid.dynamics_grid(scale)
    assert math.gcd(g.M, scale) == 1
    assert 4095 <= g.M <= 65535
    sigma = g.multiply_map(scale)
    assert sorted(sigma.tolist()) == list(range(g.M))


@pytest.mark.parametrize("scale, size", [(41, 41**2 - 1), (63, 63**2 - 1)])
def test_dynamics_grid_falls_below_lo_where_no_power_fits(scale, size):
    # for N = 41..63 no N^L - 1 lies in [4095, 65535]: N^3 - 1 is too large,
    # so the grid steps back to N^2 - 1, below lo
    assert CircleGrid.dynamics_grid(scale).M == size < 4095


def test_cycles_partition_grid():
    g = CircleGrid(63)
    order, lengths = g.cycles(2)
    assert sorted(order.tolist()) == list(range(63)) and lengths.sum() == 63
    sigma = g.multiply_map(2)
    for c in split_cycles(g, 2):
        assert c[0] == min(c)
        for a, b in zip(c, np.roll(c, -1)):
            assert sigma[a] == b


def _assert_table_is_the_point_walk(m, scale):
    order, lengths = CircleGrid(m).cycles(scale)
    want = loop_cycles(m, scale)
    assert order.dtype == lengths.dtype == np.int64
    assert lengths.tolist() == [len(c) for c in want], (m, scale)
    assert np.array_equal(order, np.concatenate(want)), (m, scale)


# grids with many short cycles of mixed lengths (2^12 - 1, 2^16 - 1, 3^10 - 1)
# and one with a cycle of length 65536 (3 is a primitive root modulo 65537)
@pytest.mark.parametrize("m,scale", [(65535, 2), (59048, 3), (65537, 3), (1, 2), (1, 5),
                                     (4095, 2)])
def test_cycles_match_the_point_walk_on_large_grids(m, scale):
    _assert_table_is_the_point_walk(m, scale)


def test_cycles_match_the_point_walk_on_every_small_grid():
    for m in range(1, 301):
        for scale in range(2, 6):
            if math.gcd(m, scale) == 1:
                _assert_table_is_the_point_walk(m, scale)


def test_cycle_table_is_memoized_and_read_only():
    first = CircleGrid(4095).cycles(2)
    again = CircleGrid(4095).cycles(2)
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        with pytest.raises(ValueError):
            a[0] = 1
    assert first[1].max() == 12 and CircleGrid(4095).cycles(4)[1].max() == 6  # keyed on (M, N)
    with pytest.raises(InputError):
        CircleGrid(4096).cycles(2)


@pytest.mark.parametrize("m,scale", [(4095, 2), (80, 3), (1, 2)])
def test_cycle_min_is_the_least_point_of_the_cycle(m, scale):
    g = CircleGrid(m)
    for cyc in split_cycles(g, scale):
        assert {g.cycle_min(scale, int(j)) for j in cyc} == {int(cyc.min())}


def test_grid_function_validates_length():
    with pytest.raises(ValueError):
        GridFunction(CircleGrid(4), np.ones(3))


def test_allclose_helper():
    p = LaurentPoly([1.0, 2.0])
    assert allclose(p, p + LaurentPoly([1e-15]))
    assert not allclose(p, p + LaurentPoly([1e-3]))


def test_grid_function_equality_and_hash():
    g = CircleGrid(16)
    p = LaurentPoly([1.0, 2.0j, -0.5], min_degree=-1)
    a, b = sample(p, g), sample(p, g)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != sample(p * 2.0, g)
    assert a != sample(p, CircleGrid(32))
    assert a != p and a != "a"
    # equal values with a different sign of zero: still equal, same hash
    z, nz = GridFunction(g, np.zeros(16)), GridFunction(g, -np.zeros(16))
    assert z == nz and hash(z) == hash(nz)
    bank = FilterBank(2, tuple(sample(f, g) for f in fixtures.haar(2).filters))
    again = FilterBank(2, tuple(sample(f, g) for f in fixtures.haar(2).filters))
    assert bank == again and hash(bank) == hash(again)


def test_laurent_poly_hash_ignores_the_sign_of_zero():
    p, q = LaurentPoly([1.0, -0.0, 1.0]), LaurentPoly([1.0, 0.0, 1.0])
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    # both parts of a complex coefficient, and a negative min_degree
    p, q = (LaurentPoly([1.0, complex(re, im), 2.0j], min_degree=-2)
            for re, im in ((-0.0, -0.0), (0.0, 0.0)))
    assert p == q and hash(p) == hash(q)
