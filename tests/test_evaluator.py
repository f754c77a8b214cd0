"""Every filter value comes from one point evaluator or one grid sampler.

The references below are in-test copies of the per-kind rules that the
package used before they were merged, so each merged path is pinned to the
exact values it replaced.
"""

import math

import numpy as np
import pytest

from waverep import cuntz, fixtures, serialize as ser
from waverep.cascade import INV_SQRT_2PI, mother_hat, scaling_hat
from waverep.cuntz import CuntzRep
from waverep.filterbank import (
    AngleFunction,
    FilterBank,
    check_lowpass,
    complete_filterbank,
    default_check_grid,
    filter_values_at_angles,
    householder_rows,
    modulation_matrix,
)
from waverep.laurent import CircleGrid, InputError, LaurentPoly, sample

TWO_PI = 2.0 * math.pi


def _nearest_grid_rule(f, t):
    # the cascade's nearest-grid lookup for grid filters, as written before the merge
    m = f.grid.M
    j = np.round(np.mod(-t, TWO_PI) / TWO_PI * m).astype(np.int64) % m
    return f.values[j]


def _reference_product(f, scale, t, depth):
    acc = np.ones(t.shape, dtype=np.complex128)
    root = math.sqrt(scale)
    for k in range(1, depth + 1):
        acc *= _nearest_grid_rule(f, t / scale**k) / root
    return acc


@pytest.fixture(scope="module")
def grid_db4():
    g = CircleGrid(4096)
    return FilterBank(2, tuple(sample(f, g) for f in fixtures.db4().filters))


def test_grid_cascade_is_the_nearest_grid_rule_bit_for_bit(grid_db4):
    m0 = grid_db4.filters[0]
    phi = scaling_hat(m0, 2)
    # the default t-grid hits half-grid points, where the rounding rule decides
    frac = np.mod(-phi.t_values / 2**4, TWO_PI) / TWO_PI * m0.grid.M % 1.0
    assert np.any(np.abs(frac - 0.5) < 1e-9)
    assert phi.approximate
    assert np.array_equal(phi.values,
                          INV_SQRT_2PI * _reference_product(m0, 2, phi.t_values, phi.depth))
    psi = mother_hat(grid_db4, 1, phi)
    t = phi.t_values
    base = INV_SQRT_2PI * _reference_product(m0, 2, t / 2, phi.depth)
    assert psi.approximate
    assert np.array_equal(psi.values,
                          _nearest_grid_rule(grid_db4.filters[1], t / 2) * base / math.sqrt(2))


def test_point_evaluator_reads_a_grid_filter_at_its_own_points(rng):
    g = CircleGrid(48)
    f = sample(fixtures.db4().filters[0], g)
    assert np.array_equal(filter_values_at_angles(f, g.angles()), f.values)
    j = rng.integers(0, g.M, size=20)
    # the same points named by angles shifted by whole turns, negative included
    theta = g.angles()[j] + TWO_PI * rng.integers(-3, 4, size=20)
    assert np.array_equal(filter_values_at_angles(f, theta), f.values[j])
    with pytest.raises(ValueError):
        filter_values_at_angles(f, g.angles()[:3] + np.pi / g.M)
    with pytest.raises(TypeError):
        filter_values_at_angles("not a filter", g.angles())


@pytest.mark.parametrize("poly", [
    fixtures.db4().filters[0], fixtures.haar(3).filters[2], LaurentPoly.zero(),
    LaurentPoly([0.5, -1j, 2.0], min_degree=-5), LaurentPoly([1.0, 0.25j], min_degree=3),
    LaurentPoly([1j, 2.0, -0.5, 3.0], min_degree=-1),
])
def test_point_evaluator_in_caller_buffers_is_bit_for_bit(poly, rng):
    theta = rng.uniform(-40.0, 40.0, size=(3, 7))
    work = np.full((5,) + theta.shape, np.nan, dtype=np.complex128)
    want = filter_values_at_angles(poly, theta)
    for _ in range(2):  # buffers holding the last call's values
        got = filter_values_at_angles(poly, theta, work)
        assert np.array_equal(got, want) and np.shares_memory(got, work)
    assert np.array_equal(filter_values_at_angles(poly, theta[0, :1], work[:, 0, :1]), want[0, :1])


def _old_grid_value_at(f, z):
    m = f.grid.M
    j = int(round(np.angle(z) / (2.0 * np.pi) * m)) % m
    if abs(f.grid.points()[j] - z) > 1e-9:
        raise ValueError("grid filter has no value at this point")
    return complex(f.values[j])


@pytest.mark.parametrize("scale", [2, 4])
def test_grid_modulation_matrix_is_the_old_per_point_lookup(scale):
    g = CircleGrid(64)
    bank = FilterBank(scale, tuple(sample(f, g) for f in fixtures.haar(scale).filters))
    rho = np.exp(2j * np.pi / scale)
    for j in (0, 1, 5, 17, 63):
        z = g.points()[j]
        pts = [z * rho**k for k in range(scale)]
        want = np.array([[_old_grid_value_at(f, w) for w in pts] for f in bank.filters])
        assert np.array_equal(modulation_matrix(bank, z), want / np.sqrt(scale))
    with pytest.raises(ValueError):
        modulation_matrix(bank, np.exp(1j * np.pi / g.M))


def test_grid_lowpass_check():
    f = sample(fixtures.haar(2).filters[0], CircleGrid(64))
    assert check_lowpass(f, 2).ok
    # t = pi is not a point of a 63-point grid: N | M is a precondition
    with pytest.raises(InputError, match="grid size 63 is not divisible by the scale 2"):
        check_lowpass(sample(fixtures.haar(2).filters[0], CircleGrid(63)), 2)


def _old_shannon_low(t):
    q = t / np.pi
    r = np.mod(q + 1.0, 2.0) - 1.0
    eps = 1e-9
    mask = (r >= -0.5 - eps) & (r < 0.5 - eps)
    return np.where(mask, math.sqrt(2.0), 0.0).astype(np.complex128)


def _old_shannon_high(t):
    q = t / np.pi
    r = np.mod(q + 1.0, 2.0) - 1.0
    eps = 1e-9
    mask = (r >= -0.5 - eps) & (r < 0.5 - eps)
    return np.where(mask, 0.0, math.sqrt(2.0)).astype(np.complex128)


def test_shannon_pair_is_the_two_old_rules():
    dyadic = np.pi / 2 * np.arange(-64, 65)
    # offsets on both sides of the 1e-9 snap (in units of pi) and far inside it
    offsets = np.pi * 1e-9 * np.array([0.0, 1e-3, 0.5, 0.999, 1.001, 2.0])
    # a few ulps either side of +-pi/2, of the snap edges (+-1/2 - 1e-9) pi and of odd
    # multiples of pi; |t| up to 2^40 pi; signed zero, infinities and nan
    edges = np.pi * np.array([0.5, -0.5, 0.5 - 1e-9, -0.5 - 1e-9, 1.0, -1.0, 3.0, -3.0,
                              1025.0, -1025.0, 2.0 ** 40 + 1.0])
    near = (edges[:, None] + np.arange(-4, 5) * np.spacing(edges)[:, None]).ravel()
    big = np.pi * 2.0 ** np.arange(0, 41)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    t = np.concatenate([np.linspace(-16 * np.pi, 16 * np.pi, 65537),
                        (dyadic[:, None] + offsets).ravel(), (dyadic[:, None] - offsets).ravel(),
                        near, big, -big, big * 1.25, -big * 0.75, special])
    low, high = fixtures.shannon().filters
    with np.errstate(invalid="ignore"):
        assert np.array_equal(low.values_at_t(t), _old_shannon_low(t))
        assert np.array_equal(high.values_at_t(t), _old_shannon_high(t))
    for x in (0.3, -np.pi / 2, np.float64(3.0), np.asarray(np.pi / 2)):  # scalar t, 0-d value
        assert low.fn(x).shape == () and low.fn(x) == _old_shannon_low(x)
        assert high.fn(x).shape == () and high.fn(x) == _old_shannon_high(x)


@pytest.mark.parametrize("bank", [
    fixtures.shannon(),
    FilterBank(2, (AngleFunction(lambda t: (1 + np.exp(-1j * t)) / math.sqrt(2)),
                   AngleFunction(lambda t: (1 - np.exp(-1j * t)) / math.sqrt(2)))),
], ids=["shannon", "haar2_rule"])
def test_callable_export_is_the_old_inline_sample(bank):
    d = ser.bank_to_dict(bank)
    grid = default_check_grid(2)
    for f, fd in zip(bank.filters, d["filters"]):
        assert np.array_equal(ser.gridfunction_from_dict(fd).values, f.values_at_t(-grid.angles()))


def test_cuntz_rep_takes_polynomial_banks_only(monkeypatch):
    grid_bank = FilterBank(2, tuple(sample(f, CircleGrid(64)) for f in fixtures.haar(2).filters))
    for bank in (grid_bank, fixtures.shannon()):
        with pytest.raises(TypeError):
            CuntzRep(bank)
    # the kind is refused also where the unitarity gate would pass every bank
    monkeypatch.setattr(cuntz, "require_verified", lambda bank: None)
    for bank in (grid_bank, fixtures.shannon()):
        with pytest.raises(TypeError):
            CuntzRep(bank)


def test_scale3_completion_samples_m0_by_horner():
    m0 = fixtures.haar(3).filters[0]
    bank = complete_filterbank(m0, 3)
    grid = bank.filters[0].grid
    assert grid == default_check_grid(3)

    def completed(m0_vals):
        q = householder_rows(m0_vals.reshape(3, -1).T / math.sqrt(3))
        out = (math.sqrt(3) * q.transpose(1, 2, 0)).reshape(3, grid.M)
        out[0] = m0_vals
        return out

    horner = completed(sample(m0, grid).values)
    assert all(np.array_equal(f.values, row) for f, row in zip(bank.filters, horner))
