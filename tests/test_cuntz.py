import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_poly
from waverep import fixtures
from waverep.cuntz import (
    CuntzRep,
    apply_filter_adjoint,
    cuntz_residuals,
    endomorphism_residual,
    filter_window_adjoint,
    shift_realization,
)
from waverep.filterbank import FilterBank
from waverep.laurent import LaurentPoly, allclose, inner, invariant_radius
from waverep.permutative import MonomialRep

S2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def haar_rep():
    return CuntzRep(fixtures.haar(2))


@pytest.fixture(scope="module")
def db4_rep():
    return CuntzRep(fixtures.db4())


@pytest.fixture(scope="module")
def mono_rep():
    return CuntzRep(fixtures.monomial((0, 1)))


# ---------------------------------------------------------------------------
# the isometries


def test_apply_haar_constant(haar_rep, haar_bank):
    assert haar_rep.apply_isometry(0, LaurentPoly.one()) == haar_bank.filters[0]


def test_apply_monomial_digit_map(mono_rep):
    # S_1 z^3 = z^(2*3+1)
    assert mono_rep.apply_isometry(1, LaurentPoly.monomial(3)) == LaurentPoly.monomial(7)


def test_apply_haar_squared(haar_rep):
    # oracle: (1+z)(1+z^2)/2 expanded by hand
    out = haar_rep.apply_isometry(0, haar_rep.apply_isometry(0, LaurentPoly.one()))
    assert allclose(out, LaurentPoly([0.5, 0.5, 0.5, 0.5]), tol=1e-14)


def test_apply_index_out_of_range(haar_rep):
    with pytest.raises(IndexError):
        haar_rep.apply_isometry(2, LaurentPoly.one())


def test_isometry_preserves_norm(haar_rep, db4_rep, rng):
    for rep in (haar_rep, db4_rep):
        for _ in range(5):
            xi = random_poly(rng, 16)
            for i in range(2):
                assert rep.apply_isometry(i, xi).norm2() == pytest.approx(
                    xi.norm2(), rel=1e-12
                )


def test_rejects_unverified_bank(haar_bank):
    bad = FilterBank(2, (haar_bank.filters[0], haar_bank.filters[1] * 0.9))
    with pytest.raises(ValueError):
        CuntzRep(bad)
    CuntzRep(bad, validate=False)  # diagnostics may bypass


# ---------------------------------------------------------------------------
# the adjoints


def test_adjoint_of_own_filter(haar_rep, db4_rep, mono_rep):
    for rep in (haar_rep, db4_rep, mono_rep):
        for i in range(rep.scale):
            out = rep.apply_adjoint(i, rep.bank.filters[i])
            assert allclose(out, LaurentPoly.one(), tol=1e-13)


def test_adjoint_haar_constant(haar_rep):
    # oracle: the transfer average of conj(m_0) over the square roots is 1/sqrt(2)
    out = haar_rep.apply_adjoint(0, LaurentPoly.one())
    assert allclose(out, LaurentPoly([1 / S2]), tol=1e-14)


def test_adjoint_monomial_digit_extraction(mono_rep):
    assert mono_rep.apply_adjoint(1, LaurentPoly.monomial(7)) == LaurentPoly.monomial(3)
    assert mono_rep.apply_adjoint(0, LaurentPoly.monomial(7)).is_zero()


def test_adjointness_random(haar_rep, db4_rep, rng):
    worst = 0.0
    for rep in (haar_rep, db4_rep):
        for _ in range(10):
            xi, eta = random_poly(rng, 16), random_poly(rng, 16)
            for i in range(2):
                worst = max(worst, abs(
                    inner(rep.apply_adjoint(i, xi), eta)
                    - inner(xi, rep.apply_isometry(i, eta))
                ))
    assert worst < 1e-12


@given(st.integers(min_value=-20, max_value=20))
@settings(max_examples=50, deadline=None)
def test_monomial_adjoint_inverts_digits(k):
    rep = CuntzRep(fixtures.monomial((0, 1)))
    # every integer is 2q + d for exactly one digit d, so exactly one adjoint hits
    hits = [not rep.apply_adjoint(i, LaurentPoly.monomial(k)).is_zero() for i in range(2)]
    assert sum(hits) == 1
    i = hits.index(True)
    back = rep.apply_adjoint(i, LaurentPoly.monomial(k))
    assert rep.apply_isometry(i, back) == LaurentPoly.monomial(k)


def _per_tap_adjoint(m, n, xi):
    """S* xi tap by tap: conj(m_a) xi_{n k + a} summed over the support a of m.
    The reference for the strided digit extraction."""
    if m.is_zero() or xi.is_zero():
        return LaurentPoly.zero()
    k_lo = -(-(xi.min_degree - m.max_degree) // n)
    k_hi = (xi.max_degree - m.min_degree) // n
    if k_lo > k_hi:
        return LaurentPoly.zero()
    out = np.zeros(k_hi - k_lo + 1, dtype=np.complex128)
    for j, c in enumerate(m.coeffs):
        idx = n * np.arange(k_lo, k_hi + 1) + m.min_degree + j
        valid = (idx >= xi.min_degree) & (idx <= xi.max_degree)
        out[valid] += np.conj(c) * xi.coeffs[idx[valid] - xi.min_degree]
    return LaurentPoly(out, min_degree=k_lo)


_coeff = st.one_of(st.just(0j), st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                                                    allow_nan=False, allow_infinity=False))


@st.composite
def _adjoint_cases(draw):
    """(m, N, xi): random polynomials down to negative degrees, zero m or xi
    included, or a pair whose product conj(m) xi lies strictly between two
    multiples of N, so that no coefficient is kept."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        m = LaurentPoly(draw(st.lists(_coeff, max_size=8)), draw(st.integers(-12, 6)))
        xi = LaurentPoly(draw(st.lists(_coeff, max_size=12)), draw(st.integers(-20, 10)))
        return m, n, xi
    p = draw(st.integers(1, n - 1))
    q = draw(st.integers(1, n - p))
    a = draw(st.integers(-12, 6))
    # conj(m) xi spans n k + 1 .. n k + p + q - 1 <= n k + n - 1
    lo = a + p + n * draw(st.integers(-4, 4))
    m = LaurentPoly(draw(st.lists(_coeff, min_size=p, max_size=p)), a)
    xi = LaurentPoly(draw(st.lists(_coeff, min_size=q, max_size=q)), lo)
    return m, n, xi


@given(_adjoint_cases())
# conj(z^2) (z^3 + z^4) = z + z^2 keeps no mode at N = 3
@example((LaurentPoly.monomial(2), 3, LaurentPoly([1.0, 1.0], min_degree=3)))
@example((LaurentPoly.zero(), 3, LaurentPoly([1.0, 1.0], min_degree=-3)))
@example((LaurentPoly([1.0, 2.0], min_degree=-2), 2, LaurentPoly.zero()))
@settings(max_examples=300, deadline=None)
def test_strided_adjoint_matches_per_tap_loop(case):
    m, n, xi = case
    got, want = apply_filter_adjoint(m, n, xi), _per_tap_adjoint(m, n, xi)
    assert (got - want).norm2() <= 1e-13 * m.norm2() * xi.norm2()


# ---------------------------------------------------------------------------
# relations


def test_relations_haar_db4_mono(haar_rep, db4_rep, mono_rep, rng):
    samples = [random_poly(rng, 32, unit_norm=True) for _ in range(12)]
    for rep in (haar_rep, db4_rep, mono_rep):
        ortho, complete = cuntz_residuals(rep, samples)
        assert ortho < 1e-12
        assert complete < 1e-12


def test_completeness_exact_for_monomials(mono_rep):
    # the parity partition makes the completeness sum exact on single modes
    for k in (-7, -1, 0, 3, 10):
        _, complete = cuntz_residuals(mono_rep, [LaurentPoly.monomial(k)])
        assert complete == 0.0


def test_broken_bank_first_relation(haar_bank):
    bad = CuntzRep(FilterBank(2, (haar_bank.filters[0], haar_bank.filters[1] * 0.9)),
                   validate=False)
    ortho, _ = cuntz_residuals(bad, [LaurentPoly.one()])
    # oracle: S_1* S_1 1 = 0.81, so the defect on the constant is exactly 0.19
    assert ortho >= 0.19 - 1e-12


def test_endomorphism_constant_is_exact(haar_rep):
    assert endomorphism_residual(haar_rep, LaurentPoly.one(), [LaurentPoly.one()]) == 0.0


def test_endomorphism_haar(haar_rep, rng):
    samples = [random_poly(rng, 16, unit_norm=True) for _ in range(8)]
    for f in (LaurentPoly.monomial(1), LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)):
        assert endomorphism_residual(haar_rep, f, samples) < 1e-12


def test_endomorphism_broken_bank(haar_bank):
    broken = CuntzRep(FilterBank(2, (haar_bank.filters[0], haar_bank.filters[0])),
                      validate=False)
    # oracle computed by hand: sum_i S_i(z * S_i* 1) = z^2 + z^3 while the
    # target is z^2, so the defect is exactly 1
    res = endomorphism_residual(broken, LaurentPoly.monomial(1), [LaurentPoly.one()])
    assert res >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# shift realization


def test_shift_layers_of_highpass(haar_rep, haar_bank):
    sc = shift_realization(haar_rep, haar_bank.filters[1], 1)
    assert allclose(sc.blocks[(1, 1)], LaurentPoly.one(), tol=1e-13)
    assert sc.residual_norm < 1e-14
    assert sc.reconstruction_error < 1e-12


def test_shift_residual_geometric(haar_rep):
    # oracle: S_0* 1 = 2^(-1/2) each layer, so the depth-d tail is 2^(-d/2)
    for d in (1, 2, 5, 10):
        sc = shift_realization(haar_rep, LaurentPoly.one(), d)
        assert sc.residual_norm == pytest.approx(2 ** (-d / 2), abs=1e-13)
        assert sc.reconstruction_error < 1e-12


def test_shift_residual_nonincreasing(haar_rep, db4_rep, rng):
    xi = random_poly(rng, 8, unit_norm=True)
    for rep in (haar_rep, db4_rep):
        vals = [shift_realization(rep, xi, d).residual_norm for d in range(1, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.2  # wavelet banks: tails vanish


def test_shift_residual_detects_unitary_part():
    rep = CuntzRep(fixtures.monomial((1, 2)))
    xi = LaurentPoly.monomial(-1)  # fixed by S_0: z * (z^-1)(z^2) = z^-1
    for d in (1, 4, 8):
        sc = shift_realization(rep, xi, d)
        assert sc.residual_norm == pytest.approx(1.0, abs=1e-13)


def test_shift_depth_validation(haar_rep):
    with pytest.raises(ValueError):
        shift_realization(haar_rep, LaurentPoly.one(), 0)


# ---------------------------------------------------------------------------
# the invariant window of the adjoints


@pytest.mark.parametrize("scale", [2, 3, 4])
def test_adjoints_keep_the_invariant_window(scale):
    # R = max(-lo, hi, 0) // (N - 1) for a bank with degrees in [lo, hi]:
    # S_i* sends every monomial in [-R, R] back into it and moves every
    # monomial outside strictly inward
    rng = np.random.default_rng(40 + scale)
    for factors in (0, 1, 3, 6):
        bank = fixtures.random_paraunitary_bank(scale, factors, rng)
        shift = int(rng.integers(-7, 8))
        filters = [f * LaurentPoly.monomial(shift) for f in bank.filters]
        lo = min(f.min_degree for f in filters)
        hi = max(f.max_degree for f in filters)
        radius = invariant_radius(lo, hi, scale)
        assert radius == max(-lo, hi, 0) // (scale - 1)
        for f in filters:
            for n in range(-radius - 5, radius + 6):
                image = apply_filter_adjoint(f, scale, LaurentPoly.monomial(n))
                if image.is_zero():
                    continue
                bound = radius if abs(n) <= radius else abs(n) - 1
                assert -bound <= image.min_degree and image.max_degree <= bound, (n, radius)


@pytest.mark.parametrize("scale", [2, 3, 4])
def test_window_adjoint_is_the_adjoint_on_the_window(scale):
    # S*|_W as a matrix: on a vector supported on W = [-r, r] (r >= R) one
    # product with it is the exact adjoint, which stays in W
    rng = np.random.default_rng(70 + scale)
    bank = fixtures.random_paraunitary_bank(scale, 2, rng)
    for f in bank.filters + tuple(f * LaurentPoly.monomial(-5) for f in bank.filters):
        radius = invariant_radius(f.min_degree, f.max_degree, scale)
        for r in (radius, radius + 2):
            xi = random_poly(rng, r)
            image = apply_filter_adjoint(f, scale, xi)
            assert -r <= image.min_degree and image.max_degree <= r
            got = filter_window_adjoint(f, scale, r) @ xi.coeff_window(-r, r)
            assert np.max(np.abs(got - image.coeff_window(-r, r))) < 1e-13


def test_window_adjoint_refuses_a_window_that_leaks():
    # db4's low-pass has degrees 0..3, so R = 3; S* z^(-1) reaches z^(-2) and
    # S* z^0 reaches z^(-1), outside the windows of radius 1 and 0.  (At N = 2
    # the radius R - 1 happens to be invariant as well, so the leak check,
    # not a comparison with R, is the gate.)
    m = fixtures.db4().filters[0]
    assert invariant_radius(m.min_degree, m.max_degree, 2) == 3
    for r in (0, 1):
        with pytest.raises(ValueError, match="leaves the window"):
            filter_window_adjoint(m, 2, r)
    for r in (2, 3, 4):
        assert filter_window_adjoint(m, 2, r).shape == (2 * r + 1, 2 * r + 1)


def test_invariant_radius_is_the_cycle_radius_and_the_index_window():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scale = int(rng.integers(2, 6))
        digits = [int(r + scale * rng.integers(-9, 10)) for r in rng.permutation(scale)]
        mono = MonomialRep(scale, digits)
        assert mono.cycle_radius() == max(abs(d) for d in digits) // (scale - 1)
    # at N = 2 the radius is the index window K0 = max(-a, b, 0)
    assert invariant_radius(-9, 12, 2) == 12 and invariant_radius(3, 5, 2) == 5
    assert invariant_radius(-4, -1, 2) == 4 and invariant_radius(-4, 9, 4) == 3
