import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_poly
from waverep import cuntz, fixtures
from waverep.cuntz import (
    CuntzRep,
    apply_filter_adjoint,
    cuntz_residuals,
    endomorphism_residual,
    filter_window_adjoint,
    shift_realization,
)
from waverep.filterbank import FilterBank
from waverep.laurent import InputError, LaurentPoly, allclose, inner, invariant_window
from waverep.permutative import MonomialRep

S2 = math.sqrt(2.0)


def unchecked_rep(bank, monkeypatch):
    """A representation of a bank that the unitarity gate would refuse."""
    monkeypatch.setattr(cuntz, "require_verified", lambda bank: None)
    return CuntzRep(bank)


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


def test_rejects_unverified_bank(haar_bank, monkeypatch):
    bad = FilterBank(2, (haar_bank.filters[0], haar_bank.filters[1] * 0.9))
    with pytest.raises(ValueError):
        CuntzRep(bad)
    unchecked_rep(bad, monkeypatch)  # require_verified is the one gate


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


def test_broken_bank_first_relation(haar_bank, monkeypatch):
    bad = unchecked_rep(FilterBank(2, (haar_bank.filters[0], haar_bank.filters[1] * 0.9)),
                        monkeypatch)
    ortho, _ = cuntz_residuals(bad, [LaurentPoly.one()])
    # oracle: S_1* S_1 1 = 0.81, so the defect on the constant is exactly 0.19
    assert ortho >= 0.19 - 1e-12


def test_endomorphism_constant_is_exact(haar_rep):
    assert endomorphism_residual(haar_rep, LaurentPoly.one(), [LaurentPoly.one()]) == 0.0


def test_endomorphism_haar(haar_rep, rng):
    samples = [random_poly(rng, 16, unit_norm=True) for _ in range(8)]
    for f in (LaurentPoly.monomial(1), LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)):
        assert endomorphism_residual(haar_rep, f, samples) < 1e-12


def test_endomorphism_broken_bank(haar_bank, monkeypatch):
    broken = unchecked_rep(FilterBank(2, (haar_bank.filters[0], haar_bank.filters[0])),
                           monkeypatch)
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
    # T = [-floor(hi / (N - 1)), floor(-lo / (N - 1))] for a bank with degrees
    # in [lo, hi]: S_i* sends every monomial in T back into it and moves every
    # monomial outside strictly toward it
    rng = np.random.default_rng(40 + scale)
    for factors in (0, 1, 3, 6):
        bank = fixtures.random_paraunitary_bank(scale, factors, rng)
        shift = int(rng.integers(-7, 8))
        filters = [f * LaurentPoly.monomial(shift) for f in bank.filters]
        lo = min(f.min_degree for f in filters)
        hi = max(f.max_degree for f in filters)
        p, q = invariant_window(lo, hi, scale)
        assert (p, q) == (-(hi // (scale - 1)), (-lo) // (scale - 1)) and p <= q
        assert max(-p, q) == max(-lo, hi, 0) // (scale - 1)
        for f in filters:
            for n in range(p - 5, q + 6):
                image = apply_filter_adjoint(f, scale, LaurentPoly.monomial(n))
                if image.is_zero():
                    continue
                low, high = (p, q) if p <= n <= q else (n + 1, q) if n < p else (p, n - 1)
                assert low <= image.min_degree and image.max_degree <= high, (n, p, q)


def random_window_poly(rng, window):
    """A random complex polynomial with a coefficient at every degree of window = (p, q)."""
    p, q = window
    return LaurentPoly(rng.normal(size=q - p + 1) + 1j * rng.normal(size=q - p + 1), min_degree=p)


@pytest.mark.parametrize("scale", [2, 3, 4])
def test_window_adjoint_is_the_adjoint_on_the_window(scale):
    # S*|_T as a matrix: on a vector supported on a window that holds
    # T = [p, q], one product with it is the exact adjoint, which stays there
    rng = np.random.default_rng(70 + scale)
    bank = fixtures.random_paraunitary_bank(scale, 2, rng)
    for f in bank.filters + tuple(f * LaurentPoly.monomial(-5) for f in bank.filters):
        p, q = invariant_window(f.min_degree, f.max_degree, scale)
        for lo, hi in ((p, q), (p - 2, q + 2), (p - 1, q + 3)):
            xi = random_window_poly(rng, (lo, hi))
            image = apply_filter_adjoint(f, scale, xi)
            assert lo <= image.min_degree and image.max_degree <= hi
            got = filter_window_adjoint(f, scale, (lo, hi)) @ xi.coeffs
            assert np.max(np.abs(got - image.coeff_window(lo, hi))) < 1e-13


def per_column_window_adjoint(m, scale, window):
    """S*|_[p, q] built one exact adjoint per column: the columns S* z^n for n in [p, q]."""
    p, q = window
    out = np.zeros((q - p + 1, q - p + 1), dtype=np.complex128)
    for j, n in enumerate(range(p, q + 1)):
        out[:, j] = apply_filter_adjoint(m, scale, LaurentPoly.monomial(n)).coeff_window(p, q)
    return out


@pytest.mark.parametrize("scale", [2, 3, 4, 5])
def test_window_adjoint_is_the_per_column_build(scale, monkeypatch):
    # the gather against the loop of q - p + 1 exact adjoints it replaces; the
    # gather itself takes one exact adjoint, of the probe that checks it
    from waverep import cuntz

    rng = np.random.default_rng(90 + scale)
    calls, adjoint = [], cuntz.apply_filter_adjoint
    for factors in (0, 1, 3):
        bank = fixtures.random_paraunitary_bank(scale, factors, rng)
        for f in bank.filters + tuple(f * LaurentPoly.monomial(-7) for f in bank.filters):
            p, q = invariant_window(f.min_degree, f.max_degree, scale)
            for window in ((p, q), (p - 3, q + 3), (p, q + 2)):
                ref = per_column_window_adjoint(f, scale, window)
                monkeypatch.setattr(cuntz, "apply_filter_adjoint",
                                    lambda *a: calls.append(1) or adjoint(*a))
                calls.clear()
                got = filter_window_adjoint(f, scale, window)
                monkeypatch.setattr(cuntz, "apply_filter_adjoint", adjoint)
                assert len(calls) == 1
                assert np.max(np.abs(got - ref)) <= 1e-14


def test_window_adjoint_requires_a_window_that_holds_t():
    # db4's low-pass has degrees 0..3, so T = [-3, 0].  [-2, 2] is invariant
    # (its per-column build keeps every image inside) but does not hold T,
    # so it is refused: the precondition asks for T, not for invariance, and
    # S* does not carry z^-3 into [-2, 2].  [-1, 1] is not invariant either:
    # S* z^-1 reaches z^-2.
    m = fixtures.db4().filters[0]
    assert invariant_window(m.min_degree, m.max_degree, 2) == (-3, 0)
    for window in ((-3, 0), (-4, 1)):
        assert np.max(np.abs(filter_window_adjoint(m, 2, window)
                             - per_column_window_adjoint(m, 2, window))) <= 1e-14
    for lo in range(-2, 3):
        image = apply_filter_adjoint(m, 2, LaurentPoly.monomial(lo))
        assert image.is_zero() or (-2 <= image.min_degree and image.max_degree <= 2)
    assert apply_filter_adjoint(m, 2, LaurentPoly.monomial(-1)).min_degree == -2
    for window in ((-2, 2), (-1, 1), (-3, -1), (-2, 0)):
        with pytest.raises(InputError, match="invariant window"):
            filter_window_adjoint(m, 2, window)


def test_window_adjoint_of_a_filter_with_an_empty_t():
    # z at N = 3: [1, 1] holds no multiple of 2, so T = [0, -1] is empty and
    # S* z^n = z^((n - 1)/3) is nilpotent; every nonempty window [p, q] with
    # p <= 0 and q >= -1 is invariant and accepted, an empty one is refused
    m = LaurentPoly.monomial(1)
    assert invariant_window(1, 1, 3) == (0, -1)
    for window in ((0, 0), (-1, -1), (-1, 0), (-3, 2)):
        assert np.max(np.abs(filter_window_adjoint(m, 3, window)
                             - per_column_window_adjoint(m, 3, window))) <= 1e-14
    for window in ((0, -1), (1, 1), (-2, -2)):
        with pytest.raises(InputError, match="invariant window"):
            filter_window_adjoint(m, 3, window)


def test_the_radius_of_the_window_is_the_cycle_radius():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scale = int(rng.integers(2, 6))
        digits = [int(r + scale * rng.integers(-9, 10)) for r in rng.permutation(scale)]
        mono = MonomialRep(scale, digits)
        assert mono.cycle_radius() == max(abs(d) for d in digits) // (scale - 1)
    # at N = 2 the radius max(-p, q) is the index window K0 = max(-a, b, 0)
    assert invariant_window(-9, 12, 2) == (-12, 9) and invariant_window(3, 5, 2) == (-5, -3)
    assert invariant_window(-4, -1, 2) == (1, 4) and invariant_window(-4, 9, 4) == (-3, 1)


# ---------------------------------------------------------------------------
# the closed form of the window, against integer dynamics


def _interval_fixed_point(lo, hi, scale):
    """Iterate [l, h] -> [ceil((l - hi) / N), floor((h - lo) / N)], the hull of the
    modes S* sends [l, h] into, from [-10^5, 10^5] to its fixed point."""
    l = np.full(lo.shape, -10**5)
    h = np.full(lo.shape, 10**5)
    while True:
        nl, nh = -((hi - l) // scale), (h - lo) // scale
        if np.array_equal(nl, l) and np.array_equal(nh, h):
            return l, h
        l, h = nl, nh


def _ranges(scale, bound, gap):
    """Every integer range [a, b] with -bound <= a <= b <= bound and b - a >= gap."""
    a, b = np.meshgrid(np.arange(-bound, bound + 1), np.arange(-bound, bound + 1), indexing="ij")
    keep = b - a >= gap
    return a[keep], b[keep]


def _window_arrays(a, b, scale):
    pq = np.array([invariant_window(int(x), int(y), scale) for x, y in zip(a, b)])
    return pq[:, 0], pq[:, 1]


@pytest.mark.parametrize("scale", range(2, 9))
def test_the_window_is_the_fixed_point_of_the_interval_map(scale):
    a, b = _ranges(scale, 40, scale - 1)
    p, q = _window_arrays(a, b, scale)
    fp, fq = _interval_fixed_point(a, b, scale)
    assert np.array_equal(p, fp) and np.array_equal(q, fq) and np.all(p <= q)
    # and it is the former symmetric radius, floor(max(-a, b, 0) / (N - 1)), on its sides
    assert np.array_equal(np.maximum(-p, q), np.maximum(np.maximum(-a, b), 0) // (scale - 1))


def _invariant(a, b, lo, hi, scale):
    """Whether S* of a filter with a tap at every degree of [a, b] keeps each window
    [lo, hi] (arrays, one window per range): every mode k with a <= n - N k <= b,
    n in the window, lies in it."""
    n = lo[:, None] + np.arange(int(np.max(hi - lo, initial=0)) + 1)[None, :]
    inside = n <= hi[:, None]
    low, high = -((b[:, None] - n) // scale), (n - a[:, None]) // scale
    ok = (low > high) | ((low >= lo[:, None]) & (high <= hi[:, None]))
    return np.all(ok | ~inside, axis=1)


@pytest.mark.parametrize("scale", range(2, 7))
def test_every_window_that_holds_t_is_invariant(scale):
    # 147,125 windows over N = 2..6: T widened by 0..4 modes on each side
    a, b = _ranges(scale, 25, scale - 1)
    p, q = _window_arrays(a, b, scale)
    for i in range(5):
        for j in range(5):
            assert np.all(_invariant(a, b, p - i, q + j, scale))
    # the checks can fail: a window one mode short of T does not receive the
    # mode left out, which S* can send to itself (at N = 2 the shorter window
    # is still invariant; from N = 3 on, not always)
    assert np.any(-((b - p) // scale) <= p) and np.any((q - a) // scale >= q)
    if scale > 2:
        assert not np.all(_invariant(a, b, p + 1, q, scale))
        assert not np.all(_invariant(a, b, p, q - 1, scale))
    # and S* carries every mode outside T strictly toward it, without passing it
    for d in range(1, 6):
        for n, low_end, high_end in ((p - d, p - d + 1, q), (q + d, p, q + d - 1)):
            low, high = -((b - n) // scale), (n - a) // scale
            assert np.all((low > high) | ((low >= low_end) & (high <= high_end)))


@pytest.mark.parametrize("scale", range(2, 9))
def test_an_empty_window_is_a_range_with_no_multiple_of_n_minus_one(scale):
    a, b = _ranges(scale, 30, 0)
    p, q = _window_arrays(a, b, scale)
    empty = p > q
    multiple = np.array([any(d % (scale - 1) == 0 for d in range(x, y + 1)) for x, y in zip(a, b)])
    assert np.array_equal(empty, ~multiple) and np.all(p <= q + 1)
    assert np.all(b[empty] - a[empty] < scale - 1)
    assert np.array_equal(np.maximum(-p, q), np.maximum(np.maximum(-a, b), 0) // (scale - 1))
    # every nonempty window [lo, hi] with lo <= p and hi >= q is invariant,
    # [min(p, q), max(p, q)] among them
    a, b, p, q = a[empty], b[empty], p[empty], q[empty]
    for i in range(5):
        for j in range(5):
            lo, hi = p - i, q + j
            keep = lo <= hi
            assert np.all(_invariant(a[keep], b[keep], lo[keep], hi[keep], scale))

