"""The exact polynomial kernels against in-test copies of their former code.

Each kernel was rewritten to allocate once; these copies are the loops it
replaced, and every comparison is bitwise: equal values, equal signs of
zero, equal degree windows.  The one exception is evaluation below degree
-1, where the old loop padded zeros up to degree -1: it is compared within
a stated rounding bound.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from waverep import cuntz, fixtures, wold
from waverep.cuntz import apply_filter_adjoint
from waverep.index import PAIRING_COSET_POINTS, pairing
from waverep.laurent import TRIM_TOL, CircleGrid, LaurentPoly, sample

# ---------------------------------------------------------------------------
# the former code


def old_trim(coeffs, min_degree=0):
    """Edge trimming by a Python loop over numpy scalars."""
    c = np.asarray(coeffs, dtype=np.complex128)
    lo, hi = 0, len(c)
    while lo < hi and abs(c[lo]) < TRIM_TOL:
        lo += 1
    while hi > lo and abs(c[hi - 1]) < TRIM_TOL:
        hi -= 1
    if lo == hi:
        return np.zeros(0, dtype=np.complex128), 0
    return c[lo:hi].copy(), int(min_degree) + lo


def old_evaluate(p, z):
    """Two-sided Horner with a new array per step and a coefficient lookup per degree."""
    scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if p.is_zero():
        out = np.zeros_like(z)
        return out[0] if scalar else out
    out = np.zeros_like(z)
    lo, hi = p.min_degree, p.max_degree
    if hi >= 0:
        acc = np.zeros_like(z)
        for k in range(hi, max(lo, 0) - 1, -1):
            acc = acc * z + p.coefficient(k)
        if max(lo, 0) > 0:
            acc = acc * z ** max(lo, 0)
        out += acc
    if lo < 0:
        w = 1.0 / z
        acc = np.zeros_like(z)
        for k in range(lo, 0):
            acc = acc * w + p.coefficient(k)
        out += acc * w
    return out[0] if scalar else out


def old_adjoint(m, scale, xi):
    """conj(m) xi as a trimmed polynomial, then every scale-th coefficient."""
    prod = m.conj_reflect() * xi
    k_lo = -(-prod.min_degree // scale)
    return LaurentPoly(prod.coeffs[k_lo * scale - prod.min_degree :: scale], min_degree=k_lo)


def old_pairing(pv, sv, scale):
    """One pair's value and constancy defect from its two sample vectors, as the
    index paired its eigenvectors one pair at a time."""
    re = pv.real * sv.real + pv.imag * sv.imag
    im = pv.real * sv.imag - pv.imag * sv.real
    re, im = re.reshape(scale, -1).sum(axis=0), im.reshape(scale, -1).sum(axis=0)
    mean = complex(np.mean(np.tile(re, scale)), np.mean(np.tile(im, scale)))
    return mean, float(np.max(np.hypot(re - mean.real, im - mean.imag)))


def old_pairing_table(polys, scale, grid):
    """The table from old_pairing on a <= b over the polynomials' samples on a grid."""
    vals = [sample(p, grid).values for p in polys]
    n = len(polys)
    mat = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for a in range(n):
        for b in range(a, n):
            val, dev = old_pairing(vals[a], vals[b], scale)
            mat[b, a] = np.conj(val)
            mat[a, b] = val
            worst = max(worst, dev)
    return mat, worst


def assert_bitwise(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


def assert_same_poly(p, q):
    assert p.min_degree == q.min_degree
    assert_bitwise(p.coeffs, q.coeffs)


# ---------------------------------------------------------------------------
# random Laurent polynomials: negative degrees, tiny and signed-zero entries


_part = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                  st.sampled_from([0.0, -0.0, 1e-20, -3e-15, 9.9e-15, 1e-14, 1.0, -1.0]))
_entry = st.builds(complex, _part, _part)
_tiny = st.sampled_from([0j, complex(-0.0, -0.0), 1e-20, 5e-15j, complex(7e-15, -7e-15),
                         9.99e-15, 1e-14, 1.5e-14j])


@st.composite
def raw_coeffs(draw, max_size=14):
    c = draw(st.lists(_entry, max_size=max_size))
    if c and draw(st.booleans()):
        c[0] = draw(_tiny)
    if c and draw(st.booleans()):
        c[-1] = draw(_tiny)
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    return [x * scale for x in c]


@st.composite
def laurent(draw, max_size=14):
    return LaurentPoly(draw(raw_coeffs(max_size)), draw(st.integers(-25, 12)))


# ---------------------------------------------------------------------------
# trimming


@settings(max_examples=300, deadline=None)
@given(raw_coeffs(), st.integers(-25, 12))
@example([1e-20, 1.0, 2.0, 5e-15], -3)
@example([1e-16, 1e-20, 0j], 4)
@example([], 7)
def test_trimming_matches_the_loop(coeffs, lo):
    p = LaurentPoly(coeffs, lo)
    want, want_lo = old_trim(coeffs, lo)
    assert_bitwise(p.coeffs, want)
    assert p.min_degree == want_lo
    assert not p.coeffs.flags.writeable


def test_nan_edges_are_kept():
    p = LaurentPoly([complex("nan"), 1e-20, 1.0, 1e-20, complex(0.0, float("nan"))], -2)
    assert p.min_degree == -2 and len(p.coeffs) == 5
    q = LaurentPoly([1e-20, float("nan"), 1e-20], 3)
    assert q.min_degree == 4 and len(q.coeffs) == 1 and np.isnan(q.coeffs[0].real)


def test_entries_below_tolerance_give_the_canonical_zero():
    for coeffs in ([], [0j], [1e-15, -9e-15j, 1e-20], np.full(5, 9.9e-15)):
        p = LaurentPoly(coeffs, min_degree=-7)
        assert p.is_zero() and p.min_degree == 0 and len(p.coeffs) == 0
        assert p == LaurentPoly.zero()
        assert not p.coeffs.flags.writeable


def test_coefficients_are_frozen_and_not_the_callers():
    src = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128)
    for arg in (src, src[::2], src[1:], src.real):
        p = LaurentPoly(arg)
        before = p.coeffs.copy()
        src[:] = 99.0
        assert np.array_equal(p.coeffs, before)
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0
        src[:] = [1.0, 2.0, 3.0, 4.0]


@settings(max_examples=200, deadline=None)
@given(laurent(), laurent(), st.sampled_from([2.0, -1e-15, 0.5j]))
def test_arithmetic_matches_trimmed_fresh_arrays(p, q, c):
    """Sums, products and reflections equal the constructor on the same raw array."""
    assert_same_poly(p * q, LaurentPoly(np.convolve(p.coeffs, q.coeffs), p.min_degree + q.min_degree)
                     if not (p.is_zero() or q.is_zero()) else LaurentPoly.zero())
    assert_same_poly(p * c, LaurentPoly(p.coeffs * c, p.min_degree))
    assert_same_poly(-p, LaurentPoly(-p.coeffs, p.min_degree))
    assert_same_poly(p.conj_reflect(), LaurentPoly(np.conj(p.coeffs[::-1]), -p.max_degree)
                     if not p.is_zero() else p)
    if p.is_zero() or q.is_zero():
        assert_same_poly(p + q, q if p.is_zero() else p)
        return
    lo = min(p.min_degree, q.min_degree)
    acc = np.zeros(max(p.max_degree, q.max_degree) - lo + 1, dtype=np.complex128)
    for r in (p, q):  # added into zeros, so -0.0 parts read +0.0
        acc[r.min_degree - lo : r.max_degree - lo + 1] += r.coeffs
    assert_same_poly(p + q, LaurentPoly(acc, lo))


# ---------------------------------------------------------------------------
# evaluation


@st.composite
def points(draw):
    kind = draw(st.sampled_from(["grid", "random", "special", "scalar"]))
    if kind == "grid":
        return CircleGrid(draw(st.sampled_from([1, 2, 3, 8, 64]))).points()
    if kind == "special":
        return np.array([1.0, -1.0, 1j, -1j, complex(-1.0, -0.0), complex(1.0, -0.0)])
    t = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6)))
    z = np.exp(1j * t)
    return complex(z[0]) if kind == "scalar" else z


@settings(max_examples=300, deadline=None)
@given(laurent(), points())
@example(LaurentPoly([-0.0, 0.0], -3), np.array([1.0, -1.0]))
@example(LaurentPoly([complex(0.0, -0.0), 1.0], -4), np.array([complex(-1.0, -0.0)]))
@example(LaurentPoly([1.0, -0.0], 3), np.array([-1.0]))
def test_evaluation_matches_the_horner_loop(p, z):
    got, want = p._evaluate_unchecked(z), old_evaluate(p, z)
    assert np.ndim(got) == np.ndim(z)
    if p.max_degree >= -1:  # the old loop padded no zeros: the same steps, bit for bit
        assert_bitwise(got, want)
        return
    # the old loop ran |min_degree| steps in 1/z through zeros up to degree -1,
    # the new one a step per tap and one power of 1/z; each step rounds by a few eps
    bound = (len(p.coeffs) + abs(p.min_degree)) * 8 * np.finfo(float).eps * np.abs(p.coeffs).sum()
    assert np.max(np.abs(got - want)) <= bound


def test_evaluation_keeps_signed_zeros():
    # the old loop's zero terms between max_degree and -1 turn a -0.0 part
    # into +0.0, and the one power of 1/z gives +0.0 too
    p = LaurentPoly([complex(-1e-3, 0.0)], -3)
    z = np.array([complex(1.0, -0.0)])
    assert_bitwise(p._evaluate_unchecked(z), old_evaluate(p, z))


# ---------------------------------------------------------------------------
# the digit-extraction adjoint


@settings(max_examples=300, deadline=None)
@given(laurent(8), st.integers(2, 5), laurent())
@example(LaurentPoly.monomial(2), 3, LaurentPoly([1.0, 1.0], min_degree=3))
@example(LaurentPoly.zero(), 3, LaurentPoly([1.0, 1.0], min_degree=-3))
@example(LaurentPoly([1.0, 2.0], min_degree=-2), 2, LaurentPoly.zero())
@example(LaurentPoly([1.0, 1e-16], 0), 2, LaurentPoly([1e-16, 1.0], min_degree=-5))
def test_adjoint_matches_product_then_decimation(m, scale, xi):
    got = apply_filter_adjoint(m, scale, xi)
    assert_same_poly(got, old_adjoint(m, scale, xi))
    assert not got.coeffs.flags.writeable


# ---------------------------------------------------------------------------
# the norm


@settings(max_examples=300, deadline=None)
@given(laurent(40))
def test_norm2_is_bitwise_linalg_norm(p):
    got = p.norm2()
    assert type(got) is float
    assert got == float(np.linalg.norm(p.coeffs))


# ---------------------------------------------------------------------------
# the pairing table and the sampled pairing


@settings(max_examples=40, deadline=None)
@given(st.lists(laurent(9), min_size=0, max_size=4))
def test_pairing_table_is_the_per_pair_pairing(polys):
    mat, worst = pairing(polys, 2)
    ref, ref_worst = old_pairing_table(polys, 2, CircleGrid(4096))
    assert mat.tobytes() == ref.tobytes()
    assert worst == ref_worst


def test_pairing_reads_samples_on_one_even_grid(rng):
    # the polynomials are sampled once on N * PAIRING_COSET_POINTS points, 4096 at N = 2,
    # where rotation by rho is a shift by PAIRING_COSET_POINTS points
    polys = [LaurentPoly(rng.normal(size=5) + 1j * rng.normal(size=5), -2),
             LaurentPoly(rng.normal(size=4) + 1j * rng.normal(size=4), -1)]
    for scale in (2, 3, 4):
        mat, worst = pairing(polys, scale)
        grid = CircleGrid(scale * PAIRING_COSET_POINTS)
        ref, ref_worst = old_pairing_table(polys, scale, grid)
        assert mat.tobytes() == ref.tobytes() and worst == ref_worst > 1e-3


# ---------------------------------------------------------------------------
# the Wold shift check reads only the unitary dimension


def test_shift_check_iterates_no_adjoint(monkeypatch):
    def refuse(*args):
        raise AssertionError("the shift check applied an adjoint")

    # a full report reaches the adjoint through both bindings: the exact
    # chain in wold and the window build in cuntz
    monkeypatch.setattr(wold, "apply_filter_adjoint", refuse)
    monkeypatch.setattr(cuntz, "apply_filter_adjoint", refuse)
    for name in ("db4", "haar2", "haar3"):
        assert wold.wavelet_shift_check(fixtures.fixture_bank(name))
    assert not wold.wavelet_shift_check(fixtures.fixture_bank("monomial(0,1)"))
    with pytest.raises(AssertionError, match="adjoint"):
        wold.wold_analysis(fixtures.db4().filters[0], 2)
