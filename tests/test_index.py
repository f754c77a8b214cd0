import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import haar_component_flag, random_poly
from waverep import cli, fixtures, serialize
from waverep import index as index_module
from waverep.filterbank import (
    VERIFY_TOL,
    FilterBank,
    check_bank,
    default_check_grid,
    require_verified,
    unitarity_residual,
)
from waverep.cuntz import apply_filter_isometry, filter_window_adjoint
from waverep.index import (
    LAMBDA_CLUSTER_ARC,
    LAMBDA_DISK_TOL,
    REJECTION_REASONS,
    VALIDATE_TOL,
    WINDOW_MAX,
    combined_isometry_apply,
    pairing,
    spectral_solutions,
)
from waverep.laurent import CircleGrid, LaurentPoly, allclose, invariant_radius, sample

S2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def haar_pair():
    bank = fixtures.haar(2)
    return bank.filters[0], bank.filters[1]


@pytest.fixture(scope="module")
def db4_pair():
    bank = fixtures.db4()
    return bank.filters[0], bank.filters[1]


# ---------------------------------------------------------------------------
# the combined isometry


def test_haar_fixes_constant(haar_pair):
    # symbolic oracle: ((1+z) + (1-z))/2 = 1
    out = combined_isometry_apply(haar_pair, LaurentPoly.one())
    assert allclose(out, LaurentPoly.one(), tol=1e-14)


def test_haar_fixes_inverse_mode(haar_pair):
    # symbolic oracle: ((1+z) z^-2 - (1-z) z^-2)/2 = z^-1
    out = combined_isometry_apply(haar_pair, LaurentPoly.monomial(-1))
    assert allclose(out, LaurentPoly.monomial(-1), tol=1e-14)


def test_monomial_pair_image():
    out = combined_isometry_apply((LaurentPoly.one(), LaurentPoly.monomial(1)), LaurentPoly.one())
    assert allclose(out, LaurentPoly([1 / S2, 1 / S2]), tol=1e-14)


def test_rejects_non_unitary_pair():
    with pytest.raises(ValueError):
        combined_isometry_apply((LaurentPoly.one(), LaurentPoly.one()), LaurentPoly.one())


def test_a_pair_just_above_the_verify_tolerance_is_refused_like_check(haar_pair):
    # m_0 scaled by 1 + 1e-9: unitarity residual 2e-9, between VERIFY_TOL = 1e-10
    # and the 1e-8 at which the index gate used to pass it (with index 2)
    f0, f1 = haar_pair[0] * (1.0 + 1e-9), haar_pair[1]
    bank = FilterBank(2, (f0, f1))
    assert VERIFY_TOL < unitarity_residual(bank) < 1e-8
    assert not check_bank(bank).verified
    gates = (lambda: require_verified(bank), lambda: spectral_solutions(f0, f1),
             lambda: combined_isometry_apply((f0, f1), LaurentPoly.one()))
    for gate in gates:
        with pytest.raises(ValueError, match="not verified"):
            gate()


def test_apply_is_isometric(haar_pair, db4_pair, rng):
    for pair in (haar_pair, db4_pair):
        for _ in range(6):
            xi = random_poly(rng, 16)
            out = combined_isometry_apply(pair, xi, check=False)
            assert out.norm2() == pytest.approx(xi.norm2(), rel=1e-12)


@pytest.mark.parametrize("n, d", [(3, 2**62 + 1), (5, 2**61)])
def test_the_rotation_reduces_the_degree_before_the_product(n, d):
    # (n - 1) d >= 2^63, so k d wraps in int64 unless d is reduced mod n
    # first; the haar filters send z^d to the single monomial z^(n d + d mod n)
    filters = fixtures.haar(n).filters
    roots = CircleGrid(n).points()
    reduced = (apply_filter_isometry(m, n, LaurentPoly.monomial(d, roots[k * (d % n) % n]))
               for k, m in enumerate(filters))
    want = sum(reduced, LaurentPoly.zero()) * (1.0 / math.sqrt(n))
    got = combined_isometry_apply(filters, LaurentPoly.monomial(d))
    assert got == want
    assert len(got.coeffs) == 1 and got.min_degree == n * d + d % n


# ---------------------------------------------------------------------------
# spectral solutions and the index


def test_haar_index_two(haar_pair):
    rep = spectral_solutions(*haar_pair, window=32)
    assert rep.index == 2
    assert rep.anomaly is None
    assert all(abs(s.eigenvalue - 1.0) < 1e-8 for s in rep.solutions)
    assert all(s.residual < 1e-10 for s in rep.solutions)
    # the validated span is exactly span{1, z^-1}: project onto those modes
    basis = np.stack([s.eigenvector.coeff_window(-1, 0) for s in rep.solutions])
    assert np.linalg.matrix_rank(basis, tol=1e-8) == 2
    for s in rep.solutions:
        outside = s.eigenvector - LaurentPoly(s.eigenvector.coeff_window(-1, 0), min_degree=-1)
        assert outside.norm2() < 1e-10


def test_haar_solutions_verified_symbolically(haar_pair):
    # independent oracle: feed each reported vector through the exact action
    rep = spectral_solutions(*haar_pair, window=32)
    for s in rep.solutions:
        image = combined_isometry_apply(haar_pair, s.eigenvector, check=False)
        assert (image - s.eigenvalue * s.eigenvector).norm2() < 1e-10


def test_monomial_pair_index_zero():
    rep = spectral_solutions(LaurentPoly.one(), LaurentPoly.monomial(1), window=32)
    assert rep.index == 0 and not rep.solutions


def test_db4_index_zero(db4_pair):
    rep = spectral_solutions(*db4_pair, window=32)
    assert rep.index == 0


def test_window_stability(haar_pair, db4_pair):
    for pair in (haar_pair, db4_pair):
        assert (spectral_solutions(*pair, window=32).index
                == spectral_solutions(*pair, window=64).index)


def test_sign_flip_kills_unitary_part(haar_pair):
    # flipping the band filter's sign reroutes the mode pairing so that no
    # Fourier orbit closes; the index drops to 0
    f0, f1 = haar_pair
    rep = spectral_solutions(f0, -1.0 * f1, window=32)
    assert rep.index == 0


def test_even_monomial_twist_keeps_unitarity(haar_pair, rng):
    f0, f1 = haar_pair
    twisted = LaurentPoly.monomial(2) * f1
    rep = spectral_solutions(f0, twisted, window=32)
    assert rep.index in (0, 1, 2) and rep.anomaly is None


def test_random_pairs_index_in_range(rng):
    for _ in range(10):
        bank = fixtures.random_paraunitary_bank(2, 3, rng)
        rep = spectral_solutions(bank.filters[0], bank.filters[1], window=32)
        assert rep.index in (0, 1, 2)
        assert rep.anomaly is None
        assert rep.pairing_residual < 1e-8


# ---------------------------------------------------------------------------
# the pairing


def test_pairing_constants():
    mat, dev = pairing([LaurentPoly.one()], 2)
    assert mat[0, 0] == pytest.approx(2.0) and dev < 1e-12


def test_pairing_orthogonal_modes():
    mat, dev = pairing([LaurentPoly.one(), LaurentPoly.monomial(-1)], 2)
    assert abs(mat[0, 1]) < 1e-12 and dev < 1e-12


def test_pairing_nonconstant_diagnostic():
    # oracle: the function is 2 z^2, so the max deviation from its mean is 2;
    # the diagonal entries are the constants |1|^2 and |z^2|^2 summed, 2 each
    mat, dev = pairing([LaurentPoly.one(), LaurentPoly.monomial(2)], 2)
    assert abs(mat[0, 1]) < 1e-12
    assert dev == pytest.approx(2.0, abs=1e-10)


def rolled_pairing(pv, sv):
    """The pairing of two sample vectors folded by two rolls over the whole grid."""
    half = len(pv) // 2
    re = pv.real * sv.real + pv.imag * sv.imag
    im = pv.real * sv.imag - pv.imag * sv.real
    re = re + np.roll(re, -half)
    im = im + np.roll(im, -half)
    mean = complex(np.mean(re), np.mean(im))
    return mean, float(np.max(np.hypot(re - mean.real, im - mean.imag)))


@pytest.mark.parametrize("m", [2, 6, 10, 130, 258, 1000, 4096, 4098])
def test_pairing_is_bitwise_the_rolled_fold(m, rng):
    # two polynomials of m coefficients on the 4096-point pairing grid: each
    # table entry is summed in the same order as over the rolled sum, not
    # over one half, and the defect is the worst of the three pairs
    grid = default_check_grid(2)
    for _ in range(5):
        phi, psi = (LaurentPoly(rng.normal(size=m) + 1j * rng.normal(size=m), -(m // 2))
                    for _ in range(2))
        mat, dev = pairing([phi, psi], 2)
        pv, sv = sample(phi, grid).values, sample(psi, grid).values
        (v00, d00), (v01, d01), (v11, d11) = (rolled_pairing(*pair)
                                              for pair in ((pv, pv), (pv, sv), (sv, sv)))
        ref = np.array([[v00, v01], [np.conj(v01), v11]])
        assert mat.tobytes() == ref.tobytes()
        assert dev == max(d00, d01, d11)


def test_pairing_matrix_psd_on_haar(haar_pair):
    rep = spectral_solutions(*haar_pair, window=32)
    eigs = np.linalg.eigvalsh(rep.pairing_matrix)
    assert eigs[0] >= -1e-10
    assert rep.pairing_residual < 1e-10


# ---------------------------------------------------------------------------
# the flag


def test_flag_haar(haar_pair):
    assert haar_component_flag(*haar_pair, window=32)


def test_flag_db4(db4_pair):
    assert not haar_component_flag(*db4_pair, window=32)


def test_flag_records_twisted_experiments(haar_pair):
    # nonconstant-phase retwists of the band filter: no asserted ground
    # truth, only that the report stays structurally sane
    f0, f1 = haar_pair
    for k in (2, 4):
        rep = spectral_solutions(f0, LaurentPoly.monomial(k) * f1, window=32)
        assert rep.index in (0, 1, 2)


# ---------------------------------------------------------------------------
# the window the filters fix, against the dense solve on the full window


def dense_reference(filters, window):
    """The dense per-column solve on [-K, K]: validated eigenvalue clusters and their span.

    Returns {eigenvalue: dimension} and an orthonormal basis (columns, on the
    coefficient window [-K, K]) of everything that passed the exact check.
    """
    k = window
    mat = np.zeros((2 * k + 1, 2 * k + 1), dtype=np.complex128)
    for col, mode in enumerate(range(-k, k + 1)):
        image = combined_isometry_apply(filters, LaurentPoly.monomial(mode), check=False)
        mat[:, col] = image.coeff_window(-k, k)
    eigvals, eigvecs = np.linalg.eig(mat)
    clusters: list[list] = []
    for lam, vec in zip(eigvals, eigvecs.T):
        if abs(lam) < 1.0 - LAMBDA_DISK_TOL:
            continue
        phi = LaurentPoly(vec, min_degree=-k)
        if phi.norm2() < 1e-12:
            continue
        phi = phi * (1.0 / phi.norm2())
        if (combined_isometry_apply(filters, phi, check=False) - lam * phi).norm2() > VALIDATE_TOL:
            continue
        for cl in clusters:
            if abs(np.angle(lam / cl[0][0])) <= LAMBDA_CLUSTER_ARC:
                cl.append((lam, phi))
                break
        else:
            clusters.append([(lam, phi)])
    dims, columns = {}, []
    for cl in clusters:
        stack = np.stack([p.coeff_window(-k, k) for _, p in cl])
        u, svals, _ = np.linalg.svd(stack.T, full_matrices=False)
        rank = int(np.sum(svals > 1e-8 * max(1.0, svals[0])))
        dims[complex(cl[0][0])] = rank
        columns.append(u[:, :rank])
    basis = np.hstack(columns) if columns else np.zeros((2 * k + 1, 0))
    return dims, basis


def planted_pair(c0, c1, p, q):
    """Polyphase diag(c0 w^p, c1 w^q): the isometry fixes z^-2p and z^-(2q+1) up to c0, c1."""
    a, b = LaurentPoly.monomial(2 * p, c0), LaurentPoly.monomial(2 * q + 1, c1)
    return (a + b) * (1 / S2), (a - b) * (1 / S2)


def _window_cases():
    cases = {}
    for name in ("haar2", "db4", "monomial(0,1)", "monomial(2,-1)"):
        cases[name] = fixtures.fixture_bank(name).filters
    rng = np.random.default_rng(7)
    for i in range(3):
        cases[f"paraunitary{i}"] = fixtures.random_paraunitary_bank(2, 3, rng).filters
    for i in range(3):
        p, q = (int(x) for x in rng.integers(-12, 13, size=2))
        c0, c1 = np.exp(2j * np.pi * rng.random(2))
        cases[f"planted{i}"] = planted_pair(c0, c1, p, q)
    f0, f1 = fixtures.haar(2).filters
    cases["haar2_sign_flip"] = (f0, -1.0 * f1)
    cases["haar2_twist"] = (f0, LaurentPoly.monomial(2) * f1)
    return cases


WINDOW_CASES = _window_cases()


def filter_window(f0, f1):
    return max(-min(f0.min_degree, f1.min_degree), f0.max_degree, f1.max_degree, 0)


@pytest.mark.parametrize("window", [64, 256])
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_solve_on_the_filter_window_matches_the_dense_solve(case, window):
    f0, f1 = WINDOW_CASES[case]
    rep = spectral_solutions(f0, f1, window=window)
    dims, basis = dense_reference((f0, f1), window)
    assert rep.window == filter_window(f0, f1)
    assert rep.index == sum(dims.values()) == len(rep.solutions)
    got = sorted(rep.eigenspace_dims.items(), key=lambda kv: np.angle(kv[0]))
    want = sorted(dims.items(), key=lambda kv: np.angle(kv[0]))
    assert [d for _, d in got] == [d for _, d in want]
    assert all(abs(a - b) <= 1e-12 for (a, _), (b, _) in zip(got, want))
    for s in rep.solutions:
        assert any(abs(s.eigenvalue - lam) <= 1e-12 for lam in dims)
        assert s.residual <= VALIDATE_TOL
    assert rep.pairing_residual < 1e-8
    # the projector onto the validated span, on the full coefficient window
    k = window
    ours = np.stack([s.eigenvector.coeff_window(-k, k) for s in rep.solutions], axis=1) \
        if rep.solutions else np.zeros((2 * k + 1, 0))
    q, _ = np.linalg.qr(ours)
    assert np.max(np.abs(q @ q.conj().T - basis @ basis.conj().T), initial=0.0) <= 1e-12


def test_report_window_is_the_solved_window():
    f0, f1 = planted_pair(1.0, 1.0, 6, -5)  # degrees -9..12, so R = 12
    assert filter_window(f0, f1) == 12
    # a window below R would cut the block that holds the unit-circle
    # spectrum (it gave index 0, 0 and 1 at windows 4, 8 and 10): refused
    for window in (4, 8, 10):
        with pytest.raises(ValueError, match="R = 12"):
            spectral_solutions(f0, f1, window=window)
    for window in (12, 64, WINDOW_MAX):
        rep = spectral_solutions(f0, f1, window=window)
        assert rep.window == 12 and rep.index == 2


def test_haar_at_window_zero_is_refused(haar_pair):
    # R = 1; the solve on the 1-mode window [0, 0] reported index 1
    with pytest.raises(ValueError, match="R = 1"):
        spectral_solutions(*haar_pair, window=0)
    assert spectral_solutions(*haar_pair, window=1).index == 2


def test_window_outside_its_range_is_refused(haar_pair):
    for window in (-1, WINDOW_MAX + 1, 4096):
        with pytest.raises(ValueError, match="window must be in"):
            spectral_solutions(*haar_pair, window=window)


@pytest.mark.parametrize("case", ["haar2", "db4", "planted0", "paraunitary0"])
def test_exact_applies_do_not_grow_with_the_window(case, monkeypatch):
    f0, f1 = WINDOW_CASES[case]
    k = filter_window(f0, f1)
    # candidates: eigenvalues of the solved compression on or outside the disk tolerance
    mat = per_column_compression((f0, f1), k)
    candidates = int(np.sum(np.abs(np.linalg.eigvals(mat)) >= 1.0 - LAMBDA_DISK_TOL))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return combined_isometry_apply(*args, **kwargs)

    monkeypatch.setattr(index_module, "combined_isometry_apply", counting)
    counts = []
    for window in (64, 256):
        calls.clear()
        spectral_solutions(f0, f1, window=window)
        # one apply per candidate column; the compression and the solutions take none
        assert len(calls) == candidates
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_db4_at_a_large_window_is_fast(db4_pair):
    start = time.perf_counter()
    rep = spectral_solutions(*db4_pair, window=WINDOW_MAX)
    assert time.perf_counter() - start < 0.5
    assert rep.index == 0 and rep.window == 5  # db4 spans degrees 0..5


# ---------------------------------------------------------------------------
# the compression read from the window matrices, against the per-column exact action


def per_column_compression(filters, k):
    return np.stack([combined_isometry_apply(filters, LaurentPoly.monomial(n), check=False)
                     .coeff_window(-k, k) for n in range(-k, k + 1)], axis=1)


def window_compression(filters, r):
    """(N^(-1/2) sum_k diag(rho^(-kn)) V_k*)^H on W = [-r, r], from cuntz.filter_window_adjoint."""
    n = len(filters)
    modes = np.arange(-r, r + 1)
    adjoint = sum(np.exp(-2j * np.pi * (k * modes % n) / n)[:, None] * filter_window_adjoint(m, n, r)
                  for k, m in enumerate(filters))
    return adjoint.conj().T / math.sqrt(n)


def solved_compression(filters, monkeypatch, window=64):
    """The matrix whose eigenvalues spectral_solutions computes."""
    seen, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a.copy()) or eigvals(a))
    spectral_solutions(*filters, window=window)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    return seen[0]


def bank_radius(filters):
    return invariant_radius(min(f.min_degree for f in filters), max(f.max_degree for f in filters),
                            len(filters))


def assert_compression_matches_columns(f0, f1):
    r0 = bank_radius((f0, f1))
    for r in (r0, r0 + 1, r0 + 3):
        got = window_compression((f0, f1), r)
        assert got.shape == (2 * r + 1, 2 * r + 1)
        assert np.max(np.abs(got - per_column_compression((f0, f1), r)), initial=0.0) <= 1e-15


# dyadic coefficients: a sum either cancels exactly or stays far above the
# 1e-14 edge trimming of LaurentPoly, so the two paths see the same taps
_dyadic = st.builds(lambda re, im: complex(re, im) / 16,
                    st.integers(-64, 64), st.integers(-64, 64))


@st.composite
def _laurent(draw, lo_min, lo_max):
    coeffs = draw(st.lists(_dyadic, min_size=1, max_size=9))
    coeffs[0] = coeffs[0] or 1.0
    coeffs[-1] = coeffs[-1] or 1.0
    return LaurentPoly(coeffs, min_degree=draw(st.integers(lo_min, lo_max)))


@settings(max_examples=60, deadline=None)
@given(_laurent(-12, -1), _laurent(-12, 12))
def test_compression_equals_the_per_column_apply(f0, f1):
    assert_compression_matches_columns(f0, f1)
    assert_compression_matches_columns(f1, f0)


@settings(max_examples=30, deadline=None)
@given(st.integers(-48, 0), st.integers(16, 48), _dyadic, _dyadic)
def test_compression_of_monomials_with_wide_gaps(a, gap, c0, c1):
    f0, f1 = LaurentPoly.monomial(a, c0 or 1.0), LaurentPoly.monomial(a + gap, c1 or 1.0)
    assert_compression_matches_columns(f0, f1)
    assert_compression_matches_columns(f1, f0)


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_compression_of_every_window_case(case, monkeypatch):
    filters = WINDOW_CASES[case]
    assert_compression_matches_columns(*filters)
    got = solved_compression(filters, monkeypatch)
    ref = per_column_compression(filters, bank_radius(filters))
    assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-15


def windowed_compression(f0, f1, k):
    """The scale-2 compression as one gather from sliding windows of the tap tables."""
    from numpy.lib.stride_tricks import sliding_window_view

    dim = 2 * k + 1
    c0 = f0.coeff_window(-3 * k, 3 * k)
    c1 = f1.coeff_window(-3 * k, 3 * k)
    tables = np.stack([c0 + c1, c0 - c1]) * (1.0 / math.sqrt(2.0))
    windows = sliding_window_view(tables, dim, axis=1)  # [p, a, i] = tables[p, a + i]
    cols = np.arange(dim)
    return windows[(cols - k) % 2, 4 * k - 2 * cols].T


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_compression_is_bitwise_the_sliding_window_gather(case, monkeypatch):
    # the scale-2 gather of the taps that the window matrices replace: every
    # entry is the same value; only the sign of a zero may differ, since the
    # window route conjugates twice and multiplies by the phases +-1
    filters = WINDOW_CASES[case]
    got, ref = solved_compression(filters, monkeypatch), windowed_compression(*filters, bank_radius(filters))
    assert got.shape == ref.shape and np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# scale N


@pytest.mark.parametrize("factors", [1, 2, 3])
@pytest.mark.parametrize("scale", [3, 4, 5])
def test_scale_n_banks_against_the_dense_compression(scale, factors, monkeypatch):
    rng = np.random.default_rng([scale, factors])
    filters = fixtures.random_paraunitary_bank(scale, factors, rng).filters
    r, k = bank_radius(filters), 64
    dense = per_column_compression(filters, k)
    got = solved_compression(filters, monkeypatch)
    assert np.max(np.abs(got - dense[k - r : k + r + 1, k - r : k + r + 1])) <= 1e-15
    rep = spectral_solutions(*filters)
    dims, _ = dense_reference(filters, k)
    assert rep.window == r and rep.index == sum(dims.values()) == len(rep.solutions)
    assert rep.anomaly is None


@pytest.mark.parametrize("scale", [2, 3, 5, 8])
def test_in_place_compression_is_bitwise_the_summed_windows(scale, monkeypatch):
    # the eigensolved matrix, summed, conjugated and scaled in place, against
    # the sum of freshly phased windows conjugated and scaled out of place
    filters = fixtures.random_paraunitary_bank(scale, 3, np.random.default_rng(scale)).filters
    r = bank_radius(filters)
    phases = CircleGrid(scale).points()[
        -np.arange(scale)[:, None] * np.arange(-r, r + 1) % scale]
    ref = sum(phases[j][:, None] * filter_window_adjoint(m, scale, r)
              for j, m in enumerate(filters)).conj().T * (1.0 / math.sqrt(scale))
    got = solved_compression(filters, monkeypatch)
    assert got.shape == ref.shape and got.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("scale", [3, 4, 5, 8])
def test_haar_n_index_two_on_one_and_inverse_mode(scale):
    filters = fixtures.haar(scale).filters
    rep = spectral_solutions(*filters)
    assert rep.index == 2 and rep.eigenspace_dims and all(
        abs(lam - 1.0) <= 1e-12 for lam in rep.eigenspace_dims)
    for s in rep.solutions:
        outside = s.eigenvector - LaurentPoly(s.eigenvector.coeff_window(-1, 0), min_degree=-1)
        assert outside.norm2() < 1e-10 and s.residual < 1e-10
    assert np.max(np.abs(rep.pairing_matrix - scale * np.eye(2))) <= 1e-12
    assert rep.pairing_residual <= 1e-12


@pytest.mark.parametrize("scale", [3, 4, 5, 8])
def test_haar_n_fixes_the_inverse_mode_under_the_forward_rotation(scale):
    # symbolic oracle: sum_k rho^(-k) m_k = sqrt(N) z^(N-1) for haarN, so
    # M z^(-1) = z^(-1); the reversed rotation xi(rho^(-k) z^N) sums
    # rho^k m_k = sqrt(N) z and sends z^(-1) to z^(1-N)
    filters = fixtures.haar(scale).filters
    probe = LaurentPoly.monomial(-1)
    assert allclose(combined_isometry_apply(filters, probe), probe, tol=1e-14)
    rho = np.exp(2j * np.pi / scale)
    reversed_rotation = sum((m * LaurentPoly.monomial(-scale, rho ** k) for k, m in enumerate(filters)),
                            LaurentPoly.zero()) * (1 / math.sqrt(scale))
    assert allclose(reversed_rotation, LaurentPoly.monomial(1 - scale), tol=1e-14)


# ---------------------------------------------------------------------------
# the pairing table, sampled on a <= b only


def full_pairing_table(polys):
    """Every ordered pair paired on its own: the table before its Hermitian symmetry was used."""
    n = len(polys)
    mat = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for a in range(n):
        for b in range(n):
            pair, dev = pairing([polys[a], polys[b]], 2)
            mat[a, b] = pair[0, 1]
            worst = max(worst, dev)
    return mat, worst


@pytest.mark.parametrize("case", ["haar2", "planted0", "planted1", "planted2"])
def test_hermitian_pairing_table_is_bitwise_the_full_loop(case):
    rep = spectral_solutions(*WINDOW_CASES[case], window=64)
    assert len(rep.solutions) == 2
    polys = [s.eigenvector for s in rep.solutions]
    mat, worst = pairing(polys, 2)
    ref_mat, ref_worst = full_pairing_table(polys)
    assert mat.tobytes() == ref_mat.tobytes()
    assert worst == ref_worst
    assert rep.pairing_matrix.tobytes() == ref_mat.tobytes()


def test_hermitian_pairing_table_on_random_non_eigenvectors(rng):
    # not eigenvectors, so the pairing is far from constant: the deviations,
    # not only the values, must come out bitwise equal
    polys = [random_poly(rng, 6) for _ in range(4)]
    mat, worst = pairing(polys, 2)
    ref_mat, ref_worst = full_pairing_table(polys)
    assert mat.tobytes() == ref_mat.tobytes()
    assert worst == ref_worst > 1e-3


def exact_pairing(phi, psi, scale):
    """N c_0, and N sum |c_m| over the lags m != 0 that N divides, for the coefficients'
    cross-correlation c_m = sum_i conj(phi_i) psi_(i + m): the pairing of phi and psi
    is N sum_(N | m) c_m z^m, so these are its mean and a bound on its deviation."""
    lo, hi = min(phi.min_degree, psi.min_degree), max(phi.max_degree, psi.max_degree)
    c = np.correlate(psi.coeff_window(lo, hi), phi.coeff_window(lo, hi), "full")
    lags = np.arange(len(c)) - (hi - lo)
    others = (lags % scale == 0) & (lags != 0)
    return scale * c[hi - lo], scale * float(np.sum(np.abs(c[others])))


@pytest.mark.parametrize("case", ["random2", "random3", "random4", "haar2", "haar3", "haar4",
                                  "haar64", "haar256", "planted0", "planted1", "planted2"])
def test_sampled_pairing_agrees_with_the_exact_formula(case, rng):
    if case.startswith("random"):
        scale = int(case.removeprefix("random"))
        polys = [random_poly(rng, 4) for _ in range(3)]
    else:
        filters = WINDOW_CASES[case] if case.startswith("planted") else fixtures.haar(
            int(case.removeprefix("haar"))).filters
        scale = len(filters)
        polys = [s.eigenvector for s in spectral_solutions(*filters).solutions]
        assert len(polys) == 2
    mat, worst = pairing(polys, scale)
    bound = 0.0
    for a, phi in enumerate(polys):
        for b, psi in enumerate(polys):
            value, spread = exact_pairing(phi, psi, scale)
            assert abs(mat[a, b] - value) <= 1e-12 * (1 + abs(value))
            bound = max(bound, spread)
    # the table's defect is the worst pair's, so it is at most the worst pair's bound
    assert worst <= bound + 1e-12
    if case.startswith("random"):
        assert worst > 1e-3  # far from constant: the bound is not met by rounding alone


@pytest.mark.parametrize("scale", [2, 3, 4, 5])
@pytest.mark.parametrize("offset", [0, 60, -60, 2**20, -2**20, 2**40, -2**40])
def test_far_monomials_pair_constantly(scale, offset):
    # z^(d + r), r = 0..N-1, pair to N I exactly; their samples are entries of
    # the one table of roots, so the defect is rounding of the N-term coset
    # sums alone, where a power z^d erred by about |d| eps
    polys = [LaurentPoly.monomial(offset + r) for r in range(scale)]
    mat, worst = pairing(polys, scale)
    bound = 4 * scale * np.finfo(float).eps
    assert worst <= bound
    assert np.max(np.abs(mat - scale * np.eye(scale))) <= bound


# ---------------------------------------------------------------------------
# rejected candidates and the exact applies that validate the rest


def dense_rejections(f0, f1, k):
    """The dense per-column solve on [-k, k], recounting why each eigenpair is not kept."""
    eigvals, eigvecs = np.linalg.eig(per_column_compression((f0, f1), k))
    counts = dict.fromkeys(REJECTION_REASONS, 0)
    for lam, vec in zip(eigvals, eigvecs.T):
        if abs(lam) < 1.0 - LAMBDA_DISK_TOL:
            counts["inside_disk"] += 1
            continue
        phi = LaurentPoly(vec, min_degree=-k)
        phi = phi * (1.0 / phi.norm2())
        if (combined_isometry_apply((f0, f1), phi, check=False) - lam * phi).norm2() > VALIDATE_TOL:
            counts["failed_validation"] += 1
    return counts


@pytest.mark.parametrize("case, window, pinned", [
    ("haar2", 64, {"inside_disk": 1, "failed_validation": 0}),
    ("db4", 64, {"inside_disk": 11, "failed_validation": 0}),
    ("planted0", 64, {"inside_disk": 13, "failed_validation": 0}),
])
def test_rejection_counts(case, window, pinned):
    f0, f1 = WINDOW_CASES[case]
    rep = spectral_solutions(f0, f1, window=window)
    assert rep.rejected == dense_rejections(f0, f1, rep.window) == pinned
    survivors = 2 * rep.window + 1 - sum(rep.rejected.values())
    assert survivors >= rep.index


def test_rejection_counts_need_the_whole_window():
    # planted0 has R = 7; its solve on [-4, 4] rejected 8 of 9 eigenpairs
    f0, f1 = WINDOW_CASES["planted0"]
    assert filter_window(f0, f1) == 7
    with pytest.raises(ValueError, match="R = 7"):
        spectral_solutions(f0, f1, window=4)


def test_failed_validations_are_counted(haar_pair, monkeypatch):
    # a tolerance that no residual meets: both unit-circle candidates fail
    monkeypatch.setattr(index_module, "VALIDATE_TOL", -1.0)
    rep = spectral_solutions(*haar_pair, window=64)
    assert rep.index == 0 and not rep.solutions
    assert rep.rejected == {"inside_disk": 1, "failed_validation": 2}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_applies_are_candidates_plus_solutions(case, monkeypatch):
    f0, f1 = WINDOW_CASES[case]
    k = filter_window(f0, f1)
    candidates = int(np.sum(np.abs(np.linalg.eigvals(per_column_compression((f0, f1), k)))
                            >= 1.0 - LAMBDA_DISK_TOL))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return combined_isometry_apply(*args, **kwargs)

    monkeypatch.setattr(index_module, "combined_isometry_apply", counting)
    rep = spectral_solutions(f0, f1, window=64)
    assert rep.rejected["inside_disk"] == 2 * k + 1 - candidates
    # one apply maps each candidate column into the residual block, whose
    # singular values are the solutions' residuals; the compression takes none
    assert len(calls) == candidates


# ---------------------------------------------------------------------------
# eigenvalues first: no eigenvector matrix, one rank rule per cluster


def _no_eig(*args, **kwargs):
    raise AssertionError("np.linalg.eig was called")


@pytest.mark.parametrize("case", sorted(WINDOW_CASES) + [f"haar{n}" for n in (3, 4, 5, 8)])
def test_the_solve_never_forms_the_eigenvector_matrix(case, monkeypatch):
    filters = WINDOW_CASES[case] if case in WINDOW_CASES else fixtures.haar(int(case[4:])).filters
    monkeypatch.setattr(np.linalg, "eig", _no_eig)
    rep = spectral_solutions(*filters, window=64)
    assert rep.index == len(rep.solutions) <= 2


def test_a_planted_pair_with_equal_phases_is_one_eigenvalue_of_dimension_two(rng):
    c = np.exp(2j * np.pi * rng.random())
    f0, f1 = planted_pair(c, c, 3, -4)
    rep = spectral_solutions(f0, f1, window=64)
    assert len(rep.eigenspace_dims) == 1 and rep.index == len(rep.solutions) == 2
    (lam, dim), = rep.eigenspace_dims.items()
    assert dim == 2 and abs(lam - c) <= 1e-12
    assert rep.rejected == {"inside_disk": 2 * rep.window + 1 - 2, "failed_validation": 0}
    # the reported pair spans z^-6 and z^7, orthonormally
    basis = np.stack([s.eigenvector.coeff_window(-6, 7)[[0, -1]] for s in rep.solutions])
    assert np.max(np.abs(basis @ basis.conj().T - np.eye(2))) <= 1e-12
    assert all(abs(s.eigenvector.norm2() - 1.0) <= 1e-12 for s in rep.solutions)


def test_two_clusters_give_equal_reports(capsys, tmp_path):
    f0, f1 = WINDOW_CASES["planted1"]
    assert len(spectral_solutions(f0, f1, window=64).eigenspace_dims) == 2
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(serialize.bank_to_dict(FilterBank(2, (f0, f1)))))
    reports = []
    for _ in range(2):
        assert cli.run(["index", "--bank", str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        rep.pop("elapsed")
        reports.append(rep)
    assert reports[0] == reports[1] and reports[0]["info"]["index"] == 2
