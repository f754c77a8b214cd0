import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import angle_rule, exact_sample, random_poly, split_cycles
from waverep import filterbank, fixtures, wold
from waverep.filterbank import qmf_residual
from waverep.laurent import CircleGrid, GridFunction, LaurentPoly, invariant_radius, sample
from waverep.wold import (
    UNIMODULAR_TOL,
    isometry_residual,
    range_projection_norms,
    wavelet_shift_check,
    wold_analysis,
)


# ---------------------------------------------------------------------------
# projection decay


def test_haar_decay_matches_geometric(haar_bank):
    # oracle: S* 1 = 2^(-1/2), and S is isometric, so ||E_k 1|| = 2^(-k/2)
    norms = range_projection_norms(haar_bank.filters[0], 2, [LaurentPoly.one()], 20)[0]
    for k, val in enumerate(norms):
        assert val == pytest.approx(2 ** (-k / 2), abs=1e-12)


def test_projection_norms_match_explicit_composition(haar_bank, db4_bank, rng, monkeypatch):
    # brute-force oracle: actually build S^k S*^k xi for small k and compare,
    # for a batch of probes on both routes: the window matrix (haar, db4, z:
    # 2R+1 <= 5 probes x 6 steps) and the exact chain (z^2049: 4099 modes)
    from waverep.cuntz import apply_filter_adjoint, apply_filter_isometry

    windows = []
    build = wold.filter_window_adjoint
    monkeypatch.setattr(wold, "filter_window_adjoint",
                        lambda *a: windows.append(a[2]) or build(*a))
    for m, on_window in ((haar_bank.filters[0], True), (db4_bank.filters[1], True),
                         (LaurentPoly.monomial(1), True), (LaurentPoly.monomial(2049), False)):
        # the fourth probe reaches outside every window above: degrees -40..40
        probes = [random_poly(rng, 5, unit_norm=True), LaurentPoly.one(), LaurentPoly.monomial(-1),
                  random_poly(rng, 40, unit_norm=True), LaurentPoly.zero()]
        windows.clear()
        batch = range_projection_norms(m, 2, probes, 6)
        radius = invariant_radius(m.min_degree, m.max_degree, 2)
        assert windows == ([radius] if on_window else [])
        assert len(batch) == len(probes)
        for probe, norms in zip(probes, batch):
            assert len(norms) == 7
            for k in range(7):
                vec = probe
                for _ in range(k):
                    vec = apply_filter_adjoint(m, 2, vec)
                for _ in range(k):
                    vec = apply_filter_isometry(m, 2, vec)
                assert norms[k] == pytest.approx(vec.norm2(), abs=1e-12)


def test_unitary_vector_stays():
    norms = range_projection_norms(LaurentPoly.monomial(1), 2, [LaurentPoly.monomial(-1)], 12)[0]
    assert np.allclose(norms, 1.0, atol=1e-13)


def test_constant_filter_constant_probe():
    norms = range_projection_norms(LaurentPoly.one(), 2, [LaurentPoly.one()], 8)[0]
    assert np.allclose(norms, 1.0, atol=1e-13)


def test_decay_nonincreasing(db4_bank, rng):
    for _ in range(4):
        probe = random_poly(rng, 8, unit_norm=True)
        norms = range_projection_norms(db4_bank.filters[0], 2, [probe], 12)[0]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_rejects_non_isometry():
    with pytest.raises(ValueError):
        range_projection_norms(LaurentPoly([1.0, 1.0]), 2, [LaurentPoly.one()], 4)


def test_rejects_grid_probe():
    g = CircleGrid(63)
    with pytest.raises(TypeError):
        range_projection_norms(sample(LaurentPoly.monomial(1), g), 2, [LaurentPoly.one()], 4)


@pytest.mark.parametrize("k_max", [0, 3])
def test_rejects_a_grid_probe_at_any_k_max(k_max):
    probe = sample(LaurentPoly.one(), CircleGrid(63))
    with pytest.raises(TypeError):
        range_projection_norms(LaurentPoly.monomial(1), 2, [LaurentPoly.one(), probe], k_max)


def test_rejects_a_negative_k_max():
    with pytest.raises(ValueError):
        range_projection_norms(LaurentPoly.monomial(1), 2, [LaurentPoly.one()], -3)
    assert range_projection_norms(LaurentPoly.monomial(1), 2, [LaurentPoly.one()], 0) == [[1.0]]
    assert range_projection_norms(LaurentPoly.monomial(1), 2, [], 5) == []


# ---------------------------------------------------------------------------
# classification


def test_constant_unimodular_filter():
    lam0 = np.exp(0.41j)
    rep = wold_analysis(LaurentPoly([lam0]), 2)
    assert rep.unitary_dim == 1
    assert abs(rep.eigenvalue - lam0) < 1e-12
    assert rep.eigenfunction == LaurentPoly.one()
    assert rep.cocycle_residual < 1e-12


def test_single_shift_mode():
    rep = wold_analysis(LaurentPoly.monomial(1), 2)
    assert rep.unitary_dim == 1
    assert abs(rep.eigenvalue - 1.0) < 1e-12
    assert rep.eigenfunction == LaurentPoly.monomial(-1)
    assert rep.cocycle_residual < 1e-10
    assert rep.anomaly is None


def test_haar_lowpass_is_shift(haar_bank):
    rep = wold_analysis(haar_bank.filters[0], 2)
    assert rep.unitary_dim == 0
    # oracle: |m_0(1)| = sqrt(2) while |m_0(i)| = 1, so |m| is not constant
    assert rep.unimodularity_residual > 0.4
    assert rep.eigenvalue is None and rep.eigenfunction is None


def test_db4_lowpass_is_shift(db4_bank):
    assert wold_analysis(db4_bank.filters[0], 2).unitary_dim == 0


def test_monomial_without_fixed_mode():
    # z at scale 3: 3k + 1 = k has no integer solution, so no unitary part
    rep = wold_analysis(LaurentPoly.monomial(1), 3)
    assert rep.unitary_dim == 0
    assert rep.unimodularity_residual < 1e-12
    assert rep.anomaly is None


def test_monomial_with_fixed_mode_scale3():
    rep = wold_analysis(LaurentPoly.monomial(2), 3)
    assert rep.unitary_dim == 1
    assert rep.eigenfunction == LaurentPoly.monomial(-1)


def test_eigenvalue_tracks_filter_phase():
    lam0 = np.exp(1.1j)
    rep = wold_analysis(LaurentPoly.monomial(2, lam0), 2)
    assert rep.unitary_dim == 1
    assert abs(rep.eigenvalue - lam0) < 1e-12
    assert rep.eigenfunction == LaurentPoly.monomial(-2)


def test_grid_input_single_shift_mode():
    g = CircleGrid.dynamics_grid(2)
    rep = wold_analysis(sample(LaurentPoly.monomial(1), g), 2)
    assert rep.unitary_dim == 1
    assert abs(rep.eigenvalue - 1.0) < 1e-10
    assert rep.cocycle_residual < 1e-10
    assert rep.grid_screen
    xi = rep.eigenfunction
    assert np.max(np.abs(np.abs(xi.values) - 1.0)) < 1e-12
    # the grid eigenfunction matches z^(-1) cycle by cycle (one free phase each)
    e = xi.values * g.points()
    for cyc in split_cycles(g, 2):
        assert np.max(np.abs(e[cyc] - e[cyc[0]])) < 1e-9


def test_grid_verdicts_agree_across_sizes():
    for level in (12, 13):
        g = CircleGrid(2**level - 1)
        assert math.gcd(g.M, 2) == 1
        rep = wold_analysis(sample(LaurentPoly.monomial(1), g), 2)
        assert rep.unitary_dim == 1
        rep = wold_analysis(sample(LaurentPoly([np.exp(0.3j)]), g), 2)
        assert rep.unitary_dim == 1


def test_each_kind_is_solved_on_the_grid_it_fixes():
    # a grid filter on its own grid, whose size must be coprime to the scale
    with pytest.raises(ValueError, match="coprime"):
        wold_analysis(sample(LaurentPoly.monomial(1), CircleGrid(4096)), 2)
    # a callable on the dynamics grid, cross-checked on the next coprime grid
    rep = wold_analysis(angle_rule(LaurentPoly.monomial(1)), 2)
    first, second = rep.grid_sizes
    assert first == CircleGrid.dynamics_grid(2).M == 4095
    assert second > first and math.gcd(second, 2) == 1
    assert rep.unitary_dim == 1 and not rep.grid_screen and rep.anomaly is None


def test_the_callable_cross_check_grid_below_the_lower_size():
    # at N = 41 the dynamics grid is 41^2 - 1 = 1680, below 4095, and the
    # cross-check takes the next coprime size, 41^3 - 1
    rep = wold_analysis(angle_rule(LaurentPoly.monomial(40)), 41)
    assert rep.grid_sizes == (41**2 - 1, 41**3 - 1) and rep.unitary_dim == 1


def searched_cross_check_size(scale, first):
    """The former cross-check size: the dynamics-grid search over N^L - 1, L >= 2,
    run on [first + 1, max(65535, (first + 1) N)] in place of [4095, 65535]."""
    lo, hi = first + 1, max(65535, (first + 1) * scale)
    L = 2
    while scale**L - 1 < lo:
        L += 1
    while scale**L - 1 > hi and L > 2:
        L -= 1
    return scale**L - 1


def test_the_cross_check_size_is_the_next_power():
    # N M + N - 1 = N^(L+1) - 1 after M = N^L - 1: sizes only, no grid is built
    for scale in range(2, 65):
        first = CircleGrid.dynamics_grid(scale).M
        assert scale * first + scale - 1 == searched_cross_check_size(scale, first)


def test_isometry_precondition_enforced():
    # 1 + z is no isometry symbol: the report says so by its residual, finds no
    # unitary part and builds no projection decay
    rep = wold_analysis(LaurentPoly([1.0, 1.0]), 2)
    assert rep.isometry_residual > UNIMODULAR_TOL
    assert rep.unitary_dim == 0 and rep.projection_decay == {}


def test_a_unimodular_non_isometry_has_no_unitary_part():
    # the constant 1 + 4e-9 is unimodular within UNIMODULAR_TOL (bound 8e-9),
    # but its isometry residual 1.6e-8 is above it; the grid route's case is
    # test_cli.py::test_wold_gives_a_non_isometry_no_unitary_part
    rep = wold_analysis(LaurentPoly([1.0 + 4e-9]), 2)
    assert rep.unimodularity_residual <= UNIMODULAR_TOL < rep.isometry_residual
    assert rep.unitary_dim == 0 and rep.eigenvalue is None and rep.eigenfunction is None


def test_grid_filter_with_a_blocked_cycle_has_no_unitary_part():
    # unimodular on 4095 points, so an isometry, but the product of m over the
    # cycle of 1 (the powers 2^i, i < 12) is lambda^12 turned by 1 rad, while
    # the fixed point 1 pins lambda = m(1): no eigenfunction exists
    g = CircleGrid.dynamics_grid(2)
    values = np.exp(2j * np.pi * np.random.default_rng(3).random(g.M))
    orbit = 2 ** np.arange(12) % g.M
    values[1] = values[0] ** 12 * np.exp(1j) / np.prod(values[orbit[1:]])
    rep = wold_analysis(GridFunction(g, values), 2)
    assert rep.isometry_residual <= 1e-12 and rep.unimodularity_residual <= 1e-12
    assert rep.unitary_dim == 0 and rep.eigenvalue is None and rep.eigenfunction is None
    assert rep.cocycle_residual is None and rep.anomaly is None
    assert rep.grid_screen and rep.grid_sizes == (4095,)


def test_callable_cross_check_reports_a_grid_disagreement():
    # 1 at the 4095-point grid, where the constant eigenfunction solves the
    # equation, and exp(1000 i t^2) elsewhere: the 8191-point grid shares only
    # z = 1 with it, and its cycle products miss lambda = 1
    def rule(t):
        k = t * 4095 / (2.0 * np.pi)
        return np.where(np.abs(k - np.round(k)) < 1e-6, 1.0 + 0j, np.exp(1000j * t * t))

    rep = wold_analysis(filterbank.AngleFunction(rule), 2)
    assert rep.isometry_residual <= 1e-12 and rep.unimodularity_residual == 0.0
    assert rep.grid_sizes == (4095, 8191) and rep.unitary_dim == 0
    assert rep.anomaly.startswith("grid verdicts disagree")


def test_grid_isometry_residual_screen():
    g = CircleGrid.dynamics_grid(2)
    good = sample(LaurentPoly.monomial(1), g)
    assert isometry_residual(good, 2) < 1e-10
    bad = GridFunction(g, 1.3 * np.ones(g.M))
    assert isometry_residual(bad, 2) > 0.1


def _cosine_filter(m, f, a=1e-3):
    """sqrt(1 + a cos f theta) on the M-point grid: |m|^2 has the modes a/2 at +-f."""
    return GridFunction(CircleGrid(m), np.sqrt(1.0 + a * np.cos(f * CircleGrid(m).angles())))


# (M, N, f, residual): N a where the centred frequency of f is a nonzero
# multiple of N (f = 29523 < 59048/2 and f = 32766 < 65535/2 are their own
# centred frequencies), 0 elsewhere
@pytest.mark.parametrize("m, scale, f, want", [
    (4095, 2, 2, 2e-3), (4095, 2, 1, 0.0), (4095, 2, 4094, 0.0),
    (59048, 3, 3, 3e-3), (59048, 3, 29523, 3e-3), (59048, 3, 2, 0.0),
    (65535, 2, 32766, 2e-3),
])
def test_grid_isometry_screen_reads_the_modes_at_multiples_of_the_scale(m, scale, f, want):
    # bounds fixed before the run: rounding of M samples and one FFT is far
    # below 1e-12, and the cosine at f theta up to 2 pi 32766 adds below 1e-11
    assert abs(isometry_residual(_cosine_filter(m, f), scale) - want) <= (1e-11 if want else 1e-12)


@pytest.mark.parametrize("m, scale", [(1, 2), (2, 3)])
def test_grid_isometry_screen_on_grids_without_a_multiple_of_the_scale(m, scale):
    assert isometry_residual(GridFunction(CircleGrid(m), np.ones(m)), scale) == 0.0


def _complex_fft_screen(m, scale):
    """The isometry screen over every mode of the full complex DFT: the reference."""
    mm = m.grid.M
    modes = np.fft.fft(np.abs(m.values) ** 2) / mm
    freqs = np.fft.fftfreq(mm, d=1.0 / mm).astype(np.int64)
    mult = (freqs % scale == 0) & (freqs != 0)
    return float(scale * (np.sum(np.abs(modes[mult])) + abs(modes[0] - 1.0)))


@pytest.mark.parametrize("m, scale", [(4095, 2), (65535, 2), (59048, 3), (80, 3), (255, 2),
                                      (1, 2), (2, 3), (5, 2), (64, 3)])
def test_real_fft_screen_matches_the_complex_fft(m, scale):
    # bound fixed before the comparison: the two FFTs round differently, far
    # below 1e-12 absolute on unimodular data (whose residual is rounding
    # itself) and 1e-12 relative on moduli 1..1.1 (residual of order 1)
    rng = np.random.default_rng(m * scale)
    u = np.exp(2j * np.pi * rng.random(m))
    uni = GridFunction(CircleGrid(m), u)
    assert abs(isometry_residual(uni, scale) - _complex_fft_screen(uni, scale)) <= 1e-12
    off = GridFunction(CircleGrid(m), u * (1.0 + 0.1 * rng.random(m)))
    want = _complex_fft_screen(off, scale)
    assert abs(isometry_residual(off, scale) - want) <= 1e-12 * want


def test_eigenvector_definition_holds(haar_bank):
    # if the report says dim 1 with (lam, xi), applying S must reproduce lam xi
    rep = wold_analysis(LaurentPoly.monomial(1), 2)
    from waverep.cuntz import apply_filter_isometry

    image = apply_filter_isometry(LaurentPoly.monomial(1), 2, rep.eigenfunction)
    assert (image - rep.eigenvalue * rep.eigenfunction).norm2() < 1e-12
    # and the projection norms of xi stay pinned at 1
    norms = range_projection_norms(LaurentPoly.monomial(1), 2, [rep.eigenfunction], 15)[0]
    assert np.allclose(norms, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# bank-level check


def test_wavelet_banks_are_all_shifts(haar_bank, db4_bank):
    assert wavelet_shift_check(haar_bank)
    assert wavelet_shift_check(db4_bank)


def test_monomial_bank_fails_shift_check(monomial_bank):
    # the constant filter z^0 has the fixed vector 1, so not every generator
    # is a shift
    assert not wavelet_shift_check(monomial_bank)
    rep = wold_analysis(monomial_bank.filters[0], 2)
    assert rep.unitary_dim == 1 and rep.eigenfunction == LaurentPoly.one()


def test_shift_check_requires_verified_bank(haar_bank):
    from waverep.filterbank import FilterBank

    bad = FilterBank(2, (haar_bank.filters[0], haar_bank.filters[1] * 0.9))
    with pytest.raises(ValueError):
        wavelet_shift_check(bad)


def _count_certificates(monkeypatch):
    """Record the number of filters of every polyphase certificate computed."""
    certificates = []
    certificate = filterbank._polyphase_certificate

    def counting(filters, scale):
        certificates.append(len(filters))
        return certificate(filters, scale)

    monkeypatch.setattr(filterbank, "_polyphase_certificate", counting)
    return certificates


@pytest.mark.parametrize("name", ["haar2", "db4", "haar3"])
def test_shift_check_builds_no_projection(name, monkeypatch, capsys):
    # the shift check reads the unitary dimension alone: the bank's
    # certificate, one certificate per filter inside wold_analysis, and no
    # range projection
    from waverep.cli import run

    certificates, projections = _count_certificates(monkeypatch), []
    monkeypatch.setattr(wold, "range_projection_norms", lambda *a, **k: projections.append(1))
    assert run(["wold", "--fixture", name, "--shift-check"]) == 0
    capsys.readouterr()
    scale = fixtures.fixture_bank(name).scale
    assert certificates == [scale] + [1] * scale and projections == []


def test_a_wold_report_gates_its_four_probes_once(monkeypatch, capsys):
    # one certificate in wold_analysis's gate and one in the batched
    # range_projection_norms gate; the four probes of db4's low-pass already
    # lie in W = [-3, 3], so the one adjoint is the probe that checks the
    # gather of S*|_W
    from waverep import cuntz
    from waverep.cli import run

    certificates, adjoints = _count_certificates(monkeypatch), []
    adjoint = cuntz.apply_filter_adjoint

    def counting(*args):
        adjoints.append(1)
        return adjoint(*args)

    monkeypatch.setattr(cuntz, "apply_filter_adjoint", counting)
    monkeypatch.setattr(wold, "apply_filter_adjoint", counting)
    assert run(["wold", "--fixture", "db4"]) == 0
    capsys.readouterr()
    assert certificates == [1, 1] and len(adjoints) == 1


def test_probes_kmax_zero_leaves_the_projection_decay_empty(db4_bank):
    rep = wold_analysis(db4_bank.filters[0], 2, probes_kmax=0)
    full = wold_analysis(db4_bank.filters[0], 2)
    assert rep.projection_decay == {} and sorted(full.projection_decay) == ["1", "1/z", "m", "z"]
    assert (rep.unitary_dim, rep.unimodularity_residual, rep.isometry_residual) == (
        full.unitary_dim, full.unimodularity_residual, full.isometry_residual)


# ---------------------------------------------------------------------------
# the coefficient route for polynomial filters


def _test_filters(seed, scale, eps):
    """A unit-norm random polynomial and the filters of a random paraunitary
    bank, each plus eps times a random polynomial."""
    rng = np.random.default_rng(seed)
    bank = fixtures.random_paraunitary_bank(scale, int(rng.integers(0, 4)), rng)
    out = [random_poly(rng, 6, unit_norm=True)]
    for f in bank.filters:
        out.append(f + eps * random_poly(rng, int(rng.integers(0, 9))))
    return out


@given(seed=st.integers(0, 2**32 - 1), scale=st.integers(2, 4),
       eps=st.sampled_from([0.0, 1e-12, 1e-8, 1e-5, 1e-2]))
@settings(max_examples=60, deadline=None)
def test_exact_residuals_bound_the_sampled_ones(seed, scale, eps):
    grid = CircleGrid(4096 * scale)
    for m in _test_filters(seed, scale, eps):
        # N times the single-filter certificate bounds the QMF deviation anywhere
        assert isometry_residual(m, scale) >= qmf_residual(exact_sample(m, grid), scale) - 1e-14
        sampled = np.max(np.abs(np.abs(sample(m, grid).values) - 1.0))
        assert wold._unimodularity_bound(m) >= sampled - 1e-14


def test_isometry_residual_is_the_scaled_certificate(db4_bank):
    for m, n in ((db4_bank.filters[0], 2), (fixtures.haar(3).filters[2], 3),
                 (LaurentPoly([1.0, 0.5]), 2)):
        assert isometry_residual(m, n) == n * filterbank._polyphase_certificate((m,), n)
    # |m|^2 = 1.25 + cos t: E_0 = 0.25 and no other lag is a multiple of 2
    assert isometry_residual(LaurentPoly([1.0, 0.5]), 2) == pytest.approx(0.5, abs=1e-15)


def test_polynomial_route_samples_no_grid(monkeypatch, haar_bank, db4_bank):
    def refuse(*args, **kwargs):
        raise AssertionError("the polynomial route sampled a grid")

    for mod, name in ((wold, "values_on_coset"), (wold, "_grid_eigendata"),
                      (filterbank, "values_on_coset"), (filterbank, "_coset_gram"),
                      (filterbank, "filter_values_at_angles")):
        monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(CircleGrid, "dynamics_grid", classmethod(refuse))
    cases = [(haar_bank.filters[0], 2), (db4_bank.filters[1], 2),
             (LaurentPoly.monomial(2, np.exp(0.7j)), 3), (LaurentPoly.monomial(1), 3),
             (fixtures.haar(3).filters[0], 3)]
    for m, n in cases:
        rep = wold_analysis(m, n)
        assert rep.grid_sizes == () and not rep.grid_screen


def _theorem_table(scale, rng):
    """(filter, unimodular, expected (eigenvalue, eigenfunction) or None) from
    the theorem: a unitary part exists iff m = c z^d, |c| = 1, (N-1) | d."""
    rows = []
    for d in range(-6, 7):
        c = np.exp(1j * rng.uniform(-np.pi, np.pi))
        hit = (c, LaurentPoly.monomial(-d // (scale - 1))) if d % (scale - 1) == 0 else None
        rows.append((LaurentPoly.monomial(d, c), True, hit))
    others = [fixtures.haar(scale).filters[0]]
    if scale == 2:
        others.append(fixtures.db4().filters[0])
    for k in range(3):
        others.extend(fixtures.random_paraunitary_bank(scale, k + 1, rng).filters)
    for m in others:
        assert len(m.coeffs) > 1  # not a monomial, so no unitary part
        rows.append((m, False, None))
    return rows


@pytest.mark.parametrize("scale", [2, 3])
def test_wold_table_matches_the_theorem(scale, rng):
    for m, unimodular, hit in _theorem_table(scale, rng):
        rep = wold_analysis(m, scale)
        assert rep.anomaly is None
        assert rep.unitary_dim == (hit is not None)
        if unimodular:
            assert rep.unimodularity_residual < 1e-14
        else:
            assert rep.unimodularity_residual > 1e-3
        if hit is None:
            assert rep.eigenvalue is None and rep.eigenfunction is None
            continue
        assert abs(rep.eigenvalue - hit[0]) < 1e-15
        assert rep.eigenfunction == hit[1]
        assert rep.cocycle_residual < 1e-15
