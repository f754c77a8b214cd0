import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import angle_rule, exact_sample
from waverep import filterbank, fixtures
from waverep.filterbank import (
    FilterBank,
    check_bank,
    check_lowpass,
    complete_filterbank,
    default_check_grid,
    filter_values_at_angles,
    householder_rows,
    modulation_matrix,
    qmf_residual,
    unitarity_residual,
    values_on_coset,
)
from waverep.laurent import CircleGrid, GridFunction, InputError, LaurentPoly, sample

S2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# quadrature-mirror residual


def test_qmf_haar():
    m0 = LaurentPoly([1 / S2, 1 / S2])
    assert qmf_residual(m0, 2) < 1e-14


@pytest.mark.parametrize("scale,deg", [(2, 3), (3, -2), (5, 0)])
def test_qmf_unimodular_monomial(scale, deg):
    # |z^d| = 1, so the N-term coset sum is exactly N
    assert qmf_residual(LaurentPoly.monomial(deg), scale) < 1e-13


def test_qmf_unnormalized_filter():
    # oracle: |1+z|^2 + |1-z|^2 = 2 + 2|z|^2 = 4 on the circle, so the
    # residual against N = 2 is exactly 2
    assert qmf_residual(LaurentPoly([1.0, 1.0]), 2) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# modulation matrix


def test_modulation_matrix_haar_at_one(haar_bank):
    # oracle: rows are [m_i(1), m_i(-1)]/sqrt(2) evaluated directly
    c = modulation_matrix(haar_bank, 1.0)
    expected = np.array(
        [[f.evaluate(1.0), f.evaluate(-1.0)] for f in haar_bank.filters]
    ) / S2
    assert np.allclose(c, expected, atol=1e-14)
    assert np.allclose(c, np.eye(2), atol=1e-14)


def test_modulation_matrix_evaluates_a_polynomial_at_the_points(haar_bank):
    # at z = 1 the points are exactly 1 and -1, where real taps give exactly
    # real values; sin(np.angle(-1)) is 1.2e-16, so angles would not
    assert np.all(modulation_matrix(haar_bank, 1.0).imag == 0.0)
    z = np.exp(0.37j)
    pts = z * CircleGrid(3).points()
    bank = fixtures.haar(3)
    want = np.stack([f.evaluate(pts) for f in bank.filters]) / np.sqrt(3)
    assert np.array_equal(modulation_matrix(bank, z), want)


def test_modulation_matrix_puts_z_back_on_the_circle():
    # at offset 2^20, a point 1e-10 off the circle would scale each entry
    # by (1 + 1e-10)^(2^20), about 1 + 1e-4, if it were not normalised
    k = 2**20
    bank = FilterBank(2, (LaurentPoly([S2 / 2, S2 / 2], k), LaurentPoly([S2 / 2, -S2 / 2], k)))
    z = (1.0 + 1e-10) * np.exp(0.37j)
    c = modulation_matrix(bank, z)
    assert np.allclose(c.conj().T @ c, np.eye(2), atol=1e-9)
    assert np.array_equal(c, modulation_matrix(bank, z / abs(z)))


def test_modulation_matrix_monomial(monomial_bank):
    z = np.exp(0.37j)
    c = modulation_matrix(monomial_bank, z)
    expected = np.array([[1.0, 1.0], [z, -z]]) / S2
    assert np.allclose(c, expected, atol=1e-13)


def test_modulation_matrix_grid_bank_off_grid_errors():
    g = CircleGrid(8)
    bank = FilterBank(2, tuple(sample(f, g) for f in fixtures.haar(2).filters))
    with pytest.raises(ValueError):
        modulation_matrix(bank, np.exp(0.1j))  # not a grid point


# ---------------------------------------------------------------------------
# unitarity


def test_unitarity_haar(haar_bank):
    assert unitarity_residual(haar_bank) < 1e-13
    assert unitarity_residual(_grid_copy(haar_bank, CircleGrid(4096))) < 1e-13


def test_unitarity_scaled_filter(haar_bank):
    bad = FilterBank(2, (haar_bank.filters[0], haar_bank.filters[1] * 0.9))
    # oracle: the (1,1) entry of C C* drops to 0.81, so the deviation is >= 0.19
    assert unitarity_residual(bad) >= 0.19 - 1e-12


def test_unitarity_monomial(monomial_bank):
    assert unitarity_residual(monomial_bank) < 1e-13
    assert unitarity_residual(_grid_copy(monomial_bank, CircleGrid(4096))) < 1e-13


# ---------------------------------------------------------------------------
# pairwise residuals


def test_pairwise_haar_cross(haar_bank):
    assert check_bank(haar_bank).pairwise_residuals[0, 1] < 1e-13


def test_pairwise_diagonal_equals_qmf(haar_bank, db4_bank):
    for bank in (haar_bank, db4_bank):
        table = check_bank(bank).pairwise_residuals
        for i in range(2):
            assert table[i, i] == pytest.approx(
                qmf_residual(bank.filters[i], 2), abs=1e-13
            )


def test_pairwise_duplicate_filter(haar_bank):
    m0 = haar_bank.filters[0]
    dup = FilterBank(2, (m0, m0))
    # oracle: sum_k |m_0|^2 over the coset is identically 2, against target 0
    assert check_bank(dup).pairwise_residuals[0, 1] == pytest.approx(2.0, abs=1e-12)


def test_unitarity_pairwise_equivalence(rng):
    # the entrywise and operator-norm formulations bound one another
    for k in range(6):
        bank = fixtures.random_paraunitary_bank(2, 3, rng)
        uni = unitarity_residual(bank)
        pw = float(np.max(check_bank(bank).pairwise_residuals))
        assert pw <= 2 * uni + 1e-12
        assert uni <= pw + 1e-12
        assert uni < 1e-12  # construction is exactly paraunitary
    # and for a broken bank both blow up together
    h = fixtures.haar(2)
    bad = FilterBank(2, (h.filters[0], h.filters[1] * 0.5))
    assert unitarity_residual(bad) > 0.1 and check_bank(bad).pairwise_residuals[1, 1] > 0.1


# ---------------------------------------------------------------------------
# low-pass conditions


def test_lowpass_haar():
    rep = check_lowpass(LaurentPoly([1 / S2, 1 / S2]), 2)
    assert rep.ok and rep.phase_aligned
    assert abs(rep.value_at_zero - S2) < 1e-14
    assert np.all(rep.zero_residuals < 1e-14)


def test_lowpass_constant_fails():
    assert not check_lowpass(LaurentPoly([S2]), 2).ok


def test_lowpass_phase_adjusted():
    rep = check_lowpass(LaurentPoly([1j / S2, 1j / S2]), 2)
    assert rep.ok and not rep.phase_aligned


def test_lowpass_db4(db4_bank):
    # oracle: the fixture already passed qmf_residual < 1e-10 at build time
    assert qmf_residual(db4_bank.filters[0], 2) < 1e-10
    assert check_lowpass(db4_bank.filters[0], 2).ok


def test_lowpass_haar3():
    rep = check_lowpass(fixtures.haar(3).filters[0], 3)
    assert rep.ok and len(rep.zero_residuals) == 2


# ---------------------------------------------------------------------------
# completion


def test_complete_haar_canonical():
    m0 = LaurentPoly([1 / S2, 1 / S2])
    bank = complete_filterbank(m0, 2)
    assert bank.filters[0] is m0
    m1 = bank.filters[1]
    # canonical sign: (1 - z)/sqrt(2)
    assert abs(m1.coefficient(0) - 1 / S2) < 1e-14
    assert abs(m1.coefficient(1) + 1 / S2) < 1e-14
    assert unitarity_residual(bank) < 1e-13


def test_complete_monomial():
    bank = complete_filterbank(LaurentPoly.monomial(3), 2)
    m1 = bank.filters[1]
    assert len(m1.coeffs) == 1 and abs(abs(m1.coeffs[0]) - 1.0) < 1e-14
    assert (m1.min_degree - 3) % 2 == 1
    assert unitarity_residual(bank) < 1e-13


def test_complete_db4():
    bank = fixtures.db4()
    assert unitarity_residual(bank) < 1e-10


def test_db4_fixture_is_the_completed_lowpass_bit_for_bit():
    bank = fixtures.db4()
    completed = complete_filterbank(bank.filters[0], 2)
    for a, b in zip(bank.filters, completed.filters):
        assert a.min_degree == b.min_degree and a.coeffs.tobytes() == b.coeffs.tobytes()
    assert unitarity_residual(bank) <= 1e-15


def test_complete_rejects_bad_filter():
    with pytest.raises(ValueError):
        complete_filterbank(LaurentPoly([1.0, 1.0]), 2)


def test_complete_scale3_grid_fallback():
    m0 = fixtures.haar(3).filters[0]
    bank = complete_filterbank(m0, 3)
    assert bank.kind == "grid"
    grid = bank.filters[0].grid
    assert unitarity_residual(bank) < 1e-12
    # filter 0 carries m_0's values unchanged
    assert np.allclose(bank.filters[0].values, sample(m0, grid).values, atol=1e-14)


def test_complete_grid_input():
    g = CircleGrid(24)
    gm0 = sample(LaurentPoly([1 / S2, 1 / S2]), g)
    bank = complete_filterbank(gm0, 2)
    assert bank.kind == "grid"
    assert np.array_equal(bank.filters[0].values, gm0.values)
    assert unitarity_residual(bank) < 1e-13


def test_householder_rows(rng):
    for n in (2, 3, 5):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        q = householder_rows(v)
        assert np.linalg.norm(q @ q.conj().T - np.eye(n)) < 1e-13
        assert np.max(np.abs(q[0] - v)) < 1e-13
    # near-basis-vector input stays stable
    v = np.array([1.0 + 0j, 1e-16, 0.0])
    q = householder_rows(v / np.linalg.norm(v))
    assert np.linalg.norm(q @ q.conj().T - np.eye(3)) < 1e-13


# ---------------------------------------------------------------------------
# bank reports


def test_check_report_haar(haar_bank):
    rep = check_bank(_grid_copy(haar_bank, CircleGrid(4096)))
    assert rep.verified and rep.lowpass_ok
    assert rep.grid_size == 4096
    assert max(rep.qmf_residuals) < 1e-13
    assert np.max(np.abs(rep.pairwise_residuals)) < 1e-13
    # the polynomial bank itself is decided from its coefficients, on no grid
    rep = check_bank(haar_bank)
    assert rep.verified and rep.lowpass_ok
    assert rep.grid_size is None and rep.worst_point is None and rep.worst_shift == 0
    assert rep.unitarity_residual == rep.coefficient_residual < 1e-13
    assert max(rep.qmf_residuals) < 1e-13
    assert np.max(np.abs(rep.pairwise_residuals)) < 1e-13


def test_check_report_monomial(monomial_bank):
    rep = check_bank(monomial_bank)
    assert rep.verified and not rep.lowpass_ok


def test_shannon_bank_unitary(shannon_bank):
    assert unitarity_residual(shannon_bank) == 0.0


def test_bank_rejects_mixed_kinds():
    g = CircleGrid(8)
    with pytest.raises(ValueError):
        FilterBank(2, (LaurentPoly.one(), sample(LaurentPoly.one(), g)))


def test_default_check_grid_divisible():
    assert default_check_grid(3).M % 3 == 0
    assert default_check_grid(2).M == 4096


# ---------------------------------------------------------------------------
# the shared verification path: one sample per filter, one Gram batch


def _horner_coset(f, n, grid):
    """Reference: V[k] = f at theta_j + 2*pi*k/N, evaluated directly."""
    if isinstance(f, GridFunction):
        step = grid.M // n
        return np.stack([np.roll(f.values, -k * step) for k in range(n)])
    theta = grid.angles()
    return np.stack([filter_values_at_angles(f, theta + 2.0 * np.pi * k / n) for k in range(n)])


def _grid_copy(bank, grid):
    """The bank's polynomial filters sampled on a grid: a grid-kind bank."""
    return FilterBank(bank.scale, tuple(exact_sample(f, grid) for f in bank.filters))


def _angle_copy(bank):
    """The bank's polynomial filters as angle rules: a callable bank, checked on the default grid."""
    return FilterBank(bank.scale, tuple(angle_rule(f) for f in bank.filters))


def _per_pair_residuals(bank, grid):
    """Reference: qmf, pairwise and unitarity residuals as per-pair sums over the whole grid.

    Returns (qmf, pairwise, unitarity, worst grid point).
    """
    n = bank.scale
    v = [_horner_coset(f, n, grid) for f in bank.filters]
    qmf = [np.max(np.abs(np.sum(np.abs(x) ** 2, axis=0) - n)) for x in v]
    pw = np.array([[np.max(np.abs(np.sum(np.conj(v[i]) * v[j], axis=0) - (n if i == j else 0.0)))
                    for j in range(n)] for i in range(n)])
    c = np.stack(v).transpose(2, 0, 1) / np.sqrt(n)
    norms = np.linalg.norm(c @ np.conj(c.transpose(0, 2, 1)) - np.eye(n), ord=2, axis=(1, 2))
    return qmf, pw, float(np.max(norms)), grid.points()[np.argmax(norms)]


def gathered_coset(f, scale, grid):
    """The former coset rows: the filter's grid values gathered at (j + k M/N) mod M,
    k < N, j < M/N, for every kind."""
    n, m = scale, grid.M
    if isinstance(f, GridFunction):
        values = f.values
    elif isinstance(f, LaurentPoly):
        values = sample(f, grid).values
    else:
        values = filter_values_at_angles(f, grid.angles())
    return values[(np.arange(m // n)[None, :] + np.arange(n)[:, None] * (m // n)) % m]


@pytest.mark.parametrize("scale", [2, 3, 8])
def test_coset_rows_are_the_gathered_rotations(scale, rng):
    grid = default_check_grid(scale)
    poly = LaurentPoly(rng.normal(size=7) + 1j * rng.normal(size=7), -3)
    on_grid = exact_sample(poly, grid)
    for f in (poly, on_grid, angle_rule(poly)):
        rows = values_on_coset(f, scale, grid)
        assert rows.shape == (scale, grid.M // scale)
        assert rows.tobytes() == gathered_coset(f, scale, grid).tobytes()
    # a grid filter's rows are its own read-only values, not a copy
    rows = values_on_coset(on_grid, scale, grid)
    assert np.shares_memory(rows, on_grid.values) and not rows.flags.writeable


@pytest.mark.parametrize("name", ["haar8", "db4", "paraunitary8", "shannon"])
def test_check_bank_matches_per_pair_definitions(name):
    if name == "paraunitary8":
        bank = fixtures.random_paraunitary_bank(8, 3, np.random.default_rng(11))
    else:
        bank = fixtures.fixture_bank(name)
    grid = default_check_grid(bank.scale)
    qmf, pw, uni, _ = _per_pair_residuals(bank, grid)
    # the grid route: a polynomial bank is decided from its coefficients, so
    # its filters are checked here as grid samples
    sampled = _grid_copy(bank, grid) if bank.kind == "poly" else bank
    rep = check_bank(sampled)
    assert rep.grid_size == grid.M
    assert np.allclose(rep.qmf_residuals, qmf, rtol=0, atol=1e-12)
    assert np.allclose(rep.pairwise_residuals, pw, rtol=0, atol=1e-12)
    assert abs(rep.unitarity_residual - uni) < 1e-12
    for i in range(bank.scale):
        assert abs(qmf_residual(sampled.filters[i], bank.scale) - qmf[i]) < 1e-12
    # and on a broken bank, where the residuals are far from rounding level
    bad = FilterBank(bank.scale, (sampled.filters[0],) * bank.scale)
    qmf, pw, uni, _ = _per_pair_residuals(bad, grid)
    rep = check_bank(bad)
    assert uni > 0.5 and abs(rep.unitarity_residual - uni) < 1e-12
    assert np.allclose(rep.pairwise_residuals, pw, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale,seed", [(2, 1), (3, 2), (4, 3), (8, 4)])
def test_check_bank_on_a_perturbed_bank(scale, seed):
    # a random bump makes the deviation vary over the circle; its peak is
    # found on the fundamental domain, up to the rotation z -> rho z
    rng = np.random.default_rng(seed)
    bank = fixtures.random_paraunitary_bank(scale, 2, rng)
    bump = LaurentPoly(0.05 * (rng.normal(size=7) + 1j * rng.normal(size=7)), min_degree=-3)
    bad = FilterBank(scale, (bank.filters[0] + bump,) + bank.filters[1:])
    grid = default_check_grid(scale)
    qmf, pw, uni, worst = _per_pair_residuals(bad, grid)
    rep = check_bank(_grid_copy(bad, grid))
    assert uni > 1e-2 and abs(rep.unitarity_residual - uni) < 1e-12
    assert np.allclose(rep.qmf_residuals, qmf, rtol=0, atol=1e-12)
    assert np.allclose(rep.pairwise_residuals, pw, rtol=0, atol=1e-12)
    assert abs(rep.worst_point**scale - worst**scale) < 1e-9


def test_haar32_verified():
    rep = check_bank(fixtures.haar(32))
    assert rep.verified
    assert rep.unitarity_residual < 1e-12 and rep.coefficient_residual < 1e-12


def test_check_bank_samples_each_filter_once(monkeypatch):
    calls = []
    original = filterbank.values_on_coset

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(filterbank, "values_on_coset", counting)
    for bank in (_grid_copy(fixtures.haar(8), default_check_grid(8)), fixtures.shannon()):
        calls.clear()
        filterbank.check_bank(bank)
        assert len(calls) == bank.scale
        assert [id(f) for f in calls] == [id(f) for f in bank.filters]


# ---------------------------------------------------------------------------
# exact coefficient certificate


def _bumped_haar2():
    # the bump z^6 - 1 vanishes at every cube root of unity and its negative
    h = fixtures.haar(2)
    bump = LaurentPoly.monomial(6) - LaurentPoly.one()
    return FilterBank(2, (h.filters[0] + bump * 1e-3, h.filters[1] + bump * 0.5e-3))


def test_certificate_catches_what_a_coarse_grid_misses():
    bad = _bumped_haar2()
    # the same filters sampled on the 6-point grid, where the bump vanishes,
    # pass the grid screen
    coarse = check_bank(_grid_copy(bad, CircleGrid(6)))
    assert coarse.grid_size == 6 and coarse.unitarity_residual < 1e-14
    exact = check_bank(bad)
    assert exact.coefficient_residual > 1e-3
    assert not exact.verified
    fine = check_bank(_angle_copy(bad))
    # the certificate bounds the deviation at every point of the circle
    assert 1e-3 < fine.unitarity_residual <= exact.coefficient_residual


def _grid_blind_haar2(degree=4096):
    # z^4096 - 1 vanishes on the default 4096-point check grid and its rotation by -1
    h = fixtures.haar(2)
    bump = LaurentPoly.monomial(degree) - LaurentPoly.one()
    return FilterBank(2, (h.filters[0] + bump * 1e-3, h.filters[1] + bump * 0.5e-3))


def test_every_library_gate_decides_a_polynomial_bank_by_its_certificate():
    from waverep.cuntz import CuntzRep
    from waverep.index import spectral_solutions
    from waverep.wold import wavelet_shift_check

    bad = _grid_blind_haar2()
    assert unitarity_residual(_grid_copy(bad, default_check_grid(2))) < 1e-14
    assert unitarity_residual(bad) == check_bank(bad).coefficient_residual > 1e-3
    gates = {
        "require_verified": lambda: filterbank.require_verified(bad),
        "CuntzRep": lambda: CuntzRep(bad),
        # the bump's R = 4096 is above every window the index takes, so the
        # index's gate, the one check before its applies, is shown on the same
        # bump at z^6 (R = 6)
        "spectral_solutions": lambda: spectral_solutions(*_grid_blind_haar2(6).filters),
        "wavelet_shift_check": lambda: wavelet_shift_check(bad),
    }
    for name, gate in gates.items():
        with pytest.raises(ValueError, match="coefficient residual"):
            gate()
    # the window bound is an input check, made before the gate
    with pytest.raises(InputError, match="R = 4096"):
        spectral_solutions(*bad.filters)
    # the same gates still pass verified banks of every kind
    for name in ("haar2", "db4", "shannon"):
        filterbank.require_verified(fixtures.fixture_bank(name))
    CuntzRep(fixtures.db4())


def _tolerance_parameters():
    """(module, qualified name, parameter) for every parameter named tol or *_tol
    of a function, method or constructor defined in the package."""
    import importlib
    import inspect
    import pkgutil

    import waverep

    found = []
    for info in pkgutil.iter_modules(waverep.__path__):
        module = importlib.import_module(f"waverep.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                members = [(f"{name}.{k}", v) for k, v in vars(obj).items()
                           if inspect.isfunction(v)]
            for qualname, fn in members:
                found += [(info.name, qualname, param)
                          for param in inspect.signature(fn).parameters
                          if param == "tol" or param.endswith("_tol")]
    return found


def test_no_caller_picks_a_tolerance():
    # every check reads its module's constant; only a comparison helper keeps its own
    assert sorted(_tolerance_parameters()) == [("laurent", "allclose", "tol")]


def test_polynomial_check_bank_samples_nothing(monkeypatch):
    banks = (fixtures.haar(8), fixtures.db4(), _bumped_haar2())  # db4 is built by completion
    calls = []
    original_coset, original_eigvalsh = filterbank.values_on_coset, np.linalg.eigvalsh

    def counting_coset(*args, **kwargs):
        calls.append("values_on_coset")
        return original_coset(*args, **kwargs)

    def counting_eigvalsh(*args, **kwargs):
        calls.append("eigvalsh")
        return original_eigvalsh(*args, **kwargs)

    monkeypatch.setattr(filterbank, "values_on_coset", counting_coset)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for bank in banks:
        rep = check_bank(bank)
        assert rep.grid_size is None
    assert calls == []
    # the counters do count the grid route; the grid copy of db4 deviates from
    # unitarity by rounding, so its sweep eigensolves the points it keeps
    check_bank(_grid_copy(fixtures.db4(), default_check_grid(2)))
    assert calls.count("values_on_coset") == 2 and calls.count("eigvalsh") == 1


def test_a_grid_sweep_with_no_deviation_calls_no_eigensolver(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(a))
    rep = check_bank(fixtures.shannon())  # G(z) = I exactly at every grid point
    assert (rep.unitarity_residual, rep.worst_point) == (0.0, 1 + 0j)
    assert calls == []


def _full_sweep(gram, grid):
    # the sweep as written before the Frobenius screen: every point eigensolved
    norms = np.max(np.abs(np.linalg.eigvalsh(gram - np.eye(gram.shape[-1]))), axis=-1)
    j = int(np.argmax(norms))
    return float(norms[j]), complex(grid.points()[j])


_gram_entries = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 1e-17, 1e300, math.nan]),
                          st.floats(-2.0, 2.0))


@st.composite
def _gram_stacks(draw):
    """Stacks of matrices with exact zeros of G - I, repeated points and NaN."""
    r, kinds = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(hnp.arrays(np.float64, (kinds, r, r, 2), elements=_gram_entries))
    which = draw(hnp.arrays(np.int64, draw(st.integers(1, 12)), elements=st.integers(0, kinds - 1)))
    dev = parts.view(np.complex128)[..., 0][which]
    dev[draw(hnp.arrays(np.bool_, len(which)))] = 0.0
    return dev + np.eye(r)


@settings(max_examples=300, deadline=None)
@given(_gram_stacks())
@example(np.tile(np.eye(2, dtype=np.complex128), (5, 1, 1)))
@example(np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]], dtype=complex))
@example(np.full((1, 3, 3), complex(math.nan, math.nan)))
@example(np.array([np.diag([2.0, 1.0, 1.0, 1.0]),  # LAPACK reads a NaN left off the diagonal
                   np.eye(4) + np.diag([0.0, complex(0.0, math.nan), 0.0, 0.0])]) + 2e-313 + 2e-313j)
def test_screened_sweep_is_the_full_sweep_bit_for_bit(gram):
    grid = CircleGrid(len(gram))

    def outcome(sweep):  # LAPACK may refuse a NaN matrix; then both sweeps raise
        try:
            return sweep(gram, grid)
        except np.linalg.LinAlgError:
            return "LinAlgError"

    got, want = outcome(filterbank._worst_unitarity), outcome(_full_sweep)
    if want == "LinAlgError":
        assert got == want
    else:
        assert got[1] == want[1]
        assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


def _coefficient_bounds_and_grid_oracles(bank):
    """The residuals of check_bank on a polynomial bank, and the grid values they bound."""
    n = bank.scale
    rep = check_bank(bank)
    sampled = _grid_copy(bank, default_check_grid(n))
    qmf = [qmf_residual(f, n) for f in sampled.filters]
    pw = check_bank(sampled).pairwise_residuals
    return rep, qmf, pw, unitarity_residual(sampled)


@pytest.mark.parametrize("scale", [2, 3, 4, 8])
def test_coefficient_residuals_bound_the_grid_residuals(scale):
    # exact on unitary banks up to rounding, and far above it on perturbed ones
    rng = np.random.default_rng(100 + scale)
    for k in range(3):
        bank = fixtures.random_paraunitary_bank(scale, 1 + k, rng)
        bump = LaurentPoly(0.05 * (rng.normal(size=5) + 1j * rng.normal(size=5)),
                           min_degree=int(rng.integers(-6, 7)))
        i = int(rng.integers(scale))
        bad = FilterBank(scale, bank.filters[:i] + (bank.filters[i] + bump,) + bank.filters[i + 1:])
        for b, floor in ((bank, 0.0), (bad, 1e-3)):
            rep, qmf, pw, uni = _coefficient_bounds_and_grid_oracles(b)
            assert rep.unitarity_residual == rep.coefficient_residual
            assert rep.coefficient_residual == pytest.approx(unitarity_residual(b), abs=1e-15)
            assert floor <= uni <= rep.unitarity_residual + 1e-14
            assert np.all(np.array(qmf) <= np.array(rep.qmf_residuals) + 1e-14)
            assert np.all(pw <= rep.pairwise_residuals + 1e-14)
            assert np.allclose(np.diag(rep.pairwise_residuals), rep.qmf_residuals, rtol=0,
                               atol=0)
        assert rep.qmf_residuals[i] > 1e-3 and not rep.verified


@pytest.mark.parametrize("factor", [0.0, 0.9])
def test_coefficient_residuals_equal_the_grid_residuals_at_one_lag(factor):
    # m_1 -> factor m_1 leaves the defect at lag 0 only, E_0 = diag(0, factor^2 - 1, 0),
    # so every deviation is constant on the circle and each bound is attained
    bank = fixtures.random_paraunitary_bank(3, 2, np.random.default_rng(7))
    scaled = FilterBank(3, (bank.filters[0], bank.filters[1] * factor, bank.filters[2]))
    rep, qmf, pw, uni = _coefficient_bounds_and_grid_oracles(scaled)
    gap = 1.0 - factor**2
    assert rep.unitarity_residual == pytest.approx(gap, abs=1e-12)
    assert uni == pytest.approx(rep.unitarity_residual, abs=1e-12)
    assert np.allclose(rep.qmf_residuals, qmf, rtol=0, atol=1e-12)
    assert np.allclose(rep.pairwise_residuals, pw, rtol=0, atol=1e-12)
    assert rep.qmf_residuals[1] == pytest.approx(3 * gap, abs=1e-12)
    assert rep.worst_shift == 0


def test_worst_shift_locates_the_defect():
    # a bump at degree 6 of m_1 meets the haar taps at degrees 0 and 1 over
    # lags 6 and 5: E_3 carries the defect, E_0 only its square
    h = fixtures.haar(2)
    bad = FilterBank(2, (h.filters[0], h.filters[1] + LaurentPoly.monomial(6, 1e-3)))
    rep = check_bank(bad)
    assert rep.worst_shift == 3
    assert rep.unitarity_residual > 1e-3 and not rep.verified


@pytest.mark.parametrize("name", ["haar2", "haar3", "haar16", "db4", "monomial(0,1)",
                                  "monomial(0,4,-4)", "monomial(0,1000001)"])
def test_certificate_passes_unitary_banks(name):
    assert unitarity_residual(fixtures.fixture_bank(name)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 5, 16, 128, 256, 512, 1024])
def test_haar_fixtures_have_exact_phases(n):
    # each phase is an entry of the one table of N-th roots of unity, at -ij mod N,
    # so the certificate stays at rounding level; phases as powers rho^(-ij) gave
    # 6.7e-11 at N = 1024.  Quarter turns 1, -i, -1, i are exact.
    bank = fixtures.fixture_bank(f"haar{n}")
    table = CircleGrid(n).points() / math.sqrt(n)
    j = np.arange(n)
    for i in (0, 1, n // 2, n - 1):
        c = bank.filters[i].coeffs
        assert np.array_equal(c, table[-i * j % n])
        quarter, root_n = c[4 * (i * j) % n == 0], math.sqrt(n)
        assert len(quarter) and np.array_equal(quarter, np.round(quarter * root_n) / root_n)
        assert np.all((quarter.real == 0) ^ (quarter.imag == 0))
    assert unitarity_residual(bank) <= 1e-14


def test_haar_fixture_cap():
    name = f"haar{fixtures.HAAR_FIXTURE_MAX + 1}"
    with pytest.raises(ValueError, match="haarN fixtures go up to"):
        fixtures.fixture_bank(name)
    with pytest.raises(InputError, match="unknown fixture 'haar'"):
        fixtures.fixture_bank("haar")


def test_certificate_bounds_grid_residual(rng):
    for k in range(4):
        bank = fixtures.random_paraunitary_bank(3, 2, rng)
        assert unitarity_residual(bank) < 1e-13
        bad = FilterBank(3, (bank.filters[0], bank.filters[1],
                             bank.filters[2] + LaurentPoly.monomial(k - 2, 1e-4j)))
        cert = unitarity_residual(bad)
        assert 1e-5 < unitarity_residual(_grid_copy(bad, default_check_grid(3))) <= cert + 1e-15


def _defects_reference(bank):
    """{s: E_s}, built coefficient by coefficient."""
    n = bank.scale
    e = {0: -np.eye(n, dtype=np.complex128)}
    for i, p in enumerate(bank.filters):
        for j, q in enumerate(bank.filters):
            for a in range(p.min_degree, p.max_degree + 1):
                for b in range(q.min_degree, q.max_degree + 1):
                    if (a - b) % n == 0:
                        es = e.setdefault((a - b) // n, np.zeros((n, n), dtype=np.complex128))
                        es[i, j] += p.coefficient(a) * np.conj(q.coefficient(b))
    return e


def _certificate_reference(bank):
    """sum_s ||E_s||_2 with E_s built coefficient by coefficient."""
    return sum(np.linalg.norm(es, ord=2) for es in _defects_reference(bank).values())


@pytest.mark.parametrize("spread", [5, 60])
@pytest.mark.parametrize("scale", [2, 3, 4])
def test_defect_stack_matches_coefficientwise_defects(scale, spread, rng):
    # filters close together share one polyphase offset; far apart, each keeps its own
    for _ in range(3):
        sizes = rng.integers(1, 7, size=scale)
        bank = FilterBank(scale, tuple(
            LaurentPoly(rng.normal(size=k) + 1j * rng.normal(size=k), min_degree=int(lo))
            for k, lo in zip(sizes, rng.integers(-spread, spread + 1, size=scale))))
        ref = _defects_reference(bank)
        shifts, e = filterbank._defect_stack(bank.filters, scale)
        assert shifts[0] == 0 and np.all(np.diff(shifts) > 0)
        for s, es in zip(shifts, e):
            assert np.max(np.abs(es - ref.get(int(s), 0.0))) < 1e-12
        assert {s for s in ref if s >= 0} <= set(shifts.tolist())


@pytest.mark.parametrize("name", ["haar2", "haar3", "haar4", "haar8", "haar16", "haar64",
                                  "pu4", "pu8", "perturbed8"])
def test_defect_norms_equal_the_matrix_two_norm_bit_for_bit(name, rng):
    if name.startswith("haar"):
        bank = fixtures.fixture_bank(name)
    else:
        bank = fixtures.random_paraunitary_bank(int(name[-1]), 3, rng)
        if name.startswith("perturbed"):
            filters = list(bank.filters)
            filters[1] = filters[1] + LaurentPoly.monomial(2) * 1e-3j
            bank = FilterBank(bank.scale, tuple(filters))
    _, e = filterbank._defect_stack(bank.filters, bank.scale)
    norms = filterbank._defect_norms(e)
    assert norms.tobytes() == np.linalg.norm(e, ord=2, axis=(1, 2)).tobytes()


@pytest.mark.parametrize("scale", [2, 3, 4])
def test_certificate_matches_coefficientwise_sum(scale, rng):
    for _ in range(3):
        sizes = rng.integers(1, 7, size=scale)
        bank = FilterBank(scale, tuple(
            LaurentPoly(rng.normal(size=k) + 1j * rng.normal(size=k), min_degree=int(lo))
            for k, lo in zip(sizes, rng.integers(-5, 6, size=scale))))
        assert abs(unitarity_residual(bank) - _certificate_reference(bank)) < 1e-12


def test_certificate_of_a_zero_filter():
    # S_1 = 0: the (1, 1) entry of G - I is -1 at every point
    bank = FilterBank(2, (fixtures.haar(2).filters[0], LaurentPoly.zero()))
    assert unitarity_residual(bank) == pytest.approx(1.0, abs=1e-15)
    assert unitarity_residual(bank) == pytest.approx(1.0, abs=1e-14)


def test_certificate_only_for_polynomial_banks(shannon_bank):
    assert check_bank(shannon_bank).coefficient_residual is None


# ---------------------------------------------------------------------------
# batched completion


def _householder_rows_reference(v):
    """The scalar Householder construction, one orbit at a time."""
    n = len(v)
    x = np.conj(v)
    beta = -x[0] / abs(x[0]) if abs(x[0]) > 0 else 1.0 + 0.0j
    u = x - beta * np.eye(n, dtype=np.complex128)[0]
    nu = np.vdot(u, u).real
    if nu < 1e-30:
        h = np.eye(n, dtype=np.complex128)
        beta = x[0] if abs(x[0]) > 0 else 1.0
    else:
        h = np.eye(n, dtype=np.complex128) - 2.0 * np.outer(u, np.conj(u)) / nu
    d = np.ones(n, dtype=np.complex128)
    d[0] = np.conj(beta)
    return d[:, None] * h


@pytest.mark.parametrize("scale", [3, 4])
def test_batched_completion_matches_orbitwise(scale):
    m0 = fixtures.random_paraunitary_bank(scale, 2, np.random.default_rng(scale)).filters[0]
    bank = complete_filterbank(m0, scale)
    grid = bank.filters[0].grid
    vals = sample(m0, grid).values
    step = grid.M // scale
    expected = np.zeros((scale, grid.M), dtype=np.complex128)
    expected[0] = vals
    for j in range(step):
        idx = j + step * np.arange(scale)
        q = _householder_rows_reference(vals[idx] / math.sqrt(scale))
        expected[1:, idx] = math.sqrt(scale) * q[1:, :]
    got = np.stack([f.values for f in bank.filters])
    assert np.max(np.abs(got - expected)) < 1e-13


def test_householder_rows_degenerate_inputs():
    for v in (np.array([1j, 0, 0]), np.array([0, 1.0, 0]), np.array([-1.0, 0])):
        q = householder_rows(v)
        assert np.max(np.abs(q - _householder_rows_reference(v))) < 1e-15
        assert np.max(np.abs(q[0] - v)) < 1e-15
