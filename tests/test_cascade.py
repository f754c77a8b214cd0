import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import waverep
from waverep import fixtures
from waverep.cascade import (
    LineSamples,
    _values_at_t,
    cascade_limit_residual,
    mother_hat,
    per_residual,
    scaling_hat,
    symmetric_grid,
    truncated_product,
)
from waverep.filterbank import AngleFunction, FilterBank
from waverep.laurent import CircleGrid, LaurentPoly, sample

TWO_PI = 2.0 * math.pi
TARGET0 = 1.0 / math.sqrt(TWO_PI)


def wide_samples(bank, lattice_max, depth=20, per_spacing=math.pi / 32):
    t_max = (2 * lattice_max + 1) * math.pi
    n = 2 * int(round(t_max / per_spacing)) + 1
    return scaling_hat(bank.filters[0], bank.scale, t_max=t_max, samples=n, depth=depth)


# ---------------------------------------------------------------------------
# scaling function


@pytest.mark.parametrize("name", ["haar2", "haar3", "db4"])
def test_value_at_zero(name):
    bank = fixtures.fixture_bank(name)
    phi = scaling_hat(bank.filters[0], bank.scale)
    assert abs(phi.value_at_zero() - TARGET0) < 1e-12


def test_haar_zero_at_lattice():
    m0 = fixtures.haar(2).filters[0]
    vals = TARGET0 * truncated_product(m0, 2, np.array([TWO_PI, -TWO_PI, 2 * TWO_PI, -2 * TWO_PI]), 20)
    assert np.max(np.abs(vals)) < 1e-12


def test_haar_matches_closed_form():
    # oracle: the infinite product for the two-tap filter telescopes to
    # (2 pi)^(-1/2) |sin(t/2) / (t/2)| in modulus
    phi = scaling_hat(fixtures.haar(2).filters[0], 2, t_max=8 * math.pi, samples=4097, depth=20)
    t = phi.t_values
    ref = np.where(t == 0, 1.0, np.sin(t / 2) / np.where(t == 0, 1.0, t / 2))
    assert np.max(np.abs(np.abs(phi.values) - TARGET0 * np.abs(ref))) < 1e-6


def test_depth_recursion_exact():
    m0 = fixtures.haar(2).filters[0]
    t = symmetric_grid(4 * math.pi, 257)
    p5 = truncated_product(m0, 2, t, 5)
    p6 = truncated_product(m0, 2, t, 6)
    factor = m0.values_at_t(t / 2**6) / math.sqrt(2)
    assert np.max(np.abs(p6 - factor * p5)) < 1e-15


def test_depth_stability():
    # the truncation tail is a phase of size ~ c * t * 2^(-depth-1), so the
    # doubling gap shrinks by 2^(-10) per 10 extra layers
    m0 = fixtures.db4().filters[0]
    gap20 = np.max(np.abs(scaling_hat(m0, 2, depth=20).values
                          - scaling_hat(m0, 2, depth=40).values))
    gap30 = np.max(np.abs(scaling_hat(m0, 2, depth=30).values
                          - scaling_hat(m0, 2, depth=60).values))
    assert gap20 < 1e-5
    assert gap30 < 1e-8
    assert gap30 < gap20 / 500


def test_fail_fast_on_bad_lowpass():
    with pytest.raises(ValueError):
        scaling_hat(LaurentPoly.one(), 2)
    with pytest.raises(ValueError):
        scaling_hat(LaurentPoly([math.sqrt(2.0)]), 2)  # no zero at t = pi


def test_lowpass_gate_messages():
    # |m(0)| = sqrt(2) passes the low-pass check, but the phase is wrong
    with pytest.raises(ValueError, match="value at t=0"):
        scaling_hat(-fixtures.haar(2).filters[0], 2)
    with pytest.raises(ValueError, match="value at t=0"):
        scaling_hat(LaurentPoly.one(), 2)
    with pytest.raises(ValueError, match="low-pass conditions"):
        scaling_hat(LaurentPoly([math.sqrt(2.0)]), 2)


def test_grid_contains_zero():
    phi = scaling_hat(fixtures.haar(2).filters[0], 2, samples=4096)  # even gets bumped
    assert phi.value_at_zero() == pytest.approx(TARGET0, abs=1e-12)


# ---------------------------------------------------------------------------
# mother functions


def test_mother_vanishes_at_zero(haar_bank):
    phi = scaling_hat(haar_bank.filters[0], 2)
    psi = mother_hat(haar_bank, 1, phi)
    assert abs(psi.value_at_zero()) < 1e-14


def test_mother_index_validation(haar_bank):
    phi = scaling_hat(haar_bank.filters[0], 2)
    with pytest.raises(ValueError):
        mother_hat(haar_bank, 0, phi)
    with pytest.raises(IndexError):
        mother_hat(haar_bank, 2, phi)


def test_mother_periodization(haar_bank):
    # orthonormal translates of the mother function: same lattice identity.
    # The band filter doubles the algebraic tail relative to the father
    # (|m_1|^2 reaches 2), so the K = 64 truncation sits near 1.0e-3.
    wide = wide_samples(haar_bank, 128)
    psi = mother_hat(haar_bank, 1, wide)
    assert per_residual(psi, 64).residual < 2.1e-3
    assert per_residual(psi, 128).residual < 1.1e-3


def test_shannon_mother_support(shannon_bank):
    phi = scaling_hat(shannon_bank.filters[0], 2, t_max=8 * math.pi, samples=4097, depth=20)
    psi = mother_hat(shannon_bank, 1, phi)
    t, v = psi.t_values, np.abs(psi.values)
    # oracle by direct evaluation of the half-open band indicators:
    # support is [pi, 2 pi) on the right and [-2 pi, -pi) on the left
    support = ((t >= math.pi) & (t < TWO_PI)) | ((t >= -TWO_PI) & (t < -math.pi))
    assert np.allclose(v[support], TARGET0, atol=1e-12)
    assert np.max(v[~support]) == 0.0


# ---------------------------------------------------------------------------
# periodization residual


def test_per_shannon_exact(shannon_bank):
    wide = wide_samples(shannon_bank, 64)
    pr = per_residual(wide, 64)
    assert pr.residual < 1e-6


def test_per_haar(haar_bank):
    pr = per_residual(wide_samples(haar_bank, 64), 64)
    assert pr.residual < 1e-3
    assert pr.tail_estimate > 0


def test_per_scaled_failure(haar_bank):
    wide = wide_samples(haar_bank, 64)
    doubled = LineSamples(wide.t_values, 2.0 * wide.values, wide.depth)
    # oracle: the sum quadruples, so the deviation is 3/(2 pi) up to the tail
    assert per_residual(doubled, 64).residual == pytest.approx(3 / TWO_PI, abs=1e-3)


def test_per_monotone_in_lattice(haar_bank):
    wide = wide_samples(haar_bank, 64)
    r16 = per_residual(wide, 16).residual
    r32 = per_residual(wide, 32).residual
    r64 = per_residual(wide, 64).residual
    assert r64 <= r32 + 1e-12 <= r16 + 2e-12


def test_per_requires_range(haar_bank):
    phi = scaling_hat(haar_bank.filters[0], 2, t_max=4 * math.pi, samples=257)
    with pytest.raises(ValueError):
        per_residual(phi, 64)


def test_per_requires_aligned_spacing(haar_bank):
    phi = scaling_hat(haar_bank.filters[0], 2, t_max=10.0, samples=401)
    with pytest.raises(ValueError):
        per_residual(phi, 1)


# ---------------------------------------------------------------------------
# cascade limits


def test_limit_gap_decays_geometrically(haar_bank):
    m0 = haar_bank.filters[0]
    one = LaurentPoly.one()
    r10 = cascade_limit_residual(m0, 2, one, 10)
    r14 = cascade_limit_residual(m0, 2, one, 14)
    # the truncation gap carries a phase of size ~ t 2^(-n-1); at |t| <= 2 pi
    # that is 2^(-n) at worst
    assert r10 < 2.0 ** (-10) * 1.05
    assert r14 < 2.0 ** (-14) * 1.05
    assert r14 < r10 / 8


def test_limit_zero_vector(haar_bank):
    assert cascade_limit_residual(haar_bank.filters[0], 2, LaurentPoly.zero(), 10) == 0.0


def test_limit_mother_variant(haar_bank):
    m0, m1 = haar_bank.filters
    one = LaurentPoly.one()
    r10 = cascade_limit_residual(m0, 2, one, 10, band=m1)
    r14 = cascade_limit_residual(m0, 2, one, 14, band=m1)
    assert r10 < 2.0 ** (-9) * 1.05
    assert r14 < r10 / 8


def test_limit_with_nontrivial_xi(haar_bank):
    xi = LaurentPoly([0.5, 0.0, 0.5j], min_degree=-1)
    r = cascade_limit_residual(haar_bank.filters[0], 2, xi, 12)
    assert r < 2.0 ** (-12) * xi.norm2() * 4


def test_deep_products_at_scale_three_stay_finite():
    # 3**1000 has no float value; the product divides t by 3 once per factor
    m0 = fixtures.fixture_bank("haar3").filters[0]
    vals = truncated_product(m0, 3, np.linspace(-8 * math.pi, 8 * math.pi, 33), 1000)
    assert np.all(np.isfinite(vals))
    assert abs(vals[16] - 1.0) < 1e-12
    gap = cascade_limit_residual(m0, 3, LaurentPoly.one(), 700, samples=65)
    assert math.isfinite(gap)


def _old_truncated_product(lowpass, scale, t, depth):
    # the level loop as written before it scaled each level into its own buffer
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    acc = np.ones(t.shape, dtype=np.complex128)
    root = math.sqrt(scale)
    for _ in range(depth):
        t = t / scale
        vals, _ = _values_at_t(lowpass, t)
        acc *= vals / root
    return acc


def _product_filters():
    rng = np.random.default_rng(7)
    shannon_low, shannon_high = fixtures.shannon().filters
    return {
        "db4": fixtures.db4().filters[0],
        "laurent_negative_degrees": LaurentPoly(rng.normal(size=7) + 1j * rng.normal(size=7),
                                                min_degree=-4),
        "grid": sample(fixtures.db4().filters[0], CircleGrid(96)),
        "shannon_low": shannon_low,
        "shannon_high": shannon_high,
    }


@pytest.mark.parametrize("depth", [1, 20, 64])
@pytest.mark.parametrize("scale", [2, 3])
@pytest.mark.parametrize("name", list(_product_filters()))
def test_truncated_product_is_the_old_loop_bit_for_bit(name, scale, depth):
    f = _product_filters()[name]
    t = np.concatenate([symmetric_grid(8 * math.pi, 4097),
                        np.random.default_rng(depth).uniform(-40.0, 40.0, 257)])
    assert np.array_equal(truncated_product(f, scale, t, depth),
                          _old_truncated_product(f, scale, t, depth))


def test_truncated_product_writes_no_array_a_callable_holds():
    cached = {}
    seen = []

    def rule(t):
        seen.append((t, t.copy()))
        return cached.setdefault(t.shape, np.exp(-1j * np.arange(t.size)) * math.sqrt(2.0))

    rule(np.zeros(9))
    kept = cached[(9,)].copy()
    vals = truncated_product(AngleFunction(rule), 2, np.linspace(-1.0, 1.0, 9), 12)
    assert np.allclose(np.abs(vals), 1.0)
    assert np.array_equal(cached[(9,)], kept)
    assert len(seen) == 13
    for t, copy in seen:
        assert np.array_equal(t, copy)


@pytest.mark.parametrize("samples", [2113, 4097, 16385])
@pytest.mark.parametrize("name", ["db4", "haar2", "haar3"])
def test_scaling_hat_is_the_old_loop_bit_for_bit(name, samples):
    bank = fixtures.fixture_bank(name)
    phi = scaling_hat(bank.filters[0], bank.scale, samples=samples)
    old = _old_truncated_product(bank.filters[0], bank.scale, phi.t_values, phi.depth)
    assert np.array_equal(phi.values, TARGET0 * old)
    psi = mother_hat(bank, 1, phi)
    base = TARGET0 * _old_truncated_product(bank.filters[0], bank.scale,
                                            phi.t_values / bank.scale, phi.depth)
    band, _ = _values_at_t(bank.filters[1], phi.t_values / bank.scale)
    assert np.array_equal(psi.values, band * base / math.sqrt(bank.scale))


_FAULT_PROBE = """
import resource
from waverep import fixtures
from waverep.cascade import scaling_hat
lowpass = fixtures.db4().filters[0]
scaling_hat(lowpass, 2, samples=16385)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    scaling_hat(lowpass, 2, samples=16385)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(min(faults))
"""


def test_warm_polynomial_products_fault_in_few_pages():
    # the level loop evaluates in buffers it allocates once per product; with
    # fresh arrays at every level a warm call took about 3460 minor faults
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the count depends on glibc's malloc reusing freed buffers")
    # a fresh interpreter with glibc's own malloc and its default thresholds
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k not in ("GLIBC_TUNABLES", "LD_PRELOAD")}
    src = os.path.dirname(os.path.dirname(waverep.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert int(run.stdout) <= 500


def test_mother_is_approximate_only_for_a_grid_bank():
    # a polynomial or callable bank is evaluated exactly; a grid bank by
    # nearest-grid lookup
    g = CircleGrid(4096)
    grid_db4 = FilterBank(2, tuple(sample(f, g) for f in fixtures.db4().filters))
    for bank, approximate in ((fixtures.db4(), False), (fixtures.haar(3), False),
                              (fixtures.shannon(), False), (grid_db4, True)):
        phi = scaling_hat(bank.filters[0], bank.scale, samples=257, depth=8)
        for i in range(1, bank.scale):
            assert mother_hat(bank, i, phi).approximate is approximate, (bank.kind, i)


def test_per_tail_estimate_is_the_closed_form_on_haar(haar_bank):
    # |phihat_d(t)|^2 = (1/2pi) (sin(t/2) / (2^d sin(t/2^(d+1))))^2 for the Haar
    # low-pass at depth d; the tail estimate is K max over |t| <= pi of the
    # outermost ring |phihat(t + 2 pi K)|^2 + |phihat(t - 2 pi K)|^2
    lattice, depth = 64, 20
    wide = wide_samples(haar_bank, lattice, depth=depth)

    def power(t):
        return (np.sin(t / 2) / (2.0 ** depth * np.sin(t / 2.0 ** (depth + 1)))) ** 2 / TWO_PI

    t = wide.t_values[np.abs(wide.t_values) <= math.pi + 1e-9]
    ring = power(t + TWO_PI * lattice) + power(t - TWO_PI * lattice)
    want = lattice * float(np.max(ring))
    assert per_residual(wide, lattice).tail_estimate == pytest.approx(want, rel=1e-9)
