"""Frequency-side scaling and mother functions by truncated infinite products.

The scaling function is computed on the Fourier side as

    phihat(t) = (2*pi)^(-1/2) * prod_{k=1..depth} N^(-1/2) m_0(t / N^k),

which converges uniformly on compacts for Lipschitz low-pass filters.  The
mother functions follow from the band split, and the periodization residual
checks the lattice-sum identity sum_k |phihat(t + 2*pi*k)|^2 = 1/(2*pi) that
encodes orthonormality of the integer translates.

The level loop of truncated_product allocates its arrays once per product:
the level angles, divided in place, the scaled values and the accumulator,
and for a polynomial low-pass the points and Horner buffers that
filter_values_at_angles evaluates in.  It never writes into an array a
callable filter received or returned (a callable gets fresh angles at each
level), so a rule may keep its input or hand back a cached array.

Everything here stays on the frequency side; no time-domain rendering is
provided.  Grid-kind filters are evaluated by nearest-grid lookup, which is
honest only for smooth data; such runs carry an `approximate` flag.  That
lookup is the package's only approximate evaluation: every other value
comes from filterbank.filter_values_at_angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filterbank import Filter, FilterBank, check_lowpass, filter_values_at_angles
from .laurent import GridFunction, InputError, LaurentPoly

TWO_PI = 2.0 * math.pi
INV_SQRT_2PI = 1.0 / math.sqrt(TWO_PI)

DEFAULT_DEPTH = 20
DEFAULT_T_MAX = 8.0 * math.pi
DEFAULT_SAMPLES = 4097
# how much deeper than the compared product cascade_limit_residual's reference runs
LIMIT_EXTRA_DEPTH = 20
PER_TOL = 1e-3  # per_residual bound of the cascade command's periodization verdict
VALUE_AT_ZERO_TOL = 1e-10  # |phihat(0) - 1/sqrt(2 pi)| bound of the cascade command's verdict


@dataclass(frozen=True)
class LineSamples:
    """Complex samples of a function of the real angle t on [-T, T].

    The grid is uniform, symmetric about 0 and contains 0 (the constructor
    bumps an even requested count to the next odd one).
    """

    t_values: np.ndarray
    values: np.ndarray
    depth: int
    approximate: bool = False

    def value_at_zero(self) -> complex:
        j = int(np.argmin(np.abs(self.t_values)))
        if not abs(self.t_values[j]) <= 1e-12:  # a NaN grid holds no t = 0
            raise ValueError("sample grid does not contain t = 0")
        return complex(self.values[j])

    @property
    def spacing(self) -> float:
        return float(self.t_values[1] - self.t_values[0])


def grid_size(samples: int) -> int:
    """The number of points of symmetric_grid(t_max, samples): samples, bumped to odd."""
    return samples + 1 - samples % 2


def symmetric_grid(t_max: float, samples: int) -> np.ndarray:
    if samples < 3:
        raise InputError("need at least 3 samples")
    if not math.isfinite(2.0 * t_max):  # the span 2 t_max; linspace would fill NaN
        raise InputError(f"the grid span 2 * t_max must be finite, got t_max = {t_max!r}")
    return np.linspace(-t_max, t_max, grid_size(samples))


def _values_at_t(f: Filter, t: np.ndarray) -> tuple[np.ndarray, bool]:
    """Filter values at real angles t; flags nearest-grid approximation."""
    if isinstance(f, GridFunction):
        m = f.grid.M
        # z = exp(-i t) sits at grid angle -t; round to the nearest index
        j = np.round(np.mod(-t, TWO_PI) / TWO_PI * m).astype(np.int64) % m
        return f.values[j], True
    return filter_values_at_angles(f, -t), False


def truncated_product(lowpass: Filter, scale: int, t, depth: int) -> np.ndarray:
    """prod_{k=1..depth} scale^(-1/2) * m_0(t / scale^k) at the angles t."""
    # the z-angles -t / scale**k, divided in place level by level without
    # forming a float of scale**k; (-t) / scale is -(t / scale) bit for bit
    theta = np.negative(np.atleast_1d(np.asarray(t, dtype=np.float64)))
    acc = np.ones(theta.shape, dtype=np.complex128)
    buf = np.empty_like(acc)
    # a polynomial is evaluated in buffers owned here; any other filter gets
    # a fresh array of angles
    work = (np.empty((5,) + theta.shape, dtype=np.complex128)
            if isinstance(lowpass, LaurentPoly) else None)
    root = math.sqrt(scale)
    for _ in range(depth):
        theta /= scale
        if work is None:
            vals, _ = _values_at_t(lowpass, -theta)
        else:
            vals = filter_values_at_angles(lowpass, theta, work)
        np.divide(vals, root, out=buf)
        acc *= buf
    return acc


def scaling_hat(lowpass: Filter, scale: int, t_max: float = DEFAULT_T_MAX,
                samples: int = DEFAULT_SAMPLES, depth: int = DEFAULT_DEPTH) -> LineSamples:
    """Truncated-product samples of the scaling function's Fourier transform.

    Fails fast unless m_0(t=0) equals sqrt(N) (phase included): otherwise
    the product does not converge to the right normalization.  The value at
    t = 0 is (2*pi)^(-1/2) up to roundoff in the depth factors.
    """
    report = check_lowpass(lowpass, scale)
    if not report.phase_aligned:
        raise ValueError(
            f"low-pass value at t=0 is {report.value_at_zero:.6g}, expected sqrt({scale}); "
            "the infinite product would not converge to the right normalization"
        )
    if not report.ok:
        raise ValueError("filter fails the low-pass conditions (value sqrt(N) at 0, zeros at 2*pi*k/N)")
    t = symmetric_grid(t_max, samples)
    vals = INV_SQRT_2PI * truncated_product(lowpass, scale, t, depth)
    return LineSamples(t_values=t, values=vals, depth=depth,
                       approximate=isinstance(lowpass, GridFunction))


def mother_hat(fb: FilterBank, i: int, phihat: LineSamples) -> LineSamples:
    """Samples of the i-th mother function's Fourier transform.

    psihat_i(t) = N^(-1/2) m_i(t/N) phihat(t/N), with phihat re-evaluated at
    t/N through the truncated product at the same depth (no interpolation).
    """
    n = fb.scale
    if i < 1:
        raise InputError("index 0 is the scaling filter; mother indices start at 1")
    if i >= n:
        raise IndexError("filter index out of range")
    t = phihat.t_values
    band, approx1 = _values_at_t(fb.filters[i], t / n)
    base = INV_SQRT_2PI * truncated_product(fb.filters[0], n, t / n, phihat.depth)
    vals = band * base / math.sqrt(n)
    return LineSamples(t_values=t, values=vals, depth=phihat.depth,
                       approximate=phihat.approximate or approx1)


@dataclass
class PerResidual:
    """Deviation of the truncated lattice sum from 1/(2*pi) on [-pi, pi]."""

    residual: float
    tail_estimate: float


def per_residual(samples: LineSamples, lattice_max: int) -> PerResidual:
    """Max over t in [-pi, pi] of |sum_{|k|<=K} |f(t + 2*pi*k)|^2 - 1/(2*pi)|.

    The sample grid must contain the shifted points exactly: the spacing has
    to divide 2*pi and the grid must reach 2*pi*K + pi.  The truncation tail
    is estimated from the outermost ring and reported separately.
    """
    t = samples.t_values
    dt = samples.spacing
    step = TWO_PI / dt
    if abs(step - round(step)) > 1e-9 * step:
        raise ValueError("sample spacing must divide 2*pi so lattice shifts stay on the grid")
    step = int(round(step))
    center = int(np.argmin(np.abs(t)))
    half = int(round(math.pi / dt))
    lo = center - half - lattice_max * step
    hi = center + half + lattice_max * step
    if lo < 0 or hi >= len(t):
        raise ValueError("insufficient t range: need T_max >= 2*pi*K + pi")
    window = np.arange(center - half, center + half + 1)
    sq = np.abs(samples.values) ** 2
    total = np.zeros(window.shape)
    for k in range(-lattice_max, lattice_max + 1):
        total += sq[window + k * step]
    residual = float(np.max(np.abs(total - 1.0 / TWO_PI)))
    last_ring = sq[window + lattice_max * step] + sq[window - lattice_max * step]
    tail = float(np.max(last_ring)) * lattice_max
    return PerResidual(residual=residual, tail_estimate=tail)


def cascade_limit_residual(lowpass: Filter, scale: int, xi: LaurentPoly, depth: int,
                           t_max: float = 2.0 * math.pi, samples: int = 1025,
                           band: Filter | None = None) -> float:
    """Sup-norm gap between the depth-n cascade image of xi and its limit.

    With band=None this compares the n-fold low-pass image
    chi(t/N^n) * prod_{k=1..n} N^(-1/2) m_0(t/N^k) * xi(t) against the
    deeper product (depth n + LIMIT_EXTRA_DEPTH) times xi.  Passing a band filter
    compares the mother-function variant, which applies the band at t/N and
    the low-pass product above it.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    t = symmetric_grid(t_max, samples)
    xi_vals, _ = _values_at_t(xi, t)
    shrunk = t
    for _ in range(depth):
        shrunk = shrunk / scale
    chi = (np.abs(shrunk) <= math.pi).astype(np.float64)
    # the band branch is the low-pass branch one level up, weighted by N^(-1/2) m_band(t/N)
    if band is None:
        weight, base, levels = 1.0, t, depth
    else:
        weight = _values_at_t(band, t / scale)[0] / math.sqrt(scale)
        base, levels = t / scale, depth - 1

    def image(n: int) -> np.ndarray:
        return weight * truncated_product(lowpass, scale, base, n) * xi_vals

    return float(np.max(np.abs(chi * image(levels) - image(levels + LIMIT_EXTRA_DEPTH))))
