"""Wold classification of a weighted composition isometry S xi = m(z) xi(z^N).

For these operators the unitary part of the Wold decomposition is at most
one-dimensional, and it is one-dimensional exactly when |m| = 1 almost
everywhere and the eigenvalue problem m(z) xi(z^N) = lambda xi(z) has a
unimodular measurable solution.  Each filter kind takes one route.

* Polynomial filters are decided by their coefficients; no grid is built.
  The isometry residual is N times the polyphase certificate of the single
  filter, and the unimodularity residual is the l1 norm of the coefficients
  of m m~ - 1 (m~ the on-circle conjugate), which bounds max ||m|^2 - 1| and
  so max ||m| - 1|.  A unimodular trigonometric polynomial is a single
  monomial c z^d, and a fixed Fourier mode exists iff (N-1) divides d,
  giving the closed form xi = z^(-d/(N-1)) and lambda = c.
* Grid and callable filters are screened for unimodularity on a grid of
  size coprime to N, where z -> z^N permutes the points, and their
  isometry residual comes from the DFT of |m|^2 on that grid (a callable
  is sampled on a divisible grid instead).  The fixed point z = 1 pins
  lambda = m(1)/|m(1)|; the equation is then the cocycle equation
  Delta(z) u1(z) = u2(z) Delta(z^N) with u1 = lambda and u2 = m, solved by
  the same per-cycle telescope as cocycle equivalence
  (permutative._telescope): a cycle of length L admits xi iff the product
  of m over it is lambda^L, and xi has one free phase per cycle.  A finite
  grid is not ergodic, so verdicts from raw grid data carry a grid_screen
  flag, and a callable is cross-checked on a second coprime grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cuntz import apply_filter_adjoint, apply_filter_isometry
from .filterbank import (
    _polyphase_certificate,
    Filter,
    FilterBank,
    qmf_residual,
    require_verified,
    values_on_coset,
    VERIFY_TOL,
)
from .laurent import CircleGrid, GridFunction, LaurentPoly
from .permutative import _telescope

UNIMODULAR_TOL = 1e-8


@dataclass
class WoldReport:
    unitary_dim: int
    eigenvalue: complex | None
    eigenfunction: object | None  # LaurentPoly or GridFunction
    unimodularity_residual: float
    cocycle_residual: float | None
    projection_decay: dict = field(default_factory=dict)
    isometry_residual: float = 0.0
    grid_sizes: tuple = ()
    grid_screen: bool = False  # verdict rests on grid data only
    anomaly: str | None = None


def isometry_residual(m: Filter, scale: int) -> float:
    """Deviation of sum_k |m(rho^k z)|^2 from N, i.e. the isometry condition.

    A polynomial gets N times its exact polyphase certificate, which bounds
    the deviation everywhere on the circle.  An angle callable is evaluated
    on a divisible grid.  Raw grid samples live on a grid coprime to N where
    the rotated points are unavailable, so the coset sum is projected out of
    the centered DFT instead: the condition says the Fourier modes of |m|^2
    at nonzero multiples of N vanish and the mean is 1.  That is exact for
    band-limited data and a screen otherwise.
    """
    if isinstance(m, LaurentPoly):
        return scale * _polyphase_certificate((m,), scale)
    if isinstance(m, GridFunction):
        g = np.abs(m.values) ** 2
        mm = m.grid.M
        modes = np.fft.fft(g) / mm
        freqs = np.fft.fftfreq(mm, d=1.0 / mm).astype(np.int64)
        mult = (freqs % scale == 0) & (freqs != 0)
        return float(scale * (np.sum(np.abs(modes[mult])) + abs(modes[0] - 1.0)))
    return qmf_residual(m, scale)


def range_projection_norms(m: Filter, scale: int, probe: LaurentPoly, k_max: int,
                           tol: float = VERIFY_TOL) -> list[float]:
    """Norms ||S^k S*^k probe|| for k = 0..k_max (non-increasing).

    Exact coefficient arithmetic; polynomial filters only, since the grid
    permutation model makes every composition invertible and would report a
    unitary for any filter.
    """
    if not isinstance(m, LaurentPoly):
        raise TypeError("range projections need a polynomial filter (exact adjoints)")
    res = isometry_residual(m, scale)
    if res > max(tol, 1e-8):
        raise ValueError(f"filter is not an isometry symbol (residual {res:.3g})")
    # S is an isometry (residual checked above), so ||S^k S*^k xi|| equals
    # ||S*^k xi||; re-applying S^k would only inflate the degree by N^k.
    out = [probe.norm2()]
    down = probe
    for _ in range(k_max):
        down = apply_filter_adjoint(m, scale, down)
        out.append(down.norm2())
    return out


def _unimodularity_bound(m: LaurentPoly) -> float:
    """l1 norm of the coefficients of m m~ - 1: bounds max ||m|^2 - 1| >= max ||m| - 1|."""
    return float(np.sum(np.abs((m * m.conj_reflect() - 1).coeffs)))


def _monomial_form(m: LaurentPoly, tol: float = 1e-8):
    """Detect m = c z^d with |c| = 1; returns (c, d) or None."""
    if m.is_zero():
        return None
    mags = np.abs(m.coeffs)
    j = int(np.argmax(mags))
    rest = np.delete(mags, j)
    if (rest.size and np.max(rest) > tol) or abs(mags[j] - 1.0) > tol:
        return None
    return complex(m.coeffs[j]), m.min_degree + j


def _grid_eigendata(values: np.ndarray, grid: CircleGrid, scale: int):
    """Eigenvalue and eigenfunction of the grid equation, or None.

    Returns (lam, xi_values, cocycle_residual).  Index 0 is a fixed point of
    j -> N j mod M, so m(1) pins lambda; xi(z^N) = (lambda / m(z)) xi(z) is
    then telescoped along the cycles.
    """
    lam = complex(values[0])
    lam /= abs(lam)
    xi = _telescope(lam / values, grid, scale)
    if xi is None:
        return None
    resid = float(np.max(np.abs(values * xi[grid.multiply_map(scale)] - lam * xi)))
    return lam, xi, resid


def wold_analysis(m: Filter, scale: int, grid: CircleGrid | None = None,
                  tol: float = UNIMODULAR_TOL, probes_kmax: int = 20) -> WoldReport:
    """Classify the unitary part of S xi = m(z) xi(z^N); dim is 0 or 1.

    grid is the dynamics grid of a grid or callable filter; a polynomial is
    decided by its coefficients and does not consult it.
    """
    if not isinstance(m, LaurentPoly):
        if grid is None:
            grid = m.grid if isinstance(m, GridFunction) else CircleGrid.dynamics_grid(scale)
        if math.gcd(grid.M, scale) != 1:
            raise ValueError("dynamics grid size must be coprime to the scale")
    iso = isometry_residual(m, scale)
    if iso > max(tol, 1e-8):
        raise ValueError(f"filter is not an isometry symbol (residual {iso:.3g})")
    if isinstance(m, LaurentPoly):
        return _polynomial_wold(m, scale, iso, tol, probes_kmax)

    vals = values_on_coset(m, 1, grid)[0]
    report = WoldReport(
        unitary_dim=0,
        eigenvalue=None,
        eigenfunction=None,
        unimodularity_residual=float(np.max(np.abs(np.abs(vals) - 1.0))),
        cocycle_residual=None,
        isometry_residual=iso,
        grid_sizes=(grid.M,),
        grid_screen=isinstance(m, GridFunction),
    )
    if report.unimodularity_residual > tol:
        return report
    grid_hit = _grid_eigendata(vals, grid, scale)
    if grid_hit is None:
        return report
    lam, xi_vals, resid = grid_hit
    if not isinstance(m, GridFunction):
        # a callable can be re-evaluated: cross-check on a second coprime grid
        second = CircleGrid.dynamics_grid(scale, lo=grid.M + 1,
                                          hi=max(65535, (grid.M + 1) * scale))
        hit2 = _grid_eigendata(values_on_coset(m, 1, second)[0], second, scale)
        report.grid_sizes = (grid.M, second.M)
        if hit2 is None:
            report.anomaly = "grid verdicts disagree across coprime grid sizes (resolution artifact)"
            return report
        if abs(np.angle(hit2[0] / lam)) > 1e-6:
            report.anomaly = "eigenvalues disagree across coprime grid sizes"
            return report
        report.grid_screen = False
    report.unitary_dim = 1
    report.eigenvalue = lam
    report.eigenfunction = GridFunction(grid, xi_vals)
    report.cocycle_residual = resid
    return report


def _polynomial_wold(m: LaurentPoly, scale: int, iso: float, tol: float,
                     probes_kmax: int) -> WoldReport:
    """The coefficient route: unimodularity bound, monomial form, closed form."""
    probes = {"1": LaurentPoly.one(), "z": LaurentPoly.monomial(1),
              "1/z": LaurentPoly.monomial(-1), "m": m}
    report = WoldReport(
        unitary_dim=0,
        eigenvalue=None,
        eigenfunction=None,
        unimodularity_residual=_unimodularity_bound(m),
        cocycle_residual=None,
        projection_decay={k: range_projection_norms(m, scale, p, probes_kmax)
                          for k, p in probes.items()},
        isometry_residual=iso,
    )
    if report.unimodularity_residual > tol:
        return report
    form = _monomial_form(m, tol)
    if form is None:
        report.anomaly = ("filter is unimodular but is not a monomial; "
                          "a unimodular trigonometric polynomial must be one")
        return report
    c, d = form
    if d % (scale - 1) == 0:
        xi = LaurentPoly.monomial(-d // (scale - 1))
        report.unitary_dim = 1
        report.eigenvalue = c
        report.eigenfunction = xi
        report.cocycle_residual = float((apply_filter_isometry(m, scale, xi) - c * xi).norm2())
    return report


def wavelet_shift_check(fb: FilterBank, tol: float = VERIFY_TOL) -> bool:
    """True iff every filter of a verified low-pass bank generates a shift.

    A bank that comes from an orthonormal scaling function has |m_i| non-
    constant, so every S_i has zero unitary part; constant-modulus filters
    (monomial banks) fail this.  Only the unitary dimension of each Wold
    report is read, so no range projection is iterated (probes_kmax=0).
    """
    require_verified(fb, tol)
    return all(wold_analysis(f, fb.scale, probes_kmax=0).unitary_dim == 0 for f in fb.filters)
