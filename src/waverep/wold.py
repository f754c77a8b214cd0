"""Wold classification of a weighted composition isometry S xi = m(z) xi(z^N).

For these operators the unitary part of the Wold decomposition is at most
one-dimensional, and it is one-dimensional exactly when |m| = 1 almost
everywhere and the eigenvalue problem m(z) xi(z^N) = lambda xi(z) has a
unimodular measurable solution.  Each filter kind takes one route.

* Polynomial filters are decided by their coefficients; no grid is built.
  The isometry residual is qmf_residual, N times the polyphase certificate
  of the single filter, and the unimodularity residual is the l1 norm of
  the coefficients of m m~ - 1 (m~ the on-circle conjugate), which bounds
  max ||m|^2 - 1| and so max ||m| - 1|.  A unimodular trigonometric
  polynomial is a single monomial c z^d, and a fixed Fourier mode exists
  iff (N-1) divides d, giving the closed form xi = z^(-d/(N-1)) and
  lambda = c.  The projection decay ||S^k S*^k xi|| of a batch of probes is
  computed on the window T = laurent.invariant_window of m, which S* leaves
  invariant and carries every mode into: one isometry gate and one matrix of
  S*|_T for all probes (range_projection_norms), built only for an
  isometry whose T is not empty.
* A grid filter is solved on its own grid, which must have size coprime
  to N so that z -> z^N permutes the points, and a callable on
  CircleGrid.dynamics_grid(N).  A grid filter's isometry residual comes
  from the real FFT of |m|^2 on its grid, a callable's from the sampled
  coset sums on the default check grid.  The fixed point z = 1 pins
  lambda = m(1)/|m(1)|; the equation is then the cocycle equation
  Delta(z) u1(z) = u2(z) Delta(z^N) with u1 = lambda and u2 = m, solved by
  the same per-cycle telescope as cocycle equivalence
  (permutative._telescope): a cycle of length L admits xi iff the product
  of m over it is lambda^L, and xi has one free phase per cycle.  The
  cycles are CircleGrid.cycles' memoized table, and the largest cocycle
  defect is located by its grid point and the least point of its cycle
  (WoldReport.cocycle_worst).  A finite grid is not ergodic, so verdicts
  from raw grid data carry a grid_screen flag, and a callable is
  cross-checked on the next coprime grid: N^(L+1) - 1 points after the
  N^L - 1 of its dynamics grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cuntz import apply_filter_adjoint, apply_filter_isometry, filter_window_adjoint
from .filterbank import (
    Filter,
    FilterBank,
    qmf_residual,
    require_verified,
    values_on_coset,
)
from .laurent import CircleGrid, GridFunction, InputError, LaurentPoly, invariant_window
from .permutative import _telescope

# bound on the isometry and the unimodularity residual of a unitary part
# (range_projection_norms raises above the first), and on a monomial's
# coefficient deviations
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
    # (grid index, least point of its cycle) of the largest grid cocycle defect
    cocycle_worst: tuple | None = None


def isometry_residual(m: Filter, scale: int) -> float:
    """Deviation of sum_k |m(rho^k z)|^2 from N, i.e. the isometry condition.

    Raw grid samples on a grid coprime to N, where the rotated points are
    unavailable, have the coset sum projected out of the centered DFT: the
    condition says the Fourier modes of |m|^2 at nonzero multiples of N
    vanish and the mean is 1.  That is exact for band-limited data and a
    screen otherwise.  |m|^2 is real, so one real FFT gives the modes
    0..M//2, and the mode -k has the modulus of k.  Each multiple k of N in
    1..M//2 has a distinct mirror -k, since N does not divide M/2 when
    gcd(M, N) = 1, so it is counted twice.  Every other filter gets
    qmf_residual: N times the exact certificate of a polynomial, the sampled
    deviation otherwise.
    """
    if isinstance(m, GridFunction) and math.gcd(m.grid.M, scale) == 1:
        modes = np.fft.rfft(np.abs(m.values) ** 2) / m.grid.M
        return float(scale * (2.0 * np.sum(np.abs(modes[scale::scale])) + abs(modes[0] - 1.0)))
    return qmf_residual(m, scale)


def range_projection_norms(m: Filter, scale: int, probes, k_max: int) -> list[list[float]]:
    """Norms ||S^k S*^k xi|| for k = 0..k_max, one non-increasing list per probe xi.

    Exact coefficient arithmetic; polynomial filters and probes only, since
    the grid permutation model makes every composition invertible and would
    report a unitary for any filter.  One isometry gate serves all probes:
    ValueError when the isometry residual exceeds UNIMODULAR_TOL.

    The decay is computed on the window T = [p, q] = invariant_window of m:
    S* leaves T invariant and carries every mode into it.  Each probe is
    stepped by exact adjoints until it lies in T, and then all probes advance
    together by the matrix of S*|_T (cuntz.filter_window_adjoint), one
    product per k.  The window is a (q - p + 1)^2 matrix, so it is built
    only when the steps left to the exact chain are at least q - p + 1; a
    wider window (4098 modes for (1 + z^4097)/sqrt(2)) keeps the chain and
    allocates no matrix.  T is empty when the degree range of m holds no
    multiple of N - 1, as for z^d with (N - 1) not dividing d: S* is then
    nilpotent on polynomials, and every probe takes the exact chain to 0.
    """
    if not isinstance(m, LaurentPoly):
        raise TypeError("range projections need a polynomial filter (exact adjoints)")
    probes = list(probes)
    if not all(isinstance(p, LaurentPoly) for p in probes):
        raise TypeError("range projections need polynomial probes (exact adjoints)")
    if k_max < 0:
        raise InputError(f"k_max must be >= 0, got {k_max}")
    res = isometry_residual(m, scale)
    if res > UNIMODULAR_TOL:
        raise ValueError(f"filter is not an isometry symbol (residual {res:.3g})")
    # S is an isometry (residual checked above), so ||S^k S*^k xi|| equals
    # ||S*^k xi||; re-applying S^k would only inflate the degree by N^k.
    lo, hi = invariant_window(m.min_degree, m.max_degree, scale)
    carried, out = [], []
    for p in probes:
        norms = [p.norm2()]
        while len(norms) <= k_max and not (
                p.is_zero() or (lo <= p.min_degree and p.max_degree <= hi)):
            p = apply_filter_adjoint(m, scale, p)
            norms.append(p.norm2())
        carried.append(p)
        out.append(norms)
    steps = [k_max + 1 - len(norms) for norms in out]
    if lo > hi or hi - lo + 1 > sum(steps):
        for p, norms in zip(carried, out):
            while len(norms) <= k_max:
                p = apply_filter_adjoint(m, scale, p)
                norms.append(p.norm2())
        return out
    window = filter_window_adjoint(m, scale, (lo, hi))
    vecs = np.stack([p.coeff_window(lo, hi) for p in carried], axis=1)
    path = np.empty((max(steps), *vecs.shape), dtype=np.complex128)
    for k in range(len(path)):
        vecs = path[k] = window @ vecs
    decay = np.sqrt(np.sum(path.real ** 2 + path.imag ** 2, axis=1))
    for j, (n, norms) in enumerate(zip(steps, out)):
        norms.extend(decay[:n, j].tolist())
    return out


def _unimodularity_bound(m: LaurentPoly) -> float:
    """l1 norm of the coefficients of m m~ - 1: bounds max ||m|^2 - 1| >= max ||m| - 1|."""
    return float(np.sum(np.abs((m * m.conj_reflect() - 1).coeffs)))


def _monomial_form(m: LaurentPoly):
    """Detect m = c z^d with |c| = 1, within UNIMODULAR_TOL; returns (c, d) or None."""
    mags = np.abs(m.coeffs)
    j = int(np.argmax(mags))
    rest = np.delete(mags, j)
    if (rest.size and np.max(rest) > UNIMODULAR_TOL) or abs(mags[j] - 1.0) > UNIMODULAR_TOL:
        return None
    return complex(m.coeffs[j]), m.min_degree + j


def _grid_eigendata(values: np.ndarray, grid: CircleGrid, scale: int):
    """Eigenvalue and eigenfunction of the grid equation, or None.

    Returns (lam, xi_values, cocycle_residual, j), j the first grid index
    where the cocycle defect |m xi(z^N) - lambda xi| peaks.  Index 0 is a
    fixed point of j -> N j mod M, so m(1) pins lambda; xi(z^N) =
    (lambda / m(z)) xi(z) is then telescoped along the cycles.
    """
    lam = complex(values[0])
    lam /= abs(lam)
    xi = _telescope(lam / values, grid, scale)
    if xi is None:
        return None
    defect = np.abs(values * xi[grid.multiply_map(scale)] - lam * xi)
    j = int(np.argmax(defect))
    return lam, xi, float(defect[j]), j


def wold_analysis(m: Filter, scale: int, probes_kmax: int = 20) -> WoldReport:
    """Classify the unitary part of S xi = m(z) xi(z^N); dim is 0 or 1.

    A polynomial is decided by its coefficients, a grid filter on its own
    grid (whose size must be coprime to N, else InputError) and a callable
    on CircleGrid.dynamics_grid(N), of N^L - 1 points, with a unitary part
    confirmed on N^(L+1) - 1 points.  UNIMODULAR_TOL bounds the unimodularity
    and the isometry residual of a unitary part; a filter whose isometry
    residual exceeds it is no isometry symbol and gets neither a unitary part
    nor a projection decay.
    """
    if isinstance(m, GridFunction) and math.gcd(m.grid.M, scale) != 1:
        raise InputError(f"grid size {m.grid.M} is not coprime to the scale {scale}")
    iso = isometry_residual(m, scale)
    if isinstance(m, LaurentPoly):
        return _polynomial_wold(m, scale, iso, probes_kmax)

    grid = m.grid if isinstance(m, GridFunction) else CircleGrid.dynamics_grid(scale)
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
    if report.unimodularity_residual > UNIMODULAR_TOL or iso > UNIMODULAR_TOL:
        return report
    grid_hit = _grid_eigendata(vals, grid, scale)
    if grid_hit is None:
        return report
    lam, xi_vals, resid, j = grid_hit
    if not isinstance(m, GridFunction):
        # a callable can be re-evaluated: cross-check on the next coprime grid,
        # N^(L+1) - 1 after M = N^L - 1
        second = CircleGrid(scale * grid.M + scale - 1)
        report.grid_sizes = (grid.M, second.M)
        # both grids hold z = 1, so both pin the same lambda = m(1)/|m(1)|
        if _grid_eigendata(values_on_coset(m, 1, second)[0], second, scale) is None:
            report.anomaly = "grid verdicts disagree across coprime grid sizes (resolution artifact)"
            return report
        report.grid_screen = False
    report.unitary_dim = 1
    report.eigenvalue = lam
    report.eigenfunction = GridFunction(grid, xi_vals)
    report.cocycle_residual = resid
    report.cocycle_worst = (j, grid.cycle_min(scale, j))
    return report


def _polynomial_wold(m: LaurentPoly, scale: int, iso: float, probes_kmax: int) -> WoldReport:
    """The coefficient route: unimodularity bound, monomial form, closed form; the
    projection decay of four probes when m is an isometry and probes_kmax is not 0."""
    decay = {}
    if probes_kmax and iso <= UNIMODULAR_TOL:
        probes = {"1": LaurentPoly.one(), "z": LaurentPoly.monomial(1),
                  "1/z": LaurentPoly.monomial(-1), "m": m}
        decay = dict(zip(probes, range_projection_norms(m, scale, probes.values(), probes_kmax)))
    report = WoldReport(
        unitary_dim=0,
        eigenvalue=None,
        eigenfunction=None,
        unimodularity_residual=_unimodularity_bound(m),
        cocycle_residual=None,
        projection_decay=decay,
        isometry_residual=iso,
    )
    if report.unimodularity_residual > UNIMODULAR_TOL or iso > UNIMODULAR_TOL:
        return report
    form = _monomial_form(m)
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


def wavelet_shift_check(fb: FilterBank) -> bool:
    """True iff every filter of a verified low-pass bank generates a shift.

    A bank that comes from an orthonormal scaling function has |m_i| non-
    constant, so every S_i has zero unitary part; constant-modulus filters
    (monomial banks) fail this.  Only the unitary dimension of each Wold
    report is read, so no range projection is built (probes_kmax=0).  The
    bank must pass filterbank.require_verified (VERIFY_TOL).
    """
    require_verified(fb)
    return all(wold_analysis(f, fb.scale, probes_kmax=0).unitary_dim == 0 for f in fb.filters)
