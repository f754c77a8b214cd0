"""Scale-N filter banks and their unitarity / quadrature-mirror checks.

A bank holds a scale N >= 2 and N filters m_0 .. m_{N-1}.  Filters come in
three kinds, uniform within a bank:

* ``LaurentPoly`` -- trigonometric polynomials, evaluable anywhere (exact);
* ``GridFunction`` -- samples bound to one grid (checks need M % N == 0 so
  that rotation by the N-th root of unity is an index shift);
* ``AngleFunction`` -- an explicit rule t -> value, for filters like sharp
  band indicators that no polynomial represents.

The central object is the N x N modulation matrix C(z) with entries
N^(-1/2) m_i(rho^k z), rho = exp(2*pi*i/N); a bank is "verified" when that
matrix is unitary, up to tolerance.  Each kind takes one route, chosen
here and nowhere else: check_bank and the public qmf_residual and
unitarity_residual all take it.  No caller picks a grid: each kind's
finite model comes from the filters alone.

* A polynomial bank is decided by its coefficients; no grid is built.  The
  Gram matrix G(z) = C(z) C(z)*
  satisfies G(z) - I = sum_s E_s z^(N s), and every residual is read off
  the stack of polyphase defects E_s (Vaidyanathan, Multirate Systems and
  Filter Banks, 1993, ch. 14): the certificate sum_s ||E_s||_2 bounds the
  unitarity deviation, and N sum_s |E_s[i, j]| the quadrature-mirror and
  pairwise deviations, everywhere on the circle.
* A grid bank is sampled on its own grid, which needs M % N == 0, and a
  callable bank on default_check_grid(N).  Each filter is sampled once, and
  every residual is read off one batch of Gram matrices C(z) C(z)* over a
  fundamental domain of z -> rho z.  Their verdicts are screens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .laurent import CircleGrid, GridFunction, InputError, LaurentPoly, sample

# Residual below which a bank counts as verified.
VERIFY_TOL = 1e-10
# Deviations from sqrt(N) at t = 0 and from 0 at t = 2*pi*k/N that check_lowpass accepts.
LOWPASS_TOL = 1e-8

# Default number of points for check grids (rounded up to a multiple of N).
DEFAULT_CHECK_POINTS = 4096


class AngleFunction:
    """A filter given as a callable of the angle t (2*pi-periodic).

    The callable must accept a float ndarray and return a complex ndarray of
    the same shape.  Not JSON-serializable; export samples it onto a grid.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], label: str = "callable"):
        self.fn = fn
        self.label = label

    def values_at_t(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        return np.asarray(self.fn(t), dtype=np.complex128)

    def __repr__(self):
        return f"AngleFunction({self.label})"


Filter = Union[LaurentPoly, GridFunction, AngleFunction]


def filter_kind(f: Filter) -> str:
    if isinstance(f, LaurentPoly):
        return "poly"
    if isinstance(f, GridFunction):
        return "grid"
    if isinstance(f, AngleFunction):
        return "callable"
    raise TypeError(f"not a filter: {type(f).__name__}")


@dataclass(frozen=True)
class FilterBank:
    scale: int
    filters: tuple

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if self.scale < 2:
            raise InputError(f"a bank's scale must be >= 2, got {self.scale}")
        if len(self.filters) != self.scale:
            raise InputError(f"expected {self.scale} filters, got {len(self.filters)}")
        kinds = {filter_kind(f) for f in self.filters}
        if len(kinds) != 1:
            raise InputError("filters must all be of the same kind")
        if kinds == {"grid"}:
            grids = {f.grid.M for f in self.filters}
            if len(grids) != 1:
                raise InputError(f"grid filters must share one grid, got sizes {sorted(grids)}")

    @property
    def kind(self) -> str:
        return filter_kind(self.filters[0])


@dataclass
class CheckReport:
    """Residuals of the quadrature-mirror and unitarity conditions."""

    qmf_residuals: list
    pairwise_residuals: np.ndarray
    unitarity_residual: float
    lowpass_ok: bool
    grid_size: int | None  # None for a polynomial bank, which no grid decides
    worst_point: complex | None  # grid point where the unitarity deviation peaks
    coefficient_residual: float | None = None  # exact certificate; polynomial banks only
    worst_shift: int | None = None  # s >= 0 with the largest ||E_s||_2; polynomial banks only

    @property
    def verified(self) -> bool:
        return self.unitarity_residual <= VERIFY_TOL


def default_check_grid(scale: int) -> CircleGrid:
    """A grid whose size is a multiple of the scale (rotation = index shift)."""
    return CircleGrid(scale * math.ceil(DEFAULT_CHECK_POINTS / scale))


def filter_values_at_angles(f: Filter, theta: np.ndarray,
                            work: np.ndarray | None = None) -> np.ndarray:
    """Values of a filter at the circle points exp(i*theta): the one point evaluator.

    theta is a z-space angle; the package's t-convention (z = exp(-i t))
    makes this f evaluated at t = -theta for callable filters.  A grid
    filter has values at its own grid points only and raises ValueError
    at any other point.  A polynomial may be given `work`, a complex array
    of shape (5,) + theta.shape that the caller owns: the points and the
    Horner values are computed in it, and the values returned are a row of
    it that the next call with it overwrites.  Other filters ignore it.
    """
    if isinstance(f, LaurentPoly):
        if work is None:
            work = [np.empty(np.shape(theta), dtype=np.complex128) for _ in range(5)]
        z = np.exp(np.multiply(1j, theta, out=work[0]), out=work[0])
        return f._evaluate_unchecked(z, work[1:])
    if isinstance(f, AngleFunction):
        return f.values_at_t(-theta)
    if not isinstance(f, GridFunction):
        raise TypeError(f"not a filter: {type(f).__name__}")
    theta = np.asarray(theta, dtype=np.float64)
    j = np.round(theta / (2.0 * np.pi) * f.grid.M).astype(np.int64) % f.grid.M
    if np.any(np.abs(f.grid.points()[j] - np.exp(1j * theta)) > 1e-9):
        raise ValueError("grid filter has no value at this point")
    return f.values[j]


def values_on_coset(f: Filter, scale: int, grid: CircleGrid) -> np.ndarray:
    """Array V[k, j] = m(rho^k z_j), k = 0..N-1, j = 0..M/N-1: the grid values as N rows.

    Each filter is sampled once on the grid (a grid filter must be bound to it),
    and rotation by rho is the index shift M/N, so every kind needs N | M and
    row k is the k-th block of M/N values.  The rows are a view of the samples:
    a grid filter gets its own read-only values back.
    """
    n, m = scale, grid.M
    if m % n != 0:
        raise InputError(f"the grid size {m} is not divisible by the scale {n}")
    if isinstance(f, GridFunction):
        if f.grid != grid:
            raise InputError("grid filter is bound to a different grid")
        values = f.values
    elif isinstance(f, LaurentPoly):
        values = sample(f, grid).values
    else:
        values = filter_values_at_angles(f, grid.angles())
    return values.reshape(n, m // n)


def _own_grid(f: Filter, scale: int) -> CircleGrid:
    """A grid filter's own grid, else the default check grid."""
    return f.grid if isinstance(f, GridFunction) else default_check_grid(scale)


def _coset_gram(filters, scale: int):
    """(G, grid): G[j][i, i'] = (1/N) sum_k m_i(rho^k z_j) conj(m_i'(rho^k z_j)).

    A coset sum depends on z_j^N only, so G is formed at the first M/N points
    of the grid (_own_grid) only, whose cosets hold every grid point once.
    """
    grid = _own_grid(filters[0], scale)
    c = np.empty((grid.M // scale, len(filters), scale), dtype=np.complex128)
    for i, f in enumerate(filters):
        c[:, i, :] = values_on_coset(f, scale, grid).T
    c /= math.sqrt(scale)
    return c @ np.conj(c.transpose(0, 2, 1)), grid


# relative slack of the Frobenius screen, far above the rounding of either norm
_SCREEN_SLACK = 1e-6
# the least max squared norm the screen trusts: squares of entries far below
# it may underflow, but what they lose is far below its slack
_SCREEN_FLOOR = 1e-280


def _worst_unitarity(gram: np.ndarray, grid: CircleGrid):
    """Max over points of ||G - I||_2, the largest |eigenvalue|, and its point.

    The Frobenius norm F of the Hermitian matrix that eigvalsh reads (the
    lower triangle of D = G - I) bounds ||D||_2 from above, and from below
    within a factor sqrt(r).  A point with F below max F / sqrt(r) cannot
    hold the max, so only the other points and those with a non-finite entry
    are eigensolved; the result and its point are those of the full sweep.
    """
    r = gram.shape[-1]
    dev = gram - np.eye(r)
    # the weights of the squared parts in F^2: 2 below the diagonal, 1 for the
    # real part of a diagonal entry, 0 elsewhere, which still carries a NaN or
    # inf of any entry into F^2 (LAPACK may read one there)
    weight = np.repeat(2.0 * np.tri(r, r, -1), 2, axis=1)
    weight[np.arange(r), 2 * np.arange(r)] = 1.0
    parts = dev.view(np.float64).reshape(len(dev), 2 * r * r)
    fro2 = np.einsum("pk,pk,k->p", parts, parts, weight.ravel())
    finite = np.isfinite(fro2)
    top = fro2[finite].max(initial=0.0)
    if top >= _SCREEN_FLOOR:
        keep = np.flatnonzero(~finite | (fro2 >= top / r * (1.0 - _SCREEN_SLACK)))
    elif not dev.any():
        return 0.0, complex(grid.points()[0])
    else:
        keep = np.arange(len(dev))
    norms = np.max(np.abs(np.linalg.eigvalsh(dev[keep])), axis=-1)
    j = int(np.argmax(norms))
    return float(norms[j]), complex(grid.points()[keep[j]])


# ---------------------------------------------------------------------------
# residuals


def qmf_residual(f: Filter, scale: int) -> float:
    """Deviation of sum_k |m(rho^k z)|^2 from N: N times the certificate of the
    single filter for a polynomial, which bounds it everywhere on the circle;
    its max over the grid for any other filter."""
    if isinstance(f, LaurentPoly):
        return scale * _polyphase_certificate((f,), scale)
    gram, _ = _coset_gram((f,), scale)
    return float(scale * np.max(np.abs(gram[:, 0, 0] - 1.0)))


def unitarity_residual(fb: FilterBank) -> float:
    """Spectral-norm deviation of C(z) C(z)* from I, its max over the grid for a
    grid or callable bank.  For a polynomial bank it is the exact certificate,
    from coefficients alone.

    G(z) - I = sum_s E_s z^(N s), E_s[i, j] = sum_b c_i[b + N s] conj(c_j[b])
    - delta_ij delta_s0 with c_i the coefficients of m_i (the polyphase
    matrix is paraunitary exactly when every E_s vanishes).  The returned
    sum_s ||E_s||_2 bounds ||G(z) - I|| everywhere on the circle.
    """
    if fb.kind == "poly":
        return _polyphase_certificate(fb.filters, fb.scale)
    return _worst_unitarity(*_coset_gram(fb.filters, fb.scale))[0]


def _polyphase_certificate(filters, scale: int) -> float:
    """sum_s ||E_s||_2 (see unitarity_residual) for r polynomial filters,
    each E_s r x r.  One filter gets a bound of |(1/N) sum_k |m(rho^k z)|^2 - 1|."""
    return _certificate(_defect_norms(_defect_stack(filters, scale)[1]))


def _defect_stack(filters, scale: int):
    """(shifts, E): E[k] = E_s for s = shifts[k] >= 0, the r x r polyphase defects.

    E_{-s} = E_s* carries no new norm, so only s >= 0 is kept.  Filter i's
    coefficient of degree N q + b is entry [q - q0_i, b] of its polyphase
    table P_i, and E_s[i, j] = sum_b sum_q P_i[q + t, b] conj(P_j[q, b]) at
    lag t = s - q0_i + q0_j.  Each lag comes from one inverse FFT of
    P^(w) P^(w)* over the polyphase frequencies w, summed over residues b.
    The offsets q0_i are one shared value unless the filters lie far apart,
    where a shared table would be long and would add up FFT rounding over
    every lag between them.
    """
    n, r = scale, len(filters)
    lo = np.array([f.min_degree for f in filters])
    q0 = lo // n
    q1 = (lo + np.array([max(len(f.coeffs), 1) for f in filters]) - 1) // n
    if q1.max() - q0.min() < 2 * np.max(q1 - q0 + 1):
        q0[:] = q0.min()
    length = int(np.max(q1 - q0)) + 1
    p = np.zeros((r, length * n), dtype=np.complex128)
    for i, f in enumerate(filters):
        start = f.min_degree - n * q0[i]
        p[i, start:start + len(f.coeffs)] = f.coeffs
    size = 2 * length - 1  # lags -(length - 1) .. length - 1, so no lag aliases
    fp = np.fft.fft(p.reshape(r, length, n), size, axis=1).transpose(1, 0, 2)  # [w, i, b]
    corr = np.fft.ifft(fp @ np.conj(fp.transpose(0, 2, 1)), axis=0)  # [t mod size, i, j]
    if not np.any(q0 - q0[0]):  # one shared offset: s = t
        shifts, e = np.arange(length), corr[:length]
    else:
        t = np.arange(size)
        t[length:] -= size
        s = t[:, None, None] + (q0[:, None] - q0[None, :])
        keep = s >= 0
        _, i, j = np.indices(s.shape)
        shifts, pos = np.unique(s[keep], return_inverse=True)
        e = np.zeros((len(shifts), r, r), dtype=np.complex128)
        e[pos, i[keep], j[keep]] = corr[keep]
    e[0] -= np.eye(r)  # shifts[0] = 0, the lag of every diagonal entry at t = 0
    return shifts, e


def _defect_norms(e: np.ndarray) -> np.ndarray:
    """||E_s||_2 for each s >= 0 of a defect stack: the largest singular value, which
    is what np.linalg.norm(ord=2) computes, without its moveaxis and max passes."""
    return np.abs(e[:, 0, 0]) if e.shape[1] == 1 else np.linalg.svd(e, compute_uv=False)[:, 0]


def _certificate(norms: np.ndarray) -> float:
    """sum over all s of ||E_s||_2, from the norms at s >= 0 (||E_{-s}|| = ||E_s||)."""
    return float(norms[0] + 2.0 * np.sum(norms[1:]))


def _pairwise_bounds(e: np.ndarray, scale: int) -> np.ndarray:
    """N sum over all s of |E_s[i, j]|, from a defect stack at s >= 0 (|E_{-s}[i, j]| =
    |E_s[j, i]|): each bounds |sum_k conj(m_i) m_j over a coset - delta_ij N| on the circle."""
    mags = np.abs(e)
    return scale * (mags[0] + np.sum(mags[1:] + mags[1:].transpose(0, 2, 1), axis=0))


def require_verified(fb: FilterBank) -> None:
    """Raise ValueError unless unitarity_residual(fb) <= VERIFY_TOL, the bound of
    check_bank's verdict: the one gate of CuntzRep, the Wold shift check and the index."""
    res = unitarity_residual(fb)
    if res > VERIFY_TOL:
        raise ValueError(f"bank is not verified (unitarity residual {res:.3g}, which is the "
                         f"coefficient residual of a polynomial bank)")


def modulation_matrix(fb: FilterBank, z: complex) -> np.ndarray:
    """The N x N matrix with entries N^(-1/2) m_i(rho^k z) at one point z.

    z, within 1e-9 of the unit circle, is put back on it first.  A polynomial
    is evaluated at the points rho^k z themselves; any other filter takes
    their angles (a grid filter raises ValueError off its grid).
    """
    n = fb.scale
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise ValueError("z must lie on the unit circle")
    z /= abs(z)
    pts = z * CircleGrid(n).points()
    if fb.kind == "poly":
        rows = [f._evaluate_unchecked(pts) for f in fb.filters]
    else:
        rows = [filter_values_at_angles(f, np.angle(pts)) for f in fb.filters]
    return np.stack(rows) / np.sqrt(n)


@dataclass
class LowpassReport:
    ok: bool
    value_at_zero: complex
    phase_aligned: bool
    zero_residuals: np.ndarray


def check_lowpass(f: Filter, scale: int) -> LowpassReport:
    """Whether m takes the value sqrt(N) at t=0 and vanishes at t = 2*pi*k/N (LOWPASS_TOL).

    The pass verdict compares |m(0)| against sqrt(N), accepting a unimodular
    phase; whether the phase is exactly +sqrt(N) is reported separately,
    since the cascade product needs the aligned value.  A grid filter holds
    the points t = 2*pi*k/N only when N divides its grid size M (InputError).
    """
    n = scale
    if isinstance(f, GridFunction) and f.grid.M % n != 0:
        raise InputError(f"a grid low-pass's grid size {f.grid.M} is not divisible by the "
                         f"scale {n}")
    vals = filter_values_at_angles(f, -2.0 * np.pi * np.arange(n) / n)  # z-angles of t = 2*pi*k/N
    v0 = complex(vals[0])
    zeros = np.abs(vals[1:])
    ok = abs(abs(v0) - math.sqrt(n)) <= LOWPASS_TOL and bool(np.all(zeros <= LOWPASS_TOL))
    return LowpassReport(ok=ok, value_at_zero=v0,
                         phase_aligned=abs(v0 - math.sqrt(n)) <= LOWPASS_TOL,
                         zero_residuals=zeros)


def check_bank(fb: FilterBank) -> CheckReport:
    """Run the full condition suite on a bank and collect residuals.

    A polynomial bank is decided by its defect stack alone: each residual
    bounds the sup over the circle of the grid residual it stands for
    (_pairwise_bounds), and the unitarity residual is the certificate
    sum_s ||E_s||_2.  The residuals of a grid bank are sampled on its own
    grid, and those of a callable bank on the default check grid.
    """
    n = fb.scale
    grid = worst = cert = shift = None
    if fb.kind == "poly":
        shifts, e = _defect_stack(fb.filters, n)
        norms = _defect_norms(e)
        pw = _pairwise_bounds(e, n)
        uni = cert = _certificate(norms)
        shift = int(shifts[np.argmax(norms)])
    else:
        gram, grid = _coset_gram(fb.filters, n)
        pw = n * np.max(np.abs(gram - np.eye(n)), axis=0)
        uni, worst = _worst_unitarity(gram, grid)
    return CheckReport(
        qmf_residuals=[float(pw[i, i]) for i in range(n)],
        pairwise_residuals=pw,
        unitarity_residual=uni,
        lowpass_ok=check_lowpass(fb.filters[0], n).ok,
        grid_size=None if grid is None else grid.M,
        worst_point=worst,
        coefficient_residual=cert,
        worst_shift=shift,
    )


# ---------------------------------------------------------------------------
# completion: extend a quadrature-mirror m_0 to a full unitary bank


def complete_filterbank(lowpass: Filter, scale: int) -> FilterBank:
    """Extend a single filter satisfying the QMF identity to a verified bank.

    The identity is gated by qmf_residual <= VERIFY_TOL, exact for a polynomial.
    Polynomial input at scale 2 stays polynomial via the conjugate-mirror
    rule m_1(z) = -z^(2K-1) * conj-reflect(m_0)(-z), K the top degree; the
    sign fixes a canonical phase.  Polynomial input at scale > 2 falls back
    to a grid-kind bank on the default check grid, as does grid input on its
    own grid: each rotation orbit {z_j, rho z_j, .., rho^(N-1) z_j}, j < M/N,
    gets its filter values from one unitary whose first row is the
    normalized coset vector of m_0 from values_on_coset, so the modulation matrix
    at every grid point is a column permutation of an exactly unitary matrix.
    """
    n = scale
    res = qmf_residual(lowpass, n)
    if res > VERIFY_TOL:
        raise ValueError(f"filter violates the quadrature-mirror identity (residual {res:.3g})")
    if isinstance(lowpass, LaurentPoly) and n == 2:
        return FilterBank(2, (lowpass, conjugate_mirror(lowpass)))
    grid = _own_grid(lowpass, n)  # N | M, or the gate above refused
    coset = values_on_coset(lowpass, n, grid)  # coset[k, j] at k M/N + j
    root_n = math.sqrt(n)
    q = householder_rows(coset.T / root_n)  # q[j] for orbit j
    out = root_n * q.transpose(1, 2, 0)  # out[r, k, j] = q[j, r, k]
    out[0] = coset
    return FilterBank(n, tuple(GridFunction(grid, row.ravel()) for row in out))


def conjugate_mirror(lowpass: LaurentPoly) -> LaurentPoly:
    """The scale-2 high-pass m_1(z) = -z^(2K-1) * conj-reflect(m_0)(-z), K the top degree
    of m_0; with m_0 it is a paraunitary pair exactly when m_0 satisfies the QMF identity."""
    k_top = lowpass.max_degree
    return -(LaurentPoly.monomial(2 * k_top - 1) * lowpass.conj_reflect().compose_negate())


def householder_rows(v: np.ndarray) -> np.ndarray:
    """A unitary matrix whose first row is the unit vector v (batched over leading axes).

    Deterministic: built from the Householder reflector sending conj(v) to a
    unimodular multiple of the first basis vector, phase chosen to avoid
    cancellation (|u_0| = |v_0| + 1, so it never degenerates), then
    phase-corrected so row 0 is exactly v.
    """
    x = np.conj(np.asarray(v, dtype=np.complex128))
    a0 = np.abs(x[..., :1])
    beta = np.where(a0 > 0, -x[..., :1] / np.where(a0 > 0, a0, 1.0), 1.0)
    u = x.copy()
    u[..., :1] -= beta
    nu = np.sum(np.abs(u) ** 2, axis=-1)[..., None, None]
    h = np.eye(x.shape[-1]) - 2.0 * u[..., :, None] * np.conj(u[..., None, :]) / nu
    # U = H diag(beta, 1, ..) has first column conj(v); its adjoint has row 0 = v.
    h[..., 0, :] *= np.conj(beta)
    return h
