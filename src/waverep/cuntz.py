"""Isometry families S_i xi = m_i(z) xi(z^N) on the circle, with exact adjoints.

For polynomial filters both S_i and S_i* are computed purely on coefficient
arrays, so the defining relations

    S_j* S_i = delta_ij,   sum_i S_i S_i* = identity

hold to machine precision whenever the bank's modulation matrix is unitary.
The adjoint is digit extraction: the coefficient of z^k in S_i* xi is the
coefficient of z^(N k) in conj(m_i) xi.  No grid quadrature is involved; a
representation takes a polynomial bank only.

The modes W = [-R, R], R = laurent.invariant_radius of the filter's degree
range, are invariant under S*, and S* carries every mode into them.  So
S*|_W is a finite matrix gathered from the taps (filter_window_adjoint), the
one window V_i* = S_i*|_W of a bank that wold and index read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filterbank import FilterBank, require_verified
from .laurent import TRIM_TOL, InputError, LaurentPoly


# ---------------------------------------------------------------------------
# single-filter operations (polynomial, exact)


def apply_filter_isometry(m: LaurentPoly, scale: int, xi: LaurentPoly) -> LaurentPoly:
    """S xi = m(z) xi(z^scale) on coefficients."""
    return m * xi.compose_power(scale)


def apply_filter_adjoint(m: LaurentPoly, scale: int, xi: LaurentPoly) -> LaurentPoly:
    """S* xi by digit extraction: every N-th coefficient of conj(m) xi.

    (S* xi)(z) = (1/N) sum over the N-th roots w of z of conj(m(w)) xi(w);
    on coefficients this keeps exactly the modes of conj(m) xi whose index
    is divisible by N.
    """
    if m.is_zero() or xi.is_zero():
        return LaurentPoly.zero()
    # conj(m) xi = conj_reflect(m) * xi, decimated before any trimming: the
    # modes trimmed off the product's edges would be trimmed off its digits
    prod = np.convolve(np.conj(m.coeffs[::-1]), xi.coeffs)
    lo = xi.min_degree - m.max_degree
    k_lo = -(-lo // scale)  # ceil division
    return LaurentPoly._owned(prod[k_lo * scale - lo :: scale].copy(), k_lo)


def filter_window_adjoint(m: LaurentPoly, scale: int, radius: int) -> np.ndarray:
    """The (2r+1) x (2r+1) matrix of S* on the modes W = [-r, r], r = radius.

    Entry [k + r, n + r] is the coefficient of z^k in S* z^n, the tap
    conj(m_(n - N k)): one gather, checked against one exact adjoint of a
    probe on W.  r = invariant_radius of m's degree range (or a bank's) makes
    W invariant; a tap above TRIM_TOL that carries a mode of W outside it
    raises ValueError, tap by tap, so no taps can cancel and hide the leak.
    """
    # rows k = lo..hi: W and every mode W reaches, N k in [-r - max_degree, r - min_degree]
    lo = min(-radius, -((radius + m.max_degree) // scale))
    hi = max(radius, (radius - m.min_degree) // scale)
    taps = np.conj(m.coeff_window(-radius - scale * hi, radius - scale * lo))
    # row k: the 2r+1 taps from degree -r - N k on, N (hi - k) into taps (16 bytes a tap)
    rows = np.ndarray((hi - lo + 1, 2 * radius + 1), taps.dtype, taps, scale * (hi - lo) * 16,
                      (-16 * scale, 16)).copy()
    leaks = np.abs(np.concatenate((rows[: -radius - lo], rows[radius - lo + 1 :]))) > TRIM_TOL
    if leaks.any():
        n = np.flatnonzero(leaks.any(axis=0))[0] - radius
        raise ValueError(f"S* z^{n} leaves the window [-{radius}, {radius}]")
    out = rows[-radius - lo : radius - lo + 1]
    probe = LaurentPoly._owned(np.exp(1j * np.arange(2 * radius + 1)), -radius)  # distinct entries
    exact = apply_filter_adjoint(m, scale, probe).coeff_window(-radius, radius)
    # each entry sums at most len(m.coeffs) products, in another order than the exact adjoint's
    bound = 2 * (len(m.coeffs) + 1) * np.finfo(float).eps * float(np.abs(m.coeffs).sum())
    if np.max(np.abs(out @ probe.coeffs - exact)) > bound:
        raise RuntimeError("the window gather disagrees with the exact adjoint")
    return out


# ---------------------------------------------------------------------------
# representations built from a verified bank


class CuntzRep:
    """The isometries of a verified polynomial filter bank, acting on L2 of the circle."""

    def __init__(self, bank: FilterBank):
        if bank.kind != "poly":
            raise TypeError(f"the isometries act on coefficients; a {bank.kind} bank has none")
        require_verified(bank)
        self.bank = bank
        self.scale = bank.scale

    def _check_index(self, i: int):
        if not (0 <= i < self.scale):
            raise IndexError(f"isometry index {i} out of range for scale {self.scale}")

    def apply_isometry(self, i: int, xi):
        self._check_index(i)
        return apply_filter_isometry(self.bank.filters[i], self.scale, xi)

    def apply_adjoint(self, i: int, xi):
        self._check_index(i)
        return apply_filter_adjoint(self.bank.filters[i], self.scale, xi)


def cuntz_residuals(rep: CuntzRep, samples) -> tuple[float, float]:
    """Worst-case defect of the two defining relations over sample vectors.

    Returns (max ||S_j* S_i xi - delta_ij xi||, max ||sum_i S_i S_i* xi - xi||).
    """
    n = rep.scale
    ortho = 0.0
    complete = 0.0
    for xi in samples:
        images = [rep.apply_isometry(i, xi) for i in range(n)]
        acc = None
        for i in range(n):
            for j in range(n):
                d = rep.apply_adjoint(j, images[i])
                if i == j:
                    d = d - xi
                ortho = max(ortho, d.norm2())
            term = rep.apply_isometry(i, rep.apply_adjoint(i, xi))
            acc = term if acc is None else acc + term
        complete = max(complete, (acc - xi).norm2())
    return ortho, complete


def endomorphism_residual(rep: CuntzRep, f: LaurentPoly, samples) -> float:
    """Defect of sum_i S_i (f * S_i* xi) = f(z^N) * xi over sample vectors.

    This is the compatibility of the bank's isometries with the shift
    endomorphism on multiplication operators; it vanishes exactly when the
    modulation matrix is unitary.
    """
    n = rep.scale
    worst = 0.0
    for xi in samples:
        acc = None
        for i in range(n):
            term = rep.apply_isometry(i, f * rep.apply_adjoint(i, xi))
            acc = term if acc is None else acc + term
        target = f.compose_power(n) * xi
        worst = max(worst, (acc - target).norm2())
    return worst


@dataclass
class ShiftCoefficients:
    """Layer coefficients of a vector in the shift realization of S_0.

    blocks[(k, j)] = S_j* (S_0*)^(k-1) xi for layers k = 1..depth and
    channels j = 1..N-1; residual_norm is the part of xi left in the range
    of S_0^depth, which decays to 0 exactly when S_0 is a pure shift.
    """

    depth: int
    blocks: dict
    residual_norm: float
    reconstruction_error: float


def shift_realization(rep: CuntzRep, xi: LaurentPoly, depth: int) -> ShiftCoefficients:
    """Peel xi into shift layers along S_0 with channel coefficients.

    Iterating the completeness relation gives
    xi = sum_{k<=depth} sum_{j>=1} S_0^(k-1) S_j psi_k^(j) + S_0^depth S_0*^depth xi,
    and the reconstruction is re-assembled to confirm the identity.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    n = rep.scale
    blocks = {}
    tail = xi
    for k in range(1, depth + 1):
        for j in range(1, n):
            blocks[(k, j)] = rep.apply_adjoint(j, tail)
        tail = rep.apply_adjoint(0, tail)
    # tail is now (S_0*)^depth xi
    remainder = tail
    for _ in range(depth):
        remainder = rep.apply_isometry(0, remainder)
    recon = remainder
    for k in range(1, depth + 1):
        for j in range(1, n):
            term = rep.apply_isometry(j, blocks[(k, j)])
            for _ in range(k - 1):
                term = rep.apply_isometry(0, term)
            recon = recon + term
    return ShiftCoefficients(
        depth=depth,
        blocks=blocks,
        residual_norm=remainder.norm2(),
        reconstruction_error=(recon - xi).norm2(),
    )
