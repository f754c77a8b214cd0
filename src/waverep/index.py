"""Unit-circle eigenspaces of the combined scale-N isometry, and an index.

For a verified polynomial bank m_0..m_(N-1) (filterbank.require_verified),
M = N^(-1/2) sum_k S_k R_k with (R_k xi)(z) = xi(rho^k z), rho = exp(2 pi i / N),
is an isometry on L2 of the circle; at N = 2, M xi = 2^(-1/2) (m_0 xi(z^2) +
m_1 xi(-z^2)).  Its eigenvectors with |lambda| = 1 span the unitary part of
its Wold decomposition; the total dimension of the validated eigenspaces is
reported as the index of the bank.

The window the filters fix.  With [a, b] the bank's degree range and
T = [p, q] = laurent.invariant_window(a, b, N), p = -floor(b / (N - 1)) and
q = floor(-a / (N - 1)), T is invariant under every S_k* and the diagonal
R_k*, so under M*.  M sends z^n into the modes [N n + a, N n + b]: for n > q
they all lie above n, and for n < p all below n.  So in the basis (T, outer
modes) M is block lower-triangular [[A, 0], [B, C]] with C pushing every
mode farther out: unit-circle eigenvectors lie in T, and a smaller window
cuts A.  So the eigensolve always runs on T, whose modes a report gives;
the caller's window bounds only R = max(-p, q), the radius of the symmetric
window [-R, R] that holds T.  A = (N^(-1/2) sum_k diag(rho^(-kn)) V_k*)^H
is read from the window matrices V_k* = S_k*|_T of cuntz.filter_window_adjoint.
Every power of rho is read from the table CircleGrid(N).points() at an exponent mod N.
Eigenvalues come first; only unit-circle clusters get columns x, which the
exact combined_isometry_apply, sharing nothing with that gather, maps once.
For v in their span the residual's square is ||(A - lambda) v||^2 + ||B v||^2,
so v validates exactly when its image stays in T: a cluster's dimension is
the number of singular values of (M - lambda) x at most VALIDATE_TOL.

Eigenvalues inside the disk are truncation effects and are not counted.  At
N = 2 an index above 2 would contradict the structure theory and is surfaced
as an anomaly.  For two validated solutions the pairing
phi, psi -> sum_k conj(phi(rho^k z)) psi(rho^k z) is constant, which is re-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cuntz import apply_filter_isometry, filter_window_adjoint
from .filterbank import FilterBank, default_check_grid, require_verified, values_on_coset
from .laurent import CircleGrid, InputError, LaurentPoly, invariant_window

LAMBDA_DISK_TOL = 1e-6  # eigenvalues below 1 - this are truncation artifacts
LAMBDA_CLUSTER_ARC = 1e-6
VALIDATE_TOL = 1e-8  # bound on ||M phi - lambda phi|| of a unit candidate phi
WINDOW_MAX = 1024  # default and cap of the bound on R: at most a 2049^2 eigensolve
# why an eigenvalue is not counted: |lambda| below 1 - LAMBDA_DISK_TOL, or a singular
# value of its cluster's exact residual block above VALIDATE_TOL
REJECTION_REASONS = ("inside_disk", "failed_validation")


def combined_isometry_apply(filters, xi: LaurentPoly) -> LaurentPoly:
    """Apply xi -> N^(-1/2) sum_k m_k(z) xi(rho^k z^N) exactly on coefficients: each
    term is S_k (cuntz.apply_filter_isometry) of xi rotated by rho^k.  The filters
    are not checked here; spectral_solutions verifies its bank once."""
    n = len(filters)
    degrees = np.arange(xi.min_degree, xi.min_degree + len(xi.coeffs))
    # row k: rho^(k d); d is reduced first, so that k d cannot wrap in int64
    rotations = CircleGrid(n).points()[np.arange(n)[:, None] * (degrees % n) % n]
    terms = (apply_filter_isometry(m, n, LaurentPoly._owned(xi.coeffs * r, xi.min_degree))
             for m, r in zip(filters, rotations))
    return sum(terms, LaurentPoly.zero()) * (1.0 / math.sqrt(n))


@dataclass
class SpectralSolution:
    eigenvalue: complex
    eigenvector: LaurentPoly
    residual: float


@dataclass
class SpectralReport:
    solutions: list
    index: int
    window: int  # R = max(-p, q), the bound the caller's window is checked against
    window_modes: tuple  # T = [p, q], the modes the eigensolve runs on
    pairing_matrix: np.ndarray
    pairing_residual: float
    eigenspace_dims: dict = field(default_factory=dict)
    anomaly: str | None = None
    rejected: dict = field(default_factory=dict)  # candidates dropped, by REJECTION_REASONS


def peripheral_eigenspaces(a: np.ndarray) -> tuple[list, int]:
    """(lambda, m orthonormal columns) per unit-circle cluster of m eigenvalues, and the count inside.

    a is a contraction: its spectrum lies in the closed disk, and its unit-circle
    eigenvalues are semisimple, so two steps of block inverse iteration from
    seeded random starts, shifted to mu = (1 + LAMBDA_DISK_TOL^2) lambda / |lambda|
    just outside the disk, span the eigenspace of a cluster on the circle.
    """
    eigvals = np.linalg.eigvals(a)
    outer = eigvals[np.abs(eigvals) >= 1.0 - LAMBDA_DISK_TOL]
    clusters: list[list] = []
    for lam in outer:
        for cl in clusters:
            if abs(np.angle(lam / cl[0])) <= LAMBDA_CLUSTER_ARC:
                cl.append(lam)
                break
        else:
            clusters.append([lam])
    rng = np.random.default_rng(0)
    spaces = []
    for cl in clusters:
        lam = complex(np.mean(cl))
        shifted = a.copy()
        shifted.flat[:: len(a) + 1] -= (1.0 + LAMBDA_DISK_TOL**2) * lam / abs(lam)
        x = rng.standard_normal((len(a), len(cl)))
        for _ in range(2):
            x, _ = np.linalg.qr(np.linalg.solve(shifted, x))
        spaces.append((lam, x))
    return spaces, len(eigvals) - len(outer)


def spectral_solutions(*filters: LaurentPoly, window: int = WINDOW_MAX) -> SpectralReport:
    """Validated unit-circle eigenpairs of the combined isometry of the N filters, and the index.

    The operator is compressed to T = [p, q] = invariant_window of the bank
    (InputError unless N polynomials give R = max(-p, q) <= window <= WINDOW_MAX).
    A solution is x v, v a right singular vector of the residual block
    (M - lambda) x whose singular value, the solution's residual, is at most
    VALIDATE_TOL.
    """
    if not 0 <= window <= WINDOW_MAX:
        raise InputError(f"window must be in 0..{WINDOW_MAX}, got {window}")
    n = len(filters)
    bank = FilterBank(n, filters)
    if bank.kind != "poly":
        raise InputError(f"the index needs a polynomial bank, got a {bank.kind} bank")
    p, q = invariant_window(min(f.min_degree for f in filters), max(f.max_degree for f in filters), n)
    radius = max(-p, q)
    if radius > window:
        raise InputError(f"the index is solved on the bank's window [{p}, {q}], whose radius "
                         f"R = {radius} is above {window}")
    require_verified(bank)
    # a.T is A, summed in place so that eigvals holds one dim T^2 matrix beside its own
    phases = CircleGrid(n).points()[-np.arange(n)[:, None] * np.arange(p, q + 1) % n]
    a = np.zeros((q - p + 1, q - p + 1), dtype=np.complex128)
    for phase, m in zip(phases, filters):
        v = filter_window_adjoint(m, n, (p, q))
        a += np.multiply(phase[:, None], v, out=v)
    del v
    np.multiply(np.conjugate(a, out=a), 1.0 / math.sqrt(n), out=a)
    spaces, inside = peripheral_eigenspaces(a.T)
    solutions, dims = [], {}
    rejected = {"inside_disk": inside, "failed_validation": 0}
    for lam, x in spaces:
        # the exact residual block, padded by zero rows to at least one row per column
        phis = [LaurentPoly(col, min_degree=p) for col in x.T]
        res = [combined_isometry_apply(filters, phi) - lam * phi for phi in phis]
        lo = min(r.min_degree for r in res)
        hi = max(lo + len(res) - 1, *(r.max_degree for r in res))
        block = np.stack([r.coeff_window(lo, hi) for r in res], axis=1)
        _, svals, vh = np.linalg.svd(block, full_matrices=False)
        keep = svals <= VALIDATE_TOL
        rejected["failed_validation"] += len(res) - int(keep.sum())
        if keep.any():
            dims[lam] = int(keep.sum())
        for col, resid in zip((x @ vh[keep].conj().T).T, svals[keep]):
            solutions.append(SpectralSolution(lam, LaurentPoly(col, min_degree=p), float(resid)))

    pairing_mat, pairing_resid = pairing([s.eigenvector for s in solutions], n)
    total = sum(dims.values())
    anomaly = (f"index {total} exceeds 2 for a scale-2 pair; this contradicts the unitary-part "
               "structure and is reported for inspection") if n == 2 and total > 2 else None
    return SpectralReport(solutions=solutions, index=total, window=radius, window_modes=(p, q),
                          pairing_matrix=pairing_mat, pairing_residual=pairing_resid,
                          eigenspace_dims=dims, anomaly=anomaly, rejected=rejected)


def pairing(polys, scale: int) -> tuple[np.ndarray, float]:
    """The Hermitian matrix of sum_k conj(phi_a(rho^k z)) phi_b(rho^k z), rho = exp(2 pi i / N),
    over the polynomials phi_a, and the worst constancy defect.

    Each polynomial is sampled once on the default check grid (4096 points at
    N = 2, 4098 at N = 3), as the N rows of values_on_coset: the function
    summed over the rows is its value at the first M/N points, whose cosets
    hold every grid point once.  For eigenvectors of the combined isometry
    each function is constant: its mean is the entry, its max deviation the
    defect.  It is N times the coefficients' cross-correlation at lags
    divisible by N, so an exact pairing needs no grid, and the sampled mean
    is exact while every lag is below M in size, as those of two eigenvectors
    are (at most 2 WINDOW_MAX = 2048).  This sampled pairing stays while the
    traced ``spectral`` benchmark run requires its spans (ROADMAP item 6).  Entry
    (b, a) is the exact conjugate of entry (a, b), as their pointwise imaginary
    parts are exact negatives summed in the same order: only a <= b is paired.
    """
    grid = default_check_grid(scale)
    rows = [values_on_coset(p, scale, grid) for p in polys]
    n = len(rows)
    mat = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for a, pv in enumerate(rows):
        for b in range(a, n):
            sv = rows[b]
            # conj(phi) psi from real products, so that swapping phi and psi negates
            # the imaginary part exactly (a fused complex multiply would not)
            re = (pv.real * sv.real + pv.imag * sv.imag).sum(axis=0)
            im = (pv.real * sv.imag - pv.imag * sv.real).sum(axis=0)
            val = complex(np.mean(re), np.mean(im))
            mat[b, a] = np.conj(val)
            mat[a, b] = val  # last, so the diagonal keeps the sampled value
            worst = max(worst, float(np.max(np.hypot(re - val.real, im - val.imag))))
    return mat, worst
