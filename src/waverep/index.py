"""Unit-circle eigenspaces of the combined scale-N isometry, and an index.

For a verified polynomial bank m_0..m_(N-1) (filterbank.require_verified),
M = N^(-1/2) sum_k S_k R_k with (R_k xi)(z) = xi(rho^k z), rho = exp(2 pi i / N),
is an isometry on L2 of the circle; at N = 2, M xi = 2^(-1/2) (m_0 xi(z^2) +
m_1 xi(-z^2)).  Its eigenvectors with |lambda| = 1 span the unitary part of
its Wold decomposition; the total dimension of the validated eigenspaces is
reported as the index of the bank.

The window the filters fix.  With [a, b] the bank's degree range and
R = laurent.invariant_radius(a, b, N), W = [-R, R] is invariant under every
S_k* and the diagonal R_k*, so under M*, and M sends z^n with |n| > R into
the modes [N n + a, N n + b], all farther out than n.  So in the basis (W,
outer modes) M is block lower-triangular [[A, 0], [B, C]] with C pushing
every mode outward: unit-circle eigenvectors lie in W, and a smaller window
cuts A.  So the eigensolve always runs on W, the window a report gives, and
the caller's window only bounds R.  A = (N^(-1/2) sum_k diag(rho^(-kn)) V_k*)^H
is read from the window matrices V_k* = S_k*|_W of cuntz.filter_window_adjoint.
A candidate v only counts after the exact action of combined_isometry_apply,
which shares nothing with that gather, reproduces it: the residual's square
is ||(A - lambda) v||^2 + ||B v||^2, so v validates exactly when its image
stays in W.  Eigenpairs not kept are counted by reason (REJECTION_REASONS).

Eigenvalues inside the disk are truncation effects and are not counted.  At
N = 2 an index above 2 would contradict the structure theory and is surfaced
as an anomaly.  For two validated solutions the pairing
phi, psi -> sum_k conj(phi(rho^k z)) psi(rho^k z) is constant, which is re-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cuntz import filter_window_adjoint
from .filterbank import FilterBank, require_verified
from .laurent import CircleGrid, GridFunction, LaurentPoly, invariant_radius, sample

LAMBDA_DISK_TOL = 1e-6  # eigenvalues below 1 - this are truncation artifacts
LAMBDA_CLUSTER_ARC = 1e-6
RANK_SVD_TOL = 1e-8
VALIDATE_TOL = 1e-8  # bound on ||M phi - lambda phi|| of a unit candidate phi
WINDOW_MAX = 1024  # default and cap of the bound on R: at most a 2049^2 eigensolve
PAIRING_COSET_POINTS = 2048  # two polynomials are paired on N times this many points
# why a compression eigenpair is not counted: |lambda| below 1 - LAMBDA_DISK_TOL,
# or a failed exact residual check
REJECTION_REASONS = ("inside_disk", "failed_validation")


@lru_cache(maxsize=64)
def _roots_of_unity(scale: int) -> np.ndarray:
    """rho^j for j = 0..N-1, exact where it is 1, i, -1 or -i; read-only, as it is shared."""
    j = np.arange(scale)
    exact = np.array([1, 1j, -1, -1j])[4 * j // scale]
    roots = np.where(4 * j % scale == 0, exact, np.exp(2j * np.pi * j / scale))
    roots.setflags(write=False)
    return roots


def combined_isometry_apply(filters, xi: LaurentPoly, check: bool = True) -> LaurentPoly:
    """Apply xi -> N^(-1/2) sum_k m_k(z) xi(rho^k z^N) exactly on coefficients."""
    n = len(filters)
    if check:
        require_verified(FilterBank(n, filters))
    degrees = np.arange(xi.min_degree, xi.min_degree + len(xi.coeffs))
    rotations = _roots_of_unity(n)[np.arange(n)[:, None] * degrees % n]  # row k: rho^(k d)
    terms = (m * LaurentPoly._owned(xi.coeffs * r, xi.min_degree).compose_power(n)
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
    window: int
    pairing_matrix: np.ndarray
    pairing_residual: float
    eigenspace_dims: dict = field(default_factory=dict)
    anomaly: str | None = None
    rejected: dict = field(default_factory=dict)  # candidates dropped, by REJECTION_REASONS


def spectral_solutions(*filters: LaurentPoly, window: int = WINDOW_MAX) -> SpectralReport:
    """Validated unit-circle eigenpairs of the combined isometry of the N filters, and the index.

    The operator is compressed to W = [-R, R], R = invariant_radius of the
    bank (ValueError unless R <= window <= WINDOW_MAX), eigensolved, and every
    candidate with |lambda| >= 1 - LAMBDA_DISK_TOL survives iff the exact
    action gives ||M phi - lambda phi|| <= VALIDATE_TOL * ||phi||.  Survivors are
    clustered by eigenvalue and each cluster's dimension is a numerical rank;
    the other eigenpairs are counted in ``rejected`` by reason.
    """
    if not 0 <= window <= WINDOW_MAX:
        raise ValueError(f"window must be in 0..{WINDOW_MAX}, got {window}")
    n = len(filters)
    require_verified(FilterBank(n, filters))
    k = invariant_radius(min(f.min_degree for f in filters), max(f.max_degree for f in filters), n)
    if k > window:
        raise ValueError(f"the bank's window R = {k} exceeds the bound {window}")
    phases = _roots_of_unity(n)[-np.arange(n)[:, None] * np.arange(-k, k + 1) % n]
    windows = (phases[j][:, None] * filter_window_adjoint(m, n, k) for j, m in enumerate(filters))
    eigvals, eigvecs = np.linalg.eig(sum(windows).conj().T * (1.0 / math.sqrt(n)))

    survivors = []
    rejected = dict.fromkeys(REJECTION_REASONS, 0)
    for lam, vec in zip(eigvals, eigvecs.T):
        if abs(lam) < 1.0 - LAMBDA_DISK_TOL:
            rejected["inside_disk"] += 1
            continue
        phi = LaurentPoly(vec, min_degree=-k)  # eig returns unit vectors
        phi = phi * (1.0 / phi.norm2())
        image = combined_isometry_apply(filters, phi, check=False)
        resid = (image - lam * phi).norm2()
        if resid <= VALIDATE_TOL:
            survivors.append((complex(lam), phi, float(resid)))
        else:
            rejected["failed_validation"] += 1

    # cluster by eigenvalue (arc distance) and count dimensions by rank
    clusters: list[list] = []
    for lam, phi, resid in survivors:
        for cl in clusters:
            if abs(np.angle(lam / cl[0][0])) <= LAMBDA_CLUSTER_ARC:
                cl.append((lam, phi, resid))
                break
        else:
            clusters.append([(lam, phi, resid)])

    solutions = []
    dims = {}
    for cl in clusters:
        lo = min(p.min_degree for _, p, _ in cl)
        hi = max(p.max_degree for _, p, _ in cl)
        stack = np.stack([p.coeff_window(lo, hi) for _, p, _ in cl])
        svals = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(svals > RANK_SVD_TOL * max(1.0, svals[0])))
        lam0 = cl[0][0]
        dims[lam0] = rank
        # report an orthonormal basis of the validated span
        q, _ = np.linalg.qr(stack.T.conj())
        for col in range(rank):
            phi = LaurentPoly(np.conj(q[:, col]), min_degree=lo)
            image = combined_isometry_apply(filters, phi, check=False)
            solutions.append(SpectralSolution(lam0, phi, float((image - lam0 * phi).norm2())))

    pairing_mat, pairing_resid = _pairing_table(solutions, n)
    total = sum(dims.values())
    anomaly = None
    if n == 2 and total > 2:
        anomaly = (
            f"index {total} exceeds 2 for a scale-2 pair; this contradicts the "
            "unitary-part structure and is reported for inspection"
        )
    return SpectralReport(solutions=solutions, index=total, window=k,
                          pairing_matrix=pairing_mat, pairing_residual=pairing_resid,
                          eigenspace_dims=dims, anomaly=anomaly, rejected=rejected)


def pairing(phi, psi, scale: int):
    """Value and constancy defect of sum_k conj(phi(rho^k z)) psi(rho^k z), rho = exp(2 pi i / N).

    phi and psi are polynomials, sampled here on N * PAIRING_COSET_POINTS
    points (4096 at N = 2), or GridFunctions on one grid whose size N divides.
    For eigenvectors of the combined isometry the function is constant: its
    mean is the pairing value, its max deviation the constancy residual.  It
    is N times the coefficients' cross-correlation at lags divisible by N, so
    an exact pairing needs no grid; this sampled one stays while the traced
    ``spectral`` benchmark run requires its spans (ROADMAP item 1).
    """
    if isinstance(phi, LaurentPoly) and isinstance(psi, LaurentPoly):
        grid = CircleGrid(scale * PAIRING_COSET_POINTS)
        phi, psi = sample(phi, grid), sample(psi, grid)
    elif not (isinstance(phi, GridFunction) and isinstance(psi, GridFunction)):
        raise TypeError("pair two polynomials or two GridFunctions")
    if phi.grid != psi.grid:
        raise ValueError("pairing samples must lie on one grid")
    if phi.grid.M % scale != 0:
        raise ValueError(f"pairing grid size must be a multiple of the scale {scale} (even at "
                         "N = 2), so that rho z stays on the grid")
    pv, sv = phi.values, psi.values
    # conj(phi) psi from real products, so that swapping phi and psi negates
    # the imaginary part exactly (a fused complex multiply would not)
    re = pv.real * sv.real + pv.imag * sv.imag
    im = pv.real * sv.imag - pv.imag * sv.real
    # summed over the N rotations rho^k z, shifts by M/N: one coset holds
    # every value of the sum, and the mean is taken over all N of them
    re, im = re.reshape(scale, -1).sum(axis=0), im.reshape(scale, -1).sum(axis=0)
    mean = complex(np.mean(np.tile(re, scale)), np.mean(np.tile(im, scale)))
    return mean, float(np.max(np.hypot(re - mean.real, im - mean.imag)))


def _pairing_table(solutions, scale: int) -> tuple[np.ndarray, float]:
    """The pairing of every two solutions, and the worst constancy defect.

    Each eigenvector is sampled once on the pairing grid.  pairing(psi, phi)
    is the exact conjugate of pairing(phi, psi): its pointwise imaginary parts
    are exact negatives, summed in the same order, and its deviations have the
    same moduli.  So only a <= b is paired.
    """
    n = len(solutions)
    grid = CircleGrid(scale * PAIRING_COSET_POINTS)
    samples = [sample(s.eigenvector, grid) for s in solutions]
    mat = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for a in range(n):
        for b in range(a, n):
            val, dev = pairing(samples[a], samples[b], scale)
            mat[b, a] = np.conj(val)
            mat[a, b] = val  # last, so the diagonal keeps the sampled value
            worst = max(worst, dev)
    return mat, worst
