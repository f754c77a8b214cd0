"""Unit-circle eigenspaces of the combined two-filter isometry, and an index.

For a scale-2 pair (f0, f1) whose 2x2 modulation matrix is pointwise
unitary, the operator

    (M xi)(z) = 2^(-1/2) (f0(z) xi(z^2) + f1(z) xi(-z^2))

is an isometry on L2 of the circle.  Its eigenvectors with |lambda| = 1 span
the unitary part of its Wold decomposition, and the total dimension of the
validated eigenspaces is reported as the index of the pair.

The window the filters fix.  With [a, b] the degree range of (f0, f1) and
K0 = max(-a, b, 0) (laurent.invariant_radius at N = 2), M sends z^n into the
modes [2n + a, 2n + b], all farther out than n when |n| > K0.  So in the
basis (inner [-K0, K0], outer) the compression of M to a window K >= K0 is
block lower-triangular [[A, 0], [B, C]] with C nilpotent, and its nonzero
spectrum is that of A; a smaller window cuts A.  So the eigensolve always
runs on K0, the window a report gives, and the caller's window only bounds
K0.  The compression is one gather from the filter taps (entry [2n + j, n]
is 2^(-1/2) (f0_j + (-1)^n f1_j)), with no operator apply per column.  A
candidate v only counts after the *uncompressed* operator, the exact
coefficient action of combined_isometry_apply, which shares nothing with
that gather, reproduces it to a small exact residual; on the K0 window its
square is ||(A - lambda) v||^2 + ||B v||^2, so v validates exactly when its
image stays inside the window.  The eigenpairs
not kept are counted by reason (REJECTION_REASONS).

Only unit-circle eigenvalues are counted: an isometry has unimodular point
spectrum on its unitary part, and compression eigenvalues strictly inside
the disk are truncation effects.  The index is reported as computed; values
outside {0, 1, 2} would contradict the structure theory and are surfaced as
an anomaly rather than clamped.  For any two validated solutions the
sesquilinear pairing phi, psi -> conj(phi(z)) psi(z) + conj(phi(-z)) psi(-z)
is constant on the circle, which is re-checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filterbank import FilterBank, require_verified
from .laurent import CircleGrid, GridFunction, LaurentPoly, invariant_radius, sample

LAMBDA_DISK_TOL = 1e-6  # eigenvalues below 1 - this are truncation artifacts
LAMBDA_CLUSTER_ARC = 1e-6
RANK_SVD_TOL = 1e-8
VALIDATE_TOL = 1e-8
PAIR_TOL = 1e-8  # gate on the pair's 2x2 modulation matrix (require_verified)
WINDOW_MAX = 1024  # default and cap of the bound on K0: at most a 2049^2 eigensolve
PAIRING_GRID = CircleGrid(4096)  # where pairing samples two polynomials
# why a compression eigenpair is not counted: |lambda| below 1 - LAMBDA_DISK_TOL,
# or a failed exact residual check
REJECTION_REASONS = ("inside_disk", "failed_validation")


def combined_isometry_apply(f0: LaurentPoly, f1: LaurentPoly, xi: LaurentPoly,
                            check: bool = True) -> LaurentPoly:
    """Apply xi -> 2^(-1/2) (f0 xi(z^2) + f1 xi(-z^2)) exactly on coefficients."""
    if check:
        require_verified(FilterBank(2, (f0, f1)), PAIR_TOL)
    even = xi.compose_power(2)
    odd = xi.compose_negate().compose_power(2)  # xi(-z^2)
    return (f0 * even + f1 * odd) * (1.0 / math.sqrt(2.0))


def _compression(f0: LaurentPoly, f1: LaurentPoly, k: int) -> np.ndarray:
    """The combined isometry compressed to the modes [-k, k], in one gather.

    Column n is M z^n = 2^(-1/2) sum_j (f0_j + (-1)^n f1_j) z^(2n + j), so
    entry [2n + j, n] is the tap j of the even or the odd table.  Only taps
    with |j| <= 3k reach a row inside the window; entry [i, c] of the matrix
    (row degree i - k, mode c - k) reads tap i - 2c + k, which is position
    i - 2c + 4k of a table over [-3k, 3k].
    """
    c0 = f0.coeff_window(-3 * k, 3 * k)
    c1 = f1.coeff_window(-3 * k, 3 * k)
    tables = np.stack([c0 + c1, c0 - c1]) * (1.0 / math.sqrt(2.0))  # n even, n odd
    i = np.arange(2 * k + 1)
    return tables[(i - k) % 2, i[:, None] - 2 * i + 4 * k]


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


def solve_window(f0: LaurentPoly, f1: LaurentPoly) -> int:
    """K0 = laurent.invariant_radius of the pair's degree range at N = 2."""
    return invariant_radius(min(f0.min_degree, f1.min_degree), max(f0.max_degree, f1.max_degree), 2)


def spectral_solutions(f0: LaurentPoly, f1: LaurentPoly, window: int = WINDOW_MAX,
                       tol: float = VALIDATE_TOL) -> SpectralReport:
    """Validated unit-circle eigenpairs of the combined isometry, and the index.

    The operator is compressed to the Fourier window [-K0, K0]
    (solve_window; ValueError unless K0 <= window <= WINDOW_MAX),
    eigensolved, and every candidate with |lambda| >= 1 - 1e-6 is re-checked
    through the exact coefficient action: it survives iff ||M phi - lambda
    phi|| <= tol * ||phi||.  Survivors are clustered by eigenvalue and each
    cluster's dimension is a numerical rank; the other eigenpairs are
    counted in ``rejected`` by reason.
    """
    if not 0 <= window <= WINDOW_MAX:
        raise ValueError(f"window must be in 0..{WINDOW_MAX}, got {window}")
    require_verified(FilterBank(2, (f0, f1)), PAIR_TOL)
    k = solve_window(f0, f1)
    if k > window:
        raise ValueError(f"the pair's window K0 = {k} exceeds the bound {window}")
    eigvals, eigvecs = np.linalg.eig(_compression(f0, f1, k))

    survivors = []
    rejected = dict.fromkeys(REJECTION_REASONS, 0)
    for lam, vec in zip(eigvals, eigvecs.T):
        if abs(lam) < 1.0 - LAMBDA_DISK_TOL:
            rejected["inside_disk"] += 1
            continue
        phi = LaurentPoly(vec, min_degree=-k)  # eig returns unit vectors
        phi = phi * (1.0 / phi.norm2())
        image = combined_isometry_apply(f0, f1, phi, check=False)
        resid = (image - lam * phi).norm2()
        if resid <= tol:
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
    total = 0
    for cl in clusters:
        lo = min(p.min_degree for _, p, _ in cl)
        hi = max(p.max_degree for _, p, _ in cl)
        stack = np.stack([p.coeff_window(lo, hi) for _, p, _ in cl])
        svals = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(svals > RANK_SVD_TOL * max(1.0, svals[0])))
        lam0 = cl[0][0]
        dims[lam0] = rank
        total += rank
        # report an orthonormal basis of the validated span
        q, _ = np.linalg.qr(stack.T.conj())
        for col in range(rank):
            phi = LaurentPoly(np.conj(q[:, col]), min_degree=lo)
            image = combined_isometry_apply(f0, f1, phi, check=False)
            solutions.append(SpectralSolution(
                eigenvalue=lam0,
                eigenvector=phi,
                residual=float((image - lam0 * phi).norm2()),
            ))

    pairing_mat, pairing_resid = _pairing_table(solutions)
    anomaly = None
    if total > 2:
        anomaly = (
            f"index {total} exceeds 2 for a scale-2 pair; this contradicts the "
            "unitary-part structure and is reported for inspection"
        )
    return SpectralReport(solutions=solutions, index=total, window=k,
                          pairing_matrix=pairing_mat, pairing_residual=pairing_resid,
                          eigenspace_dims=dims, anomaly=anomaly, rejected=rejected)


def pairing(phi, psi):
    """Value and constancy defect of conj(phi(z)) psi(z) + conj(phi(-z)) psi(-z).

    phi and psi are polynomials, sampled here on PAIRING_GRID (4096 points),
    or GridFunctions: their samples on one even grid.  For eigenvectors of
    the combined isometry this function is constant on the circle; the mean
    over the grid is the pairing value and the max deviation from it is the
    constancy residual.  The function is twice the even-lag part of the
    coefficients' cross-correlation, so an exact pairing needs no grid; this
    sampled one stays while the traced ``spectral`` benchmark run requires
    the spans of ``pairing`` and of polynomial evaluation (ROADMAP item 1).
    """
    if isinstance(phi, LaurentPoly) and isinstance(psi, LaurentPoly):
        phi, psi = sample(phi, PAIRING_GRID), sample(psi, PAIRING_GRID)
    elif not (isinstance(phi, GridFunction) and isinstance(psi, GridFunction)):
        raise TypeError("pair two polynomials or two GridFunctions")
    if phi.grid != psi.grid:
        raise ValueError("pairing samples must lie on one grid")
    if phi.grid.M % 2 != 0:
        raise ValueError("pairing grid size must be even so -z stays on the grid")
    pv, sv = phi.values, psi.values
    half = phi.grid.M // 2
    # conj(phi) psi from real products, so that swapping phi and psi negates
    # the imaginary part exactly (a fused complex multiply would not)
    re = pv.real * sv.real + pv.imag * sv.imag
    im = pv.real * sv.imag - pv.imag * sv.real
    # plus the same at -z: the sum has period M/2, so one half holds every
    # value, and the mean is taken over both halves
    re = re[:half] + re[half:]
    im = im[:half] + im[half:]
    mean = complex(np.mean(np.concatenate((re, re))), np.mean(np.concatenate((im, im))))
    return mean, float(np.max(np.hypot(re - mean.real, im - mean.imag)))


def _pairing_table(solutions) -> tuple[np.ndarray, float]:
    """The pairing of every two solutions, and the worst constancy defect.

    Each eigenvector is sampled once on PAIRING_GRID, and every pair
    is read from those samples.  pairing(psi, phi) is the exact conjugate of
    pairing(phi, psi): its pointwise imaginary parts are exact negatives,
    summed in the same order, and its deviations have the same moduli.  So
    only a <= b is paired.
    """
    n = len(solutions)
    samples = [sample(s.eigenvector, PAIRING_GRID) for s in solutions]
    mat = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for a in range(n):
        for b in range(a, n):
            val, dev = pairing(samples[a], samples[b])
            mat[b, a] = np.conj(val)
            mat[a, b] = val  # last, so the diagonal keeps the sampled value
            worst = max(worst, dev)
    return mat, worst
