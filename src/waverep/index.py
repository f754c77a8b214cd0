"""Unit-circle eigenspaces of the combined two-filter isometry, and an index.

For a scale-2 pair (f0, f1) whose 2x2 modulation matrix is pointwise
unitary, the operator

    (M xi)(z) = 2^(-1/2) (f0(z) xi(z^2) + f1(z) xi(-z^2))

is an isometry on L2 of the circle.  Its eigenvectors with |lambda| = 1 span
the unitary part of its Wold decomposition, and the total dimension of the
validated eigenspaces is reported as the index of the pair.

The window the filters fix.  With [a, b] the degree range of (f0, f1) and
K0 = max(-a, b, 0), M sends z^n into the modes [2n + a, 2n + b], all farther
out than n when |n| > K0.  So in the basis (inner [-K0, K0], outer) the
compression of M to a window K >= K0 is block lower-triangular [[A, 0],
[B, C]] with C nilpotent, and its nonzero spectrum is that of A.  The
eigensolve runs on the window min(K, K0), which is the window a report
gives.  A candidate v only counts after the *uncompressed* operator
reproduces it to a small exact residual; on the K0 window its square is
||(A - lambda) v||^2 + ||B v||^2, so v validates exactly when its image
stays inside the window.

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
from .laurent import CircleGrid, LaurentPoly, sample

LAMBDA_DISK_TOL = 1e-6  # eigenvalues below 1 - this are truncation artifacts
LAMBDA_CLUSTER_ARC = 1e-6
RANK_SVD_TOL = 1e-8
VALIDATE_TOL = 1e-8
PAIR_TOL = 1e-8  # gate on the pair's 2x2 modulation matrix (require_verified)


def combined_isometry_apply(f0: LaurentPoly, f1: LaurentPoly, xi: LaurentPoly,
                            check: bool = True) -> LaurentPoly:
    """Apply xi -> 2^(-1/2) (f0 xi(z^2) + f1 xi(-z^2)) exactly on coefficients."""
    if check:
        require_verified(FilterBank(2, (f0, f1)), PAIR_TOL)
    even = xi.compose_power(2)
    odd = xi.compose_negate().compose_power(2)  # xi(-z^2)
    return (f0 * even + f1 * odd) * (1.0 / math.sqrt(2.0))


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


def spectral_solutions(f0: LaurentPoly, f1: LaurentPoly, window: int = 64,
                       tol: float = VALIDATE_TOL) -> SpectralReport:
    """Validated unit-circle eigenpairs of the combined isometry, and the index.

    The operator is compressed to the Fourier window [-k, k], k =
    min(window, K0), eigensolved, and every candidate with |lambda| >= 1 - 1e-6
    is re-checked through the exact coefficient action: it survives iff
    ||M phi - lambda phi|| <= tol * ||phi||.  Survivors are clustered by
    eigenvalue and each cluster's dimension is a numerical rank.
    """
    require_verified(FilterBank(2, (f0, f1)), PAIR_TOL)
    k0 = max(-min(f0.min_degree, f1.min_degree), f0.max_degree, f1.max_degree, 0)
    k = min(window, k0)
    dim = 2 * k + 1
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for col, mode in enumerate(range(-k, k + 1)):
        image = combined_isometry_apply(f0, f1, LaurentPoly.monomial(mode), check=False)
        mat[:, col] = image.coeff_window(-k, k)
    eigvals, eigvecs = np.linalg.eig(mat)

    survivors = []
    for lam, vec in zip(eigvals, eigvecs.T):
        if abs(lam) < 1.0 - LAMBDA_DISK_TOL:
            continue
        phi = LaurentPoly(vec, min_degree=-k)
        nrm = phi.norm2()
        if nrm < 1e-12:
            continue
        phi = phi * (1.0 / nrm)
        image = combined_isometry_apply(f0, f1, phi, check=False)
        resid = (image - lam * phi).norm2()
        if resid <= tol:
            survivors.append((complex(lam), phi, float(resid)))

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
                          eigenspace_dims=dims, anomaly=anomaly)


def pairing(phi: LaurentPoly, psi: LaurentPoly, grid: CircleGrid | None = None):
    """Value and constancy defect of conj(phi(z)) psi(z) + conj(phi(-z)) psi(-z).

    For eigenvectors of the combined isometry this function is constant on
    the circle; the mean over the grid is the pairing value and the max
    deviation from it is the constancy residual.
    """
    if grid is None:
        grid = CircleGrid(4096)
    pv = sample(phi, grid).values
    sv = sample(psi, grid).values
    half = grid.M // 2
    if grid.M % 2 != 0:
        raise ValueError("pairing grid size must be even so -z stays on the grid")
    pm = np.roll(pv, -half)  # phi(-z)
    sm = np.roll(sv, -half)
    vals = np.conj(pv) * sv + np.conj(pm) * sm
    mean = complex(np.mean(vals))
    return mean, float(np.max(np.abs(vals - mean)))


def _pairing_table(solutions) -> tuple[np.ndarray, float]:
    n = len(solutions)
    mat = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for a in range(n):
        for b in range(n):
            val, dev = pairing(solutions[a].eigenvector, solutions[b].eigenvector)
            mat[a, b] = val
            worst = max(worst, dev)
    return mat, worst


def haar_component_flag(f0: LaurentPoly, f1: LaurentPoly, window: int = 64) -> bool:
    """Whether the combined isometry has a nonzero unitary part (index >= 1)."""
    return spectral_solutions(f0, f1, window=window).index >= 1
