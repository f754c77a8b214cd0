"""Bilateral (Laurent) trigonometric polynomials and circle-grid samples.

Everything downstream (filter banks, isometries, spectral problems) is built
on two value types: ``LaurentPoly``, a finite two-sided complex coefficient
sequence evaluated on the unit circle, and ``GridFunction``, complex samples
on the M-th roots of unity.  Both are immutable after construction, so they
are safe to share between threads; every operation returns a new object.
A CircleGrid serves two memoized read-only tables, one per grid size M: its
roots of unity (points), and per scale N the cycles of z -> z^N on it
(cycles), as one flat table of the points cycle after cycle and the cycle
lengths.

Convention used throughout the package: a polynomial, viewed as a
2*pi-periodic function of the angle t, is evaluated at z = exp(-i*t).
InputError is defined here, where every module can import it without a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Edge coefficients with modulus below this are trimmed, so the leading and
# trailing coefficients of a normalized polynomial are nonzero.
TRIM_TOL = 1e-14

# Maximum allowed deviation of |z| from 1 in evaluate().
UNIT_CIRCLE_TOL = 1e-12

# Bound on |degree| where degrees enter from outside (serialize.poly_from_dict,
# permutative.MonomialRep), which raise InputError above it.  A computed circle
# point has |z| = 1 +- eps with eps ~ 2^-53, so z^D is off the circle by a
# factor e^(+-D eps): past |D| ~ 2^52 no evaluation has a correct digit.
DEGREE_MAX = 2**53


class InputError(ValueError):
    """A precondition on integers, types or shapes failed where it is checked: the CLI
    exits 2.  A computed value beyond a tolerance is a plain ValueError: exit 1."""


def require_degrees(*degrees: int) -> None:
    """InputError unless every |degree| <= DEGREE_MAX."""
    for d in degrees:
        if abs(d) > DEGREE_MAX:
            raise InputError(f"degree {d} exceeds the bound |degree| <= 2^53")


class LaurentPoly:
    """A finite sum of c_k z^k over a contiguous integer window of k.

    ``coeffs[j]`` is the coefficient of ``z**(min_degree + j)``.  The zero
    polynomial is represented by an empty coefficient array and
    ``min_degree == 0``.
    """

    __slots__ = ("min_degree", "coeffs")

    def __init__(self, coeffs, min_degree: int = 0):
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise InputError("coefficients must be one-dimensional")
        if c is coeffs or c.base is not None:  # the caller's memory
            c = c.copy()
        self._store(c, min_degree)

    @classmethod
    def _owned(cls, c: np.ndarray, min_degree: int) -> "LaurentPoly":
        """A polynomial over a fresh 1-d complex128 array that nothing else holds."""
        p = object.__new__(cls)
        p._store(c, min_degree)
        return p

    def _store(self, c: np.ndarray, min_degree: int):
        """Trim edge entries below TRIM_TOL (NaN is kept) and freeze c."""
        if len(c) and (abs(c[0]) < TRIM_TOL or abs(c[-1]) < TRIM_TOL):
            keep = np.flatnonzero(~(np.abs(c) < TRIM_TOL))
            if len(keep) == 0:
                c = np.zeros(0, dtype=np.complex128)
            else:
                lo = int(keep[0])
                c, min_degree = c[lo : int(keep[-1]) + 1], int(min_degree) + lo
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "min_degree", int(min_degree) if len(c) else 0)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(np.zeros(0))

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls([1.0])

    @classmethod
    def monomial(cls, degree: int, coeff: complex = 1.0) -> "LaurentPoly":
        return cls([coeff], min_degree=degree)

    # -- structure ---------------------------------------------------------

    @property
    def max_degree(self) -> int:
        if self.is_zero():
            return 0
        return self.min_degree + len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def coefficient(self, k: int) -> complex:
        """Coefficient of z**k (0 for k outside the stored window)."""
        j = k - self.min_degree
        if 0 <= j < len(self.coeffs):
            return complex(self.coeffs[j])
        return 0.0 + 0.0j

    def coeff_window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients of z^lo .. z^hi inclusive, as a dense vector."""
        out = np.zeros(hi - lo + 1, dtype=np.complex128)
        if self.is_zero():
            return out
        a = max(lo, self.min_degree)
        b = min(hi, self.max_degree)
        if a <= b:
            out[a - lo : b - lo + 1] = self.coeffs[a - self.min_degree : b - self.min_degree + 1]
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_degree, other.min_degree)
        hi = max(self.max_degree, other.max_degree)
        acc = np.zeros(hi - lo + 1, dtype=np.complex128)
        acc[self.min_degree - lo : self.min_degree - lo + len(self.coeffs)] += self.coeffs
        acc[other.min_degree - lo : other.min_degree - lo + len(other.coeffs)] += other.coeffs
        return LaurentPoly._owned(acc, lo)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._owned(-self.coeffs, self.min_degree)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if np.isscalar(other):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly._owned(self.coeffs * other, self.min_degree)
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        # Direct convolution; degrees stay small enough that FFT never pays off.
        return LaurentPoly._owned(np.convolve(self.coeffs, other.coeffs),
                                  self.min_degree + other.min_degree)

    __rmul__ = __mul__

    # -- circle operations ---------------------------------------------------

    def evaluate(self, z):
        """Evaluate at z with |z| = 1 (scalar or array).

        Uses two-sided Horner: nonnegative powers are evaluated ascending in
        z, strictly negative powers ascending in 1/z, which keeps every
        intermediate on the unit circle scale.
        """
        z = np.asarray(z, dtype=np.complex128)
        if np.any(np.abs(np.abs(z) - 1.0) > UNIT_CIRCLE_TOL):
            raise ValueError("evaluation point is off the unit circle")
        return self._evaluate_unchecked(z)

    def _evaluate_unchecked(self, z, work=None):
        """Horner at z, on or off the circle; `work`, four complex arrays of
        z's shape that the caller owns, holds the result (work[0]) and every
        intermediate, so that repeated calls allocate nothing.

        One loop runs in x = z over the degrees >= 0 and in x = 1/z over the
        degrees < 0, from the half's highest power of x down to its lowest,
        p, and then multiplies by x**p once: O(taps) work at any offset."""
        z = np.asarray(z, dtype=np.complex128)
        if work is None:
            work = [np.empty_like(z) for _ in range(4)]
        out, acc, tmp, w = work
        out.fill(0.0)
        lo, hi = self.min_degree, self.max_degree
        coeffs = self.coeffs.tolist()
        halves = []  # (x, coefficients from the highest power of x, lowest power p)
        if hi >= 0:
            halves.append((z, coeffs[max(lo, 0) - lo:][::-1], max(lo, 0)))
        if lo < 0:
            halves.append((np.divide(1.0, z, out=w), coeffs[:min(hi, -1) - lo + 1], -min(hi, -1)))
        # Horner steps alternate between two buffers: numpy may round an
        # in-place complex multiply differently from one into a fresh array
        for x, descending, p in halves:
            acc.fill(0.0)
            for c in descending:
                np.multiply(acc, x, out=tmp)
                tmp += c
                acc, tmp = tmp, acc
            if p > 0:
                np.multiply(acc, x ** p, out=tmp)
                acc, tmp = tmp, acc
            out += acc
        return out[()] if z.ndim == 0 else out

    def compose_power(self, n: int) -> "LaurentPoly":
        """The polynomial p(z^n): coefficient of z^(n*k) is that of z^k."""
        if n < 1:
            raise InputError("compose_power requires n >= 1")
        if self.is_zero() or n == 1:
            return self
        out = np.zeros((len(self.coeffs) - 1) * n + 1, dtype=np.complex128)
        out[::n] = self.coeffs
        return LaurentPoly._owned(out, self.min_degree * n)

    def compose_negate(self) -> "LaurentPoly":
        """The polynomial p(-z)."""
        if self.is_zero():
            return self
        ks = self.min_degree + np.arange(len(self.coeffs))
        signs = np.where(ks % 2 == 0, 1.0, -1.0)
        return LaurentPoly._owned(self.coeffs * signs, self.min_degree)

    def conj_reflect(self) -> "LaurentPoly":
        """On-circle complex conjugate: sum of conj(c_k) z^(-k)."""
        if self.is_zero():
            return self
        return LaurentPoly._owned(np.conj(self.coeffs[::-1]), -self.max_degree)

    def norm2(self) -> float:
        """L2(T) norm with normalized Haar measure, i.e. l2 of coefficients."""
        re, im = self.coeffs.real, self.coeffs.imag
        return math.sqrt(re.dot(re) + im.dot(im))  # bitwise np.linalg.norm

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_degree == other.min_degree and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.min_degree, (self.coeffs + 0.0).tobytes()))  # + 0.0 maps -0.0 to 0.0

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        terms = []
        for j, c in enumerate(self.coeffs[:6]):
            terms.append(f"({c:.4g})z^{self.min_degree + j}")
        tail = " + ..." if len(self.coeffs) > 6 else ""
        return "LaurentPoly(" + " + ".join(terms) + tail + ")"


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if np.isscalar(x):
        return LaurentPoly([x])
    raise TypeError(f"cannot interpret {type(x).__name__} as LaurentPoly")


def inner(p: LaurentPoly, q: LaurentPoly) -> complex:
    """L2(T) inner product, conjugate-linear in the first argument."""
    if p.is_zero() or q.is_zero():
        return 0.0 + 0.0j
    lo = max(p.min_degree, q.min_degree)
    hi = min(p.max_degree, q.max_degree)
    if lo > hi:
        return 0.0 + 0.0j
    a = p.coeffs[lo - p.min_degree : hi - p.min_degree + 1]
    b = q.coeffs[lo - q.min_degree : hi - q.min_degree + 1]
    return complex(np.vdot(a, b))


def allclose(p: LaurentPoly, q: LaurentPoly, tol: float = 1e-12) -> bool:
    """Whether ||p - q|| <= tol * max(1, ||p||, ||q||)."""
    return (p - q).norm2() <= tol * max(1.0, p.norm2(), q.norm2())


# ---------------------------------------------------------------------------
# circle grids


@lru_cache(maxsize=64)
def _grid_points(m: int) -> np.ndarray:
    """The package's one table of roots of unity; z_j^d is its entry at (d j) mod M."""
    pts, quarters = np.exp(2j * np.pi * np.arange(m) / m), math.gcd(m, 4)
    pts[:: m // quarters] = (1, 1j, -1, -1j)[:: 4 // quarters]  # exact quarter turns
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=64)
def _grid_angles(m: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(m) / m
    ang.setflags(write=False)
    return ang


def _cycles_of(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cycles of the permutation j -> sigma[j] of 0..n-1, each from its minimum,
    in the order of the minima, as one flat table (order, lengths): order lists
    the points cycle after cycle, and lengths the cycle lengths.  Pointer
    doubling labels each point with the minimum of its cycle and then ranks it
    along the cycle, in ceil(log2 L) rounds each, where L is the longest cycle
    length."""
    n = len(sigma)
    points = np.arange(n)
    # after round k, label[j] is the least of the 2^k points from j on,
    # and jump is sigma^(2^k); all labels are cycle minima exactly when
    # no label differs from its successor's
    label, jump, rounds = points, sigma, 0
    while not np.array_equal(label[sigma], label):
        label, jump, rounds = np.minimum(label, label[jump]), jump[jump], rounds + 1
    # steps from j forward to its cycle's minimum, where the walk halts
    root = label == points
    ahead = np.where(root, points, sigma)
    dist = (~root).astype(np.int64)
    for _ in range(rounds):
        dist, ahead = dist + dist[ahead], ahead[ahead]
    size = np.bincount(label, minlength=n)
    lengths = size[root]
    starts = np.cumsum(lengths) - lengths
    first = np.zeros(n, dtype=np.int64)
    first[root] = starts
    # j sits (size - dist) mod size steps after its cycle's minimum
    order = np.empty(n, dtype=np.int64)
    order[first[label] + (size[label] - dist) % size[label]] = points
    return order, lengths


@lru_cache(maxsize=64)
def _cycle_table(m: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """The table of CircleGrid(m).cycles(scale), computed once and read-only."""
    table = _cycles_of(CircleGrid(m).multiply_map(scale))
    for a in table:
        a.setflags(write=False)
    return table


def invariant_window(lo: int, hi: int, scale: int) -> tuple[int, int]:
    """T = [p, q], p = -floor(hi / (N - 1)), q = floor(-lo / (N - 1)), for filters
    with degrees in [lo, hi]: the modes t with -(N - 1) t in [lo, hi].

    The scale-N adjoint of such a filter, xi -> (1/N) sum_k conj(m) xi over
    the coset of z, sends z^n into the modes [(n - hi)/N, (n - lo)/N].  A mode
    n > q has (N - 1) n > -lo, so its image lies strictly below n; a mode
    n < p has (N - 1) n < -hi, so its image lies strictly above n; and the
    modes of [p, q] stay in [p, q].  So every interval [p', q'] with p' <= p
    and q' >= q is invariant under every adjoint of a bank, and every mode is
    carried into it.  T is empty (p = q + 1) exactly when [lo, hi] holds no
    multiple of N - 1, for a single filter such as z^d with (N - 1) not
    dividing d; a bank's taps meet every residue mod N, so hi - lo >= N - 1
    and its T is never empty.  R = max(-p, q) = floor(max(-lo, hi, 0) / (N - 1))
    is the radius of the symmetric window [-R, R] that holds T: the bound a
    caller sets on it, not a window anything is solved on.
    """
    return -(hi // (scale - 1)), -lo // (scale - 1)


@dataclass(frozen=True)
class CircleGrid:
    """The M-th roots of unity exp(2*pi*i*j/M), j = 0..M-1."""

    M: int

    def __post_init__(self):
        if self.M < 1:
            raise InputError(f"a grid needs M >= 1, got {self.M}")

    def points(self) -> np.ndarray:
        return _grid_points(self.M)

    def angles(self) -> np.ndarray:
        """Angles theta_j = 2*pi*j/M of the grid points (z-convention)."""
        return _grid_angles(self.M)

    @classmethod
    def dynamics_grid(cls, scale: int) -> "CircleGrid":
        """Canonical grid for the dynamics z -> z^scale.

        Sizes of the form scale**L - 1 are always coprime to the scale, so
        j -> scale*j mod M permutes the grid.  L >= 2 is the least power
        with scale**L - 1 >= 4095, or 2 where that power passes 65535: so M
        lies in [4095, 65535] except N^2 - 1 at N = 41..63 (below) and at
        N >= 257 (above).
        """
        if scale < 2:
            raise InputError("scale must be >= 2")
        lo, hi = 4095, 65535
        L = 2
        while scale**L - 1 < lo:
            L += 1
        while scale**L - 1 > hi and L > 2:
            L -= 1
        return cls(scale**L - 1)

    def multiply_map(self, scale: int) -> np.ndarray:
        """Index map of z -> z^scale, i.e. j -> scale*j mod M."""
        if math.gcd(self.M, scale) != 1:
            raise InputError("z -> z^scale permutes the grid only when gcd(M, scale) = 1")
        return (np.arange(self.M) * scale) % self.M

    def cycles(self, scale: int) -> tuple[np.ndarray, np.ndarray]:
        """Cycles of j -> scale*j mod M, each from its minimum, in the order of
        the minima, as the flat table (order, lengths) of _cycles_of: the
        points cycle after cycle, and the cycle lengths.  The pointer doubling
        on multiply_map(scale) takes ceil(log2 L) rounds, where L is the order
        of scale mod M, once per (M, scale): the read-only table is memoized,
        as the roots of unity are."""
        return _cycle_table(self.M, scale)

    def cycle_min(self, scale: int, j: int) -> int:
        """The least point of the cycle of j -> scale*j mod M through point j,
        read from the memoized table of cycles(scale)."""
        order, lengths = _cycle_table(self.M, scale)
        starts = np.cumsum(lengths) - lengths
        at = int(np.flatnonzero(order == j)[0])
        return int(order[starts[np.searchsorted(starts, at, side="right") - 1]])


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a CircleGrid, one value per grid point.

    Equal when grid and values are equal; hashable, so grid-kind banks are too.
    """

    grid: CircleGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.M,):
            raise InputError("values length must equal the grid size")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.grid, (self.values + 0.0).tobytes()))  # + 0.0 maps -0.0 to 0.0


def sample(p: LaurentPoly, grid: CircleGrid) -> GridFunction:
    """values[j] = p(z_j): Horner over the taps from degree 0, times the table entry z_j^lo."""
    pts, shift = grid.points(), p.min_degree % grid.M
    values = LaurentPoly(p.coeffs)._evaluate_unchecked(pts)
    if shift:
        values *= pts[shift * np.arange(grid.M) % grid.M]
    return GridFunction(grid, values)
