"""Orbit decomposition of monomial isometry families and cocycle equivalence.

A monomial family (filters z^{d_i} with digits mutually incongruent mod N)
permutes the Fourier modes: the i-th isometry sends the mode k to N*k + d_i,
and the adjoints funnel every integer down the unique branch
k -> (k - d_i)/N with d_i matching k mod N.  The invariant subspaces are
spanned by the monomials they contain, so decomposing the family is pure
integer dynamics: a mode belongs to the component of the cycle its backward
funnel reaches.  Let R = floor(max|d_i| / (N-1)).  Every ball |k| <= rho with
rho >= R is invariant under the backward map: max|d_i| < (N-1)(R+1) gives
|k - d_i| <= rho + max|d_i| < rho + (N-1)(R+1) <= N(rho+1), so the integer
(k - d_i)/N has modulus at most rho.  Outside the ball of radius R the map
strictly shrinks |k|, so every cycle lies in that ball.  The modes of the
window [-K, K] are labelled on the ball of radius rho = max(K, R):
ceil(log2(2 rho + 1)) doublings of the backward map land every mode on its
cycle, and the cycles come from the pointer doubling that CircleGrid.cycles
uses, so a decomposition costs O(rho log rho).

Characteristic-function families are handled through their unimodular
cocycle u: two of them are unitarily equivalent exactly when
Delta(z) u1(z) = u2(z) Delta(z^N) has a unimodular solution Delta, which on
a grid of size coprime to N is an explicit per-cycle telescoping product
with one obstruction per cycle.  The same telescope solves the Wold grid
equation m(z) xi(z^N) = lambda xi(z): it is this equation with u1 = lambda
(constant) and u2 = m.  The finite grid cannot see ergodicity, so
grid verdicts are flagged as a screen; the monomial special cases are
cross-checked symbolically in the tests.  Irreducibility of these families
is a structural fact taken as an assumption, not re-verified numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .laurent import CircleGrid, GridFunction, _cycles_of, invariant_radius

CYCLE_ARC_TOL = 1e-8  # arc bound, per cycle point, on each cycle product of _telescope
COCYCLE_MODULUS_TOL = 1e-12  # max ||u| - 1| of a cocycle that CharRep and solve_coboundary accept


# ---------------------------------------------------------------------------
# monomial families: integer orbit decomposition


@dataclass(frozen=True)
class MonomialRep:
    """Scale N and digits d_0..d_{N-1}, mutually incongruent modulo N."""

    scale: int
    digits: tuple

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))
        if self.scale < 2:
            raise ValueError("scale must be >= 2")
        if len(self.digits) != self.scale:
            raise ValueError(f"expected {self.scale} digits")
        if len({d % self.scale for d in self.digits}) != self.scale:
            raise ValueError("digits must be mutually incongruent modulo the scale")

    def branch_back(self, k: int) -> int:
        """The unique preimage (k - d_i)/N with d_i = k mod N."""
        d = next(d for d in self.digits if (k - d) % self.scale == 0)
        return (k - d) // self.scale

    def cycle_radius(self) -> int:
        """All cycle points satisfy |c| <= R = max|d| // (N-1), the invariant radius."""
        return invariant_radius(min(self.digits), max(self.digits), self.scale)


@dataclass
class Component:
    """One invariant family of Fourier modes: a cycle plus its forward closure."""

    cycle: tuple
    members: np.ndarray  # sorted modes inside the enumerated window
    description: str


@dataclass
class ComponentReport:
    cycles: list
    components: list
    window: tuple
    rep: MonomialRep = field(repr=False)
    split_digit: int | None = None  # a digit whose forward map left its component

    @property
    def partition(self) -> bool:  # whether every forward map keeps each mode in its component
        return self.split_digit is None


def _funnel(rep: MonomialRep, radius: int) -> tuple[list[tuple], np.ndarray]:
    """Cycles of the backward map, and the cycle index of each mode in the
    ball |k| <= radius (radius >= R), listed from -radius to radius.

    ceil(log2(2 radius + 1)) doublings of the backward map land every mode
    of the ball on its cycle, so the landing points are the cycle points,
    where the map is a permutation.
    """
    n = rep.scale
    table = np.empty(n, dtype=np.int64)
    table[np.array(rep.digits) % n] = rep.digits
    modes = np.arange(-radius, radius + 1)
    succ = (modes - table[modes % n]) // n + radius  # as indices into the ball
    land = succ
    for _ in range((2 * radius).bit_length()):
        land = land[land]
    points = np.flatnonzero(np.bincount(land, minlength=len(modes)))
    at = np.empty(len(modes), dtype=np.int64)
    at[points] = np.arange(len(points))
    cycles = _cycles_of(at[succ[points]])
    label = np.empty(len(points), dtype=np.int64)
    label[np.concatenate(cycles)] = np.repeat(np.arange(len(cycles)), [len(c) for c in cycles])
    return [tuple(modes[points[c]].tolist()) for c in cycles], label[at[land]]


def decompose_monomial(rep: MonomialRep, window: int = 64) -> ComponentReport:
    """Split the integer modes in the window [-K, K], K = window, into the
    invariant components; a negative window is a ValueError.

    A mode belongs to the component of the cycle its backward funnel reaches
    (the funnel runs on the ball of radius max(K, R), which holds the window
    and is invariant).  The split is checked against the forward maps: a
    mode and its image N k + d_i in the window must share a component, else
    the first such d_i is ``split_digit`` and ``partition`` is false.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    k = window
    radius = max(k, rep.cycle_radius())
    cycles, label = _funnel(rep, radius)
    modes = np.arange(-k, k + 1)
    label = label[modes + radius]
    split_digit = None
    for d in rep.digits:
        image = rep.scale * modes + d
        inside = np.abs(image) <= k
        if np.any(label[inside] != label[image[inside] + k]):
            split_digit = d
            break
    order = np.argsort(label, kind="stable")
    cuts = np.cumsum(np.bincount(label, minlength=len(cycles)))
    components = [Component(
        cycle=cyc,
        members=members,
        description=f"closure of cycle {cyc} under k -> {rep.scale}k + d, d in {rep.digits}",
    ) for cyc, members in zip(cycles, np.split(modes[order], cuts[:-1]))]
    return ComponentReport(cycles, components, (-k, k), rep, split_digit)


def component_of(report: ComponentReport, k: int) -> int:
    """Component index of an arbitrary mode, by walking the backward funnel.

    Works outside the enumerated window: every backward orbit reaches some
    cycle, which identifies the component.
    """
    index = {q: i for i, c in enumerate(report.components) for q in c.cycle}
    while k not in index:
        k = report.rep.branch_back(k)
    return index[k]


# ---------------------------------------------------------------------------
# partitions of the circle under rotation


def check_partition(masks, scale: int) -> bool:
    """Whether N boolean grid masks tile every rotation orbit exactly once.

    Masks must share a grid whose size is divisible by N, so multiplication
    by the N-th root of unity is an index shift.  True iff for every grid
    point z the points z, rho z, ..., rho^(N-1) z meet each set once.
    """
    masks = [np.asarray(m, dtype=bool) for m in masks]
    if len(masks) != scale:
        raise ValueError(f"expected {scale} masks")
    m = len(masks[0])
    if any(len(a) != m for a in masks):
        raise ValueError("masks must share one grid")
    if m % scale != 0:
        raise ValueError("grid size must be divisible by the scale")
    stack = np.array(masks, dtype=np.int64)
    orbit_hits = stack.reshape(scale, scale, m // scale).sum(axis=1)  # [mask, orbit]
    return bool(np.all(stack.sum(axis=0) == 1) and np.all(orbit_hits == 1))


def standard_arc_masks(grid: CircleGrid, scale: int) -> list[np.ndarray]:
    """Masks of the arcs between consecutive N-th roots of unity.

    Membership is decided by angle, so the masks exist on any grid; only
    check_partition needs the divisibility that makes rotation an index
    shift.
    """
    js = np.arange(grid.M)
    k = (js * scale) // grid.M  # floor(angle / (2 pi / N))
    return [(k == i) for i in range(scale)]


# ---------------------------------------------------------------------------
# characteristic-function families and cocycle equivalence


@dataclass(frozen=True)
class CharRep:
    """A characteristic-function family: scale N and unimodular cocycle u.

    The filters are sqrt(N) * chi_k(z) * u(z) with chi_k the indicator of
    the standard arc between the k-th and (k+1)-th roots of unity; all the
    equivalence data sits in u.
    """

    scale: int
    u: GridFunction

    def __post_init__(self):
        if self.scale < 2:
            raise ValueError("scale must be >= 2")
        dev = np.max(np.abs(np.abs(self.u.values) - 1.0))
        if dev > COCYCLE_MODULUS_TOL:
            raise ValueError(f"cocycle is not unimodular (deviation {dev:.3g})")
        if math.gcd(self.u.grid.M, self.scale) != 1:
            raise ValueError("cocycle grid must be coprime to the scale")


def _telescope(q: np.ndarray, grid: CircleGrid, scale: int) -> np.ndarray | None:
    """Unimodular f with f(z^N) = q(z) f(z) on the grid, or None.

    Along each cycle of j -> N j mod M the relation telescopes, fixing f up
    to one unimodular scalar per cycle (1 at the cycle minimum); a solution
    exists iff every cycle product of q is 1 within arc distance
    CYCLE_ARC_TOL * cycle length.  All products are checked before any cycle
    is walked, and the cycles of one length are walked together.
    """
    cycles = grid.cycles(scale)
    flat = np.concatenate(cycles)
    lengths = np.fromiter(map(len, cycles), dtype=np.int64, count=len(cycles))
    starts = np.cumsum(lengths) - lengths
    qs = q[flat]
    if np.any(np.abs(np.angle(np.multiply.reduceat(qs, starts))) > CYCLE_ARC_TOL * lengths):
        return None
    f = np.empty(grid.M, dtype=np.complex128)
    for n in np.unique(lengths):
        at = starts[lengths == n][:, None] + np.arange(n)
        walk = np.ones(at.shape, dtype=np.complex128)
        np.cumprod(qs[at[:, :-1]], axis=1, out=walk[:, 1:])
        f[flat[at]] = walk / np.abs(walk)
    return f


def solve_coboundary(u1: GridFunction, u2: GridFunction, scale: int) -> GridFunction | None:
    """Solve Delta(z) u1(z) = u2(z) Delta(z^N) on the grid, or report none.

    Delta(z^N) = (u1/u2)(z) Delta(z), telescoped along the cycles of
    j -> N j mod M (see _telescope).
    """
    if u1.grid != u2.grid:
        raise ValueError("cocycles must share one grid")
    for u in (u1, u2):
        if np.max(np.abs(np.abs(u.values) - 1.0)) > COCYCLE_MODULUS_TOL:
            raise ValueError("cocycles must be unimodular")
    delta = _telescope(u1.values / u2.values, u1.grid, scale)
    return None if delta is None else GridFunction(u1.grid, delta)


@dataclass
class EquivalenceReport:
    equivalent: bool
    delta: GridFunction | None
    intertwining_residual: float | None
    grid_screen: bool = True  # finite-grid necessary-condition verdict


def equivalence_check(rep1: CharRep, rep2: CharRep) -> EquivalenceReport:
    """Decide unitary equivalence of two characteristic-function families.

    Equivalent iff the cocycles cobound.  On success the residual of the
    exchange relation Delta S1_k xi = S2_k (Delta xi), worst over the arcs k
    and the probes xi = 1, z, 1/z, is reported.  Its defect is sqrt(N) chi_k(z)
    xi(z^N) (Delta u1 - u2 Delta(z^N))(z); the probes are unimodular on the
    grid and the arcs partition it, so it is sqrt(N) max |Delta u1 - u2 Delta(z^N)|.
    """
    if rep1.scale != rep2.scale:
        raise ValueError("scales differ")
    n = rep1.scale
    delta = solve_coboundary(rep1.u, rep2.u, n)
    if delta is None:
        return EquivalenceReport(equivalent=False, delta=None, intertwining_residual=None)
    d = delta.values
    defect = d * rep1.u.values - rep2.u.values * d[delta.grid.multiply_map(n)]
    return EquivalenceReport(equivalent=True, delta=delta,
                             intertwining_residual=math.sqrt(n) * float(np.max(np.abs(defect))))
