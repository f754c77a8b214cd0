"""Named filter banks used by the CLI and the test suites.

* ``haar(N)`` -- the discrete-Fourier bank whose low-pass is
  (1 + z + .. + z^(N-1))/sqrt(N); at N = 2 this is the classic pair
  ((1+z)/sqrt(2), (1-z)/sqrt(2)).
* ``db4()`` -- the four-tap orthogonal low-pass with two vanishing moments,
  frozen in closed form and completed by the conjugate-mirror rule.
* ``shannon()`` -- sharp half-band indicators, kept as exact angle rules
  (half-open arcs) so products and lattice sums stay exact at dyadic grids.
* ``monomial(digits)`` -- the bank z^{d_0} .. z^{d_{N-1}} with digits
  mutually incongruent modulo N.
* ``random_paraunitary_bank`` -- degree-one factor products of the polyphase
  matrix; unitary by construction, for randomized suites.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .filterbank import AngleFunction, FilterBank, complete_filterbank
from .laurent import LaurentPoly


def haar(scale: int = 2) -> FilterBank:
    """The DFT bank at a given scale; filter i is N^(-1/2) sum_j rho^(-ij) z^j.

    Each phase is read from the N values exp(-2 pi i k / N) at k = ij mod N,
    so its rounding does not grow with the exponent ij.
    """
    n = scale
    if n < 2:
        raise ValueError("scale must be >= 2")
    phases = np.exp(-2j * np.pi * np.arange(n) / n) / math.sqrt(n)
    j = np.arange(n)
    return FilterBank(n, tuple(LaurentPoly(phases[i * j % n]) for i in range(n)))


def db4() -> FilterBank:
    """Four-tap orthogonal bank (two vanishing moments), conjugate-mirror completed."""
    r3 = math.sqrt(3.0)
    h = np.array([1.0 + r3, 3.0 + r3, 3.0 - r3, 1.0 - r3]) / (4.0 * math.sqrt(2.0))
    return complete_filterbank(LaurentPoly(h), 2)


def _half_band(on: float, off: float):
    """Angle rule: `on` on the half-open arc t in [-pi/2, pi/2) mod 2*pi, `off` elsewhere.

    A 1e-9 snap makes the boundary decision deterministic for near-dyadic t.
    """
    def rule(t: np.ndarray) -> np.ndarray:
        r = np.mod(t / np.pi + 1.0, 2.0) - 1.0
        mask = (r >= -0.5 - 1e-9) & (r < 0.5 - 1e-9)
        return np.where(mask, on, off).astype(np.complex128)
    return rule


def shannon() -> FilterBank:
    """Half-band indicator pair at scale 2, as exact angle rules."""
    root2 = math.sqrt(2.0)
    return FilterBank(2, (AngleFunction(_half_band(root2, 0.0), "shannon low"),
                          AngleFunction(_half_band(0.0, root2), "shannon high")))


def monomial(digits) -> FilterBank:
    """The bank of monomials z^{d_i}; digits mutually incongruent modulo N."""
    digits = tuple(int(d) for d in digits)
    n = len(digits)
    if n < 2:
        raise ValueError("need at least two digits")
    if len({d % n for d in digits}) != n:
        raise ValueError("digits must be mutually incongruent modulo the scale")
    return FilterBank(n, tuple(LaurentPoly.monomial(d) for d in digits))


def random_paraunitary_bank(scale: int, n_factors: int, rng: np.random.Generator) -> FilterBank:
    """A random polynomial bank with an exactly unitary modulation matrix.

    The polyphase matrix is a product of a random constant unitary with
    degree-one factors I - v v* + z v v* over random unit vectors v, which
    is paraunitary; the filters are reassembled from its rows.
    """
    n = scale
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    poly = [[LaurentPoly([q[i, j]]) for j in range(n)] for i in range(n)]
    zee = LaurentPoly.monomial(1)
    for _ in range(n_factors):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        proj = np.outer(v, np.conj(v))
        factor = [[LaurentPoly([np.eye(n)[r, c] - proj[r, c]]) + zee * proj[r, c]
                   for c in range(n)] for r in range(n)]
        poly = [[_poly_dot(poly[r], [factor[k][c] for k in range(n)])
                 for c in range(n)] for r in range(n)]
    filters = []
    for i in range(n):
        acc = LaurentPoly.zero()
        for r in range(n):
            acc = acc + LaurentPoly.monomial(r) * poly[i][r].compose_power(n)
        filters.append(acc)
    return FilterBank(n, tuple(filters))


def _poly_dot(row, col) -> LaurentPoly:
    acc = LaurentPoly.zero()
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


# The largest haarN that fixture_bank builds.  A haarN bank holds N^2
# coefficients and its check forms N x N defects; `check --fixture haar1536`
# took 8 s at 473 MB peak RSS in a whole process on a shared two-vCPU x86_64
# host, haar1792 10.8 s and haar2048 18 s at 752 MB.
HAAR_FIXTURE_MAX = 1536

_MONOMIAL_RE = re.compile(r"^monomial\(([-0-9,\s]+)\)$")
_HAAR_RE = re.compile(r"^haar(\d+)$")


def fixture_bank(name: str) -> FilterBank:
    """Resolve a fixture by name: haar2, haarN, db4, shannon, monomial(d0,d1,..).

    KeyError for an unknown name; ValueError for a haarN above
    HAAR_FIXTURE_MAX or for parameters the fixture refuses.
    """
    name = name.strip()
    if m := _HAAR_RE.match(name):
        n = int(m.group(1))
        if n > HAAR_FIXTURE_MAX:
            raise ValueError(f"{name} has {n}^2 coefficients; haarN fixtures go up to "
                             f"haar{HAAR_FIXTURE_MAX}")
        return haar(n)
    if name == "db4":
        return db4()
    if name == "shannon":
        return shannon()
    if m := _MONOMIAL_RE.match(name):
        digits = [int(x) for x in m.group(1).split(",") if x.strip()]
        return monomial(digits)
    raise KeyError(f"unknown fixture {name!r}; try haar2, haar3, db4, shannon, monomial(0,1)")
