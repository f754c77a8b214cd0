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

from .filterbank import AngleFunction, FilterBank, conjugate_mirror
from .laurent import CircleGrid, InputError, LaurentPoly
from .permutative import MonomialRep, parse_digits


def haar(scale: int = 2) -> FilterBank:
    """The DFT bank at a given scale; filter i is N^(-1/2) sum_j rho^(-ij) z^j.

    Each phase is the root-of-unity table CircleGrid(N).points() at -ij mod N,
    so its rounding does not grow with the exponent ij, and 1, i, -1, -i are exact.
    """
    n = scale
    if n < 2:
        raise InputError(f"scale must be >= 2, got {n}")
    roots = CircleGrid(n).points() / math.sqrt(n)
    j = np.arange(n)
    return FilterBank(n, tuple(LaurentPoly(roots[-i * j % n]) for i in range(n)))


def db4() -> FilterBank:
    """Four-tap orthogonal bank (two vanishing moments), conjugate-mirror completed.

    The low-pass is exact in closed form, so the bank is built without
    complete_filterbank's grid screen of the QMF identity; the tests compare
    the two builds bit for bit.
    """
    r3 = math.sqrt(3.0)
    h = LaurentPoly(np.array([1.0 + r3, 3.0 + r3, 3.0 - r3, 1.0 - r3]) / (4.0 * math.sqrt(2.0)))
    return FilterBank(2, (h, conjugate_mirror(h)))


def _half_band(on: float, off: float):
    """Angle rule: `on` on the half-open arc t in [-pi/2, pi/2) mod 2*pi, `off` elsewhere.

    A 1e-9 snap makes the boundary decision deterministic for near-dyadic t.

    The reduced angle r = mod(u, 2) - 1 with u = t/pi + 1 is taken in the
    floor form u - 2 floor(u/2), which equals np.mod(u, 2.0) bit for bit at
    a fraction of its cost (np.mod calls fmod once per element).  The form
    is exact: u is 0 or at least 2^-53 in modulus, so 0.5 u never rounds and
    2 floor(u/2) is exact.  For u >= 0 the difference is the exact
    remainder; for u < 0 it is the exact remainder plus 2, rounded once, as
    np.mod rounds it; an even u (and -0.0) gives +0.0 on both sides; nan and
    +-inf give nan on both.
    """
    def rule(t: np.ndarray) -> np.ndarray:
        r = np.divide(t, np.pi, out=np.empty(np.shape(t)))  # an array even for scalar t
        r += 1.0
        r -= 2.0 * np.floor(0.5 * r)
        r -= 1.0
        mask = (r >= -0.5 - 1e-9) & (r < 0.5 - 1e-9)
        out = np.full(r.shape, off, dtype=np.complex128)
        np.copyto(out.real, on, where=mask)
        return out
    return rule


def shannon() -> FilterBank:
    """Half-band indicator pair at scale 2, as exact angle rules."""
    root2 = math.sqrt(2.0)
    return FilterBank(2, (AngleFunction(_half_band(root2, 0.0), "shannon low"),
                          AngleFunction(_half_band(0.0, root2), "shannon high")))


def monomial(digits) -> FilterBank:
    """The bank of monomials z^{d_i}; N >= 2 digits, mutually incongruent modulo N,
    as MonomialRep checks them."""
    rep = MonomialRep(len(digits), digits)
    return FilterBank(rep.scale, tuple(LaurentPoly.monomial(d) for d in rep.digits))


def random_paraunitary_bank(scale: int, n_factors: int, rng: np.random.Generator) -> FilterBank:
    """A random polynomial bank with an exactly unitary modulation matrix.

    The polyphase matrix E(w) = Q prod (I - v v* + w v v*), a random constant
    unitary Q times degree-one factors over random unit vectors v, is
    paraunitary.  Its coefficients are kept as a stack e[l] of N x N
    matrices, and filter i is m_i(z) = sum_r z^r E_ir(z^N), so its
    coefficient of degree N l + r is e[l, i, r].
    """
    n = scale
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    e = q[None]
    eye = np.eye(n)
    for _ in range(n_factors):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        proj = np.outer(v, np.conj(v))
        nxt = np.zeros((e.shape[0] + 1, n, n), dtype=np.complex128)
        nxt[:-1] += e @ (eye - proj)
        nxt[1:] += e @ proj
        e = nxt
    rows = e.transpose(1, 0, 2).reshape(n, -1)
    return FilterBank(n, tuple(LaurentPoly(row) for row in rows))


# The largest haarN that fixture_bank builds.  A haarN bank holds N^2
# coefficients and its check forms N x N defects; `check --fixture haar1536`
# took 8 s at 473 MB peak RSS in a whole process on a shared two-vCPU x86_64
# host, haar1792 10.8 s and haar2048 18 s at 752 MB.
HAAR_FIXTURE_MAX = 1536

_MONOMIAL_RE = re.compile(r"^monomial\(([-0-9,\s]+)\)$")
_HAAR_RE = re.compile(r"^haar(\d+)$")


def fixture_bank(name: str) -> FilterBank:
    """Resolve a fixture by name: haar2, haarN, db4, shannon, monomial(d0,d1,..).

    InputError for an unknown name, a haarN above HAAR_FIXTURE_MAX, digits that
    do not parse, or parameters the fixture refuses.
    """
    name = name.strip()
    if m := _HAAR_RE.match(name):
        n = int(m.group(1))
        if n > HAAR_FIXTURE_MAX:
            raise InputError(f"{name} has {n}^2 coefficients; haarN fixtures go up to "
                             f"haar{HAAR_FIXTURE_MAX}")
        return haar(n)
    if name == "db4":
        return db4()
    if name == "shannon":
        return shannon()
    if m := _MONOMIAL_RE.match(name):
        return monomial(parse_digits(m.group(1)))
    raise InputError(f"unknown fixture {name!r}; try haar2, haar3, db4, shannon, monomial(0,1)")
