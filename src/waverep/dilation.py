"""Finite coisometry families, their dilated states, and purity diagnostics.

A family V_0..V_{N-1} on a dim-dimensional space with sum V_i V_i* = I and a
unit vector Omega cyclic under polynomials in the V_i* determines a state of
the N-isometry relations through word moments

    <V*_{i_n} .. V*_{i_1} Omega | V*_{j_m} .. V*_{j_1} Omega>,

and conversely every such family dilates to a genuine isometry family.  Every
check is dim x dim algebra in the transfer map sigma(X) = sum V_i X V_i* or its
adjoint sigma*(X) = sum V_i* X V_i.  The Gram matrix of the W down-word
vectors x_w of length <= L has the nonzero spectrum of
G_L = sum_w x_w x_w* = Omega Omega* + sigma*(G_{L-1}), plus max(W - dim, 0)
zeros.  The Fock embedding

    W_lam phi = sqrt(1-|lam|^2) (+)_k lam^k sum_words |word> (x) V*_word phi

truncated at level K has W*W = (1-|lam|^2) sum_{k<=K} |lam|^(2k) sigma^k(I), an
isometry up to the exact defect |lam|^(2(K+1)).  Its intertwining with lam V_i*
and its word compressions, with truncation factor 1 - |lam|^(2(3 - max(|u|, |w|)))
for K >= 2, are measured on a Fock space of depth min(K, 2) assembled word by
word, annihilators as index maps: depth 2 is the least at which a word's first and last letters
differ, so a reversed word convention fails both.  fock_embedding builds that
model once for both checks.  Purity is the ergodicity of
sigma; the trace-tail diagnostic (the columns of T^k, T the matrix of sigma,
converging to scalars) is a finite surrogate for a weak-* limit statement,
reported as such, not claimed to be a proof.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

COISOMETRY_TOL = 1e-12
CYCLIC_RANK_TOL = 1e-10
WORD_CAP = 10_000
# per Gram word: the least eigenvalue that still counts as positive is -this * W
PSD_TOL = 1e-9
FOCK_TOL = 1e-12  # dilate's bound on |defect - predicted| and on the state gap
INTERTWINING_TOL = 1e-10  # dilate's bound on the intertwining residual
# an input bound: purity_diagnostics takes a dense SVD and up to 51 dense
# powers (T^50..T^100) of the dim^2 x dim^2 transfer matrix, O(dim^6) each
DIM_MAX = 32


@dataclass(frozen=True)
class Word:
    """The element s_{i_1}..s_{i_n} s*_{j_m}..s*_{j_1} of the word algebra.

    ``up`` lists i_1..i_n, ``down`` lists j_1..j_m; the empty word is the
    identity.
    """

    up: tuple = ()
    down: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "up", tuple(int(i) for i in self.up))
        object.__setattr__(self, "down", tuple(int(j) for j in self.down))

    def validate(self, n_ops: int):
        for i in (*self.up, *self.down):
            if not (0 <= i < n_ops):
                raise IndexError(f"letter {i} out of range for {n_ops} operators")


class CoisometryFamily:
    """N matrices V_i on C^dim with sum V_i V_i* = I and a cyclic unit Omega.

    v, vstar (the stack of adjoints V_i*) and omega are read-only arrays
    built once, since every check reads V_i* per letter, per Krylov step and
    per transfer step.
    """

    def __init__(self, v: np.ndarray, omega: np.ndarray):
        v = np.asarray(v, dtype=np.complex128)
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise ValueError("V must have shape (N, dim, dim)")
        omega = np.asarray(omega, dtype=np.complex128).reshape(-1)
        n, dim, _ = v.shape
        if omega.shape != (dim,):
            raise ValueError("Omega must be a dim vector")
        vstar = np.conj(np.swapaxes(v, 1, 2))
        defect = np.linalg.norm(_transfer(v, vstar, np.eye(dim)) - np.eye(dim), ord=2)  # sigma(I) = I
        if defect > COISOMETRY_TOL:
            raise ValueError(f"sum V_i V_i* differs from the identity by {defect:.3g}")
        if abs(np.linalg.norm(omega) - 1.0) > 1e-12:
            raise ValueError("Omega must be a unit vector")
        self.v = v
        self.v.setflags(write=False)
        self.vstar = vstar
        self.vstar.setflags(write=False)
        self.omega = omega
        self.omega.setflags(write=False)
        self.n_ops = n
        self.dim = dim
        if not _is_cyclic(self):
            raise ValueError("Omega is not cyclic under polynomials in the adjoints")


def _is_cyclic(fam: CoisometryFamily) -> bool:
    """Krylov check: do adjoint words applied to Omega span the whole space?
    Each step takes an orthonormal basis of the span and its images under the V_i*."""
    basis = fam.omega[:, None]
    while basis.shape[1] < fam.dim:
        u, s, _ = np.linalg.svd(np.concatenate([basis, *(fam.vstar @ basis)], axis=1),
                                full_matrices=False)
        rank = int(np.sum(s > CYCLIC_RANK_TOL))
        if rank == basis.shape[1]:
            return False
        basis = u[:, :rank]
    return True


def random_coisometry(n_ops: int, dim: int, rng: np.random.Generator) -> CoisometryFamily:
    """A random valid family: orthonormalized Gaussian blocks, random Omega."""
    for _ in range(64):
        g = rng.normal(size=(n_ops * dim, dim)) + 1j * rng.normal(size=(n_ops * dim, dim))
        q, _ = np.linalg.qr(g)
        blocks = q.reshape(n_ops, dim, dim)
        v = np.conj(np.swapaxes(blocks, 1, 2))  # sum V_i V_i* = sum Q_i^* Q_i = I
        omega = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        omega /= np.linalg.norm(omega)
        try:
            return CoisometryFamily(v, omega)
        except ValueError:
            continue
    raise RuntimeError("could not draw a cyclic family")


def _word_count(n_ops: int, length: int) -> int:
    """1 + N + .. + N^length, the number of words of length at most `length`."""
    return length + 1 if n_ops == 1 else (n_ops ** (length + 1) - 1) // (n_ops - 1)


def _transfer(a: np.ndarray, a_star: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i A_i X A_i* from the stacks A and A*: sigma(X) for (V, V*), sigma*(X)
    for (V*, V)."""
    return (a @ x @ a_star).sum(axis=0)


# ---------------------------------------------------------------------------
# word moments and Gram positivity


def _down_vector(fam: CoisometryFamily, letters: tuple, x: np.ndarray) -> np.ndarray:
    """V*_{j_m} .. V*_{j_1} x, applying V*_{j_1} first."""
    for j in letters:
        x = fam.vstar[j] @ x
    return x


def state_value(fam: CoisometryFamily, w: Word) -> complex:
    """Word moment of the dilated state (conjugate-linear in the first slot)."""
    w.validate(fam.n_ops)
    omega = fam.omega
    return complex(np.vdot(_down_vector(fam, w.up, omega), _down_vector(fam, w.down, omega)))


@dataclass
class GramReport:
    min_eigenvalue: float
    psd: bool
    n_words: int
    eigenvalues: np.ndarray  # of the dim x dim matrix G_L, ascending


def gram_word_count(n_ops: int, max_len: int) -> int:
    """W, the number of words of length <= max_len; ValueError above WORD_CAP."""
    if max_len < 1:
        raise ValueError("word length must be >= 1")
    # W > max_len, so a length at the cap needs no count (nor its big integers)
    n_words = _word_count(n_ops, max_len) if max_len < WORD_CAP else math.inf
    if n_words > WORD_CAP:
        raise ValueError(f"the words of length <= {max_len} exceed the cap {WORD_CAP}")
    return n_words


def gram_matrix(fam: CoisometryFamily, max_len: int) -> GramReport:
    """Spectrum of the Gram matrix of the down-word vectors of length <= max_len; must be PSD.

    For W words that is the spectrum of G_L plus W - dim zeros, or without its
    dim - W smallest eigenvalues (zeros, as rank G_L <= W) when W < dim;
    min_eigenvalue is its least.  W is capped at WORD_CAP as an input bound.
    """
    n_words = gram_word_count(fam.n_ops, max_len)
    g = start = np.outer(fam.omega, fam.omega.conj())
    for _ in range(max_len):
        g = start + _transfer(fam.vstar, fam.v, g)
    eigs = np.linalg.eigvalsh(g)
    lo = min(float(eigs[0]), 0.0) if n_words > fam.dim else float(eigs[fam.dim - n_words])
    return GramReport(min_eigenvalue=lo, psd=lo >= -PSD_TOL * n_words, n_words=n_words,
                      eigenvalues=eigs)


# ---------------------------------------------------------------------------
# truncated Fock-space dilation

MODEL_DEPTH = 2


@dataclass
class FockEmbeddingReport:
    isometry_defect: float
    predicted_defect: float
    intertwining_residual: float
    fock_dim: int
    levels: int
    state_gap: float  # 0.0 when no word is compressed


def _fock_model(fam: CoisometryFamily, lam: complex, depth: int):
    """W_lam on the Fock levels 0..d, d = min(depth, 2), one block per word; for each
    letter i the rows that a_i (x) I reads, taking |i w'> to |w'>; and d.
    Each level lists its words in lexicographic order, first letter most significant."""
    n, eye, depth = fam.n_ops, np.eye(fam.dim, dtype=np.complex128), min(depth, MODEL_DEPTH)
    words = [w for k in range(depth + 1) for w in itertools.product(range(n), repeat=k)]
    scale = math.sqrt(1.0 - abs(lam) ** 2)
    w = np.empty((len(words), fam.dim, fam.dim), dtype=np.complex128)
    for block, word in zip(w, words):
        block[...] = scale * lam ** len(word) * _down_vector(fam, word, eye)
    # the level-k word i w' is row _word_count(n, k-1) + i N^(k-1) + (row of w' in level k-1)
    sources = [np.concatenate([_word_count(n, k - 1) + i * n ** (k - 1) + np.arange(n ** (k - 1))
                               for k in range(1, depth + 1)]) for i in range(n)]
    return w, sources, depth


def _annihilate(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a_i (x) I) x, given the rows a_i reads: they move to the levels below d,
    and level d empties."""
    out = np.zeros_like(x)
    out[: len(rows)] = x[rows]
    return out


def fock_embedding(fam: CoisometryFamily, lam: complex, depth: int,
                   words=()) -> FockEmbeddingReport:
    """The isometry defect of W_lam truncated at level `depth`, summing W*W by Horner's
    rule; on one model of depth min(depth, 2), its intertwining below the top level
    and the state gap of `words` (state_gap)."""
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise ValueError("the embedding needs |lambda| < 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    r = abs(lam) ** 2
    s = eye = np.eye(fam.dim, dtype=np.complex128)
    for _ in range(depth):
        s = eye + r * _transfer(fam.v, fam.vstar, s)
    model = _fock_model(fam, lam, depth)
    w, sources, model_depth = model
    # below the top level, a_i W reads only the rows sources[i]
    rows = _word_count(fam.n_ops, model_depth - 1)
    return FockEmbeddingReport(
        isometry_defect=float(np.linalg.norm((1.0 - r) * s - eye, ord=2)),
        predicted_defect=abs(lam) ** (2 * (depth + 1)),
        intertwining_residual=max(
            float(np.linalg.norm((w[sources[i]] - lam * (w[:rows] @ fam.vstar[i]))
                                 .reshape(-1, fam.dim), ord=2))
            for i in range(fam.n_ops)),
        fock_dim=fam.dim * _word_count(fam.n_ops, depth),
        levels=depth + 1,
        state_gap=_state_gap(fam, lam, model, words),
    )


def scaled_word_value(fam: CoisometryFamily, lam: complex, w: Word) -> complex:
    """Compression of a word through the Fock embedding at parameter lam:
    conj(lam)^n lam^m <Omega, V_{i_1}..V_{i_n} V*_{j_m}..V*_{j_1} Omega>."""
    lam = complex(lam)
    if abs(lam) > 1.0 + 1e-12:
        raise ValueError("|lambda| must be <= 1")
    return np.conj(lam) ** len(w.up) * lam ** len(w.down) * state_value(fam, w)


def state_gap(fam: CoisometryFamily, lam: complex, depth: int, words) -> float:
    """Largest gap between the compression of a word s_u s_w* in the model of depth
    D = min(depth, 2) and (1 - |lam|^(2(D + 1 - max(|u|, |w|)))) scaled_word_value."""
    lam = complex(lam)
    return _state_gap(fam, lam, _fock_model(fam, lam, depth), words)


def _state_gap(fam: CoisometryFamily, lam: complex, model, words) -> float:
    w, sources, model_depth = model
    w_omega = w @ fam.omega
    gap = 0.0
    for word in words:
        kept = max(0, model_depth + 1 - max(len(word.up), len(word.down)))
        value = (1.0 - abs(lam) ** (2 * kept)) * scaled_word_value(fam, lam, word)
        left = functools.reduce(lambda x, i: _annihilate(sources[i], x), word.up, w_omega)
        right = functools.reduce(lambda x, j: _annihilate(sources[j], x), word.down, w_omega)
        gap = max(gap, abs(np.vdot(left, right) - value))
    return gap


# ---------------------------------------------------------------------------
# ergodicity of the transfer map


@dataclass
class PurityReport:
    fixed_dim: int
    pure: bool
    tail_trivial: bool


def transfer_matrix(fam: CoisometryFamily) -> np.ndarray:
    """sigma(X) = sum V_k X V_k* as a dim^2 x dim^2 matrix (column stacking)."""
    return sum(np.kron(np.conj(fam.v[i]), fam.v[i]) for i in range(fam.n_ops))


def purity_diagnostics(fam: CoisometryFamily, tail_span: tuple = (50, 100),
                       tail_tol: float = 1e-9) -> PurityReport:
    """Fixed-point dimension of the transfer map and a tail-triviality probe.

    fixed_dim counts the kernel of (sigma - id) on matrices; the state is pure
    iff that space is the scalars alone.  tail_trivial asks whether, across the
    given span, the columns of T^k settle (Cauchy and close to scalars).
    """
    dim = fam.dim
    t = transfer_matrix(fam)
    s = np.linalg.svd(t - np.eye(dim * dim), compute_uv=False)
    fixed_dim = int(np.sum(s < 1e-9 * max(1.0, s[0])))

    lo, hi = tail_span
    diag = np.arange(dim) * (dim + 1)  # rows of the entries (a, a) in a stacked column
    powers, prev = np.linalg.matrix_power(t, max(lo, 1)), None
    for _ in range(max(lo, 1), hi + 1):
        off_scalar = powers.copy()
        off_scalar[diag] -= powers[diag].sum(axis=0) / dim
        moved = 0.0 if prev is None else np.linalg.norm(powers - prev, axis=0).max()
        if max(np.linalg.norm(off_scalar, axis=0).max(), moved) > tail_tol:
            return PurityReport(fixed_dim=fixed_dim, pure=fixed_dim == 1, tail_trivial=False)
        prev, powers = powers, t @ powers
    return PurityReport(fixed_dim=fixed_dim, pure=fixed_dim == 1, tail_trivial=True)
