import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from waverep import dilation as dil
from waverep.dilation import (
    CoisometryFamily,
    Word,
    fock_embedding,
    gram_matrix,
    purity_diagnostics,
    random_coisometry,
    scaled_word_value,
    state_value,
    transfer_matrix,
)


def scalar_family(alpha):
    alpha = np.asarray(alpha, dtype=np.complex128)
    return CoisometryFamily(alpha.reshape(-1, 1, 1), np.array([1.0]))


@pytest.fixture(scope="module")
def coherent():
    return scalar_family([1.0, 0.0])


@pytest.fixture(scope="module")
def balanced():
    s = 1 / math.sqrt(2)
    return scalar_family([s, s])


@pytest.fixture(scope="module")
def two_block():
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0] = np.diag([1.0, 1 / math.sqrt(2)])
    v[1] = np.diag([0.0, 1 / math.sqrt(2)])
    omega = np.array([1.0, 1.0]) / math.sqrt(2)
    return CoisometryFamily(v, omega)


@pytest.fixture(scope="module")
def random_family():
    return random_coisometry(2, 3, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# construction invariants


def test_rejects_broken_coisometry(two_block):
    with pytest.raises(ValueError):
        CoisometryFamily(1.1 * two_block.v, two_block.omega)


def test_rejects_non_unit_omega(two_block):
    with pytest.raises(ValueError):
        CoisometryFamily(two_block.v, np.array([1.0, 1.0]))


def test_rejects_non_cyclic_omega(two_block):
    # diagonal family with Omega in one block: the Krylov space stays there
    with pytest.raises(ValueError):
        CoisometryFamily(two_block.v, np.array([1.0, 0.0]))


def test_transfer_map_is_unital(random_family):
    t = transfer_matrix(random_family)
    eye = np.eye(random_family.dim, dtype=complex)
    out = (t @ eye.reshape(-1, 1, order="F")).reshape(random_family.dim, -1, order="F")
    assert np.linalg.norm(out - eye) < 1e-12


def test_adjoints_are_built_once_and_read_only(random_family, two_block):
    for fam in (random_family, two_block):
        vstar = fam.vstar
        assert fam.vstar is vstar and not vstar.flags.writeable
        reference = np.conj(np.swapaxes(fam.v, 1, 2))
        assert vstar.tobytes() == reference.tobytes() and vstar.strides == reference.strides
        with pytest.raises(ValueError):
            vstar[0, 0, 0] = 0.0


def test_transfer_reads_the_given_adjoint_stack(random_family):
    # sum A_i X A_i* with A* passed in equals the sum with A* formed from A
    fam, x = random_family, np.arange(9.0).reshape(3, 3) + 1j
    for a, a_star in ((fam.v, fam.vstar), (fam.vstar, fam.v)):
        formed = (a @ x @ np.conj(np.swapaxes(a, 1, 2))).sum(axis=0)
        assert dil._transfer(a, a_star, x).tobytes() == formed.tobytes()


def test_random_families_valid(rng):
    for n_ops, dim in [(2, 1), (2, 4), (3, 3)]:
        fam = random_coisometry(n_ops, dim, rng)
        gram = sum(fam.v[i] @ fam.v[i].conj().T for i in range(n_ops))
        assert np.linalg.norm(gram - np.eye(dim)) < 1e-12


# ---------------------------------------------------------------------------
# word moments


def test_empty_word(coherent):
    assert state_value(coherent, Word()) == pytest.approx(1.0)


def test_coherent_scalar_words(coherent, balanced):
    assert state_value(coherent, Word(up=(0,), down=(0,))) == pytest.approx(1.0)
    assert state_value(coherent, Word(up=(1,), down=(1,))) == pytest.approx(0.0)
    assert state_value(balanced, Word(up=(0,), down=(0,))) == pytest.approx(0.5)
    assert state_value(balanced, Word(up=(0, 0), down=(0, 0))) == pytest.approx(0.25)


def test_word_validates_letters(balanced):
    with pytest.raises(IndexError):
        state_value(balanced, Word(up=(2,)))


def test_scalar_words_product_rule(balanced):
    # oracle for dim 1: the moment is conj(alpha_up) * alpha_down products
    alpha = np.array([1 / math.sqrt(2), 1 / math.sqrt(2)])
    for up in itertools.product(range(2), repeat=2):
        for down in itertools.product(range(2), repeat=2):
            expected = np.prod(np.conj(alpha[list(up)])) * np.prod(alpha[list(down)])
            got = state_value(balanced, Word(up=up, down=down))
            assert got == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# Gram positivity


def test_gram_coherent(coherent):
    rep = gram_matrix(coherent, 2)
    assert rep.psd and rep.min_eigenvalue >= -1e-12
    assert rep.n_words == 7


def test_gram_random_families(rng):
    for _ in range(6):
        fam = random_coisometry(2, 3, rng)
        rep = gram_matrix(fam, 3)
        assert rep.min_eigenvalue >= -1e-9


def test_gram_word_cap(random_family):
    with pytest.raises(ValueError):
        gram_matrix(random_family, 14)


# ---------------------------------------------------------------------------
# Fock embedding


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
def test_isometry_defect_formula(random_family, lam):
    rep = fock_embedding(random_family, lam, 8)
    assert abs(rep.isometry_defect - lam ** 18) < 1e-12
    assert rep.predicted_defect == pytest.approx(lam ** 18)


def test_lambda_zero_is_exact(random_family):
    rep = fock_embedding(random_family, 0.0, 4)
    assert rep.isometry_defect == 0.0
    assert rep.intertwining_residual == 0.0


def test_intertwining_interior(rng):
    for _ in range(4):
        fam = random_coisometry(2, 3, rng)
        rep = fock_embedding(fam, 0.5, 8)
        assert rep.intertwining_residual < 1e-10


def test_complex_lambda(random_family):
    lam = 0.4 * np.exp(1.3j)
    rep = fock_embedding(random_family, lam, 6)
    assert abs(rep.isometry_defect - abs(lam) ** 14) < 1e-12


def test_embedding_rejects_unit_disk_boundary(random_family):
    with pytest.raises(ValueError):
        fock_embedding(random_family, 1.0, 4)


# ---------------------------------------------------------------------------
# compressed word values


def test_scaled_matches_state_at_one(random_family):
    for n_up in range(3):
        for n_down in range(3):
            for up in itertools.product(range(2), repeat=n_up):
                for down in itertools.product(range(2), repeat=n_down):
                    w = Word(up=up, down=down)
                    assert abs(
                        scaled_word_value(random_family, 1.0, w)
                        - state_value(random_family, w)
                    ) < 1e-12


def test_scaled_at_zero(random_family):
    assert scaled_word_value(random_family, 0.0, Word(up=(0,), down=())) == 0.0
    assert scaled_word_value(random_family, 0.0, Word()) == pytest.approx(1.0)


def test_scaled_identity_any_lambda(random_family):
    for lam in (0.0, 0.25, 0.7 + 0.1j, 1.0):
        assert scaled_word_value(random_family, lam, Word()) == pytest.approx(1.0)


def test_scaled_continuous_in_lambda(random_family):
    w = Word(up=(0, 1), down=(1,))
    vals = [scaled_word_value(random_family, lam, w) for lam in (0.99, 0.999, 1.0)]
    assert abs(vals[0] - vals[2]) < 0.05
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[2])


# ---------------------------------------------------------------------------
# purity diagnostics


def test_scalar_family_is_pure(balanced):
    rep = purity_diagnostics(balanced)
    assert rep.fixed_dim == 1 and rep.pure and rep.tail_trivial


def test_two_block_family_not_pure(two_block):
    rep = purity_diagnostics(two_block)
    assert rep.fixed_dim == 2 and not rep.pure
    assert not rep.tail_trivial


def test_random_family_generically_pure(rng):
    hits = [purity_diagnostics(random_coisometry(2, 3, rng)).fixed_dim for _ in range(5)]
    assert all(h == 1 for h in hits)


# ---------------------------------------------------------------------------
# the transfer-map engine against enumerated references


def _reference_down_vector(fam, word):
    x = fam.omega
    for j in word:
        x = fam.v[j].conj().T @ x
    return x


def _reference_moment_gram(fam, max_len):
    """The W x W Gram matrix of every down-word vector, word by word."""
    words = [w for k in range(max_len + 1) for w in itertools.product(range(fam.n_ops), repeat=k)]
    vecs = np.stack([_reference_down_vector(fam, w) for w in words])
    return np.linalg.eigvalsh(vecs.conj() @ vecs.T)


@pytest.mark.parametrize("n_ops, dim, max_len", [
    (1, 3, 5), (2, 1, 3), (2, 3, 1), (2, 4, 1), (2, 3, 3), (2, 4, 4), (3, 2, 2), (3, 4, 2),
    (3, 4, 4),
])
def test_gram_spectrum_matches_the_enumerated_moment_gram(n_ops, dim, max_len):
    for seed in range(3):
        fam = random_coisometry(n_ops, dim, np.random.default_rng([n_ops, dim, max_len, seed]))
        ref = _reference_moment_gram(fam, max_len)
        rep = gram_matrix(fam, max_len)
        assert rep.n_words == len(ref)
        scale = ref[-1]
        # the W x W spectrum is G_L's padded by W - dim zeros, or G_L's top W when W < dim
        padded = np.sort(np.concatenate([rep.eigenvalues, np.zeros(max(len(ref) - dim, 0))]))
        assert np.abs(padded[-len(ref):] - ref).max() <= 1e-12 * scale
        assert np.abs(padded[:-len(ref)]).max(initial=0.0) <= 1e-12 * scale
        assert rep.min_eigenvalue >= -1e-12
        assert abs(rep.min_eigenvalue - ref[0]) <= 1e-12 * scale
        assert rep.psd


def _reference_fock_defect(fam, lam, depth):
    """W*W from the materialized Fock levels: every word's block, level by level."""
    scale = math.sqrt(1.0 - abs(lam) ** 2)
    vstar = np.conj(np.swapaxes(fam.v, 1, 2))
    products = [np.eye(fam.dim, dtype=complex)[None]]
    for _ in range(depth):
        products.append(np.concatenate([products[-1] @ vstar[i] for i in range(fam.n_ops)]))
    gram = sum(np.einsum("wia,wib->ab", np.conj(p), p) * abs(scale * lam**k) ** 2
               for k, p in enumerate(products))
    return float(np.linalg.norm(gram - np.eye(fam.dim), ord=2)), sum(len(p) for p in products)


@pytest.mark.parametrize("depth", range(1, 9))
def test_fock_defect_matches_the_materialized_levels(depth, two_block):
    families = [two_block, random_coisometry(2, 3, np.random.default_rng(depth)),
                random_coisometry(3, 2, np.random.default_rng(10 + depth))]
    for fam in families:
        for lam in (0.0, 0.3, 0.9, 0.6 * np.exp(0.7j)):
            ref, n_blocks = _reference_fock_defect(fam, lam, depth)
            rep = fock_embedding(fam, lam, depth)
            assert abs(rep.isometry_defect - ref) <= 1e-14
            assert rep.fock_dim == n_blocks * fam.dim and rep.levels == depth + 1


def full_array_intertwining(fam, lam, depth):
    """The intertwining residual with a_i W and W V_i* formed on every row of
    the model, then cut to the levels below the top."""
    w, sources, d = dil._fock_model(fam, complex(lam), depth)
    rows = dil._word_count(fam.n_ops, d - 1)
    return max(float(np.linalg.norm((dil._annihilate(sources[i], w) - lam * (w @ fam.vstar[i]))
                                    [:rows].reshape(-1, fam.dim), ord=2))
               for i in range(fam.n_ops))


@pytest.mark.parametrize("n_ops,dim", [(1, 3), (2, 1), (2, 4), (3, 3), (5, 8)])
def test_fock_model_fills_the_stacked_blocks_bit_for_bit(n_ops, dim):
    fam = random_coisometry(n_ops, dim, np.random.default_rng(n_ops * 10 + dim))
    eye = np.eye(dim, dtype=np.complex128)
    for lam in (0.0, 0.5, 0.6 * np.exp(0.7j)):
        for depth in (1, 2, 6):
            w, _, d = dil._fock_model(fam, complex(lam), depth)
            words = [wd for k in range(d + 1) for wd in itertools.product(range(n_ops), repeat=k)]
            scale = math.sqrt(1.0 - abs(lam) ** 2)
            stacked = np.stack([scale * complex(lam) ** len(wd) * dil._down_vector(fam, wd, eye)
                                for wd in words])
            assert w.dtype == stacked.dtype and w.shape == stacked.shape
            assert w.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("n_ops,dim", [(1, 3), (2, 1), (2, 4), (3, 3), (5, 8)])
def test_intertwining_on_the_read_rows_is_bitwise_the_full_array(n_ops, dim):
    fam = random_coisometry(n_ops, dim, np.random.default_rng(n_ops * 10 + dim))
    for lam in (0.5, 0.6 * np.exp(0.7j)):
        for depth in (1, 2, 6):
            got = fock_embedding(fam, lam, depth).intertwining_residual
            assert got == full_array_intertwining(fam, complex(lam), depth)


def test_fock_embedding_reports_the_state_gap_of_its_words(random_family):
    lam = 0.7 * np.exp(0.4j)
    words = [Word(), Word(up=(0,), down=(0,)), Word(up=(0, 1), down=(0,)), Word(up=(1, 1))]
    for depth in (1, 2, 8):
        rep = fock_embedding(random_family, lam, depth, words)
        model = dil._fock_model(random_family, complex(lam), depth)
        assert rep.state_gap == dil._state_gap(random_family, complex(lam), model, words)
        assert fock_embedding(random_family, lam, depth).state_gap == 0.0


def test_deep_fock_embedding_is_small_and_fast():
    fam = random_coisometry(2, 3, np.random.default_rng(0))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = fock_embedding(fam, 0.5, 30)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 1_000_000
    assert rep.fock_dim == 3 * (2**31 - 1)
    assert abs(rep.isometry_defect - rep.predicted_defect) <= 1e-12
    assert rep.intertwining_residual < 1e-10


def test_gram_at_8191_words_is_fast():
    fam = random_coisometry(2, 4, np.random.default_rng(0))
    start = time.perf_counter()
    rep = gram_matrix(fam, 12)
    assert time.perf_counter() - start < 1.0
    assert rep.n_words == 8191 and rep.psd


def test_model_compressions_carry_the_truncation_factor(random_family):
    # every word up to length 3, so the factor runs from 1 - |lam|^6 down to 0
    lam = 0.7 * np.exp(0.4j)
    words = [Word(up=u, down=d)
             for nu in range(4) for nd in range(4 - nu)
             for u in itertools.product(range(2), repeat=nu)
             for d in itertools.product(range(2), repeat=nd)]
    for depth in (1, 2, 8):
        assert fock_embedding(random_family, lam, depth, words).state_gap < 1e-14
    # without the factor the depth-2 model disagrees with the untruncated value
    word = Word(up=(0, 1), down=(0,))
    full = scaled_word_value(random_family, lam, word)
    assert abs(full) > 1e-3
    gap = fock_embedding(random_family, lam, 2, [word]).state_gap
    assert gap < 1e-14 < abs(full) * abs(lam) ** 2


def _reference_tail_trivial(fam, tail_span=(50, 100), tail_tol=1e-9):
    """The per-matrix-unit tail probe, one unit at a time."""
    dim = fam.dim
    t = transfer_matrix(fam)
    lo, hi = tail_span
    eye = np.eye(dim)
    for a in range(dim):
        for b in range(dim):
            vec = np.zeros(dim * dim, dtype=complex)
            vec[a + b * dim] = 1.0
            prev = None
            for step in range(1, hi + 1):
                vec = t @ vec
                if step < lo:
                    continue
                mat = vec.reshape(dim, dim, order="F")
                if np.linalg.norm(mat - np.trace(mat) / dim * eye) > tail_tol:
                    return False
                if prev is not None and np.linalg.norm(mat - prev) > tail_tol:
                    return False
                prev = mat
    return True


def test_tail_probe_matches_the_per_unit_loop(coherent, balanced, two_block, monkeypatch):
    families = [coherent, balanced, two_block]
    families += [random_coisometry(n, d, np.random.default_rng(s))
                 for s, (n, d) in enumerate([(2, 2), (2, 3), (3, 3), (2, 5), (1, 3)])]
    verdicts = []
    for fam in families:
        for span in ((50, 100), (1, 3), (5, 12), (20, 30)):
            want = _reference_tail_trivial(fam, span)
            monkeypatch.setattr(dil, "TAIL_SPAN", span)
            assert purity_diagnostics(fam).tail_trivial == want
            verdicts.append(want)
    # a tolerance sweep over short spans also meets iterates that are close to
    # scalars but not yet Cauchy
    for fam in families[3:6]:
        for tol in np.logspace(-12, 0, 49):
            for span in ((3, 6), (8, 12)):
                want = _reference_tail_trivial(fam, span, tol)
                monkeypatch.setattr(dil, "TAIL_SPAN", span)
                monkeypatch.setattr(dil, "TAIL_TOL", tol)
                assert purity_diagnostics(fam).tail_trivial == want
                verdicts.append(want)
    assert True in verdicts and False in verdicts


def _reference_is_cyclic(v, omega, tol=1e-10):
    """Breadth-first Gram-Schmidt over adjoint images of Omega."""
    n, dim, _ = v.shape
    vstar = np.conj(np.swapaxes(v, 1, 2))
    basis = [omega / np.linalg.norm(omega)]
    fresh = list(basis)
    while fresh and len(basis) < dim:
        nxt = []
        for x in fresh:
            for i in range(n):
                y = vstar[i] @ x
                for b in basis:
                    y = y - np.vdot(b, y) * b
                if np.linalg.norm(y) > tol:
                    basis.append(y / np.linalg.norm(y))
                    nxt.append(basis[-1])
        fresh = nxt
    return len(basis) >= dim


def test_cyclicity_matches_the_breadth_first_reference(two_block):
    s = 1 / math.sqrt(2)
    cases = [(two_block.v, two_block.omega), (two_block.v, np.array([1.0, 0.0])),
             (two_block.v, np.array([0.0, 1.0]))]
    # one unitary: cyclic iff Omega meets every eigenspace and the eigenvalues are simple
    u = np.diag(np.exp(1j * np.array([0.1, 0.7, 2.0])))[None]
    cases += [(u, np.ones(3) / math.sqrt(3)), (u, np.array([1.0, 1.0, 0.0]) * s),
              (np.diag(np.exp(1j * np.array([0.1, 0.1, 2.0])))[None], np.ones(3) / math.sqrt(3))]
    for seed in range(6):
        fam = random_coisometry(2 + seed % 2, 2 + seed % 3, np.random.default_rng(seed))
        cases.append((fam.v, fam.omega))
        # a block-diagonal family with Omega inside one block
        d = fam.dim
        v = np.zeros((fam.n_ops, 2 * d, 2 * d), dtype=complex)
        v[:, :d, :d] = fam.v
        v[:, d:, d:] = fam.v
        cases += [(v, np.concatenate([fam.omega, np.zeros(d)])),
                  (v, np.concatenate([fam.omega, fam.omega[::-1]]) / math.sqrt(2))]
    verdicts = []
    for v, omega in cases:
        want = _reference_is_cyclic(np.asarray(v, complex), np.asarray(omega, complex))
        verdicts.append(want)
        if want:
            assert CoisometryFamily(v, omega).dim == len(omega)
        else:
            with pytest.raises(ValueError, match="cyclic"):
                CoisometryFamily(v, omega)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n_ops", [2, 3])
def test_fock_model_has_one_block_per_word_up_to_length_two(n_ops):
    # the model is the Fock levels 0..min(depth, 2): 1 + N words at depth 1
    # and 1 + N + N^2 at every depth from 2 on
    fam = random_coisometry(n_ops, 2, np.random.default_rng(n_ops))
    for depth in (1, 2, 3, 4, 8, 14, 30):
        w, sources, model_depth = dil._fock_model(fam, 0.5, depth)
        blocks = 1 + n_ops if depth == 1 else 1 + n_ops + n_ops ** 2
        assert len(w) == blocks and model_depth == min(depth, 2)
