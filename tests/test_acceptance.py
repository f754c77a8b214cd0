"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable; every expected value either
comes from an exact small-instance computation done inside the test or from
an independent oracle (closed forms, brute-force orbit search, sharp
truncation formulas).  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import itertools
import math

import numpy as np

from conftest import haar_component_flag, random_poly
from test_permutative import bfs_orbit_oracle, random_digit_system
from waverep import fixtures
from waverep.cascade import per_residual, scaling_hat, truncated_product
from waverep.cuntz import CuntzRep, cuntz_residuals, endomorphism_residual
from waverep.dilation import (
    CoisometryFamily,
    Word,
    fock_embedding,
    gram_matrix,
    purity_diagnostics,
    random_coisometry,
    scaled_word_value,
    state_value,
)
from waverep.filterbank import qmf_residual, unitarity_residual
from waverep.index import combined_isometry_apply, spectral_solutions
from waverep.laurent import CircleGrid, GridFunction, LaurentPoly
from waverep.permutative import MonomialRep, decompose_monomial, solve_coboundary
from waverep.wold import range_projection_norms, wavelet_shift_check, wold_analysis

TWO_PI = 2.0 * math.pi


def record(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_filterbank():
    # polynomial banks are decided by their coefficient certificates, which
    # bound the deviation at every point of the circle
    haar = fixtures.haar(2)
    mono = fixtures.monomial((0, 1))
    db4 = fixtures.db4()
    r_haar = unitarity_residual(haar)
    r_mono = unitarity_residual(mono)
    r_qmf = qmf_residual(db4.filters[0], 2)
    r_db4 = unitarity_residual(db4)
    ok = r_haar < 1e-13 and r_mono < 1e-13 and r_qmf < 1e-10 and r_db4 < 1e-10
    record(1, ok, f"unitarity haar {r_haar:.2e}, monomial {r_mono:.2e} (< 1e-13); "
                  f"db4 qmf {r_qmf:.2e}, completed {r_db4:.2e} (< 1e-10)")


def test_criterion_2_cuntz_relations():
    rng = np.random.default_rng(0)
    samples = [random_poly(rng, 32, unit_norm=True) for _ in range(50)]
    symbols = [LaurentPoly.one(), LaurentPoly.monomial(1),
               LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)]
    worst_ortho = worst_complete = worst_endo = 0.0
    for name in ("haar2", "db4", "monomial(0,1)"):
        rep = CuntzRep(fixtures.fixture_bank(name))
        ortho, complete = cuntz_residuals(rep, samples)
        worst_ortho = max(worst_ortho, ortho)
        worst_complete = max(worst_complete, complete)
        for f in symbols:
            worst_endo = max(worst_endo, endomorphism_residual(rep, f, samples[:10]))
    ok = worst_ortho < 1e-12 and worst_complete < 1e-12 and worst_endo < 1e-12
    record(2, ok, f"relation residuals {worst_ortho:.2e}/{worst_complete:.2e}, "
                  f"endomorphism {worst_endo:.2e} (< 1e-12), 50 samples of degree <= 32")


def test_criterion_3_cascade():
    target0 = 1.0 / math.sqrt(TWO_PI)
    gaps0 = []
    for name in ("haar2", "haar3", "db4"):
        bank = fixtures.fixture_bank(name)
        phi = scaling_hat(bank.filters[0], bank.scale)
        gaps0.append(abs(phi.value_at_zero() - target0))
    shannon_phi0 = scaling_hat(fixtures.shannon().filters[0], 2).value_at_zero()
    gaps0.append(abs(shannon_phi0 - target0))
    ok0 = max(gaps0) < 1e-12

    haar = fixtures.haar(2)
    phi = scaling_hat(haar.filters[0], 2, t_max=8 * math.pi, samples=4097, depth=20)
    t = phi.t_values
    sinc = np.where(t == 0, 1.0, np.sin(t / 2) / np.where(t == 0, 1.0, t / 2))
    closed_form_gap = float(np.max(np.abs(np.abs(phi.values) - target0 * np.abs(sinc))))
    ok_form = closed_form_gap < 1e-6

    lattice = np.array([TWO_PI, -TWO_PI, 2 * TWO_PI, -2 * TWO_PI])
    zero_gap = float(np.max(np.abs(
        target0 * truncated_product(haar.filters[0], 2, lattice, 20))))
    ok_zeros = zero_gap < 1e-10

    def wide(bank):
        t_max = (2 * 64 + 1) * math.pi
        n = 2 * int(round(t_max / (math.pi / 32))) + 1
        return scaling_hat(bank.filters[0], 2, t_max=t_max, samples=n, depth=20)

    per_haar = per_residual(wide(haar), 64).residual
    per_shannon = per_residual(wide(fixtures.shannon()), 64).residual
    ok_per = per_haar < 1e-3 and per_shannon < 1e-6

    ok = ok0 and ok_form and ok_zeros and ok_per
    record(3, ok, f"value at 0 gap {max(gaps0):.2e} (< 1e-12); closed form {closed_form_gap:.2e} "
                  f"(< 1e-6); lattice zeros {zero_gap:.2e} (< 1e-10); "
                  f"periodization haar {per_haar:.2e} (< 1e-3), shannon {per_shannon:.2e} (< 1e-6)")


def test_criterion_4_wold():
    haar = fixtures.haar(2)
    db4 = fixtures.db4()
    dims_zero = (wold_analysis(haar.filters[0], 2).unitary_dim == 0
                 and wold_analysis(db4.filters[0], 2).unitary_dim == 0)

    rep = wold_analysis(LaurentPoly.monomial(1), 2)
    shift_mode_ok = (rep.unitary_dim == 1
                     and abs(rep.eigenvalue - 1.0) < 1e-10
                     and rep.eigenfunction == LaurentPoly.monomial(-1)
                     and rep.cocycle_residual < 1e-10)

    lam0 = np.exp(0.377j)
    rep_c = wold_analysis(LaurentPoly([lam0]), 2)
    const_ok = (rep_c.unitary_dim == 1 and rep_c.eigenfunction == LaurentPoly.one()
                and abs(rep_c.eigenvalue - lam0) < 1e-12)

    norms = range_projection_norms(haar.filters[0], 2, [LaurentPoly.one()], 20)[0]
    decay_gap = max(abs(norms[k] - 2 ** (-k / 2)) for k in range(21))
    decay_ok = decay_gap < 1e-12

    ok = dims_zero and shift_mode_ok and const_ok and decay_ok
    record(4, ok, f"haar/db4 unitary dim 0: {dims_zero}; z-filter mode (lam 1, xi 1/z, "
                  f"cocycle {rep.cocycle_residual:.2e} < 1e-10): {shift_mode_ok}; constant filter: "
                  f"{const_ok}; projection decay gap {decay_gap:.2e} (< 1e-12, k <= 20)")


def test_criterion_5_permutative():
    worked = (
        len(decompose_monomial(MonomialRep(2, (0, 1)), 64).components) == 2
        and len(decompose_monomial(MonomialRep(2, (1, 2)), 64).components) == 2
        and len(decompose_monomial(MonomialRep(3, (0, 1, 2)), 64).components) == 2
    )

    oracle_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        scale, digits = random_digit_system(rng, max_abs=8)
        rep = decompose_monomial(MonomialRep(scale, digits), 64)
        got = sorted((frozenset(c.members.tolist()) for c in rep.components if len(c.members)),
                     key=min)
        if got == bfs_orbit_oracle(scale, digits, 64):
            oracle_hits += 1

    grid = CircleGrid.dynamics_grid(2)
    ones = GridFunction(grid, np.ones(grid.M))
    zf = GridFunction(grid, grid.points())
    delta = solve_coboundary(ones, zf, 2)
    e = delta.values * grid.points()
    mono_ok = delta is not None and all(
        np.max(np.abs(e[c] - e[c[0]])) < 1e-9 for c in grid.cycles(2))

    rng = np.random.default_rng(7)
    sigma = grid.multiply_map(2)
    certified = rejected = 0
    for _ in range(30):
        u1 = np.exp(2j * np.pi * rng.random(grid.M))
        d0 = np.exp(2j * np.pi * rng.random(grid.M))
        u2 = d0 * u1 / d0[sigma]
        if solve_coboundary(GridFunction(grid, u1), GridFunction(grid, u2), 2) is not None:
            certified += 1
        bad = np.exp(2j * np.pi * rng.random(grid.M))
        if solve_coboundary(GridFunction(grid, u1), GridFunction(grid, bad), 2) is None:
            rejected += 1

    ok = worked and oracle_hits == 20 and mono_ok and certified == 30 and rejected == 30
    record(5, ok, f"worked decompositions: {worked}; BFS oracle 20/20: {oracle_hits == 20}; "
                  f"monomial coboundary: {mono_ok}; cobounding certified {certified}/30, "
                  f"non-cobounding rejected {rejected}/30")


def test_criterion_6_dilation():
    rng = np.random.default_rng(0)
    fam = random_coisometry(2, 3, rng)
    defect_gaps = []
    intertwine = []
    for lam in (0.3, 0.5, 0.9):
        rep = fock_embedding(fam, lam, 8)
        defect_gaps.append(abs(rep.isometry_defect - lam ** 18))
        intertwine.append(rep.intertwining_residual)
    ok_fock = max(defect_gaps) < 1e-12 and max(intertwine) < 1e-10

    min_eig = 0.0
    for k in range(20):
        rng_k = np.random.default_rng(100 + k)
        n_ops = int(rng_k.integers(2, 4))
        dim = int(rng_k.integers(1, 5))
        g = gram_matrix(random_coisometry(n_ops, dim, rng_k), 3)
        min_eig = min(min_eig, g.min_eigenvalue)
    ok_gram = min_eig >= -1e-9

    state_gap = 0.0
    for n_up in range(5):
        for n_down in range(5 - n_up):
            for up in itertools.product(range(2), repeat=n_up):
                for down in itertools.product(range(2), repeat=n_down):
                    w = Word(up=up, down=down)
                    state_gap = max(state_gap, abs(
                        scaled_word_value(fam, 1.0, w) - state_value(fam, w)))
    ok_state = state_gap < 1e-12

    s = 1 / math.sqrt(2)
    dim1 = CoisometryFamily(np.array([s, s]).reshape(2, 1, 1).astype(complex), np.array([1.0]))
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0] = np.diag([1.0, s])
    v[1] = np.diag([0.0, s])
    blocks = CoisometryFamily(v, np.array([1.0, 1.0]) / math.sqrt(2))
    ok_purity = (purity_diagnostics(dim1).fixed_dim == 1
                 and purity_diagnostics(blocks).fixed_dim == 2)

    ok = ok_fock and ok_gram and ok_state and ok_purity
    record(6, ok, f"defect formula gap {max(defect_gaps):.2e} (< 1e-12), intertwining "
                  f"{max(intertwine):.2e} (< 1e-10); gram min eig {min_eig:.2e} (>= -1e-9, 20 "
                  f"families); word-moment gap at lam=1 {state_gap:.2e} (< 1e-12, length <= 4); "
                  f"purity dims (1, 2): {ok_purity}")


def test_criterion_7_index():
    haar = fixtures.haar(2)
    f0, f1 = haar.filters

    # symbolic fixed-vector oracle: both candidate modes are exactly fixed
    for probe in (LaurentPoly.one(), LaurentPoly.monomial(-1)):
        image = combined_isometry_apply((f0, f1), probe, check=False)
        assert (image - probe).norm2() < 1e-14

    rep = spectral_solutions(f0, f1, window=64)
    span_ok = rep.index == 2 and all(s.residual < 1e-10 for s in rep.solutions)
    for s in rep.solutions:
        tail = s.eigenvector - LaurentPoly(s.eigenvector.coeff_window(-1, 0), min_degree=-1)
        span_ok = span_ok and tail.norm2() < 1e-8

    in_range = rep.index in (0, 1, 2)
    pair_resid = rep.pairing_residual
    rng = np.random.default_rng(0)
    for k in range(20):
        bank = fixtures.random_paraunitary_bank(2, 3, rng)
        r = spectral_solutions(bank.filters[0], bank.filters[1], window=32)
        in_range = in_range and r.index in (0, 1, 2) and r.anomaly is None
        pair_resid = max(pair_resid, r.pairing_residual)
    for name in ("db4", "monomial(0,1)"):
        bank = fixtures.fixture_bank(name)
        r = spectral_solutions(bank.filters[0], bank.filters[1], window=32)
        in_range = in_range and r.index in (0, 1, 2)

    stable = (spectral_solutions(f0, f1, window=32).index
              == spectral_solutions(f0, f1, window=64).index)

    ok = span_ok and in_range and pair_resid < 1e-10 and stable
    record(7, ok, f"haar index 2 on span(1, 1/z) with residual < 1e-10: {span_ok}; index in "
                  f"(0,1,2) over fixtures and 20 random pairs: {in_range}; pairing constancy "
                  f"{pair_resid:.2e} (< 1e-10); window 32 vs 64 stable: {stable}")


def test_criterion_8_cross_module():
    haar = fixtures.haar(2)
    flag = haar_component_flag(haar.filters[0], haar.filters[1], window=32)
    shifts = wavelet_shift_check(haar)
    # the individual generators are shifts while the combined isometry still
    # has a unitary part; the suite asserts exactly this compatible pair
    ok = flag is True and shifts is True
    record(8, ok, f"combined isometry has a unitary part: {flag}; every individual "
                  f"generator is a shift: {shifts}")
