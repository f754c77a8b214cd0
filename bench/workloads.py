"""Seeded inputs for the benchmark workloads, each with its oracle.

Inputs are built with numpy alone and written in the README wire formats, so
nothing here runs the program under test.  Every job carries the exit code,
the verdicts and one info field that its construction fixes; the runner
compares each report against them.

Sizes are fixed per workload and only the values depend on the seed, so the
work done by one pass of a mix is the same for every seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("banks", "grid-data", "spectral")

# The grid equations are solved by the program and its answer is re-checked
# here pointwise; this is the tolerance of that re-check.
GRID_RELATION_TOL = 1e-8


@dataclass
class Job:
    """One CLI call and what its report must say."""

    argv: list
    size: str
    code: int
    verdicts: dict
    check: Callable[[dict], str | None] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Mix:
    jobs: list
    sizes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# wire formats (README / serialize.py)


def cvec(values) -> list:
    a = np.asarray(values, dtype=np.complex128).ravel()
    return np.stack([a.real, a.imag], axis=1).tolist()


def poly_dict(coeffs, min_degree: int = 0) -> dict:
    return {"min_degree": int(min_degree), "coeffs": cvec(coeffs)}


def grid_dict(values) -> dict:
    return {"M": len(values), "values": cvec(values)}


def as_complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    return a[:, 0] + 1j * a[:, 1]


def _write(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _unimodular(rng: np.random.Generator, size) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(size))


# ---------------------------------------------------------------------------
# oracle helpers


def _expect_info(key: str, value) -> Callable[[dict], str | None]:
    def check(rep):
        got = rep["info"].get(key)
        return None if got == value else f"info.{key} is {got!r}, expected {value!r}"
    return check


def _all(*checks) -> Callable[[dict], str | None]:
    def check(rep):
        for c in checks:
            msg = c(rep)
            if msg:
                return msg
        return None
    return check


def _expect_eigenvalues(expected) -> Callable[[dict], str | None]:
    want = [complex(z) for z in expected]

    def check(rep):
        got = [complex(*p) for p in rep["info"].get("eigenvalues", [])]
        if len(got) != len(want):
            return f"{len(got)} eigenvalues, expected {len(want)}"
        for w in want:
            if min(abs(g - w) for g in got) > 1e-6:
                return f"eigenvalue {w} missing from {got}"
        return None
    return check


def _expect_artifact_lines(lines: int) -> Callable[[dict], str | None]:
    def check(rep):
        path = rep["artifacts"][0] if rep["artifacts"] else None
        if path is None or not os.path.exists(path):
            return "CSV artifact missing"
        with open(path) as fh:
            n = sum(1 for _ in fh)
        return None if n == lines else f"CSV has {n} lines, expected {lines}"
    return check


def _expect_bank_file(scale: int, kind: str) -> Callable[[dict], str | None]:
    def check(rep):
        path = rep["artifacts"][0] if rep["artifacts"] else None
        if path is None or not os.path.exists(path):
            return "bank artifact missing"
        with open(path) as fh:
            d = json.load(fh)
        if d.get("scale") != scale or d.get("kind") != kind or len(d.get("filters", ())) != scale:
            return f"bank artifact has scale {d.get('scale')} kind {d.get('kind')}"
        return None
    return check


# ---------------------------------------------------------------------------
# banks: filter-bank verification, completion, cascade, fixtures


def paraunitary_filters(rng: np.random.Generator, n: int, n_factors: int) -> np.ndarray:
    """Coefficient rows of a random scale-n bank with a paraunitary polyphase matrix.

    E(w) = Q * prod (I - v v* + w v v*) is unitary on the circle, and the
    filters m_i(z) = sum_r z^r E_ir(z^n) have modulation matrix
    E(z^n) diag(z^r) F with F the unitary DFT, so the bank is unitary by
    construction.  Row i holds m_i's coefficients from degree 0.
    """
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
    return e.transpose(1, 0, 2).reshape(n, -1)


def db4_lowpass() -> np.ndarray:
    r3 = math.sqrt(3.0)
    return np.array([1.0 + r3, 3.0 + r3, 3.0 - r3, 1.0 - r3]) / (4.0 * math.sqrt(2.0))


def conjugate_mirror(h: np.ndarray) -> dict:
    """m_1(z) = -z^(2K-1) conj(m_0)(-1/z) for m_0 = sum_{k<=K} h_k z^k."""
    k_top = len(h) - 1
    ks = np.arange(k_top, -1, -1)  # ascending degree 2K-1-k runs over k descending
    coeffs = -((-1.0) ** ks) * np.conj(h[ks])
    return poly_dict(coeffs, min_degree=k_top - 1)


def banks(rng: np.random.Generator, workdir: str, smoke: bool) -> Mix:
    jobs = []
    haar_scales = (2, 3, 4) if smoke else (2, 3, 4, 8, 16)
    for n in haar_scales:
        jobs.append(Job(["check", "--fixture", f"haar{n}"], f"N={n}", 0, {"unitary": True},
                        _expect_info("scale", n)))
    jobs.append(Job(["check", "--fixture", "db4"], "N=2", 0, {"unitary": True},
                    _expect_info("kind", "poly")))
    jobs.append(Job(["check", "--fixture", "shannon"], "N=2", 0, {"unitary": True},
                    _expect_info("kind", "callable")))

    # Four N=8 banks put the tail percentile inside a group of compute-only
    # checks of equal cost, away from the reports that write files.
    pu_scales = (4,) if smoke else (4, 8, 8, 8, 8)
    for i, n in enumerate(pu_scales):
        rows = paraunitary_filters(rng, n, 3)
        path = _write(workdir, f"pu{i}_N{n}.json", {"scale": n, "kind": "poly",
                                                    "filters": [poly_dict(r) for r in rows]})
        jobs.append(Job(["check", path], f"N={n}", 0, {"unitary": True},
                        _expect_info("scale", n)))

    # db4 with one coefficient moved by 1e-6: the unitarity residual is of
    # that order, far above the 1e-10 verification tolerance.
    h = db4_lowpass().astype(np.complex128)
    mirror = conjugate_mirror(h)
    h[rng.integers(len(h))] += 1e-6 * np.exp(2j * np.pi * rng.random())
    path = _write(workdir, "db4_perturbed.json",
                  {"scale": 2, "kind": "poly", "filters": [poly_dict(h), mirror]})
    jobs.append(Job(["check", path], "N=2", 1, {"unitary": False}, _expect_info("scale", 2)))

    low2 = _write(workdir, "lowpass2.json", {"kind": "poly", **poly_dict(paraunitary_filters(rng, 2, 3)[0])})
    jobs.append(Job(["complete", "--lowpass", low2, "--scale", "2"], "N=2", 0,
                    {"unitary": True}, _expect_info("kind", "poly")))
    low3 = _write(workdir, "lowpass3.json", {"kind": "poly", **poly_dict(paraunitary_filters(rng, 3, 2)[0])})
    out3 = os.path.join(workdir, "completed3.json")
    jobs.append(Job(["complete", "--lowpass", low3, "--scale", "3", "--out-bank", out3], "N=3", 0,
                    {"unitary": True},
                    _all(_expect_info("kind", "grid"), _expect_bank_file(3, "grid"))))

    per = 4 if smoke else 16
    jobs.append(Job(["cascade", "--fixture", "db4", "--per", str(per)], f"K={per}", 0,
                    {"value_at_zero": True, "periodization": True}, _expect_info("samples", 4097)))
    jobs.append(Job(["cascade", "--fixture", "db4", "--mother", "1"], "samples=4097", 0,
                    {"value_at_zero": True}, _expect_info("mother_index", 1)))
    jobs.append(Job(["cascade", "--fixture", "shannon", "--per", "4"], "K=4", 0,
                    {"value_at_zero": True, "periodization": True}, _expect_info("samples", 4097)))
    samples = 1025 if smoke else 16385
    csv = os.path.join(workdir, "phi.csv")
    jobs.append(Job(["cascade", "--fixture", "db4", "--samples", str(samples), "--csv", csv],
                    f"samples={samples}", 0, {"value_at_zero": True},
                    _all(_expect_info("samples", samples), _expect_artifact_lines(samples + 1))))

    jobs.append(Job(["wold", "--fixture", "db4", "--shift-check"], "N=2", 0,
                    {"all_shifts": True}, _expect_info("scale", 2)))
    out4 = os.path.join(workdir, "haar4.json")
    jobs.append(Job(["fixtures", "haar4", "--out-bank", out4], "N=4", 0, {"verified": True},
                    _all(_expect_info("name", "haar4"), _expect_bank_file(4, "poly"))))
    return Mix(jobs, {"haar_scales": list(haar_scales), "paraunitary_scales": list(pu_scales),
                      "paraunitary_factors": 3, "cascade_per": per, "csv_samples": samples})


# ---------------------------------------------------------------------------
# grid-data: sampled cocycles and filters


def _dynamics(m: int, n: int) -> np.ndarray:
    return (np.arange(m) * n) % m


def _expect_coboundary(u1: np.ndarray, u2: np.ndarray, n: int):
    sigma = _dynamics(len(u1), n)

    def check(rep):
        delta = as_complex(rep["info"]["delta"]["values"])
        if len(delta) != len(u1):
            return f"delta has {len(delta)} points, expected {len(u1)}"
        gap = np.max(np.abs(delta * u1 - u2 * delta[sigma]))
        return None if gap <= GRID_RELATION_TOL else f"delta misses the coboundary relation by {gap:.3g}"
    return check


def _expect_eigenfunction(m_vals: np.ndarray, lam: complex, n: int):
    sigma = _dynamics(len(m_vals), n)

    def check(rep):
        info = rep["info"]
        if info.get("unitary_dim") != 1:
            return f"unitary_dim {info.get('unitary_dim')}, expected 1"
        got = complex(*info["eigenvalue"])
        if abs(got - lam) > 1e-9:
            return f"eigenvalue {got}, expected {lam}"
        xi = as_complex(info["eigenfunction"]["values"])
        gap = np.max(np.abs(m_vals * xi[sigma] - lam * xi))
        return None if gap <= GRID_RELATION_TOL else f"eigenfunction residual {gap:.3g}"
    return check


# Components of the monomial families below: one per cycle of
# k -> (k - d)/N.  A cycle of period L through k needs
# k = -s / (N^L - 1) with s = sum_i N^i d_(w_i) for a digit word w.
#   N=3, digits 0,4,-4: fixed points 0, -2, 2 and the 2-cycle {-1, 1}.
#   N=2, digits 0,7: s = 7 t with t < 2^L, and 2^L - 1 divides 7 t only for
#   t = 0 or 2^L - 1 unless 3 | L, where t repeats a 3-letter block: fixed
#   points 0 and -7, and the 3-cycles of the words 001 and 011.
# With these two the mix has 14 reports, and its median falls in the middle
# of the two wold reports on obstructed filters at M = 59048 and 65535.
DECOMPOSE_CASES = (((3, (0, 4, -4)), 4), ((2, (0, 7)), 4))


def grid_data(rng: np.random.Generator, workdir: str, smoke: bool) -> Mix:
    cases = ((2, 8), (2, 12), (3, 4)) if smoke else ((2, 12), (2, 16), (3, 10))
    jobs = []
    for n, level in cases:
        m = n**level - 1
        sigma = _dynamics(m, n)
        tag = f"N{n}_M{m}"

        u1 = _unimodular(rng, m)
        delta = _unimodular(rng, m)
        u2 = delta * u1 / delta[sigma]
        p1 = _write(workdir, f"cob_u1_{tag}.json", grid_dict(u1))
        p2 = _write(workdir, f"cob_u2_{tag}.json", grid_dict(u2))
        jobs.append(Job(["equiv", "--u1", p1, "--u2", p2, "--scale", str(n)], f"M={m}", 0,
                        {"equivalent": True}, _expect_coboundary(u1, u2, n)))

        # an independent pair, with the fixed point 0 carrying a cycle
        # product at least 0.5 rad from 1: no coboundary exists
        v1 = _unimodular(rng, m)
        v2 = _unimodular(rng, m)
        v2[0] = v1[0] * np.exp(1j * (0.5 + 2.0 * rng.random()))
        p1 = _write(workdir, f"ind_u1_{tag}.json", grid_dict(v1))
        p2 = _write(workdir, f"ind_u2_{tag}.json", grid_dict(v2))
        jobs.append(Job(["equiv", "--u1", p1, "--u2", p2, "--scale", str(n)], f"M={m}", 1,
                        {"equivalent": False}, _expect_info("grid_screen", True)))

        # m = lam xi / xi(z^N) solves m xi(z^N) = lam xi
        xi = _unimodular(rng, m)
        lam = complex(np.exp(2j * np.pi * rng.random()))
        m_eig = lam * xi / xi[sigma]
        path = _write(workdir, f"eig_{tag}.json", {"kind": "grid", **grid_dict(m_eig)})
        jobs.append(Job(["wold", "--filter", path, "--scale", str(n)], f"M={m}", 0,
                        {"isometry": True, "consistent": True},
                        _expect_eigenfunction(m_eig, lam, n)))

        # a unimodular filter whose cycle through 1 (the powers N^i, i < level)
        # has product m(0)^level times a phase at least 0.5 rad from 1, while
        # the fixed point 0 pins lam = m(0): no eigenvalue exists
        m_none = _unimodular(rng, m)
        orbit = n ** np.arange(level) % m
        rest = np.prod(m_none[orbit[1:]])
        m_none[1] = m_none[0] ** level * np.exp(1j * (0.5 + 2.0 * rng.random())) / rest
        path = _write(workdir, f"none_{tag}.json", {"kind": "grid", **grid_dict(m_none)})
        jobs.append(Job(["wold", "--filter", path, "--scale", str(n)], f"M={m}", 0,
                        {"isometry": True, "consistent": True}, _expect_info("unitary_dim", 0)))

    window = 64 if smoke else 4096
    for (n, digits), components in DECOMPOSE_CASES:
        jobs.append(Job(["decompose", "--scale", str(n), "--digits", ",".join(map(str, digits)),
                         "--window", str(window)], f"window={window}", 0, {"partition": True},
                        _expect_info("n_components", components)))
    return Mix(jobs, {"grid_sizes": [n**level - 1 for n, level in cases],
                      "grid_scales": [n for n, _ in cases], "decompose_window": window})


# ---------------------------------------------------------------------------
# spectral: compressed eigensolves, words and Fock levels


# Index of the scale-2 pair, as fixed outside the program: haar2 fixes 1 and
# 1/z (index 2, eigenvalue 1 twice); db4 has index 0 (tests/test_index.py).
# For monomial(a,b), M z^k = (z^(2k+a) + (-1)^k z^(2k+b))/sqrt2, so distinct
# modes have disjoint images and an eigenvector's support S would satisfy
# {2k+a, 2k+b : k in S} = S; its largest and smallest elements rule that
# out, so the index is 0.
INDEX_FIXTURES = (("haar2", [1.0, 1.0]), ("db4", []), ("monomial(0,1)", []), ("monomial(2,-1)", []))


def _coisometry(rng: np.random.Generator, n_ops: int, dim: int) -> np.ndarray:
    """V_i = Q_i* for an orthonormal (n_ops*dim, dim) block column Q: sum V_i V_i* = I."""
    g = rng.normal(size=(n_ops * dim, dim)) + 1j * rng.normal(size=(n_ops * dim, dim))
    q, _ = np.linalg.qr(g)
    return np.conj(np.swapaxes(q.reshape(n_ops, dim, dim), 1, 2))


def _family(rng: np.random.Generator, n_ops: int, blocks: tuple) -> dict:
    """A block-diagonal coisometry family with a random unit Omega.

    With two or more blocks, each block's identity is a fixed point of the
    transfer map, so the state is not pure.
    """
    dim = sum(blocks)
    v = np.zeros((n_ops, dim, dim), dtype=np.complex128)
    at = 0
    for d in blocks:
        v[:, at:at + d, at:at + d] = _coisometry(rng, n_ops, d)
        at += d
    omega = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    omega /= np.linalg.norm(omega)
    return {"N": n_ops, "dim": dim, "V": [[cvec(row) for row in mat] for mat in v],
            "Omega": cvec(omega)}


def spectral(rng: np.random.Generator, workdir: str, smoke: bool) -> Mix:
    jobs = []
    windows = (16, 32) if smoke else (64, 128, 256)
    for window in windows:
        for name, eigenvalues in INDEX_FIXTURES:
            jobs.append(Job(["index", "--fixture", name, "--window", str(window)], f"K={window}", 0,
                            {"index_in_range": True},
                            _all(_expect_info("index", len(eigenvalues)),
                                 _expect_eigenvalues(eigenvalues))))

    # Polyphase matrix diag(c0 w^p, c1 w^q): f0, f1 = (c0 z^2p +- c1 z^(2q+1))/sqrt2.
    # The combined isometry maps z^-2p to c0 z^-2p and z^-(2q+1) to
    # c1 z^-(2q+1), and these span its unitary part: index 2.  Two such
    # pairs put the median of the 22-report mix in the middle of the
    # window-128 index reports, and the p80 tail in the middle of the
    # window-256 ones.
    window = windows[-1]
    for i in range(2):
        p, q = (int(x) for x in rng.integers(-12, 13, size=2))
        c0, c1 = np.exp(2j * np.pi * rng.random(2))
        lo = min(2 * p, 2 * q + 1)
        a = np.zeros(abs(2 * p - 2 * q - 1) + 1, dtype=np.complex128)
        b = np.zeros_like(a)
        a[2 * p - lo] = c0
        b[2 * q + 1 - lo] = c1
        path = _write(workdir, f"pair{i}.json", {"scale": 2, "kind": "poly", "filters": [
            poly_dict((a + b) / math.sqrt(2.0), lo), poly_dict((a - b) / math.sqrt(2.0), lo)]})
        jobs.append(Job(["index", "--bank", path, "--window", str(window)], f"K={window}", 0,
                        {"index_in_range": True},
                        _all(_expect_info("index", 2), _expect_eigenvalues([c0, c1]))))

    # (ops, blocks, gram depth, fock depth).  Gram words are sum_k ops^k over
    # k <= depth, capped at 2047 until gram_matrix stops enumerating words.
    # The three-operator families are split into two blocks: a single random
    # block mixes fast or slowly depending on the seed, which changes how
    # long the purity probe runs.
    shapes = ((2, (3,), 5, 6), (3, (2, 2), 2, 4)) if smoke else (
        (2, (3,), 10, 14), (2, (4,), 9, 12), (3, (2, 2), 5, 8), (2, (5,), 7, 10),
        (3, (3, 3), 4, 6))
    for i, (ops, blocks, gram_depth, fock_depth) in enumerate(shapes):
        dim = sum(blocks)
        path = _write(workdir, f"family{i}.json", _family(rng, ops, blocks))
        lam = 0.3 + 0.5 * rng.random()
        words = sum(ops**k for k in range(gram_depth + 1))
        fock_dim = dim * sum(ops**k for k in range(fock_depth + 1))
        checks = [_expect_info("gram_words", words), _expect_info("fock_dim", fock_dim)]
        if len(blocks) > 1:
            checks.append(_expect_info("pure", False))
        jobs.append(Job(["dilate", "--family", path, "--lam", repr(lam), "--fock-depth",
                         str(fock_depth), "--gram-depth", str(gram_depth)], f"words={words}", 0,
                        {"gram_psd": True, "fock_defect_matches": True, "intertwining": True,
                         "state_consistent": True}, _all(*checks)))

    # db4's low-pass vanishes at z = -1, so it is not unimodular: no unitary
    # part.  At scale 2, z^3 fixes z^-3 and z^-2 fixes z^2, both with
    # eigenvalue 1.
    jobs.append(Job(["wold", "--fixture", "db4"], "N=2", 0, {"isometry": True, "consistent": True},
                    _expect_info("unitary_dim", 0)))
    for index in (0, 1):
        jobs.append(Job(["wold", "--fixture", "monomial(3,-2)", "--index", str(index)], "N=2", 0,
                        {"isometry": True, "consistent": True},
                        _all(_expect_info("unitary_dim", 1),
                             _expect_info("eigenvalue", [1.0, 0.0]))))
    return Mix(jobs, {"index_windows": list(windows), "paraunitary_window": window,
                      "dilate_shapes": [[o, list(b), g, f] for o, b, g, f in shapes]})


MIXES = {"banks": banks, "grid-data": grid_data, "spectral": spectral}


def build(workload: str, seed: int, workdir: str, smoke: bool = False) -> Mix:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return MIXES[workload](rng, workdir, smoke)
