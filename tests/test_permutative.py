import time

import numpy as np
import pytest

from conftest import loop_cycles, split_cycles
from waverep.laurent import CircleGrid, GridFunction
from waverep.permutative import (
    CYCLE_ARC_TOL,
    CharRep,
    MonomialRep,
    _funnel,
    _telescope,
    check_partition,
    component_of,
    decompose_monomial,
    equivalence_check,
    solve_coboundary,
    standard_arc_masks,
)
from waverep.wold import _grid_eigendata


def find_cycles(rep):
    """All cycles of the backward map, each from its minimum, in order of minima."""
    return _funnel(rep, rep.cycle_radius())[0]


def bfs_orbit_oracle(scale, digits, window):
    """Independent oracle: partition the window by breadth-first orbit closure.

    Two modes are linked when one is a forward image N*k + d of the other;
    components are the connected classes of that relation inside a padded
    window, restricted back to the requested one.
    """
    lo, hi = -window, window
    pad = window * scale + max(abs(d) for d in digits) + 1
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for k in range(-pad, pad + 1):
        for d in digits:
            nxt = scale * k + d
            if -pad <= nxt <= pad:
                union(k, nxt)
    classes = {}
    for k in range(lo, hi + 1):
        classes.setdefault(find(k), set()).add(k)
    return sorted((frozenset(v) for v in classes.values()), key=min)


def random_digit_system(rng, max_abs=8):
    scale = int(rng.integers(2, 5))
    residues = rng.permutation(scale)
    digits = []
    for r in residues:
        choices = [d for d in range(-max_abs, max_abs + 1) if d % scale == r]
        digits.append(int(rng.choice(choices)))
    return scale, tuple(digits)


# ---------------------------------------------------------------------------
# monomial decomposition


def test_decompose_0_1():
    rep = decompose_monomial(MonomialRep(2, (0, 1)), 64)
    assert rep.cycles == [(-1,), (0,)]
    assert len(rep.components) == 2
    by_cycle = {c.cycle: c for c in rep.components}
    assert by_cycle[(0,)].members.tolist() == list(range(0, 65))
    assert by_cycle[(-1,)].members.tolist() == list(range(-64, 0))


def test_decompose_1_2():
    rep = decompose_monomial(MonomialRep(2, (1, 2)), 64)
    assert rep.cycles == [(-2,), (-1,)]
    by_cycle = {c.cycle: c for c in rep.components}
    assert by_cycle[(-1,)].members.tolist() == [-1] + list(range(0, 65))
    assert by_cycle[(-2,)].members.tolist() == list(range(-64, -1))


def test_decompose_scale3():
    rep = decompose_monomial(MonomialRep(3, (0, 1, 2)), 64)
    assert rep.cycles == [(-1,), (0,)]
    assert len(rep.components) == 2
    by_cycle = {c.cycle: c for c in rep.components}
    assert by_cycle[(0,)].members.tolist() == list(range(0, 65))
    assert by_cycle[(-1,)].members.tolist() == list(range(-64, 0))


@pytest.mark.parametrize("seed", range(20))
def test_decompose_matches_bfs_oracle(seed):
    rng = np.random.default_rng(seed)
    scale, digits = random_digit_system(rng)
    rep = decompose_monomial(MonomialRep(scale, digits), 64)
    got = sorted((frozenset(c.members.tolist()) for c in rep.components), key=min)
    got = [s for s in got if s]  # cycles may sit entirely outside the window
    expected = bfs_orbit_oracle(scale, digits, 64)
    assert got == expected


def test_components_partition_window():
    rng = np.random.default_rng(123)
    for _ in range(10):
        scale, digits = random_digit_system(rng)
        rep = decompose_monomial(MonomialRep(scale, digits), 32)
        seen = {}
        for idx, comp in enumerate(rep.components):
            for k in comp.members.tolist():
                assert k not in seen
                seen[k] = idx
        assert sorted(seen) == list(range(-32, 33))


def test_components_forward_invariant():
    rng = np.random.default_rng(7)
    for _ in range(6):
        scale, digits = random_digit_system(rng)
        rep = decompose_monomial(MonomialRep(scale, digits), 32)
        member_sets = [set(c.members.tolist()) for c in rep.components]
        for comp, members in zip(rep.components, member_sets):
            for k in members:
                for d in digits:
                    nxt = scale * k + d
                    if -32 <= nxt <= 32:
                        assert nxt in members


def test_cycle_points_within_bound():
    rng = np.random.default_rng(99)
    for _ in range(12):
        scale, digits = random_digit_system(rng)
        mono = MonomialRep(scale, digits)
        bound = mono.cycle_radius()
        rep = decompose_monomial(mono, 16)
        for cyc in rep.cycles:
            assert all(abs(c) <= bound for c in cyc)
        # exhaustive scan over twice the radius finds nothing new
        for k in range(-2 * bound - 2, 2 * bound + 3):
            walk, cur = set(), k
            while cur not in walk:
                walk.add(cur)
                cur = mono.branch_back(cur)
            assert abs(cur) <= bound


def test_cycle_search_in_the_invariant_ball_matches_the_wide_search():
    def wide_search(rep):  # funnel walks from |k| <= 2R + 2, with an escape guard
        radius = 2 * rep.cycle_radius() + 2
        cycles = set()
        for start in range(-radius, radius + 1):
            trail, k = {}, start
            while k not in trail:
                trail[k] = len(trail)
                k = rep.branch_back(k)
                assert abs(k) <= 16 * max(radius, 8)
            loop = [q for q, s in trail.items() if s >= trail[k]]
            rot = loop.index(min(loop))
            cycles.add(tuple(loop[rot:] + loop[:rot]))
        return sorted(cycles, key=lambda c: c[0])

    rng = np.random.default_rng(1600)
    for _ in range(1600):
        scale = int(rng.integers(2, 6))
        digits = [int(rng.choice(np.arange(-40 + (r + 40) % scale, 41, scale)))
                  for r in rng.permutation(scale)]
        rep = MonomialRep(scale, digits)
        radius = rep.cycle_radius()
        assert all(abs(rep.branch_back(k)) <= radius for k in range(-radius, radius + 1))
        assert find_cycles(rep) == wide_search(rep)


def walk_cycles_oracle(rep):
    """The former cycle search: a trail walk from every start in the ball |k| <= R."""
    radius = rep.cycle_radius()
    cycles = set()
    for start in range(-radius, radius + 1):
        trail, k = {}, start
        while k not in trail:
            trail[k] = len(trail)
            k = rep.branch_back(k)
        loop = [q for q, s in trail.items() if s >= trail[k]]
        rot = loop.index(min(loop))
        cycles.add(tuple(loop[rot:] + loop[:rot]))
    return sorted(cycles, key=lambda c: c[0])


def bfs_decompose_oracle(rep, lo, hi):
    """The former decomposition: the forward closure of each cycle, breadth
    first inside the ball of radius max(|lo|, |hi|, R + 1), cut to [lo, hi]."""
    radius = max(abs(lo), abs(hi), rep.cycle_radius() + 1)
    out = []
    for cyc in walk_cycles_oracle(rep):
        members, frontier = set(cyc), list(cyc)
        while frontier:
            k = frontier.pop()
            for d in rep.digits:
                nxt = rep.scale * k + d
                if abs(nxt) <= radius and nxt not in members:
                    members.add(nxt)
                    frontier.append(nxt)
        out.append((cyc, sorted(m for m in members if lo <= m <= hi)))
    return out


def wide_digit_system(rng, max_abs=300, scales=(2, 6)):
    scale = int(rng.integers(*scales))
    return MonomialRep(scale, [int(rng.choice(np.arange(-max_abs + (r + max_abs) % scale,
                                                        max_abs + 1, scale)))
                               for r in rng.permutation(scale)])


def test_funnel_matches_the_walk_and_bfs_decomposition():
    rng = np.random.default_rng(300)
    for _ in range(60):
        rep = wide_digit_system(rng)
        radius = rep.cycle_radius()
        inside = int(rng.integers(0, radius + 1))
        assert find_cycles(rep) == walk_cycles_oracle(rep)
        for window, (a, b) in [(40, (-40, 40)), (inside, (-inside, inside))]:
            got = decompose_monomial(rep, window)
            expected = bfs_decompose_oracle(rep, a, b)
            assert got.window == (a, b)
            assert got.cycles == [c for c, _ in expected]
            assert [(c.cycle, c.members.tolist()) for c in got.components] == expected


def test_every_ball_from_the_cycle_radius_on_is_backward_invariant():
    rng = np.random.default_rng(51)
    for _ in range(60):
        rep = wide_digit_system(rng)
        top = rep.cycle_radius() + 50
        ks = np.arange(-top, top + 1)
        back = np.empty_like(ks)
        for d in rep.digits:
            hit = (ks - d) % rep.scale == 0
            back[hit] = (ks[hit] - d) // rep.scale
        for rho in range(rep.cycle_radius(), top + 1):
            inside = np.abs(ks) <= rho
            assert np.max(np.abs(back[inside])) <= rho


def test_decompose_cost_does_not_grow_with_walks_over_the_ball():
    start = time.perf_counter()
    rep = decompose_monomial(MonomialRep(2, (0, 65521)), 65536)
    assert time.perf_counter() - start < 2.0
    assert len(rep.components) == 58
    start = time.perf_counter()
    rep = decompose_monomial(MonomialRep(2, (0, 4001)), 4)
    assert time.perf_counter() - start < 0.5
    assert len(rep.components) == 6


def test_component_membership_outside_window():
    rep = decompose_monomial(MonomialRep(2, (1, 2)), 16)
    idx_pos = component_of(rep, 1000)
    idx_neg = component_of(rep, -1000)
    assert idx_pos != idx_neg
    assert component_of(rep, -1) == idx_pos  # -1 funnels into the positive block


def test_digit_invariant_enforced():
    with pytest.raises(ValueError):
        MonomialRep(2, (0, 2))
    with pytest.raises(ValueError):
        MonomialRep(3, (0, 1))


# ---------------------------------------------------------------------------
# rotation partitions


def test_standard_arcs_partition():
    g = CircleGrid(12)
    assert check_partition(standard_arc_masks(g, 3), 3)
    assert check_partition(standard_arc_masks(g, 2), 2)


def test_duplicate_arc_fails():
    g = CircleGrid(12)
    arcs = standard_arc_masks(g, 3)
    assert not check_partition([arcs[0], arcs[0], arcs[2]], 3)


def test_rotated_arcs_still_partition():
    g = CircleGrid(12)
    arcs = [np.roll(a, 5) for a in standard_arc_masks(g, 3)]
    assert check_partition(arcs, 3)


def test_partition_needs_divisible_grid():
    g = CircleGrid(7)
    with pytest.raises(ValueError):
        check_partition(standard_arc_masks(g, 2), 2)


# ---------------------------------------------------------------------------
# coboundaries


@pytest.fixture(scope="module")
def dyn_grid():
    return CircleGrid.dynamics_grid(2)


def test_equal_cocycles_give_constant(dyn_grid):
    u = GridFunction(dyn_grid, np.exp(2j * np.pi * np.random.default_rng(1).random(dyn_grid.M)))
    delta = solve_coboundary(u, u, 2)
    assert delta is not None
    assert np.allclose(delta.values, 1.0, atol=1e-12)


def test_monomial_coboundary(dyn_grid):
    # oracle: substituting Delta = z^a into Delta u1 = u2 Delta(z^2) with
    # u1 = 1, u2 = z forces a = 1 + 2a, i.e. Delta = z^(-1)
    ones = GridFunction(dyn_grid, np.ones(dyn_grid.M))
    zf = GridFunction(dyn_grid, dyn_grid.points())
    delta = solve_coboundary(ones, zf, 2)
    assert delta is not None
    sigma = dyn_grid.multiply_map(2)
    resid = np.max(np.abs(delta.values * ones.values - zf.values * delta.values[sigma]))
    assert resid < 1e-10
    # per cycle, Delta equals z^(-1) up to the one free phase
    e = delta.values * dyn_grid.points()
    for cyc in split_cycles(dyn_grid, 2):
        assert np.max(np.abs(e[cyc] - e[cyc[0]])) < 1e-9


def test_random_pair_has_obstruction(dyn_grid, rng):
    u1 = GridFunction(dyn_grid, np.ones(dyn_grid.M))
    u2 = GridFunction(dyn_grid, np.exp(2j * np.pi * rng.random(dyn_grid.M)))
    assert solve_coboundary(u1, u2, 2) is None


def test_constructed_pairs_solve_and_reject(dyn_grid):
    rng = np.random.default_rng(42)
    sigma = dyn_grid.multiply_map(2)
    m = dyn_grid.M
    for trial in range(10):
        u1 = np.exp(2j * np.pi * rng.random(m))
        delta0 = np.exp(2j * np.pi * rng.random(m))
        u2 = delta0 * u1 / delta0[sigma]
        got = solve_coboundary(GridFunction(dyn_grid, u1), GridFunction(dyn_grid, u2), 2)
        assert got is not None
        resid = np.max(np.abs(got.values * u1 - u2 * got.values[sigma]))
        assert resid < 1e-9
        bad = np.exp(2j * np.pi * rng.random(m))
        assert solve_coboundary(GridFunction(dyn_grid, u1), GridFunction(dyn_grid, bad), 2) is None


def test_coboundary_symmetry_and_transitivity(dyn_grid):
    rng = np.random.default_rng(10)
    sigma = dyn_grid.multiply_map(2)
    m = dyn_grid.M
    u1 = np.exp(2j * np.pi * rng.random(m))
    d12 = np.exp(2j * np.pi * rng.random(m))
    d23 = np.exp(2j * np.pi * rng.random(m))
    u2 = d12 * u1 / d12[sigma]
    u3 = d23 * u2 / d23[sigma]
    g = lambda v: GridFunction(dyn_grid, v)
    assert solve_coboundary(g(u2), g(u1), 2) is not None  # symmetric
    assert solve_coboundary(g(u1), g(u3), 2) is not None  # transitive


def test_coboundary_uniqueness_per_cycle(dyn_grid):
    # any two solutions differ by one unimodular scalar per cycle
    rng = np.random.default_rng(3)
    sigma = dyn_grid.multiply_map(2)
    u1 = np.exp(2j * np.pi * rng.random(dyn_grid.M))
    d0 = np.exp(2j * np.pi * rng.random(dyn_grid.M))
    u2 = d0 * u1 / d0[sigma]
    got = solve_coboundary(GridFunction(dyn_grid, u1), GridFunction(dyn_grid, u2), 2)
    ratio = got.values / d0
    for cyc in split_cycles(dyn_grid, 2):
        assert np.max(np.abs(ratio[cyc] - ratio[cyc[0]])) < 1e-9
        assert abs(abs(ratio[cyc[0]]) - 1.0) < 1e-9


def _per_cycle_telescope(q, m, scale, tol=CYCLE_ARC_TOL):
    """The cycle-by-cycle telescope on the point-walk cycles: the reference."""
    cycles = loop_cycles(m, scale)
    for cyc in cycles:
        if abs(np.angle(np.prod(q[cyc]))) > tol * len(cyc):
            return None
    f = np.empty(m, dtype=np.complex128)
    for cyc in cycles:
        walk = np.concatenate([[1.0 + 0j], np.cumprod(q[cyc[:-1]])])
        f[cyc] = walk / np.abs(walk)
    return f


@pytest.mark.parametrize("m,scale", [(65535, 2), (59048, 3), (65537, 3), (1, 2), (255, 2),
                                     (80, 3)])
def test_telescope_matches_the_per_cycle_walk(m, scale):
    rng = np.random.default_rng(m + scale)
    grid = CircleGrid(m)
    sigma = grid.multiply_map(scale)
    unimodular = lambda: np.exp(2j * np.pi * rng.random(m))
    d = unimodular()
    solvable = d[sigma] / d
    # one point of the longest cycle moves that cycle's product off 1 by
    # twice, then half, the arc tolerance of its length
    longest = max(loop_cycles(m, scale), key=len)
    arc = CYCLE_ARC_TOL * len(longest)
    past, within = solvable.copy(), solvable.copy()
    past[longest[-1]] *= np.exp(2j * arc)
    within[longest[-1]] *= np.exp(0.5j * arc)
    cases = [solvable, unimodular(), past, within, np.ones(m, dtype=np.complex128)]
    for q in cases:
        got, want = _telescope(q, grid, scale), _per_cycle_telescope(q, m, scale)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.max(np.abs(got - want)) <= 1e-15
    assert _telescope(past, grid, scale) is None
    assert _telescope(within, grid, scale) is not None


def _probe_loop_residual(rep1, rep2, delta):
    """The exchange-relation residual over the probes 1, z, 1/z and each arc: the reference."""
    n, grid = rep1.scale, rep1.u.grid
    pts, sigma = grid.points(), grid.multiply_map(n)
    arcs = np.stack([m.astype(float) for m in standard_arc_masks(grid, n)])
    root = np.sqrt(n)
    worst = 0.0
    for xi in (np.ones(grid.M, dtype=np.complex128), pts, np.conj(pts)):
        for k in range(n):
            s1 = root * arcs[k] * rep1.u.values * xi[sigma]
            s2k_delta = root * arcs[k] * rep2.u.values * (delta.values * xi)[sigma]
            worst = max(worst, float(np.max(np.abs(delta.values * s1 - s2k_delta))))
    return worst


@pytest.mark.parametrize("scale,m", [(2, 4095), (2, 65535), (3, 59048)])
def test_intertwining_residual_matches_the_probe_loop(scale, m):
    rng = np.random.default_rng(scale * m)
    grid = CircleGrid(m)
    sigma = grid.multiply_map(scale)
    unimodular = lambda: np.exp(2j * np.pi * rng.random(m))
    u1, d = unimodular(), unimodular()
    solvable = d * u1 / d[sigma]
    # the longest cycle's product moved off 1 by half its arc tolerance: still
    # solvable, with an intertwining residual far above rounding
    longest = max(loop_cycles(m, scale), key=len)
    near = solvable.copy()
    near[longest[-1]] *= np.exp(-0.5j * CYCLE_ARC_TOL * len(longest))
    for u2 in (solvable, near):
        rep1 = CharRep(scale, GridFunction(grid, u1))
        rep2 = CharRep(scale, GridFunction(grid, u2 / np.abs(u2)))
        got = equivalence_check(rep1, rep2)
        assert got.equivalent
        want = _probe_loop_residual(rep1, rep2, got.delta)
        assert abs(got.intertwining_residual - want) <= 1e-15 + 1e-12 * want


def test_negative_window_is_refused():
    # decompose_monomial(rep, -5) reported the window (-5, 5)
    with pytest.raises(ValueError, match="window must be >= 0"):
        decompose_monomial(MonomialRep(2, (0, 1)), -5)


def test_modulus_validation(dyn_grid):
    good = GridFunction(dyn_grid, np.ones(dyn_grid.M))
    bad = GridFunction(dyn_grid, 1.5 * np.ones(dyn_grid.M))
    with pytest.raises(ValueError):
        solve_coboundary(good, bad, 2)


# ---------------------------------------------------------------------------
# equivalence of characteristic-function families


def test_self_equivalence(dyn_grid):
    u = GridFunction(dyn_grid, np.exp(2j * np.pi * np.random.default_rng(2).random(dyn_grid.M)))
    rep = CharRep(2, u)
    out = equivalence_check(rep, rep)
    assert out.equivalent
    assert np.allclose(out.delta.values, 1.0, atol=1e-12)
    assert out.intertwining_residual < 1e-12


def test_monomial_twist_equivalence(dyn_grid):
    ones = GridFunction(dyn_grid, np.ones(dyn_grid.M))
    zf = GridFunction(dyn_grid, dyn_grid.points())
    out = equivalence_check(CharRep(2, ones), CharRep(2, zf))
    assert out.equivalent
    assert out.intertwining_residual < 1e-9
    assert out.grid_screen


def test_random_twist_inequivalence(dyn_grid, rng):
    ones = GridFunction(dyn_grid, np.ones(dyn_grid.M))
    u = GridFunction(dyn_grid, np.exp(2j * np.pi * rng.random(dyn_grid.M)))
    out = equivalence_check(CharRep(2, ones), CharRep(2, u))
    assert not out.equivalent and out.delta is None


def test_char_rep_validates_modulus(dyn_grid):
    with pytest.raises(ValueError):
        CharRep(2, GridFunction(dyn_grid, 2.0 * np.ones(dyn_grid.M)))


def test_equivalence_requires_matching_grids(dyn_grid):
    other = CircleGrid.dynamics_grid(2, lo=dyn_grid.M + 1)
    r1 = CharRep(2, GridFunction(dyn_grid, np.ones(dyn_grid.M)))
    r2 = CharRep(2, GridFunction(other, np.ones(other.M)))
    with pytest.raises(ValueError):
        equivalence_check(r1, r2)


# ---------------------------------------------------------------------------
# the Wold grid equation is the coboundary equation with u1 = lambda, u2 = m


@pytest.mark.parametrize("scale", [2, 3])
def test_wold_grid_solve_is_the_coboundary_solve(scale):
    rng = np.random.default_rng(scale)
    g = CircleGrid.dynamics_grid(scale)
    xi = GridFunction(g, np.exp(2j * np.pi * rng.random(g.M)))
    lam = np.exp(0.7j)
    m = lam * xi.values / xi.values[g.multiply_map(scale)]  # m(z) xi(z^N) = lam xi(z)
    const = GridFunction(g, np.full(g.M, lam))
    got_lam, got_xi, resid, _ = _grid_eigendata(m, g, scale)
    delta = solve_coboundary(const, GridFunction(g, m), scale)
    assert abs(got_lam - lam) < 1e-12
    assert np.max(np.abs(got_xi - delta.values)) < 1e-12
    assert resid < 1e-12
    # one phase kick on a cycle of length > 1 obstructs both
    cyc = next(c for c in split_cycles(g, scale) if len(c) > 1)
    bent = m.copy()
    bent[cyc[0]] *= np.exp(0.5j)
    assert _grid_eigendata(bent, g, scale) is None
    assert solve_coboundary(const, GridFunction(g, bent), scale) is None


@pytest.mark.parametrize("seed", range(6))
def test_check_partition_matches_the_rotation_loop(seed):
    def loop_reference(masks, scale):  # every point covered once, every orbit met once per mask
        m = len(masks[0])
        if np.any(np.sum(masks, axis=0) != 1):
            return False
        return all(np.all(sum(np.roll(a, -k * (m // scale)) for k in range(scale)) == 1)
                   for a in masks)

    rng = np.random.default_rng(seed)
    scale, step = int(rng.integers(2, 5)), int(rng.integers(1, 6))
    # one mask per point of each rotation orbit: a partition by construction
    owner = np.array([rng.permutation(scale) for _ in range(step)]).T.ravel()
    good = [owner == i for i in range(scale)]
    moved = [a.copy() for a in good]
    j = int(rng.integers(scale * step))
    moved[owner[j]][j], moved[(owner[j] + 1) % scale][j] = False, True
    for masks in (good, moved, [good[0]] * scale):
        assert check_partition(masks, scale) == loop_reference(masks, scale)
    assert check_partition(good, scale)
    assert not check_partition(moved, scale)


def test_component_report_carries_its_rep():
    rep = MonomialRep(2, (0, 7))
    report = decompose_monomial(rep, 16)
    assert report.rep == rep
    # component_of walks the report's own rep from a mode far outside the window
    k, seen = 10 ** 6, set()
    while k not in seen:
        seen.add(k)
        k = rep.branch_back(k)
    assert k in report.cycles[component_of(report, 10 ** 6)]
