import ast
import inspect
import itertools
import json
import math

import numpy as np
import pytest

from conftest import angle_rule, split_cycles
from waverep import (cli, dilation as dil, fixtures, index as idx, permutative as perm,
                     serialize as ser, wold as wld)
from waverep.cli import parse_angle, run
from waverep.dilation import DIM_MAX, random_coisometry
from waverep.filterbank import (FilterBank, check_bank, complete_filterbank, default_check_grid,
                                qmf_residual)
from waverep.laurent import DEGREE_MAX, CircleGrid, GridFunction, LaurentPoly, sample
from waverep.fixtures import haar


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_angle():
    assert parse_angle("8pi") == pytest.approx(8 * math.pi)
    assert parse_angle("1.5pi") == pytest.approx(1.5 * math.pi)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("-pi") == pytest.approx(-math.pi)
    assert parse_angle("2.25") == 2.25
    from waverep.cli import InputError

    with pytest.raises(InputError):
        parse_angle("eightpi")


def test_check_fixture_by_file(tmp_path, capsys):
    path = tmp_path / "haar.json"
    path.write_text(json.dumps(ser.bank_to_dict(haar(2))))
    code, rep = run_json(capsys, ["check", str(path)])
    assert code == 0
    assert rep["verdicts"]["unitary"] is True
    assert rep["residuals"]["unitarity"] < 1e-13
    assert rep["command"] == "check"
    assert set(rep) >= {"command", "inputs", "verdicts", "residuals", "artifacts", "elapsed"}


def test_check_reports_a_polynomial_bank_from_its_coefficients(capsys):
    code, rep = run_json(capsys, ["check", "--fixture", "haar16"])
    report = rep["info"]["check_report"]
    assert code == 0 and report["grid_size"] is None and report["worst_point"] is None
    assert rep["residuals"]["unitarity"] == rep["residuals"]["coefficient"] < 1e-13
    assert report["worst_shift"] == 0 and "pairwise_residuals" not in report
    i, j = report["worst_pair"]
    table = check_bank(haar(16)).pairwise_residuals
    assert i < j and report["worst_pairwise"] == table[i, j] == table[~np.eye(16, dtype=bool)].max()
    code, rep = run_json(capsys, ["check", "--fixture", "shannon"])
    assert code == 0 and rep["info"]["check_report"]["grid_size"] == 4096
    assert "worst_shift" not in rep["info"]["check_report"]


def test_check_broken_bank_exits_one(tmp_path, capsys):
    d = ser.bank_to_dict(haar(2))
    d["filters"][1]["coeffs"] = [[0.5, 0.0], [-0.5, 0.0]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(d))
    code, rep = run_json(capsys, ["check", str(path)])
    assert code == 1
    assert rep["verdicts"]["unitary"] is False


def test_check_missing_file_exits_two(capsys):
    assert run(["check", "nope.json"]) == 2


def test_unknown_flag_exits_two():
    assert run(["check", "--frobnicate"]) == 2


def test_unknown_fixture_exits_two(capsys):
    assert run(["fixtures", "wavelettron"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown fixture 'wavelettron'" in captured.err


def test_fixtures_writes_verified_bank(tmp_path, capsys):
    out = tmp_path / "db4.json"
    code, rep = run_json(capsys, ["fixtures", "db4", "--out-bank", str(out)])
    assert code == 0 and rep["verdicts"]["verified"]
    assert rep["artifacts"] == [str(out)]
    code2, rep2 = run_json(capsys, ["check", str(out)])
    assert code2 == 0


def test_decompose_report(capsys):
    code, rep = run_json(capsys, ["decompose", "--scale", "2", "--digits", "0,1",
                                  "--window", "64"])
    assert code == 0
    assert rep["info"]["n_components"] == 2
    assert sorted(rep["info"]["cycles"]) == [[-1], [0]]


@pytest.mark.parametrize("scale, digits", [(3, (0, 4, -4)), (2, (0, 7)), (4, (5, -2, 3, 0))])
def test_decompose_report_is_the_oracle_decomposition(scale, digits, capsys):
    # the cycles come from one flat table; the report must read as the
    # breadth-first decomposition of the point-walk cycles
    from test_permutative import bfs_decompose_oracle

    mono = perm.MonomialRep(scale, digits)
    expected = bfs_decompose_oracle(mono, -64, 64)
    code, rep = run_json(capsys, ["decompose", "--scale", str(scale),
                                  "--digits", ",".join(map(str, digits)), "--window", "64"])
    assert code == 0 and rep["info"] == {
        "cycles": [list(c) for c, _ in expected],
        "n_components": len(expected),
        "window": [-64, 64],
        "components": [
            {"cycle": list(c), "members_in_window": members,
             "description": f"closure of cycle {c} under k -> {scale}k + d, d in {digits}"}
            for c, members in expected],
    }


def test_decompose_bad_digits_exits_two(capsys):
    assert run(["decompose", "--scale", "2", "--digits", "0,banana"]) == 2


def test_decompose_invalid_digit_system_exits_two(capsys):
    # digits congruent modulo the scale are outside the input contract, as
    # `fixtures monomial(0,2)` has it: exit 2 and no report
    assert run(["decompose", "--scale", "2", "--digits", "0,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "incongruent" in captured.err


def test_one_input_error_class():
    from waverep import laurent

    assert laurent.InputError is ser.InputError is cli.InputError
    assert issubclass(laurent.InputError, ValueError)


def test_decompose_at_the_digit_bound(capsys):
    code, rep = run_json(capsys, ["decompose", "--scale", "3", "--digits", "0,1,131072",
                                  "--window", "0"])  # cycle radius 65536, the cap
    assert code == 0 and rep["verdicts"] == {"partition": True}


def _mirror_the_funnel(monkeypatch):
    """A defect: mode k takes the label of -k."""
    funnel = perm._funnel

    def mirrored(rep, radius):
        cycles, label = funnel(rep, radius)
        return cycles, label[::-1].copy()

    monkeypatch.setattr(perm, "_funnel", mirrored)


def test_decompose_exits_one_when_the_funnel_breaks_forward_invariance(monkeypatch, capsys):
    _mirror_the_funnel(monkeypatch)
    code, rep = run_json(capsys, ["decompose", "--scale", "2", "--digits", "0,1",
                                  "--window", "8"])
    # k -> 2k maps the mirrored halves into themselves; k -> 2k + 1 sends 0,
    # labelled like 0, to 1, labelled like -1
    assert code == 1 and rep["verdicts"] == {"partition": False}
    assert rep["info"]["split_digit"] == 1


def test_index_reports_rejected_candidates(capsys):
    code, rep = run_json(capsys, ["index", "--fixture", "db4", "--window", "64"])
    assert code == 0
    # db4 spans degrees 0..5: T = [-5, 0], whose 6 modes all lie inside the
    # disk, and R = 5 is the bound --window is checked against
    assert rep["info"]["rejected"] == {"failed_validation": 0, "inside_disk": 6}
    assert rep["info"]["window_modes"] == [-5, 0] and rep["info"]["window"] == 5


def test_index_says_which_solution_holds_its_worst_residual(monkeypatch, capsys):
    # no solution, no location; then the index_in_range defect (every
    # eigenvalue with |lambda| >= 0.01 kept unvalidated) gives db4 six
    # solutions with distinct residuals, recomputed here by the exact action
    code, rep = run_json(capsys, ["index", "--fixture", "db4"])
    assert code == 0 and "worst" not in rep["info"]
    monkeypatch.setattr(idx, "LAMBDA_DISK_TOL", 0.99)
    monkeypatch.setattr(idx, "VALIDATE_TOL", math.inf)
    code, rep = run_json(capsys, ["index", "--fixture", "db4"])
    info, filters = rep["info"], fixtures.db4().filters
    got = []
    for lam, sol in zip(info["eigenvalues"], info["solutions"]):
        phi, lam = ser.poly_from_dict(sol), complex(*lam)
        got.append((idx.combined_isometry_apply(filters, phi) - lam * phi).norm2())
    assert code == 1 and len(got) == 6 == len(set(got))
    j = int(np.argmax(got))
    assert info["worst"] == {"max_solution_residual": {"solution": j,
                                                       "eigenvalue": info["eigenvalues"][j]}}
    assert rep["residuals"]["max_solution_residual"] == pytest.approx(got[j], rel=1e-9)


def test_index_fixture(capsys):
    code, rep = run_json(capsys, ["index", "--fixture", "haar2", "--window", "32"])
    assert code == 0
    assert rep["info"]["index"] == 2
    assert rep["info"]["haar_component"] is True
    assert rep["residuals"]["pairing_constancy"] < 1e-10


def test_index_at_scale_three(tmp_path, capsys):
    # haar3 fixes 1 and 1/z, and a seeded scale-3 factor product has no
    # unitary part; the index <= 2 verdict belongs to scale 2, so neither
    # report has a verdict; a grid bank has no coefficients to solve on
    code, rep = run_json(capsys, ["index", "--fixture", "haar3"])
    assert code == 0 and rep["verdicts"] == {} and rep["info"]["index"] == 2
    bank = fixtures.random_paraunitary_bank(3, 2, np.random.default_rng(0))
    path = _write(tmp_path, "bank3.json", ser.bank_to_dict(bank))
    code, rep = run_json(capsys, ["index", "--bank", path])
    assert code == 0 and rep["verdicts"] == {} and rep["info"]["index"] == 0
    grid = {"scale": 3, "kind": "grid", "filters": [{"M": 63, "values": [[1.0, 0.0]] * 63}] * 3}
    assert run(["index", "--bank", _write(tmp_path, "grid3.json", grid)]) == 2


def _planted_bank_file(tmp_path):
    """Polyphase diag(w^6, w^-5): degrees -9..12, so R = 12, and index 2."""
    a, b = LaurentPoly.monomial(12), LaurentPoly.monomial(-9)
    bank = FilterBank(2, ((a + b) * (1 / math.sqrt(2.0)), (a - b) * (1 / math.sqrt(2.0))))
    return _write(tmp_path, "planted.json", ser.bank_to_dict(bank))


@pytest.mark.parametrize("window", [4, 8, 10])
def test_index_below_the_bank_window_exits_two(window, tmp_path, capsys):
    # the solve on a window below R reported index 0, 0 and 1 here
    assert run(["index", "--bank", _planted_bank_file(tmp_path), "--window", str(window)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "R = 12" in captured.err


@pytest.mark.parametrize("window", [None, 12, 64])
def test_index_is_solved_on_the_bank_window(window, tmp_path, capsys):
    argv = ["index", "--bank", _planted_bank_file(tmp_path)]
    code, rep = run_json(capsys, argv + ([] if window is None else ["--window", str(window)]))
    assert code == 0 and rep["info"]["index"] == 2 and rep["info"]["window"] == 12
    assert rep["info"]["window_modes"] == [-12, 9]  # degrees -9..12
    assert rep["inputs"]["window"] == (idx.WINDOW_MAX if window is None else window)


def test_wold_fixture(capsys):
    code, rep = run_json(capsys, ["wold", "--fixture", "haar2", "--index", "0"])
    assert code == 0
    assert rep["info"]["unitary_dim"] == 0
    code, rep = run_json(capsys, ["wold", "--fixture", "monomial(0,1)", "--index", "0"])
    assert code == 0
    assert rep["info"]["unitary_dim"] == 1
    assert rep["info"]["eigenvalue"] == [1.0, 0.0]


def test_wold_shannon_lowpass_has_no_unitary_part(capsys):
    # the half-band indicator takes sqrt(2) and 0, so it is not unimodular
    code, rep = run_json(capsys, ["wold", "--fixture", "shannon"])
    assert code == 0 and rep["verdicts"] == {"isometry": True, "consistent": True}
    assert rep["info"]["unitary_dim"] == 0 and "eigenvalue" not in rep["info"]
    assert rep["info"]["grid_sizes"] == [4095] and rep["residuals"]["unimodularity"] == 1.0


def test_wold_shift_check(capsys):
    code, rep = run_json(capsys, ["wold", "--fixture", "db4", "--shift-check"])
    assert code == 0 and rep["verdicts"]["all_shifts"] is True
    code, rep = run_json(capsys, ["wold", "--fixture", "monomial(0,1)", "--shift-check"])
    assert code == 1 and rep["verdicts"]["all_shifts"] is False


def test_cascade_with_csv_and_per(tmp_path, capsys):
    csv = tmp_path / "phi.csv"
    code, rep = run_json(capsys, [
        "cascade", "--fixture", "haar2", "--per", "64", "--csv", str(csv),
        "--t-max", "8pi",
    ])
    assert code == 0
    assert rep["verdicts"]["value_at_zero"] and rep["verdicts"]["periodization"]
    assert rep["residuals"]["per_residual"] < 1e-3
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,re,im,abs"
    assert len(lines) == rep["info"]["samples"] + 1
    cols = lines[1].split(",")
    assert len(cols) == 4 and float(cols[0]) == pytest.approx(-8 * math.pi)


def _stretched_haar_file(tmp_path):
    """(1 + z^3)/sqrt(2) and (1 - z^3)/sqrt(2): a unitary bank whose scaling
    function, the box stretched to [0, 3], has no orthonormal translates."""
    c = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    sign = np.array([1.0, 1.0, 1.0, -1.0])
    bank = FilterBank(2, (LaurentPoly(c), LaurentPoly(c * sign)))
    return _write(tmp_path, "stretched.json", ser.bank_to_dict(bank))


def test_stretched_haar_is_verified_but_fails_periodization(tmp_path, capsys):
    path = _stretched_haar_file(tmp_path)
    code, rep = run_json(capsys, ["check", path])
    assert code == 0 and rep["verdicts"] == {"unitary": True}
    code, rep = run_json(capsys, ["cascade", "--bank", path, "--per", "4"])
    assert code == 1 and rep["verdicts"] == {"value_at_zero": True, "periodization": False}
    assert rep["residuals"]["per_residual"] > 0.1


def test_no_flag_moves_the_periodization_tolerance(tmp_path, capsys):
    # a --per-tol of 1 passed the stretched box (per_residual 0.159)
    path = _stretched_haar_file(tmp_path)
    assert run(["cascade", "--bank", path, "--per", "4", "--per-tol", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--per-tol" in captured.err


def test_index_refuses_a_bank_that_check_refuses(tmp_path, capsys):
    # haar2 with m_0 scaled by 1 + 1e-9 (unitarity residual 2e-9): index used
    # to gate at 1e-8 and report index 2
    h = haar(2)
    path = _write(tmp_path, "scaled.json", ser.bank_to_dict(
        FilterBank(2, (h.filters[0] * (1.0 + 1e-9), h.filters[1]))))
    code, rep = run_json(capsys, ["check", path])
    assert code == 1 and rep["verdicts"] == {"unitary": False}
    for argv in (["index", "--bank", path], ["wold", "--bank", path, "--shift-check"]):
        code, rep = run_json(capsys, argv)
        assert code == 1 and rep["verdicts"] == {"ok": False}
        assert "not verified" in rep["info"]["error"]


def test_a_defect_in_a_handler_is_not_a_failed_check(monkeypatch, capsys):
    # exit 1 with {"ok": false} reports a tolerance check's ValueError; any other
    # error is a defect of the program and propagates
    def broken(args):
        raise KeyError("no such entry")

    monkeypatch.setattr(cli, "cmd_check", broken)
    with pytest.raises(KeyError, match="no such entry"):
        run(["check", "--fixture", "haar2"])
    assert capsys.readouterr().out == ""


def test_cascade_deep_scale_three_product(capsys):
    code, rep = run_json(capsys, ["cascade", "--fixture", "haar3", "--depth", "700"])
    assert code == 0 and rep["verdicts"] == {"value_at_zero": True}


@pytest.mark.parametrize("argv", [
    ["--fixture", "db4", "--mother", "2", "--samples", "524289", "--depth", "31"],
    ["--fixture", "haar3", "--mother", "3", "--per", "4"],
])
def test_cascade_refuses_the_mother_index_before_any_product(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("scaling_hat ran")

    monkeypatch.setattr(cli.cas, "scaling_hat", refuse)
    assert run(["cascade", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--mother must be in 1.." in captured.err


def test_cascade_per_grid_at_its_cap_fits_the_samples_cap():
    wide = 2 * 32 * (2 * cli.CASCADE_PER_MAX + 1) + 1  # the --per grid at spacing pi/32
    assert wide <= cli.CASCADE_SAMPLES_MAX < wide + 2 * 32 * 2


@pytest.mark.parametrize("argv, work", [
    (["--samples", "4097"], 20 * 4097),
    (["--samples", "4097", "--mother", "1"], 2 * 20 * 4097),
    (["--samples", "4097", "--per", "4", "--depth", "7"], 7 * (4097 + 128 * 4 + 65)),
    (["--samples", "4097", "--per", "4", "--mother", "1"], 2 * 20 * (4097 + 128 * 4 + 65)),
])
def test_cascade_work_cap_is_inclusive(argv, work, monkeypatch, capsys):
    argv = ["cascade", "--fixture", "db4", *argv]
    monkeypatch.setattr(cli, "CASCADE_WORK_MAX", work)
    code, rep = run_json(capsys, argv)
    assert code in (0, 1) and "error" not in rep["info"]  # the mother fails periodization
    assert rep["verdicts"]["value_at_zero"] is True
    monkeypatch.setattr(cli, "CASCADE_WORK_MAX", work - 1)
    assert run(argv) == 2
    assert str(work) in capsys.readouterr().err


@pytest.mark.parametrize("bank, weight", [
    (["--fixture", "haar8"], 1),
    (["--fixture", "haar9"], 2),
    (["--fixture", "haar16"], 2),
    (["--fixture", "haar17"], 3),
    (["--fixture", "haar256"], 32),
    (["--fixture", "shannon"], 1),
    ("grid", 1),
])
def test_cascade_work_cap_weights_polynomial_taps(bank, weight, tmp_path, monkeypatch, capsys):
    if bank == "grid":
        bank = ["--bank", _grid_bank_file(tmp_path)]
    argv = ["cascade", *bank, "--depth", "2", "--samples", "257"]
    work = 2 * 257 * weight
    monkeypatch.setattr(cli, "CASCADE_WORK_MAX", work)
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["verdicts"]["value_at_zero"] is True
    monkeypatch.setattr(cli, "CASCADE_WORK_MAX", work - 1)
    assert run(argv) == 2
    assert str(work) in capsys.readouterr().err


def test_cascade_per_reports_the_grid_it_builds(capsys):
    # samples and t_max describe the --samples grid, which this run never builds
    code, rep = run_json(capsys, ["cascade", "--fixture", "db4", "--per", "4",
                                  "--samples", "1001", "--t-max", "2pi"])
    assert code == 0 and rep["info"]["per_samples"] == 577
    assert rep["info"]["per_t_max"] == pytest.approx(9 * math.pi, rel=1e-15)
    assert rep["info"]["samples"] == 1001 and rep["info"]["t_max"] == pytest.approx(2 * math.pi)
    _, rep = run_json(capsys, ["cascade", "--fixture", "db4"])
    assert "per_samples" not in rep["info"] and "per_t_max" not in rep["info"]


def test_cascade_rejects_bad_lowpass_exits_one(capsys):
    code, rep = run_json(capsys, ["cascade", "--fixture", "monomial(0,1)"])
    assert code == 1
    assert "error" in rep["info"]


@pytest.mark.parametrize("bank", [["--fixture", "db4"], ["--fixture", "shannon"], "grid"])
def test_cascade_per_alone_evaluates_only_its_own_grid(bank, tmp_path, monkeypatch, capsys):
    # nothing reads the --samples grid without --csv or --mother, and the
    # --per grid holds t = 0, so the report is the one that evaluates both
    if bank == "grid":
        bank = ["--bank", _grid_bank_file(tmp_path)]
    product, sizes = cli.cas.truncated_product, []

    def counting(lowpass, scale, t, depth):
        sizes.append(len(t))
        return product(lowpass, scale, t, depth)

    monkeypatch.setattr(cli.cas, "truncated_product", counting)
    argv = ["cascade", *bank, "--per", "4"]
    code, rep = run_json(capsys, argv)
    per_grid = 2 * 32 * (2 * 4 + 1) + 1
    assert sizes == [per_grid] and rep["info"]["samples"] == 4097
    sizes.clear()
    code_csv, rep_csv = run_json(capsys, [*argv, "--csv", str(tmp_path / "phi.csv")])
    assert sizes == [4097, per_grid] and code_csv == code
    for key in ("verdicts", "residuals", "info"):
        assert rep[key] == rep_csv[key]
    assert rep["info"]["approximate"] is (bank[0] == "--bank")


def _planted_bank(kind, i, j):
    """A seeded unitary N = 4 bank with m_j moved by 1e-3 m_i, of the given kind:
    the pair (i, j) is then its one off-diagonal defect."""
    bank = fixtures.random_paraunitary_bank(4, 2, np.random.default_rng(7))
    filters = list(bank.filters)
    filters[j] = filters[j] + filters[i] * 1e-3
    if kind == "grid":
        return FilterBank(4, tuple(sample(f, CircleGrid(64)) for f in filters))
    if kind == "callable":
        return FilterBank(4, tuple(angle_rule(f) for f in filters))
    return FilterBank(4, tuple(filters))


@pytest.mark.parametrize("kind", ["poly", "grid", "callable"])
@pytest.mark.parametrize("i, j", [(0, 3), (1, 2), (2, 3)])
def test_check_locates_a_planted_worst_pair(kind, i, j, tmp_path, monkeypatch, capsys):
    bank = _planted_bank(kind, i, j)
    if kind == "callable":  # no file holds a callable; it comes in as a fixture
        monkeypatch.setattr(fixtures, "fixture_bank", lambda name: bank)
        argv = ["check", "--fixture", "planted"]
    else:
        argv = ["check", _write(tmp_path, "planted.json", ser.bank_to_dict(bank))]
    code, rep = run_json(capsys, argv)
    report = rep["info"]["check_report"]
    table = check_bank(bank).pairwise_residuals
    assert code == 1 and rep["info"]["kind"] == kind and "pairwise_residuals" not in report
    assert report["worst_pair"] == [i, j] and report["worst_pairwise"] == table[i, j]
    others = np.triu(table, 1)
    others[i, j] = 0.0
    assert table[i, j] > 1e-4 > np.max(others)


def test_complete_roundtrip(tmp_path, capsys):
    lp = tmp_path / "m0.json"
    lp.write_text(json.dumps(ser.filter_to_dict(haar(2).filters[0])))
    bank_out = tmp_path / "bank.json"
    code, rep = run_json(capsys, ["complete", "--lowpass", str(lp), "--scale", "2",
                                  "--out-bank", str(bank_out)])
    assert code == 0 and rep["verdicts"]["unitary"]
    d = json.loads(bank_out.read_text())
    assert d["kind"] == "poly" and len(d["filters"]) == 2


def test_equiv_command(tmp_path, capsys):
    g = CircleGrid.dynamics_grid(2)
    u1 = tmp_path / "u1.json"
    u2 = tmp_path / "u2.json"
    u3 = tmp_path / "u3.json"
    u1.write_text(json.dumps(ser.gridfunction_to_dict(GridFunction(g, np.ones(g.M)))))
    u2.write_text(json.dumps(ser.gridfunction_to_dict(GridFunction(g, g.points()))))
    rng = np.random.default_rng(17)
    u3.write_text(json.dumps(ser.gridfunction_to_dict(
        GridFunction(g, np.exp(2j * np.pi * rng.random(g.M))))))
    code, rep = run_json(capsys, ["equiv", "--u1", str(u1), "--u2", str(u2), "--scale", "2"])
    assert code == 0 and rep["verdicts"]["equivalent"]
    assert rep["residuals"]["intertwining"] < 1e-9
    code, rep = run_json(capsys, ["equiv", "--u1", str(u1), "--u2", str(u3), "--scale", "2"])
    assert code == 1 and not rep["verdicts"]["equivalent"]


def test_dilate_random_family(capsys):
    code, rep = run_json(capsys, ["dilate", "--lam", "0.5", "--fock-depth", "6",
                                  "--gram-depth", "3"])
    assert code == 0
    assert all(rep["verdicts"].values())
    assert rep["residuals"]["fock_defect"] == pytest.approx(0.5 ** 14, abs=1e-12)


def test_dilate_family_file(tmp_path, capsys):
    from waverep.dilation import DIM_MAX, random_coisometry

    fam = random_coisometry(3, 2, np.random.default_rng(3))
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(ser.family_to_dict(fam)))
    code, rep = run_json(capsys, ["dilate", "--family", str(path), "--lam", "0.3"])
    assert code == 0
    assert rep["info"]["ops"] == 3 and rep["info"]["dim"] == 2


def test_dilate_non_coisometric_family_exits_one(tmp_path, capsys):
    # a mathematical failure, not an input error: exit 1, not 2
    d = ser.family_to_dict(random_coisometry(2, 3, np.random.default_rng(0)))
    d["V"] = (1.1 * np.asarray(d["V"])).tolist()
    code, rep = run_json(capsys, ["dilate", "--family", _write(tmp_path, "fam.json", d)])
    assert code == 1 and rep["verdicts"] == {"ok": False}
    assert "differs from the identity" in rep["info"]["error"]


def test_dilate_at_the_fock_depth_bound(capsys):
    depth = cli.FOCK_DEPTH_MAX
    code, rep = run_json(capsys, ["dilate", "--lam", "0.5", "--fock-depth", str(depth)])
    assert code == 0 and all(rep["verdicts"].values())
    assert rep["info"]["fock_dim"] == 3 * (2 ** (depth + 1) - 1)


def _reverse_the_word_order(monkeypatch):
    """A defect: the depth-2 Fock model with every word read backwards, so that
    W's row of the word ij holds the block of ji."""
    model = dil._fock_model

    def reversed_model(fam, lam, depth):
        w, annihilate, d = model(fam, lam, depth)
        words = [x for k in range(d + 1) for x in itertools.product(range(fam.n_ops), repeat=k)]
        return w[[words.index(x[::-1]) for x in words]], annihilate, d

    monkeypatch.setattr(dil, "_fock_model", reversed_model)


def test_dilate_checks_catch_a_reversed_word_order(monkeypatch, capsys):
    argv = ["dilate", "--lam", "0.5", "--fock-depth", "6"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["residuals"]["intertwining"] <= 1e-10 and rep["residuals"]["state_gap"] <= 1e-12
    _reverse_the_word_order(monkeypatch)
    code, rep = run_json(capsys, argv)
    assert code == 1
    assert not rep["verdicts"]["intertwining"] and not rep["verdicts"]["state_consistent"]
    assert rep["residuals"]["intertwining"] > 1e-10 and rep["residuals"]["state_gap"] > 1e-12
    assert rep["verdicts"]["gram_psd"] and rep["verdicts"]["fock_defect_matches"]


def test_one_fock_model_per_dilate_report(monkeypatch, capsys):
    from waverep import dilation as dil

    model, calls = dil._fock_model, []

    def counting(*args):
        calls.append(args[1:])
        return model(*args)

    monkeypatch.setattr(dil, "_fock_model", counting)
    code, rep = run_json(capsys, ["dilate", "--lam", "0.5", "--fock-depth", "6"])
    assert code == 0 and calls == [(0.5 + 0j, 6)]
    # the one model gives the same residuals as the standalone checks
    fam = random_coisometry(2, 3, np.random.default_rng(0))
    words = [dil.Word(), dil.Word(up=(0,), down=(0,)), dil.Word(up=(0, 1), down=(0,))]
    monkeypatch.setattr(dil, "_fock_model", model)
    assert rep["residuals"]["intertwining"] == dil.fock_embedding(fam, 0.5, 6).intertwining_residual
    assert rep["residuals"]["state_gap"] == dil.fock_embedding(fam, 0.5, 6, words).state_gap


def test_wire_integers_may_be_integral_floats(tmp_path, capsys):
    g = CircleGrid.dynamics_grid(2)
    u = ser.gridfunction_to_dict(GridFunction(g, np.ones(g.M)))
    u1 = _write(tmp_path, "u1.json", {**u, "M": float(g.M)})
    code, rep = run_json(capsys, ["equiv", "--u1", u1, "--u2", _write(tmp_path, "u2.json", u),
                                  "--scale", "2"])
    assert code == 0 and rep["verdicts"]["equivalent"]


def test_report_goes_to_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["--out", str(out), "index", "--fixture", "haar2", "--window", "32"])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["info"]["index"] == 2


def test_reports_are_deterministic(capsys):
    _, rep1 = run_json(capsys, ["index", "--fixture", "haar2", "--window", "32"])
    _, rep2 = run_json(capsys, ["index", "--fixture", "haar2", "--window", "32"])
    rep1.pop("elapsed")
    rep2.pop("elapsed")
    assert rep1 == rep2


def test_consecutive_runs_share_no_flags(capsys):
    # the parser is built once per process; each run's inputs are its own flags
    # and the defaults, as a fresh parser reads them
    runs = [
        ["--seed", "5", "dilate", "--lam", "0.4", "--fock-depth", "3"],
        ["dilate"],
        ["cascade", "--fixture", "haar2", "--samples", "5", "--depth", "3", "--per", "2"],
        ["cascade", "--fixture", "haar2", "--samples", "7"],
        ["decompose", "--scale", "3", "--digits", "0,4,-4", "--window", "3"],
        ["decompose", "--scale", "2", "--digits", "0,1"],
    ]
    for argv in runs:
        _, rep = run_json(capsys, argv)
        fresh = vars(cli.build_parser().parse_args(argv))
        assert rep["inputs"] == {k: v for k, v in fresh.items() if v is not None}


def test_handlers_are_looked_up_at_call_time(monkeypatch, capsys):
    run(["fixtures", "haar2"])  # builds the parser
    capsys.readouterr()
    calls = []
    handler = cli.cmd_fixtures

    def wrapped(args):
        calls.append(args.name)
        return handler(args)

    monkeypatch.setattr(cli, "cmd_fixtures", wrapped)
    code, _ = run_json(capsys, ["fixtures", "db4"])
    assert code == 0 and calls == ["db4"]


def test_seed_echoed_in_report(capsys):
    code, rep = run_json(capsys, ["--seed", "5", "dilate", "--lam", "0.4"])
    assert code == 0
    assert rep["inputs"]["seed"] == 5


def _grid_bank_file(tmp_path, m=64):
    g = CircleGrid(m)
    bank = ser.bank_to_dict(FilterBank(2, tuple(sample(f, g) for f in haar(2).filters)))
    path = tmp_path / f"grid_bank_{m}.json"
    path.write_text(json.dumps(bank))
    return str(path)


def _untagged_file(tmp_path, d):
    path = tmp_path / "filter.json"
    path.write_text(json.dumps(d))
    return str(path)


def _ones(m):
    """The constant 1 on the m-point grid, as a grid filter or cocycle file holds it."""
    return {"M": m, "values": [[1.0, 0.0]] * m}


def _bytes_file(tmp_path, data):
    path = tmp_path / "raw.json"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("case", [
    "poly_bank_with_grid_size",
    "grid_bank_size_not_divisible_by_scale",
    "filter_without_coeffs_or_values",
    "filter_not_an_object",
    "wold_index_above_scale",
    "wold_index_negative",
    "decompose_scale_one",
    "complete_scale_one",
    "equiv_scale_one",
    "index_window_negative",
    "index_window_above_cap",
    "index_window_below_k0",
    "decompose_window_negative",
    "decompose_window_above_cap",
    "decompose_digits_above_cap",
    "decompose_digits_above_cap_scale_three",
    "dilate_gram_depth_above_word_cap",
    "dilate_gram_depth_zero",
    "dilate_fock_depth_zero",
    "dilate_random_dim_zero",
    "dilate_ops_zero",
    "cascade_samples_one",
    "cascade_t_max_nan",
    "cascade_t_max_inf",
    "cascade_mother_above_scale",
    "cascade_per_negative",
    "cascade_t_max_zero",
    "cascade_t_max_negative",
    "cascade_depth_zero",
    "cascade_depth_negative",
    "cascade_depth_above_cap",
    "cascade_samples_above_cap",
    "cascade_per_above_cap",
    "cascade_per_tol_nan",
    "cascade_per_tol_zero",
    "cascade_per_tol_infinite",
    "cascade_work_depth_times_samples",
    "cascade_work_depth_times_per_grid",
    "cascade_work_doubled_by_mother",
    "dilate_lam_nan",
    "dilate_lam_inf",
    "dilate_lam_one",
    "dilate_lam_minus_one",
    "dilate_lam_two",
    "dilate_lam_not_a_number",
    "dilate_fock_depth_above_bound",
    "dilate_random_dim_above_cap",
    "dilate_ops_above_fock_word_cap",
    "dilate_family_dim_above_cap",
    "check_haar_fixture_above_cap",
    "fixtures_haar_far_above_cap",
    "fixtures_haar_scale_one",
    "out_in_missing_dir",
    "out_is_a_directory",
    "out_bank_in_missing_dir",
    "csv_in_missing_dir",
    "check_bank_is_a_directory",
    "equiv_input_is_a_directory",
    "bank_file_not_utf8",
    "cascade_work_weighted_by_taps",
    "check_three_filters_at_scale_two",
    "check_scale_one_bank",
    "check_grid_bank_on_two_grids",
    "complete_grid_size_not_divisible_by_scale",
    "wold_filter_grid_size_not_coprime_to_two",
    "wold_filter_grid_size_not_coprime_to_three",
    "wold_grid_bank_size_not_coprime_to_scale",
    "equiv_cocycles_on_two_grids",
    "equiv_cocycle_grid_not_coprime_to_scale",
    "decompose_congruent_digits",
    "decompose_digit_count_not_scale",
    "check_file_and_fixture",
    "index_bank_and_fixture",
    "wold_filter_and_fixture",
    "wold_filter_without_scale",
    "input_file_empty",
    "cascade_depth_not_an_integer",
    "cascade_t_max_span_overflows",
    # flags that the chosen source leaves unread
    "wold_filter_with_bank_flags",
    "wold_bank_with_scale",
    "dilate_family_with_random_flags",
    "cascade_per_t_max_span_overflows",
    "cascade_grid_bank_size_not_divisible_by_scale",
    # degrees beyond laurent.DEGREE_MAX, where no evaluation has a correct digit
    "complete_lowpass_degree_above_bound",
    "fixtures_monomial_digit_above_bound",
    "check_monomial_fixture_digit_above_bound",
    "cascade_bank_degree_above_bound",
    "check_bank_max_degree_above_bound",
    "dilate_ops_above_word_cap",
    # JSON true and false inside [re, im] pairs, which numpy reads as 1 and 0
    "filter_pair_with_a_boolean",
    "filter_pair_of_booleans",
])
def test_input_errors_exit_two(case, tmp_path, capsys):
    bank = ser.bank_to_dict(haar(2))
    argv = {
        # check has no --grid-size: every bank is checked on the grid it fixes
        "poly_bank_with_grid_size": lambda: ["check", "--fixture", "db4", "--grid-size", "64"],
        "grid_bank_size_not_divisible_by_scale": lambda: ["check", _grid_bank_file(tmp_path, 63)],
        "filter_without_coeffs_or_values": lambda: [
            "complete", "--lowpass", _untagged_file(tmp_path, {"M": 4}), "--scale", "2"],
        "filter_not_an_object": lambda: [
            "wold", "--filter", _untagged_file(tmp_path, [[1.0, 0.0]]), "--scale", "2"],
        "wold_index_above_scale": lambda: ["wold", "--fixture", "haar2", "--index", "5"],
        "wold_index_negative": lambda: ["wold", "--fixture", "haar2", "--index", "-1"],
        "decompose_scale_one": lambda: ["decompose", "--scale", "1", "--digits", "0"],
        "complete_scale_one": lambda: [
            "complete", "--lowpass", _untagged_file(tmp_path, {"coeffs": [[1.0, 0.0]]}),
            "--scale", "1"],
        "equiv_scale_one": lambda: [
            "equiv", "--u1", _untagged_file(tmp_path, {"M": 1, "values": [[1.0, 0.0]]}),
            "--u2", _untagged_file(tmp_path, {"M": 1, "values": [[1.0, 0.0]]}), "--scale", "1"],
        "index_window_negative": lambda: ["index", "--fixture", "haar2", "--window", "-3"],
        "index_window_above_cap": lambda: [
            "index", "--fixture", "haar2", "--window", str(idx.WINDOW_MAX + 1)],
        # haar2 has R = 1; the solve on [0, 0] reported index 1
        "index_window_below_k0": lambda: ["index", "--fixture", "haar2", "--window", "0"],
        "decompose_window_negative": lambda: [
            "decompose", "--scale", "2", "--digits", "0,1", "--window", "-5"],
        "decompose_window_above_cap": lambda: [
            "decompose", "--scale", "2", "--digits", "0,1",
            "--window", str(cli.DECOMPOSE_WINDOW_MAX + 1)],
        "decompose_digits_above_cap": lambda: [
            "decompose", "--scale", "2", "--digits", "0,131075"],
        "decompose_digits_above_cap_scale_three": lambda: [
            "decompose", "--scale", "3", "--digits", "0,1,131075", "--window", "0"],
        "dilate_gram_depth_above_word_cap": lambda: ["dilate", "--ops", "2", "--gram-depth", "20"],
        "dilate_gram_depth_zero": lambda: ["dilate", "--gram-depth", "0"],
        "dilate_fock_depth_zero": lambda: ["dilate", "--fock-depth", "0"],
        "dilate_random_dim_zero": lambda: ["dilate", "--random-dim", "0"],
        "dilate_ops_zero": lambda: ["dilate", "--ops", "0"],
        "cascade_samples_one": lambda: ["cascade", "--fixture", "db4", "--samples", "1"],
        "cascade_t_max_nan": lambda: ["cascade", "--fixture", "db4", "--t-max", "nan"],
        "cascade_t_max_inf": lambda: ["cascade", "--fixture", "db4", "--t-max", "infpi"],
        "cascade_mother_above_scale": lambda: ["cascade", "--fixture", "db4", "--mother", "2"],
        "cascade_per_negative": lambda: ["cascade", "--fixture", "db4", "--per", "-1"],
        "cascade_t_max_zero": lambda: ["cascade", "--fixture", "db4", "--t-max", "0"],
        "cascade_t_max_negative": lambda: ["cascade", "--fixture", "db4", "--t-max", "-8pi"],
        "cascade_depth_zero": lambda: ["cascade", "--fixture", "db4", "--depth", "0"],
        "cascade_depth_negative": lambda: ["cascade", "--fixture", "db4", "--depth", "-2"],
        "cascade_depth_above_cap": lambda: [
            "cascade", "--fixture", "db4", "--depth", str(cli.CASCADE_DEPTH_MAX + 1)],
        "cascade_samples_above_cap": lambda: [
            "cascade", "--fixture", "db4", "--samples", str(cli.CASCADE_SAMPLES_MAX + 1)],
        "cascade_per_above_cap": lambda: [
            "cascade", "--fixture", "db4", "--per", str(cli.CASCADE_PER_MAX + 1)],
        # the periodization verdict reads cascade.PER_TOL; --per-tol is an unknown flag
        "cascade_per_tol_nan": lambda: [
            "cascade", "--fixture", "db4", "--per", "4", "--per-tol", "nan"],
        "cascade_per_tol_zero": lambda: [
            "cascade", "--fixture", "db4", "--per", "4", "--per-tol", "0"],
        "cascade_per_tol_infinite": lambda: [
            "cascade", "--fixture", "db4", "--per", "4", "--per-tol", "inf"],
        "cascade_work_depth_times_samples": lambda: [
            "cascade", "--fixture", "db4", "--depth", str(cli.CASCADE_DEPTH_MAX),
            "--samples", str(cli.CASCADE_SAMPLES_MAX)],
        "cascade_work_depth_times_per_grid": lambda: [
            "cascade", "--fixture", "db4", "--depth", str(cli.CASCADE_DEPTH_MAX),
            "--per", str(cli.CASCADE_PER_MAX)],
        "cascade_work_doubled_by_mother": lambda: [
            "cascade", "--fixture", "db4", "--samples", str(cli.CASCADE_SAMPLES_MAX),
            "--mother", "1"],
        "dilate_lam_nan": lambda: ["dilate", "--lam", "nan"],
        "dilate_lam_inf": lambda: ["dilate", "--lam", "inf"],
        "dilate_lam_one": lambda: ["dilate", "--lam", "1"],
        "dilate_lam_minus_one": lambda: ["dilate", "--lam", "-1"],
        "dilate_lam_two": lambda: ["dilate", "--lam", "2"],
        "dilate_lam_not_a_number": lambda: ["dilate", "--lam", "half"],
        "dilate_fock_depth_above_bound": lambda: [
            "dilate", "--fock-depth", str(cli.FOCK_DEPTH_MAX + 1)],
        # 1 + 100 + 100^2 words of the depth-2 Fock model
        "dilate_ops_above_fock_word_cap": lambda: ["dilate", "--ops", "100", "--gram-depth", "1"],
        "dilate_random_dim_above_cap": lambda: [
            "dilate", "--random-dim", str(DIM_MAX + 1)],
        # a valid family, refused for its dim alone
        "dilate_family_dim_above_cap": lambda: ["dilate", "--family", _untagged_file(
            tmp_path, ser.family_to_dict(random_coisometry(
                2, DIM_MAX + 1, np.random.default_rng(0))))],
        "check_haar_fixture_above_cap": lambda: [
            "check", "--fixture", f"haar{fixtures.HAAR_FIXTURE_MAX + 1}"],
        "fixtures_haar_far_above_cap": lambda: ["fixtures", "haar65536"],
        "fixtures_haar_scale_one": lambda: ["fixtures", "haar1"],
        "out_in_missing_dir": lambda: [
            "--out", str(tmp_path / "missing" / "r.json"), "fixtures", "haar2"],
        "out_is_a_directory": lambda: ["--out", str(tmp_path), "fixtures", "haar2"],
        "filter_pair_with_a_boolean": lambda: [
            "wold", "--filter", _untagged_file(tmp_path, {"coeffs": [[1.0, True]]}), "--scale", "2"],
        "filter_pair_of_booleans": lambda: [
            "wold", "--filter", _untagged_file(tmp_path, {"coeffs": [[True, False]]}),
            "--scale", "2"],
        "out_bank_in_missing_dir": lambda: [
            "fixtures", "haar2", "--out-bank", str(tmp_path / "missing" / "b.json")],
        "csv_in_missing_dir": lambda: [
            "cascade", "--fixture", "db4", "--csv", str(tmp_path / "missing" / "c.csv")],
        "check_bank_is_a_directory": lambda: ["check", str(tmp_path)],
        "equiv_input_is_a_directory": lambda: [
            "equiv", "--u1", str(tmp_path), "--u2", str(tmp_path), "--scale", "2"],
        "bank_file_not_utf8": lambda: ["check", _bytes_file(tmp_path, b'{"scale": 2, "\xff": 1}')],
        # 8 x 1048577 values of a 256-tap low-pass, weighted 32
        "cascade_work_weighted_by_taps": lambda: [
            "cascade", "--fixture", "haar256", "--depth", "8", "--samples", "1048577"],
        # preconditions on integers and shapes, each raised where the library checks it
        "check_three_filters_at_scale_two": lambda: [
            "check", _write(tmp_path, "b.json", {**bank, "filters": bank["filters"] * 2})],
        "check_scale_one_bank": lambda: [
            "check", _write(tmp_path, "b.json", {**bank, "scale": 1, "filters": bank["filters"][:1]})],
        "check_grid_bank_on_two_grids": lambda: ["check", _write(tmp_path, "b.json", {
            "scale": 2, "kind": "grid", "filters": [_ones(8), _ones(16)]})],
        "complete_grid_size_not_divisible_by_scale": lambda: [
            "complete", "--lowpass", _write(tmp_path, "f.json", _ones(6)), "--scale", "4"],
        "wold_filter_grid_size_not_coprime_to_two": lambda: [
            "wold", "--filter", _write(tmp_path, "f.json", _ones(6)), "--scale", "2"],
        "wold_filter_grid_size_not_coprime_to_three": lambda: [
            "wold", "--filter", _write(tmp_path, "f.json", _ones(6)), "--scale", "3"],
        "wold_grid_bank_size_not_coprime_to_scale": lambda: [
            "wold", "--bank", _grid_bank_file(tmp_path, 64)],
        "equiv_cocycles_on_two_grids": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", _ones(7)),
            "--u2", _write(tmp_path, "u2.json", _ones(15)), "--scale", "2"],
        "equiv_cocycle_grid_not_coprime_to_scale": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", _ones(8)),
            "--u2", _write(tmp_path, "u2.json", _ones(8)), "--scale", "2"],
        "decompose_congruent_digits": lambda: ["decompose", "--scale", "2", "--digits", "0,2"],
        "decompose_digit_count_not_scale": lambda: ["decompose", "--scale", "3", "--digits", "0,1"],
        # two bank sources: argparse refuses the pair
        "check_file_and_fixture": lambda: [
            "check", _write(tmp_path, "h3.json", ser.bank_to_dict(haar(3))), "--fixture", "db4"],
        "index_bank_and_fixture": lambda: [
            "index", "--bank", _write(tmp_path, "h3.json", ser.bank_to_dict(haar(3))),
            "--fixture", "db4"],
        "wold_filter_and_fixture": lambda: [
            "wold", "--filter", _write(tmp_path, "f.json", ser.filter_to_dict(haar(2).filters[0])),
            "--scale", "2", "--fixture", "db4"],
        "wold_filter_without_scale": lambda: [
            "wold", "--filter", _write(tmp_path, "f.json", ser.filter_to_dict(haar(2).filters[0]))],
        "input_file_empty": lambda: ["check", _bytes_file(tmp_path, b"")],
        "cascade_depth_not_an_integer": lambda: ["cascade", "--fixture", "db4", "--depth", "abc"],
        # a finite t_max whose span 2 t_max overflows would fill the grid with NaN
        "cascade_t_max_span_overflows": lambda: ["cascade", "--fixture", "db4", "--t-max", "1e308"],
        "wold_filter_with_bank_flags": lambda: [
            "wold", "--filter", _write(tmp_path, "f.json", ser.filter_to_dict(haar(2).filters[0])),
            "--scale", "2", "--shift-check", "--index", "1"],
        "wold_bank_with_scale": lambda: ["wold", "--fixture", "haar2", "--scale", "3"],
        "dilate_family_with_random_flags": lambda: [
            "dilate", "--family", _write(tmp_path, "fam.json", ser.family_to_dict(
                random_coisometry(2, 3, np.random.default_rng(0)))),
            "--random-dim", "5", "--ops", "7"],
        # --per alone never builds the --samples grid, whose span it still checks
        "cascade_per_t_max_span_overflows": lambda: [
            "cascade", "--fixture", "db4", "--per", "4", "--t-max", "1e308"],
        # the low-pass has no value at t = pi on 63 points: N | M, checked where the low-pass is
        "cascade_grid_bank_size_not_divisible_by_scale": lambda: [
            "cascade", "--bank", _grid_bank_file(tmp_path, 63)],
        "complete_lowpass_degree_above_bound": lambda: [
            "complete", "--scale", "2",
            "--lowpass", _untagged_file(tmp_path, _shifted(bank, 10**19)["filters"][0])],
        "fixtures_monomial_digit_above_bound": lambda: ["fixtures", f"monomial(0,{2**63 + 1})"],
        "check_monomial_fixture_digit_above_bound": lambda: [
            "check", "--fixture", f"monomial(0,{2**63 + 1})"],
        "cascade_bank_degree_above_bound": lambda: [
            "cascade", "--bank", _write(tmp_path, "b.json", _shifted(bank, 10**19))],
        # the min degree 2^53 is in bounds, the max degree 2^53 + 1 is not
        "check_bank_max_degree_above_bound": lambda: [
            "check", _write(tmp_path, "b.json", _shifted(bank, DEGREE_MAX))],
        # the 1 + N words of length <= 1 exceed dilation.WORD_CAP; the draw of
        # the random family allocated 6.71 GiB before the cap refused them
        "dilate_ops_above_word_cap": lambda: ["dilate", "--ops", "100000000", "--random-dim", "3"],
    }[case]()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def _shifted(bank: dict, degree: int) -> dict:
    """A wire-format poly bank with every filter moved to start at z^degree."""
    return {**bank, "filters": [{**f, "min_degree": degree} for f in bank["filters"]]}


@pytest.mark.parametrize("command", ["check", "cascade"])
def test_a_bank_far_below_degree_zero_evaluates_in_its_taps(command, tmp_path, capsys):
    # (1 +- z)/sqrt(2) z^(-2^40): each evaluation steps once per tap and takes
    # one power of 1/z, where zeros padded up to degree -1 would not fit in memory
    path = _write(tmp_path, "far.json", _shifted(ser.bank_to_dict(haar(2)), -2**40))
    argv = [path] if command == "check" else ["--bank", path, "--samples", "3", "--depth", "1"]
    code, rep = run_json(capsys, [command, *argv])
    assert code == 0 and all(rep["verdicts"].values())


def _filter_and_family_files(tmp_path):
    return {"F": _write(tmp_path, "f.json", ser.filter_to_dict(haar(2).filters[0])),
            "FAM": _write(tmp_path, "fam.json", ser.family_to_dict(
                random_coisometry(2, 3, np.random.default_rng(0))))}


# a flag is refused when given, also at its default value
@pytest.mark.parametrize("argv, message", [
    (["wold", "--filter", "F", "--scale", "2", "--index", "0"],
     "--index cannot be given with --filter"),
    (["wold", "--filter", "F", "--scale", "2", "--shift-check"],
     "--shift-check cannot be given with --filter"),
    (["wold", "--filter", "F", "--scale", "2", "--shift-check", "--index", "1"],
     "--index and --shift-check cannot be given with --filter"),
    (["wold", "--fixture", "haar2", "--scale", "2"], "--scale needs --filter"),
    (["dilate", "--family", "FAM", "--ops", "2"], "--ops cannot be given with --family"),
    (["dilate", "--family", "FAM", "--random-dim", "3"],
     "--random-dim cannot be given with --family"),
    (["wold", "--fixture", "db4", "--shift-check", "--index", "1"],
     "--index cannot be given with --shift-check"),
    (["wold", "--fixture", "db4", "--shift-check", "--index", "0"],
     "--index cannot be given with --shift-check"),
])
def test_unread_flags_are_named(argv, message, tmp_path, capsys):
    files = _filter_and_family_files(tmp_path)
    assert run([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err


def test_flags_a_run_reads_keep_their_reports(tmp_path, capsys):
    # the defaults of the refused flags are still echoed, as before
    files = _filter_and_family_files(tmp_path)
    f, fam = files["F"], files["FAM"]
    runs = [
        (["wold", "--fixture", "db4", "--shift-check"],
         {"fixture": "db4", "index": 0, "scale": 0, "shift_check": True}),
        (["wold", "--fixture", "monomial(3,-2)", "--index", "1"],
         {"fixture": "monomial(3,-2)", "index": 1, "scale": 0, "shift_check": False}),
        (["wold", "--filter", f, "--scale", "2"],
         {"filter": f, "index": 0, "scale": 2, "shift_check": False}),
        (["dilate", "--family", fam, "--lam", "0.3"],
         {"family": fam, "lam": 0.3, "ops": 2, "random_dim": 3, "fock_depth": 8,
          "gram_depth": 3}),
        (["dilate", "--random-dim", "4"],
         {"lam": 0.5, "ops": 2, "random_dim": 4, "fock_depth": 8, "gram_depth": 3}),
    ]
    for argv, inputs in runs:
        code, rep = run_json(capsys, argv)
        assert code == 0 and rep["inputs"] == {"command": argv[0], "seed": 0, **inputs}


def test_grid_bank_on_its_own_grid_size(tmp_path, capsys):
    code, rep = run_json(capsys, ["check", _grid_bank_file(tmp_path)])
    assert code == 0 and rep["info"]["check_report"]["grid_size"] == 64
    assert rep["info"]["check_report"]["coefficient_residual"] is None


def test_untagged_grid_filter_is_read_as_grid(tmp_path, capsys):
    g = CircleGrid(4096)
    d = ser.gridfunction_to_dict(sample(haar(2).filters[0], g))  # {"M", "values"}, no "kind"
    code, rep = run_json(capsys, ["complete", "--lowpass", _untagged_file(tmp_path, d),
                                  "--scale", "2"])
    assert code == 0 and rep["info"]["kind"] == "grid"


def test_check_coarse_grid_cannot_pass_a_broken_polynomial_bank(tmp_path, capsys):
    # z^6 - 1 vanishes on the 6-point grid, which holds the 3-point grid and its rotation by -1
    bump = LaurentPoly.monomial(6) - LaurentPoly.one()
    h = haar(2)
    bad = FilterBank(2, (h.filters[0] + bump * 1e-3, h.filters[1] + bump * 0.5e-3))
    path = tmp_path / "bumped.json"
    path.write_text(json.dumps(ser.bank_to_dict(bad)))
    # its samples on that grid pass the grid screen
    sampled = FilterBank(2, tuple(sample(f, CircleGrid(6)) for f in bad.filters))
    code, rep = run_json(capsys, ["check", _write(tmp_path, "sampled.json",
                                                  ser.bank_to_dict(sampled))])
    assert code == 0 and rep["residuals"]["unitarity"] < 1e-14
    # the polynomial bank is decided by its coefficients, which fail it
    code, rep = run_json(capsys, ["check", str(path)])
    assert code == 1 and rep["verdicts"]["unitary"] is False
    assert rep["residuals"]["unitarity"] == rep["residuals"]["coefficient"] > 1e-3
    assert rep["info"]["check_report"]["coefficient_residual"] == rep["residuals"]["coefficient"]
    assert rep["info"]["check_report"]["grid_size"] is None


def _grid_blind_haar2():
    # z^4096 - 1 vanishes on the default 4096-point check grid
    bump = LaurentPoly.monomial(4096) - LaurentPoly.one()
    h = haar(2)
    return FilterBank(2, (h.filters[0] + bump * 1e-3, h.filters[1] + bump * 0.5e-3))


def test_complete_decides_a_polynomial_bank_by_its_certificate(tmp_path, capsys):
    # the quadrature-mirror gate reads the low-pass's certificate, so it
    # refuses before anything is completed
    lowpass = _grid_blind_haar2().filters[0]
    code, rep = run_json(capsys, ["complete", "--lowpass", _untagged_file(
        tmp_path, ser.filter_to_dict(lowpass)), "--scale", "2"])
    assert code == 1 and "quadrature-mirror identity" in rep["info"]["error"]
    assert qmf_residual(lowpass, 2) > 1e-3
    # the default 4096-point grid misses the bump
    assert qmf_residual(sample(lowpass, default_check_grid(2)), 2) < 1e-14


def test_complete_refuses_a_grid_blind_lowpass_at_scale_3(tmp_path, capsys):
    # 1e-3 of the haar3 low-pass moved from z^0 to z^4098: z^4098 = 1 on the
    # 4098-point grid of a scale-3 completion, so samples there miss the move
    lowpass = haar(3).filters[0] + (LaurentPoly.monomial(4098) - LaurentPoly.one()) * 1e-3
    code, rep = run_json(capsys, ["complete", "--lowpass", _untagged_file(
        tmp_path, ser.filter_to_dict(lowpass)), "--scale", "3"])
    assert code == 1 and "quadrature-mirror identity" in rep["info"]["error"]
    assert qmf_residual(lowpass, 3) > 1e-3
    assert qmf_residual(sample(lowpass, default_check_grid(3)), 3) < 1e-14


@pytest.mark.parametrize("offset", [2**20, 2**31, 2**40, -2**40])
def test_complete_at_scale_3_far_from_degree_zero(offset, tmp_path, capsys):
    # (1 + z)/sqrt(2) z^D satisfies the scale-3 identity exactly; its samples read
    # z_j^D from the table of roots, where a power z^D erred by about D eps
    # (unitarity 1.31e-10 at D = 2^20, 3.98e-4 at D = -2^40, exit 1)
    r = math.sqrt(0.5)
    lowpass = _untagged_file(tmp_path, {"kind": "poly", "min_degree": offset,
                                        "coeffs": [[r, 0.0], [r, 0.0]]})
    code, rep = run_json(capsys, ["complete", "--lowpass", lowpass, "--scale", "3"])
    assert code == 0 and rep["residuals"]["unitarity"] <= 1e-13


def test_fixtures_decides_a_polynomial_bank_by_its_certificate(monkeypatch, capsys):
    monkeypatch.setattr(fixtures, "fixture_bank", lambda name: _grid_blind_haar2())
    code, rep = run_json(capsys, ["fixtures", "bumped"])
    assert code == 1 and rep["verdicts"]["verified"] is False
    assert rep["residuals"]["coefficient"] > 1e-3


def test_wold_decides_a_polynomial_filter_by_its_coefficients(tmp_path, capsys):
    # the grid-blind low-pass deviates from the QMF identity by 5.7e-3 on the circle
    lowpass = _grid_blind_haar2().filters[0]
    code, rep = run_json(capsys, ["wold", "--filter", _write(
        tmp_path, "m0.json", ser.filter_to_dict(lowpass)), "--scale", "2"])
    assert code == 1 and rep["verdicts"]["isometry"] is False
    assert rep["residuals"]["isometry"] == qmf_residual(lowpass, 2) > 1e-3
    assert rep["info"]["unitary_dim"] == 0 and rep["info"]["grid_sizes"] == []
    code, rep = run_json(capsys, ["wold", "--fixture", "haar2"])
    assert code == 0 and rep["info"]["grid_sizes"] == []
    assert rep["residuals"]["unimodularity"] == pytest.approx(1.0, abs=1e-12)


def test_complete_and_fixtures_report_what_check_reports(tmp_path, capsys):
    out = tmp_path / "db4.json"
    _, fixed = run_json(capsys, ["fixtures", "db4", "--out-bank", str(out)])
    _, checked = run_json(capsys, ["check", str(out)])
    assert fixed["residuals"] == {k: checked["residuals"][k] for k in ("unitarity", "coefficient")}
    lp = _untagged_file(tmp_path, ser.filter_to_dict(sample(haar(3).filters[0], CircleGrid(4098))))
    _, completed = run_json(capsys, ["complete", "--lowpass", lp, "--scale", "3"])
    assert completed["info"]["kind"] == "grid" and set(completed["residuals"]) == {"unitarity"}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("case", [
    "bank_without_kind",
    "grid_function_without_M",
    "pair_with_one_number",
    "values_length_not_M",
    "family_rows_shorter_than_dim",
    "nan_coefficient",
    "infinite_grid_value",
    "grid_size_zero",
    "grid_size_negative",
    "grid_size_a_string",
    "grid_size_a_fraction",
    "grid_size_a_boolean",
    "min_degree_a_string",
    "scale_a_string",
    "family_dim_a_string",
])
def test_wire_input_outside_the_contract_exits_two(case, tmp_path, capsys):
    g = CircleGrid.dynamics_grid(2)
    u = ser.gridfunction_to_dict(GridFunction(g, np.ones(g.M)))
    fam = ser.family_to_dict(random_coisometry(2, 3, np.random.default_rng(0)))
    bank = ser.bank_to_dict(haar(2))
    argv = {
        "bank_without_kind": lambda: [
            "check", _write(tmp_path, "b.json", {k: v for k, v in bank.items() if k != "kind"})],
        "grid_function_without_M": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", {"values": u["values"]}),
            "--u2", _write(tmp_path, "u2.json", u), "--scale", "2"],
        "pair_with_one_number": lambda: [
            "wold", "--filter", _write(tmp_path, "f.json", {"min_degree": 0, "coeffs": [[1.0]]}),
            "--scale", "2"],
        "values_length_not_M": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", {"M": g.M, "values": u["values"][:-1]}),
            "--u2", _write(tmp_path, "u2.json", u), "--scale", "2"],
        "family_rows_shorter_than_dim": lambda: [
            "dilate", "--family", _write(tmp_path, "fam.json", {
                **fam, "V": [[row[:-1] for row in mat] for mat in fam["V"]]})],
        "nan_coefficient": lambda: ["check", _write(tmp_path, "b.json", {
            **bank, "filters": [{"min_degree": 0, "coeffs": [[math.nan, 0.0]]}] + bank["filters"][1:]})],
        "infinite_grid_value": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", {
                "M": g.M, "values": [[math.inf, 0.0]] + u["values"][1:]}),
            "--u2", _write(tmp_path, "u2.json", u), "--scale", "2"],
        "grid_size_zero": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", {"M": 0, "values": []}),
            "--u2", _write(tmp_path, "u2.json", {"M": 0, "values": []}), "--scale", "2"],
        "grid_size_negative": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", {"M": -3, "values": []}),
            "--u2", _write(tmp_path, "u2.json", {"M": -3, "values": []}), "--scale", "2"],
        "grid_size_a_string": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", {**u, "M": "abc"}),
            "--u2", _write(tmp_path, "u2.json", u), "--scale", "2"],
        "grid_size_a_fraction": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", {**u, "M": g.M + 0.5}),
            "--u2", _write(tmp_path, "u2.json", u), "--scale", "2"],
        "grid_size_a_boolean": lambda: [
            "equiv", "--u1", _write(tmp_path, "u1.json", {"M": True, "values": [[1.0, 0.0]]}),
            "--u2", _write(tmp_path, "u2.json", u), "--scale", "2"],
        "min_degree_a_string": lambda: [
            "wold", "--filter", _write(tmp_path, "f.json", {"min_degree": "x",
                                                            "coeffs": [[1.0, 0.0]]}),
            "--scale", "2"],
        "scale_a_string": lambda: ["check", _write(tmp_path, "b.json", {**bank, "scale": "two"})],
        "family_dim_a_string": lambda: [
            "dilate", "--family", _write(tmp_path, "fam.json", {**fam, "dim": "3"})],
    }[case]()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_out_bank_files_keep_their_bytes(tmp_path, capsys):
    lowpass = fixtures.fixture_bank("haar3").filters[0]
    lp = tmp_path / "m0.json"
    lp.write_text(json.dumps(ser.filter_to_dict(lowpass)))
    out3 = tmp_path / "bank3.json"
    code, _ = run_json(capsys, ["complete", "--lowpass", str(lp), "--scale", "3",
                                "--out-bank", str(out3)])
    assert code == 0
    bank3 = complete_filterbank(lowpass, 3)
    assert bank3.kind == "grid"
    assert out3.read_text() == json.dumps(ser.bank_to_dict(bank3), sort_keys=True)
    out16 = tmp_path / "haar16.json"
    code, _ = run_json(capsys, ["fixtures", "haar16", "--out-bank", str(out16)])
    assert code == 0
    haar16 = ser.bank_to_dict(fixtures.fixture_bank("haar16"))
    assert out16.read_text() == json.dumps(haar16, sort_keys=True)


def _compact(text):
    """The stdlib's compact encoding of the value of a JSON text."""
    return json.dumps(json.loads(text), sort_keys=True)


def _equiv_argv(tmp_path):
    g = CircleGrid.dynamics_grid(2)
    u1, u2 = (_write(tmp_path, f"u{k}.json", ser.gridfunction_to_dict(GridFunction(g, u)))
              for k, u in ((1, np.ones(g.M)), (2, g.points())))
    return ["equiv", "--u1", u1, "--u2", u2, "--scale", "2"]


@pytest.mark.parametrize("case", ["check_poly", "check_grid", "check_callable", "index_haar2",
                                  "equiv", "dilate", "complete_out_bank"])
def test_reports_are_compact_stdlib_text(case, tmp_path, capsys):
    bank = tmp_path / "bank.json"
    argv = {
        "check_poly": lambda: ["check", "--fixture", "db4"],
        "check_grid": lambda: ["check", _grid_bank_file(tmp_path, 64)],
        "check_callable": lambda: ["check", "--fixture", "shannon"],
        # complex eigenvalues and a pairing matrix through the default hook
        "index_haar2": lambda: ["index", "--fixture", "haar2"],
        "equiv": lambda: _equiv_argv(tmp_path),
        "dilate": lambda: ["dilate", "--fock-depth", "4"],
        "complete_out_bank": lambda: [
            "complete", "--lowpass", _filter_file(tmp_path, haar(3).filters[0]), "--scale", "3",
            "--out-bank", str(bank)],
    }[case]()
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert text == _compact(text) + "\n"
    if case == "complete_out_bank":
        assert bank.read_text() == _compact(bank.read_text())
    # --out writes the text that stdout gets, apart from elapsed and the path
    out = tmp_path / "report.json"
    assert run(["--out", str(out), *argv]) == 0 and capsys.readouterr().out == ""
    got, want = json.loads(out.read_text()), json.loads(text)
    assert out.read_text() == _compact(out.read_text()) + "\n"
    assert got["inputs"].pop("out") == str(out)
    assert {**got, "elapsed": 0} == {**want, "elapsed": 0}


def test_a_nan_residual_is_written_as_nan(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_check", lambda args: (
        {"unitary": False}, {"unitarity": float("nan"), "coefficient": float("inf")}, {}, []))
    assert run(["check", "--fixture", "haar2"]) == 1
    text = capsys.readouterr().out
    assert '"residuals": {"coefficient": Infinity, "unitarity": NaN}' in text
    assert text == _compact(text) + "\n"


def _old_jsonable(x):
    """The recursive walk that run reports went through before the json.dumps hook."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.complexfloating):
        return [float(x.real), float(x.imag)]
    if isinstance(x, np.ndarray):
        return [_old_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _old_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_old_jsonable(v) for v in x]
    return x


def test_report_encoding_matches_the_old_walk():
    report = {
        "z": complex(-0.0, 2.5e-320),
        "m": np.array([[1 - 1j, complex(0.0, -0.0)], [3j, np.pi]]),
        "ints": np.arange(-2, 3, dtype=np.int64),
        "flag": np.bool_(True),
        "x": np.float64(0.1),
        "nested": [np.complex128(1j), (2, np.int64(7)), {"f32": np.float32(0.5)}],
    }
    new = json.dumps(report, indent=2, sort_keys=True, default=cli._json_default)
    # the old walk passed np.bool_ through and json.dumps then raised
    with pytest.raises(TypeError):
        json.dumps(_old_jsonable(report))
    old = json.dumps(_old_jsonable({**report, "flag": True}), indent=2, sort_keys=True)
    assert new == old
    with pytest.raises(TypeError):
        json.dumps({"poly": LaurentPoly.one()}, default=cli._json_default)


def test_wold_filter_reports_the_grid_cocycle_residual(tmp_path, capsys):
    # m = lambda xi / xi(z^2) on a dynamics grid: the report's residual is
    # max |m xi(z^2) - lambda xi| of its own eigenpair, recomputed here
    grid = CircleGrid.dynamics_grid(2)
    rng = np.random.default_rng(12)
    xi = np.exp(2j * np.pi * rng.random(grid.M))
    m = np.exp(0.3j) * xi / xi[grid.multiply_map(2)]
    path = _write(tmp_path, "m.json", ser.gridfunction_to_dict(GridFunction(grid, m)))
    code, rep = run_json(capsys, ["wold", "--filter", path, "--scale", "2"])
    assert code == 0 and rep["info"]["unitary_dim"] == 1
    got = ser.gridfunction_from_dict(rep["info"]["eigenfunction"]).values
    lam = complex(*rep["info"]["eigenvalue"])
    want = float(np.max(np.abs(m * got[grid.multiply_map(2)] - lam * got)))
    assert want > 0 and rep["residuals"]["cocycle"] == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("m, scale", [(4095, 2), (59048, 3)])
def test_grid_residuals_locate_a_planted_defect(m, scale, tmp_path, capsys):
    # the telescope closes each cycle at its last point, whose image is the
    # cycle minimum: a phase planted there, within the arc tolerance, keeps
    # both equations solvable and puts the worst defect at that point
    grid = CircleGrid(m)
    sigma = grid.multiply_map(scale)
    cyc = max(split_cycles(grid, scale), key=len)
    j, kick = int(cyc[-1]), np.exp(0.5j * perm.CYCLE_ARC_TOL * len(cyc))
    rng = np.random.default_rng(m)
    u1, d, xi = (np.exp(2j * np.pi * rng.random(m)) for _ in range(3))
    u2 = d * u1 / d[sigma]
    u2[j] /= kick
    p1, p2 = (_write(tmp_path, f"u{k}.json", ser.gridfunction_to_dict(GridFunction(grid, u)))
              for k, u in ((1, u1), (2, u2)))
    code, rep = run_json(capsys, ["equiv", "--u1", p1, "--u2", p2, "--scale", str(scale)])
    assert code == 0 and rep["info"]["worst"] == {"intertwining": {"point": j}}
    assert rep["residuals"]["intertwining"] > 1e-10
    filt = np.exp(0.3j) * xi / xi[sigma]
    filt[j] *= kick
    path = _write(tmp_path, "m.json", ser.gridfunction_to_dict(GridFunction(grid, filt)))
    code, rep = run_json(capsys, ["wold", "--filter", path, "--scale", str(scale)])
    assert code == 0 and rep["info"]["unitary_dim"] == 1 and rep["residuals"]["cocycle"] > 1e-10
    assert rep["info"]["worst"] == {"cocycle": {"point": j, "cycle_min": int(cyc[0])}}


def test_wold_gives_a_non_isometry_no_unitary_part(tmp_path, capsys):
    # 1 + 5e-9 cos 2 theta: unimodular within 5e-9, but its isometry residual
    # (the modes of |m|^2 at +-2) is 2e-8, above wold.UNIMODULAR_TOL
    grid = CircleGrid(4095)
    theta = 2.0 * np.pi * np.arange(grid.M) / grid.M
    m = GridFunction(grid, 1.0 + 5e-9 * np.cos(2.0 * theta))
    path = _write(tmp_path, "m.json", ser.gridfunction_to_dict(m))
    code, rep = run_json(capsys, ["wold", "--filter", path, "--scale", "2"])
    assert code == 1 and rep["verdicts"]["isometry"] is False
    assert rep["residuals"]["unimodularity"] <= wld.UNIMODULAR_TOL < rep["residuals"]["isometry"]
    assert rep["info"]["unitary_dim"] == 0
    assert "eigenfunction" not in rep["info"] and "eigenvalue" not in rep["info"]


# ---------------------------------------------------------------------------
# every verdict can read false: one row per (subcommand, verdict key), each an
# input that makes that verdict false through cli.run with exit 1.  A verdict
# that no valid input can fail takes a monkeypatched defect, and its row says so.


def _bank_file(tmp_path, *filters):
    return _write(tmp_path, "bank.json", ser.bank_to_dict(FilterBank(len(filters), filters)))


def _filter_file(tmp_path, f):
    return _write(tmp_path, "filter.json", ser.filter_to_dict(f))


def _low_pass_moved(bank):
    """The bank with its low-pass scaled by 1 + 1e-6: unitarity residual about 2e-6."""
    return FilterBank(bank.scale, (bank.filters[0] * (1.0 + 1e-6), *bank.filters[1:]))


def _row_check_unitary(tmp_path, monkeypatch):
    h = haar(2).filters
    return ["check", _bank_file(tmp_path, h[0], LaurentPoly(np.array([0.5, -0.5])))]


def _row_complete_unitary(tmp_path, monkeypatch):
    # defect: the gate refuses any low-pass whose completion could fail, so
    # the completion itself moves the low-pass after the gate
    monkeypatch.setattr(cli, "complete_filterbank",
                        lambda lowpass, scale: _low_pass_moved(complete_filterbank(lowpass, scale)))
    return ["complete", "--lowpass", _filter_file(tmp_path, haar(2).filters[0]), "--scale", "2"]


def _row_cascade_value_at_zero(tmp_path, monkeypatch):
    # (1 + 5e-9)(1 + z)/sqrt(2) passes the low-pass gate (LOWPASS_TOL 1e-8); its
    # depth-20 product at t = 0, read off the --per grid, misses 1/sqrt(2 pi) by 4e-8
    r = 1.0 / math.sqrt(2.0)
    return ["cascade", "--per", "4", "--bank", _bank_file(
        tmp_path, LaurentPoly(np.array([r, r]) * (1.0 + 5e-9)), LaurentPoly(np.array([r, -r])))]


def _row_cascade_periodization(tmp_path, monkeypatch):
    return ["cascade", "--bank", _stretched_haar_file(tmp_path), "--per", "4"]


def _row_wold_all_shifts(tmp_path, monkeypatch):
    return ["wold", "--fixture", "monomial(0,1)", "--shift-check"]


def _row_wold_isometry(tmp_path, monkeypatch):
    # 1.1 (1 + z)/sqrt(2) is not an isometry: its residual is 2 (1.1^2 - 1)
    return ["wold", "--filter", _filter_file(tmp_path, haar(2).filters[0] * 1.1), "--scale", "2"]


def _row_wold_consistent(tmp_path, monkeypatch):
    # e/z + a - e z with a^2 + 2 e^2 = 1: |m|^2 - 1 = -2 e^2 Re z^2 is within
    # the unimodularity bound, yet m is no monomial
    e = 1e-6
    m = LaurentPoly(np.array([e, math.sqrt(1.0 - 2.0 * e * e), -e]), min_degree=-1)
    return ["wold", "--filter", _filter_file(tmp_path, m), "--scale", "2"]


def _row_index_index_in_range(tmp_path, monkeypatch):
    # defect: index <= 2 is a theorem at scale 2, so the solve keeps every
    # eigenpair with |lambda| >= 0.01 unvalidated; db4 then counts 6
    monkeypatch.setattr(idx, "LAMBDA_DISK_TOL", 0.99)
    monkeypatch.setattr(idx, "VALIDATE_TOL", math.inf)
    return ["index", "--fixture", "db4"]


def _row_decompose_partition(tmp_path, monkeypatch):
    _mirror_the_funnel(monkeypatch)  # defect: the funnel labels are forward invariant
    return ["decompose", "--scale", "2", "--digits", "0,1", "--window", "8"]


def _row_equiv_equivalent(tmp_path, monkeypatch):
    g = CircleGrid.dynamics_grid(2)
    phases = np.exp(2j * np.pi * np.random.default_rng(17).random(g.M))
    u1 = _write(tmp_path, "u1.json", ser.gridfunction_to_dict(GridFunction(g, np.ones(g.M))))
    u2 = _write(tmp_path, "u2.json", ser.gridfunction_to_dict(GridFunction(g, phases)))
    return ["equiv", "--u1", u1, "--u2", u2, "--scale", "2"]


def _row_dilate_gram_psd(tmp_path, monkeypatch):
    # defect: a Gram matrix of down-word vectors is PSD, so its eigensolver
    # reads every eigenvalue one unit low
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: eigvalsh(g) - 1.0)
    return ["dilate"]


def _row_dilate_fock_defect_matches(tmp_path, monkeypatch):
    # defect: the Horner defect matches whenever sum V_i V_i* = I, which the
    # family's gate enforces, so the V_i grow by 1% after the gate
    draw = dil.random_coisometry

    def grown(*args):
        fam = draw(*args)
        fam.v, fam.vstar = 1.01 * fam.v, 1.01 * fam.vstar
        return fam

    monkeypatch.setattr(dil, "random_coisometry", grown)
    return ["dilate"]


def _row_dilate_word_order(tmp_path, monkeypatch):
    _reverse_the_word_order(monkeypatch)  # defect: no valid family breaks the model
    return ["dilate", "--lam", "0.5", "--fock-depth", "6"]


def _row_fixtures_verified(tmp_path, monkeypatch):
    # defect: every fixture is unitary, so the fixture's low-pass moves
    build = fixtures.fixture_bank
    monkeypatch.setattr(fixtures, "fixture_bank", lambda name: _low_pass_moved(build(name)))
    return ["fixtures", "db4"]


VERDICT_ROWS = {
    ("check", "unitary"): _row_check_unitary,
    ("complete", "unitary"): _row_complete_unitary,
    ("cascade", "value_at_zero"): _row_cascade_value_at_zero,
    ("cascade", "periodization"): _row_cascade_periodization,
    ("wold", "all_shifts"): _row_wold_all_shifts,
    ("wold", "isometry"): _row_wold_isometry,
    ("wold", "consistent"): _row_wold_consistent,
    ("index", "index_in_range"): _row_index_index_in_range,
    ("decompose", "partition"): _row_decompose_partition,
    ("equiv", "equivalent"): _row_equiv_equivalent,
    ("dilate", "gram_psd"): _row_dilate_gram_psd,
    ("dilate", "fock_defect_matches"): _row_dilate_fock_defect_matches,
    ("dilate", "intertwining"): _row_dilate_word_order,
    ("dilate", "state_consistent"): _row_dilate_word_order,
    ("fixtures", "verified"): _row_fixtures_verified,
}


@pytest.mark.parametrize("command, key", sorted(VERDICT_ROWS))
def test_every_verdict_can_read_false(command, key, tmp_path, monkeypatch, capsys):
    argv = VERDICT_ROWS[command, key](tmp_path, monkeypatch)
    code, rep = run_json(capsys, argv)
    assert code == 1 and rep["command"] == command and rep["verdicts"][key] is False


def _handler_verdict_keys() -> set:
    """(subcommand, key) of every verdict key a cli handler writes: the keys of
    the dicts assigned to `verdicts` or returned first, and of `verdicts[key] =`."""
    keys = set()
    for fn in ast.parse(inspect.getsource(cli)).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        command, verdicts = fn.name[len("cmd_"):], []
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
                verdicts.append(node.value.elts[0])
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and target.id == "verdicts":
                    verdicts.append(node.value)
                elif (isinstance(target, ast.Subscript)
                      and getattr(target.value, "id", "") == "verdicts"):
                    keys.add((command, target.slice.value))
        keys.update((command, k.value) for expr in verdicts for d in ast.walk(expr)
                    if isinstance(d, ast.Dict) for k in d.keys)
    return keys


def test_every_verdict_key_has_a_row():
    keys = _handler_verdict_keys()
    handlers = {name[len("cmd_"):] for name in vars(cli) if name.startswith("cmd_")}
    assert {command for command, _ in keys} == handlers
    assert keys == set(VERDICT_ROWS)
