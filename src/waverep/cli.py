"""Command-line front end: file I/O, report assembly, fixture management.

Every subcommand emits one JSON run report with stable keys

    {"command", "inputs", "verdicts", "residuals", "artifacts", "elapsed"}

to stdout, or to --out when given.  Exit codes: 0 when every verdict is
true, 1 when a mathematical check failed, 2 for a usage error (argparse) or
a laurent.InputError, which the library raises where it checks a precondition;
a handler here raises it only for a check that has no home in the library.
Angle-valued flags accept "8pi"-style literals (a float multiple of pi) as
well as plain floats.  Randomized commands take --seed (default 0), echoed
in the report.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time

import numpy as np

from . import cascade as cas
from . import dilation as dil
from . import fixtures as fix
from . import index as idx
from . import permutative as perm
from . import serialize as ser
from . import wold as wld
from .filterbank import check_bank, complete_filterbank, unitarity_residual, VERIFY_TOL
from .laurent import GridFunction, InputError, LaurentPoly


def parse_angle(text: str) -> float:
    """Parse '8pi', '1.5pi', 'pi', or a plain float, into radians; finite only."""
    s = str(text).strip().lower().replace(" ", "")
    pi = s.endswith("pi")
    head = s[:-2] if pi else s
    try:
        value = float(head + "1" if pi and head in ("", "+", "-") else head)
    except ValueError as e:
        raise InputError(f"cannot parse angle {text!r}") from e
    if not math.isfinite(value):
        raise InputError(f"angle must be finite, got {text!r}")
    return value * math.pi if pi else value


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in lo..hi (argparse turns the error into exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from e
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
        return value
    return parse


def _float_between(lo: float, hi: float):
    """argparse type: a real strictly between lo and hi, so never nan or infinite."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from e
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"must lie strictly between {lo} and {hi}, "
                                             f"got {text!r}")
        return value
    return parse


class _Default(int):
    """An integer flag's default, which a handler tells apart from the same value given."""


def _given(value) -> bool:
    return not isinstance(value, _Default)


def _refuse_unread(flags: dict, source: str) -> None:
    """InputError naming each given flag of `flags` (flag -> given); `source` reads none."""
    given = [flag for flag, on in flags.items() if on]
    if given:
        raise InputError(f"{' and '.join(given)} cannot be given with {source}")


_positive_int = _int_in(1)
_scale = _int_in(2)
# fock_dim = dim (N^(K+1) - 1)/(N - 1) must stay printable: Python writes ints
# of at most 4300 digits, which K <= 1000 keeps for N below 10^4
FOCK_DEPTH_MAX = 1000
# the modes -K..K of a decompose report: about 2 MB of report at the cap; the
# digits' cycle radius max|d| / (N - 1) has the same cap, since the funnel
# runs on the ball of radius max(K, R)
DECOMPOSE_WINDOW_MAX = 65536
# a cascade takes depth x samples filter values; the --per grid has
# 128 K + 65 samples, within the samples cap for K <= 8191
CASCADE_DEPTH_MAX = 1000
CASCADE_SAMPLES_MAX = 1048577
CASCADE_PER_MAX = 8191
# the three caps multiply: depth x (samples + the --per grid's samples), twice
# with --mother, bounds the number of filter values, at about 0.1 us each (a
# --per run that writes no csv and asks no --mother skips the --samples grid);
# a polynomial low-pass weights each value by ceil(taps / 8), since eight
# Horner steps cost about one complex exp
CASCADE_WORK_MAX = 2 ** 25
CASCADE_TAPS_PER_VALUE = 8


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise InputError(f"no such file: {path}") from e
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}") from e


def _write_text(path: str, lines) -> None:
    """Write text pieces to a file; a path that cannot be opened or written is an input error.

    Reports and bank files are encoded before the call, so an encoding error
    cannot leave one half-written.
    """
    try:
        with open(path, "w") as fh:
            fh.writelines(lines)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}") from e


def _load_bank(args) -> "FilterBank":  # argparse requires exactly one source
    return fix.fixture_bank(args.fixture) if args.fixture else ser.bank_from_dict(_load_json(args.bank))


def _json_default(x):
    """json.dumps hook for what json cannot encode: complex values, arrays, numpy scalars."""
    if np.iscomplexobj(x):
        return ser._cvec(x)
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def emit_csv(path: str, samples: cas.LineSamples) -> None:
    rows = (f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r},{float(abs(v))!r}\n"
            for t, v in zip(samples.t_values, samples.values))
    _write_text(path, itertools.chain(["t,re,im,abs\n"], rows))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (verdicts, residuals, info, artifacts)


def _produced_bank(bank, out_bank):
    """Check's verdict on a bank a command builds, from the unitarity residual it
    rests on (check reports a polynomial bank's also as its coefficient
    residual), and artifacts."""
    res = unitarity_residual(bank)
    residuals = {"unitarity": res}
    if bank.kind == "poly":
        residuals["coefficient"] = res
    artifacts = []
    if out_bank:
        _write_text(out_bank, [json.dumps(ser.bank_to_dict(bank), sort_keys=True,
                                          check_circular=False)])
        artifacts.append(out_bank)
    return res <= VERIFY_TOL, residuals, artifacts


def cmd_check(args):
    bank = _load_bank(args)
    rep = check_bank(bank)
    verdicts = {"unitary": rep.verified}
    residuals = {
        "unitarity": rep.unitarity_residual,
        **{f"qmf_{i}": r for i, r in enumerate(rep.qmf_residuals)},
    }
    if rep.coefficient_residual is not None:
        residuals["coefficient"] = rep.coefficient_residual
    # the largest off-diagonal entry of the symmetric N x N table, first in row order
    rows, cols = np.triu_indices(bank.scale, 1)
    worst = int(np.argmax(rep.pairwise_residuals[rows, cols]))
    i, j = int(rows[worst]), int(cols[worst])
    check_report = {
        "qmf_residuals": rep.qmf_residuals,
        "worst_pair": [i, j],
        "worst_pairwise": float(rep.pairwise_residuals[i, j]),
        "unitarity_residual": rep.unitarity_residual,
        "lowpass_ok": rep.lowpass_ok,
        "grid_size": rep.grid_size,
        "worst_point": rep.worst_point,
        "coefficient_residual": rep.coefficient_residual,
    }
    if rep.worst_shift is not None:
        check_report["worst_shift"] = rep.worst_shift
    info = {"scale": bank.scale, "kind": bank.kind, "check_report": check_report}
    return verdicts, residuals, info, []


def cmd_complete(args):
    lowpass = ser.filter_from_dict(_load_json(args.lowpass))
    bank = complete_filterbank(lowpass, args.scale)
    ok, residuals, artifacts = _produced_bank(bank, args.out_bank)
    info = {"kind": bank.kind, "scale": bank.scale}
    if bank.kind == "grid" and not isinstance(lowpass, GridFunction):
        info["note"] = "polynomial completion above scale 2 falls back to grid samples"
    return {"unitary": ok}, residuals, info, artifacts


def cmd_cascade(args):
    bank = _load_bank(args)
    t_max = parse_angle(args.t_max)
    # every route checks the span of the --samples grid, also one that never builds it
    if not (t_max > 0 and math.isfinite(2.0 * t_max)):
        raise InputError(f"--t-max must be positive with a finite span 2 * t_max, "
                         f"got {args.t_max!r}")
    if args.mother >= bank.scale:
        raise InputError(f"--mother must be in 1..{bank.scale - 1}, got {args.mother}")
    per_samples = 2 * 32 * (2 * args.per + 1) + 1 if args.per else 0  # spacing pi/32
    lowpass = bank.filters[0]
    taps = len(lowpass.coeffs) if isinstance(lowpass, LaurentPoly) else 0
    weight = max(1, -(-taps // CASCADE_TAPS_PER_VALUE))
    work = args.depth * (args.samples + per_samples) * (2 if args.mother else 1) * weight
    if work > CASCADE_WORK_MAX:
        mother = " x 2 for --mother" if args.mother else ""
        heavy = f" x {weight} for {taps} low-pass taps" if weight > 1 else ""
        raise InputError(f"cascade needs {work} weighted filter values (depth {args.depth} x "
                         f"({args.samples} + {per_samples} --per samples){mother}{heavy}); "
                         f"the cap is {CASCADE_WORK_MAX}")
    # the --samples grid is evaluated only when an output reads it; the --per
    # grid holds t = 0 exactly, so it gives the same value there
    phi = wide = None
    if args.csv or args.mother or not args.per:
        phi = cas.scaling_hat(lowpass, bank.scale, t_max=t_max,
                              samples=args.samples, depth=args.depth)
    if args.per:
        wide = cas.scaling_hat(lowpass, bank.scale, t_max=(2 * args.per + 1) * math.pi,
                               samples=per_samples, depth=args.depth)
    at_zero = phi if phi is not None else wide
    target = 1.0 / math.sqrt(2.0 * math.pi)
    zero_gap = abs(at_zero.value_at_zero() - target)
    verdicts = {"value_at_zero": zero_gap <= cas.VALUE_AT_ZERO_TOL}
    residuals = {"value_at_zero_gap": zero_gap}
    info = {"depth": args.depth, "t_max": t_max, "samples": cas.grid_size(args.samples),
            "approximate": at_zero.approximate}
    artifacts = []
    target_samples = phi
    if args.mother:
        target_samples = cas.mother_hat(bank, args.mother, phi)
        info["mother_index"] = args.mother
    if args.per:
        info["per_samples"] = per_samples
        info["per_t_max"] = (2 * args.per + 1) * math.pi
        if args.mother:
            wide = cas.mother_hat(bank, args.mother, wide)
        pr = cas.per_residual(wide, args.per)
        verdicts["periodization"] = pr.residual <= cas.PER_TOL
        residuals["per_residual"] = pr.residual
        residuals["per_tail_estimate"] = pr.tail_estimate
    if args.csv:
        emit_csv(args.csv, target_samples)
        artifacts.append(args.csv)
    return verdicts, residuals, info, artifacts


def cmd_wold(args):
    if args.filter:
        _refuse_unread({"--index": _given(args.index), "--shift-check": args.shift_check},
                       "--filter, which gives no bank")
        i, filt, scale = None, ser.filter_from_dict(_load_json(args.filter)), args.scale
        if not scale:
            raise InputError("--filter needs --scale")
    else:
        if args.scale:
            raise InputError("--scale needs --filter; a bank carries its own scale")
        bank = _load_bank(args)
        scale = bank.scale
        if args.shift_check:
            _refuse_unread({"--index": _given(args.index)}, "--shift-check")
            ok = wld.wavelet_shift_check(bank)
            return {"all_shifts": ok}, {}, {"scale": scale}, []
        if not 0 <= args.index < scale:
            raise InputError(f"--index must be in 0..{scale - 1}, got {args.index}")
        i, filt = args.index, bank.filters[args.index]
    rep = wld.wold_analysis(filt, scale)
    verdicts = {"isometry": rep.isometry_residual <= wld.UNIMODULAR_TOL,
                "consistent": rep.anomaly is None}
    residuals = {"unimodularity": rep.unimodularity_residual,
                 "isometry": rep.isometry_residual}
    if rep.cocycle_residual is not None:
        residuals["cocycle"] = rep.cocycle_residual
    info = {"unitary_dim": rep.unitary_dim, "grid_sizes": list(rep.grid_sizes),
            "grid_screen": rep.grid_screen, "filter_index": i}
    if rep.cocycle_worst is not None:
        point, cycle_min = rep.cocycle_worst
        info["worst"] = {"cocycle": {"point": point, "cycle_min": cycle_min}}
    if rep.eigenvalue is not None:
        info["eigenvalue"] = rep.eigenvalue
    if isinstance(rep.eigenfunction, LaurentPoly):
        info["eigenfunction"] = ser.poly_to_dict(rep.eigenfunction)
    elif isinstance(rep.eigenfunction, GridFunction):
        info["eigenfunction"] = ser.gridfunction_to_dict(rep.eigenfunction)
    if rep.anomaly:
        info["anomaly"] = rep.anomaly
    return verdicts, residuals, info, []


def cmd_index(args):
    bank = _load_bank(args)
    rep = idx.spectral_solutions(*bank.filters, window=args.window)
    resids = [s.residual for s in rep.solutions]
    verdicts = {"index_in_range": rep.index <= 2 and rep.anomaly is None} if bank.scale == 2 else {}
    residuals = {"max_solution_residual": max(resids, default=0.0),
                 "pairing_constancy": rep.pairing_residual}
    info = {
        "index": rep.index,
        "window": rep.window,
        "window_modes": list(rep.window_modes),
        "eigenvalues": [s.eigenvalue for s in rep.solutions],
        "solutions": [ser.poly_to_dict(s.eigenvector) for s in rep.solutions],
        "pairing_matrix": rep.pairing_matrix,
        "haar_component": rep.index >= 1,
        "rejected": rep.rejected,
    }
    if resids:
        j = int(np.argmax(resids))
        info["worst"] = {"max_solution_residual": {"solution": j,
                                                   "eigenvalue": rep.solutions[j].eigenvalue}}
    if rep.anomaly:
        info["anomaly"] = rep.anomaly
    return verdicts, residuals, info, []


def cmd_decompose(args):
    mono = perm.MonomialRep(args.scale, perm.parse_digits(args.digits))
    if mono.cycle_radius() > DECOMPOSE_WINDOW_MAX:
        raise InputError(f"the digits' cycle radius max|d| / (N - 1) = {mono.cycle_radius()} "
                         f"exceeds {DECOMPOSE_WINDOW_MAX}")
    rep = perm.decompose_monomial(mono, args.window)
    info = {
        "cycles": [list(c) for c in rep.cycles],
        "n_components": len(rep.components),
        "window": list(rep.window),
        "components": [
            {"cycle": list(c.cycle), "members_in_window": c.members,
             "description": c.description}
            for c in rep.components
        ],
    }
    if not rep.partition:
        info["split_digit"] = rep.split_digit
    return {"partition": rep.partition}, {}, info, []


def cmd_equiv(args):
    u1 = ser.gridfunction_from_dict(_load_json(args.u1))
    u2 = ser.gridfunction_from_dict(_load_json(args.u2))
    rep = perm.equivalence_check(perm.CharRep(args.scale, u1), perm.CharRep(args.scale, u2))
    verdicts = {"equivalent": rep.equivalent}
    residuals = {}
    info = {"grid_screen": rep.grid_screen}
    if rep.equivalent:
        residuals["intertwining"] = rep.intertwining_residual
        info["delta"] = ser.gridfunction_to_dict(rep.delta)
        info["worst"] = {"intertwining": {"point": rep.worst_point}}
    return verdicts, residuals, info, []


def cmd_dilate(args):
    if args.family:
        _refuse_unread({"--random-dim": _given(args.random_dim), "--ops": _given(args.ops)},
                       "--family")
        fam = ser.family_from_dict(_load_json(args.family))
    else:
        rng = np.random.default_rng(args.seed)
        fam = dil.random_coisometry(args.ops, args.random_dim, rng)
    gram = dil.gram_matrix(fam, args.gram_depth)
    words = [dil.Word(), dil.Word(up=(0,), down=(0,)),
             dil.Word(up=(0, min(1, fam.n_ops - 1)), down=(0,))]
    fock = dil.fock_embedding(fam, args.lam, args.fock_depth, words)
    purity = dil.purity_diagnostics(fam)
    verdicts = {
        "gram_psd": gram.psd,
        "fock_defect_matches": abs(fock.isometry_defect - fock.predicted_defect) <= dil.FOCK_TOL,
        "intertwining": fock.intertwining_residual <= dil.INTERTWINING_TOL,
        "state_consistent": fock.state_gap <= dil.FOCK_TOL,
    }
    residuals = {
        "fock_defect": fock.isometry_defect,
        "fock_defect_predicted": fock.predicted_defect,
        "intertwining": fock.intertwining_residual,
        "gram_min_eigenvalue": gram.min_eigenvalue,
        "state_gap": fock.state_gap,
    }
    info = {"dim": fam.dim, "ops": fam.n_ops, "fock_dim": fock.fock_dim,
            "fixed_dim": purity.fixed_dim, "pure": purity.pure,
            "tail_trivial": purity.tail_trivial, "gram_words": gram.n_words}
    return verdicts, residuals, info, []


def cmd_fixtures(args):
    bank = fix.fixture_bank(args.name)
    ok, residuals, artifacts = _produced_bank(bank, args.out_bank)
    info = {"name": args.name, "scale": bank.scale, "kind": bank.kind}
    return {"verified": ok}, residuals, info, artifacts


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="waverep",
                                description="filter banks, circle isometries, and their diagnostics")
    p.add_argument("--out", help="write the JSON run report here instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    sub = p.add_subparsers(dest="command", required=True)

    def add_bank_source(q):
        """The bank sources of a subcommand, of which exactly one is given."""
        sources = q.add_mutually_exclusive_group(required=True)
        sources.add_argument("--bank", help="bank JSON file")
        sources.add_argument("--fixture",
                             help="fixture name (haar2, db4, shannon, monomial(0,1), ...)")
        return sources

    q = sub.add_parser("check", help="verify a filter bank")
    sources = q.add_mutually_exclusive_group(required=True)
    sources.add_argument("bank", nargs="?", help="bank JSON file")
    sources.add_argument("--fixture")

    q = sub.add_parser("complete", help="extend a low-pass filter to a unitary bank")
    q.add_argument("--lowpass", required=True, help="filter JSON file")
    q.add_argument("--scale", type=_scale, required=True)
    q.add_argument("--out-bank", help="write the completed bank JSON here")

    q = sub.add_parser("cascade", help="scaling/mother functions on the frequency side")
    add_bank_source(q)
    q.add_argument("--depth", type=_int_in(1, CASCADE_DEPTH_MAX), default=cas.DEFAULT_DEPTH)
    q.add_argument("--t-max", default="8pi")
    q.add_argument("--samples", type=_int_in(3, CASCADE_SAMPLES_MAX), default=cas.DEFAULT_SAMPLES)
    q.add_argument("--mother", type=_int_in(0), default=0,
                   help="also compute this mother index")
    q.add_argument("--per", type=_int_in(0, CASCADE_PER_MAX), default=0,
                   help="lattice size K for the periodization check")
    q.add_argument("--csv", help="write t,re,im,abs samples here")

    q = sub.add_parser("wold", help="classify the unitary part of one filter's isometry")
    add_bank_source(q).add_argument("--filter", help="single filter JSON file")
    q.add_argument("--scale", type=_scale, default=0)
    q.add_argument("--index", type=int, default=_Default(0), help="filter index within the bank")
    q.add_argument("--shift-check", action="store_true",
                   help="check that every filter of the bank generates a shift")

    q = sub.add_parser("index", help="unit-circle eigenspaces of the combined isometry")
    add_bank_source(q)
    q.add_argument("--window", type=_int_in(0, idx.WINDOW_MAX), default=idx.WINDOW_MAX,
                   help="bound on the bank's window R, on which the index is solved")

    q = sub.add_parser("decompose", help="orbit decomposition of a monomial family")
    q.add_argument("--scale", type=_scale, required=True)
    q.add_argument("--digits", required=True, help="comma-separated digits, e.g. 0,1")
    q.add_argument("--window", type=_int_in(0, DECOMPOSE_WINDOW_MAX), default=64)

    q = sub.add_parser("equiv", help="cocycle equivalence of characteristic-function families")
    q.add_argument("--u1", required=True, help="grid-function JSON file")
    q.add_argument("--u2", required=True, help="grid-function JSON file")
    q.add_argument("--scale", type=_scale, required=True)

    q = sub.add_parser("dilate", help="Fock-space dilation diagnostics of a coisometry family")
    q.add_argument("--family", help="family JSON file")
    q.add_argument("--random-dim", type=_int_in(1, dil.DIM_MAX), default=_Default(3),
                   help="draw a random family of this dim")
    q.add_argument("--ops", type=_int_in(1, dil.WORD_CAP - 1), default=_Default(2),
                   help="number of operators for random families")
    q.add_argument("--lam", "--lambda", dest="lam", type=_float_between(-1.0, 1.0), default=0.5)
    q.add_argument("--fock-depth", type=_int_in(1, FOCK_DEPTH_MAX), default=8)
    q.add_argument("--gram-depth", type=_positive_int, default=3)

    q = sub.add_parser("fixtures", help="materialize a named fixture bank")
    q.add_argument("name")
    q.add_argument("--out-bank", help="write the bank JSON here")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv) -> int:
    start = time.monotonic()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    # looked up at call time, so that a wrapper installed around a handler runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        try:
            verdicts, residuals, info, artifacts = handler(args)
            code = 0 if all(verdicts.values()) else 1
        except InputError:
            raise
        except ValueError as e:
            verdicts, residuals, artifacts = {"ok": False}, {}, []
            info = {"error": str(e)}
            code = 1
        report = {
            "command": args.command,
            "inputs": {k: v for k, v in sorted(vars(args).items()) if v is not None},
            "verdicts": verdicts,
            "residuals": residuals,
            "artifacts": artifacts,
            "elapsed": time.monotonic() - start,
            "info": info,
        }
        # a report is a tree built for this call, so the encoder needs no cycle markers
        text = json.dumps(report, sort_keys=True, default=_json_default,
                          check_circular=False) + "\n"
        if args.out:
            _write_text(args.out, [text])
        else:
            sys.stdout.write(text)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
