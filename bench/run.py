#!/usr/bin/env python3
"""Benchmark of the waverep command line, end to end and layer by layer.

    python3 bench/run.py --workload banks --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Each workload is a fixed mix of CLI reports built from the seed (see
workloads.py).  One caller runs the mix in a closed loop through
`waverep.cli.run` in this process: a report starts when the previous one
has returned.  After one warm-up pass, whole passes run until --seconds is
spent.  Every report is checked against the oracle its input was built
with.  Times are scaled to the reference host's speed (hostspeed.py); the
wall times are printed beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with layer spans recorded (tracing.py), and prints the
per-layer metrics, per pass of the mix, with the tracing overhead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Provenance, per-report rows
and spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, so runs on a shared machine measure
# the same thing; the value in force is recorded with the results.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads
from hostspeed import REFERENCE_S, HostSpeed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_PASSES = 3  # per end-to-end run; fixes the tail percentile per mix
SETUP_RUNS = 7
SETUP_CODE = "import sys\nfrom waverep.cli import run\nsys.exit(run(['fixtures', 'haar2']))\n"
COMMANDS = ("check", "complete", "cascade", "wold", "index", "decompose", "equiv", "dilate",
            "fixtures")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest sizes, for the self-test")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# running and checking reports


def verify(job, code: int, text: str) -> str | None:
    """None when the report matches the job's oracle, else what differs."""
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as e:
        return f"report is not JSON: {e}"
    for key, want in job.verdicts.items():
        if rep["verdicts"].get(key) != want:
            return f"verdict {key} is {rep['verdicts'].get(key)!r}, expected {want!r}"
    return job.check(rep) if job.check else None


class Phase:
    """Per-report rows of one timed stretch of whole passes."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        # (command, size, reference seconds, position in the mix, wall seconds,
        #  host kernel seconds just before the report)
        self.rows = []
        self.failures = []  # (argv, message)
        self.attempted = 0
        self.passes = 0
        self.report_bytes = 0

    def run_pass(self, cli, jobs, tracer=None):
        timed, kernel = [], []
        for pos, job in enumerate(jobs):
            kernel.append(self.speed.sample())
            buf = io.StringIO()
            if tracer is not None:
                tracer.report = self.attempted
            self.attempted += 1
            try:
                with contextlib.redirect_stdout(buf):
                    t0 = perf_counter()
                    code = cli.run(list(job.argv))
                    dt = perf_counter() - t0
            except Exception as e:  # a report that raised counts as failed
                self.failures.append((job.argv, f"raised {type(e).__name__}: {e}"))
                continue
            text = buf.getvalue()
            self.report_bytes += len(text)
            msg = verify(job, code, text)
            if msg:
                self.failures.append((job.argv, msg))
            else:
                timed.append((job.command, job.size, dt, pos, kernel[-1]))
        scale = HostSpeed.scale(kernel)
        self.rows.extend((c, s, dt * scale, pos, dt, k) for c, s, dt, pos, k in timed)
        self.passes += 1

    def run_for(self, cli, jobs, seconds: float, tracer=None, min_passes: int = 1):
        """Whole passes until another would end more than half a pass late."""
        start = perf_counter()
        while True:
            self.run_pass(cli, jobs, tracer)
            elapsed = perf_counter() - start
            if self.passes >= min_passes and elapsed + 0.5 * elapsed / self.passes >= seconds:
                return self

    def latencies(self, wall: bool = False) -> list:
        return [r[4 if wall else 2] for r in self.rows]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it.

    n is the report count of MIN_PASSES passes, not of the run, so the
    percentile depends on the mix alone and not on how fast it ran.
    """
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def mix_rate(rows, wall: bool = False) -> float:
    """Reports per second of one pass of the mix, each report at its median.

    Every report of the mix runs once a pass; taking each one's median over
    the passes keeps one slow pass of a heavy report from setting the rate.
    """
    by_report = {}
    for row in rows:
        by_report.setdefault(row[3], []).append(row[4 if wall else 2])
    return len(by_report) / sum(statistics.median(v) for v in by_report.values())


def measure_setup(workdir: Path, speed: HostSpeed) -> tuple[list, list, float]:
    """Cold start of a fresh interpreter: import waverep.cli, one trivial report.

    Returns the wall times, the errors, and the factor that scales the wall
    times to the reference host, from the kernel timed before each start.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, errors, kernel = [], [], []
    for _ in range(SETUP_RUNS):
        kernel.append(speed.sample())
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["verdicts"]["verified"] is True
        except (json.JSONDecodeError, KeyError):
            ok = False
        if not ok:
            errors.append(f"setup report failed: exit {proc.returncode} {proc.stderr.strip()[-200:]}")
    return times, errors, HostSpeed.scale(kernel)


# ---------------------------------------------------------------------------
# provenance


def provenance(args, mix, gen_s: float) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "waverep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "client": "one caller, closed loop, in process",
        "inputs": {"reports_per_pass": len(mix.jobs), **mix.sizes},
        "input_generation_s": gen_s,
    }


def grouped_rows(rows) -> list:
    """Median seconds per (command, size), for reading growth over size."""
    groups = {}
    for command, size, dt, *_ in rows:
        groups.setdefault((command, size), []).append(dt)
    return [{"command": c, "size": s, "n": len(v), "p50_s": statistics.median(v)}
            for (c, s), v in sorted(groups.items())]


# ---------------------------------------------------------------------------
# one workload


def end_to_end(phase: Phase, setup_times: list, setup_scale: float, per_pass: int,
               wall: bool = False) -> tuple[dict, float]:
    """The end-to-end metrics, in reference seconds or, with `wall`, as measured."""
    lat = phase.latencies(wall)
    q = tail_percentile(per_pass * MIN_PASSES)
    values = {
        "reports_per_s": mix_rate(phase.rows, wall),
        "report_p50_ms": 1e3 * statistics.median(lat),
        "report_tail_ms": 1e3 * float(np.percentile(lat, q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times) * (1.0 if wall else setup_scale),
    }
    return values, q


def per_layer(untraced: Phase, traced: Phase, tracer, commands) -> dict:
    values = tracer.layer_metrics(traced.passes, traced.report_bytes)
    for command in commands:
        lat = [r[2] for r in untraced.rows if r[0] == command]
        values[f"cmd.{command}.p50_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    a = mix_rate(untraced.rows)
    b = mix_rate(traced.rows)
    values["trace.untraced_reports_per_s"] = a
    values["trace.traced_reports_per_s"] = b
    values["trace.delta_reports_per_s"] = b - a
    return values


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    import waverep
    import waverep.cli as cli

    if Path(waverep.__file__).resolve().parent != (SRC / "waverep").resolve():
        print(f"error: imported waverep from {waverep.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = perf_counter()
        mix = workloads.build(args.workload, args.seed, str(workdir), smoke=args.smoke)
        gen_s = perf_counter() - t0
        prov = provenance(args, mix, gen_s)
        speed = HostSpeed()
        setup_times, errors, setup_scale = measure_setup(workdir, speed)

        warm = Phase(speed)
        warm.run_pass(cli, mix.jobs)
        tracer = None
        wall = {}
        if args.trace:
            untraced = Phase(speed).run_for(cli, mix.jobs, args.seconds / 2)
            with tracing.Tracer() as tracer:
                traced = Phase(speed).run_for(cli, mix.jobs, args.seconds / 2, tracer)
            phases = (warm, untraced, traced)
            if tracer.missing:
                errors.append(f"entry points not found: {', '.join(tracer.missing)}")
            unhit = tracer.unhit(args.workload)
            if unhit:
                errors.append(f"traced entry points recorded no span: {', '.join(unhit)}")
            values = (per_layer(untraced, traced, tracer, COMMANDS)
                      if untraced.rows and traced.rows else {})
            names = [m["name"] for m in spec["per_layer"]]
            measured = untraced
        else:
            measured = Phase(speed).run_for(cli, mix.jobs, args.seconds, min_passes=MIN_PASSES)
            phases = (warm, measured)
            values, tail_q = ({}, None) if not measured.rows else end_to_end(
                measured, setup_times, setup_scale, len(mix.jobs))
            if measured.rows:
                wall, _ = end_to_end(measured, setup_times, setup_scale, len(mix.jobs), wall=True)
            prov["tail_percentile"] = tail_q
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    prov["passes"] = [p.passes for p in phases]
    prov["setup_runs_s"] = setup_times
    prov["host_kernel_s"] = {"reference": REFERENCE_S, "median": statistics.median(speed.samples),
                             "samples": len(speed.samples)}
    missing = [n for n in names if n not in values]
    if missing:
        errors.append(f"metrics not produced: {', '.join(missing)}")
    for argv, msg in failures:
        errors.append(f"failed report {' '.join(argv)}: {msg}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": prov, "metrics": values, "wall_metrics": wall,
              "failures": [list(f) for f in failures],
              "rows": measured.rows, "by_size": grouped_rows(measured.rows)}
    if tracer is not None:
        record["trace"] = tracer.dump()
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for g in record["by_size"]:
        print(f"report {g['command']:<10} {g['size']:<14} n={g['n']:<4} p50={1e3 * g['p50_s']:.3f} ms")
    print(f"failed_frac {len(failures) / attempted:.6f} ratio  ({len(failures)} of {attempted})")
    if not args.trace:
        print(f"report_tail_ms is p{prov['tail_percentile']} of {len(measured.rows)} reports")
    for name in names:
        print(f"{name} {values.get(name, float('nan')):.6g} {units[name]}"
              + (f"  (wall {wall[name]:.6g})" if name in wall else ""))
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names if n in values},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# all workloads, one table


def run_all(args) -> int:
    """Each workload in a fresh process; prints the six end-to-end metrics."""
    units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    units["failed_frac"] = "ratio"
    table = {}
    correct = True
    attempted = failed = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        row = {k: v["value"] for k, v in res["metrics"].items()}
        row["failed_frac"] = res["failed"] / res["attempted"]
        table[workload] = row
    print(f"{'metric':<16}{'unit':<7}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit in units.items():
        print(f"{name:<16}{unit:<7}"
              + "".join(f"{table[w].get(name, float('nan')):>14.6g}" for w in WORKLOADS))
    metrics = {f"{w}.{k}": {"value": v, "unit": units[k]} for w in WORKLOADS
               for k, v in table[w].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "waverep" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no waverep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
