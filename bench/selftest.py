#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at its smallest size.

    python3 bench/selftest.py

For each workload it runs `run.py --smoke`, untraced and traced, and checks
that every report matched its oracle and that every metric BENCHMARK.json
names is printed with its unit.  It also checks that the benchmark refuses
to run, without printing a result, in a directory that holds only
BENCHMARK.json and bench/.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(workload: str, trace: int, spec: dict) -> list:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    res = last_json(proc.stdout)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0 or res is None:
        return [f"{where}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={res.get('correct')} failed={res.get('failed')}"
                        f" attempted={res.get('attempted')}\n{proc.stderr[-2000:]}")
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in res.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def check_refuses_without_sources() -> list:
    """Only BENCHMARK.json and bench/: non-zero exit and no result line."""
    tmp = ROOT / ".bench_work" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "-B", "bench/run.py", "--workload", "banks",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = check_refuses_without_sources()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{'FAIL' if found else 'ok  '} {workload} trace={trace}")
            problems.extend(found)
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
