"""The benchmark's own test: short runs on the micro configs.

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, passes its checks and prints exactly
  the metric names and units BENCHMARK.json lists;
- a run with a fault injected into the kernel pre-check
  (`verify.run_suite(..., fault="dimconv")`) reports failures and no timings;
- a directory holding only BENCHMARK.json and perfbench/ makes the benchmark
  exit non-zero without printing a result.
Exits 0 when all hold, 1 otherwise. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-selftest"


def run(root: Path, *args):
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            label = f"{wl['name']} --trace {trace}"
            code, lines = run(ROOT, "--workload", wl["name"], "--seed", "1",
                              "--seconds", "1", "--trace", str(trace), "--short")
            res = result_of(lines)
            if code != 0 or res is None or not res["correct"] or res["failed"]:
                problems.append(f"{label}: exit {code}, result {res}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            printed = {line.split()[1] for line in lines if line.startswith("metric ")}
            printed.discard("ops_failed_ratio")
            if got != want[trace] or printed != set(want[trace]):
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                problems.append(f"{label}: missing {missing} extra {extra} "
                                f"unit differs {wrong} printed-only "
                                f"{sorted(printed ^ set(got))}")

    code, lines = run(ROOT, "--workload", "infer-s1.0-b1", "--seed", "1",
                      "--seconds", "1", "--short", "--fault", "dimconv")
    res = result_of(lines)
    if code != 1 or res is None or res["correct"] or not res["failed"] \
            or res["metrics"] or any(line.startswith("metric ") for line in lines):
        problems.append(f"fault injection: exit {code}, result {res}")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bare, "--workload", "infer-s1.0-b1", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
        if code == 0 or result_of(lines) is not None:
            problems.append(f"bare directory: exit {code}, stdout {lines[-1:]}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)})"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
