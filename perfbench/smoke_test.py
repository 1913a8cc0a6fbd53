#!/usr/bin/env python3
"""Smoke test of the perfbench harness. Run from the repository root:

    python3 perfbench/smoke_test.py

It checks four things, and exits 1 on the first one that fails:

* every workload emits every metric named in BENCHMARK.json, with its
  unit, traced and untraced, and passes its own output checks;
* a wrong expected-cycles value is counted as a failed op;
* the svc phase spans partition each response's total;
* the real baseline passes at seed 42.
"""
import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=1, seconds=1, baseline=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if baseline:
        cmd += ["--baseline", str(baseline)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {p.returncode}\n"
                 f"{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stderr


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, stderr = run(name, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metrics and units "
                   "match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] > 0,
                   f"{name} trace={trace}: {result['attempted']} ops, none failed")
            if trace == 1 and name.startswith("svc-"):
                m = re.search(r"span partition holds on (\d+)/(\d+)", stderr)
                expect(m is not None and m.group(1) == m.group(2) and
                       int(m.group(1)) == result["attempted"],
                       f"{name}: phase spans partition every response")

    # Seed 42 is the baseline's seed: the real file must pass, a doctored
    # one must fail exactly the doctored variant's ops.
    result, _ = run("table3-900", 0, seed=42)
    expect(result["correct"], "table3-900 seed 42: cycles equal BENCH_baseline.json")
    base = json.loads((ROOT / "BENCH_baseline.json").read_text())
    base["variants"][0]["metrics"]["cycles"] += 1
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    doctored = build_dir / "smoke_baseline.json"
    doctored.write_text(json.dumps(base))
    result, _ = run("table3-900", 0, seed=42, baseline=doctored)
    expect(not result["correct"] and
           result["failed"] * 4 == result["attempted"],
           "table3-900: a wrong expected-cycles value fails that variant's "
           f"ops ({result['failed']}/{result['attempted']})")
    print("smoke test passed")


if __name__ == "__main__":
    main()
