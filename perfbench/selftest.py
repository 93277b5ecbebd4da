#!/usr/bin/env python3
"""Short-mode self-test of the benchmark: metric names, units and gates.

    python3 perfbench/selftest.py            # static checks + short runs (~1 min)
    python3 perfbench/selftest.py --static   # BENCHMARK.json and comparator only

Checks that BENCHMARK.json keeps the shape the runs are judged by, that the
comparator's verdicts follow its rules, that a short untraced run of every
workload prints exactly the end-to-end metrics with their units, that a short
traced run prints exactly the per-layer metrics, and that a golden file
with one digest changed makes the benchmark exit nonzero.
"""

import argparse
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import compare  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(ok, what):
    if not ok:
        FAILURES.append(what)
        print(f"FAIL: {what}")


def static_checks():
    b = BENCHMARK
    check(set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json top-level keys")
    check(2 <= len(b["workloads"]) <= 8, "workload count")
    check({w["name"] for w in b["workloads"]} == {"irq-campaign", "traffic-overload", "wcet-edit"},
          "workload names")
    check(isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60, "run_seconds")
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [w["name"] for w in b["workloads"]]
    check(len(names) == len(set(names)), "metric and workload names are unique")
    for n in names:
        check(bool(NAME.match(n)), f"name {n!r} is well formed")
    for w in b["workloads"]:
        check(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload {w['name']} fields")
    for m in b["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"{m['name']} keys")
        check(0 < m["bound"] <= 0.25, f"{m['name']} bound in (0, 0.25]")
        check(m["better"] in ("lower", "higher"), f"{m['name']} direction")
        check(bool(UNIT.match(m["unit"])), f"{m['name']} unit")
    for m in b["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"{m['name']} keys")
        check(bool(UNIT.match(m["unit"])), f"{m['name']} unit")
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s present, in s, lower is better")
    check(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in b["end_to_end"]),
          "setup_s has the largest bound")
    check(len(b["end_to_end"]) == 13, "13 end-to-end metrics")


def comparator_checks():
    def runs(vals):
        return {(seed, 0): v for seed, v in enumerate(vals, start=1)}

    def verdict(parent, change):
        return compare.verdict(lower, runs(parent), runs(change))

    lower = {"name": "x", "unit": "ms", "better": "lower", "bound": 0.1}
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    check(verdict(base, [v * 0.8 for v in base]) == "better", "verdict better")
    check(verdict(base[:4], [v * 0.8 for v in base[:4]]) == "same",
          "no better verdict from fewer than ten pairs")
    check(verdict(base, [v * 1.3 for v in base]) == "worse", "verdict worse")
    check(verdict(base, list(base)) == "same", "verdict same")
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    check(verdict(noisy, [v * 1.05 for v in noisy]) == "unresolved", "verdict unresolved")
    # Spread wider than the bound, every change run worse than every parent
    # run, median worse by less than the bound: unresolved, not same.
    skewed = [5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    check(verdict(skewed, [10.5] * 10) == "unresolved", "verdict unresolved when all worse")

    # A run without a result drops only its own pair.
    def rec(seed, value):
        return {"workload": "w", "seed": seed,
                "result": None if value is None else {"metrics": {"x": {"value": value}}}}

    parent = [rec(1, 1.0), rec(2, 2.0), rec(3, 3.0), rec(3, 3.5)]
    change = [rec(1, 1.1), rec(2, None), rec(3, 3.1), rec(3, 3.6)]
    check(compare.paired(compare.values(parent, "w", "x"), compare.values(change, "w", "x"))
          == [(1.0, 1.1), (3.0, 3.1), (3.5, 3.6)], "runs pair by seed and repeat")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def result_checks(label, code, result, expected):
    check(code == 0, f"{label}: exit 0")
    check(result is not None, f"{label}: last stdout line is JSON")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result.get("correct") is True and result.get("failed") == 0, f"{label}: correct")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          f"{label}: attempted >= 1")
    got = result.get("metrics", {})
    check(set(got) == {m["name"] for m in expected}, f"{label}: metric names")
    for m in expected:
        v = got.get(m["name"], {})
        check(v.get("unit") == m["unit"], f"{label}: unit of {m['name']}")
        value = v.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {m['name']} is a finite number")


def run_checks():
    for w in BENCHMARK["workloads"]:
        code, result = run(w["name"], 0)
        result_checks(f"{w['name']} untraced", code, result, BENCHMARK["end_to_end"])
        if result:
            for m in BENCHMARK["end_to_end"]:
                check(result["metrics"].get(m["name"], {}).get("value") != 0,
                      f"{w['name']}: {m['name']} is nonzero")
    code, result = run("irq-campaign", 1)
    result_checks("irq-campaign traced", code, result, BENCHMARK["per_layer"])
    golden_gate_check()


def golden_gate_check():
    """One golden digest changed: the benchmark must count it and exit nonzero."""
    golden = json.loads((HERE / "golden.json").read_text())
    golden["campaign_csv"] = "0" * 16
    build = ROOT / ".bench_build"
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=build) as f:
        json.dump(golden, f)
        f.flush()
        proc = subprocess.run([str(build / "pmk_perfbench"), "--workload", "irq-campaign",
                               "--seconds", "1", "--golden", f.name],
                              cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    check(proc.returncode != 0, "changed golden digest: nonzero exit")
    check(result is not None and result.get("correct") is False and result.get("failed", 0) >= 1,
          "changed golden digest: counted as a failure")
    check("golden digest mismatch: campaign_csv = " in proc.stdout,
          "changed golden digest: the computed digest is printed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--static", action="store_true", help="skip the benchmark runs")
    args = ap.parse_args()
    static_checks()
    comparator_checks()
    if not args.static:
        run_checks()
    print("selftest:", "FAILED" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
