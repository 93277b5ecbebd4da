#!/usr/bin/env python3
"""Collects benchmark runs and compares two commits under BENCHMARK.json's bounds.

Subcommands (run from any directory; checkouts are repository roots):

  collect  --checkout DIR --workload W [--seeds 1,2,...] [--trace 0|1] --out F.jsonl
      Runs perfbench/run.py in DIR once per seed and appends one JSON line per
      run: {"workload", "seed", "trace", "exit", "result"}.

  pairs    --parent DIR --change DIR --out-dir D [--runs 10] [--workloads a,b]
           [--seed-base N] [--held-out]
      Runs parent and change alternately (which side goes first alternates
      too), seeds seed-base, seed-base+1, ... for every workload, and writes
      D/parent.jsonl and D/change.jsonl. --held-out uses only the held-out
      seed, which was never used while the benchmark was developed.

  spread   --runs F.jsonl
      Per (workload, metric): median, quartiles and (Q3-Q1)/median, the
      spread the bounds are checked against.

  report   --parent P.jsonl --change C.jsonl
      One row per workload, one column per end-to-end metric, each cell
      "better", "same", "worse" or "unresolved":
        better      at least ten pairs, the change wins at least nine tenths
                    of them, and the medians differ by more than the
                    parent's own quartile spread;
        worse       the change's median is worse than the parent's by more
                    than the metric's bound (and the parent's spread is
                    within the bound, or every change run is worse than
                    every parent run);
        unresolved  the parent's spread is wider than the bound and not
                    every change run is better than every parent run;
        same        none of the above: within the bound.
      Runs pair by (workload, seed, repeat of that seed), so a run without a
      result drops only its own pair.
      Exits 1 if any cell is "worse" or "unresolved".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 48611
# A gain needs at least this many parent/change pairs.
MIN_PAIRS = 10


def run_once(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "result": result}


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def values(records, workload, metric):
    """{(seed, repeat): value} of one workload's runs that report |metric|.

    repeat counts the earlier runs of the same seed (with or without a
    result), so the n-th run of a seed on one side pairs with the n-th run of
    that seed on the other.
    """
    out, seen = {}, {}
    for r in records:
        if r["workload"] != workload:
            continue
        key = (r["seed"], seen.get(r["seed"], 0))
        seen[r["seed"]] = key[1] + 1
        if r["result"] and metric in r["result"]["metrics"]:
            out[key] = r["result"]["metrics"][metric]["value"]
    return out


def paired(parent, change):
    """(parent, change) value pairs of the runs both sides have, in key order."""
    return [(parent[k], change[k]) for k in sorted(parent) if k in change]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric, parent_runs, change_runs):
    """Verdict on one (metric, workload) from two values() dicts."""
    parent, change = list(parent_runs.values()), list(change_runs.values())
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, _, q3 = quartiles(parent)
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med) if p_med else 0.0

    def beats(a, b):
        return a < b if lower else a > b

    pairs = paired(parent_runs, change_runs)
    wins = sum(1 for p, c in pairs if beats(c, p))
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (q3 - q1):
        return "better"
    separated_worse = all(beats(p, c) for p in parent for c in change)
    separated_better = all(beats(c, p) for p in parent for c in change)
    if worse_by > bound and (spread(parent) <= bound or separated_worse):
        return "worse"
    if spread(parent) > bound and not separated_better:
        return "unresolved"
    return "same"


def cmd_collect(a):
    for seed in [int(s) for s in a.seeds.split(",")]:
        rec = run_once(a.checkout, a.workload, seed, a.trace)
        append(a.out, rec)
        print(f"{a.workload} seed={seed} exit={rec['exit']}", file=sys.stderr)
    return 0


def cmd_pairs(a):
    out = Path(a.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in BENCHMARK["workloads"]]
    seeds = [HELD_OUT_SEED] * a.runs if a.held_out else [a.seed_base + i for i in range(a.runs)]
    for w in workloads:
        for i, seed in enumerate(seeds):
            order = [("parent", a.parent), ("change", a.change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                rec = run_once(checkout, w, seed, 0)
                append(out / f"{side}.jsonl", rec)
                print(f"{side} {w} seed={seed} exit={rec['exit']}", file=sys.stderr)
    return 0


def cmd_spread(a):
    recs = load(a.runs)
    workloads = sorted({r["workload"] for r in recs})
    for w in workloads:
        metrics = sorted({m for r in recs if r["workload"] == w and r["result"]
                          for m in r["result"]["metrics"]})
        for m in metrics:
            v = list(values(recs, w, m).values())
            q1, med, q3 = quartiles(v)
            print(f"{w:18s} {m:38s} n={len(v):3d} median={med:<14.6g} "
                  f"q1={q1:<14.6g} q3={q3:<14.6g} spread={spread(v):.4f}")
    return 0


def cmd_report(a):
    parent, change = load(a.parent), load(a.change)
    failed = [r for r in parent + change if r["exit"] != 0]
    metrics = BENCHMARK["end_to_end"]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    print("workload," + ",".join(m["name"] for m in metrics))
    bad = bool(failed)
    for w in workloads:
        cells = []
        for m in metrics:
            p, c = values(parent, w, m["name"]), values(change, w, m["name"])
            if not p or not c:
                cells.append("missing")
                bad = True
                continue
            v = verdict(m, p, c)
            bad = bad or v in ("worse", "unresolved")
            cells.append(v)
        print(w + "," + ",".join(cells))
    for r in failed:
        print(f"failed run: {r['workload']} seed={r['seed']} exit={r['exit']}", file=sys.stderr)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--checkout", default=".")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1")
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--out", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--held-out", action="store_true")
    s = sub.add_parser("spread")
    s.add_argument("--runs", required=True)
    r = sub.add_parser("report")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    a = ap.parse_args()
    return {"collect": cmd_collect, "pairs": cmd_pairs, "spread": cmd_spread,
            "report": cmd_report}[a.cmd](a)


if __name__ == "__main__":
    sys.exit(main())
