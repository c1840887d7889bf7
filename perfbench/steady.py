#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports each end-to-end
metric's median, quartiles and spread against its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workload reproduce-fig7
    python3 perfbench/steady.py --sets 2              # also compare two sets

The spread is (q3 - q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4); each run uses another seed.  A spread
above a third of its bound is marked "wide" and above the bound "FAIL"
(setup_s is exempt: only its median is compared between sets).  With
--sets 2 the second set's median may not be worse than the first's by
more than the bound, and the share of failed operations must be equal.
Exits 1 if any check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def worse(metric, first, second):
    """Relative worsening of `second` against `first` (positive = worse)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=[1, 2], default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    a = p.parse_args()
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        sets = []
        for s in range(a.sets):
            results = []
            for i in range(a.runs):
                seed = 1 + s * a.runs + i
                results.append(run_once(w, seed, a.seconds))
            sets.append(results)
        print(f"== {w}: {a.sets} set(s) of {a.runs} runs, {a.seconds} s each")
        shares = set()
        for results in sets:
            for r in results:
                if not r["correct"]:
                    print("   a run reported correct=false")
                    ok = False
                shares.add((r["failed"] * 10**9) // r["attempted"])
            print("   attempted per run: " +
                  " ".join(str(r["attempted"]) for r in results) +
                  f"; failed: {sum(r['failed'] for r in results)}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = f"   {name:18s}"
            set_medians = []
            for results in sets:
                vals = [r["metrics"][name]["value"] for r in results]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med if med else 0.0
                set_medians.append(med)
                mark = "ok"
                if name != "setup_s" and spread > bound:
                    mark, ok = "FAIL", False
                elif name != "setup_s" and spread > bound / 3:
                    mark = "wide"
                line += (f" median {med:.6g} q1 {q1:.6g}"
                         f" q3 {q3:.6g} spread {spread:.4f}/{bound} {mark};")
            if len(set_medians) == 2:
                drift = worse(m, set_medians[0], set_medians[1])
                mark = "ok" if drift <= bound else "FAIL"
                ok = ok and drift <= bound
                line += f" second set worse by {drift:+.4f} {mark}"
            print(line)
        if len(shares) > 1:
            print("   FAIL: the share of failed operations differs between runs")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
