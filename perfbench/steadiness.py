#!/usr/bin/env python3
"""Check that the benchmark repeats: two sets of runs, taken alternately.

    python3 perfbench/steadiness.py                      # 2 sets x 10 runs, every workload
    python3 perfbench/steadiness.py --runs 5 --sets 1 --workloads paper_serial

Run from the repository root. Run i of set A uses seed i+1 and run i of set B
seed runs+i+1; the runs go A0 B0 A1 B1 ... per workload, every workload in
turn. For every end-to-end metric of BENCHMARK.json the script prints each
set's median and quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and the change of set B's median against set A's in the
metric's worse direction, both against the metric's bound. It also checks
that the share of failed operations is identical in every run. Raw results
are written as JSON to --out. Exit status 1 when a spread (setup_s excepted)
or a change exceeds its bound, or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path


def run_once(root: Path, command, workload: str, seed: int, seconds: int) -> dict:
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=str(root / ".bench_build" / "steadiness.json"))
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    sets = "AB"[: args.sets]
    raw = {w: {s: [] for s in sets} for w in args.workloads}
    for w in args.workloads:
        for i in range(args.runs):
            for k, s in enumerate(sets):
                seed = i + 1 + k * args.runs
                r = run_once(root, bench["command"], w, seed, args.seconds)
                r["seed"] = seed
                raw[w][s].append(r)
                print(f"{w} set {s} seed {seed}: {r['elapsed_s']:.1f} s, "
                      + ", ".join(f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()),
                      file=sys.stderr, flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(raw, indent=1))

    ok = True
    for w in args.workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18} {'set':>3} {'median':>14} {'Q1':>14} {'Q3':>14} "
              f"{'spread':>7} {'bound':>6}  verdict")
        shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in raw[w][s]}
        if len(shares) != 1 or not all(r["correct"] for s in sets for r in raw[w][s]):
            print(f"  failed shares {sorted(shares)} or an incorrect run")
            ok = False
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = {}
            for s in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in raw[w][s]])
                meds[s] = med
                good = name == "setup_s" or spread <= bound
                verdict = "ok" if spread <= bound / 3 else ("within bound" if good else "TOO WIDE")
                ok &= good
                print(f"  {name:<18} {s:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:7.3f} {bound:6.2f}  {verdict}")
            if len(sets) == 2:
                sign = 1 if m["better"] == "lower" else -1
                change = sign * (meds["B"] - meds["A"]) / meds["A"] if meds["A"] else 0.0
                good = change <= bound
                ok &= good
                print(f"  {name:<18} B vs A: {change:+.3f} worse (bound {bound:.2f})"
                      f"  {'ok' if good else 'TOO FAR'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
