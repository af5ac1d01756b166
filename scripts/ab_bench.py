#!/usr/bin/env python3
"""Interleaved same-host A/B of the benchmark: a base commit against this tree.

    python3 scripts/ab_bench.py --workload paper_serial --seed 1 --seconds 45 --pairs 10
    python3 scripts/ab_bench.py --base main --workload study_cold --pairs 3

Run from the repository root. The base commit (--base, default HEAD~1) is
checked out into a git worktree under .bench_build/ab-<sha>; the change is
the working tree itself, uncommitted edits included. Each pair runs
`python3 <tree>/perfbench/run.py --workload W --seed S --seconds N` once per
side, alternating which side goes first, so slow drift of the host lands on
both sides alike. The first run of each side also builds its benchmark
program, so one untimed 1-second warm-up run per side comes first.

Compares wall_s (lower is better). Prints every pair, each side's median
and quartiles, the gap between the medians against the base's interquartile
spread, the median ratio base / change (> 1 means the change is faster), how
many pairs the change won (ties count for neither side), and both sides'
medians of every end-to-end metric in BENCHMARK.json. Every run must report
"correct": true. The worktree is removed at the end.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab_bench: run.py in {tree} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit(f"ab_bench: run in {tree} reported correct={result.get('correct')}")
    return result


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="git ref of the base side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    metrics = [m["name"] for m in
               json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    sha = git(root, "rev-parse", "--verify", args.base + "^{commit}")
    base_tree = root / ".bench_build" / f"ab-{sha[:12]}"
    if base_tree.exists():
        subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force",
                        str(base_tree)], stderr=subprocess.DEVNULL)
        shutil.rmtree(base_tree, ignore_errors=True)
        git(root, "worktree", "prune")
    base_tree.parent.mkdir(exist_ok=True)
    git(root, "worktree", "add", "--detach", str(base_tree), sha)
    sides = {"base": base_tree, "change": root}
    try:
        for tree in sides.values():  # build both programs, untimed
            run_side(tree, args.workload, args.seed, 1)
        values = {"base": [], "change": []}
        runs = {"base": [], "change": []}
        print(f"wall_s (lower is better), {args.workload} seed {args.seed}, "
              f"{args.seconds} s per run, base {sha[:12]}")
        wins = 0
        for i in range(args.pairs):
            order = ["change", "base"] if i % 2 == 0 else ["base", "change"]
            pair = {}
            for side in order:
                r = run_side(sides[side], args.workload, args.seed, args.seconds)
                runs[side].append(r["metrics"])
                pair[side] = r["metrics"]["wall_s"]["value"]
                values[side].append(pair[side])
            gain = pair["base"] - pair["change"]
            wins += gain > 0
            outcome = "win" if gain > 0 else "tie" if gain == 0 else "loss"
            print(f"pair {i + 1:2d} ({order[0]} first): base {pair['base']:.6g}  "
                  f"change {pair['change']:.6g}  {outcome}", flush=True)
        med = {s: statistics.median(v) for s, v in values.items()}
        for s in ("base", "change"):
            q1, q3 = quartiles(values[s])
            print(f"{s:6s} median {med[s]:.6g}  quartiles {q1:.6g}-{q3:.6g}")
        q1, q3 = quartiles(values["base"])
        print(f"median gap {abs(med['base'] - med['change']):.6g} "
              f"vs base interquartile spread {q3 - q1:.6g}")
        print(f"median ratio {med['base'] / med['change']:.3f}x (> 1: change better), "
              f"change won {wins} of {args.pairs} pairs")
        print("end-to-end medians, base -> change:")
        for name in metrics:
            b, c = (statistics.median(m[name]["value"] for m in runs[s])
                    for s in ("base", "change"))
            print(f"  {name:18s} {b:.6g} -> {c:.6g}")
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force",
                        str(base_tree)])
        git(root, "worktree", "prune")
    return 0


if __name__ == "__main__":
    sys.exit(main())
