#!/usr/bin/env python3
"""Paired A/B of two builds on the repository benchmark.

    python3 tools/ab.py --base HEAD~1 --workload paper --seeds 7-16

Run from the repository root. The base revision (A) is exported from
local git history with `git archive` into a directory under --scratch
and built there; the change (B) is the working tree, or another
revision given with --change. For each seed, one `benchmark/run.py`
run of each build makes a pair; pairs alternate their order (AB, BA,
AB, ...), so slow drift of the host lands on both sides alike.

For every end-to-end metric of BENCHMARK.json it prints each pair's
ratio B/A, both medians with their quartiles, how many pairs B won, and
a verdict: "faster" (better) or "slower" (worse) when B wins, or loses,
at least nine pairs in ten and the medians differ by more than A's
interquartile range; otherwise "not resolved". It never reports a bare
median. Nothing is fetched: both builds come from local sources.
Exits 1 when any run fails its correctness check.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile


def sh(cmd, cwd, **kw):
    return subprocess.run(cmd, cwd=cwd, check=True, **kw)


def export(repo, rev, scratch):
    """Export the committed files of rev into scratch/<sha> and return
    that directory; an earlier export of the same commit is reused."""
    sha = sh(["git", "rev-parse", "--verify", rev + "^{commit}"], repo,
             capture_output=True, text=True).stdout.strip()
    out = os.path.join(scratch, sha[:12])
    if not os.path.isfile(os.path.join(out, ".exported")):
        os.makedirs(out, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=repo,
                                   stdout=subprocess.PIPE)
        sh(["tar", "-x", "-C", out], repo, stdin=archive.stdout)
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {rev} failed")
        open(os.path.join(out, ".exported"), "w").close()
    return out


def build(tree):
    sh(["dune", "build", "--root", ".", "./benchmark/main.exe"], tree,
       stdout=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))


def measure(tree, workload, seed):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(f"ab: no result from {tree} ({workload}, seed {seed}):\n"
                 + proc.stderr[-2000:])
    return json.loads(lines[-1])


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(a, b, better):
    """Wins of B, and the verdict on the pairs (a[i], b[i])."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    need = math.ceil(0.9 * len(a))
    qa, qb = quartiles(a), quartiles(b)
    gap = sign * (qb[1] - qa[1])
    iqr = qa[2] - qa[0]
    if wins >= need and gap > iqr:
        return wins, "faster"
    if losses >= need and -gap > iqr:
        return wins, "slower"
    return wins, "not resolved"


def report(workload, catalog, runs_a, runs_b):
    print(f"\n== {workload}: {len(runs_a)} pairs, A = base, B = change")
    bad = [r for r in runs_a + runs_b if not r["correct"] or r["failed"]]
    print(f"runs failing their check: {len(bad)}")
    for m in catalog:
        name = m["name"]
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        ratios = [y / x if x else math.nan for x, y in zip(a, b)]
        qa, qb = quartiles(a), quartiles(b)
        wins, v = verdict(a, b, m["better"])
        print(f"{name} ({m['unit']}, {m['better']} is better)")
        print("  B/A per pair: " + " ".join(f"{r:.3f}" for r in ratios))
        print(f"  A median {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
              f"  B median {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
              f"  B wins {wins}/{len(a)}  -> {v}")
    return not bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision A, e.g. HEAD~1")
    p.add_argument("--change", help="revision B (default: the working tree)")
    p.add_argument("--workload", action="append", required=True,
                   help="benchmark workload; repeat for several")
    p.add_argument("--seeds", default="1-10", help="e.g. 7-16 or 1,3,5")
    p.add_argument("--scratch",
                   default=os.path.join(tempfile.gettempdir(), "scmp-ab"),
                   help="where revisions are exported and built")
    args = p.parse_args()

    repo = os.getcwd()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        sys.exit("ab: need at least two seeds")
    tree_a = export(repo, args.base, args.scratch)
    tree_b = export(repo, args.change, args.scratch) if args.change else repo
    for tree in (tree_a, tree_b):
        build(tree)
    with open(os.path.join(tree_b, "BENCHMARK.json")) as f:
        catalog = json.load(f)["end_to_end"]

    ok = True
    for workload in args.workload:
        runs_a, runs_b = [], []
        for i, seed in enumerate(seeds):
            order = [(tree_a, runs_a), (tree_b, runs_b)]
            if i % 2:
                order.reverse()
            for tree, runs in order:
                runs.append(measure(tree, workload, seed))
            print(f"{workload} seed {seed}: pair {i + 1}/{len(seeds)} done",
                  file=sys.stderr)
        ok = report(workload, catalog, runs_a, runs_b) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
