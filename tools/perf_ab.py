#!/usr/bin/env python3
"""A/B comparison of two revisions on the repository benchmark.

    python3 tools/perf_ab.py --parent REV [--workloads w1,w2] [--pairs 10]
        [--seed 1] [--seconds S] [--trace] [--scratch DIR]

The parent side is REV exported with `git archive` into the scratch
directory; the change side is this checkout's working tree (check out a
revision to measure it). Each side builds and runs through its own
perfbench/run.py under its own CARGO_TARGET_DIR, so the two builds never
share objects. Each workload runs --pairs pairs, and the side that goes first
alternates from pair to pair, so a slow phase of the host hits both sides
alike.

Per end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles over the pairs, the pairs the change won (ties count for neither),
the change/parent ratio of the medians, the metric's bound, and a verdict:
"worse" when the change's median is worse than the parent's by more than
the bound; "better" when the change won at least 9 pairs in 10, its median
is better than the parent's by more than the parent's interquartile range,
and its share of failed ops is no larger than the parent's; "unresolved"
when that range is wider than the bound and not every change run beat every
parent run; "held" otherwise. Above the table it prints each side's failed
ops; below it, output checks, whether the two sides' summary digests agree
(where a workload reports one) and whether every exact count (the results'
"counts": probes executed, calls dispatched, documents aggregated, ...) is
one value over all runs of both sides, naming each count that is not.

With --trace the runs are traced (run.py --trace 1) and the table compares
each layer span's self time per op instead.

Run it from anywhere inside the checkout. --seconds defaults to
BENCHMARK.json's run_seconds; --scratch defaults to .perf_ab at the root of
the checkout. Exported trees and build directories in it are reused by later
runs of the same revision.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def export(rev, scratch):
    """Exports `rev` into scratch/<sha>/ once; returns the tree and its label."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = scratch / f"tree-{sha[:12]}"
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            fail(f"could not export {rev} into {tree}")
    return tree, sha[:12]


class Side:
    def __init__(self, name, tree, label, scratch):
        self.name = name
        self.tree = tree
        self.label = label
        self.target = scratch / f"build-{label}"

    def run(self, workload, seed, seconds, trace):
        """One benchmark run; returns run.py's full stamped result."""
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        command = [sys.executable, str(self.tree / "perfbench" / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
                   "1" if trace else "0"]
        proc = subprocess.run(command, cwd=self.tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            fail(f"{self.name} ({self.label}) {workload} run failed with status {proc.returncode}")
        suffix = ".trace" if trace else ""
        results = self.target / "perfbench" / "results" / f"{workload}-seed{seed}{suffix}.json"
        return json.loads(results.read_text())


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(name, unit, better, bound, parent, change, gain_counts):
    """One table row: medians, quartiles, pairs won, ratio, verdict.

    gain_counts is False when the change failed a larger share of ops than
    the parent; its metrics then cannot read "better".
    """
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1 if better == "lower" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    ratio = cmed / pmed if pmed else float("nan")
    worse_by = sign * (cmed - pmed) / pmed if pmed else 0.0
    spread = (pq3 - pq1) / pmed if pmed else 0.0
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if bound is not None and worse_by > bound:
        verdict = "worse"
    elif gain_counts and won * 10 >= 9 * len(parent) and sign * (pmed - cmed) > pq3 - pq1:
        verdict = "better"
    elif bound is not None and spread > bound and not every_run_better:
        verdict = "unresolved"  # the parent's own spread is wider than the bound
    else:
        verdict = "held"
    bound_text = f"{bound:.2f}" if bound is not None else "-"
    return (f"  {name:<24} {unit:<6} {pmed:>11.4f} [{pq1:.4f}, {pq3:.4f}]"
            f" {cmed:>11.4f} [{cq1:.4f}, {cq3:.4f}]  {won:>2}/{len(parent):<2}"
            f"  {ratio:>6.3f}  {bound_text:>5}  {verdict}")


def failed_share(side, runs, trace):
    """(attempted, failed, failed share) over all of a side's run windows."""
    windows = [w for r in runs[side.name]
               for w in ([r["untraced"]] + ([r["traced"]] if trace else []))]
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    return attempted, failed, failed / attempted if attempted else 0.0


def report(workload, spec, args, sides, runs):
    parent, change = sides
    print(f"\n== {workload}: seed {args.seed}, {args.seconds:g} s, {args.pairs} pairs"
          f"{', traced' if args.trace else ''}; parent {parent.label}, change {change.label}")
    shares = {}
    for side in sides:
        attempted, failed, shares[side.name] = failed_share(side, runs, args.trace)
        print(f"  {side.name}: ops attempted {attempted}, failed {failed}"
              f" (share {shares[side.name]:.4f})")
    gain_counts = shares[change.name] <= shares[parent.name]
    if not gain_counts:
        print("  the change failed a larger share of ops: no metric reads better")
    print(f"  {'metric':<24} {'unit':<6} {'parent median [q1, q3]':>32}"
          f" {'change median [q1, q3]':>32}  won    ratio  bound  verdict")
    if args.trace:
        layers = sorted(set().union(*(r["layers"] for r in runs[parent.name] + runs[change.name])))
        for layer in layers:
            values = [[r["layers"].get(layer, {}).get("ms", 0.0) for r in runs[s.name]]
                      for s in sides]
            print(compare(layer, "ms/op", "lower", None, *values, gain_counts))
    else:
        for entry in spec["end_to_end"]:
            values = [[r["metrics"][entry["name"]] for r in runs[s.name]] for s in sides]
            print(compare(entry["name"], entry["unit"], entry["better"], entry["bound"], *values,
                          gain_counts))
    for side in sides:
        correct = sum(1 for r in runs[side.name] if r["correct"])
        print(f"  {side.name}: output checks PASS in {correct}/{len(runs[side.name])} runs")
    digests = [{r.get("digest", "") for r in runs[s.name]} for s in sides]
    if any(d != {""} for d in digests):
        same = len(digests[0]) == 1 and digests[0] == digests[1]
        print(f"  summary digest: {'equal on both sides' if same else 'DIFFERS'} "
              f"(parent {sorted(digests[0])}, change {sorted(digests[1])})")
    print_counts(sides, runs)


def print_counts(sides, runs):
    """Whether each exact count is one value over every run of both sides.

    The counts (probes executed, pages faulted, calls dispatched, documents
    aggregated, ...) are exact for a seed, so two sides that did the same work
    report the same ones; a count that differs is named with each side's
    values.
    """
    values = {}
    for side in sides:
        for r in runs[side.name]:
            for name, value in r.get("counts", {}).items():
                values.setdefault(name, {s.name: set() for s in sides})[side.name].add(value)
    if not values:
        return
    differ = sorted(name for name, by_side in values.items()
                    if len(set().union(*by_side.values())) > 1
                    or any(not seen for seen in by_side.values()))
    if not differ:
        print(f"  exact counts: all {len(values)} equal in every run of both sides")
        return
    print(f"  exact counts: {len(differ)} of {len(values)} DIFFER")
    for name in differ:
        sides_text = ", ".join(f"{s.name} {sorted(values[name][s.name])}" for s in sides)
        print(f"    {name}: {sides_text}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workloads", default="derive,hardened-app,fleet")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scratch", type=Path, default=ROOT / ".perf_ab")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        fail("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    scratch = args.scratch.resolve()
    scratch.mkdir(parents=True, exist_ok=True)

    sides = (Side("parent", *export(args.parent, scratch), scratch),
             Side("change", ROOT, "worktree", scratch))

    for workload in args.workloads.split(","):
        runs = {side.name: [] for side in sides}
        for pair in range(args.pairs):
            order = sides if pair % 2 == 0 else sides[::-1]
            for side in order:
                runs[side.name].append(side.run(workload, args.seed, args.seconds, args.trace))
            print(f"  [{workload}] pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        report(workload, spec, args, sides, runs)


if __name__ == "__main__":
    main()
