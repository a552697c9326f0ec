#!/usr/bin/env python3
"""Paired A/B of one benchmark command on two commits.

Exports the parent and the change commit into a scratch directory outside
the repository (git archive), then runs one command N times on each side.
Pair i runs the parent first when i is even and the change first when i
is odd, so a drift of the host during the run hits both sides alike.
Each run's last stdout line must be perfbench-style JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME:
{"value": ..., "unit": ...}, ...}}.

    tools/ab.py --parent HEAD~1 --change HEAD --pairs 10 -- \\
        python3 perfbench/run.py --workload packet --seed 1 --seconds 10 --trace 0

The command runs with the exported tree as its working directory. One
unrecorded warm-up run per side comes first: for perfbench it is the run
that builds each tree's binaries with CMake (into its .bench_build/).
Pass --workdir to keep the trees, and their builds, for a later call.

For every metric the tool prints each pair's values, both medians and
Q1-Q3, and how many pairs the change won, then one verdict:

  gain        the change wins at least 9 of every 10 pairs AND the medians
              differ by more than the parent's interquartile range;
  regression  the same rule with parent and change swapped;
  over bound  the change's median is worse than the parent's by more than
              the metric's "bound" in BENCHMARK.json (a fraction);
  no difference  otherwise.

Which direction is better, and the bound, come from BENCHMARK.json's
"end_to_end" and "per_layer" lists in the change's tree; a metric listed
in neither is printed without a verdict. Exit status: 0 when every run
was correct and no metric is a regression or over its bound, 1 otherwise,
2 on a usage error.

    tools/ab.py --self-test     checks the verdict rule on fixed numbers
"""

import argparse
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

GAIN_SHARE = 0.9  # at least 9 of every 10 pairs


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def verdict(parent, change, better, bound=None):
    """The verdict for one metric's paired values (lists in pair order)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same non-zero number of values per side")
    sign = -1.0 if better == "lower" else 1.0  # sign * (change - parent) > 0: change better
    n = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    med_p = quantile(parent, 0.5)
    med_c = quantile(change, 0.5)
    iqr_p = quantile(parent, 0.75) - quantile(parent, 0.25)
    gap = sign * (med_c - med_p)  # > 0: change's median is better
    needed = math.ceil(GAIN_SHARE * n)
    if wins >= needed and gap > iqr_p:
        return "gain"
    if losses >= needed and -gap > iqr_p:
        return "regression"
    if bound is not None and med_p != 0 and -gap > bound * abs(med_p):
        return "over bound"
    return "no difference"


def self_test():
    lower = "lower"
    parent = [106, 105, 106, 105.5, 106.2, 105.3, 106.1, 105.8, 105.9, 106.0]
    # 10/10 wins, and a gap far beyond the parent's IQR.
    assert verdict(parent, [71, 70, 72, 69, 74, 71, 70, 73, 71, 72], lower) == "gain"
    # The same numbers read the other way round are a regression.
    assert verdict([71, 70, 72, 69, 74, 71, 70, 73, 71, 72], parent, lower) == "regression"
    # 8 wins of 10 are not enough, however large the gap.
    eight = [71] * 8 + [200, 200]
    assert verdict(parent, eight, lower) == "no difference"
    # 9 of 10 is enough.
    assert verdict(parent, [71] * 9 + [200], lower) == "gain"
    # Every pair won, but the medians differ by less than the parent's IQR.
    wide = [100, 110, 120, 130, 140, 150, 160, 170, 180, 190]
    assert verdict(wide, [v - 1 for v in wide], lower) == "no difference"
    # "higher is better" flips the direction.
    assert verdict([1.0] * 10, [2.0] * 10, "higher") == "gain"
    assert verdict([1.0] * 10, [2.0] * 10, lower) == "regression"
    # Worse by 30% on a noisy metric that never loses 9 of 10: over a 0.25 bound.
    noisy_p = [100, 100, 100, 100, 100, 200, 200, 200, 200, 200]
    noisy_c = [195, 195, 195, 195, 195, 190, 190, 190, 190, 190]
    assert verdict(noisy_p, noisy_c, lower, bound=0.25) == "over bound"
    assert verdict(noisy_p, noisy_c, lower) == "no difference"
    # Ties are neither wins nor losses.
    assert verdict([5.0] * 10, [5.0] * 10, lower, bound=0.25) == "no difference"
    assert quantile([1, 2, 3, 4], 0.5) == 2.5 and quantile([3, 1, 2], 0.25) == 1.5
    print("ab.py self-test: ok")
    return 0


def git(repo, *args, **kwargs):
    return subprocess.run(["git", "-C", str(repo), *args], check=True, **kwargs)


def export(repo, rev, dest):
    """Write the tree of `rev` into `dest` (no worktree or index touched)."""
    archive = git(repo, "archive", "--format=tar", rev, stdout=subprocess.PIPE).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_once(tree, command):
    """Run the command in `tree`; returns (correct, result) where result
    holds "metrics" as {name: value} and the "attempted"/"failed" counts."""
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"] = {k: float(v["value"]) for k, v in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError):
        return False, {"metrics": {}}
    return proc.returncode == 0 and result.get("correct") is True, result


def load_metric_specs(tree):
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def fmt(value):
    return f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s --parent REV --change REV [options] -- COMMAND...")
    parser.add_argument("--self-test", action="store_true",
                        help="check the verdict rule on fixed numbers and exit")
    parser.add_argument("--parent", help="baseline commit")
    parser.add_argument("--change", help="commit under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workdir", type=Path,
                        help="scratch directory for the exported trees, kept "
                             "(default: a temporary directory, removed at exit)")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not (args.parent and args.change and command) or args.pairs < 1:
        parser.print_usage(sys.stderr)
        return 2

    repo = Path(__file__).resolve().parent.parent
    if args.workdir:
        if args.workdir.resolve().is_relative_to(repo):
            sys.exit("ab.py: --workdir must lie outside the repository")
        return run_pairs(repo, args.workdir, args, command)
    with tempfile.TemporaryDirectory(prefix="phodis-ab-") as workdir:
        return run_pairs(repo, Path(workdir), args, command)


def run_pairs(repo, workdir, args, command):
    sides = {}
    for name, rev in (("parent", args.parent), ("change", args.change)):
        sha = git(repo, "rev-parse", "--verify", rev + "^{commit}",
                  stdout=subprocess.PIPE, text=True).stdout.strip()
        tree = workdir / f"{name}-{sha[:12]}"
        if not tree.exists():
            export(repo, sha, tree)
        sides[name] = tree
        print(f"{name}: {rev} ({sha[:12]}) in {tree}", file=sys.stderr)

    for name, tree in sides.items():
        if not run_once(tree, command)[0]:
            print(f"ab.py: warm-up run on the {name} side was not correct", file=sys.stderr)

    values = {"parent": [], "change": []}
    operations = {"parent": [0, 0], "change": [0, 0]}  # failed, attempted
    incorrect = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            correct, result = run_once(sides[name], command)
            incorrect += not correct
            values[name].append(result["metrics"])
            operations[name][0] += result.get("failed", 0)
            operations[name][1] += result.get("attempted", 0)
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    specs = load_metric_specs(sides["change"])
    names = sorted(set().union(*values["parent"], *values["change"]))
    flagged = 0
    print(f"{args.pairs} pairs of: {' '.join(command)}")
    print(f"runs not correct: {incorrect} of {2 * args.pairs}")
    for name, (failed, attempted) in operations.items():
        print(f"{name} operations failed: {failed} of {attempted}")
    for metric in names:
        p = [m.get(metric) for m in values["parent"]]
        c = [m.get(metric) for m in values["change"]]
        if None in p or None in c:
            print(f"\n{metric}: missing from some runs, skipped")
            continue
        spec = specs.get(metric)
        print(f"\n{metric}" + (f" ({spec['unit']}, {spec['better']} is better)" if spec else ""))
        print("  parent: " + " ".join(fmt(v) for v in p))
        print("  change: " + " ".join(fmt(v) for v in c))
        for name, vals in (("parent", p), ("change", c)):
            print(f"  {name} median {fmt(quantile(vals, 0.5))}"
                  f"  Q1-Q3 {fmt(quantile(vals, 0.25))}-{fmt(quantile(vals, 0.75))}")
        if not spec:
            continue
        sign = -1.0 if spec["better"] == "lower" else 1.0
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        result = verdict(p, c, spec["better"], spec.get("bound"))
        flagged += result in ("regression", "over bound")
        print(f"  change wins {wins}/{args.pairs}  verdict: {result}")
    return 1 if incorrect or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
