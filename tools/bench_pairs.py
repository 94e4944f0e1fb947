#!/usr/bin/env python3
"""Paired parent/change benchmark runs, summarized into one BENCH_<pr>.json.

    git clone --quiet . ../parent && git -C ../parent checkout --quiet <parent-commit>
    git clone --quiet . ../change && git -C ../change checkout --quiet <change-commit>
    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --first-seed 11 --out BENCH_9.json

Both checkouts must be git checkouts without uncommitted changes, so that the
commit recorded for each side is what was measured.  For each workload of
BENCHMARK.json, pair i (ten pairs) runs

    python3 perfbench/run.py --workload W --seed <first-seed + i> --seconds S --trace 0

once in each checkout, one process at a time, with S the benchmark's
run_seconds: the parent first in even pairs and the change first in odd
ones, so that a drift of the machine's speed falls on both sides alike.  For
every end-to-end metric the output records each side's values, median and
quartiles, and how many pairs each side won (ties count for neither), and
for each run whether every correctness check passed.  It also records the
three verdicts a change is judged by: `claim_holds` (the change fails no
larger share of items than the parent, wins at least nine pairs in ten, and
the medians lie further apart than the parent's interquartile range),
`within_bound` (the change's median is no worse than the parent's by more
than the metric's bound) and `unresolved` (the parent's interquartile range
is wider than the bound times its median, so within_bound cannot tell a
regression from noise, and not every run of the change is better than every
run of the parent).  The file is rewritten after every workload, so an
interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git(checkout, *argv):
    proc = subprocess.run(["git", "-C", checkout, *argv], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: git {' '.join(argv)} failed: {proc.stderr.strip()}")
    return proc.stdout.strip()


def checkout_commit(checkout):
    """The commit of a clean git checkout; raises if it has none or is dirty."""
    commit = git(checkout, "rev-parse", "HEAD")
    if git(checkout, "status", "--porcelain", "--untracked-files=no"):
        raise RuntimeError(f"{checkout}: uncommitted changes, so commit {commit} is not what would be measured")
    return commit


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns (metrics {name: value}, correct, env line or None)."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    env = None
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, proc.returncode == 0, env


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(metric, parent, change, fails_more):
    """Verdicts for one end-to-end metric over paired runs; no gain is
    claimed for a change that fails a larger share of items (`fails_more`)."""
    lower = metric["better"] == "lower"
    change_wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    parent_wins = sum((p < c) if lower else (p > c) for p, c in zip(parent, change))
    ps, cs = summary(parent), summary(change)
    gap = ps["median"] - cs["median"] if lower else cs["median"] - ps["median"]
    iqr = ps["q3"] - ps["q1"]
    if lower:
        within = cs["median"] <= ps["median"] * (1 + metric["bound"])
        all_better = max(change) < min(parent)
    else:
        within = cs["median"] >= ps["median"] * (1 - metric["bound"])
        all_better = min(change) > max(parent)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": ps,
        "change": cs,
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "ties": len(parent) - change_wins - parent_wins,
        "median_ratio": cs["median"] / ps["median"] if ps["median"] else None,
        "parent_iqr": iqr,
        "claim_holds": not fails_more and change_wins >= CLAIM_WIN_SHARE * len(parent) and gap > iqr,
        "within_bound": within,
        "unresolved": iqr > metric["bound"] * abs(ps["median"]) and not all_better,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="clean git checkout of the parent commit")
    parser.add_argument("--change", required=True, help="clean git checkout of the change")
    parser.add_argument("--first-seed", type=int, required=True, help="seed of pair 0; pair i uses first-seed + i")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    spec = load_spec(args.parent)
    if spec != load_spec(args.change):
        parser.error("the two checkouts have different BENCHMARK.json files")
    try:
        commits = {side: checkout_commit(getattr(args, side)) for side in ("parent", "change")}
    except RuntimeError as exc:
        parser.error(str(exc))
    seconds = spec["run_seconds"]

    out = {
        "command": "perfbench/run.py --trace 0",
        "commits": commits,
        "seconds": seconds,
        "pairs": PAIRS,
        "seeds": [args.first_seed + i for i in range(PAIRS)],
        "order": "parent first in even pairs, change first in odd pairs",
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform()},
        "env": {},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        correct = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                metrics, ok, env = run_once(getattr(args, side), workload, seed, seconds)
                runs[side].append(metrics)
                correct[side].append(ok)
                if env is not None:
                    out["env"][side] = {k: env.get(k) for k in ("commit", "src_sha256", "python", "nproc")}
            print(f"{workload} pair {i} seed {seed}: wall_s parent {runs['parent'][-1]['wall_s']:.4g}"
                  f" change {runs['change'][-1]['wall_s']:.4g}", flush=True)
        fails_more = sum(r["ok_ratio"] for r in runs["change"]) < sum(r["ok_ratio"] for r in runs["parent"])
        out["workloads"][workload] = {
            "correct": correct,
            "metrics": {
                m["name"]: compare(
                    m,
                    [r[m["name"]] for r in runs["parent"]],
                    [r[m["name"]] for r in runs["change"]],
                    fails_more,
                )
                for m in spec["end_to_end"]
            },
        }
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for name, v in out["workloads"][workload]["metrics"].items():
            print(f"  {name:<12} parent {v['parent']['median']:.4g} [{v['parent']['q1']:.4g}, {v['parent']['q3']:.4g}]"
                  f"  change {v['change']['median']:.4g}  wins {v['change_wins']}/{PAIRS}"
                  f"  claim {v['claim_holds']}  within bound {v['within_bound']}"
                  f"  unresolved {v['unresolved']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
