#!/usr/bin/env python3
"""Paired parent/change timings of C_min of large simple modules, written to
one SCALE_<pr>.json.

    git clone --quiet . ../parent && git -C ../parent checkout --quiet <parent-commit>
    git clone --quiet . ../change && git -C ../change checkout --quiet <change-commit>
    python3 tools/scale_probe.py --parent ../parent --change ../change --out SCALE_24.json

The benchmark's modules are small (n <= 15); this probe measures the regime
past them: C_min(L(24)) and C_min(L(30)) at ell 3 and C_min(L(40)) at ell 7.
Each case runs in a fresh interpreter of each checkout, one process at a
time, importing that checkout's src/; it times the construction of L(n) and
of C_min(L(n)) separately and reports the process's peak resident memory.
Pair i runs the parent first when i is even and the change first when it is
odd.  Every label table must equal the closed form of
tests/oracles.py::closed_form_label_table; a run whose table differs is
recorded as incorrect and the probe exits 1.  For each case the output holds
each side's runs, median and quartiles, and how many pairs each side won.
The file is rewritten after every case, so an interrupted probe keeps what
it measured.  It runs five pairs per case, the least that a scale claim may
cite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from bench_pairs import checkout_commit, summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from oracles import closed_form_label_table  # noqa: E402

CASES = [(3, 24), (3, 30), (7, 40)]
PAIRS = 5

# run in the checkout, with its src/ first on sys.path; prints one JSON line
CHILD = """
import json, resource, sys, time
from tiltlab.cyclotomic import CycloField
from tiltlab.minimal import minimal_tilting_complex
from tiltlab.standard import simple_module
ell, n = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
M = simple_module(CycloField(ell), n)
t1 = time.perf_counter()
table = minimal_tilting_complex(M).label_table()
t2 = time.perf_counter()
print(json.dumps({"module_s": t1 - t0, "cmin_s": t2 - t1,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "table": {str(k): v for k, v in sorted(table.items())}}))
"""


def run_once(checkout, ell, n):
    """One fresh-process run of C_min(L(n)) at ell in the checkout; returns
    its timings and memory, and whether its table is the closed form."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    argv = [sys.executable, "-c", CHILD, str(ell), str(n)]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: C_min(L({n})) at ell {ell} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {str(k): v for k, v in sorted(closed_form_label_table(ell, "L", n).items())}
    return {k: result[k] for k in ("module_s", "cmin_s", "peak_rss_mb")}, result["table"] == expected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="clean git checkout of the parent commit")
    parser.add_argument("--change", required=True, help="clean git checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    try:
        commits = {side: checkout_commit(getattr(args, side)) for side in ("parent", "change")}
    except RuntimeError as exc:
        parser.error(str(exc))

    out = {
        "command": "tools/scale_probe.py",
        "commits": commits,
        "pairs": PAIRS,
        "order": "parent first in even pairs, change first in odd pairs",
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform()},
        "cases": {},
    }
    all_correct = True
    for ell, n in CASES:
        runs = {"parent": [], "change": []}
        correct = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                metrics, ok = run_once(getattr(args, side), ell, n)
                runs[side].append(metrics)
                correct[side].append(ok)
                all_correct &= ok
            print(f"L({n}) ell {ell} pair {i}: cmin_s parent {runs['parent'][-1]['cmin_s']:.4g}"
                  f" change {runs['change'][-1]['cmin_s']:.4g}", flush=True)
        metrics = {}
        for name in ("cmin_s", "module_s", "peak_rss_mb"):
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            metrics[name] = {
                "parent": summary(parent),
                "change": summary(change),
                "change_wins": sum(c < p for p, c in zip(parent, change)),
                "median_ratio": summary(change)["median"] / summary(parent)["median"],
            }
        out["cases"][f"L({n}) ell {ell}"] = {"ell": ell, "n": n, "correct": correct, "metrics": metrics}
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
