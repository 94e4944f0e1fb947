"""Record the per-item output digests of the default seed in golden.json.

    python3 perfbench/record_golden.py

Runs one plain pass of every workload at the default seed.  The digests are
an oracle for later versions of the library, so record them only when a
workload's inputs change, and only from a version whose outputs are trusted;
nothing is written if any output check fails.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    golden = {}
    for name in run.WORKLOAD_NAMES:
        plain = run.collect(name, run.GOLDEN_SEED, 0, 0, probes=0, min_passes=1)["plain"][0]
        if plain["errors"]:
            print(f"{name}: output checks failed, nothing recorded: {plain['errors']}", file=sys.stderr)
            return 1
        golden[name] = dict(zip(plain["ids"], plain["digests"]))
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
