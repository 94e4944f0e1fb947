"""Verdicts of tools/bench_pairs.py's compare() on fixed paired runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
OK = {"name": "ok_ratio", "unit": "1", "better": "higher", "bound": 0.005}
PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
# parent quartiles 0.9925 and 1.01: an interquartile range of 0.0175, 14 times
# smaller than the bound of 0.25 times the median
NOISY = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]


@pytest.mark.parametrize("metric, parent, change, fails_more, verdicts", [
    # every pair won by far more than the parent's spread
    (WALL, PARENT, [x * 0.8 for x in PARENT], False,
     {"claim_holds": True, "within_bound": True, "unresolved": False}),
    # the same runs, but the change fails more items: no gain is claimed
    (WALL, PARENT, [x * 0.8 for x in PARENT], True,
     {"claim_holds": False, "within_bound": True, "unresolved": False}),
    # no gain, and within the bound
    (WALL, PARENT, [x * 1.1 for x in PARENT], False,
     {"claim_holds": False, "within_bound": True, "unresolved": False}),
    # a regression beyond the bound, with a tight parent spread
    (WALL, PARENT, [x * 1.3 for x in PARENT], False,
     {"claim_holds": False, "within_bound": False, "unresolved": False}),
    # the parent spreads wider than the bound: the median says little
    (WALL, NOISY, list(reversed(NOISY)), False,
     {"claim_holds": False, "within_bound": True, "unresolved": True}),
    # ... unless every change run is better than every parent run
    (WALL, NOISY, [0.5] * 10, False,
     {"claim_holds": True, "within_bound": True, "unresolved": False}),
    # higher is better: a noisy ok_ratio with one change run below the parent's
    (OK, [1.0, 0.9] * 5, [0.95] * 10, False,
     {"claim_holds": False, "within_bound": True, "unresolved": True}),
], ids=["claim", "claim-fails-more", "within-bound", "regression", "unresolved",
        "noisy-but-all-better", "unresolved-higher-better"])
def test_compare_verdicts(metric, parent, change, fails_more, verdicts):
    got = bench_pairs.compare(metric, parent, change, fails_more)
    assert {k: got[k] for k in verdicts} == verdicts
    assert got["change_wins"] + got["parent_wins"] + got["ties"] == len(parent)
