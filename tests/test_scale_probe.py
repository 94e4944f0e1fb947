"""tools/scale_probe.py measures one case in a fresh process and checks its
label table against the closed form of tests/oracles.py."""

import importlib.util
import os
import sys

_TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
sys.path.insert(0, _TOOLS)  # scale_probe imports bench_pairs from its own directory
_spec = importlib.util.spec_from_file_location("scale_probe", os.path.join(_TOOLS, "scale_probe.py"))
scale_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_probe)


def test_run_once_matches_the_closed_form():
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    metrics, correct = scale_probe.run_once(root, 3, 6)  # one child process
    assert correct
    assert set(metrics) == {"module_s", "cmin_s", "peak_rss_mb"}
    assert all(isinstance(v, float) and v > 0 for v in metrics.values())
