"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import types

import pytest

import child
import run
import tracer
import workloads

SPEC = run.load_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    runs = run.collect(name, 3, 0, trace, size="tiny", probes=1, min_passes=1)
    result, _, _, _, problems = run.summarize(name, 3, runs, trace, SPEC, size="tiny")
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_corrupted_label_table_is_counted_as_failed(tmp_path):
    workload = workloads.CminWorkload(3, "tiny", str(tmp_path))
    target = workload.items[1]["id"]
    honest = workload.run

    def corrupted(item):
        out = honest(item)
        if item["id"] == target:
            out["degrees"]["0"] = out["degrees"]["0"] + [0]
        return out

    workload.run = corrupted
    _, errors, _ = child.run_pass(workload)
    assert list(errors) == [1]
    assert "Euler character" in errors[1]


def _bindings():
    """Every function-like value bound in a tiltlab module, class or
    module-level dict, by location."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("tiltlab") or module is None:
            continue
        for key, value in vars(module).items():
            found[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    found[(mod_name, key, attr)] = member
            elif type(value) is dict:
                for dkey, dvalue in value.items():
                    if isinstance(dvalue, types.FunctionType):
                        found[(mod_name, key, "[]", repr(dkey))] = dvalue
    return found


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    import tiltlab.cli  # noqa: F401 - load every layer before the snapshot
    import tiltlab.minimal
    import tiltlab.modules

    before = _bindings()
    original_hom = tiltlab.modules.hom_space
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tiltlab.minimal.hom_space is not original_hom
        assert tiltlab.minimal.hom_space is tiltlab.modules.hom_space
        workload = workloads.CminWorkload(3, "tiny", str(tmp_path))
        _, errors, timings = child.run_pass(workload, tr)
    finally:
        tr.uninstall()
    assert errors == {}
    assert tr.restored()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    wall = sum(timings["segments"]) + timings["finish_s"]
    metrics, traced_self = tr.metrics(wall)
    assert metrics["minimal.cmin_calls"] >= len(workload.items)
    assert metrics["standard.tilting_calls"] > 0
    assert traced_self <= wall


def test_a_missing_traced_function_stops_the_trace(monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + [("modules", "no_such_function", "modules.hom")])
    tr = tracer.Tracer()
    with pytest.raises(tracer.TraceError, match="no_such_function"):
        tr.install()
    tr.uninstall()
    assert tr.restored()
