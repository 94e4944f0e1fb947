#!/usr/bin/env python3
"""The tiltlab benchmark.

    python3 perfbench/run.py --workload cmin --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Every pass of a workload runs in a fresh interpreter (one client,
closed loop, no think time, no worker processes), so the library's in-memory
caches start empty each time.  Before each pass a run starts a few
set-up-only interpreters, and it repeats passes until the next one would end
after ``--seconds``, with at least three passes.  Each pass checks every
item's output; a failed check is counted, never fatal.

Every time is scaled to a fixed machine speed: each process times a fixed
reference chunk of pure-Python work (child.reference_chunk) alongside its own
work, and each time is multiplied by CHUNK_NOMINAL_S over the chunk times
around it.  The speed of the machine this was written on drifts twofold within
minutes, and the scaling removes that drift but no change of the program.
The unscaled times are printed too.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates plain and traced passes and prints the per-layer metrics; the
traced passes wrap the library's public functions from outside (tracer.py).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every check passed, 1 when one
failed and 2 when the run itself could not be made (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 0
WORKLOAD_NAMES = ("cmin", "ideals", "alcove", "membership")
SETUP_PROBES = 3  # set-up-only interpreters before each pass
MIN_PASSES = 3  # so that the median of a run outvotes one pass slowed by the machine
RUN_LIMIT_S = 170  # every run, set-up and passes included, ends well within 180 s
# a reference chunk's time at the fixed speed that every time is scaled to:
# about its median on a 2-core Xeon VM at 2.0 GHz at its fastest, with
# Python 3.11.7
CHUNK_NOMINAL_S = 0.00135


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env(rundir):
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "TILTLAB_"))}
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.join(rundir, "pycache"),
        TMPDIR=rundir,
    )
    return env


def spawn(config, mode, deadline):
    """One fresh interpreter; returns the pass result it wrote."""
    rundir = config["workdir"]
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=rundir)
    os.close(fd)
    payload = json.dumps(dict(config, mode=mode, spawn_time=time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, payload, result_path],
            cwd=rundir,
            env=child_env(rundir),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{config['workload']} {mode} pass passed the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{config['workload']} {mode} pass exited {proc.returncode}:\n{tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


def collect(workload, seed, seconds, trace, size="full", probes=SETUP_PROBES, min_passes=MIN_PASSES):
    """Rounds of set-up probes and a pass until the next round would end after
    `seconds`.  The probes are spread over the run, like the passes, so that
    a short slow spell of the machine cannot set their median."""
    if not os.path.isfile(os.path.join(SRC, "tiltlab", "__init__.py")):
        raise BenchError(f"no tiltlab sources under {SRC}")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    os.makedirs(TMP_ROOT, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    config = {"workload": workload, "seed": seed, "size": size, "workdir": rundir}
    runs = {"setups": [], "plain": [], "traced": []}
    try:
        while True:
            round_start = time.monotonic()
            for _ in range(probes):
                runs["setups"].append(spawn(config, "setup", deadline))
            runs["plain"].append(spawn(config, "plain", deadline))
            if trace:
                runs["traced"].append(spawn(config, "traced", deadline))
            now = time.monotonic()
            enough = len(runs["plain"]) >= min_passes
            if enough and now - start + (now - round_start) > seconds:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it
    return runs


def scaled_pass(run):
    """A pass's wall time and item latencies at the nominal machine speed.
    Each item, and the checks over the whole answer set after the items, is
    scaled by the mean of the two chunks timed around it."""
    chunks = run["chunks"]

    def factor(j):
        return 2 * CHUNK_NOMINAL_S / (chunks[j] + chunks[j + 1])

    factors = [factor(j) for j in run["chunk_of"]]
    wall = sum(s * f for s, f in zip(run["segments"], factors))
    wall += run["finish_s"] * factor(len(chunks) - 2)
    return wall, [x * f for x, f in zip(run["latencies"], factors)]


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_golden(workload):
    try:
        with open(GOLDEN) as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def item_failures(run, golden, reference=None):
    """Item index -> reason: failed oracles, golden digests, traced drift."""
    bad = {int(k): v for k, v in run["errors"].items()}
    for k, (item_id, dig) in enumerate(zip(run["ids"], run["digests"])):
        if golden and golden.get(item_id) != dig:
            bad.setdefault(k, f"output digest {dig} != recorded {golden.get(item_id)}")
        if reference is not None and reference.get(item_id) != dig:
            bad.setdefault(k, "traced output differs from the plain output")
    return bad


def summarize(workload, seed, runs, trace, spec, size="full"):
    plain, traced = runs["plain"], runs["traced"]
    golden = load_golden(workload) if seed == GOLDEN_SEED and size == "full" else {}
    problems = []
    failed = attempted = 0
    reference = dict(zip(plain[0]["ids"], plain[0]["digests"]))
    for run, is_traced in [(r, False) for r in plain] + [(r, True) for r in traced]:
        bad = item_failures(run, golden, reference if is_traced else None)
        attempted += len(run["ids"])
        failed += len(bad)
        problems += [f"{run['ids'][k]}: {why}" for k, why in sorted(bad.items())]
    for run in traced:
        if not run["restored"]:
            problems.append("tracer left a wrapped binding behind")
        if run["traced_self_s"] > run["wall_s"] * (1 + 1e-9):
            problems.append(f"layer self times {run['traced_self_s']:.3f} s exceed wall {run['wall_s']:.3f} s")
    scaled = [scaled_pass(r) for r in plain]
    # each item's median latency over the passes, so that one slow pass does
    # not move the percentiles
    latencies = [statistics.median(item) for item in zip(*(lat for _, lat in scaled))]
    setups = runs["setups"]
    e2e = {
        "setup_s": statistics.median(
            [r["setup_s"] * CHUNK_NOMINAL_S / r["chunk_s"] for r in setups]
        ),
        "wall_s": statistics.median([wall for wall, _ in scaled]),
        "item_p50_ms": quantile(latencies, 50) * 1e3,
        "item_p90_ms": quantile(latencies, 90) * 1e3,
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        "ok_ratio": 1.0 - failed / attempted,
    }
    layer = {}
    if trace:
        for name in traced[0]["layer_metrics"]:
            layer[name] = statistics.median([r["layer_metrics"][name] for r in traced])
        layer["trace.overhead_ratio"] = statistics.median(
            [scaled_pass(r)[0] for r in traced]
        ) / e2e["wall_s"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layer if trace else e2e
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    info = {
        "items": plain[0]["items"],
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_probes": len(runs["setups"]),
        "failed_ratio": failed / attempted,
        "unscaled_setup_s": statistics.median([r["setup_s"] for r in setups]),
        "unscaled_wall_s": statistics.median([r["wall_s"] for r in plain]),
        "chunk_ms": statistics.median([c for r in plain for c in r["chunks"]]) * 1e3,
        "spans": [r["spans"] for r in traced],
        "python": plain[0]["python"],
        "gmpy2": plain[0]["gmpy2"],
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, e2e, layer, info, problems


def environment(seed, info):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "tiltlab"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": info["python"],
        "nproc": os.cpu_count(),
        "gmpy2": info["gmpy2"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def report(workload, seed, trace, e2e, layer, info, problems, spec):
    """Human-readable lines; the JSON result is printed last by main()."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# workload {workload}  seed {seed}  items {info['items']}  "
          f"passes {info['passes']} plain, {info['traced_passes']} traced  "
          f"setup probes {info['setup_probes']}")
    print("# env " + json.dumps(environment(seed, info), sort_keys=True))
    for name, value in e2e.items():
        print(f"{name:<24} {value:>14.6g} {units.get(name, '1')}")
    print(f"{'failed_ratio':<24} {info['failed_ratio']:>14.6g} 1")
    print(f"# unscaled: setup_s {info['unscaled_setup_s']:.6g} s, wall_s {info['unscaled_wall_s']:.6g} s; "
          f"median reference chunk {info['chunk_ms']:.4g} ms, nominal {CHUNK_NOMINAL_S * 1e3:.4g} ms")
    if trace:
        print("# layer self-time shares of the traced item loop")
        for name, value in layer.items():
            if name.startswith("share."):
                print(f"  {name[6:]:<22} {value:>8.1%}")
        print(f"# spans per traced pass: {info['spans']}")
    for line in problems[:20]:
        print(f"FAILED {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        runs = collect(args.workload, args.seed, args.seconds, args.trace)
        result, e2e, layer, info, problems = summarize(
            args.workload, args.seed, runs, args.trace, spec
        )
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.trace, e2e, layer, info, problems, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # leave nothing behind in the checkout
    # on SIGTERM, unwind: subprocess.run kills the running pass and collect()
    # removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
