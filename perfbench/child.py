"""One pass of one workload in a fresh interpreter.

Usage: python3 child.py CONFIG_JSON RESULT_PATH

CONFIG_JSON holds workload, seed, size, mode ("setup", "plain" or "traced")
and spawn_time, the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so setup time runs from
the spawn to the moment the first item is ready.  The pass result is written
as JSON to RESULT_PATH.

Every process also times a fixed reference chunk of pure-Python work that
does not touch tiltlab: in a pass at its start, before the first item that
starts CHUNK_EVERY_S or more after the last chunk, and at its end; in a
set-up probe SETUP_CHUNKS times after set-up.  The parent scales each time by the chunk
times around it, which takes the machine's speed at that moment out of the
figures.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from time import perf_counter

SETUP_CHUNKS = 5
# Short enough to follow the machine's speed, long enough that items of well
# under a millisecond mostly run one after another with warm caches.
CHUNK_EVERY_S = 0.05
_CHUNK_TABLE = {i: (i % 7 + 1, i % 5 + 1) for i in range(256)}


def reference_chunk() -> float:
    """Seconds taken by one fixed chunk of Fraction and dict work, the kind
    of work tiltlab's scalars do.  The cyclic garbage collector is paused, so
    that the size of the library's heap cannot change the chunk's cost."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    total = Fraction(0)
    for i in range(600):
        num, den = _CHUNK_TABLE[i & 255]
        total = total + Fraction(num, den) if i % 16 else Fraction(0)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def timed_chunk() -> float:
    """A reference chunk timed after a first, untimed one, so that caches
    left cold by the item before it do not count."""
    reference_chunk()
    return reference_chunk()


def run_pass(workload, tracer=None):
    """Run and check every item; a failure is recorded, never raised.

    Returns the outputs, the errors and the timings: each item's latency (the
    library call) and segment (the call and its output check), the time of
    the checks over the whole answer set (finish_s), the reference chunk
    times, and for each item the index of the last chunk before it.  The
    pass's wall time is the sum of the segments and finish_s."""
    items = workload.items
    outputs, latencies, segments, errors = [], [], [], {}
    chunks, chunk_of = [timed_chunk()], []
    last_chunk = perf_counter()
    for k, item in enumerate(items):
        if perf_counter() - last_chunk >= CHUNK_EVERY_S:
            chunks.append(timed_chunk())
            last_chunk = perf_counter()
        chunk_of.append(len(chunks) - 1)
        if tracer is not None:
            tracer.item = k
        t0 = perf_counter()
        try:
            out = workload.run(item)
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        else:
            err = None
        latencies.append(perf_counter() - t0)
        if err is None:
            try:
                err = workload.check(item, out)
            except Exception as exc:  # noqa: BLE001 - a crashing oracle fails the item
                err = f"check raised {type(exc).__name__}: {exc}"
        segments.append(perf_counter() - t0)
        outputs.append(out)
        if err is not None:
            errors[k] = err
    if tracer is not None:
        tracer.item = len(items)
    t0 = perf_counter()
    for k, err in workload.finish(outputs).items():
        errors.setdefault(k, err)
    finish = perf_counter() - t0
    chunks.append(timed_chunk())
    timings = {
        "latencies": latencies,
        "segments": segments,
        "finish_s": finish,
        "chunks": chunks,
        "chunk_of": chunk_of,
    }
    return outputs, errors, timings


def main(argv):
    config = json.loads(argv[1])
    result_path = argv[2]
    import tiltlab.cli  # noqa: F401 - part of set-up: a CLI process loads every layer

    import tracer as tracing
    import workloads

    tracer = None
    if config["mode"] == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    try:
        workload = workloads.WORKLOADS[config["workload"]](
            config["seed"], config["size"], config["workdir"]
        )
        setup_s = time.monotonic() - config["spawn_time"]
        result = {
            "setup_s": setup_s,
            "items": len(workload.items),
            "python": sys.version.split()[0],
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        }
        if config["mode"] == "setup":
            result["chunk_s"] = statistics.median(timed_chunk() for _ in range(SETUP_CHUNKS))
        else:
            outputs, errors, timings = run_pass(workload, tracer)
            result.update(
                timings,
                wall_s=sum(timings["segments"]) + timings["finish_s"],
                ids=[item["id"] for item in workload.items],
                digests=[workloads.digest(out) for out in outputs],
                errors={str(k): v for k, v in errors.items()},
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        metrics, traced_self = tracer.metrics(result["wall_s"])
        result.update(
            layer_metrics=metrics,
            traced_self_s=traced_self,
            restored=tracer.restored(),
            spans=len(tracer.span_name),
        )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
