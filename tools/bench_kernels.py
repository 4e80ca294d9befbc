"""Time toscaflow's byte kernels on the image_stream benchmark inputs.

Run from the root of a checkout; --src times another source tree:

    python3 tools/bench_kernels.py --label change
    python3 tools/bench_kernels.py --src ../parent/src --label parent

It generates the image_stream workload of perfbench/workloads.py for
seed 1 and gives each kernel the bytes it gets in that pipeline:
parse_schedule the schedule text, grayscale_transform the injected
payloads, blur_transform their grayscale, and encrypt_bytes and
rle_compress the blurred ones.  A pass calls the kernel once on each of
its inputs; each kernel's best and median of REPEAT passes, all in this
one process, go into BENCH_kernels.json under --label.  The other labels
in that file are kept, so two source trees measured on one host sit side
by side.  This is a measurement, not a test: it checks no output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_kernels.json")
SEED = 1
REPEAT = 15


def _time(kernel, inputs, repeat):
    """The times of `repeat` passes in milliseconds, with a full collection
    before each pass so no earlier pass's garbage is freed inside one."""
    times = []
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        for data in inputs:
            kernel(data)
        times.append((time.perf_counter() - start) * 1000)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the toscaflow package to time")
    parser.add_argument("--label", default="working tree",
                        help="name of this run in BENCH_kernels.json")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import toscaflow
    from toscaflow.crypto import encrypt_bytes
    from toscaflow.simulator import (blur_transform, grayscale_transform,
                                     parse_schedule, rle_compress)
    import workloads

    if not toscaflow.__file__.startswith(src + os.sep):
        print(f"error: toscaflow was imported from {toscaflow.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    schedule = workloads.image_stream(SEED).schedule
    payloads = [entry[4] for entry in parse_schedule(schedule)]
    grays = [grayscale_transform(p) for p in payloads]
    blurred = [blur_transform(p) for p in grays]
    # the keystream costs the same whatever the passphrase
    kernels = {
        "parse_schedule": (parse_schedule, [schedule]),
        "grayscale_transform": (grayscale_transform, payloads),
        "blur_transform": (blur_transform, grays),
        "encrypt_bytes": (lambda p: encrypt_bytes(p, "image_stream"), blurred),
        "rle_compress": (rle_compress, blurred),
    }
    results = {}
    for name, (kernel, inputs) in kernels.items():
        times = _time(kernel, inputs, REPEAT)
        results[name] = {"calls": len(inputs),
                         "input_len": sum(len(data) for data in inputs),
                         "best_ms": round(min(times), 3),
                         "median_ms": round(statistics.median(times), 3)}
        print(f"{name:20} best {min(times):8.3f} ms  "
              f"median {statistics.median(times):8.3f} ms")

    record = {"workload": "image_stream", "seed": SEED, "repeat": REPEAT,
              "runs": {}}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as handle:
            record = json.load(handle)
    record["runs"][args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "kernels": results,
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
