"""Time toscaflow's parser, byte kernels and simulator engine on benchmark inputs.

Run from the root of a checkout; --src times another source tree:

    python3 tools/bench_kernels.py --label change
    python3 tools/bench_kernels.py --src ../parent/src --label parent

It generates the image_stream workload of perfbench/workloads.py for
seed 1 and gives each kernel the bytes it gets in that pipeline:
parse_schedule the schedule text, grayscale_transform the injected
payloads, blur_transform their grayscale, and encrypt_bytes and
rle_compress the blurred ones.  `blur_transform small` is blur on the
grayscale of the store_relay seed 1 job's injected payloads, at most 256
bytes each, where the cost per call dominates, and `rle_compress small`
is RLE on what that job's RLE hop gets: the grayscale of that blur.
`unpack_csar` reads the image_stream CSAR, and `pack_csar` packs that
archive's files again, as the benchmark's traced `csar.pack_s` does.  A
pass calls the kernel once on each of its inputs.

The parse rows time the two halves of `parse_service_template` on the
two texts the blueprint_scale seed 1 job parses: the CSAR's entry
definitions, and the serialization of that template repaired by
`verify(fix=True)`.  `compose` is the YAML node tree alone; `model build`
is the rest of `parse_service_template`, handed a tree composed before
the pass.  `serialize repaired` is `serialize_template` writing the
second text from that repaired template.

The engine rows time each stage of a job after the parse on its own.
At each rung of the trickle probe below, the `verify fix` rows repair the
blueprint_scale seed 1 template with `verify(fix=True)`, and the
`verify clean`, `plan` and `instantiate` rows verify, plan and build a
flow from the repaired template.  The rung's `serialize repaired`,
`compose repaired` and `model build repaired` rows write that template
and parse the text again, as the parse rows do at 32 chains; at 512
chains the text goes to the pure loader (see _suits_libyaml), so those
rows show that cliff.
The other rows time `Flow.run_until` alone, on a flow built before the
pass: the store_relay seed 1 job's flow through its horizon; the same flow
with a long schedule, one 16-byte object a tick for LONG_TICKS ticks into
the bucket its first hop reads, run for a further horizon past the last
one; the same flow with a burst, BURST_OBJECTS objects of 16 bytes written
at tick 0 into that bucket, so each firing carries the whole burst, run
through the horizon; and the trickle probe, which feeds TRICKLE_OBJECTS
objects of 64 bytes, one per tick, into C000_Src of the blueprint_scale
seed 1 template repaired by `verify(fix=True)` and runs to tick
TRICKLE_END, so one six-block chain does all the work however many chains
the template has.
The probe runs at each of TRICKLE_CHAINS, set as
`workloads.BLUEPRINT_CHAINS` in this process; building the 512-chain
template takes several seconds.

Each row's best and median of REPEAT passes, all in this one process, go
into BENCH_kernels.json under --label, next to the collections the cyclic
collector ran inside those passes: one count per generation, summed over
the passes.  The other labels in that file are kept, so two source trees
measured on one host sit side by side.  This is a measurement, not a test:
it checks no output.
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
TRICKLE_CHAINS = (32, 512)
TRICKLE_OBJECTS = 200
TRICKLE_END = 260
LONG_TICKS = 16_000
BURST_OBJECTS = 2_000


def _time(run, prepare, repeat):
    """The times of `repeat` calls of `run(prepare())` in milliseconds and
    the collections of each generation that ran inside them, from
    `gc.get_stats()`.  `prepare` is untimed, and a full collection before
    each call, not counted, frees every earlier pass's garbage."""
    times = []
    collections = [0] * len(gc.get_stats())
    for _ in range(repeat):
        argument = prepare()
        gc.collect()
        before = gc.get_stats()
        start = time.perf_counter()
        run(argument)
        times.append((time.perf_counter() - start) * 1000)
        for generation, (was, now) in enumerate(zip(before, gc.get_stats())):
            collections[generation] += now["collections"] - was["collections"]
    return times, collections


def _row(name, timed, **facts):
    times, collections = timed
    print(f"{name:24} best {min(times):8.3f} ms  "
          f"median {statistics.median(times):8.3f} ms  "
          f"collections {'/'.join(map(str, collections))}")
    return {**facts, "best_ms": round(min(times), 3),
            "median_ms": round(statistics.median(times), 3),
            "collections": collections}


def _parse_halves(toscaflow, label, text, filename):
    """The `compose` and `model build` rows of `text` as (name, run,
    prepare): `_time`'s arguments."""
    from toscaflow import parsing
    compose = parsing._compose
    yield f"compose {label}", lambda text: compose(text, filename), lambda: text

    def build(node):
        parsing._compose = lambda text, filename: node
        try:
            toscaflow.parse_service_template(text, filename)
        finally:
            parsing._compose = compose

    yield f"model build {label}", build, lambda: compose(text, filename)


def _parse(toscaflow, workloads):
    """The parse rows as (name, run, prepare): `_time`'s arguments."""
    archive = toscaflow.unpack_csar(workloads.blueprint_scale(SEED).csar())
    entry = archive.entry_definitions
    entry_text = archive.files[entry].decode("utf-8")
    fixed = toscaflow.verify(toscaflow.parse_service_template(entry_text, entry),
                             fix=True, seed=SEED)[0]
    yield from _parse_halves(toscaflow, "entry", entry_text, entry)
    yield from _parse_halves(toscaflow, "repaired", toscaflow.serialize_template(fixed),
                             "fixed.yaml")
    yield "serialize repaired", toscaflow.serialize_template, lambda: fixed


def _engine(toscaflow, workloads, worker):
    """The engine rows as (name, run, prepare, the row's facts): `_time`'s
    arguments first, each input built only when its row comes, so no other
    row's is alive."""
    def run_until(name, make_flow, t_end):
        return name, lambda flow: flow.run_until(t_end), make_flow, {"t_end": t_end}

    relay = workloads.store_relay(SEED)
    # a horizon before tick 0 leaves the job's flow built but not run
    yield run_until("store_relay run_until",
                    lambda: worker.run_job(relay.csar(), SEED, -1).flow, relay.horizon)

    def long_schedule():
        flow = worker.run_job(relay.csar(), SEED, -1).flow
        provider, bucket = flow.blocks["H0_Cons"].source
        for tick in range(LONG_TICKS):
            flow.schedule_injection(tick, provider, bucket, f"long-{tick:05d}",
                                    bytes([tick % 251]) * 16)
        return flow

    yield run_until("long schedule", long_schedule, LONG_TICKS + relay.horizon)

    def burst():
        flow = worker.run_job(relay.csar(), SEED, -1).flow
        provider, bucket = flow.blocks["H0_Cons"].source
        for n in range(BURST_OBJECTS):
            flow.put_object(provider, bucket, f"burst-{n:04d}", bytes([n % 251]) * 16)
        return flow

    yield run_until("burst", burst, relay.horizon)

    chains = workloads.BLUEPRINT_CHAINS
    for count in TRICKLE_CHAINS:
        workloads.BLUEPRINT_CHAINS = count
        try:
            blueprint = workloads.blueprint_scale(SEED).blueprint
        finally:
            workloads.BLUEPRINT_CHAINS = chains
        template = toscaflow.parse_service_template(blueprint)
        fixed = toscaflow.verify(template, fix=True, seed=SEED)[0]
        nodes = {"nodes": len(fixed.node_templates)}
        yield (f"verify fix {count} chains",
               lambda template: toscaflow.verify(template, fix=True, seed=SEED),
               lambda template=template: template, nodes)
        for name, stage in (("verify clean", toscaflow.verify), ("plan", toscaflow.plan),
                            ("instantiate", toscaflow.instantiate)):
            yield f"{name} {count} chains", stage, lambda fixed=fixed: fixed, nodes
        yield (f"serialize repaired {count} chains", toscaflow.serialize_template,
               lambda fixed=fixed: fixed, nodes)
        for row in _parse_halves(toscaflow, f"repaired {count} chains",
                                 toscaflow.serialize_template(fixed), "fixed.yaml"):
            yield *row, nodes

        def trickle(fixed=fixed):
            flow = toscaflow.instantiate(fixed)
            provider, bucket = flow.blocks["C000_Src"].source
            for tick in range(TRICKLE_OBJECTS):
                flow.schedule_injection(tick, provider, bucket, f"obj-{tick:03d}",
                                        bytes([tick % 251]) * 64)
            return flow

        yield run_until(f"trickle {count} chains", trickle, TRICKLE_END)


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
    import worker
    import workloads

    if not toscaflow.__file__.startswith(src + os.sep):
        print(f"error: toscaflow was imported from {toscaflow.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    image = workloads.image_stream(SEED)
    schedule = image.schedule
    payloads = [entry[4] for entry in parse_schedule(schedule)]
    grays = [grayscale_transform(p) for p in payloads]
    blurred = [blur_transform(p) for p in grays]
    small_grays = [grayscale_transform(entry[4]) for entry
                   in parse_schedule(workloads.store_relay(SEED).schedule)]
    small_hop = [grayscale_transform(blur_transform(p)) for p in small_grays]
    csar = image.csar()
    archive = toscaflow.unpack_csar(csar)
    # the keystream costs the same whatever the passphrase
    kernels = {
        "parse_schedule": (parse_schedule, [schedule]),
        "grayscale_transform": (grayscale_transform, payloads),
        "blur_transform": (blur_transform, grays),
        "blur_transform small": (blur_transform, small_grays),
        "rle_compress small": (rle_compress, small_hop),
        "encrypt_bytes": (lambda p: encrypt_bytes(p, "image_stream"), blurred),
        "rle_compress": (rle_compress, blurred),
        "unpack_csar": (toscaflow.unpack_csar, [csar]),
        "pack_csar": (lambda files: toscaflow.pack_csar(archive.entry_definitions, files),
                      [archive.files]),
    }
    results = {}
    for name, (kernel, inputs) in kernels.items():
        def run(inputs, kernel=kernel):
            for data in inputs:
                kernel(data)
        results[name] = _row(name, _time(run, lambda inputs=inputs: inputs, REPEAT),
                             calls=len(inputs),
                             input_len=sum(sum(map(len, data.values()))
                                           if isinstance(data, dict) else len(data)
                                           for data in inputs))
    parse = {name: _row(name, _time(run, prepare, REPEAT))
             for name, run, prepare in _parse(toscaflow, workloads)}
    engine = {name: _row(name, _time(run, prepare, REPEAT), **facts)
              for name, run, prepare, facts in _engine(toscaflow, workloads, worker)}

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
        "parse": parse,
        "engine": engine,
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
