"""The process that runs the library job repetitions.

Started by run.py with the workload directory and the trace flag, it
reads one JSON request per line on stdin and answers with one JSON line
on stdout:

  {"op": "job", "traced": bool} -> one repetition of the job plus one
      host reference: {"job_s", "ref_s", "digest", "rss_mib"} or {"error"}
  {"op": "ref"}                 -> one host reference: {"ref_s"}
  {"op": "finish"}              -> writes the last job's outputs into the
      workload directory, runs the library-level oracles and answers with
      them and, when tracing, the per-layer metrics of every traced
      repetition.

Running the job in its own process keeps its peak RSS (ru_maxrss, which
each job reply carries) apart from the generator's and the CLI's, and
keeps the benchmark's own imports out of the measured interpreter.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass

import toscaflow as tf
import yaml

import reference
import tracing

OUTPUTS = ("fixed.yaml", "report.json", "plan.json", "metrics.json", "stores.json")


@dataclass
class JobResult:
    archive: object
    template: object
    diagnostics: list
    fixed_text: str
    reparsed: object
    deployment: object
    flow: object
    metrics: dict


def run_job(csar: bytes, seed: int, horizon: int, tracer=None) -> JobResult:
    """Input bytes to complete result, through the public API only."""
    archive = tf.unpack_csar(csar)
    entry = archive.entry_definitions
    template = tf.parse_service_template(archive.files[entry].decode("utf-8"),
                                         filename=entry)
    fixed, diagnostics = tf.verify(template, fix=True, seed=seed)
    fixed_text = tf.serialize_template(fixed)
    reparsed = tf.parse_service_template(fixed_text, filename="fixed.yaml")
    deployment = tf.plan(reparsed)
    flow = tf.instantiate(reparsed)
    if tracer is not None:
        tracer.wrap_functions(flow.functions)
    schedule = archive.files["schedule.txt"].decode("utf-8")
    for injection in tf.parse_schedule(schedule):
        flow.schedule_injection(*injection)
    metrics = flow.run_until(horizon)
    return JobResult(archive, template, diagnostics, fixed_text, reparsed,
                     deployment, flow, metrics)


def outputs(result: JobResult) -> dict:
    """The job's outputs, rendered as the CLI renders them."""
    any_fix = any(d.fix for d in result.diagnostics)
    stores = {f"{provider}/{bucket}": {key: payload.hex()
                                        for key, payload in objects.items()}
              for (provider, bucket), objects in result.flow.stores.items()}
    rendered = {
        "fixed.yaml": result.fixed_text,
        "report.json": json.dumps(tf.report_to_dict(result.diagnostics, any_fix),
                                  indent=2) + "\n",
        "plan.json": json.dumps(result.deployment.to_list(), indent=2) + "\n",
        "metrics.json": json.dumps(result.metrics, indent=2) + "\n",
        "stores.json": json.dumps(stores, sort_keys=True),
    }
    return {name: text.encode("utf-8") for name, text in rendered.items()}


def digest(files: dict) -> str:
    """sha256 over the outputs in a fixed order, each prefixed by name and size."""
    sha = hashlib.sha256()
    for name in OUTPUTS:
        sha.update(f"{name}\0{len(files[name])}\0".encode())
        sha.update(files[name])
    return sha.hexdigest()


_REF_BYTES = bytes((i * 7919) % 251 for i in range(16 * 1024))
_REF_YAML = "items:\n" + "".join(
    f"  - name: item-{i}\n    type: radon.nodes.Type{i % 7}\n"
    f"    properties: {{port: {i}, tag: \"t{i}\"}}\n" for i in range(60))


def host_reference() -> float:
    """Fixed work that shares no code with toscaflow; its time tracks the host.

    An integer loop, the reference byte kernels and PyYAML's pure-Python
    composer: when a busy neighbour slows this host, memory-heavy work
    slows more than a tight loop, so the mix follows the jobs more closely
    than any one part of it.  A full collection runs first, untimed, so
    the garbage of the job before it is not collected inside the sample.
    """
    gc.collect()
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    reference.blur(_REF_BYTES)
    reference.rle(_REF_BYTES)
    yaml.compose(_REF_YAML, Loader=yaml.SafeLoader)
    return time.perf_counter() - start


def library_oracles(result: JobResult) -> dict:
    fixable = [d for d in result.diagnostics if d.severity == "fixable"]
    _, recheck = tf.verify(result.reparsed)
    return {
        "validate_plan": tf.validate_plan(result.deployment, result.reparsed),
        "reverify_clean": not recheck,
        "serialize_fixpoint": tf.serialize_template(result.reparsed)
        == result.fixed_text,
        "all_fixable_fixed": all(d.fix for d in fixable),
        "no_errors": all(d.severity != "error" for d in result.diagnostics),
        "no_stage_errors": result.flow.error_count == 0,
    }


def _percentile(values, share):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] \
        if ordered else 0


def layer_metrics(tracer: tracing.Tracer, result: JobResult) -> dict:
    """Per-layer numbers of one traced repetition (job, rule groups, pack)."""
    job = tracing.summarize(tracer.spans, "job")

    tracer.job = "rules"
    for check in (tf.check_requirements, tf.check_locality, tf.check_encryption,
                  tf.check_scheduling):
        check(result.template)
    tracer.job = "pack"
    packed = tf.pack_csar(result.archive.entry_definitions, result.archive.files)
    rules = tracing.summarize(tracer.spans, "rules")
    pack = tracing.summarize(tracer.spans, "pack")

    def get(summary, name, key="incl"):
        return summary.get(name, {}).get(key, 0)

    ticks = job.get("simulator.tick", {}).get("values", [])
    matches = job.get("cron.matches", {})
    flow = result.flow
    fixable = [d for d in result.diagnostics if d.severity == "fixable"]
    # birth is the tick the consumed object was written, so cron waits count
    written = {}
    for event in flow.store_events:
        written.setdefault((event.provider, event.bucket, event.key), event.tick)
    latencies = [item.trail[-1][1] - written[(item.attributes["source_provider"],
                                              item.attributes["source_bucket"],
                                              item.attributes["key"])]
                 for item in flow.delivered_items]
    member_bytes = sum(len(data) for data in result.archive.files.values())
    return {
        "csar.unpack_s": get(job, "csar.unpack"),
        "csar.pack_s": get(pack, "csar.pack"),
        "csar.archive_ratio": len(packed) / member_bytes,
        "parsing.parse_s": get(job, "parsing.parse"),
        "parsing.parse_calls": get(job, "parsing.parse", "calls"),
        "parsing.serialize_s": get(job, "parsing.serialize"),
        "parsing.yaml_kib": sum(job.get("parsing.parse", {}).get("values", []))
        / 1024,
        "model.resolve_type_calls": get(job, "model.resolve_type", "calls"),
        "model.resolve_type_s": get(job, "model.resolve_type"),
        "model.evaluate_intrinsic_calls": get(job, "model.evaluate_intrinsic",
                                              "calls"),
        "model.evaluate_intrinsic_s": get(job, "model.evaluate_intrinsic"),
        "verifier.verify_self_s": get(job, "verifier.verify", "self"),
        "verifier.r1_r5_s": get(rules, "verifier.r1_r5"),
        "verifier.r2_r3_s": get(rules, "verifier.r2_r3"),
        "verifier.r4_s": get(rules, "verifier.r4"),
        "verifier.r6_s": get(rules, "verifier.r6"),
        "verifier.diagnostics": len(result.diagnostics),
        "verifier.fixed_ratio": (sum(1 for d in fixable if d.fix) / len(fixable)
                                 if fixable else 1.0),
        "planner.plan_s": get(job, "planner.plan"),
        "planner.build_graph_s": get(job, "planner.build_graph"),
        "planner.steps": len(result.deployment.steps),
        "simulator.instantiate_s": get(job, "simulator.instantiate"),
        "simulator.transform_s": get(job, tracing.TRANSFORM),
        "simulator.transform_mib": sum(job.get(tracing.TRANSFORM, {})
                                       .get("values", [])) / 2**20,
        "simulator.tick_self_s": get(job, "simulator.tick", "self"),
        "simulator.audit_s": get(job, "simulator.audit"),
        "simulator.ticks": len(ticks),
        "simulator.busy_tick_ratio": (sum(1 for busy, _ in ticks if busy)
                                      / len(ticks) if ticks else 0),
        "simulator.queue_hwm": max((queued for _, queued in ticks), default=0),
        "simulator.store_events": len(flow.store_events),
        "simulator.retained_items": len(flow.delivered_items)
        + len(flow.error_items),
        "simulator.items_delivered": len(flow.delivered_items),
        "simulator.items_errored": len(flow.error_items),
        "simulator.item_vlatency_p50": _percentile(latencies, 0.5),
        "simulator.item_vlatency_p90": _percentile(latencies, 0.9),
        "crypto.cipher_s": get(job, "crypto.cipher"),
        "crypto.cipher_mib": sum(job.get("crypto.cipher", {}).get("values", []))
        / 2**20,
        "cron.matches_calls": matches.get("calls", 0),
        "cron.matches_s": matches.get("incl", 0),
        "cron.match_ratio": (sum(matches["values"]) / matches["calls"]
                             if matches else 0),
    }


def main(workdir: str, trace: bool) -> int:
    with open(os.path.join(workdir, "facts.json"), encoding="utf-8") as handle:
        facts = json.load(handle)
    with open(os.path.join(workdir, "input.csar"), "rb") as handle:
        csar = handle.read()
    seed, horizon = facts["seed"], facts["horizon"]
    tracer = tracing.Tracer() if trace else None
    layers = []
    result = None

    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "finish":
            break
        if request["op"] == "ref":
            print(json.dumps({"ref_s": host_reference()}), flush=True)
            continue
        traced = tracer is not None and request["traced"]
        # untimed: no earlier job's objects are freed inside this one
        result = None
        gc.collect()
        try:
            if traced:
                tracer.spans.clear()
                tracer.job = "job"
                tracer.install()
                try:
                    start = time.perf_counter()
                    result = tracer.wrap(run_job, "job")(csar, seed, horizon, tracer)
                    elapsed = time.perf_counter() - start
                    layers.append(layer_metrics(tracer, result))
                finally:
                    tracer.uninstall()
            else:
                start = time.perf_counter()
                result = run_job(csar, seed, horizon)
                elapsed = time.perf_counter() - start
            # read before the outputs are rendered for checking
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            reply = {"job_s": elapsed, "ref_s": host_reference(),
                     "digest": digest(outputs(result)), "rss_mib": rss_mib}
        except Exception:  # a failed repetition is counted, not fatal
            reply = {"error": traceback.format_exc()}
            result = None
        print(json.dumps(reply), flush=True)

    final = {}
    if result is not None:
        files = outputs(result)
        os.makedirs(os.path.join(workdir, "lib"), exist_ok=True)
        for name, data in files.items():
            with open(os.path.join(workdir, "lib", name), "wb") as handle:
                handle.write(data)
        final["digest"] = digest(files)
        final["oracles"] = library_oracles(result)
    if tracer is not None and layers:
        final["layers"] = layers
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2] == "1"))
