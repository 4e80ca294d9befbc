"""toscaflow benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a toscaflow checkout:

    python3 perfbench/run.py --workload image_stream --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from --seed before anything is timed.
For --seconds the benchmark then repeats one cycle, one process at a
time: a fresh interpreter importing toscaflow and building the catalog
(setup_s), one library job in the worker process (job_s) and the three
CLI commands a user types (cli_s), each followed by a fixed host
reference (host.ref_s).  Every output is checked against the
reference kernels, the library's own oracles, the CLI's answers and, for
seeds 0-12, the golden digest.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a run with spans recorded around
every layer boundary.  job_cost and cli_cost are the medians of each job
and CLI cycle divided by the host reference that follows it; setup_s
scales the set-up's median ratio to a nominal reference.  Other tenants
slow this host in bursts of seconds and in spells of minutes (see
README.md), and the reference slows with them.  A per-layer timing is the
mean of the fastest quarter of its samples.  The lines before
the JSON describe the host and every sample set (median, quartile,
extremes, count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
MIN_CYCLES = 3
CLI_TIMEOUT_S = 120
# setup_s is reported in seconds on a host whose reference takes this long,
# about the reference's time on an idle vCPU of the 2-vCPU host
HOST_REF_NOMINAL_S = 0.05

SETUP_CODE = ("import time; start = time.perf_counter(); import toscaflow; "
              "imported = time.perf_counter(); toscaflow.builtin_catalog(); "
              "print(imported - start, time.perf_counter() - imported)")
CLI_CODE = "import sys; from toscaflow.cli import main; sys.exit(main())"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Worker:
    """The job process (worker.py), driven one JSON line at a time."""

    def __init__(self, workdir, trace, env):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workdir,
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def request(self, **message):
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the worker exited without answering")
        return json.loads(line)

    def close(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


def time_setup(env, cwd):
    """Wall time of a fresh interpreter up to a built catalog, plus its parts.

    None when the interpreter fails, times out or prints something else.
    """
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=cwd, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - start
        import_s, builtin_s = (float(x) for x in done.stdout.split())
    except (subprocess.TimeoutExpired, ValueError):
        return None
    return (wall, import_s, builtin_s) if done.returncode == 0 else None


def run_cli(args, env, cwd):
    """Wall time, exit code (None on a timeout) and stdout of one command."""
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", CLI_CODE, *args], env=env,
                              cwd=cwd, capture_output=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, b""
    return time.perf_counter() - start, done.returncode, done.stdout


def _file_sha(path):
    try:
        with open(path, "rb") as handle:
            return _sha(handle.read())
    except FileNotFoundError:
        return None


def cli_triple(workload, env, workdir):
    """verify --fix, plan, simulate on the workload files, as a user runs them.

    Returns the three wall times and, per checked output, (exit code, or
    None on a timeout; sha256 of the output, or None if it was not written).
    """
    seed, horizon = str(workload.seed), str(workload.horizon)
    fixed_path = os.path.join(workdir, "cli-fixed.yaml")
    metrics_path = os.path.join(workdir, "cli-metrics.json")
    verify_s, verify_rc, report = run_cli(
        ["verify", workloads.ENTRY, "--fix", "--out", "cli-fixed.yaml",
         "--seed", seed, "--report", "json"], env, workdir)
    plan_s, plan_rc, plan = run_cli(["plan", "cli-fixed.yaml", "--format", "json"],
                                    env, workdir)
    simulate_s, simulate_rc, _ = run_cli(
        ["simulate", "cli-fixed.yaml", "--inject", workloads.SCHEDULE,
         "--until", horizon, "--metrics", "cli-metrics.json"], env, workdir)
    outcome = {
        "report.json": (verify_rc, _sha(report)),
        "fixed.yaml": (verify_rc, _file_sha(fixed_path)),
        "plan.json": (plan_rc, _sha(plan)),
        "metrics.json": (simulate_rc, _file_sha(metrics_path)),
    }
    for path in (fixed_path, metrics_path):
        if os.path.exists(path):
            os.remove(path)
    return (verify_s, plan_s, simulate_s), outcome


def check_stores(workdir, expected):
    with open(os.path.join(workdir, "lib", "stores.json"), encoding="utf-8") as handle:
        actual = json.load(handle)
    wanted = {bucket: {key: payload.hex() for key, payload in objects.items()}
              for bucket, objects in expected.items()}
    return actual == wanted


def environment():
    import yaml

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def quiet(values):
    """Mean of the fastest quarter of `values` (at least one sample).

    Other tenants only ever add time, so the fastest samples are closest
    to the program's own cost; a quarter of them rather than the single
    fastest keeps one lucky sample from setting the figure.
    """
    fastest = sorted(values)[:max(1, len(values) // 4)]
    return sum(fastest) / len(fastest) if fastest else 0.0


def describe(name, values):
    if not values:
        return f"{name}: no samples"
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name}: median {statistics.median(values):.6g}, "
            f"min {min(values):.6g}, p25 {q[0]:.6g}, max {max(values):.6g}, "
            f"n={len(values)}")


def measure(args, workload, workdir, env):
    # "x/ref" holds each x sample divided by the host reference run right
    # after it, which shares the host's speed at that moment
    samples = {name: [] for name in ("setup_s", "catalog.import_s",
                                     "catalog.builtin_s", "job_s", "job_traced_s",
                                     "host.ref_s", "cli_s", "cli.verify_s",
                                     "cli.plan_s", "cli.simulate_s", "setup/ref",
                                     "job/ref", "cli/ref")}

    def host_reference():
        ref_s = worker.request(op="ref")["ref_s"]
        samples["host.ref_s"].append(ref_s)
        return ref_s

    attempted = failed = 0
    problems = []
    rep_digests = []
    cli_outcomes = []

    time_setup(env, workdir)  # compiles bytecode; not a sample
    worker = Worker(workdir, args.trace, env)
    try:
        warm = worker.request(op="job", traced=False)
        if "error" in warm:
            problems.append("warm-up job failed:\n" + warm["error"])
        # Later readings include the worker rendering the previous job's
        # outputs for checking; one job's peak is what a CLI user pays.
        peak_rss_mib = warm.get("rss_mib", 0.0)
        deadline = time.perf_counter() + args.seconds
        cycle = 0
        while cycle < MIN_CYCLES or time.perf_counter() < deadline:
            setup = time_setup(env, workdir)
            attempted += 1
            if setup is None:
                failed += 1
                problems.append("the set-up interpreter failed")
            else:
                for name, value in zip(("setup_s", "catalog.import_s",
                                        "catalog.builtin_s"), setup):
                    samples[name].append(value)
                samples["setup/ref"].append(setup[0] / host_reference())

            attempted += 1
            traced = bool(args.trace) and cycle % 2 == 0
            reply = worker.request(op="job", traced=traced)
            if "error" in reply:
                failed += 1
                problems.append("job failed:\n" + reply["error"])
            else:
                rep_digests.append(reply["digest"])
                samples["host.ref_s"].append(reply["ref_s"])
                samples["job_traced_s" if traced else "job_s"].append(reply["job_s"])
                if not traced:
                    samples["job/ref"].append(reply["job_s"] / reply["ref_s"])

            times, outcome = cli_triple(workload, env, workdir)
            attempted += 3
            cli_outcomes.append(outcome)
            samples["cli_s"].append(sum(times))
            for name, value in zip(("cli.verify_s", "cli.plan_s", "cli.simulate_s"),
                                   times):
                samples[name].append(value)
            samples["cli/ref"].append(sum(times) / host_reference())
            cycle += 1
        final = worker.request(op="finish")
    finally:
        worker.close()

    # ---- output checks (not timed) -------------------------------------
    lib = {}
    if "digest" not in final:
        problems.append("no job succeeded")
    else:
        for name in ("fixed.yaml", "report.json", "plan.json", "metrics.json"):
            with open(os.path.join(workdir, "lib", name), "rb") as handle:
                lib[name] = _sha(handle.read())
        bad_oracles = [name for name, ok in final["oracles"].items() if not ok]
        if bad_oracles:
            problems.append("library oracles failed: " + ", ".join(bad_oracles))
        if not check_stores(workdir, workload.expected_stores):
            problems.append("store contents differ from the reference kernels")
        golden = load_golden().get(args.workload, {}).get(str(args.seed))
        if golden is not None and golden != final["digest"]:
            problems.append(f"golden digest mismatch: {final['digest']} "
                            f"!= {golden}")
        if problems:
            failed += len(rep_digests)  # every repetition made these outputs
        else:
            mismatched = sum(1 for d in rep_digests if d != final["digest"])
            if mismatched:
                problems.append(f"{mismatched} repetition(s) gave other outputs")
            failed += mismatched
    for outcome in cli_outcomes:
        def agrees(name):
            code, sha = outcome[name]
            return code == 0 and sha is not None and sha == lib.get(name)

        for command, ok in (("verify", agrees("report.json") and agrees("fixed.yaml")),
                            ("plan", agrees("plan.json")),
                            ("simulate", agrees("metrics.json"))):
            if not ok:
                failed += 1
                problems.append(f"CLI {command} exited non-zero, timed out, or "
                                "wrote no output or another than the library job")
    final["peak_rss_mib"] = peak_rss_mib
    return samples, final, attempted, failed, problems


def load_golden():
    """workload -> seed -> outputs digest, recorded for seeds 0-12."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "toscaflow", "__init__.py")):
        print("error: no src/toscaflow here; run from the root of a toscaflow "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    workload = workloads.GENERATORS[args.workload](args.seed)
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload.write(workdir)
        samples, final, attempted, failed, problems = measure(
            args, workload, workdir, env)
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(scratch, f"{args.workload}.spans.jsonl"))
        with open(os.path.join(scratch, f"{args.workload}.samples.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(samples, handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"environment: {json.dumps(environment())}")
    print(f"workload: {args.workload} seed {args.seed}, "
          f"{len(workload.blueprint) / 1024:.1f} KiB blueprint, "
          f"{len(workload.schedule) / 2048:.1f} KiB injected, horizon {workload.horizon}")
    for name, values in samples.items():
        if values:
            print(describe(name, values))
    ref = samples["host.ref_s"]
    if ref:
        print(f"host drift: slowest / fastest host reference {max(ref) / min(ref):.3f}")
    print(f"outputs digest: {final.get('digest')}")

    if args.trace:
        typical = {name: quiet(values) for name, values in samples.items()}
        # counts and ratios are the same in every traced repetition
        layers = final.get("layers", [])
        measured = {name: quiet([layer[name] for layer in layers])
                    for name in (layers[0] if layers else ())}
        measured["trace.overhead_s"] = typical["job_traced_s"] - typical["job_s"]
        for name in ("job_s", "cli_s", "catalog.import_s", "catalog.builtin_s",
                     "cli.verify_s", "cli.plan_s", "cli.simulate_s", "host.ref_s"):
            measured[name] = typical[name]
        print(f"traced repetitions: {len(layers)}")
    else:
        def median(values):
            return statistics.median(values) if values else 0.0

        measured = {
            "setup_s": median(samples["setup/ref"]) * HOST_REF_NOMINAL_S,
            "job_cost": median(samples["job/ref"]),
            "cli_cost": median(samples["cli/ref"]),
            "peak_rss_mib": final["peak_rss_mib"],
        }
    declared = declared_metrics(root, args.trace)
    if set(measured) != set(declared):
        problems.append(f"measured metrics {sorted(measured)} differ from "
                        f"BENCHMARK.json's {sorted(declared)}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items() if name in measured},
    }))
    return 0


def declared_metrics(root, trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
