"""The benchmark's determinism contract, checked in process.

`perfbench/golden.json` records, for each workload and seeds 0-12, the
digest of the outputs the library job leaves.  Seed 1 of each workload is
recomputed here through the benchmark's own generator and job, with and
without libyaml, so a change to any stage's output bytes fails the suite
and not only the benchmark.
The full set of seeds stays a manual check:

    python3 perfbench/run.py --workload blueprint_scale --seed S --seconds 1
"""

import json
import pathlib

import pytest
import yaml

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, libyaml", [
    *(pytest.param(name, True, id=name) for name in sorted(GOLDEN)),
    *(pytest.param(name, False, id=f"{name}-pure") for name in sorted(GOLDEN))])
def test_seed_one_reproduces_its_golden_digest(bench, name, libyaml, monkeypatch):
    if not libyaml:  # as on a host whose PyYAML was built without it
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    workloads, worker = bench
    workload = workloads.GENERATORS[name](1)
    result = worker.run_job(workload.csar(), workload.seed, workload.horizon)
    assert worker.digest(worker.outputs(result)) == GOLDEN[name]["1"]
