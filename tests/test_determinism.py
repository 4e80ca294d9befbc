"""The benchmark's determinism contract, checked in process.

`perfbench/golden.json` records, for each workload and seeds 0-12, the
digest of the outputs the library job leaves.  Seed 1 of each workload is
recomputed here through the benchmark's own generator and job, so a change
to any stage's output bytes fails the suite and not only the benchmark.
The full set of seeds stays a manual check:

    python3 perfbench/run.py --workload blueprint_scale --seed S --seconds 1
"""

import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_one_reproduces_its_golden_digest(bench, name):
    workloads, worker = bench
    workload = workloads.GENERATORS[name](1)
    result = worker.run_job(workload.csar(), workload.seed, workload.horizon)
    assert worker.digest(worker.outputs(result)) == GOLDEN[name]["1"]
