"""The benchmark's determinism contract, checked in process.

`perfbench/golden.json` records, for each workload and seeds 0-12, the
digest of the outputs the library job leaves.  Seed 1 of each workload is
recomputed here through the benchmark's own generator and job, with and
without libyaml, so a change to any stage's output bytes fails the suite
and not only the benchmark.  The seed 1 flows' event streams, which no
output holds, are pinned tick by tick.
The full set of seeds stays a manual check:

    python3 perfbench/run.py --workload blueprint_scale --seed S --seconds 1
"""

import hashlib
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


# sha256 of every tick's events, ticked one at a time through the horizon,
# each with the tick, `born` and `dropped` after it; recorded at a commit
# whose outputs matched every golden digest
EVENT_STREAMS = {
    "image_stream": "22fd02fccd6510959200f89a3abcef824d824019343f87d621548404b95f2053",
    "store_relay": "f2e2e41ae497708a4c0c18625e8b53150d7e16d09317ca5948ed600b052bde6d",
}


@pytest.mark.parametrize("name", sorted(EVENT_STREAMS))
def test_seed_one_ticks_its_recorded_event_stream(bench, name):
    workloads, worker = bench
    workload = workloads.GENERATORS[name](1)
    # a horizon before tick 0 leaves the job's flow built but not run
    flow = worker.run_job(workload.csar(), workload.seed, -1).flow
    stream = hashlib.sha256()
    while flow.clock <= workload.horizon:
        events = flow.tick()
        stream.update(repr((flow.clock - 1, events, flow.born, flow.dropped)).encode())
    assert stream.hexdigest() == EVENT_STREAMS[name]
