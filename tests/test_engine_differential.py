"""The engine differential: many generated flows under one pinned hash.

Every `topology_gen.random_clean_dag` and `random_topology` seed in SEEDS
is taken as written and as repaired by `verify(fix=True)`, and each
template that instantiates gets PUTS seeded puts, several in one tick,
into the buckets its stages read and one bucket nothing reads.  Two seeds
in three also register a function for every function key the flow looks
up, one that raises or returns None for some payloads.  The flow is ticked
one tick at a time through T_END, and `run_until` on a second copy of it
must leave the same state.  After every tick, the flow's running count of
queued items must equal the sum over its queues.

The hash covers which templates instantiate, every tick's events with
`born` and `dropped` after it, and the final metrics, stores, store
events, delivered and errored items.  It was recorded at a commit whose
outputs matched every golden digest; a change that moves it on purpose
records it again and says why.

Some flows multiply their items through a store loop without bound, so a
run stops at the first tick after which more than BORN_CUT items were born.
The cut keeps the test to about two seconds on a 2-vCPU host, and it still
stops each of the six flows that multiply, by tick 114 at the latest.
"""

import hashlib
import random

import topology_gen
from toscaflow import instantiate, verify
from toscaflow.errors import ToscaflowError

SEEDS = range(150)
PUTS = 12
T_END = 150
BORN_CUT = 2_000
UNREAD = ("s3", "nobody-reads-this")

DIGEST = "40ec713816a0f619debdab119e3b9caf6ed27e9f4efb39690673fb88b1810b2f"


def _flaky(payload: bytes):
    """A registered function that raises for some payloads, returns None
    for others and else changes every byte."""
    if payload[-1] % 5 == 0:
        raise ValueError(f"cannot take {payload[-1]}")
    if payload[-1] % 7 == 0:
        return None
    return bytes((byte * 3 + 1) % 256 for byte in payload)


def _templates():
    for seed in SEEDS:
        for generate in (topology_gen.random_clean_dag, topology_gen.random_topology):
            written = generate(seed)
            yield seed, written
            try:
                yield seed, verify(written, fix=True, seed=seed)[0]
            except ToscaflowError as exc:
                yield seed, exc


def _flow(template, seed):
    """The flow with its puts scheduled and, for two seeds in three, a
    function registered for each key it looks up."""
    flow = instantiate(template)
    rng = random.Random(seed)
    buckets = sorted({stage.source for stage in flow.blocks.values()
                      if stage.source is not None}) + [UNREAD]
    ticks = [rng.randrange(T_END) for _ in range(4)]
    for n in range(PUTS):
        flow.schedule_injection(rng.choice(ticks), *rng.choice(buckets),
                                rng.choice(["k0", "k1", "", f"n{n}"]),
                                bytes(rng.randrange(256) for _ in range(rng.randint(1, 4))))
    if seed % 3:
        for stage in flow.blocks.values():
            key = stage.function_key
            if key and key not in flow.functions:
                flow.register_function(key, _flaky)
    return flow


def _state(flow):
    return (flow.clock, flow.born, flow.dropped, flow.events_this_tick, flow.metrics(),
            sorted(flow.stores.items()), flow.store_events,
            flow.delivered_items, flow.error_items)


def test_every_generated_flow_ticks_and_jumps_to_its_recorded_hash():
    digest = hashlib.sha256()
    runs = 0
    for seed, template in _templates():
        if isinstance(template, ToscaflowError):
            digest.update(repr(("verify", type(template).__name__)).encode())
            continue
        try:
            ticked = _flow(template, seed)
        except ToscaflowError as exc:
            digest.update(repr(("instantiate", type(exc).__name__)).encode())
            continue
        while ticked.clock <= T_END and ticked.born <= BORN_CUT:
            events = ticked.tick()
            assert ticked._queued == sum(map(len, ticked.queues.values()))
            digest.update(repr((ticked.clock - 1, events, ticked.born,
                                ticked.dropped)).encode())
        jumped = _flow(template, seed)
        jumped.run_until(ticked.clock - 1)
        assert _state(jumped) == _state(ticked), (seed, template)
        digest.update(repr(_state(ticked)).encode())
        runs += 1
    assert runs == 518
    assert digest.hexdigest() == DIGEST
