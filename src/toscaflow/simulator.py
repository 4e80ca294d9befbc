"""Deterministic desk-scale execution of a verified topology.

`instantiate` builds a stage per pipeline node, then wires one FIFO queue
per connection edge; a Flow drives them off an integer virtual clock.
Object stores are flat in-memory (provider, bucket) -> key -> bytes maps;
FaaS calls are byte transforms looked up in a registry; a function that
raises or returns anything but bytes diverts the item as an error.  A
stage fires only while an item waits for it, at once if event-driven, else
on the next tick its cron matches, taking all that waits.  Within one tick
stages fire in topological order of the connection graph, so an
event-driven chain is traversed in a single tick; `instantiate` refuses a
connection cycle.

Every firing drains the stage's queues: one per connection into it and,
first, the inbox of a stage that reads a bucket, to which each store write
adds a new item per object (born, in `born`, when a firing takes it).  A
firing hands the whole batch to one handler, which walks it in item order,
appends each item's events, and passes on what it forwards in one emit (a
`+=` per output queue, forks after the first) or, for a publisher, one
store write, which also goes to the flow's event log.

One agenda, a heap, drives the clock.  It holds (tick, firing index) for
each stage an item waits for and (tick, -1, seq, put) for each scheduled
put.  A stage goes on it once, when an item starts to wait for it (one of
its queues stops being empty), for `start` if it is event-driven, else for
its cron's next match from `start`; `start` is the clock, or the next tick
if the stage is at or before the one firing now in the order.  A tick pops
the entries for its tick: the puts in schedule order, then the stages in
firing order.
`run_until` jumps the clock straight to the agenda's first tick, and
pauses the cyclic collector while it runs: a run allocates an item, its
trail and a store event per object per hop and frees next to nothing
until it ends, so each full collection would walk every item delivered so
far.

Conservation is checked after every tick: each item born is delivered,
queued on a connection, errored or dropped.  The flow keeps a running
count of the items in its connection queues (`emit` adds what it queues,
`fire` takes off what it drains from them; an inbox item is not born yet,
so it never counts), and `tick` runs the full-sum `audit` only when that
count does not balance `born`.

Determinism is a hard contract: no wall clock, no OS entropy.  Identical
template plus identical injection schedule yields identical metrics and
store contents.
"""

from __future__ import annotations

import gc
import os
import re
from functools import partial
from heapq import heappop, heappush
from itertools import count, groupby

from . import catalog as cat
from .cron import CronExpr, cron_next, parse_cron
from .crypto import cipher_key, decrypt_bytes, encrypt_bytes
from .errors import (
    DependencyCycleError,
    DuplicateFunctionError,
    EmptyFunctionNameError,
    ScheduleError,
    UnsupportedTypeError,
)
from .model import Record, ServiceTemplate
from .topology import Topology, find_cycle, first_of, lexicographic_order

# consumer / publisher types -> (store provider label, bucket property)
_CONSUMER_BINDINGS = {
    cat.SOURCE_PREFIX + "ConsS3Bucket": ("s3", "BucketName"),
    cat.SOURCE_PREFIX + "ConsGCSBucket": ("gcs", "bucket"),
    cat.SOURCE_PREFIX + "ConsMinIO": ("minio", "BucketName"),
    cat.SOURCE_PREFIX + "ConsAzureBlob": ("azure", "ContainerName"),
    cat.SOURCE_PREFIX + "ConsFTP": ("ftp", "directory"),
    cat.SOURCE_PREFIX + "ConsSFTP": ("sftp", "directory"),
    cat.SOURCE_PREFIX + "ConsMqTT": ("mqtt", "topic"),
    cat.SOURCE_PREFIX + "ConsumeLocal": ("local", "directory_path"),
}

_PUBLISHER_BINDINGS = {
    cat.DESTINATION_PREFIX + "PubsS3Bucket": ("s3", "BucketName"),
    cat.DESTINATION_PREFIX + "PubGCS": ("gcs", "BucketName"),
    cat.DESTINATION_PREFIX + "PubsAzureBlob": ("azure", "ContainerName"),
    cat.DESTINATION_PREFIX + "PubsMinIO": ("minio", "BucketName"),
    cat.DESTINATION_PREFIX + "PubsMQTT": ("mqtt", "topic"),
    cat.DESTINATION_PREFIX + "PubsSFTP": ("sftp", "directory"),
    cat.DESTINATION_PREFIX + "PublishLocal": ("local", "directory_path"),
}

_STANDALONE_COPIES = {
    cat.STANDALONE_PREFIX + "AWSCopyS3ToS3": (("s3", "SourceBucketName"),
                                              ("s3", "DestinationBucketName")),
    cat.STANDALONE_PREFIX + "AWSCopyDynamodbToS3": (("dynamodb", "TableName"),
                                                    ("s3", "BucketName")),
    cat.STANDALONE_PREFIX + "AWSCopyS3ToDynamodb": (("s3", "BucketName"),
                                                    ("dynamodb", "TableName")),
}


# The kernels are bulk forms of the per-byte definitions in their docstrings
# and must give identical bytes; the tests compare them with per-byte oracles.

_HALVE = bytes(b // 2 for b in range(256))
_DIV3 = bytes(b // 3 for b in range(256))
_MOD3 = bytes(b % 3 for b in range(256))

# the links of a run of two to 255 equal bytes (link i is zero when bytes i
# and i + 1 are equal); a 255-byte run also takes the link to the next byte
_RUN_LINKS = re.compile(rb"\x00\x00{0,253}\x00?")


def grayscale_transform(payload: bytes) -> bytes:
    """Stand-in image grayscale: halve every byte."""
    return bytes(payload).translate(_HALVE)


def blur_transform(payload: bytes) -> bytes:
    """Stand-in blur: mean over a centered window of 3, edges clamped.

    With a = 3 * (a // 3) + a % 3, the mean of three bytes is the sum of
    their thirds plus the third of the sum of their remainders.  Thirds and
    remainders each go one byte per lane into one integer, and one addition
    of two shifted copies sums every window: at most 255 and 6, so no lane
    carries.  (r * 11) >> 5 == r // 3 for every r in 0..6, and r * 11 stays
    below 128, so the low two bits of each lane of the shifted product are
    that third.
    """
    if not payload:
        return b""
    n = len(payload)
    padded = payload[:1] + payload + payload[-1:]
    thirds = int.from_bytes(padded.translate(_DIV3), "little")
    rests = int.from_bytes(padded.translate(_MOD3), "little")
    thirds += (thirds >> 8) + (thirds >> 16)
    rests += (rests >> 8) + (rests >> 16)
    rests = ((rests * 11) >> 5) & int.from_bytes(b"\x03" * n, "little")
    return (thirds + rests).to_bytes(n + 2, "little")[:n]


def rle_compress(payload: bytes) -> bytes:
    """Run-length encode byte runs as (count, byte) pairs, count <= 255."""
    whole = int.from_bytes(payload, "big")
    links = (whole ^ (whole >> 8)).to_bytes(len(payload), "big")[1:]
    pairs = bytearray(2 * len(payload))  # a (1, byte) pair for every byte
    pairs[::2] = b"\x01" * len(payload)
    pairs[1::2] = payload
    out = []
    start = 0  # the first byte not yet encoded
    for run in _RUN_LINKS.finditer(links):
        at = run.start()
        count = min(run.end() - at + 1, 255)
        pairs[2 * at] = count
        out.append(pairs[2 * start:2 * at + 2])  # singletons, then the run
        start = at + count
    out.append(pairs[2 * start:])
    return b"".join(out)


BUILTIN_FUNCTIONS = {
    "img-grayscale-nifi": grayscale_transform,
    "img-blur-nifi": blur_transform,
    "azure-compress": rle_compress,
}


class FlowItem(Record):
    """One simulated data unit moving through the pipeline."""

    _fields = ("payload", "attributes", "trail")

    def __init__(self, payload: bytes, attributes: dict[str, str] | None = None,
                 trail: list[tuple[str, int]] | None = None):
        self.payload = payload
        self.attributes = {} if attributes is None else attributes
        self.trail = [] if trail is None else trail

    def fork(self) -> "FlowItem":
        return FlowItem(self.payload, dict(self.attributes), list(self.trail))

    @property
    def blocks(self) -> list[str]:
        return [block for block, _ in self.trail]


class StoreEvent(Record, frozen=True):
    _fields = ("seq", "tick", "provider", "bucket", "key", "payload")

    def __init__(self, seq: int, tick: int, provider: str, bucket: str, key: str,
                 payload: bytes):
        fields = self.__dict__
        fields["seq"] = seq
        fields["tick"] = tick
        fields["provider"] = provider
        fields["bucket"] = bucket
        fields["key"] = key
        fields["payload"] = payload


class _Stage:
    """One block: on each firing it drains its input queues and handles
    the batch, item by item in order.

    A stage with a `source` (provider, bucket) has its `inbox` first in
    `inputs`: the store fills it with an item per object written there.
    `instantiate` sets its `index` in the firing order and wires it: a
    queue per connection into it joins `inputs` in source order, and
    `outputs` holds a (target name, queue, target stage) triple per
    connection out of it, in target order.
    `cron` None means event-driven.  `handle` does what the block's kind
    does with the batch.
    """

    def __init__(self, flow, name, cron: CronExpr | None, handle, *,
                 source=None, destination=None, function=None,
                 function_key="", clauses=()):
        self.flow = flow
        self.name = name
        self.cron = cron
        self.handle = handle
        self.source = source
        self.destination = destination
        self.function = function
        self.function_key = function_key
        self.clauses = clauses
        self.inbox = []  # items not yet born; only a reader's is ever filled
        self.inputs = [] if source is None else [self.inbox]
        self.outputs = []
        self.emit_events = []  # a (name, "emit", target) per output
        self.on_agenda = False  # whether the flow's agenda holds its turn
        self.consumed = 0
        self.emitted = 0
        self.errors = 0

    def fire(self, tick: int):
        """Drain the inputs before the handler runs, so a copy into its own
        bucket copies each object once per firing."""
        flow, taken = self.flow, len(self.inbox)
        flow.born += taken
        items = []
        for queue in self.inputs:
            items += queue
            queue.clear()
        flow._queued -= len(items) - taken  # the inbox's items were never queued
        self.consumed += len(items)
        visit = (self.name, tick)
        for item in items:
            trail = item.trail
            if trail and tick < trail[-1][1]:
                raise RuntimeError("trail ticks must be non-decreasing")
            trail.append(visit)
        self.handle(self, items, tick)

    def emit(self, items: list[FlowItem], outputs):
        """Queue the items on the first of `outputs` and a fork of each on
        every other one, in item order."""
        flow = self.flow
        if not outputs:
            flow.dropped += len(items)
            return
        flow.born += (len(outputs) - 1) * len(items)
        flow._queued += len(outputs) * len(items)
        self.emitted += len(outputs) * len(items)
        for fork, (_, queue, target) in enumerate(outputs):
            if not queue:
                flow._wake(target)
            queue += map(FlowItem.fork, items) if fork else items

    def divert_error(self, item: FlowItem, reason: str):
        self.errors += 1
        item.attributes["error"] = reason
        self.flow.error_items.append(item)
        self.flow.events_this_tick.append((self.name, "error", reason))


def _consume(stage, items, tick):
    events, emits, name = stage.flow.events_this_tick, stage.emit_events, stage.name
    for item in items:
        events.append((name, "consume", item.attributes["key"]))
        events += emits
    stage.emit(items, stage.outputs)


def _transform(stage, items, tick):
    """Apply the stage's fixed function, or the registered one it names, to
    each item; one that raises or returns anything but bytes diverts it."""
    key = stage.function_key
    transform = stage.function or stage.flow.functions.get(key)
    events, emits = stage.flow.events_this_tick, stage.emit_events
    forwarded = []
    for item in items:
        if transform is None:
            stage.divert_error(item, f"no function registered as {key!r}")
            continue
        try:
            payload = transform(item.payload)
        except Exception as exc:  # the registered function is the caller's code
            stage.divert_error(item, f"function {key!r} raised "
                                     f"{type(exc).__name__}: {exc}")
            continue
        if not isinstance(payload, bytes):
            stage.divert_error(item, f"function {key!r} returned "
                                     f"{type(payload).__name__}, not bytes")
            continue
        item.payload = payload
        forwarded.append(item)
        events += emits
    if forwarded:
        stage.emit(forwarded, stage.outputs)


def _route(stage, items, tick):
    """Forward each item to the targets of every clause its attributes
    match.  Each run of items with the same targets goes out in one emit,
    so every queue gets its items in item order."""
    events, name = stage.flow.events_this_tick, stage.name
    routed = []  # (the item's outputs, the item)
    for item in items:
        targets = {target for target, attribute, value in stage.clauses
                   if item.attributes.get(attribute) == value}
        if not targets:
            stage.divert_error(item, "no route predicate matched")
            continue
        outputs = [output for output in stage.outputs if output[0] in targets]
        events += [(name, "emit", target) for target, _, _ in outputs]
        routed.append((outputs, item))
    for outputs, run in groupby(routed, lambda pair: pair[0]):
        stage.emit([item for _, item in run], outputs)


def _deliver(stage, items, tick):
    """Write the items to the destination store.  A copy keeps each source
    key, even an empty one; a publisher names a keyless item after `born`."""
    flow = stage.flow
    unnamed = "" if stage.source is not None else f"item-{flow.born}"
    keys = [item.attributes.get("key") or unnamed for item in items]
    flow._store_write(*stage.destination,
                      list(zip(keys, [item.payload for item in items])), tick)
    stage.emitted += len(items)
    flow.delivered_items += items
    flow.events_this_tick += [(stage.name, "deliver", key) for key in keys]


class Flow:
    """An instantiated topology plus all of its runtime state."""

    def __init__(self, template: ServiceTemplate):
        self.template = template
        self.clock = 0
        self.blocks: dict[str, _Stage] = {}
        self.queues: dict[tuple[str, str], list] = {}
        self.stores: dict[tuple[str, str], dict[str, bytes]] = {}
        self.store_events: list[StoreEvent] = []
        self.functions: dict = dict(BUILTIN_FUNCTIONS)
        self.delivered_items: list[FlowItem] = []
        self.error_items: list[FlowItem] = []
        self.events_this_tick: list = []
        self.born = 0
        self.dropped = 0
        self._queued = 0  # the items in `queues`, kept as they enter and leave
        self._stages: list[_Stage] = []  # in firing order
        self._readers: dict[tuple, list[_Stage]] = {}  # bucket -> its readers
        self._agenda: list[tuple] = []  # (tick, index) and (tick, -1, seq, put)
        self._puts = count()  # the seq of each scheduled put
        self._firing = -1  # the index of the stage firing now

    # -- stores ------------------------------------------------------------

    def _store_write(self, provider, bucket, pairs, tick):
        """Write each (key, payload) of the list `pairs` to one bucket, in
        order, and queue an item for each on every reader's inbox."""
        where = (provider, bucket)
        objects = self.stores.setdefault(where, {})
        log = self.store_events
        for key, payload in pairs:
            objects[key] = payload
            log.append(StoreEvent(len(log), tick, provider, bucket, key, payload))
        for stage in self._readers.get(where, ()):
            if not stage.inbox:
                self._wake(stage)
            stage.inbox += [FlowItem(payload, {"source_provider": provider,
                                               "source_bucket": bucket, "key": key})
                            for key, payload in pairs]

    def _wake(self, stage: _Stage):
        """An item now waits for `stage`."""
        if not stage.on_agenda:
            stage.on_agenda = True
            # a stage at or before the one firing now has had this tick's turn
            start = self.clock + (stage.index <= self._firing)
            cron = stage.cron
            heappush(self._agenda,
                     (start if cron is None else cron_next(cron, start), stage.index))

    def put_object(self, provider: str, bucket: str, key: str, payload: bytes):
        """Store an object now; each stage reading the bucket gets an item for it."""
        self._store_write(provider, bucket, [(key, bytes(payload))], self.clock)

    def schedule_injection(self, tick: int, provider: str, bucket: str,
                           key: str, payload: bytes):
        """Queue a put_object to happen at the start of `tick`, or, for the
        tick that is running, right after the turn of the stage firing."""
        if tick < self.clock:
            raise ScheduleError(f"tick {tick} is already in the past "
                                f"(clock is at {self.clock})")
        heappush(self._agenda, (tick, -1, next(self._puts),
                                (provider, bucket, [(key, bytes(payload))])))

    # -- functions -----------------------------------------------------------

    def register_function(self, name: str, transform):
        if not name:
            raise EmptyFunctionNameError("function name must be non-empty")
        if name in self.functions:
            raise DuplicateFunctionError(f"function {name!r} already registered")
        self.functions[name] = transform

    # -- execution -----------------------------------------------------------

    def tick(self) -> list:
        """Process the current tick, advance the clock, return tick events.

        Conservation is checked against the running count of queued items;
        only when it does not balance does the full-sum `audit` run and
        raise its error.
        """
        now = self.clock
        self.events_this_tick = []
        agenda, stages = self._agenda, self._stages
        while agenda and agenda[0][0] == now:
            entry = heappop(agenda)
            if (index := entry[1]) < 0:
                self._store_write(*entry[3], now)
            else:
                stage = stages[index]
                stage.on_agenda = False
                self._firing = index
                stage.fire(now)
        self._firing = -1
        self.clock = now + 1
        if self.born != (len(self.delivered_items) + self._queued
                         + len(self.error_items) + self.dropped):
            self.audit()
        return self.events_this_tick

    def run_until(self, t_end: int) -> dict:
        """Run through t_end inclusive and return the final metrics.

        Ticks at which nothing can happen are skipped, not processed: the
        result is the same as calling `tick` until the clock passes t_end.

        The cyclic garbage collector is paused for the run, and switched
        back on at the end, also when the run raises, only if it was on.
        The pause holds for the whole process, not only this thread, and
        the cyclic garbage of a registered function waits until the run
        returns.
        """
        collecting = gc.isenabled()
        gc.disable()  # a run allocates per object and hop and frees next to nothing
        try:
            agenda = self._agenda
            while self.clock <= t_end:
                ahead = agenda[0][0] if agenda else t_end + 1
                if ahead > self.clock:
                    self.clock = min(ahead, t_end + 1)
                    self.events_this_tick = []  # as after a tick without events
                else:
                    self.tick()
            return self.metrics()
        finally:
            if collecting:
                gc.enable()

    def audit(self):
        """Conservation: born items are delivered, queued, errored, or dropped.

        The oracle for `tick`'s running count: it sums every queue afresh.
        """
        queued = sum(map(len, self.queues.values()))
        accounted = (len(self.delivered_items) + queued + len(self.error_items)
                     + self.dropped)
        if self.born != accounted:
            raise RuntimeError(
                f"conservation violated: born={self.born} accounted={accounted}")

    def metrics(self) -> dict:
        per_block = {name: {"consumed": stage.consumed, "emitted": stage.emitted,
                            "errors": stage.errors}
                     for name, stage in sorted(self.blocks.items())}
        stores = {f"{provider}/{bucket}": len(objects)
                  for (provider, bucket), objects in sorted(self.stores.items())}
        return {"per_block": per_block, "stores": stores, "final_tick": self.clock - 1}

    @property
    def error_count(self) -> int:
        return sum(stage.errors for stage in self.blocks.values())


def instantiate(template: ServiceTemplate) -> Flow:
    """Build a Flow from a template that verified with zero errors.

    Raises UnsupportedTypeError when a pipeline node's type has no
    simulation behaviour (abstract blocks, AWS shell/SQL tasks), and
    DependencyCycleError naming one cycle when the connections form one.
    """
    topo = Topology(template)
    flow = Flow(template)
    blocks = flow.blocks
    for name in topo.pipelines:  # a block's own error wins over a cycle
        blocks[name] = _build_stage(topo, flow, name)
    order = lexicographic_order(topo.pipelines, topo.successors)
    if len(order) != len(topo.pipelines):
        raise DependencyCycleError(find_cycle(topo.pipelines, topo.successors))
    flow._stages = [blocks[name] for name in order]
    for index, stage in enumerate(flow._stages):
        stage.index = index
        if stage.source is not None:
            flow._readers.setdefault(stage.source, []).append(stage)
    # the pairs are sorted, so inputs come in source order, outputs in target order
    for source, target in topo.pairs:
        queue = flow.queues[(source, target)] = []
        blocks[target].inputs.append(queue)
        blocks[source].outputs.append((target, queue, blocks[target]))
        blocks[source].emit_events.append((source, "emit", target))
    return flow


def _build_stage(topo, flow, name) -> _Stage:
    ancestry = topo.resolved_node(name).ancestry  # pipelines always resolve

    def prop(key):
        return topo.effective_property(name, key)

    def bucket(binding):
        provider, key = binding
        return provider, str(prop(key) or "")

    cron = topo.cron(name)
    stage = partial(_Stage, flow, name,
                    None if cron is None else parse_cron(str(cron[0])))

    if binding := first_of(_CONSUMER_BINDINGS, ancestry):
        return stage(_consume, source=bucket(binding))
    if binding := first_of(_PUBLISHER_BINDINGS, ancestry):
        return stage(_deliver, destination=bucket(binding))
    if cat.ENCRYPT in ancestry or cat.DECRYPT in ancestry:
        operation = decrypt_bytes if cat.DECRYPT in ancestry else encrypt_bytes
        return stage(_transform, function=partial(
            operation, passphrase=cipher_key(prop("passphrase"))))
    if key_prop := first_of(cat.INVOKER_KEYS, ancestry):
        # looked up per firing: functions may be registered after instantiate
        return stage(_transform, function_key=str(prop(key_prop) or ""))
    if cat.PROCESS_PREFIX + "RouteToRemote" in ancestry:
        return stage(_route, clauses=[
            clause for clause in _parse_predicate(prop("route_predicate"))
            if clause[0] in topo.successors[name]])
    if copy := first_of(_STANDALONE_COPIES, ancestry):
        return stage(_deliver, source=bucket(copy[0]), destination=bucket(copy[1]))

    raise UnsupportedTypeError(
        f"pipeline node {name!r} of type {topo.template.node_templates[name].type!r} "
        f"has no simulation behaviour")


def _parse_predicate(predicate):
    """(target, attribute, value) clauses of a route predicate: a placeholder
    language of semicolon-separated ``target:attribute=value`` clauses,
    matched against item attributes; malformed clauses are ignored."""
    clauses = []
    for raw in str(predicate or "").split(";"):
        target, colon, condition = raw.partition(":")
        attribute, equals, value = condition.partition("=")
        if colon and equals:
            clauses.append((target.strip(), attribute.strip(), value.strip()))
    return clauses


# --------------------------------------------------------------------------
# injection schedules
# --------------------------------------------------------------------------

def parse_schedule(text: str, base_dir=None) -> list[tuple[int, str, str, str, bytes]]:
    """Parse an injection schedule.

    One injection per line: ``<tick> <provider> <bucket> <key> <payload>``
    where tick is ASCII decimal digits and payload is inline hex (an even
    number of ASCII hex digits) or else a file path, resolved against
    `base_dir`.  Blank lines and ``#`` comments are skipped.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ScheduleError(f"schedule line {lineno}: expected 5 fields, "
                                f"got {len(parts)}")
        tick_text, provider, bucket, key, payload_text = parts
        digits = tick_text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ScheduleError(f"schedule line {lineno}: bad tick {tick_text!r}")
        tick = int(tick_text)
        if tick < 0:
            raise ScheduleError(f"schedule line {lineno}: tick must be >= 0")
        try:
            # fromhex also skips ASCII whitespace, which split() left none of
            payload = bytes.fromhex(payload_text)
        except ValueError:
            path = payload_text if base_dir is None \
                else os.path.join(base_dir, payload_text)
            try:
                with open(path, "rb") as handle:
                    payload = handle.read()
            except OSError as exc:
                raise ScheduleError(f"schedule line {lineno}: cannot read "
                                    f"{payload_text!r}: {exc}") from None
        out.append((tick, provider, bucket, key, payload))
    return out
