"""Deterministic desk-scale execution of a verified topology.

A Flow instantiates every pipeline node as a stage, wires one FIFO queue
per connection edge, and drives everything off an integer virtual clock.
Object stores are flat in-memory (provider, bucket) -> key -> bytes maps;
FaaS calls are byte transforms looked up in a registry.  Event-driven
stages fire every tick and drain whatever is pending; CRON-driven stages
fire only on ticks matching their expression.  Within one tick stages fire
in topological order of the connection graph, so an event-driven chain is
traversed in a single tick.

Every store write is appended to the flow's event log and to one event
list per (provider, bucket); a stage reading a bucket keeps an offset into
that bucket's list, so a firing looks only at the events it has not taken.
`run_until` jumps the clock over ticks at which nothing can fire: after
each processed tick it moves straight to the next injection, or to the
first tick at which a stage with input waiting fires (the current tick for
an event-driven stage, the next cron match for a CRON-driven one).

Determinism is a hard contract: no wall clock, no OS entropy.  Identical
template plus identical injection schedule yields identical metrics and
store contents.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from . import catalog as cat
from .cron import CronExpr, cron_next, parse_cron
from .crypto import cipher_key, decrypt_bytes, encrypt_bytes
from .errors import DuplicateFunctionError, UnsupportedTypeError
from .model import ServiceTemplate
from .topology import Topology, lexicographic_order

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

# blur works on windows of this many output bytes, so the lane integers of
# one window stay small however large the payload is
_BLUR_WINDOW = 4096

# a run of two to 255 equal bytes; singletons fall between the matches
_RUN = re.compile(rb"(.)\1{1,254}", re.S)


def grayscale_transform(payload: bytes) -> bytes:
    """Stand-in image grayscale: halve every byte."""
    return bytes(payload).translate(_HALVE)


def blur_transform(payload: bytes) -> bytes:
    """Stand-in blur: mean over a centered window of 3, edges clamped."""
    if not payload:
        return b""
    padded = payload[:1] + payload + payload[-1:]
    out = bytearray()
    for start in range(0, len(payload), _BLUR_WINDOW):
        out += _blur_window(padded[start:start + _BLUR_WINDOW + 2])
    return bytes(out)


def _blur_window(padded: bytes) -> bytes:
    """Means of the len(padded) - 2 windows of three in `padded`.

    Each byte goes into its own 32-bit lane of one integer, so one addition
    of two shifted copies sums every window (at most 765, no carry between
    lanes).  (s * 683) >> 11 == s // 3 for every s in 0..765; the product
    stays below 2**20, so the low byte of each lane is the mean.
    """
    width = 4 * len(padded)
    lanes = bytearray(width)
    lanes[::4] = padded
    x = int.from_bytes(lanes, "little")
    sums = x + (x >> 32) + (x >> 64)
    return ((sums * 683) >> 11).to_bytes(width, "little")[:width - 8:4]


def rle_compress(payload: bytes) -> bytes:
    """Run-length encode byte runs as (count, byte) pairs, count <= 255."""
    out = bytearray()
    start = 0
    for run in _RUN.finditer(payload):
        _append_singletons(out, payload[start:run.start()])
        out += bytes((run.end() - run.start(), payload[run.start()]))
        start = run.end()
    _append_singletons(out, payload[start:])
    return bytes(out)


def _append_singletons(out: bytearray, chunk: bytes):
    """Append a (1, byte) pair for every byte of `chunk`."""
    base = len(out)
    out += bytes(2 * len(chunk))
    out[base::2] = b"\x01" * len(chunk)
    out[base + 1::2] = chunk


BUILTIN_FUNCTIONS = {
    "img-grayscale-nifi": grayscale_transform,
    "img-blur-nifi": blur_transform,
    "azure-compress": rle_compress,
}


@dataclass
class FlowItem:
    """One simulated data unit moving through the pipeline."""

    payload: bytes
    attributes: dict[str, str] = field(default_factory=dict)
    trail: list[tuple[str, int]] = field(default_factory=list)

    def visit(self, block: str, tick: int):
        if self.trail and tick < self.trail[-1][1]:
            raise RuntimeError("trail ticks must be non-decreasing")
        self.trail.append((block, tick))

    def fork(self) -> "FlowItem":
        return FlowItem(self.payload, dict(self.attributes), list(self.trail))

    @property
    def blocks(self) -> list[str]:
        return [block for block, _ in self.trail]


@dataclass(frozen=True)
class StoreEvent:
    seq: int
    tick: int
    provider: str
    bucket: str
    key: str
    payload: bytes


class _Stage:
    """One block: on each firing it takes its items in and handles each one.

    A stage with a `source` (provider, bucket) takes the objects written
    there since it last fired; any other stage drains its input queues,
    which are wired before the stage is built.
    `cron` None means event-driven: the stage fires every tick.  `handle`
    does what the block's kind does with one item.
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
        self.events = None if source is None else flow._events_in(*source)
        self.cursor = 0  # offset of the first event in `events` not yet taken
        self.inputs = [flow.queues[(upstream, name)]
                       for upstream in flow.in_edges.get(name, ())]
        self.consumed = 0
        self.emitted = 0
        self.errors = 0

    def should_fire(self, tick: int) -> bool:
        return self.cron is None or self.cron.matches(tick)

    def fire(self, tick: int):
        items = self._drain_inputs() if self.source is None \
            else self._take_new_objects(tick)
        for item in items:
            self.consumed += 1
            item.visit(self.name, tick)
            self.handle(self, item, tick)

    def has_input(self) -> bool:
        """Whether the stage would take an item if it fired now."""
        if self.events is not None:
            return self.cursor < len(self.events)
        return any(self.inputs)

    def _drain_inputs(self):
        items = []
        for queue in self.inputs:
            while queue:
                items.append(queue.popleft())
        return items

    def emit(self, item: FlowItem, targets=None):
        flow = self.flow
        outs = targets if targets is not None \
            else flow.out_edges.get(self.name, [])
        if not outs:
            flow.dropped += 1
            return
        copies = [item] + [item.fork() for _ in range(len(outs) - 1)]
        flow.born += len(outs) - 1
        for target, copy_item in zip(outs, copies):
            flow.queues[(self.name, target)].append(copy_item)
            self.emitted += 1
            flow.events_this_tick.append((self.name, "emit", target))

    def divert_error(self, item: FlowItem, reason: str):
        self.errors += 1
        item.attributes["error"] = reason
        self.flow.error_items.append(item)
        self.flow.events_this_tick.append((self.name, "error", reason))

    def _take_new_objects(self, tick: int):
        """An item for each source event written by `tick` since the last
        one taken, in write order, each born here.  The scan ends before
        the handlers run, so a copy into its own bucket copies each object
        once per firing."""
        provider, bucket = self.source
        items = []
        for event in self.events[self.cursor:]:
            if event.tick > tick:
                break  # ticks never decrease within a bucket
            items.append(FlowItem(
                payload=event.payload,
                attributes={
                    "source_provider": provider,
                    "source_bucket": bucket,
                    "key": event.key,
                },
            ))
        self.cursor += len(items)
        self.flow.born += len(items)
        return items


def _consume(stage, item, tick):
    stage.flow.events_this_tick.append((stage.name, "consume", item.attributes["key"]))
    stage.emit(item)


def _transform(stage, item, tick):
    """Apply the stage's fixed function, or the registered one it names."""
    transform = stage.function or stage.flow.functions.get(stage.function_key)
    if transform is None:
        stage.divert_error(item, f"no function registered as {stage.function_key!r}")
        return
    item.payload = transform(item.payload)
    stage.emit(item)


def _route(stage, item, tick):
    """Forward to the targets of every clause the item's attributes match."""
    targets = sorted({target for target, attribute, value in stage.clauses
                      if item.attributes.get(attribute) == value})
    if not targets:
        stage.divert_error(item, "no route predicate matched")
        return
    stage.emit(item, targets=targets)


def _deliver(stage, item, tick):
    """Write the item to the destination store.  A copy keeps the source key
    as it is; a publisher names a keyless item after the items born so far."""
    flow = stage.flow
    key = item.attributes["key"] if stage.source is not None \
        else item.attributes.get("key") or f"item-{flow.born}"
    flow._store_write(*stage.destination, key, item.payload, tick)
    stage.emitted += 1
    flow.delivered_items.append(item)
    flow.events_this_tick.append((stage.name, "deliver", key))


class Flow:
    """An instantiated topology plus all of its runtime state."""

    def __init__(self, template: ServiceTemplate):
        self.template = template
        self.clock = 0
        self.blocks: dict[str, _Stage] = {}
        self.queues: dict[tuple[str, str], deque] = {}
        self.in_edges: dict[str, list[str]] = {}
        self.out_edges: dict[str, list[str]] = {}
        self.stores: dict[tuple[str, str], dict[str, bytes]] = {}
        self.store_events: list[StoreEvent] = []
        self._bucket_events: dict[tuple[str, str], list[StoreEvent]] = {}
        self.functions: dict = dict(BUILTIN_FUNCTIONS)
        self.delivered_items: list[FlowItem] = []
        self.error_items: list[FlowItem] = []
        self.events_this_tick: list = []
        self.born = 0
        self.dropped = 0
        self._firing_order: list[str] = []
        self._injections: dict[int, list] = {}  # tick -> puts, every tick >= clock

    # -- stores ------------------------------------------------------------

    def _events_in(self, provider: str, bucket: str) -> list[StoreEvent]:
        """The store events of one bucket, in write order."""
        return self._bucket_events.setdefault((provider, bucket), [])

    def _store_write(self, provider, bucket, key, payload, tick):
        self.stores.setdefault((provider, bucket), {})[key] = payload
        event = StoreEvent(len(self.store_events), tick, provider, bucket,
                           key, payload)
        self.store_events.append(event)
        self._events_in(provider, bucket).append(event)

    def put_object(self, provider: str, bucket: str, key: str, payload: bytes):
        """Store an object now; bound consumers see it as a new-object event."""
        self._store_write(provider, bucket, key, bytes(payload), self.clock)

    def schedule_injection(self, tick: int, provider: str, bucket: str,
                           key: str, payload: bytes):
        """Queue a put_object to happen at the start of `tick`."""
        if tick < self.clock:
            raise ValueError(f"tick {tick} is already in the past "
                             f"(clock is at {self.clock})")
        self._injections.setdefault(tick, []).append(
            (provider, bucket, key, bytes(payload)))

    # -- functions -----------------------------------------------------------

    def register_function(self, name: str, transform):
        if not name:
            raise ValueError("function name must be non-empty")
        if name in self.functions:
            raise DuplicateFunctionError(f"function {name!r} already registered")
        self.functions[name] = transform

    # -- execution -----------------------------------------------------------

    def tick(self) -> list:
        """Process the current tick, advance the clock, return tick events."""
        now = self.clock
        self.events_this_tick = []
        for provider, bucket, key, payload in self._injections.pop(now, ()):
            self._store_write(provider, bucket, key, payload, now)
        for name in self._firing_order:
            stage = self.blocks[name]
            if stage.should_fire(now):
                stage.fire(now)
        self.clock = now + 1
        self.audit()
        return self.events_this_tick

    def run_until(self, t_end: int) -> dict:
        """Run through t_end inclusive and return the final metrics.

        Ticks at which nothing can happen are skipped, not processed: the
        result is the same as calling `tick` until the clock passes t_end.
        """
        while self.clock <= t_end:
            ahead = self._next_event_tick(t_end + 1)
            if ahead > self.clock:
                self.clock = ahead
                self.events_this_tick = []  # as after a tick without events
            else:
                self.tick()
        return self.metrics()

    def _next_event_tick(self, limit: int) -> int:
        """The first tick from the clock on at which an injection is due or
        a stage with input waiting fires, or `limit` if that is sooner."""
        now = self.clock
        ahead = min(limit, min(self._injections, default=limit))
        for stage in self.blocks.values():
            if ahead <= now:
                break
            if stage.has_input():
                ahead = min(ahead, now if stage.cron is None
                            else cron_next(stage.cron, now))
        return ahead

    def audit(self):
        """Conservation: born items are delivered, queued, errored, or dropped."""
        queued = sum(len(q) for q in self.queues.values())
        accounted = (len(self.delivered_items) + queued + len(self.error_items)
                     + self.dropped)
        if self.born != accounted:
            raise RuntimeError(
                f"conservation violated: born={self.born} accounted={accounted}")

    def metrics(self) -> dict:
        per_block = {
            name: {"consumed": stage.consumed, "emitted": stage.emitted,
                   "errors": stage.errors}
            for name, stage in sorted(self.blocks.items())
        }
        stores = {f"{provider}/{bucket}": len(objects)
                  for (provider, bucket), objects in sorted(self.stores.items())}
        return {"per_block": per_block, "stores": stores,
                "final_tick": self.clock - 1}

    @property
    def error_count(self) -> int:
        return sum(stage.errors for stage in self.blocks.values())


def instantiate(template: ServiceTemplate) -> Flow:
    """Build a Flow from a template that verified with zero errors.

    Raises UnsupportedTypeError when a pipeline node's type has no
    simulation behaviour (abstract blocks, AWS shell/SQL tasks).
    """
    topo = Topology(template)
    flow = Flow(template)
    flow.out_edges = topo.successors
    # the pairs are sorted, so every list of sources comes out sorted
    for source, target in topo.pairs:
        flow.queues[(source, target)] = deque()
        flow.in_edges.setdefault(target, []).append(source)
    for name in topo.pipelines:
        flow.blocks[name] = _build_stage(topo, flow, name)
    order = lexicographic_order(topo.pipelines, topo.successors)
    # connection cycles fire after the acyclic part, in name order
    flow._firing_order = order + sorted(set(topo.pipelines) - set(order))
    return flow


def _match(table, ancestry):
    """The value of the first `table` type in `ancestry`, else None."""
    return next((value for type_name, value in table.items()
                 if type_name in ancestry), None)


def _build_stage(topo, flow, name) -> _Stage:
    resolved = topo.resolved_node(name)  # pipelines always resolve
    ancestry = resolved.ancestry

    def prop(key):
        return topo.effective_property(name, key)

    def bucket(binding):
        provider, key = binding
        return provider, str(prop(key) or "")

    # the cron applies where R6 checks it (standalone tasks: cron only)
    if "schedulingStrategy" in resolved.properties:
        cron_driven = prop("schedulingStrategy") == "CRON_DRIVEN"
    else:
        cron_driven = "schedulingPeriodCRON" in resolved.properties
    cron = parse_cron(str(prop("schedulingPeriodCRON"))) if cron_driven else None
    stage = partial(_Stage, flow, name, cron)

    if binding := _match(_CONSUMER_BINDINGS, ancestry):
        return stage(_consume, source=bucket(binding))
    if binding := _match(_PUBLISHER_BINDINGS, ancestry):
        return stage(_deliver, destination=bucket(binding))
    if cat.ENCRYPT in ancestry or cat.DECRYPT in ancestry:
        operation = decrypt_bytes if cat.DECRYPT in ancestry else encrypt_bytes
        return stage(_transform, function=partial(
            operation, passphrase=cipher_key(prop("passphrase"))))
    if key_prop := _match(cat.INVOKER_KEYS, ancestry):
        # looked up per item: functions may be registered after instantiate
        return stage(_transform, function_key=str(prop(key_prop) or ""))
    if cat.PROCESS_PREFIX + "RouteToRemote" in ancestry:
        available = flow.out_edges.get(name, ())  # wired before the stages
        return stage(_route, clauses=[
            clause for clause in _parse_predicate(prop("route_predicate"))
            if clause[0] in available])
    if copy := _match(_STANDALONE_COPIES, ancestry):
        return stage(_deliver, source=bucket(copy[0]), destination=bucket(copy[1]))

    raise UnsupportedTypeError(
        f"pipeline node {name!r} of type {topo.template.node_templates[name].type!r} "
        f"has no simulation behaviour")


def _parse_predicate(predicate):
    """(target, attribute, value) clauses of a route predicate.

    The predicate language is a placeholder: semicolon-separated
    ``target:attribute=value`` clauses matched against item attributes;
    malformed clauses are ignored.
    """
    clauses = []
    for raw in str(predicate or "").split(";"):
        raw = raw.strip()
        if not raw or ":" not in raw:
            continue
        target, condition = raw.split(":", 1)
        if "=" not in condition:
            continue
        attribute, value = condition.split("=", 1)
        clauses.append((target.strip(), attribute.strip(), value.strip()))
    return clauses


# --------------------------------------------------------------------------
# injection schedules
# --------------------------------------------------------------------------

_HEX_DIGITS = set("0123456789abcdefABCDEF")


def parse_schedule(text: str, base_dir=None) -> list[tuple[int, str, str, str, bytes]]:
    """Parse an injection schedule.

    One injection per line: ``<tick> <provider> <bucket> <key> <payload>``
    where payload is inline hex (even-length hex digits) or a file path,
    resolved against `base_dir`.  Blank lines and ``#`` comments are skipped.
    """
    import os

    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"schedule line {lineno}: expected 5 fields, "
                             f"got {len(parts)}")
        tick_text, provider, bucket, key, payload_text = parts
        try:
            tick = int(tick_text, 10)
        except ValueError:
            raise ValueError(f"schedule line {lineno}: bad tick "
                             f"{tick_text!r}") from None
        if tick < 0:
            raise ValueError(f"schedule line {lineno}: tick must be >= 0")
        if len(payload_text) % 2 == 0 and payload_text \
                and set(payload_text) <= _HEX_DIGITS:
            payload = bytes.fromhex(payload_text)
        else:
            path = payload_text if base_dir is None \
                else os.path.join(base_dir, payload_text)
            try:
                with open(path, "rb") as handle:
                    payload = handle.read()
            except OSError as exc:
                raise ValueError(f"schedule line {lineno}: cannot read "
                                 f"{payload_text!r}: {exc}") from None
        out.append((tick, provider, bucket, key, payload))
    return out
