"""Deterministic desk-scale execution of a verified topology.

A Flow instantiates every pipeline node as a stage, wires one FIFO queue
per connection edge, and drives everything off an integer virtual clock.
Object stores are flat in-memory (provider, bucket) -> key -> bytes maps;
FaaS calls are byte transforms looked up in a registry.  Event-driven
stages fire every tick and drain whatever is pending; CRON-driven stages
fire only on ticks matching their expression.  Within one tick stages fire
in topological order of the connection graph, so an event-driven chain is
traversed in a single tick.

Determinism is a hard contract: no wall clock, no OS entropy.  Identical
template plus identical injection schedule yields identical metrics and
store contents.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from . import catalog as cat
from .cron import CronExpr, parse_cron
from .crypto import decrypt_bytes, encrypt_bytes
from .errors import DuplicateFunctionError, UnsupportedTypeError
from .model import ServiceTemplate
from .topology import Topology

_SRC = "radon.nodes.datapipeline.source."
_PRC = "radon.nodes.datapipeline.process."
_DST = "radon.nodes.datapipeline.destination."
_STA = "radon.nodes.datapipeline.standalone."

# consumer / publisher types -> (store provider label, bucket property)
_CONSUMER_BINDINGS = {
    _SRC + "ConsS3Bucket": ("s3", "BucketName"),
    _SRC + "ConsGCSBucket": ("gcs", "bucket"),
    _SRC + "ConsMinIO": ("minio", "BucketName"),
    _SRC + "ConsAzureBlob": ("azure", "ContainerName"),
    _SRC + "ConsFTP": ("ftp", "directory"),
    _SRC + "ConsSFTP": ("sftp", "directory"),
    _SRC + "ConsMqTT": ("mqtt", "topic"),
    _SRC + "ConsumeLocal": ("local", "directory_path"),
}

_PUBLISHER_BINDINGS = {
    _DST + "PubsS3Bucket": ("s3", "BucketName"),
    _DST + "PubGCS": ("gcs", "BucketName"),
    _DST + "PubsAzureBlob": ("azure", "ContainerName"),
    _DST + "PubsMinIO": ("minio", "BucketName"),
    _DST + "PubsMQTT": ("mqtt", "topic"),
    _DST + "PubsSFTP": ("sftp", "directory"),
    _DST + "PublishLocal": ("local", "directory_path"),
}

# transform-invoking types -> property holding the registry key
_INVOKER_KEYS = {
    _PRC + "InvokeLambda": "function_name",
    _PRC + "InvokeOpenFaaS": "function_name",
    _PRC + "InvokeFaaSFunction": "function_URL",
    _PRC + "InvokeImageFaaSFunction": "function_URL",
    _PRC + "ExecuteCommand": "script_path",
    _PRC + "ExecutePython": "script_path",
    _PRC + "ExecuteRuby": "script_path",
}

_STANDALONE_COPIES = {
    _STA + "AWSCopyS3ToS3": (("s3", "SourceBucketName"),
                             ("s3", "DestinationBucketName")),
    _STA + "AWSCopyDynamodbToS3": (("dynamodb", "TableName"), ("s3", "BucketName")),
    _STA + "AWSCopyS3ToDynamodb": (("s3", "BucketName"), ("dynamodb", "TableName")),
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
    """Common behaviour: scheduling, metrics, queue plumbing."""

    def __init__(self, flow, name, strategy, cron: CronExpr | None):
        self.flow = flow
        self.name = name
        self.strategy = strategy  # "EVENT_DRIVEN" | "CRON_DRIVEN"
        self.cron = cron
        self.consumed = 0
        self.emitted = 0
        self.errors = 0

    def should_fire(self, tick: int) -> bool:
        if self.strategy == "CRON_DRIVEN":
            return self.cron is not None and self.cron.matches(tick)
        return True

    def fire(self, tick: int):
        raise NotImplementedError

    def _drain_inputs(self):
        items = []
        for source in self.flow.in_edges.get(self.name, ()):
            queue = self.flow.queues[(source, self.name)]
            while queue:
                items.append(queue.popleft())
        return items

    def _emit(self, item: FlowItem, targets=None):
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

    def _divert_error(self, item: FlowItem, reason: str):
        self.errors += 1
        item.attributes["error"] = reason
        self.flow.error_items.append(item)
        self.flow.events_this_tick.append((self.name, "error", reason))


class _StoreReader(_Stage):
    """A stage that takes the new objects of one (provider, bucket) `source`."""

    def __init__(self, flow, name, strategy, cron, source):
        super().__init__(flow, name, strategy, cron)
        self.source = source
        self.cursor = -1  # seq of the last store event taken

    def _take_new_objects(self, tick: int):
        """Yield (event, item) for each source event written by `tick` since
        the last one taken, in write order; each item is born and visits
        this stage."""
        provider, bucket = self.source
        for event in self.flow.store_events:
            if event.seq <= self.cursor:
                continue
            if event.provider != provider or event.bucket != bucket:
                continue
            if event.tick > tick:
                continue
            self.cursor = event.seq
            item = FlowItem(
                payload=event.payload,
                attributes={
                    "source_provider": provider,
                    "source_bucket": bucket,
                    "key": event.key,
                },
            )
            self.flow.born += 1
            self.consumed += 1
            item.visit(self.name, tick)
            yield event, item


class _ConsumerStage(_StoreReader):
    """Polls a bound store bucket and turns new objects into flow items."""

    def fire(self, tick: int):
        for event, item in self._take_new_objects(tick):
            self.flow.events_this_tick.append((self.name, "consume", event.key))
            self._emit(item)


class _TransformStage(_Stage):
    """Applies a byte transform looked up in the function registry."""

    def __init__(self, flow, name, strategy, cron, function_key):
        super().__init__(flow, name, strategy, cron)
        self.function_key = function_key

    def fire(self, tick: int):
        for item in self._drain_inputs():
            self.consumed += 1
            item.visit(self.name, tick)
            transform = self.flow.functions.get(self.function_key)
            if transform is None:
                self._divert_error(item, f"no function registered as "
                                   f"{self.function_key!r}")
                continue
            item.payload = transform(item.payload)
            self._emit(item)


class _CipherStage(_Stage):
    def __init__(self, flow, name, strategy, cron, passphrase, decrypt):
        super().__init__(flow, name, strategy, cron)
        self.passphrase = passphrase or ""
        self.operation = decrypt_bytes if decrypt else encrypt_bytes

    def fire(self, tick: int):
        for item in self._drain_inputs():
            self.consumed += 1
            item.visit(self.name, tick)
            item.payload = self.operation(item.payload, self.passphrase)
            self._emit(item)


class _RouterStage(_Stage):
    """Forwards each item to the outgoing edges whose predicate matches.

    The predicate language is a placeholder: semicolon-separated
    ``target:attribute=value`` clauses matched against item attributes.
    Items matching no clause are diverted to the error trail.
    """

    def __init__(self, flow, name, strategy, cron, predicate):
        super().__init__(flow, name, strategy, cron)
        self.clauses = self._parse(predicate)

    @staticmethod
    def _parse(predicate):
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

    def fire(self, tick: int):
        available = set(self.flow.out_edges.get(self.name, ()))
        for item in self._drain_inputs():
            self.consumed += 1
            item.visit(self.name, tick)
            targets = sorted({target for target, attribute, value in self.clauses
                              if target in available
                              and item.attributes.get(attribute) == value})
            if not targets:
                self._divert_error(item, "no route predicate matched")
                continue
            self._emit(item, targets=targets)


class _PublisherStage(_Stage):
    """Terminal sink: writes every incoming item to its bound store."""

    def __init__(self, flow, name, strategy, cron, provider, bucket):
        super().__init__(flow, name, strategy, cron)
        self.provider = provider
        self.bucket = bucket

    def fire(self, tick: int):
        for item in self._drain_inputs():
            self.consumed += 1
            item.visit(self.name, tick)
            key = item.attributes.get("key") or f"item-{self.flow.born}"
            self.flow._store_write(self.provider, self.bucket, key,
                                   item.payload, tick)
            self.emitted += 1
            self.flow.delivered_items.append(item)
            self.flow.events_this_tick.append((self.name, "deliver", key))


class _StandaloneCopyStage(_StoreReader):
    """Self-contained bucket-to-bucket copy firing on its cron schedule."""

    def __init__(self, flow, name, cron, source, destination):
        super().__init__(flow, name, "CRON_DRIVEN", cron, source)
        self.destination = destination

    def fire(self, tick: int):
        dest_provider, dest_bucket = self.destination
        for event, item in self._take_new_objects(tick):
            self.flow._store_write(dest_provider, dest_bucket, event.key,
                                   event.payload, tick)
            self.emitted += 1
            self.flow.delivered_items.append(item)
            self.flow.events_this_tick.append((self.name, "deliver", event.key))


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
        self.functions: dict = dict(BUILTIN_FUNCTIONS)
        self.delivered_items: list[FlowItem] = []
        self.error_items: list[FlowItem] = []
        self.events_this_tick: list = []
        self.born = 0
        self.dropped = 0
        self._firing_order: list[str] = []
        self._injections: dict[int, list] = {}
        self._event_seq = 0

    # -- stores ------------------------------------------------------------

    def _store_write(self, provider, bucket, key, payload, tick):
        self.stores.setdefault((provider, bucket), {})[key] = payload
        self.store_events.append(StoreEvent(self._event_seq, tick, provider,
                                            bucket, key, payload))
        self._event_seq += 1

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
        """Tick through t_end inclusive and return the final metrics."""
        while self.clock <= t_end:
            self.tick()
        return self.metrics()

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


def _topological_firing_order(names, out_edges):
    indegree = {name: 0 for name in names}
    for source, targets in out_edges.items():
        for target in targets:
            indegree[target] += 1
    ready = sorted(name for name in names if indegree[name] == 0)
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for target in out_edges.get(current, ()):
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
        ready.sort()
    # connection cycles fire after the acyclic part, in name order
    order.extend(sorted(set(names) - set(order)))
    return order


def instantiate(template: ServiceTemplate, defs=None) -> Flow:
    """Build a Flow from a template that verified with zero errors.

    Raises UnsupportedTypeError when a pipeline node's type has no
    simulation behaviour (abstract blocks, AWS shell/SQL tasks).
    """
    topo = Topology(template, defs)
    flow = Flow(template)
    # the pairs are sorted, so every adjacency list comes out sorted
    for source, target in topo.pairs:
        flow.queues[(source, target)] = deque()
        flow.out_edges.setdefault(source, []).append(target)
        flow.in_edges.setdefault(target, []).append(source)
    for name in topo.pipelines:
        flow.blocks[name] = _build_stage(topo, flow, name)
    flow._firing_order = _topological_firing_order(topo.pipelines, flow.out_edges)
    return flow


def _scheduling(topo, name, resolved):
    if "schedulingStrategy" in resolved.properties:
        strategy = topo.effective_property(name, "schedulingStrategy")
    else:
        strategy = "CRON_DRIVEN"  # standalone tasks schedule by cron only
    cron = None
    if strategy == "CRON_DRIVEN":
        cron = parse_cron(str(topo.effective_property(name, "schedulingPeriodCRON")))
    return strategy, cron


def _build_stage(topo, flow, name) -> _Stage:
    resolved = topo.resolved_node(name)  # pipelines always resolve
    ancestry = resolved.ancestry
    strategy, cron = _scheduling(topo, name, resolved)

    for type_name, (provider, bucket_prop) in _CONSUMER_BINDINGS.items():
        if type_name in ancestry:
            bucket = str(topo.effective_property(name, bucket_prop) or "")
            return _ConsumerStage(flow, name, strategy, cron, (provider, bucket))

    for type_name, (provider, bucket_prop) in _PUBLISHER_BINDINGS.items():
        if type_name in ancestry:
            bucket = str(topo.effective_property(name, bucket_prop) or "")
            return _PublisherStage(flow, name, strategy, cron, provider, bucket)

    if cat.ENCRYPT in ancestry or cat.DECRYPT in ancestry:
        passphrase = topo.effective_property(name, "passphrase")
        return _CipherStage(flow, name, strategy, cron, passphrase,
                            decrypt=cat.DECRYPT in ancestry)

    for type_name, key_prop in _INVOKER_KEYS.items():
        if type_name in ancestry:
            key = str(topo.effective_property(name, key_prop) or "")
            return _TransformStage(flow, name, strategy, cron, key)

    if _PRC + "RouteToRemote" in ancestry:
        predicate = topo.effective_property(name, "route_predicate")
        return _RouterStage(flow, name, strategy, cron, predicate)

    for type_name, (source, destination) in _STANDALONE_COPIES.items():
        if type_name in ancestry:
            src = (source[0], str(topo.effective_property(name, source[1]) or ""))
            dst = (destination[0],
                   str(topo.effective_property(name, destination[1]) or ""))
            return _StandaloneCopyStage(flow, name, cron, src, dst)

    raise UnsupportedTypeError(
        f"pipeline node {name!r} of type {topo.template.node_templates[name].type!r} "
        f"has no simulation behaviour")


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
