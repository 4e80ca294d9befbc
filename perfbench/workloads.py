"""Seeded input generators for the three benchmark workloads.

Each generator returns the blueprint text, the injection schedule, the
simulation horizon and the store contents a correct run must leave,
computed with the reference kernels.  The same seed gives the same bytes.
Sizes are fixed per workload; the seed only moves content (hosting,
defects, payload bytes), so runs with different seeds cost about the same.
"""

from __future__ import annotations

import io
import json
import random
import zipfile
from dataclasses import dataclass

import reference

SRC = "radon.nodes.datapipeline.source."
PRC = "radon.nodes.datapipeline.process."
DST = "radon.nodes.datapipeline.destination."
STA = "radon.nodes.datapipeline.standalone."
NIFI = "radon.nodes.nifi.Nifi"
COMPUTE = "tosca.nodes.Compute"
AWS_PLATFORM = "radon.nodes.aws.AWSPlatform"
OPENSTACK_PLATFORM = "radon.nodes.openstack.OpenStackPlatform"

# provider -> (consumer type, its bucket property, extra required properties)
CONSUMERS = {
    "s3": ("ConsS3Bucket", "BucketName", {"Region": "eu-west-1"}),
    "minio": ("ConsMinIO", "BucketName", {"MinIO_Endpoint": "http://10.0.0.5:9000"}),
    "gcs": ("ConsGCSBucket", "bucket", {"project_ID": "bench-project",
                                        "credential_JSON_file": "creds/gcp.json"}),
    "azure": ("ConsAzureBlob", "ContainerName", {"connection_string": "stub"}),
    "sftp": ("ConsSFTP", "directory", {"SFTP_Endpoint": "sftp://10.0.0.6"}),
    "mqtt": ("ConsMqTT", "topic", {"Broker_Endpoint": "tcp://10.0.0.7:1883"}),
    "local": ("ConsumeLocal", "directory_path", {}),
}
PUBLISHERS = {
    "s3": ("PubsS3Bucket", "BucketName", {"Region": "eu-west-1"}),
    "minio": ("PubsMinIO", "BucketName", {"MinIO_Endpoint": "http://10.0.0.5:9000"}),
    "gcs": ("PubGCS", "BucketName", {"ProjectID": "bench-project"}),
    "azure": ("PubsAzureBlob", "ContainerName", {"connection_string": "stub"}),
    "sftp": ("PubsSFTP", "directory", {"SFTP_Endpoint": "sftp://10.0.0.6"}),
    "mqtt": ("PubsMQTT", "topic", {"Broker_Endpoint": "tcp://10.0.0.7:1883"}),
    "local": ("PublishLocal", "directory_path", {}),
}
# types whose cred_file_path property is assigned through get_artifact
_CRED_TYPES = {"ConsS3Bucket", "ConsMinIO", "PubsS3Bucket", "PubsMinIO", "PubGCS",
               "InvokeLambda"}

GRAY, BLUR, RLE = "img-grayscale-nifi", "img-blur-nifi", "azure-compress"

ENTRY = "service.yaml"
SCHEDULE = "schedule.txt"


@dataclass
class Workload:
    name: str
    seed: int
    blueprint: str
    schedule: str
    horizon: int
    # "provider/bucket" -> key -> bytes, as the simulator must leave them
    expected_stores: dict

    def write(self, directory):
        """Write the blueprint, the schedule, their CSAR and the run facts."""
        with open(f"{directory}/{ENTRY}", "w", encoding="utf-8") as handle:
            handle.write(self.blueprint)
        with open(f"{directory}/{SCHEDULE}", "w", encoding="utf-8") as handle:
            handle.write(self.schedule)
        with open(f"{directory}/input.csar", "wb") as handle:
            handle.write(self.csar())
        with open(f"{directory}/facts.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": self.name, "seed": self.seed,
                       "horizon": self.horizon}, handle)

    def csar(self) -> bytes:
        """A deflated CSAR holding the blueprint and the schedule."""
        buffer = io.BytesIO()
        members = [
            ("TOSCA-Metadata/TOSCA.meta",
             "TOSCA-Meta-File-Version: 1.1\nCSAR-Version: 1.1\n"
             f"Entry-Definitions: {ENTRY}\n"),
            (ENTRY, self.blueprint),
            (SCHEDULE, self.schedule),
        ]
        with zipfile.ZipFile(buffer, "w") as archive:
            for name, text in members:
                info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
                info.compress_type = zipfile.ZIP_DEFLATED
                archive.writestr(info, text.encode("utf-8"))
        return buffer.getvalue()


# --------------------------------------------------------------------------
# blueprint text
# --------------------------------------------------------------------------

class _Blueprint:
    """Node templates in insertion order, rendered as blueprint YAML."""

    def __init__(self):
        self.nodes = {}

    def add(self, name, type_name, props=None, artifacts=None, reqs=()):
        self.nodes[name] = {"type": type_name, "props": dict(props or {}),
                            "artifacts": dict(artifacts or {}),
                            "reqs": list(reqs)}
        return self.nodes[name]

    def render(self, comment) -> str:
        lines = [f"# {comment}", "tosca_definitions_version: tosca_simple_yaml_1_3",
                 "topology_template:", "  node_templates:"]
        for name, node in self.nodes.items():
            lines.append(f"    {name}:")
            lines.append(f"      type: {node['type']}")
            for section in ("props", "artifacts"):
                if node[section]:
                    lines.append("      properties:" if section == "props"
                                 else "      artifacts:")
                    for key, value in node[section].items():
                        lines.append(f"        {key}: {json.dumps(value)}")
            if node["reqs"]:
                lines.append("      requirements:")
                for req_name, target in node["reqs"]:
                    lines.append(f"        - {req_name}: {target}")
        return "\n".join(lines) + "\n"


def _connect_names(type_name):
    """(local, remote) connection requirement names of a block type."""
    if type_name.startswith(SRC):
        return "connectToPipeline", "connectToPipelineRemote"
    return "ConnectToPipeline", "ConnectToPipelineRemote"


def _block_props(short_type, name, extra):
    props = {"name": name}
    if short_type in _CRED_TYPES:
        props["cred_file_path"] = "{ get_artifact: [SELF, credFile] }"
    props.update(extra)
    artifacts = {"credFile": "creds/cloud.json"} if short_type in _CRED_TYPES else {}
    return props, artifacts


def _endpoint(blueprint, kind, provider, name, bucket, host, extra=None):
    """A consumer or publisher bound to `provider`/`bucket`."""
    short, bucket_prop, required = (CONSUMERS if kind == "source"
                                    else PUBLISHERS)[provider]
    prefix = SRC if kind == "source" else DST
    props, artifacts = _block_props(short, name.lower(), {bucket_prop: bucket,
                                                          **required})
    props.update(extra or {})
    return blueprint.add(name, prefix + short, props, artifacts, [("host", host)])


def _nifi_stack(blueprint, index, platform=None):
    vm, nifi = f"VM_{index}", f"Nifi_{index}"
    blueprint.add(vm, COMPUTE, reqs=[("host", platform)] if platform else ())
    blueprint.add(nifi, NIFI, {"component_version": "1.14.0"}, reqs=[("host", vm)])
    return nifi


def _hex_schedule(injections):
    return "".join(f"{tick} {provider} {bucket} {key} {payload.hex()}\n"
                   for tick, provider, bucket, key, payload in injections)


def _expected_stores(injections, routes):
    """Store contents after every injection followed its route.

    `routes` maps an input "provider/bucket" to a list of
    (function chain, output "provider/bucket") pairs.
    """
    stores = {}
    for _, provider, bucket, key, payload in injections:
        source = f"{provider}/{bucket}"
        stores.setdefault(source, {})[key] = payload
        for chain, destination in routes.get(source, ()):
            data = payload
            for step in chain:
                data = step(data)
            stores.setdefault(destination, {})[key] = data
    return stores


# --------------------------------------------------------------------------
# blueprint_scale: a large control-plane blueprint with fixable defects
# --------------------------------------------------------------------------

BLUEPRINT_CHAINS = 32
BLUEPRINT_STACKS = 16


def blueprint_scale(seed: int) -> Workload:
    """BLUEPRINT_CHAINS chains of six blocks over BLUEPRINT_STACKS NiFi stacks.

    Each chain is source -> Encrypt -> Decrypt -> two Lambdas -> publisher;
    one chain in ten also fans out into the next chain's publisher.
    Exactly 5% of connections use the wrong local/remote kind (R2), 3%
    are duplicated (R3) and 10% of Encrypt/Decrypt pairs disagree on the
    passphrase (R4); the seed picks which.  One 64-byte object enters
    every source.
    """
    rng = random.Random(seed)
    bp = _Blueprint()
    chains, stacks = BLUEPRINT_CHAINS, BLUEPRINT_STACKS
    nifis = [_nifi_stack(bp, i) for i in range(stacks)]
    providers = ["s3", "minio", "gcs", "azure"]
    host_of, edges, injections, routes = {}, [], [], {}
    shuffled = rng.sample(range(chains), chains)
    mismatched = set(shuffled[:round(0.10 * chains)])
    by_reference = set(shuffled[round(0.10 * chains):round(0.46 * chains)])

    for c in range(chains):
        prefix = f"C{c:03d}"
        home = nifis[c % stacks]

        def place():
            return home if rng.random() < 0.6 else rng.choice(nifis)

        names = [f"{prefix}_Src", f"{prefix}_Enc", f"{prefix}_Dec",
                 f"{prefix}_Fn1", f"{prefix}_Fn2", f"{prefix}_Pub"]
        for name in names:
            host_of[name] = place()
        src_provider = providers[c % 4]
        pub_provider = providers[(c // 4) % 4]
        in_bucket, out_bucket = f"in-{c:03d}", f"out-{c:03d}"
        _endpoint(bp, "source", src_provider, names[0], in_bucket, host_of[names[0]])
        passphrase = f"{rng.getrandbits(64):016x}"
        bp.add(names[1], PRC + "Encrypt", {"name": "encrypt", "passphrase": passphrase},
               reqs=[("host", host_of[names[1]])])
        if c in mismatched:
            decrypt_key = f"{rng.getrandbits(64):016x}"  # R4: fixable mismatch
        elif c in by_reference:
            decrypt_key = f"{{ get_property: [{names[1]}, passphrase] }}"
        else:
            decrypt_key = passphrase
        bp.add(names[2], PRC + "Decrypt", {"name": "decrypt", "passphrase": decrypt_key},
               reqs=[("host", host_of[names[2]])])
        functions = [rng.choice([GRAY, BLUR]) for _ in range(2)]
        for name, function in zip(names[3:5], functions):
            props, artifacts = _block_props("InvokeLambda", "lambda",
                                            {"function_name": function,
                                             "region": "eu-west-1"})
            if rng.random() < 0.5:
                props["schedulingStrategy"] = "EVENT_DRIVEN"
            bp.add(name, PRC + "InvokeLambda", props, artifacts,
                   [("host", host_of[name])])
        _endpoint(bp, "publisher", pub_provider, names[5], out_bucket,
                  host_of[names[5]])
        edges.extend(zip(names, names[1:]))

        payload = rng.randbytes(64)
        injections.append((c % 3, src_provider, in_bucket, f"obj-{c:03d}", payload))
        chain = [reference.FUNCTIONS[f] for f in functions]
        route = [(chain, f"{pub_provider}/{out_bucket}")]
        if c % 10 == 9:
            # fan-out into the next chain's publisher
            nxt = (c + 1) % chains
            edges.append((names[4], f"C{nxt:03d}_Pub"))
            route.append((chain, f"{providers[(nxt // 4) % 4]}/out-{nxt:03d}"))
        routes[f"{src_provider}/{in_bucket}"] = route

    order = rng.sample(range(len(edges)), len(edges))
    wrong_kind = set(order[:round(0.05 * len(edges))])
    duplicated = set(order[len(wrong_kind):len(wrong_kind)
                           + round(0.03 * len(edges))])
    for i, (a, b) in enumerate(edges):
        local, remote = _connect_names(bp.nodes[a]["type"])
        correct = local if host_of[a] == host_of[b] else remote
        wrong = remote if correct == local else local
        if i in wrong_kind:
            bp.nodes[a]["reqs"].append((wrong, b))  # R2
        elif i in duplicated:
            bp.nodes[a]["reqs"].append((correct, b))  # R3
            bp.nodes[a]["reqs"].append((rng.choice([correct, wrong]), b))
        else:
            bp.nodes[a]["reqs"].append((correct, b))

    return Workload(
        name="blueprint_scale", seed=seed,
        blueprint=bp.render(f"blueprint_scale seed {seed}: {chains} chains "
                            f"over {stacks} NiFi stacks"),
        schedule=_hex_schedule(injections), horizon=4,
        expected_stores=_expected_stores(injections, routes))


# --------------------------------------------------------------------------
# image_stream: the image-migration pipeline carrying real payload volume
# --------------------------------------------------------------------------

IMAGE_BYTES = 256 * 1024


def image_stream(seed: int) -> Workload:
    """MinIO -> grayscale -> blur -> Encrypt -> Decrypt over four NiFi clouds.

    Encrypt also archives its ciphertext to S3; Decrypt fans out to a GCS
    publisher and to a CRON-driven RLE compression publishing to Azure.
    Payloads of 1-64 KiB add up to exactly IMAGE_BYTES; they come in
    pairs of one size, the first random bytes and the second run-heavy,
    so half of the bytes are of each kind whatever the seed.  One payload
    is injected every two virtual seconds, whatever the engine is doing.
    """
    rng = random.Random(seed)
    bp = _Blueprint()
    bp.add("OpenStackPlatform_0", OPENSTACK_PLATFORM)
    bp.add("AWSPlatform_0", AWS_PLATFORM)
    clouds = {}
    for cloud, platform in (("OpenStack", "OpenStackPlatform_0"),
                            ("AWS", "AWSPlatform_0"), ("GCP", None), ("Azure", None)):
        clouds[cloud] = _nifi_stack(bp, cloud, platform)
    passphrase = f"{rng.getrandbits(128):032x}"
    _endpoint(bp, "source", "minio", "ConsMinIO_0", "images", clouds["OpenStack"])
    bp.nodes["ConsMinIO_0"]["reqs"].append(("connectToPipelineRemote", "Grayscale"))
    for name, function, nxt in (("Grayscale", GRAY, "Blur"),
                                ("Blur", BLUR, "Encrypt_0")):
        props, artifacts = _block_props("InvokeLambda", name.lower(),
                                        {"function_name": function,
                                         "region": "eu-west-1"})
        bp.add(name, PRC + "InvokeLambda", props, artifacts,
               [("host", clouds["AWS"]), ("ConnectToPipeline", nxt)])
    bp.add("Encrypt_0", PRC + "Encrypt", {"name": "encrypt", "passphrase": passphrase},
           reqs=[("host", clouds["AWS"]), ("ConnectToPipelineRemote", "Decrypt_0"),
                 ("ConnectToPipeline", "ArchiveS3")])
    _endpoint(bp, "publisher", "s3", "ArchiveS3", "encrypted-archive", clouds["AWS"])
    bp.add("Decrypt_0", PRC + "Decrypt",
           {"name": "decrypt", "passphrase": "{ get_property: [Encrypt_0, passphrase] }"},
           reqs=[("host", clouds["GCP"]), ("ConnectToPipeline", "PubGCS_0"),
                 ("ConnectToPipelineRemote", "Compress")])
    _endpoint(bp, "publisher", "gcs", "PubGCS_0", "processed", clouds["GCP"])
    bp.add("Compress", PRC + "InvokeImageFaaSFunction",
           {"name": "compress", "function_URL": RLE,
            "schedulingStrategy": "CRON_DRIVEN",
            "schedulingPeriodCRON": "*/10 * * * * ?"},
           reqs=[("host", clouds["Azure"]), ("ConnectToPipeline", "PubsAzureBlob_0")])
    _endpoint(bp, "publisher", "azure", "PubsAzureBlob_0", "compressed",
              clouds["Azure"])

    injections = []
    remaining = IMAGE_BYTES
    while remaining:
        size = min(remaining // 2, rng.randint(1024, 64 * 1024))
        runs = bytearray()
        while len(runs) < size:
            runs += bytes([rng.getrandbits(8)]) * rng.randint(1, 600)
        for payload in (rng.randbytes(size), bytes(runs[:size])):
            k = len(injections)
            injections.append((2 * k, "minio", "images", f"img-{k:04d}", payload))
        remaining -= 2 * size

    def encrypt(data):
        return reference.cipher(data, passphrase)

    front = [reference.grayscale, reference.blur]
    routes = {"minio/images": [(front + [encrypt], "s3/encrypted-archive"),
                               (front, "gcs/processed"),
                               (front + [reference.rle], "azure/compressed")]}
    return Workload(
        name="image_stream", seed=seed,
        blueprint=bp.render(f"image_stream seed {seed}: image migration over "
                            "four clouds"),
        schedule=_hex_schedule(injections), horizon=injections[-1][0] + 12,
        expected_stores=_expected_stores(injections, routes))


# --------------------------------------------------------------------------
# store_relay: many ticks of engine bookkeeping with little byte work
# --------------------------------------------------------------------------

# providers of the buckets between hops; bucket 4 is reached from an S3
# staging bucket through a standalone AWS copy
_RELAY_PROVIDERS = ["minio", "gcs", "azure", "sftp", "s3", "mqtt", "local",
                    "minio", "gcs"]
_RELAY_FUNCTIONS = [GRAY, BLUR, GRAY, RLE, BLUR, GRAY, BLUR, GRAY]
_RELAY_CRONS = {1: "*/30 * * * * ?", 3: "0 * * * * ?", 5: "*/20 * * * * ?",
                7: "0 */2 * * * ?"}
_COPY_CRON = "*/15 * * * * ?"
RELAY_OBJECTS = 200
RELAY_HORIZON = 1799


def store_relay(seed: int) -> Workload:
    """Eight store-to-store hops: consumer -> tiny transform -> publisher.

    Each publisher writes the bucket the next hop consumes; half the
    consumers are CRON driven.  RELAY_OBJECTS objects of 16-256 bytes
    arrive in eight bursts over the first three quarters of the horizon (a
    virtual half hour), then the pipeline idles until RELAY_HORIZON.
    """
    rng = random.Random(seed)
    bp = _Blueprint()
    bp.add("AWSPlatform_0", AWS_PLATFORM)
    nifis = [_nifi_stack(bp, i) for i in range(4)]
    buckets = [(provider, f"relay-{i}") for i, provider in enumerate(_RELAY_PROVIDERS)]
    staging = ("s3", "relay-3-staging")
    outputs = buckets[1:4] + [staging] + buckets[5:]  # what each hop publishes to
    for hop, function in enumerate(_RELAY_FUNCTIONS):
        consumer, transform, publisher = f"H{hop}_Cons", f"H{hop}_Fn", f"H{hop}_Pub"
        here, there = nifis[hop % 4], nifis[(hop + hop % 2) % 4]
        scheduling = {}
        if hop in _RELAY_CRONS:
            scheduling = {"schedulingStrategy": "CRON_DRIVEN",
                          "schedulingPeriodCRON": _RELAY_CRONS[hop]}
        provider, bucket = buckets[hop]
        _endpoint(bp, "source", provider, consumer, bucket, here, scheduling)
        bp.nodes[consumer]["reqs"].append(("connectToPipeline", transform))
        props, artifacts = _block_props("InvokeLambda", f"hop-{hop}",
                                        {"function_name": function,
                                         "region": "eu-west-1"})
        link = "ConnectToPipeline" if here == there else "ConnectToPipelineRemote"
        bp.add(transform, PRC + "InvokeLambda", props, artifacts,
               [("host", here), (link, publisher)])
        out_provider, out_bucket = outputs[hop]
        _endpoint(bp, "publisher", out_provider, publisher, out_bucket, there)
    bp.add("CopyStaging", STA + "AWSCopyS3ToS3",
           {"name": "copy-staging", "SourceBucketName": staging[1],
            "DestinationBucketName": buckets[4][1], "cred_file_path": "creds/aws.json",
            "LogBucketName": "copy-logs", "schedulingPeriodCRON": _COPY_CRON},
           reqs=[("host", "AWSPlatform_0")])

    objects, horizon = RELAY_OBJECTS, RELAY_HORIZON
    injections = []
    bursts = 8
    spacing = (3 * (horizon + 1) // 4) // bursts
    for k in range(objects):
        burst, slot = divmod(k, objects // bursts)
        tick = 1 + burst * spacing + slot // 10
        injections.append((tick, buckets[0][0], buckets[0][1], f"obj-{k:04d}",
                           rng.randbytes(rng.randint(16, 256))))

    kernels = [reference.FUNCTIONS[f] for f in _RELAY_FUNCTIONS]
    route = [(kernels[:hop + 1], "/".join(out)) for hop, out in enumerate(outputs)]
    route.append((kernels[:4], "/".join(buckets[4])))  # the copy of staging
    return Workload(
        name="store_relay", seed=seed,
        blueprint=bp.render(f"store_relay seed {seed}: eight store-to-store hops"),
        schedule=_hex_schedule(injections), horizon=horizon,
        expected_stores=_expected_stores(injections, {"/".join(buckets[0]): route}))


GENERATORS = {"blueprint_scale": blueprint_scale, "image_stream": image_stream,
              "store_relay": store_relay}
