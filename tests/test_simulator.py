import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders as b
import topology_gen
from toscaflow import catalog as cat
from toscaflow.errors import DuplicateFunctionError, UnsupportedTypeError
from toscaflow.model import RequirementAssignment
from toscaflow.planner import CONNECTS_TO, build_graph
from toscaflow.topology import Topology, lexicographic_order
from toscaflow.simulator import (
    Flow,
    blur_transform,
    grayscale_transform,
    instantiate,
    parse_schedule,
    rle_compress,
)
from toscaflow.verifier import ERROR, verify


def oracle_gray(p):
    return bytes(v // 2 for v in p)


def oracle_blur(p):
    n = len(p)
    return bytes((p[max(0, i - 1)] + p[i] + p[min(n - 1, i + 1)]) // 3
                 for i in range(n))


def oracle_rle(p):
    out = []
    i = 0
    while i < len(p):
        run = 1
        while i + run < len(p) and p[i + run] == p[i] and run < 255:
            run += 1
        out += [run, p[i]]
        i += run
    return bytes(out)


def test_builtin_transforms_match_their_definitions():
    assert grayscale_transform(bytes([200, 100])) == bytes([100, 50])
    assert blur_transform(bytes([0, 0, 0])) == bytes([0, 0, 0])
    payload = bytes([7, 7, 7, 9, 1]) * 60
    assert grayscale_transform(payload) == oracle_gray(payload)
    assert blur_transform(payload) == oracle_blur(payload)
    assert rle_compress(payload) == oracle_rle(payload)
    assert rle_compress(b"\x05" * 600) == bytes([255, 5, 255, 5, 90, 5])


# run-heavy payloads: a few byte values, each repeated up to 300 times
_RUNS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 300)), max_size=20) \
    .map(lambda runs: b"".join(bytes([value]) * count for value, count in runs))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=600), _RUNS))
def test_transforms_match_oracles_on_arbitrary_bytes(payload):
    assert grayscale_transform(payload) == oracle_gray(payload)
    assert blur_transform(payload) == oracle_blur(payload)
    assert rle_compress(payload) == oracle_rle(payload)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4095, 4096, 4097, 8193])
def test_blur_small_payloads_and_window_edges(length):
    payload = bytes((i * 131 + i // 7) % 256 for i in range(length))
    assert blur_transform(payload) == oracle_blur(payload)


def test_blur_extreme_values():
    payload = bytes([255, 255, 255, 0, 255, 0, 0, 254, 255]) * 1000
    assert blur_transform(payload) == oracle_blur(payload)
    assert blur_transform(b"\xff") == b"\xff"


@pytest.mark.parametrize("run", [254, 255, 256, 257, 510, 511])
def test_rle_runs_around_the_count_cap(run):
    payload = b"\x01\x02" + b"\x09" * run + b"\x03"
    assert rle_compress(payload) == oracle_rle(payload)


def test_rle_all_singletons():
    payload = bytes(range(256)) * 3
    assert rle_compress(payload) == bytes(b for v in payload for b in (1, v))


# -- instantiate -----------------------------------------------------------------

def test_image_pipeline_instantiation_shape(load_fixture):
    flow = instantiate(load_fixture("image_pipeline.yaml"))
    assert sorted(flow.blocks) == [
        "ConsMinIO_0", "InvokeImageFaaSFunction_0", "InvokeLambda_0",
        "InvokeLambda_1", "PubGCS_0", "PubsAzureBlob_0"]
    assert len(flow.queues) == 5


def test_empty_topology_has_no_stages():
    from toscaflow.model import ServiceTemplate

    flow = instantiate(ServiceTemplate())
    assert flow.blocks == {}
    assert flow.run_until(5)["per_block"] == {}


def test_shell_command_is_unsupported():
    stack, nifi = b.nifi_stack()
    aws = b.node("AWS", cat.AWS_PLATFORM)
    task = b.node("Shell", b.STA + "AWSShellCommand",
                  props={"name": "t", "command": "ls", "cred_file_path": "c"},
                  reqs=[("host", "AWS")])
    with pytest.raises(UnsupportedTypeError):
        instantiate(b.template(*stack, aws, task))


def test_pipeline_without_scheduling_properties_is_unsupported_not_a_cron_error():
    # neither schedulingStrategy nor schedulingPeriodCRON: R6 reads no cron
    # here, and neither may the simulator
    from toscaflow.model import ServiceTemplate, TypeDefinition

    block = TypeDefinition("my.Block", "node",
                           derived_from="radon.nodes.abstract.DataPipeline")
    template = ServiceTemplate(user_types=[block],
                               node_templates={"B": b.node("B", "my.Block")})
    assert verify(template) == (template, [])
    with pytest.raises(UnsupportedTypeError) as error:
        instantiate(template)
    assert str(error.value) == \
        "pipeline node 'B' of type 'my.Block' has no simulation behaviour"


# -- end to end ---------------------------------------------------------------------

def test_image_pipeline_end_to_end(load_fixture):
    template = load_fixture("image_pipeline.yaml")
    _, diags = verify(template)
    assert diags == []
    flow = instantiate(template)
    payloads = {f"img{i}": bytes([i * 3 % 256, 250, 0, 17, i % 256])
                for i in range(3)}
    for i, (key, payload) in enumerate(sorted(payloads.items())):
        flow.schedule_injection(i + 1, "minio", "firstbucket", key, payload)
    flow.run_until(50)

    gcs = flow.stores[("gcs", "radongcs")]
    azure = flow.stores[("azure", "blurredcontainer")]
    assert sorted(gcs) == sorted(payloads)
    assert sorted(azure) == sorted(payloads)
    for key, original in payloads.items():
        assert gcs[key] == oracle_blur(oracle_gray(original))
        assert azure[key] == oracle_rle(oracle_blur(oracle_gray(original)))

    for item in flow.delivered_items:
        blocks = item.blocks
        assert blocks[:3] == ["ConsMinIO_0", "InvokeLambda_0", "InvokeLambda_1"]
        assert blocks[3:] in (["PubGCS_0"],
                              ["InvokeImageFaaSFunction_0", "PubsAzureBlob_0"])
        ticks = [t for _, t in item.trail]
        assert ticks == sorted(ticks)
    assert flow.error_count == 0


def test_event_driven_chain_is_same_tick(load_fixture):
    template = load_fixture("image_pipeline.yaml")
    flow = instantiate(template)
    flow.schedule_injection(3, "minio", "firstbucket", "k", b"\x01\x02")
    flow.run_until(3)
    delivered_ticks = {tick for item in flow.delivered_items
                       for _, tick in item.trail}
    assert delivered_ticks == {3}
    assert len(flow.delivered_items) == 2  # gcs + azure fan-out


def _two_stage(strategy="EVENT_DRIVEN", cron="* * * * * ?"):
    stack, nifi = b.nifi_stack()
    source = b.node("Src", b.SRC + "ConsMinIO",
                    props={"name": "s", "BucketName": "in",
                           "cred_file_path": "c", "MinIO_Endpoint": "e",
                           "schedulingStrategy": strategy,
                           "schedulingPeriodCRON": cron},
                    reqs=[("host", nifi), ("connectToPipeline", "Dst")])
    dest = b.node("Dst", b.DST + "PubsMinIO",
                  props={"name": "d", "BucketName": "out",
                         "cred_file_path": "c", "MinIO_Endpoint": "e"},
                  reqs=[("host", nifi)])
    return b.template(*stack, source, dest)


def test_cron_stage_delays_to_next_match():
    template = _two_stage(strategy="CRON_DRIVEN", cron="0 * * * * ?")
    _, diags = verify(template)
    assert diags == []
    flow = instantiate(template)
    flow.schedule_injection(3, "minio", "in", "k", b"\x09")
    flow.run_until(90)
    assert len(flow.delivered_items) == 1
    assert flow.delivered_items[0].trail == [("Src", 60), ("Dst", 60)]


def test_event_stage_departs_at_injection_tick():
    flow = instantiate(_two_stage())
    flow.schedule_injection(3, "minio", "in", "k", b"\x09")
    flow.run_until(4)
    assert flow.delivered_items[0].trail == [("Src", 3), ("Dst", 3)]


def test_overwrite_same_key_consumed_twice():
    flow = instantiate(_two_stage())
    flow.schedule_injection(1, "minio", "in", "k", b"\x01")
    flow.schedule_injection(2, "minio", "in", "k", b"\x02")
    flow.run_until(5)
    assert flow.blocks["Src"].consumed == 2
    assert flow.stores[("minio", "out")]["k"] == b"\x02"


def test_put_to_unreferenced_bucket_is_stored_quietly():
    flow = instantiate(_two_stage())
    flow.put_object("s3", "elsewhere", "k", b"\x01")
    flow.run_until(3)
    assert flow.stores[("s3", "elsewhere")]["k"] == b"\x01"
    assert flow.blocks["Src"].consumed == 0


def test_unregistered_function_counts_errors():
    stack, nifi = b.nifi_stack()
    source = b.node("Src", b.SRC + "ConsMinIO",
                    props={"name": "s", "BucketName": "in",
                           "cred_file_path": "c", "MinIO_Endpoint": "e"},
                    reqs=[("host", nifi), ("connectToPipeline", "Fn")])
    fn = b.node("Fn", b.PRC + "InvokeLambda",
                props={"name": "f", "cred_file_path": "c",
                       "function_name": "missing-function", "region": "r"},
                reqs=[("host", nifi), ("ConnectToPipeline", "Dst")])
    dest = b.node("Dst", b.DST + "PubsMinIO",
                  props={"name": "d", "BucketName": "out",
                         "cred_file_path": "c", "MinIO_Endpoint": "e"},
                  reqs=[("host", nifi)])
    flow = instantiate(b.template(*stack, source, fn, dest))
    flow.put_object("minio", "in", "k", b"\x01")
    metrics = flow.run_until(3)
    assert metrics["per_block"]["Fn"]["errors"] == 1
    assert flow.error_items[0].blocks == ["Src", "Fn"]
    assert metrics["stores"].get("minio/out") is None


def _connects_to(template):
    return {(e.source, e.target) for e in build_graph(template).edges
            if e.kind == CONNECTS_TO}


def test_connection_to_a_compute_node_gets_no_queue():
    template = _two_stage()
    template.node_templates["Src"].requirement_assignments.append(
        RequirementAssignment("connectToPipeline", "VM_0"))
    flow = instantiate(template)
    assert set(flow.queues) == _connects_to(template) == {("Src", "Dst")}


def test_queues_are_the_planner_connections(load_fixture):
    templates = [load_fixture(name) for name in (
        "cyclic.yaml", "duplicate_connection.yaml", "encrypt_mismatch.yaml",
        "image_pipeline.yaml", "s3_to_gcs.yaml")]
    for seed in range(300):
        template = topology_gen.random_topology(seed)
        if not [d for d in verify(template)[1] if d.severity == ERROR]:
            templates.append(template)
    assert len(templates) == 69
    for template in templates:
        assert set(instantiate(template).queues) == _connects_to(template)


def test_self_referencing_script_path_is_an_unregistered_function():
    template = _two_stage()
    fn = b.node("Fn", b.PRC + "ExecutePython",
                props={"name": "f",
                       "script_path": {"get_property": ["SELF", "script_path"]}},
                reqs=[("host", "Nifi_0"), ("ConnectToPipeline", "Dst")])
    template.node_templates["Fn"] = fn
    template.node_templates["Src"].requirement_assignments[1].target = "Fn"
    flow = instantiate(template)
    flow.put_object("minio", "in", "k", b"\x01")
    assert flow.run_until(1)["per_block"]["Fn"]["errors"] == 1
    assert flow.error_items[0].attributes["error"] == "no function registered as ''"


def test_register_function_duplicate_rejected(load_fixture):
    flow = instantiate(load_fixture("image_pipeline.yaml"))
    flow.register_function("my-fn", bytes)
    with pytest.raises(DuplicateFunctionError):
        flow.register_function("img-blur-nifi", bytes)
    with pytest.raises(ValueError):
        flow.register_function("", bytes)


def test_encrypt_decrypt_round_trip_through_flow(load_fixture):
    template = load_fixture("encrypt_mismatch.yaml")
    fixed, _ = verify(template, fix=True, seed=5)
    flow = instantiate(fixed)
    payload = bytes(range(64))
    flow.schedule_injection(1, "minio", "inbox", "k", payload)
    flow.run_until(3)
    assert flow.stores[("minio", "outbox")]["k"] == payload


def test_mismatched_cipher_keys_garble_payload(load_fixture):
    template = load_fixture("encrypt_mismatch.yaml")  # alpha vs beta, unfixed
    flow = instantiate(template)
    payload = bytes(range(16))
    flow.schedule_injection(1, "minio", "inbox", "k", payload)
    flow.run_until(3)
    assert flow.stores[("minio", "outbox")]["k"] != payload


def test_a_non_string_passphrase_keys_the_cipher_as_its_text(load_fixture):
    template = load_fixture("encrypt_mismatch.yaml")
    template.node_templates["Encrypt_0"].property_values["passphrase"] = 7
    template.node_templates["Decrypt_0"].property_values["passphrase"] = "7"
    flow = instantiate(template)
    payload = bytes(range(16))
    flow.schedule_injection(1, "minio", "inbox", "k", payload)
    flow.run_until(3)
    assert flow.stores[("minio", "outbox")]["k"] == payload


def test_router_forwards_by_attribute_match():
    stack, nifi = b.nifi_stack()
    source = b.node("Src", b.SRC + "ConsMinIO",
                    props={"name": "s", "BucketName": "in",
                           "cred_file_path": "c", "MinIO_Endpoint": "e"},
                    reqs=[("host", nifi), ("connectToPipeline", "Router")])
    router = b.node("Router", b.PRC + "RouteToRemote",
                    props={"name": "r",
                           "route_predicate": "DstA:key=a;DstB:key=b"},
                    reqs=[("host", nifi),
                          ("ConnectToPipeline", "DstA"),
                          ("ConnectToPipeline", "DstB")])
    dest_a = b.node("DstA", b.DST + "PubsMinIO",
                    props={"name": "da", "BucketName": "out-a",
                           "cred_file_path": "c", "MinIO_Endpoint": "e"},
                    reqs=[("host", nifi)])
    dest_b = b.node("DstB", b.DST + "PubsMinIO",
                    props={"name": "db", "BucketName": "out-b",
                           "cred_file_path": "c", "MinIO_Endpoint": "e"},
                    reqs=[("host", nifi)])
    flow = instantiate(b.template(*stack, source, router, dest_a, dest_b))
    flow.put_object("minio", "in", "a", b"\x0a")
    flow.put_object("minio", "in", "b", b"\x0b")
    flow.put_object("minio", "in", "c", b"\x0c")
    flow.run_until(2)
    assert dict(flow.stores[("minio", "out-a")]) == {"a": b"\x0a"}
    assert dict(flow.stores[("minio", "out-b")]) == {"b": b"\x0b"}
    assert flow.blocks["Router"].errors == 1  # key=c matched nothing


def test_standalone_copy_waits_for_cron():
    aws = b.node("AWS", cat.AWS_PLATFORM)
    copy_node = b.node("Copy", b.STA + "AWSCopyS3ToS3",
                       props={"name": "c", "SourceBucketName": "src",
                              "DestinationBucketName": "dst",
                              "cred_file_path": "c", "LogBucketName": "logs",
                              "schedulingPeriodCRON": "0 * * * * ?"},
                       reqs=[("host", "AWS")])
    flow = instantiate(b.template(aws, copy_node))
    flow.schedule_injection(2, "s3", "src", "k1", b"\x01")
    flow.run_until(59)
    assert ("s3", "dst") not in flow.stores
    flow.run_until(60)
    assert flow.stores[("s3", "dst")]["k1"] == b"\x01"
    assert flow.delivered_items[0].trail == [("Copy", 60)]


def test_conservation_and_determinism(load_fixture):
    def run():
        flow = instantiate(load_fixture("image_pipeline.yaml"))
        for i in range(4):
            flow.schedule_injection(i, "minio", "firstbucket", f"k{i}",
                                    bytes([i]) * 8)
        while flow.clock <= 30:
            flow.tick()
            flow.audit()
        return flow

    first, second = run(), run()
    assert first.metrics() == second.metrics()
    assert first.stores == second.stores


def test_schedule_injection_rejects_past_ticks():
    flow = instantiate(_two_stage())
    flow.run_until(5)
    with pytest.raises(ValueError):
        flow.schedule_injection(2, "minio", "in", "k", b"\x01")


def test_tick_reports_events():
    flow = instantiate(_two_stage())
    flow.put_object("minio", "in", "k", b"\x01")
    events = flow.tick()
    assert ("Src", "consume", "k") in events
    assert ("Src", "emit", "Dst") in events
    assert ("Dst", "deliver", "k") in events


def test_metrics_json_shape(load_fixture):
    flow = instantiate(load_fixture("image_pipeline.yaml"))
    flow.schedule_injection(1, "minio", "firstbucket", "k", b"\x01")
    metrics = flow.run_until(10)
    encoded = json.loads(json.dumps(metrics))
    assert encoded["final_tick"] == 10
    assert encoded["per_block"]["ConsMinIO_0"] == {
        "consumed": 1, "emitted": 1, "errors": 0}
    assert encoded["stores"]["gcs/radongcs"] == 1
    assert encoded["stores"]["azure/blurredcontainer"] == 1


# -- schedule parsing ------------------------------------------------------------

def test_parse_schedule_hex_and_file(tmp_path):
    blob = tmp_path / "payload.bin"
    blob.write_bytes(b"\xff\x00")
    text = f"""
# tick provider bucket key payload
0 minio firstbucket img1 deadbeef
2 s3 other img2 {blob.name}
"""
    entries = parse_schedule(text, base_dir=str(tmp_path))
    assert entries == [
        (0, "minio", "firstbucket", "img1", bytes.fromhex("deadbeef")),
        (2, "s3", "other", "img2", b"\xff\x00"),
    ]


@pytest.mark.parametrize("line", [
    "x minio b k 00",
    "-1 minio b k 00",
    "1 minio b k",
    "1 minio b k nosuchfile.bin",
])
def test_parse_schedule_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_schedule(line)


# -- the engine, pinned event by event -----------------------------------------------

def _engine_record(flow, t_end):
    """Every tick's events, every delivered and errored trail, the stores."""
    def trail(item):
        return " ".join(f"{block}@{tick}" for block, tick in item.trail)

    ticks = {}
    while flow.clock <= t_end:
        now = flow.clock
        events = [f"{stage} {kind} {arg!r}" for stage, kind, arg in flow.tick()]
        if events:
            ticks[now] = events
    return {
        "ticks": ticks,
        "delivered": [trail(item) for item in flow.delivered_items],
        "errored": [(trail(item), item.attributes["error"])
                    for item in flow.error_items],
        "stores": {f"{provider}/{bucket}": {key: payload.hex()
                                            for key, payload in sorted(objects.items())}
                   for (provider, bucket), objects in sorted(flow.stores.items())},
    }


def test_engine_events_and_trails_on_the_image_pipeline(load_fixture):
    flow = instantiate(load_fixture("image_pipeline.yaml"))
    # the Azure branch has no function until tick 4: the lookup happens per item
    compress = flow.functions.pop("azure-compress")
    for tick, key in [(0, "a"), (2, "b"), (2, "c"), (5, "a")]:
        flow.schedule_injection(tick, "minio", "firstbucket", key, bytes([tick, 9, 9]))
    early = _engine_record(flow, 3)
    flow.register_function("azure-compress", compress)
    late = _engine_record(flow, 7)

    lambdas = ["ConsMinIO_0 emit 'InvokeLambda_0'",
               "InvokeLambda_0 emit 'InvokeLambda_1'",
               "InvokeLambda_1 emit 'InvokeImageFaaSFunction_0'",
               "InvokeLambda_1 emit 'PubGCS_0'"]
    assert early["ticks"] == {
        0: ["ConsMinIO_0 consume 'a'", *lambdas,
            "InvokeImageFaaSFunction_0 error \"no function registered as "
            "'azure-compress'\"",
            "PubGCS_0 deliver 'a'"],
        2: ["ConsMinIO_0 consume 'b'", lambdas[0],
            "ConsMinIO_0 consume 'c'", lambdas[0],
            lambdas[1], lambdas[1], *lambdas[2:], *lambdas[2:],
            "InvokeImageFaaSFunction_0 error \"no function registered as "
            "'azure-compress'\"",
            "InvokeImageFaaSFunction_0 error \"no function registered as "
            "'azure-compress'\"",
            "PubGCS_0 deliver 'b'", "PubGCS_0 deliver 'c'"],
    }
    assert late["ticks"] == {
        5: ["ConsMinIO_0 consume 'a'", *lambdas,
            "InvokeImageFaaSFunction_0 emit 'PubsAzureBlob_0'",
            "PubGCS_0 deliver 'a'", "PubsAzureBlob_0 deliver 'a'"],
    }
    gcs = "ConsMinIO_0@{0} InvokeLambda_0@{0} InvokeLambda_1@{0} PubGCS_0@{0}"
    azure = ("ConsMinIO_0@{0} InvokeLambda_0@{0} InvokeLambda_1@{0} "
             "InvokeImageFaaSFunction_0@{0}")
    assert late["delivered"] == [gcs.format(0), gcs.format(2), gcs.format(2),
                                 gcs.format(5), azure.format(5) + " PubsAzureBlob_0@5"]
    assert late["errored"] == [
        (azure.format(tick), "no function registered as 'azure-compress'")
        for tick in (0, 2, 2)]
    assert late["stores"] == {
        "azure/blurredcontainer": {"a": "010201030104"},
        "gcs/radongcs": {"a": "020304", "b": "020304", "c": "020304"},
        "minio/firstbucket": {"a": "050909", "b": "020909", "c": "020909"},
    }


def _store_relay():
    """raw -(cron copy)-> staged -(cron consumer)-> Pub -> out"""
    stack, nifi = b.nifi_stack()
    aws = b.node("AWS", cat.AWS_PLATFORM)
    copy_node = b.node("Copy", b.STA + "AWSCopyS3ToS3",
                       props={"name": "c", "SourceBucketName": "raw",
                              "DestinationBucketName": "staged",
                              "cred_file_path": "c", "LogBucketName": "logs",
                              "schedulingPeriodCRON": "0 * * * * ?"},
                       reqs=[("host", "AWS")])
    consumer = b.node("Cons", b.SRC + "ConsS3Bucket",
                      props={"name": "s", "BucketName": "staged",
                             "cred_file_path": "c", "Region": "r",
                             "schedulingStrategy": "CRON_DRIVEN",
                             "schedulingPeriodCRON": "30 * * * * ?"},
                      reqs=[("host", nifi), ("connectToPipeline", "Pub")])
    publisher = b.node("Pub", b.DST + "PubsMinIO",
                       props={"name": "d", "BucketName": "out",
                              "cred_file_path": "c", "MinIO_Endpoint": "e"},
                       reqs=[("host", nifi)])
    return b.template(*stack, aws, copy_node, consumer, publisher)


def test_engine_events_and_trails_on_a_store_relay():
    template = _store_relay()
    assert verify(template)[1] == []
    flow = instantiate(template)
    # an empty key is copied as it is, and published as item-<born>
    flow.put_object("s3", "raw", "", b"\x00")
    flow.schedule_injection(5, "s3", "raw", "a", b"\x01")
    flow.schedule_injection(61, "s3", "raw", "b", b"\x02")
    flow.schedule_injection(61, "s3", "raw", "", b"\x03")
    record = _engine_record(flow, 150)

    assert record["ticks"] == {
        0: ["Copy deliver ''"],
        30: ["Cons consume ''", "Cons emit 'Pub'", "Pub deliver 'item-2'"],
        60: ["Copy deliver 'a'"],
        90: ["Cons consume 'a'", "Cons emit 'Pub'", "Pub deliver 'a'"],
        120: ["Copy deliver 'b'", "Copy deliver ''"],
        150: ["Cons consume 'b'", "Cons emit 'Pub'",
              "Cons consume ''", "Cons emit 'Pub'",
              "Pub deliver 'b'", "Pub deliver 'item-8'"],
    }
    assert record["delivered"] == [
        "Copy@0", "Cons@30 Pub@30", "Copy@60", "Cons@90 Pub@90",
        "Copy@120", "Copy@120", "Cons@150 Pub@150", "Cons@150 Pub@150"]
    assert record["errored"] == []
    assert record["stores"] == {
        "minio/out": {"a": "01", "b": "02", "item-2": "00", "item-8": "03"},
        "s3/raw": {"": "03", "a": "01", "b": "02"},
        "s3/staged": {"": "03", "a": "01", "b": "02"},
    }


def test_copy_into_its_own_bucket_copies_once_per_firing():
    aws = b.node("AWS", cat.AWS_PLATFORM)
    copy_node = b.node("Copy", b.STA + "AWSCopyS3ToS3",
                       props={"name": "c", "SourceBucketName": "same",
                              "DestinationBucketName": "same",
                              "cred_file_path": "c", "LogBucketName": "logs",
                              "schedulingPeriodCRON": "0 * * * * ?"},
                       reqs=[("host", "AWS")])
    template = b.template(aws, copy_node)
    assert verify(template)[1] == []
    flow = instantiate(template)
    flow.schedule_injection(2, "s3", "same", "k", b"\x01")
    metrics = flow.run_until(60)
    assert [item.trail for item in flow.delivered_items] == [[("Copy", 60)]]
    assert metrics["per_block"]["Copy"] == {"consumed": 1, "emitted": 1, "errors": 0}
    assert flow.stores[("s3", "same")] == {"k": b"\x01"}
    flow.run_until(120)
    assert flow.born == len(flow.delivered_items) == 2


# -- skipping ticks at which nothing can happen -------------------------------------

_CRONS = ["* * * * * ?", "*/7 * * * * ?", "0,30 * * * * ?", "15 * * * * ?",
          "0 */2 * * * ?", "59 59 23 * * ?"]
_EVENT_OR_CRON = st.one_of(st.none(), st.sampled_from(_CRONS))
_BUCKETS = ["in", "mid", "side", "out"]


def _scheduled(props, cron):
    """`props` with an event-driven schedule for None, else the cron."""
    return dict(props, schedulingStrategy="EVENT_DRIVEN") if cron is None else \
        dict(props, schedulingStrategy="CRON_DRIVEN", schedulingPeriodCRON=cron)


def _relay_mix(crons, copy_target, loop_bucket):
    """in -(Lead -> Fn -> Tail)-> mid -(Cons -> Pub)-> out, a copy of `in`
    into `copy_target` and a copy of `loop_bucket` into itself.

    Fn is CRON-driven and fed by a queue, and Cons fires before Tail in
    every tick although Tail writes the bucket Cons reads.
    """
    stack, nifi = b.nifi_stack()
    aws = b.node("AWS", cat.AWS_PLATFORM)
    s3 = {"cred_file_path": "c", "Region": "r"}

    def block(name, kind, props, cron, downstream=None):
        reqs = [("host", nifi)] + ([("connectToPipeline", downstream)]
                                   if downstream else [])
        return b.node(name, kind, props=_scheduled(dict(props, name=name), cron),
                      reqs=reqs)

    def copy(name, source, target, cron):
        return b.node(name, b.STA + "AWSCopyS3ToS3",
                      props={"name": name, "SourceBucketName": source,
                             "DestinationBucketName": target,
                             "cred_file_path": "c", "LogBucketName": "logs",
                             "schedulingPeriodCRON": cron},
                      reqs=[("host", "AWS")])

    return b.template(
        *stack, aws,
        block("Cons", b.SRC + "ConsS3Bucket", dict(s3, BucketName="mid"),
              crons["Cons"], "Pub"),
        block("Pub", b.DST + "PubsS3Bucket", dict(s3, BucketName="out"),
              crons["Pub"]),
        block("Lead", b.SRC + "ConsS3Bucket", dict(s3, BucketName="in"),
              crons["Lead"], "Fn"),
        b.node("Fn", b.PRC + "InvokeLambda",
               props=_scheduled({"name": "Fn", "cred_file_path": "c",
                                 "function_name": "fn", "region": "r"},
                                crons["Fn"]),
               reqs=[("host", nifi), ("ConnectToPipeline", "Tail")]),
        block("Tail", b.DST + "PubsS3Bucket", dict(s3, BucketName="mid"),
              crons["Tail"]),
        copy("Copy", "in", copy_target, crons["Copy"]),
        copy("Loop", loop_bucket, loop_bucket, crons["Loop"]),
    )


def _observable(flow):
    def items(kept):
        return [(item.trail, item.attributes, item.payload) for item in kept]

    return {"metrics": flow.metrics(), "stores": flow.stores,
            "store_events": flow.store_events,
            "delivered": items(flow.delivered_items),
            "errored": items(flow.error_items), "clock": flow.clock,
            "events": flow.events_this_tick, "born": flow.born,
            "dropped": flow.dropped}


_WRITES = st.lists(st.tuples(st.integers(0, 90), st.sampled_from(_BUCKETS),
                             st.sampled_from(["k0", "k1", ""]),
                             st.binary(min_size=1, max_size=3)), max_size=6)


@settings(max_examples=120, deadline=None)
@given(crons=st.fixed_dictionaries({
           "Cons": _EVENT_OR_CRON, "Pub": _EVENT_OR_CRON, "Lead": _EVENT_OR_CRON,
           "Tail": _EVENT_OR_CRON, "Fn": st.sampled_from(_CRONS),
           "Copy": st.sampled_from(_CRONS), "Loop": st.sampled_from(_CRONS)}),
       copy_target=st.sampled_from(["mid", "side"]),
       loop_bucket=st.sampled_from(["side", "out"]),
       first=_WRITES, between=_WRITES, later=_WRITES,
       register=st.booleans(), t_first=st.integers(0, 60),
       t_last=st.integers(0, 130))
def test_run_until_equals_ticking_one_tick_at_a_time(
        crons, copy_target, loop_bucket, first, between, later, register,
        t_first, t_last):
    template = _relay_mix(crons, copy_target, loop_bucket)
    assert not [d for d in verify(template)[1] if d.severity == ERROR]

    def run(advance):
        flow = instantiate(template)
        for tick, bucket, key, payload in first:
            flow.schedule_injection(tick, "s3", bucket, key, payload)
        advance(flow, t_first)
        for _, bucket, key, payload in between:
            flow.put_object("s3", bucket, key, payload)
        if register:
            flow.register_function("fn", lambda payload: payload[::-1])
        for tick, bucket, key, payload in later:
            flow.schedule_injection(flow.clock + tick, "s3", bucket, key, payload)
        advance(flow, t_first + t_last)
        return _observable(flow)

    def tick_by_tick(flow, t_end):
        while flow.clock <= t_end:
            flow.tick()

    assert run(Flow.run_until) == run(tick_by_tick)


def test_a_write_nothing_reads_does_not_stop_the_jump():
    flow = instantiate(_two_stage())
    processed = []
    tick = flow.tick
    flow.tick = lambda: processed.append(flow.clock) or tick()
    flow.put_object("s3", "elsewhere", "k", b"\x01")
    flow.schedule_injection(500, "s3", "elsewhere", "j", b"\x02")
    flow.schedule_injection(700, "minio", "in", "k", b"\x03")
    flow.run_until(10_000)
    assert processed == [500, 700]
    assert flow.clock == 10_001 and flow.events_this_tick == []
    assert [item.trail for item in flow.delivered_items] == [[("Src", 700), ("Dst", 700)]]


# -- firing order -------------------------------------------------------------------

def _firing_order_by_resorting(names, out_edges):
    """The firing order as computed before it used a heap: pop the first
    ready name, re-sort after every step."""
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
    order.extend(sorted(set(names) - set(order)))
    return order


def test_firing_order_is_the_resorting_order(load_fixture):
    templates = [load_fixture(name) for name in (
        "cyclic.yaml", "duplicate_connection.yaml", "encrypt_mismatch.yaml",
        "image_pipeline.yaml", "s3_to_gcs.yaml")]
    templates += [topology_gen.random_topology(seed) for seed in range(150)]
    templates += [topology_gen.random_clean_dag(seed) for seed in range(150)]
    for template in templates:
        topo = Topology(template)
        out_edges = {}
        for source, target in topo.pairs:
            out_edges.setdefault(source, []).append(target)
        names = list(topo.pipelines)
        order = lexicographic_order(names, out_edges)
        assert order + sorted(set(names) - set(order)) \
            == _firing_order_by_resorting(names, out_edges)


def test_instantiate_fires_in_the_resorting_order(load_fixture):
    templates = [load_fixture(name) for name in (
        "cyclic.yaml", "encrypt_mismatch.yaml", "image_pipeline.yaml",
        "s3_to_gcs.yaml")]
    templates += [topology_gen.random_clean_dag(seed) for seed in range(60)]
    for template in templates:
        topo = Topology(template)
        out_edges = {name: [] for name in topo.pipelines}
        for source, target in topo.pairs:
            out_edges[source].append(target)
        assert topo.successors == out_edges
        flow = instantiate(template)
        assert flow._firing_order \
            == _firing_order_by_resorting(topo.pipelines, out_edges)
