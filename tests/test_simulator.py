import gc
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders as b
import topology_gen
from toscaflow import catalog as cat
from toscaflow.errors import (
    DependencyCycleError,
    DuplicateFunctionError,
    ScheduleError,
    ToscaflowError,
    UnsupportedTypeError,
)
from toscaflow.model import RequirementAssignment
from toscaflow.planner import CONNECTS_TO, build_graph
from toscaflow.topology import Topology, lexicographic_order
from toscaflow.simulator import (
    Flow,
    _Stage,
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


def test_blur_every_window_over_low_and_high_bytes():
    # thirds and remainders at both ends of their ranges, in every order
    alphabet = [*range(6), *range(250, 256)]
    for window in itertools.product(alphabet, repeat=3):
        payload = bytes(window)
        assert blur_transform(payload) == oracle_blur(payload), window


@pytest.mark.parametrize("payload", [b"\xfe" * 999, b"\xff" * 1000, b"\xfe\xff" * 500])
def test_blur_payloads_of_the_largest_thirds_and_remainders(payload):
    assert blur_transform(payload) == oracle_blur(payload)


def test_blur_payload_of_300_kib():
    payload = random.Random(300).randbytes(300 * 1024)
    assert blur_transform(payload) == oracle_blur(payload)


@pytest.mark.parametrize("run", [254, 255, 256, 257, 510, 511])
def test_rle_runs_around_the_count_cap(run):
    payload = b"\x01\x02" + b"\x09" * run + b"\x03"
    assert rle_compress(payload) == oracle_rle(payload)


def test_rle_all_singletons():
    payload = bytes(range(256)) * 3
    assert rle_compress(payload) == bytes(b for v in payload for b in (1, v))


def test_rle_runs_of_every_length_between_two_distinct_bytes():
    for run in range(1, 601):
        payload = b"\x01" + b"\x02" * run + b"\x03"
        assert rle_compress(payload) == oracle_rle(payload), run


@pytest.mark.parametrize("run", [1, 2, 254, 255, 256, 509, 510, 511, 600, 765, 766])
def test_rle_a_single_run_and_runs_at_both_ends(run):
    for payload in (b"\x02" * run, b"\x02" * run + b"\x03" + b"\x04" * run):
        assert rle_compress(payload) == oracle_rle(payload)


def test_rle_matches_its_oracle_on_the_blurred_image_stream_payloads(bench):
    workloads, _ = bench
    for tick, *_, payload in parse_schedule(workloads.image_stream(1).schedule):
        blurred = blur_transform(grayscale_transform(payload))
        assert rle_compress(blurred) == oracle_rle(blurred), tick


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


def test_an_unsupported_block_wins_over_a_connection_cycle(load_fixture):
    """Every stage is built before a cycle is refused, so a block with no
    behaviour raises its own error even after the blocks on the cycle."""
    template = load_fixture("cyclic.yaml")
    for node in (b.node("AWS", cat.AWS_PLATFORM),
                 b.node("Shell", b.STA + "AWSShellCommand",
                        props={"name": "t", "command": "ls", "cred_file_path": "c"},
                        reqs=[("host", "AWS")])):
        template.node_templates[node.name] = node
    assert Topology(template).pipelines == ["Exec_A", "Exec_B", "Shell"]
    with pytest.raises(UnsupportedTypeError) as error:
        instantiate(template)
    assert str(error.value) == ("pipeline node 'Shell' of type "
                                f"'{b.STA}AWSShellCommand' has no simulation behaviour")


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


@pytest.mark.parametrize("function, reason", [
    (lambda payload: None, "returned NoneType, not bytes"),
    (lambda payload: payload.hex(), "returned str, not bytes"),
    (lambda payload: len(payload) / 0, "raised ZeroDivisionError: division by zero"),
])
def test_a_function_that_raises_or_returns_no_bytes_diverts_the_item(
        load_fixture, function, reason):
    flow = instantiate(load_fixture("image_pipeline.yaml"))
    flow.functions["img-grayscale-nifi"] = function
    flow.put_object("minio", "firstbucket", "a", b"\x01\x02")
    metrics = flow.run_until(3)
    assert [(item.blocks, item.attributes["error"]) for item in flow.error_items] \
        == [(["ConsMinIO_0", "InvokeLambda_0"],
             f"function 'img-grayscale-nifi' {reason}")]
    assert metrics["per_block"]["InvokeLambda_0"]["errors"] == 1
    assert flow.delivered_items == []
    assert metrics["stores"] == {"minio/firstbucket": 1}


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
    with pytest.raises(DependencyCycleError):
        instantiate(load_fixture("cyclic.yaml"))
    templates = [load_fixture(name) for name in (
        "duplicate_connection.yaml", "encrypt_mismatch.yaml",
        "image_pipeline.yaml", "s3_to_gcs.yaml")]
    for seed in range(300):
        template = topology_gen.random_topology(seed)
        if not [d for d in verify(template)[1] if d.severity == ERROR]:
            templates.append(template)
    assert len(templates) == 68
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
    with pytest.raises(ValueError) as raised:
        flow.register_function("", bytes)
    assert isinstance(raised.value, ToscaflowError)


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


def test_a_handler_that_loses_an_item_breaks_the_conservation_check(load_fixture):
    flow = instantiate(load_fixture("image_pipeline.yaml"))
    stage = flow.blocks["InvokeLambda_0"]
    handle = stage.handle
    stage.handle = lambda stage, items, tick: handle(stage, items[1:], tick)
    flow.put_object("minio", "firstbucket", "a", b"\x01\x02")
    flow.put_object("minio", "firstbucket", "b", b"\x03\x04")
    # two objects, one lost, and the fork InvokeLambda_1 makes of the other
    with pytest.raises(RuntimeError,
                       match=r"^conservation violated: born=3 accounted=2$"):
        flow.tick()


class _Halt(BaseException):
    """Raised by a registered function; `_transform` lets it through."""


@pytest.mark.parametrize("halt", [False, True])
@pytest.mark.parametrize("collecting", [True, False])
def test_run_until_pauses_the_collector_and_leaves_it_as_it_found_it(
        load_fixture, collecting, halt):
    seen = []  # whether the collector ran while the function ran

    def function(payload):
        seen.append(gc.isenabled())
        if halt:
            raise _Halt
        return payload

    flow = instantiate(load_fixture("image_pipeline.yaml"))
    flow.functions["img-grayscale-nifi"] = function
    flow.put_object("minio", "firstbucket", "a", b"\x01\x02")
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if halt:
            with pytest.raises(_Halt):
                flow.run_until(3)
        else:
            flow.run_until(3)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


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


@pytest.mark.parametrize("field, hex_payload", [
    ("DEADBEEF", b"\xde\xad\xbe\xef"),
    ("cafe", b"\xca\xfe"),  # hex, though a file of that name exists
    ("abc", None),  # odd length
    ("0x00", None),
    ("ab;", None),
    ("\uff41\uff42", None),  # fullwidth "ab"
])
def test_a_schedule_payload_is_even_length_hex_or_a_path(tmp_path, field, hex_payload):
    (tmp_path / field).write_bytes(b"file " + field.encode())
    entries = parse_schedule(f"3 minio b k {field}\n", base_dir=str(tmp_path))
    payload = b"file " + field.encode() if hex_payload is None else hex_payload
    assert entries == [(3, "minio", "b", "k", payload)]


@pytest.mark.parametrize("line", [
    "x minio b k 00",
    "+3 minio b k 00",
    "1_0 minio b k 00",
    "\u0663 minio b k 00",  # ARABIC-INDIC DIGIT THREE
    "\uff13 minio b k 00",  # FULLWIDTH DIGIT THREE
    "-1 minio b k 00",
    "1 minio b k",
    "1 minio b k nosuchfile.bin",
])
def test_parse_schedule_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_schedule(line)


@pytest.mark.parametrize("line, message", [
    ("x minio b k 00", "schedule line 1: bad tick 'x'"),
    ("+3 minio b k 00", "schedule line 1: bad tick '+3'"),
    ("1_0 minio b k 00", "schedule line 1: bad tick '1_0'"),
    ("\u0663 minio b k 00", "schedule line 1: bad tick '\u0663'"),
    ("\uff13 minio b k 00", "schedule line 1: bad tick '\uff13'"),
    ("-1 minio b k 00", "schedule line 1: tick must be >= 0"),
    ("1 minio b k", "schedule line 1: expected 5 fields, got 4"),
    ("1 minio b k nosuchfile.bin",
     "schedule line 1: cannot read 'nosuchfile.bin': "),
])
def test_schedule_errors_are_toscaflow_errors(line, message):
    with pytest.raises(ToscaflowError) as excinfo:
        parse_schedule(line)
    assert type(excinfo.value) is ScheduleError
    assert str(excinfo.value).startswith(message)


def test_a_past_injection_is_a_toscaflow_error():
    flow = instantiate(_two_stage())
    flow.run_until(5)
    with pytest.raises(ScheduleError, match=r"^tick 2 is already in the past "
                                            r"\(clock is at 6\)$"):
        flow.schedule_injection(2, "minio", "in", "k", b"\x01")


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


# -- a batch of items in one firing --------------------------------------------------

def _fan_out(middle, middle_cron=None):
    """Src -> `middle` -> DstA, DstB from bucket in; both publishers fire at
    second 30, so what the middle block emits at tick 0 stays queued."""
    stack, nifi = b.nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}

    def publisher(name, bucket):
        return b.node(name, b.DST + "PubsMinIO", reqs=[("host", nifi)], props=_scheduled(
            {"name": name, "BucketName": bucket, **minio}, "30 * * * * ?"))

    name, kind, props = middle
    return b.template(
        *stack,
        b.node("Src", b.SRC + "ConsMinIO", props={"name": "s", "BucketName": "in", **minio},
               reqs=[("host", nifi), ("connectToPipeline", name)]),
        b.node(name, kind, props=_scheduled(dict(props, name=name), middle_cron),
               reqs=[("host", nifi), ("ConnectToPipeline", "DstA"),
                     ("ConnectToPipeline", "DstB")]),
        publisher("DstA", "out-a"), publisher("DstB", "out-b"))


_INVOKE = ("Fn", b.PRC + "InvokeLambda",
           {"cred_file_path": "c", "function_name": "fn", "region": "r"})


def _queued(flow, target, source="Fn"):
    return [(item.attributes["key"], item.payload, item.trail)
            for item in flow.queues[(source, target)]]


def test_one_firing_keeps_each_items_events_in_place():
    """Three objects in one tick: the function raises for the middle one,
    whose error comes between the other two items' emits."""
    template = _fan_out(_INVOKE)
    assert not [d for d in verify(template)[1] if d.severity == ERROR]
    flow = instantiate(template)

    def shout(payload):
        if payload == b"b":
            raise ValueError("no b")
        return payload.upper()

    flow.register_function("fn", shout)
    for key in "abc":
        flow.put_object("minio", "in", key, key.encode())
    assert flow.tick() == [
        ("Src", "consume", "a"), ("Src", "emit", "Fn"),
        ("Src", "consume", "b"), ("Src", "emit", "Fn"),
        ("Src", "consume", "c"), ("Src", "emit", "Fn"),
        ("Fn", "emit", "DstA"), ("Fn", "emit", "DstB"),
        ("Fn", "error", "function 'fn' raised ValueError: no b"),
        ("Fn", "emit", "DstA"), ("Fn", "emit", "DstB"),
    ]
    trail = [("Src", 0), ("Fn", 0)]
    assert flow.queues[("Src", "Fn")] == []
    assert _queued(flow, "DstA") == _queued(flow, "DstB") == [
        ("a", b"A", trail), ("c", b"C", trail)]
    assert [(item.attributes["key"], item.payload, item.trail, item.attributes["error"])
            for item in flow.error_items] == [
        ("b", b"b", trail, "function 'fn' raised ValueError: no b")]
    assert (flow.born, flow.dropped) == (5, 0)  # three objects and two forks
    flow.run_until(30)
    assert flow.stores[("minio", "out-a")] == flow.stores[("minio", "out-b")] \
        == {"a": b"A", "c": b"C"}
    assert flow.metrics()["per_block"]["Fn"] == {"consumed": 3, "emitted": 4,
                                                 "errors": 1}


def test_the_forks_of_one_batch_are_independent_items():
    """Fn fires at second 10 on everything Src queued at tick 0: DstA gets
    the very items Src queued, DstB a fork of each, in write order."""
    flow = instantiate(_fan_out(_INVOKE, middle_cron="10 * * * * ?"))
    flow.register_function("fn", lambda payload: payload)
    keys = ["k3", "k1", "k2", "k0"]
    for key in keys:
        flow.put_object("minio", "in", key, key.encode())
    flow.tick()
    originals = list(flow.queues[("Src", "Fn")])
    flow.run_until(10)
    firsts, forks = flow.queues[("Fn", "DstA")], flow.queues[("Fn", "DstB")]
    assert list(map(id, firsts)) == list(map(id, originals)) and len(firsts) == 4
    assert [item.attributes["key"] for item in forks] == keys
    assert len({id(item) for item in forks + firsts}) == 8
    assert len({id(item.trail) for item in forks + firsts}) == 8
    assert len({id(item.attributes) for item in forks + firsts}) == 8
    assert [(item.payload, item.attributes, item.trail) for item in forks] \
        == [(item.payload, item.attributes, item.trail) for item in firsts]
    forks[1].trail.append(("elsewhere", 11))
    forks[1].attributes["mark"] = "fork"
    assert firsts[1].trail == [("Src", 0), ("Fn", 10)] and "mark" not in firsts[1].attributes
    assert forks[2].trail == [("Src", 0), ("Fn", 10)] and "mark" not in forks[2].attributes
    assert (flow.born, flow.dropped) == (8, 0)


def test_a_reader_with_a_connection_into_it_drains_that_queue_too(monkeypatch):
    """Consumer A reads bucket y and also gets B's items by a connection (a
    shape verify reports as R1): every firing drains its inbox first and
    then its queue, so nothing is stranded and no firing takes nothing."""
    stack, nifi = b.nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}

    def block(name, kind, bucket, downstream=None):
        reqs = [("host", nifi)] + ([("connectToPipeline", downstream)]
                                   if downstream else [])
        return b.node(name, kind, props={"name": name, "BucketName": bucket, **minio},
                      reqs=reqs)

    flow = instantiate(b.template(
        *stack, block("B", b.SRC + "ConsMinIO", "x", "A"),
        block("A", b.SRC + "ConsMinIO", "y", "Pub"), block("Pub", b.DST + "PubsMinIO", "out")))
    fired = []
    fire = _Stage.fire
    monkeypatch.setattr(_Stage, "fire", lambda stage, tick: (
        fired.append((stage.name, tick, sum(map(len, stage.inputs)))), fire(stage, tick)))
    flow.put_object("minio", "x", "k", b"\x01")
    flow.schedule_injection(2, "minio", "x", "k2", b"\x02")
    flow.schedule_injection(2, "minio", "y", "j", b"\x03")
    events = {}
    while flow.clock <= 5:
        now = flow.clock
        if tick_events := flow.tick():
            events[now] = tick_events
        flow.audit()
        assert not any(flow.queues.values())
        assert not any(stage.inbox for stage in flow.blocks.values())
    assert events == {
        0: [("B", "consume", "k"), ("B", "emit", "A"),
            ("A", "consume", "k"), ("A", "emit", "Pub"), ("Pub", "deliver", "k")],
        2: [("B", "consume", "k2"), ("B", "emit", "A"),
            ("A", "consume", "j"), ("A", "emit", "Pub"),
            ("A", "consume", "k2"), ("A", "emit", "Pub"),
            ("Pub", "deliver", "j"), ("Pub", "deliver", "k2")],
    }
    assert fired == [("B", 0, 1), ("A", 0, 1), ("Pub", 0, 1),
                     ("B", 2, 1), ("A", 2, 2), ("Pub", 2, 2)]
    assert flow.stores[("minio", "out")] == {"k": b"\x01", "j": b"\x03", "k2": b"\x02"}
    assert [item.trail for item in flow.delivered_items] == [
        [("B", 0), ("A", 0), ("Pub", 0)], [("A", 2), ("Pub", 2)],
        [("B", 2), ("A", 2), ("Pub", 2)]]
    assert flow._agenda == []


def test_two_readers_of_one_bucket_each_take_every_object_as_their_own_item():
    """Ev is event-driven and Cr fires at seconds 0 and 30; each takes
    every object written to `in` once, in write order, as its own item,
    and an object is counted in `born` only when a reader takes it."""
    stack, nifi = b.nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}

    def chain(reader, cron, publisher, bucket):
        return [b.node(reader, b.SRC + "ConsMinIO", reqs=[
                    ("host", nifi), ("connectToPipeline", publisher)],
                    props=_scheduled({"name": reader, "BucketName": "in", **minio}, cron)),
                b.node(publisher, b.DST + "PubsMinIO", reqs=[("host", nifi)],
                       props={"name": publisher, "BucketName": bucket, **minio})]

    template = b.template(*stack, *chain("Ev", None, "PubE", "out-e"),
                          *chain("Cr", "0,30 * * * * ?", "PubC", "out-c"))
    assert not [d for d in verify(template)[1] if d.severity == ERROR]
    flow = instantiate(template)
    writes = [(0, "a"), (0, "b"), (12, "c"), (30, "d"), (30, "a"), (45, "e")]
    for tick, key in writes[2:]:
        flow.schedule_injection(tick, "minio", "in", key, key.encode() * 2)
    for _, key in writes[:2]:
        flow.put_object("minio", "in", key, key.encode() * 2)
    assert flow.born == 0  # both readers' items wait to be taken
    consumed = {"Ev": [], "Cr": []}
    born = {}
    while flow.clock <= 60:
        now = flow.clock
        for stage, kind, key in flow.tick():
            if kind == "consume":
                consumed[stage].append((now, key))
        flow.audit()
        born[now] = flow.born
    assert consumed == {"Ev": writes,
                        "Cr": [(0, "a"), (0, "b")] + [(30, key) for _, key in writes[2:5]]
                        + [(60, "e")]}
    # Ev takes c at tick 12, but Cr's item for it is not born before tick 30
    assert [born[tick] for tick in (0, 11, 12, 29, 30, 45, 59, 60)] == \
        [4, 4, 5, 5, 10, 11, 11, 12]
    assert flow.stores[("minio", "out-e")] == flow.stores[("minio", "out-c")] == \
        {key: key.encode() * 2 for key in "abcde"}
    by_reader = {"Ev": {}, "Cr": {}}
    for item in flow.delivered_items:
        by_reader[item.trail[0][0]][item.attributes["key"]] = item
    ev, cr = by_reader["Ev"]["c"], by_reader["Cr"]["c"]
    assert ev is not cr and ev.payload == cr.payload == b"cc"
    ev.attributes["mark"] = "Ev's"
    assert cr.attributes == {"source_provider": "minio", "source_bucket": "in",
                             "key": "c"}


def test_a_router_sends_each_item_of_a_batch_to_its_own_targets():
    flow = instantiate(_fan_out(("Router", b.PRC + "RouteToRemote", {
        "route_predicate": "DstA:key=a;DstB:key=b;DstA:key=ab;DstB:key=ab;"
                           "DstB:key=ba;DstA:key=ba"})))
    keys = ["a", "ab", "x", "b", "ba"]
    for key in keys:
        flow.put_object("minio", "in", key, key.encode())
    consumed = [event for key in keys
                for event in [("Src", "consume", key), ("Src", "emit", "Router")]]
    assert flow.tick() == consumed + [
        ("Router", "emit", "DstA"),
        ("Router", "emit", "DstA"), ("Router", "emit", "DstB"),
        ("Router", "error", "no route predicate matched"),
        ("Router", "emit", "DstB"),
        ("Router", "emit", "DstA"), ("Router", "emit", "DstB"),
    ]
    to_a, to_b = flow.queues[("Router", "DstA")], flow.queues[("Router", "DstB")]
    assert [item.attributes["key"] for item in to_a] == ["a", "ab", "ba"]
    assert [item.attributes["key"] for item in to_b] == ["ab", "b", "ba"]
    # an item's first target gets the item itself, every other one a fork
    assert to_b[0] is not to_a[1] and to_b[2] is not to_a[2]
    assert to_b[0].trail is not to_a[1].trail
    assert [(item.attributes["key"], item.attributes["error"])
            for item in flow.error_items] == [("x", "no route predicate matched")]
    assert (flow.born, flow.dropped) == (7, 0)  # five objects and two forks
    assert flow.metrics()["per_block"]["Router"] == {"consumed": 5, "emitted": 6,
                                                     "errors": 1}
    flow.run_until(30)
    assert flow.stores[("minio", "out-a")] == {"a": b"a", "ab": b"ab", "ba": b"ba"}
    assert flow.stores[("minio", "out-b")] == {"ab": b"ab", "b": b"b", "ba": b"ba"}


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


def test_a_put_scheduled_for_the_tick_that_runs_lands_in_it(load_fixture):
    """A function schedules a put for the tick it runs in: the put is
    written right after its stage's turn, and nothing is left to process."""
    flow = instantiate(load_fixture("image_pipeline.yaml"))

    def grayscale_and_schedule(payload):
        flow.schedule_injection(flow.clock, "s3", "late", "k", b"\x07")
        return grayscale_transform(payload)

    flow.functions["img-grayscale-nifi"] = grayscale_and_schedule
    processed = []
    tick = flow.tick
    flow.tick = lambda: processed.append(flow.clock) or tick()
    flow.schedule_injection(5, "minio", "firstbucket", "img", b"\x02\x04")
    flow.run_until(50)
    assert processed == [5]
    assert flow.stores[("s3", "late")] == {"k": b"\x07"}
    assert [(event.tick, event.provider, event.bucket, event.key)
            for event in flow.store_events] == [
        (5, "minio", "firstbucket", "img"), (5, "s3", "late", "k"),
        (5, "gcs", "radongcs", "img"), (5, "azure", "blurredcontainer", "img")]


def test_a_write_behind_its_reader_in_the_order_waits_for_the_next_tick():
    """Cons fires before Tail, so the object Tail writes to the bucket Cons
    reads is taken on the next processed tick, not the one it lands in."""
    stack, nifi = b.nifi_stack()

    def block(name, kind, bucket, downstream=None):
        reqs = [("host", nifi)] + ([("connectToPipeline", downstream)]
                                   if downstream else [])
        return b.node(name, kind, reqs=reqs, props={
            "name": name, "BucketName": bucket, "cred_file_path": "c",
            "Region": "r", "schedulingStrategy": "EVENT_DRIVEN"})

    template = b.template(
        *stack, block("Cons", b.SRC + "ConsS3Bucket", "mid", "Pub"),
        block("Pub", b.DST + "PubsS3Bucket", "out"),
        block("Lead", b.SRC + "ConsS3Bucket", "in", "Tail"),
        block("Tail", b.DST + "PubsS3Bucket", "mid"))
    assert not [d for d in verify(template)[1] if d.severity == ERROR]
    flow = instantiate(template)
    assert [stage.name for stage in flow._stages] == ["Cons", "Lead", "Pub", "Tail"]
    flow.schedule_injection(3, "s3", "in", "k", b"\x01")
    assert _engine_record(flow, 10)["ticks"] == {
        3: ["Lead consume 'k'", "Lead emit 'Tail'", "Tail deliver 'k'"],
        4: ["Cons consume 'k'", "Cons emit 'Pub'", "Pub deliver 'k'"],
    }
    flow = instantiate(template)
    flow.schedule_injection(3, "s3", "in", "k", b"\x01")
    flow.run_until(10)
    assert [item.trail for item in flow.delivered_items] == [
        [("Lead", 3), ("Tail", 3)], [("Cons", 4), ("Pub", 4)]]


def test_a_stage_drains_its_queues_in_source_order_not_firing_order():
    """B fires before A, which waits behind Z, yet in the tick both hand
    items to T, T delivers A's item before B's: its queues drain in the
    order of their sources' names."""
    stack, nifi = b.nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}

    def block(name, kind, props, downstream=None):
        # a process block spells its connection requirement with a capital
        connect = "ConnectToPipeline" if kind.startswith(b.PRC) else "connectToPipeline"
        reqs = [("host", nifi)] + ([(connect, downstream)] if downstream else [])
        return b.node(name, kind, reqs=reqs,
                      props=_scheduled(dict(props, name=name.lower()), None))

    template = b.template(
        *stack, block("Z", b.SRC + "ConsMinIO", {"BucketName": "z", **minio}, "A"),
        block("A", b.PRC + "InvokeLambda", {"cred_file_path": "c", "region": "r",
                                             "function_name": "fn"}, "T"),
        block("B", b.SRC + "ConsMinIO", {"BucketName": "b", **minio}, "T"),
        block("T", b.DST + "PubsMinIO", {"BucketName": "out", **minio}))
    assert not [d for d in verify(template)[1] if d.severity == ERROR]
    flow = instantiate(template)
    flow.register_function("fn", bytes.upper)
    flow.schedule_injection(2, "minio", "b", "kb", b"b")
    flow.schedule_injection(2, "minio", "z", "kz", b"z")
    record = _engine_record(flow, 5)
    assert record["ticks"] == {2: [
        "B consume 'kb'", "B emit 'T'", "Z consume 'kz'", "Z emit 'A'",
        "A emit 'T'", "T deliver 'kz'", "T deliver 'kb'"]}
    assert record["delivered"] == ["Z@2 A@2 T@2", "B@2 T@2"]
    assert [(item.attributes["key"], item.payload)
            for item in flow.delivered_items] == [("kz", b"Z"), ("kb", b"b")]


def _minio_chains(count, cron):
    """`count` chains Src<i> -> Dst<i> from bucket in<i> to bucket out<i>;
    every Src is event-driven and every Dst is CRON-driven on `cron`."""
    stack, nifi = b.nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}
    nodes = []
    for i in range(count):
        nodes.append(b.node(f"Src{i}", b.SRC + "ConsMinIO",
                            props={"name": "s", "BucketName": f"in{i}", **minio},
                            reqs=[("host", nifi), ("connectToPipeline", f"Dst{i}")]))
        nodes.append(b.node(f"Dst{i}", b.DST + "PubsMinIO",
                            props=_scheduled({"name": "d", "BucketName": f"out{i}",
                                              **minio}, cron),
                            reqs=[("host", nifi)]))
    return b.template(*stack, *nodes)


def test_only_a_stage_with_an_item_waiting_fires(monkeypatch):
    flow = instantiate(_minio_chains(1000, "*/4 * * * * ?"))
    assert len(flow.blocks) == 2000
    fired = []
    fire = _Stage.fire
    monkeypatch.setattr(_Stage, "fire", lambda stage, tick: (
        fired.append((stage.name, tick)), fire(stage, tick)))
    for tick in range(10):  # one object a tick into one chain
        flow.schedule_injection(tick, "minio", "in7", f"k{tick}", b"\x01")
    flow.run_until(100)
    assert fired == [("Src7", 0), ("Dst7", 0), ("Src7", 1), ("Src7", 2), ("Src7", 3),
                     ("Src7", 4), ("Dst7", 4), ("Src7", 5), ("Src7", 6), ("Src7", 7),
                     ("Src7", 8), ("Dst7", 8), ("Src7", 9), ("Dst7", 12)]
    # and every firing took an item
    assert set(fired) == {visit for item in flow.delivered_items
                          for visit in item.trail}


def test_a_tick_asks_only_the_stages_an_item_waits_for(monkeypatch):
    flow = instantiate(_minio_chains(1000, "*/4 * * * * ?"))
    listed = []
    wake = Flow._wake

    def counting_wake(flow, stage):
        before = len(flow._agenda)
        wake(flow, stage)
        assert len(flow._agenda) == before + 1  # the stage was off the agenda
        listed.append(stage.name)

    monkeypatch.setattr(Flow, "_wake", counting_wake)
    for tick in range(10):  # one object a tick into one chain
        flow.schedule_injection(tick, "minio", "in7", f"k{tick}", b"\x01")
    flow.run_until(100)
    # Src7 once for each of its ten objects; Dst7 once each time its queue
    # stops being empty, at ticks 0, 1, 5 and 9; none of the other 1,998
    assert sorted(set(listed)) == ["Dst7", "Src7"]
    assert (listed.count("Src7"), listed.count("Dst7")) == (10, 4)


# -- firing order -------------------------------------------------------------------

def _firing_order_by_resorting(names, out_edges):
    """The firing order as computed before it used a heap: pop the first
    ready name, re-sort after every step.  Names on or behind a cycle are
    left out."""
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
        assert lexicographic_order(names, out_edges) \
            == _firing_order_by_resorting(names, out_edges)


def test_instantiate_fires_in_the_resorting_order(load_fixture):
    with pytest.raises(DependencyCycleError):
        instantiate(load_fixture("cyclic.yaml"))
    templates = [load_fixture(name) for name in (
        "encrypt_mismatch.yaml", "image_pipeline.yaml", "s3_to_gcs.yaml")]
    templates += [topology_gen.random_clean_dag(seed) for seed in range(60)]
    for template in templates:
        topo = Topology(template)
        out_edges = {name: [] for name in topo.pipelines}
        for source, target in topo.pairs:
            out_edges[source].append(target)
        assert topo.successors == out_edges
        flow = instantiate(template)
        assert [stage.name for stage in flow._stages] \
            == _firing_order_by_resorting(topo.pipelines, out_edges)
