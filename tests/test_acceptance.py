"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion pins its stated tolerance and time budget.
"""

import pathlib
import random
import time

import builders as b
import excerpts
import topology_gen
from bruteforce import diagnostics_as_set, rule_violations
from toscaflow import catalog as cat
from toscaflow.cron import SECONDS_PER_DAY, cron_next, parse_cron
from toscaflow.crypto import decrypt_bytes, encrypt_bytes
from toscaflow.csar import pack_csar, unpack_csar
from toscaflow.parsing import (
    parse_definitions,
    parse_node_templates_fragment,
    parse_requirements_fragment,
    parse_service_template,
    serialize_template,
)
from toscaflow.planner import DeploymentPlan, build_graph, plan, validate_plan
from toscaflow.simulator import blur_transform, grayscale_transform, instantiate, \
    rle_compress
from toscaflow.verifier import verify

FIXTURE_NAMES = ("s3_to_gcs.yaml", "duplicate_connection.yaml", "image_pipeline.yaml", "cyclic.yaml",
                 "encrypt_mismatch.yaml")


def _report(number, name, started=None):
    suffix = f" ({time.perf_counter() - started:.2f}s)" if started else ""
    print(f"criterion {number} [{name}]: PASS{suffix}")


def test_criterion_1_catalog_fidelity(defs):
    started = time.perf_counter()

    listing_to_catalog = {
        excerpts.PIPELINE_BLOCK_TYPE: cat.PIPELINE_BLOCK,
        excerpts.NIFI_TYPE: cat.NIFI,
        excerpts.CONNECT_TO_PIPELINE_CAPABILITY_TYPE: cat.CONNECT_TO_PIPELINE_CAP,
        excerpts.CONS_GCS_BUCKET_TYPE: "radon.nodes.datapipeline.source.ConsGCSBucket",
        excerpts.CONS_S3_BUCKET_TYPE: "radon.nodes.datapipeline.source.ConsS3Bucket",
        excerpts.MIDWAY_PB_TYPE: cat.MIDWAY_PB,
        excerpts.DESTINATION_PB_TYPE: cat.DESTINATION_PB,
    }
    for text, name in listing_to_catalog.items():
        parsed = parse_definitions(text)
        assert len(parsed) == 1
        assert parsed[0] == defs[name], f"{name} diverges from its listing"
    assert parse_requirements_fragment(excerpts.SOURCE_PB_REQUIREMENTS) == \
        defs[cat.SOURCE_PB].requirements

    nodes = {}
    for text in excerpts.NODE_EXCERPTS.values():
        nodes.update(parse_node_templates_fragment(text))
    assert nodes["ConsMinIO_0"].property_values["BucketName"] == "firstbucket"
    assert nodes["ConsMinIO_0"].property_values["schedulingPeriodCRON"] == \
        "* * * * * ?"
    assert nodes["InvokeLambda_0"].property_values["function_name"] == \
        "img-grayscale-nifi"
    assert nodes["InvokeLambda_0"].property_values["region"] == "eu-west-1"
    assert nodes["InvokeLambda_1"].property_values["function_name"] == \
        "img-blur-nifi"
    assert nodes["PubGCS_0"].property_values["BucketName"] == "radongcs"
    assert nodes["PubGCS_0"].property_values["ProjectID"] == "radon-825040-utr"
    assert nodes["InvokeImageFaaSFunction_0"].property_values["HTTP_method"] == \
        "POST"

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"catalog fidelity took {elapsed:.2f}s"
    _report(1, "catalog fidelity", started)


def test_criterion_2_duplicate_connection_repair(load_fixture):
    started = time.perf_counter()
    template = load_fixture("duplicate_connection.yaml")

    _, diags = verify(template)
    assert [d.rule for d in diags] == ["R3-DUPLICATE-CONN"]

    fixed, fix_diags = verify(template, fix=True, seed=0)
    edges = [a for a in fixed.node_templates["ConsS3Bucket"]
             .requirement_assignments if a.target == "PubGCS"]
    assert len(edges) == 1
    assert edges[0].name == "connectToPipelineRemote"
    assert edges[0].relationship in (None, cat.CONNECT_NIFI_REMOTE)
    assert fix_diags[0].fix is not None

    reparsed = parse_service_template(serialize_template(fixed))
    _, rediags = verify(reparsed)
    assert rediags == []
    _report(2, "duplicate-connection repair", started)


def test_criterion_3_verifier_completeness_oracle():
    started = time.perf_counter()
    rules_seen = set()
    nonempty = 0
    for seed in range(500):
        template = topology_gen.random_topology(seed)
        _, diags = verify(template)
        mine = diagnostics_as_set(diags)
        independent = rule_violations(template)
        assert mine == independent, (
            f"seed {seed}: verifier={sorted(mine)} oracle={sorted(independent)}")
        rules_seen.update(rule for rule, _ in mine)
        nonempty += bool(mine)
    assert rules_seen == {"R1-REQ-MATCH", "R2-LOCALITY", "R3-DUPLICATE-CONN",
                          "R4-ENCRYPTION", "R5-HOSTING", "R6-SCHEDULING"}, \
        f"generator never exercised {sorted(set(['R1-REQ-MATCH','R2-LOCALITY','R3-DUPLICATE-CONN','R4-ENCRYPTION','R5-HOSTING','R6-SCHEDULING']) - rules_seen)}"
    assert nonempty >= 100
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"completeness oracle took {elapsed:.2f}s"
    _report(3, f"verifier completeness over 500 topologies, "
               f"{nonempty} with findings", started)


def test_criterion_4_encryption_repair(load_fixture):
    started = time.perf_counter()
    template = load_fixture("encrypt_mismatch.yaml")

    first, _ = verify(template, fix=True, seed=1234)
    second, _ = verify(template, fix=True, seed=1234)
    p1 = first.node_templates["Encrypt_0"].property_values["passphrase"]
    assert p1 == first.node_templates["Decrypt_0"].property_values["passphrase"]
    assert second.node_templates["Encrypt_0"].property_values["passphrase"] == p1
    assert serialize_template(first) == serialize_template(second)

    rng = random.Random(2026)
    for _ in range(1000):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 48)))
        key = "".join(rng.choice("abcdef0123456789") for _ in range(8))
        assert decrypt_bytes(encrypt_bytes(payload, key), key) == payload

    differing = 0
    for trial in range(100):
        payload = bytes(rng.randrange(256) for _ in range(16))
        garbled = decrypt_bytes(encrypt_bytes(payload, f"key-{trial}"),
                                f"other-{trial}")
        differing += garbled != payload
    assert differing >= 99, f"only {differing}/100 mismatched-key trials differ"
    _report(4, "encryption repair and cipher identity", started)


def test_criterion_5_planner_correctness(load_fixture):
    started = time.perf_counter()
    template = load_fixture("s3_to_gcs.yaml")
    deployment = plan(template)
    assert validate_plan(deployment, template)
    pos = {(s.node, s.op): i for i, s in enumerate(deployment.steps)}
    for host_edge in (("EC2_VM", "AWSPlatform"),
                      ("OpenStack_VM", "OpenStackPlatform"),
                      ("Nifi_Platform", "EC2_VM"),
                      ("Nifi_Platform_2", "OpenStack_VM"),
                      ("ConsumeS3Bucket", "Nifi_Platform"),
                      ("PublishGoogleBucket", "Nifi_Platform_2")):
        dependent, host = host_edge
        assert pos[(host, "start")] < pos[(dependent, "create")]
    assert pos[("PublishGoogleBucket", "start")] < \
        pos[("ConsumeS3Bucket", "configure")]

    order = ["create", "configure", "start"]
    checked_swaps = 0
    for seed in range(200):
        dag = topology_gen.random_clean_dag(seed)
        deployment = plan(dag)
        assert validate_plan(deployment, dag), f"seed {seed}"
        graph = build_graph(dag)
        constraints = {(e.target, "start",
                        e.source, "create" if e.kind == "HostedOn" else "configure")
                       for e in graph.edges}
        steps = deployment.steps
        for i in range(len(steps) - 1):
            first, second = steps[i], steps[i + 1]
            dependent_pair = (
                first.node == second.node
                and order.index(first.op) < order.index(second.op)
            ) or (first.node, first.op, second.node, second.op) in constraints
            if dependent_pair:
                swapped = list(steps)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                assert not validate_plan(DeploymentPlan(steps=swapped), dag), \
                    f"seed {seed} swap at {i}"
                checked_swaps += 1
    assert checked_swaps > 200
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"planner criterion took {elapsed:.2f}s"
    _report(5, f"planner correctness, {checked_swaps} sharp swaps", started)


def test_criterion_6_image_pipeline_replay(load_fixture):
    started = time.perf_counter()
    template = load_fixture("image_pipeline.yaml")
    _, diags = verify(template)
    assert diags == []

    flow = instantiate(template)
    rng = random.Random(88)
    originals = {}
    for i in range(10):
        key = f"img{i:02d}"
        payload = bytes(rng.randrange(256) for _ in range(32))
        originals[key] = payload
        flow.schedule_injection(rng.randint(0, 40), "minio", "firstbucket",
                                key, payload)
    while flow.clock <= 100:
        flow.tick()
        flow.audit()  # conservation after every tick

    gcs = flow.stores[("gcs", "radongcs")]
    azure = flow.stores[("azure", "blurredcontainer")]
    assert len(gcs) == 10 and len(azure) == 10
    for key, original in originals.items():
        processed = blur_transform(grayscale_transform(original))
        assert gcs[key] == processed
        assert azure[key] == rle_compress(processed)

    gcs_trails = [item.blocks for item in flow.delivered_items
                  if item.blocks[-1] == "PubGCS_0"]
    azure_trails = [item.blocks for item in flow.delivered_items
                    if item.blocks[-1] == "PubsAzureBlob_0"]
    assert len(gcs_trails) == len(azure_trails) == 10
    assert all(t == ["ConsMinIO_0", "InvokeLambda_0", "InvokeLambda_1",
                     "PubGCS_0"] for t in gcs_trails)
    assert all(t == ["ConsMinIO_0", "InvokeLambda_0", "InvokeLambda_1",
                     "InvokeImageFaaSFunction_0", "PubsAzureBlob_0"]
               for t in azure_trails)
    assert flow.error_count == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"replay took {elapsed:.2f}s"
    _report(6, "image pipeline replay", started)


def _two_stage(strategy, cron):
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


def test_criterion_7_scheduling_semantics():
    started = time.perf_counter()

    event_flow = instantiate(_two_stage("EVENT_DRIVEN", "* * * * * ?"))
    event_flow.schedule_injection(7, "minio", "in", "k", b"\x01")
    event_flow.run_until(130)
    assert event_flow.delivered_items[0].trail == [("Src", 7), ("Dst", 7)]

    cron_flow = instantiate(_two_stage("CRON_DRIVEN", "0 * * * * ?"))
    cron_flow.schedule_injection(7, "minio", "in", "k", b"\x01")
    cron_flow.run_until(130)
    assert cron_flow.delivered_items[0].trail == [("Src", 60), ("Dst", 60)]

    rng = random.Random(20260810)

    def random_field(hi):
        kind = rng.randrange(4)
        if kind == 0:
            return "*"
        if kind == 1:
            return str(rng.randint(0, hi))
        if kind == 2:
            return f"*/{rng.randint(1, hi)}"
        return ",".join(str(rng.randint(0, hi)) for _ in range(rng.randint(1, 3)))

    for _ in range(1000):
        text = " ".join([random_field(59), random_field(59), random_field(23),
                         rng.choice("*?"), rng.choice("*?"), rng.choice("*?")])
        expr = parse_cron(text)
        tick = rng.randint(0, 250000)
        expected = next(t for t in range(tick, tick + SECONDS_PER_DAY + 1)
                        if expr.matches(t))
        assert cron_next(expr, tick) == expected, text
    _report(7, "scheduling semantics, 1000 cron pairs", started)


def test_criterion_8_round_trip_stability(load_fixture, fixture_path):
    started = time.perf_counter()
    for name in FIXTURE_NAMES:
        template = load_fixture(name)
        once = serialize_template(template)
        assert parse_service_template(once) == template
        assert serialize_template(parse_service_template(once)) == once

    tree = {
        "service.yaml": pathlib.Path(fixture_path("image_pipeline.yaml")).read_bytes(),
        "playbooks/create.yml": b"- hosts: all\n  tasks: []\n",
        "creds/minio.json": b'{"user": "x"}\n',
        "binary.dat": bytes(range(256)),
    }
    archive = unpack_csar(pack_csar("service.yaml", tree))
    assert archive.files == tree
    assert archive.entry_definitions == "service.yaml"
    _report(8, "round-trip stability", started)
