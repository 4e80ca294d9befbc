import copy
import random

import pytest

import builders as b
import topology_gen
from bruteforce import diagnostics_as_set, rule_violations
from toscaflow import catalog as cat
from toscaflow.errors import HostCycleError, MissingHostError, NotAPipelineError
from toscaflow.parsing import serialize_template
from toscaflow.simulator import instantiate
from toscaflow.topology import Topology
from toscaflow.verifier import (
    ERROR,
    FIXABLE,
    Locality,
    R1_REQ_MATCH,
    R2_LOCALITY,
    R3_DUPLICATE_CONN,
    R4_ENCRYPTION,
    R5_HOSTING,
    R6_SCHEDULING,
    check_encryption,
    check_locality,
    check_requirements,
    check_scheduling,
    colocated,
    host_chain,
    verify,
)


# -- hosting ------------------------------------------------------------------

def test_host_chain_s3_to_gcs(load_fixture):
    template = load_fixture("s3_to_gcs.yaml")
    assert host_chain("ConsumeS3Bucket", template) == [
        "ConsumeS3Bucket", "Nifi_Platform", "EC2_VM", "AWSPlatform"]


def test_host_chain_image_pipeline_ends_at_google_side_compute(load_fixture):
    template = load_fixture("image_pipeline.yaml")
    assert host_chain("PubGCS_0", template) == ["PubGCS_0", "Nifi_GCP", "GCP_VM"]


def test_host_chain_cycle():
    vm = b.node("VM", cat.COMPUTE, reqs=[("host", "VM")])
    with pytest.raises(HostCycleError):
        host_chain("VM", b.template(vm))


def test_colocated_local_and_remote(load_fixture):
    pipeline = load_fixture("image_pipeline.yaml")
    assert colocated("InvokeLambda_0", "InvokeLambda_1", pipeline) is Locality.LOCAL
    assert colocated("ConsMinIO_0", "InvokeLambda_0", pipeline) is Locality.REMOTE
    dup = load_fixture("duplicate_connection.yaml")
    assert colocated("ConsS3Bucket", "PubGCS", dup) is Locality.REMOTE


def test_colocated_requires_pipelines_and_hosts(load_fixture, defs):
    pipeline = load_fixture("image_pipeline.yaml")
    with pytest.raises(NotAPipelineError):
        colocated("EC2_VM", "InvokeLambda_0", pipeline)
    stack, nifi = b.nifi_stack()
    orphan = b.node("Orphan", b.PRC + "ExecutePython",
                    props={"name": "o", "script_path": "s.py"})
    hosted = b.node("Hosted", b.PRC + "ExecutePython",
                    props={"name": "h", "script_path": "s.py"},
                    reqs=[("host", nifi)])
    template = b.template(*stack, orphan, hosted)
    with pytest.raises(MissingHostError):
        colocated("Orphan", "Hosted", template)


# -- R1 / R5 -------------------------------------------------------------------

def _stacked_pipeline_pair():
    stack, nifi = b.nifi_stack()
    source = b.node("Src", b.SRC + "ConsMinIO",
                    props={"name": "s", "BucketName": "in",
                           "cred_file_path": "c", "MinIO_Endpoint": "e"},
                    reqs=[("host", nifi), ("connectToPipeline", "Dst")])
    dest = b.node("Dst", b.DST + "PubsMinIO",
                  props={"name": "d", "BucketName": "out",
                         "cred_file_path": "c", "MinIO_Endpoint": "e"},
                  reqs=[("host", nifi)])
    return stack, nifi, source, dest


def test_source_cannot_be_a_connection_target():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    other = b.node("Src2", b.SRC + "ConsMinIO",
                   props={"name": "s2", "BucketName": "in2",
                          "cred_file_path": "c", "MinIO_Endpoint": "e"},
                   reqs=[("host", nifi), ("connectToPipeline", "Src")])
    template = b.template(*stack, source, dest, other)
    diags = check_requirements(template)
    assert any(d.rule == R1_REQ_MATCH and set(d.nodes) == {"Src2", "Src"}
               for d in diags)


def test_double_host_assignment_exceeds_maximum():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.requirement_assignments.append(
        b.RequirementAssignment("host", nifi))
    template = b.template(*stack, source, dest)
    diags = check_requirements(template)
    assert any(d.rule == R1_REQ_MATCH and d.nodes == ["Src"]
               and "maximum" in d.message for d in diags)


def test_destination_has_no_outgoing_requirement():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    dest.requirement_assignments.append(
        b.RequirementAssignment("connectToPipeline", "Src"))
    template = b.template(*stack, source, dest)
    diags = check_requirements(template)
    assert any(d.rule == R1_REQ_MATCH and d.nodes == ["Dst"] for d in diags)


def test_dangling_source_is_flagged():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.requirement_assignments = [
        a for a in source.requirement_assignments if a.name == "host"]
    template = b.template(*stack, source, dest)
    diags = check_requirements(template)
    assert any(d.rule == R1_REQ_MATCH and d.nodes == ["Src"]
               and "downstream" in d.message for d in diags)


def test_nifi_pipeline_on_non_nifi_host_is_r5():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.requirement_assignments = [
        b.RequirementAssignment("host", "VM_0"),
        b.RequirementAssignment("connectToPipeline", "Dst"),
    ]
    template = b.template(*stack, source, dest)
    diags = check_requirements(template)
    assert any(d.rule == R5_HOSTING and set(d.nodes) == {"Src", "VM_0"}
               for d in diags)


def test_standalone_must_sit_on_aws_platform():
    stack, nifi = b.nifi_stack()
    copy_node = b.node("Copy", b.STA + "AWSCopyS3ToS3",
                       props={"name": "c", "SourceBucketName": "a",
                              "DestinationBucketName": "b",
                              "cred_file_path": "c", "LogBucketName": "l"},
                       reqs=[("host", nifi)])
    diags = check_requirements(b.template(*stack, copy_node))
    assert any(d.rule == R5_HOSTING and set(d.nodes) == {"Copy", "Nifi_0"}
               for d in diags)


# -- R2 / R3 ---------------------------------------------------------------------

def test_duplicate_connection_yields_exactly_one_r3(load_fixture):
    template = load_fixture("duplicate_connection.yaml")
    _, diags = verify(template)
    assert [d.rule for d in diags] == [R3_DUPLICATE_CONN]
    assert diags[0].severity == FIXABLE
    assert set(diags[0].nodes) == {"ConsS3Bucket", "PubGCS"}


def test_duplicate_connection_fix_keeps_single_remote_edge(load_fixture):
    template = load_fixture("duplicate_connection.yaml")
    fixed, diags = verify(template, fix=True)
    assert diags[0].fix is not None
    edges = [a for a in fixed.node_templates["ConsS3Bucket"]
             .requirement_assignments if a.target == "PubGCS"]
    assert len(edges) == 1
    assert edges[0].name == "connectToPipelineRemote"
    _, rediags = verify(fixed)
    assert rediags == []
    # the input template is untouched
    assert len([a for a in template.node_templates["ConsS3Bucket"]
                .requirement_assignments if a.target == "PubGCS"]) == 2


def test_same_nifi_remote_edge_rewritten_to_local():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.requirement_assignments = [
        b.RequirementAssignment("host", nifi),
        b.RequirementAssignment("connectToPipelineRemote", "Dst"),
    ]
    template = b.template(*stack, source, dest)
    diags = check_locality(template)
    assert [d.rule for d in diags] == [R2_LOCALITY]
    fixed, fixed_diags = verify(template, fix=True)
    edge = [a for a in fixed.node_templates["Src"].requirement_assignments
            if a.target == "Dst"][0]
    assert edge.name == "connectToPipeline"
    assert colocated("Src", "Dst", fixed) is Locality.LOCAL


def test_image_pipeline_is_clean(load_fixture):
    template = load_fixture("image_pipeline.yaml")
    fixed, diags = verify(template, fix=True)
    assert diags == []
    assert fixed == template


# -- R4 ---------------------------------------------------------------------------

def test_passphrase_mismatch_is_fixed_and_seeded(load_fixture):
    template = load_fixture("encrypt_mismatch.yaml")
    diags = check_encryption(template)
    assert [d.rule for d in diags] == [R4_ENCRYPTION]
    assert diags[0].severity == FIXABLE

    fixed, _ = verify(template, fix=True, seed=99)
    p_enc = fixed.node_templates["Encrypt_0"].property_values["passphrase"]
    p_dec = fixed.node_templates["Decrypt_0"].property_values["passphrase"]
    assert p_enc == p_dec
    assert len(p_enc) == 32 and set(p_enc) <= set("0123456789abcdef")

    again, _ = verify(template, fix=True, seed=99)
    assert again.node_templates["Encrypt_0"].property_values["passphrase"] == p_enc
    other, _ = verify(template, fix=True, seed=100)
    assert other.node_templates["Encrypt_0"].property_values["passphrase"] != p_enc


def _with_passphrases(load_fixture, encrypt, decrypt):
    template = load_fixture("encrypt_mismatch.yaml")
    template.node_templates["Encrypt_0"].property_values["passphrase"] = encrypt
    template.node_templates["Decrypt_0"].property_values["passphrase"] = decrypt
    return template


def test_passphrases_that_key_the_same_cipher_agree(load_fixture):
    template = _with_passphrases(load_fixture, 7, "7")
    assert check_encryption(template) == []
    assert verify(template)[1] == []
    flow = instantiate(template)
    flow.schedule_injection(1, "minio", "inbox", "k", b"payload")
    flow.run_until(3)
    assert flow.stores[("minio", "outbox")]["k"] == b"payload"


def test_passphrases_with_different_text_still_differ(load_fixture):
    template = _with_passphrases(load_fixture, 7, 8)
    diags = check_encryption(template)
    assert [(d.rule, d.severity) for d in diags] == [(R4_ENCRYPTION, FIXABLE)]
    fixed, report = verify(template, fix=True, seed=3)
    assert [d.fix is not None for d in report] == [True]
    assert check_encryption(fixed) == []


def test_encrypt_without_decrypt_is_an_error():
    stack, nifi = b.nifi_stack()
    source = b.node("Src", b.SRC + "ConsMinIO",
                    props={"name": "s", "BucketName": "in",
                           "cred_file_path": "c", "MinIO_Endpoint": "e"},
                    reqs=[("host", nifi), ("connectToPipeline", "Enc")])
    enc = b.node("Enc", cat.ENCRYPT, props={"name": "e", "passphrase": "p"},
                 reqs=[("host", nifi), ("ConnectToPipeline", "Dst")])
    dest = b.node("Dst", b.DST + "PubsMinIO",
                  props={"name": "d", "BucketName": "out",
                         "cred_file_path": "c", "MinIO_Endpoint": "e"},
                  reqs=[("host", nifi)])
    diags = check_encryption(b.template(*stack, source, enc, dest))
    assert [(d.rule, d.severity, d.nodes) for d in diags] == [
        (R4_ENCRYPTION, ERROR, ["Enc"])]


def test_no_cipher_nodes_no_r4(load_fixture):
    assert check_encryption(load_fixture("image_pipeline.yaml")) == []


# -- R6 ---------------------------------------------------------------------------

def test_scheduling_defaults_are_clean(load_fixture):
    assert check_scheduling(load_fixture("image_pipeline.yaml")) == []


def test_bad_cron_under_cron_strategy():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.property_values["schedulingStrategy"] = "CRON_DRIVEN"
    source.property_values["schedulingPeriodCRON"] = "not a cron"
    diags = check_scheduling(b.template(*stack, source, dest))
    assert [(d.rule, d.nodes) for d in diags] == [(R6_SCHEDULING, ["Src"])]


def test_strategy_outside_allowed_set():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.property_values["schedulingStrategy"] = "TIMER_DRIVEN"
    diags = check_scheduling(b.template(*stack, source, dest))
    assert [(d.rule, d.nodes) for d in diags] == [(R6_SCHEDULING, ["Src"])]


def test_self_referencing_strategy_is_an_r6_finding():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.property_values["schedulingStrategy"] = {
        "get_property": ["SELF", "schedulingStrategy"]}
    _, diags = verify(b.template(*stack, source, dest))
    assert [(d.rule, d.nodes) for d in diags] == [(R6_SCHEDULING, ["Src"])]
    assert "schedulingStrategy None" in diags[0].message


def test_r6_says_why_a_value_is_unknown():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.property_values["schedulingStrategy"] = {
        "get_property": ["SELF", "schedulingStrategy"]}
    aws = b.node("AWS", cat.AWS_PLATFORM)
    task = b.node("Copy", b.STA + "AWSCopyS3ToS3",
                  props={"name": "c", "SourceBucketName": "a",
                         "DestinationBucketName": "b", "cred_file_path": "c",
                         "LogBucketName": "l",
                         "schedulingPeriodCRON": {
                             "get_property": ["SELF", "schedulingPeriodCRON"]}},
                  reqs=[("host", "AWS")])
    diags = check_scheduling(b.template(*stack, source, dest, aws, task))
    assert [d.message for d in diags] == [
        "'Copy' schedules only by cron but None is not a valid cron expression "
        "(get_property cycle: Copy.schedulingPeriodCRON -> Copy.schedulingPeriodCRON)",
        "'Src' has schedulingStrategy None, allowed: EVENT_DRIVEN, CRON_DRIVEN "
        "(get_property cycle: Src.schedulingStrategy -> Src.schedulingStrategy)",
    ]


def test_intrinsic_with_one_argument_is_an_r6_finding():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.property_values["schedulingStrategy"] = {"get_property": ["SELF"]}
    diags = check_scheduling(b.template(*stack, source, dest))
    assert [d.message for d in diags] == [
        "'Src' has schedulingStrategy None, allowed: EVENT_DRIVEN, CRON_DRIVEN "
        "(get_property expects two arguments, got ['SELF'])"]


def test_unevaluable_function_key_is_an_r6_finding():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    fn = b.node("Fn", b.PRC + "ExecutePython",
                props={"name": "f",
                       "script_path": {"get_property": ["SELF", "script_path"]}},
                reqs=[("host", nifi), ("ConnectToPipeline", "Dst")])
    source.requirement_assignments[1].target = "Fn"
    _, diags = verify(b.template(*stack, source, fn, dest))
    assert [(d.rule, d.severity, d.nodes, d.message) for d in diags] == [
        (R6_SCHEDULING, ERROR, ["Fn"], "'Fn' cannot evaluate its script_path "
         "(get_property cycle: Fn.script_path -> Fn.script_path)")]


def test_standalone_task_needs_valid_cron():
    aws = b.node("AWS", cat.AWS_PLATFORM)
    task = b.node("Copy", b.STA + "AWSCopyS3ToS3",
                  props={"name": "c", "SourceBucketName": "a",
                         "DestinationBucketName": "b", "cred_file_path": "c",
                         "LogBucketName": "l",
                         "schedulingPeriodCRON": "whenever"},
                  reqs=[("host", "AWS")])
    diags = check_scheduling(b.template(aws, task))
    assert [(d.rule, d.nodes) for d in diags] == [(R6_SCHEDULING, ["Copy"])]


# -- verify driver ------------------------------------------------------------------

def test_verify_fix_is_idempotent(load_fixture):
    for name in ("duplicate_connection.yaml", "encrypt_mismatch.yaml", "image_pipeline.yaml"):
        template = load_fixture(name)
        once, _ = verify(template, fix=True, seed=1)
        twice, diags = verify(once, fix=True, seed=1)
        assert twice == once
        assert not [d for d in diags if d.severity == FIXABLE]


def test_fixes_never_change_the_template_set(load_fixture):
    for name in ("duplicate_connection.yaml", "encrypt_mismatch.yaml"):
        template = load_fixture(name)
        fixed, _ = verify(template, fix=True, seed=1)
        assert set(fixed.node_templates) == set(template.node_templates)
        for node_name, node in fixed.node_templates.items():
            assert node.type == template.node_templates[node_name].type


def test_post_fix_locality_agrees_on_every_edge():
    for seed in range(40):
        template = topology_gen.random_topology(seed)
        fixed, _ = verify(template, fix=True, seed=seed)
        topo = Topology(fixed)
        for (a, bb), edges in topo.pairs.items():
            locality = topo.locality(a, bb)
            if locality is None:
                continue
            assert len(edges) == 1
            bucket = topo.kind_locality(edges[0][1])
            if bucket is not None:
                assert bucket is locality, (seed, a, bb)


def test_verify_matches_bruteforce_on_small_sample():
    for seed in range(60):
        template = topology_gen.random_topology(seed)
        _, diags = verify(template)
        assert diagnostics_as_set(diags) == rule_violations(template), \
            f"divergence at seed {seed}"


FIXTURES = ("cyclic.yaml", "duplicate_connection.yaml", "encrypt_mismatch.yaml",
            "image_pipeline.yaml", "s3_to_gcs.yaml")


def test_fix_does_not_mutate_input(load_fixture):
    cases = [(name, load_fixture(name)) for name in FIXTURES]
    cases += [(f"random_topology({seed})", topology_gen.random_topology(seed))
              for seed in range(30)]
    cases += [(f"random_clean_dag({seed})", topology_gen.random_clean_dag(seed))
              for seed in range(5)]
    for case, template in cases:
        snapshot = copy.deepcopy(template)
        text = serialize_template(template)
        verify(template, fix=True, seed=3)
        assert template == snapshot, case
        assert serialize_template(template) == text, case


def test_fix_shares_the_nodes_it_does_not_repair(load_fixture):
    for name, repaired in (("duplicate_connection.yaml", {"ConsS3Bucket"}),
                           ("encrypt_mismatch.yaml", {"Encrypt_0", "Decrypt_0"})):
        template = load_fixture(name)
        snapshot = copy.deepcopy(template)
        first, first_report = verify(template, fix=True, seed=3)
        second, second_report = verify(template, fix=True, seed=3)
        assert serialize_template(second) == serialize_template(first)
        assert [d.to_dict() for d in second_report] == \
            [d.to_dict() for d in first_report]
        assert first.user_types is template.user_types
        for node_name, node in template.node_templates.items():
            if node_name in repaired:
                assert first.node_templates[node_name] is not node
                assert first.node_templates[node_name] != node
                assert node == snapshot.node_templates[node_name]
            else:
                assert first.node_templates[node_name] is node, node_name


def test_fix_through_inline_user_type():
    from toscaflow.parsing import parse_service_template

    text = """\
tosca_definitions_version: tosca_simple_yaml_1_3
node_types:
  acme.nodes.Custom:
    derived_from: radon.nodes.datapipeline.MidwayPB
topology_template:
  node_templates:
    VM:
      type: tosca.nodes.Compute
    Nifi:
      type: radon.nodes.nifi.Nifi
      properties: {component_version: "1.14.0"}
      requirements:
        - host: VM
    Src:
      type: radon.nodes.datapipeline.source.ConsMinIO
      properties: {name: s, BucketName: in, cred_file_path: c, MinIO_Endpoint: e}
      requirements:
        - host: Nifi
        - connectToPipeline: Mid
    Mid:
      type: acme.nodes.Custom
      properties: {name: m}
      requirements:
        - host: Nifi
        - ConnectToPipelineRemote: Dst   # wrong kind, same NiFi
    Dst:
      type: radon.nodes.datapipeline.destination.PubsMinIO
      properties: {name: d, BucketName: out, cred_file_path: c, MinIO_Endpoint: e}
      requirements:
        - host: Nifi
"""
    template = parse_service_template(text)
    _, diags = verify(template)
    assert [d.rule for d in diags] == [R2_LOCALITY]
    fixed, _ = verify(template, fix=True)
    edge = [a for a in fixed.node_templates["Mid"].requirement_assignments
            if a.target == "Dst"][0]
    assert edge.name == "ConnectToPipeline"
    _, rediags = verify(fixed)
    assert rediags == []


def _fix_encryption_by_union_find(nodes, pairs, rng):
    """The R4 repair as it was computed with a union-find, as a reference:
    one fresh passphrase per connected mismatch component, drawn in order
    of the components' smallest members."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, d in pairs:
        parent[find(e)] = find(d)
    components = {}
    for node in sorted({n for pair in pairs for n in pair}):
        components.setdefault(find(node), []).append(node)
    descriptions = {}
    for root in sorted(components, key=lambda r: min(components[r])):
        members = sorted(components[root])
        fresh = "".join(rng.choice("0123456789abcdef") for _ in range(32))
        for member in members:
            nodes[member] = {**nodes[member], "passphrase": fresh}
        for e, d in pairs:
            if e in members:
                descriptions[(e, d)] = (
                    f"assigned a shared passphrase to {', '.join(members)}")
    return descriptions


def _three_mismatch_components():
    """Every cipher node keys its own passphrase.  The components, by their
    smallest members, are {A_enc, D_dec, E_dec}, one Encrypt reaching two
    Decrypts in a row; {B_dec, F_enc}, whose smallest member is a Decrypt;
    and {C_enc, G_enc, H_dec}, two Encrypts reaching one Decrypt."""
    stack, nifi = b.nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}
    source = b.node("Src", b.SRC + "ConsMinIO",
                    props={"name": "s", "BucketName": "in", **minio},
                    reqs=[("host", nifi)] + [("connectToPipeline", e) for e in
                                             ("A_enc", "C_enc", "F_enc", "G_enc")])
    dest = b.node("Dst", b.DST + "PubsMinIO",
                  props={"name": "d", "BucketName": "out", **minio},
                  reqs=[("host", nifi)])
    downstream = {"A_enc": "D_dec", "D_dec": "E_dec", "E_dec": "Dst",
                  "F_enc": "B_dec", "B_dec": "Dst", "C_enc": "H_dec",
                  "G_enc": "H_dec", "H_dec": "Dst"}
    ciphers = [b.node(name, cat.ENCRYPT if name.endswith("enc") else cat.DECRYPT,
                      props={"name": name, "passphrase": f"p-{name}"},
                      reqs=[("host", nifi), ("ConnectToPipeline", target)])
               for name, target in downstream.items()]
    return b.template(*stack, source, dest, *ciphers)


def test_passphrase_repair_is_the_union_find_repair():
    template = _three_mismatch_components()
    assert {d.rule for d in verify(template)[1]} == {R4_ENCRYPTION}
    pairs = [tuple(d.nodes) for d in check_encryption(template)]
    assert pairs == [("A_enc", "D_dec"), ("A_enc", "E_dec"), ("C_enc", "H_dec"),
                     ("F_enc", "B_dec"), ("G_enc", "H_dec")]
    for seed in range(10):
        values = {name: node.property_values
                  for name, node in template.node_templates.items()}
        descriptions = _fix_encryption_by_union_find(
            values, pairs, random.Random(seed))
        fixed, report = verify(template, fix=True, seed=seed)
        assert {name: node.property_values
                for name, node in fixed.node_templates.items()} == values
        assert {tuple(d.nodes): d.fix for d in report} == descriptions
        assert check_encryption(fixed) == []
