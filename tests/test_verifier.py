import copy
import random

import pytest

import builders as b
import topology_gen
from bruteforce import diagnostics_as_set, rule_violations
from toscaflow import catalog as cat
from toscaflow import topology, verifier
from toscaflow.errors import (
    HostCycleError,
    MissingHostError,
    NotAPipelineError,
    VerifierNonConvergenceError,
)
from toscaflow.model import (
    RequirementAssignment,
    RequirementDefinition,
    ServiceTemplate,
    TypeDefinition,
)
from toscaflow.parsing import serialize_template
from toscaflow.simulator import instantiate
from toscaflow.topology import Locality, Topology, colocated, host_chain
from toscaflow.verifier import (
    ERROR,
    FIXABLE,
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


def test_host_chain_returns_a_fresh_list_on_each_call(load_fixture):
    topo = Topology(load_fixture("s3_to_gcs.yaml"))
    whole = ["ConsumeS3Bucket", "Nifi_Platform", "EC2_VM", "AWSPlatform"]
    first = topo.host_chain("ConsumeS3Bucket")
    first.append("scribble")
    again = topo.host_chain("ConsumeS3Bucket")
    assert again == whole and again is not first
    again.clear()
    assert topo.host_chain("Nifi_Platform") == whole[1:]  # a suffix of the kept chain
    assert topo.host_chain("ConsumeS3Bucket") == whole


def test_a_host_cycle_keeps_the_message_of_each_start():
    # A sits on B, and B and C on each other; D sits on A
    a, bee, c, d = (b.node(name, cat.COMPUTE, reqs=[("host", host)])
                    for name, host in (("A", "B"), ("B", "C"), ("C", "B"), ("D", "A")))
    topo = Topology(b.template(a, bee, c, d))
    for start, message in [("A", "A -> B -> C -> B"), ("C", "C -> B -> C"),
                           ("D", "D -> A -> B -> C -> B"), ("A", "A -> B -> C -> B")]:
        with pytest.raises(HostCycleError) as excinfo:
            topo.host_chain(start)
        assert str(excinfo.value) == f"host cycle: {message}"


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


_TWO_ON_A_VM = """\
tosca_definitions_version: tosca_simple_yaml_1_3
topology_template:
  node_templates:
    VM:
      type: tosca.nodes.Compute
    P1:
      type: radon.nodes.datapipeline.process.ExecutePython
      properties: {name: p1, script_path: s.py}
      requirements:
        - host: VM
    P2:
      type: radon.nodes.datapipeline.process.ExecutePython
      properties: {name: p2, script_path: s.py}
      requirements:
        - host: VM
"""


def test_one_bad_assignment_on_two_nodes_of_a_type_is_two_located_findings(monkeypatch):
    from toscaflow.parsing import parse_service_template

    judged = []
    faults = verifier._assignment_faults
    monkeypatch.setattr(verifier, "_assignment_faults",
                        lambda *key: judged.append(key[1:]) or faults(*key))
    template = parse_service_template(_TWO_ON_A_VM, filename="two.yaml")
    hosting = [d for d in check_requirements(template) if d.rule == R5_HOSTING]
    assert [(d.nodes, d.message, str(d.location)) for d in hosting] == [
        (["P1", "VM"], f"'P1' requires 'host' on a {cat.NIFI!r} node, but 'VM' is "
                       f"a {cat.COMPUTE!r}", "two.yaml:6:5"),
        (["P2", "VM"], f"'P2' requires 'host' on a {cat.NIFI!r} node, but 'VM' is "
                       f"a {cat.COMPUTE!r}", "two.yaml:11:5")]
    assert len(judged) == 1  # one signature, judged once


def test_each_relationship_override_is_judged_on_its_own():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    overrides = {"S1": cat.CONNECTS_TO, "S2": cat.HOSTED_ON,
                 "S3": cat.CONNECT_NIFI_LOCAL, "S4": cat.CONNECTS_TO}
    sources = [source.replace(name=name, requirement_assignments=[
        source.requirement_assignments[0], RequirementAssignment(
            "connectToPipeline", "Dst", relationship)])
               for name, relationship in overrides.items()]
    found = [(d.nodes, d.message) for d in check_requirements(
        b.template(*stack, *sources, dest))]
    assert found == [
        ([name, "Dst"], f"relationship {overrides[name]!r} on {name!r} is not a "
                        f"subtype of declared {cat.CONNECT_NIFI_LOCAL!r}")
        for name in ("S1", "S2", "S4")]


def test_the_pass_after_a_repair_runs_r1_on_the_repaired_node_alone(load_fixture,
                                                                     monkeypatch):
    checked = []  # every node R1 runs on, pass by pass
    occurrences = verifier._check_occurrences
    monkeypatch.setattr(verifier, "_check_occurrences",
                        lambda name, *rest: checked.append(name) or occurrences(name, *rest))
    template = load_fixture("duplicate_connection.yaml")
    fixed, diagnostics = verify(template, fix=True)
    assert [d.rule for d in diagnostics] == [R3_DUPLICATE_CONN]
    assert [name for name in fixed.node_templates
            if fixed.node_templates[name] is not template.node_templates[name]] \
        == ["ConsS3Bucket"]
    assert checked == sorted(template.node_templates) + ["ConsS3Bucket"]


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


def test_a_finding_is_located_at_its_first_node_outside_its_identity(load_fixture):
    template = load_fixture("duplicate_connection.yaml")
    where = template.node_templates["ConsS3Bucket"].location
    assert (where.line, where.column) == (22, 5)
    fixed, diags = verify(template, fix=True)
    assert diags[0].location is where
    assert check_locality(template)[0].location is where
    assert fixed.node_templates["ConsS3Bucket"].location is where  # repair keeps it
    elsewhere = diags[0].replace(location=None)
    assert elsewhere == diags[0] and elsewhere.key() == diags[0].key()
    assert elsewhere.to_dict() == diags[0].to_dict()
    assert "location" not in diags[0].to_dict()


def test_same_nifi_remote_edge_rewritten_to_local():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.requirement_assignments = [
        b.RequirementAssignment("host", nifi),
        b.RequirementAssignment("connectToPipelineRemote", "Dst"),
    ]
    template = b.template(*stack, source, dest)
    diags = check_locality(template)
    assert [d.rule for d in diags] == [R2_LOCALITY]
    assert diags[0].location is None  # the node was built in code
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


def test_passphrase_repair_rekeys_the_pairs_that_already_agreed(monkeypatch):
    """`E1 -> D1 -> D2` with passphrases a, a, b: the one mismatch is
    (E1, D2), and re-keying only those two would break (E1, D1)."""
    stack, nifi = b.nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}
    source = b.node("Src", b.SRC + "ConsMinIO",
                    props={"name": "s", "BucketName": "in", **minio},
                    reqs=[("host", nifi), ("connectToPipeline", "E1")])
    dest = b.node("Dst", b.DST + "PubsMinIO",
                  props={"name": "d", "BucketName": "out", **minio},
                  reqs=[("host", nifi)])
    ciphers = [b.node(name, kind, props={"name": name, "passphrase": passphrase},
                      reqs=[("host", nifi), ("ConnectToPipeline", target)])
               for name, kind, passphrase, target in [
                   ("E1", cat.ENCRYPT, "a", "D1"), ("D1", cat.DECRYPT, "a", "D2"),
                   ("D2", cat.DECRYPT, "b", "Dst")]]
    template = b.template(*stack, source, dest, *ciphers)
    assert [d.nodes for d in check_encryption(template)] == [["E1", "D2"]]

    monkeypatch.setattr(verifier, "MAX_FIX_PASSES", 1)  # one pass must do
    fixed, report = verify(template, fix=True, seed=5)
    assert [(d.nodes, d.fix) for d in report] == [
        (["E1", "D2"], "assigned a shared passphrase to D1, D2, E1")]
    assert check_encryption(fixed) == []
    passphrases = {fixed.node_templates[name].property_values["passphrase"]
                   for name in ("E1", "D1", "D2")}
    assert len(passphrases) == 1 and passphrases != {"a"}


def test_a_repair_that_breaks_the_next_pair_does_not_converge():
    """Each pass re-keys one pair and breaks the next: three pairs are
    repaired in the three passes allowed, four are not."""
    fixed, report = verify(b.rekey_cascade(3), fix=True, seed=1)
    assert [d.nodes for d in report] == [["E1", "D1"], ["E2", "D2"], ["E3", "D3"]]
    assert check_encryption(fixed) == []
    with pytest.raises(VerifierNonConvergenceError,
                       match="fixable diagnostics remain after 3 fix passes"):
        verify(b.rekey_cascade(4), fix=True, seed=1)


# -- reports pinned on rarely reached branches ------------------------------------

def _report(template, **options):
    return [d.to_dict() for d in verify(template, **options)[1]]


def test_node_of_an_unresolved_type_is_reported_once():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    ghost = b.node("Ghost", "acme.nodes.Missing")
    assert _report(b.template(*stack, source, dest, ghost)) == [
        {"rule": R1_REQ_MATCH, "severity": ERROR, "nodes": ["Ghost"],
         "message": "type 'acme.nodes.Missing' does not resolve", "fix": None}]


def test_assignment_to_a_target_of_an_unresolved_type():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.requirement_assignments[1].target = "Ghost"
    ghost = b.node("Ghost", "acme.nodes.Missing")
    assert _report(b.template(*stack, source, dest, ghost)) == [
        {"rule": R1_REQ_MATCH, "severity": ERROR, "nodes": ["Ghost"],
         "message": "type 'acme.nodes.Missing' does not resolve", "fix": None},
        {"rule": R1_REQ_MATCH, "severity": ERROR, "nodes": ["Src", "Ghost"],
         "message": "target 'Ghost' has unresolvable type 'acme.nodes.Missing'",
         "fix": None}]


_ONE_NIFI = """\
tosca_definitions_version: tosca_simple_yaml_1_3
node_types:
  acme.nodes.Source:
    derived_from: radon.nodes.datapipeline.source.ConsMinIO
    requirements:
      - connectToPipeline:
          capability: radon.capabilities.datapipeline.ConnectToPipeline
          node: radon.nodes.abstract.DataPipeline
          relationship: {relationship}
          occurrences: {occurrences}
topology_template:
  node_templates:
    VM:
      type: tosca.nodes.Compute
    Nifi:
      type: radon.nodes.nifi.Nifi
      properties: {{component_version: "1.14.0"}}
      requirements:
        - host: VM
    Src:
      type: acme.nodes.Source
      properties: {{name: s, BucketName: in, cred_file_path: c, MinIO_Endpoint: e}}
      requirements:
        - host: Nifi
{connections}
    Dst:
      type: radon.nodes.datapipeline.destination.PubsMinIO
      properties: {{name: d, BucketName: out, cred_file_path: c, MinIO_Endpoint: e}}
      requirements:
        - host: Nifi
    Dst2:
      type: radon.nodes.datapipeline.destination.PubsMinIO
      properties: {{name: d2, BucketName: out2, cred_file_path: c, MinIO_Endpoint: e}}
      requirements:
        - host: Nifi
"""


def _one_nifi(relationship, occurrences, *connections):
    from toscaflow.parsing import parse_service_template

    return parse_service_template(_ONE_NIFI.format(
        relationship=relationship, occurrences=occurrences,
        connections="\n".join(f"        - {name}: {target}"
                              for name, target in connections)))


def test_connection_filled_past_a_bounded_maximum():
    template = _one_nifi(cat.CONNECT_NIFI_LOCAL, "[1, 1]",
                         ("connectToPipeline", "Dst"), ("connectToPipeline", "Dst2"))
    assert _report(template) == [
        {"rule": R1_REQ_MATCH, "severity": ERROR, "nodes": ["Src"],
         "message": "'Src' fills requirement 'connectToPipeline' 2 times, "
                    "maximum is 1", "fix": None}]


_WRONG_KIND = "connection 'Src' -> '{}' uses a remote relationship but the " \
              "blocks are local"


def _assigned(template):
    return [(a.name, a.target, a.relationship)
            for a in template.node_templates["Src"].requirement_assignments]


def test_kind_repair_without_a_legal_rewrite_is_an_error():
    # both connection requirements of the type are remote, and R1 rejects
    # the local kind as an override of either, so no rewrite is legal
    template = _one_nifi(cat.CONNECT_NIFI_REMOTE, "[1, UNBOUNDED]",
                         ("connectToPipelineRemote", "Dst"),
                         ("connectToPipeline", "Dst2"))
    report = [{"rule": R2_LOCALITY, "severity": ERROR, "nodes": ["Src", target],
               "message": _WRONG_KIND.format(target), "fix": None}
              for target in ("Dst", "Dst2")]
    assert _report(template) == report
    fixed, diagnostics = verify(template, fix=True)
    assert [d.to_dict() for d in diagnostics] == report
    assert _assigned(fixed) == _assigned(template) == [
        ("host", "Nifi", None), ("connectToPipelineRemote", "Dst", None),
        ("connectToPipeline", "Dst2", None)]


def test_duplicate_repair_without_a_legal_rewrite_keeps_the_first_kind():
    template = _one_nifi(cat.CONNECT_NIFI_REMOTE, "[1, UNBOUNDED]",
                         ("connectToPipelineRemote", "Dst"),
                         ("connectToPipeline", "Dst"))
    duplicates = {"rule": R3_DUPLICATE_CONN, "severity": FIXABLE, "nodes": ["Src", "Dst"],
                  "message": "2 connections between 'Src' and 'Dst'; blocks are local, "
                             f"exactly one {cat.CONNECT_NIFI_LOCAL!r} belongs here",
                  "fix": None}
    assert _report(template) == [duplicates]
    fixed, diagnostics = verify(template, fix=True)
    assert [d.to_dict() for d in diagnostics] == [
        {**duplicates, "fix": "dropped 1 duplicate connection(s)"},
        {"rule": R2_LOCALITY, "severity": ERROR, "nodes": ["Src", "Dst"],
         "message": _WRONG_KIND.format("Dst"), "fix": None}]
    assert _assigned(fixed) == [("host", "Nifi", None),
                                ("connectToPipelineRemote", "Dst", None)]


def test_a_kind_repair_that_overfills_a_requirement_is_found_on_the_next_pass():
    template = _one_nifi(cat.CONNECT_NIFI_LOCAL, "[1, 1]",
                         ("connectToPipelineRemote", "Dst"), ("connectToPipeline", "Dst2"))
    assert _report(template, fix=True) == [
        {"rule": R2_LOCALITY, "severity": FIXABLE, "nodes": ["Src", "Dst"],
         "message": _WRONG_KIND.format("Dst"),
         "fix": f"rewrote the connection to {cat.CONNECT_NIFI_LOCAL!r}"},
        {"rule": R1_REQ_MATCH, "severity": ERROR, "nodes": ["Src"],
         "message": "'Src' fills requirement 'connectToPipeline' 2 times, maximum is 1",
         "fix": None}]


def _blueprint(bench):
    from toscaflow.parsing import parse_service_template

    return parse_service_template(bench[0].blueprint_scale(1).blueprint, "b.yaml")


def _host_renaming():
    """A relay whose `host` requirement is a remote pipeline connection,
    hosted on B (NiFi 0) and connected to C (NiFi 1).  The two R2 repairs
    swap the names of its two assignments, so its host, and with it its
    NiFi, moves on every pass."""
    relay = TypeDefinition("acme.Relay", "node", derived_from=b.PRC + "ExecutePython",
                           requirements=[RequirementDefinition(
                               "host", cat.CONNECT_TO_PIPELINE_CAP,
                               relationship_type=cat.CONNECT_NIFI_REMOTE,
                               occurrences=(1, 1))])
    nodes = [*b.nifi_stack(0)[0], *b.nifi_stack(1)[0],
             b.node("B", b.PRC + "ExecutePython", reqs=[("host", "Nifi_0")]),
             b.node("C", b.PRC + "ExecutePython", reqs=[("host", "Nifi_1")]),
             b.node("A", "acme.Relay", reqs=[("host", "B"), ("ConnectToPipeline", "C")])]
    return ServiceTemplate(user_types=[relay], node_templates={n.name: n for n in nodes})


def test_a_repair_that_moves_a_host_assignment_does_not_converge():
    assert [(d.rule, d.nodes) for d in verify(_host_renaming())[1]
            if d.severity == FIXABLE] == [(R2_LOCALITY, ["A", "B"]),
                                          (R2_LOCALITY, ["A", "C"])]
    with pytest.raises(VerifierNonConvergenceError,
                       match="fixable diagnostics remain after 3 fix passes"):
        verify(_host_renaming(), fix=True)


@pytest.mark.parametrize("make", [
    lambda load, bench: load("duplicate_connection.yaml"),
    lambda load, bench: load("encrypt_mismatch.yaml"),
    lambda load, bench: b.rekey_cascade(3),
    lambda load, bench: _one_nifi(cat.CONNECT_NIFI_LOCAL, "[1, 1]",
                                  ("connectToPipelineRemote", "Dst"),
                                  ("connectToPipeline", "Dst2")),
    lambda load, bench: _one_nifi(cat.CONNECT_NIFI_REMOTE, "[1, UNBOUNDED]",
                                  ("connectToPipelineRemote", "Dst"),
                                  ("connectToPipeline", "Dst")),
    lambda load, bench: _blueprint(bench),
    lambda load, bench: _host_renaming(),
], ids=["duplicate", "passphrases", "cascade", "overfill", "no-rewrite", "blueprint",
        "host-renaming"])
def test_the_passes_after_a_repair_find_what_full_passes_find(make, load_fixture, bench,
                                                              monkeypatch):
    """The carried view and the R1/R5 scope give what full passes on fresh
    views give."""
    def outcome():
        try:
            fixed, diagnostics = verify(template, fix=True, seed=3)
        except VerifierNonConvergenceError as exc:
            return str(exc), None
        return ([(d.to_dict(), d.location) for d in diagnostics],
                serialize_template(fixed))

    template = make(load_fixture, bench)
    carried = outcome()
    run_checks = verifier._run_checks
    monkeypatch.setattr(Topology, "_repaired", lambda topo, template, replaced:
                        Topology(template))
    monkeypatch.setattr(verifier, "_run_checks", lambda topo, changed=None: run_checks(topo))
    assert carried == outcome()
    assert carried[1] is None or any(d["fix"] for d, _ in carried[0])


def test_a_repair_carries_one_view_through_its_passes(bench, monkeypatch):
    """verify(fix=True) builds one Topology for its two passes on the
    blueprint, and resolves no type more than one pass does."""
    views, passes, resolved = [], [], []
    init, run_checks = Topology.__init__, verifier._run_checks
    resolve = topology.resolve_type
    monkeypatch.setattr(Topology, "__init__", lambda topo, template:
                        views.append(topo) or init(topo, template))
    monkeypatch.setattr(verifier, "_run_checks", lambda topo, changed=None:
                        passes.append(topo) or run_checks(topo, changed))
    monkeypatch.setattr(topology, "resolve_type", lambda *args:
                        resolved.append(args[0]) or resolve(*args))
    template = _blueprint(bench)
    verify(template)
    one_pass = len(resolved)
    del views[:], passes[:], resolved[:]
    verify(template, fix=True, seed=1)
    assert len(views) == 1 and len(passes) == 2
    assert len(resolved) <= one_pass


def test_kind_repair_overrides_a_relationship_r1_accepts():
    # the local-side requirement declares only ConnectsTo, which the local
    # kind refines; the type has no requirement of the local kind itself
    remote = f"{{node: Dst, relationship: {cat.CONNECT_NIFI_REMOTE}}}"
    template = _one_nifi(cat.CONNECTS_TO, "[1, UNBOUNDED]",
                         ("connectToPipeline", remote))
    fixed, diagnostics = verify(template, fix=True)
    assert [d.to_dict() for d in diagnostics] == [
        {"rule": R2_LOCALITY, "severity": FIXABLE, "nodes": ["Src", "Dst"],
         "message": _WRONG_KIND.format("Dst"),
         "fix": f"rewrote the connection to {cat.CONNECT_NIFI_LOCAL!r}"}]
    assert _assigned(fixed) == [("host", "Nifi", None),
                                ("connectToPipeline", "Dst", cat.CONNECT_NIFI_LOCAL)]
    assert _report(fixed) == []


@pytest.mark.parametrize("base, locality", [(cat.CONNECT_NIFI_LOCAL, Locality.LOCAL),
                                            (cat.CONNECT_NIFI_REMOTE, Locality.REMOTE)])
def test_a_kind_derived_from_a_connection_kind_asserts_its_locality(base, locality):
    kind = TypeDefinition("acme.relationships.Derived", "relationship", derived_from=base)
    topo = Topology(ServiceTemplate(user_types=[kind]))
    assert topo.kind_locality(kind.name) is locality


def test_connection_of_neither_kind_draws_no_r2():
    stack, nifi, source, dest = _stacked_pipeline_pair()
    source.requirement_assignments[1].relationship = cat.CONNECTS_TO
    template = b.template(*stack, source, dest)
    assert Topology(template).kind_locality(cat.CONNECTS_TO) is None
    report = [{"rule": R1_REQ_MATCH, "severity": ERROR, "nodes": ["Src", "Dst"],
               "message": f"relationship {cat.CONNECTS_TO!r} on 'Src' is not a "
                          f"subtype of declared {cat.CONNECT_NIFI_LOCAL!r}",
               "fix": None}]
    assert _report(template) == report
    assert _report(template, fix=True) == report
