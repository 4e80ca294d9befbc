import pytest

from toscaflow import catalog as cat
from toscaflow.errors import (
    CyclicDerivationError,
    CyclicPropertyError,
    IntrinsicArityError,
    ToscaflowError,
    UnknownArtifactError,
    UnknownPropertyError,
    UnknownTemplateError,
    UnknownTypeError,
)
from toscaflow.model import (
    UNBOUNDED,
    CapabilityDefinition,
    NodeTemplate,
    PropertyDefinition,
    RequirementDefinition,
    ServiceTemplate,
    TypeDefinition,
    evaluate_intrinsic,
    is_subtype,
    resolve_type,
)
from toscaflow.parsing import SourceLocation
from toscaflow.planner import PlanStep

CONS_S3 = "radon.nodes.datapipeline.source.ConsS3Bucket"
CONS_GCS = "radon.nodes.datapipeline.source.ConsGCSBucket"


def test_resolve_cons_s3_ancestry_and_merge(defs):
    resolved = resolve_type(CONS_S3, defs)
    assert resolved.ancestry == [
        "radon.nodes.abstract.DataPipeline",
        "radon.nodes.datapipeline.PipelineBlock",
        "radon.nodes.datapipeline.SourcePB",
        "radon.nodes.datapipeline.source.ConsumeDataEndPoint",
        "radon.nodes.datapipeline.source.ConsumeRemote",
        CONS_S3,
    ]
    for prop in ("name", "schedulingStrategy", "schedulingPeriodCRON",
                 "BucketName", "cred_file_path", "Region"):
        assert prop in resolved.properties


def test_resolve_pipeline_block(defs):
    resolved = resolve_type(cat.PIPELINE_BLOCK, defs)
    assert resolved.ancestry == [cat.ABSTRACT_DATA_PIPELINE, cat.PIPELINE_BLOCK]
    assert set(resolved.properties) == {"name", "schedulingStrategy",
                                        "schedulingPeriodCRON"}
    assert set(resolved.attributes) == {"id"}
    assert resolved.properties["schedulingStrategy"].default == "EVENT_DRIVEN"
    assert resolved.properties["schedulingPeriodCRON"].default == "* * * * * ?"


def test_resolve_unknown_type(defs):
    with pytest.raises(UnknownTypeError):
        resolve_type("no.such.Type", defs)


def test_resolve_cycle_raises_not_loops():
    defs = {
        "A": TypeDefinition("A", "node", derived_from="B"),
        "B": TypeDefinition("B", "node", derived_from="A"),
    }
    with pytest.raises(CyclicDerivationError):
        resolve_type("A", defs)


def test_is_subtype_examples(defs):
    assert is_subtype(CONS_GCS, cat.SOURCE_PB, defs)
    assert is_subtype(CONS_GCS, CONS_GCS, defs)
    assert not is_subtype(cat.SOURCE_PB, cat.DESTINATION_PB, defs)
    assert not is_subtype(cat.DESTINATION_PB, cat.SOURCE_PB, defs)


def test_is_subtype_transitive_over_catalog(defs):
    # exhaustive enumeration of the subtype relation on the built-in catalog
    names = sorted(defs)
    ancestries = {name: set(resolve_type(name, defs).ancestry) for name in names}
    pairs = [(a, b) for a in names for b in ancestries[a]]
    for a, b in pairs:
        for c in ancestries[b]:
            assert c in ancestries[a], f"{a} <= {b} <= {c} but not {a} <= {c}"


def test_merged_properties_match_bruteforce_walk(defs):
    # independent oracle: naive re-walk of derived_from unioning properties
    for name in sorted(defs):
        expected = {}
        chain = []
        current = name
        while current is not None:
            chain.append(defs[current])
            current = defs[current].derived_from
        for definition in reversed(chain):
            expected.update(definition.properties)
        assert resolve_type(name, defs).properties == expected


def test_most_derived_property_wins():
    defs = {
        "Base": TypeDefinition("Base", "node", properties={
            "p": PropertyDefinition("p", "string", "base-default")}),
        "Leaf": TypeDefinition("Leaf", "node", derived_from="Base", properties={
            "p": PropertyDefinition("p", "string", "leaf-default")}),
    }
    assert resolve_type("Leaf", defs).properties["p"].default == "leaf-default"
    assert resolve_type("Base", defs).properties["p"].default == "base-default"


RECORD_ERRORS = [
    (PropertyDefinition, {"value_type": "float"},
     "unsupported property type 'float' on 'p'"),
    (PropertyDefinition, {"value_type": "float", "default": "x"},
     "unsupported property type 'float' on 'p'"),
    (PropertyDefinition, {"value_type": "integer", "default": "x"},
     "default 'x' of property 'p' does not fit type 'integer'"),
    (PropertyDefinition, {"value_type": "integer", "default": True},
     "default True of property 'p' does not fit type 'integer'"),
    (PropertyDefinition, {"value_type": "boolean", "default": 1},
     "default 1 of property 'p' does not fit type 'boolean'"),
    (RequirementDefinition, {"occurrences": ("a", 1)},
     "bad minimum occurrence 'a' on r"),
    (RequirementDefinition, {"occurrences": (True, 1)},
     "bad minimum occurrence True on r"),
    (RequirementDefinition, {"occurrences": (-1, 1)},
     "bad minimum occurrence -1 on r"),
    (RequirementDefinition, {"occurrences": (-1, UNBOUNDED)},
     "bad minimum occurrence -1 on r"),
    (RequirementDefinition, {"occurrences": (1.5, UNBOUNDED)},
     "bad minimum occurrence 1.5 on r"),
    (RequirementDefinition, {"occurrences": (1, "x")},
     "bad maximum occurrence 'x' on r"),
    (RequirementDefinition, {"occurrences": (2, 1)}, "bad occurrences (2, 1) on r"),
    (RequirementDefinition, {"occurrences": (0, 0)}, "bad occurrences (0, 0) on r"),
    (CapabilityDefinition, {"occurrences": (2, 1)}, "bad occurrences (2, 1) on c"),
    (CapabilityDefinition, {"occurrences": (0, "x")},
     "bad maximum occurrence 'x' on c"),
    (TypeDefinition, {"kind": "bogus"}, "unsupported type kind 'bogus'"),
]


@pytest.mark.parametrize("record, fields, message", RECORD_ERRORS,
                         ids=[f"{case[0].__name__}: {case[2]}" for case in RECORD_ERRORS])
def test_records_reject_what_breaks_their_rules(record, fields, message):
    name = {PropertyDefinition: "p", RequirementDefinition: "r",
            CapabilityDefinition: "c", TypeDefinition: "T"}[record]
    with pytest.raises(ValueError) as excinfo:
        record(name=name, **fields)
    assert type(excinfo.value) is ValueError
    assert excinfo.value.args == (message,)


def test_records_accept_the_edges_of_their_rules():
    assert PropertyDefinition("p", "boolean", False).default is False
    assert PropertyDefinition("p", "integer", 0).default == 0
    assert RequirementDefinition("r", occurrences=(0, 1)).occurrences == (0, 1)
    assert RequirementDefinition("r", occurrences=(0, UNBOUNDED)).occurrences \
        == (0, UNBOUNDED)
    assert CapabilityDefinition("c", occurrences=(0, 0)).occurrences == (0, 0)


def test_replace_builds_again_through_init_and_keeps_location():
    where = SourceLocation("a.yaml", 2, 3)
    node = NodeTemplate("N", "t", artifacts={"a": "x.py"}, location=where)
    moved = node.replace(type="u")
    assert (moved.type, moved.artifacts, moved.location) == ("u", {"a": "x.py"}, where)
    assert node.type == "t"
    assert PlanStep("A", "create").replace(op="start") == PlanStep("A", "start")
    with pytest.raises(ValueError, match="is not a boolean"):
        PropertyDefinition("p").replace(required="no")
    with pytest.raises(TypeError):
        node.replace(colour="red")


def _minio_template():
    node = NodeTemplate(
        name="ConsMinIO_0",
        type="radon.nodes.datapipeline.source.ConsMinIO",
        property_values={
            "BucketName": "firstbucket",
            "cred_file_path": "{ get_artifact: [SELF, credentials]}",
        },
        artifacts={"credentials": "creds/minio.json"},
    )
    return node, ServiceTemplate(node_templates={node.name: node})


def test_evaluate_literal_identity():
    node, template = _minio_template()
    assert evaluate_intrinsic("eu-west-1", node, template) == "eu-west-1"
    assert evaluate_intrinsic(42, node, template) == 42


def test_evaluate_get_artifact_mapping_and_string_forms():
    node, template = _minio_template()
    assert evaluate_intrinsic({"get_artifact": ["SELF", "credentials"]},
                              node, template) == "creds/minio.json"
    assert evaluate_intrinsic("{ get_artifact: [SELF, credentials]}",
                              node, template) == "creds/minio.json"


def test_string_form_reads_alike_every_time():
    node, template = _minio_template()
    for _ in range(2):  # the second read comes from the memo
        with pytest.raises(ValueError) as error:
            evaluate_intrinsic("{ get_artifact: [SELF] }", node, template)
        assert str(error.value) == "get_artifact expects two arguments, got ['SELF']"
        assert evaluate_intrinsic(" {get_artifact: [SELF, credentials]} ",
                                  node, template) == "creds/minio.json"
        for literal in ("{ not: yaml: here }",
                        "{ get_property: [" + "[\n" * 1000 + "]\n" * 1000 + "] }"):
            assert evaluate_intrinsic(literal, node, template) == literal


def test_intrinsic_arity_error_is_a_toscaflow_error():
    node, template = _minio_template()
    for expr in ({"get_property": ["SELF"]}, "{ get_property: [SELF, a, b] }"):
        with pytest.raises(IntrinsicArityError) as error:
            evaluate_intrinsic(expr, node, template)
        assert isinstance(error.value, ToscaflowError)
        assert isinstance(error.value, ValueError)
    assert str(error.value) == \
        "get_property expects two arguments, got ['SELF', 'a', 'b']"


def test_evaluate_get_property_falls_back_to_default():
    node, template = _minio_template()
    value = evaluate_intrinsic({"get_property": ["SELF", "schedulingStrategy"]},
                               node, template)
    assert value == "EVENT_DRIVEN"


def test_evaluate_get_property_assigned_value():
    node, template = _minio_template()
    value = evaluate_intrinsic({"get_property": ["ConsMinIO_0", "BucketName"]},
                               node, template)
    assert value == "firstbucket"


def test_evaluate_errors():
    node, template = _minio_template()
    with pytest.raises(UnknownArtifactError):
        evaluate_intrinsic({"get_artifact": ["SELF", "nope"]}, node, template)
    with pytest.raises(UnknownPropertyError):
        evaluate_intrinsic({"get_property": ["SELF", "nope"]}, node, template)
    with pytest.raises(UnknownTemplateError):
        evaluate_intrinsic({"get_property": ["Ghost", "BucketName"]},
                           node, template)


def test_evaluate_self_referencing_property_is_a_cycle():
    node, template = _minio_template()
    node.property_values["BucketName"] = {"get_property": ["SELF", "BucketName"]}
    with pytest.raises(CyclicPropertyError, match="ConsMinIO_0.BucketName"):
        evaluate_intrinsic(node.property_values["BucketName"], node, template)


def test_evaluate_two_node_property_cycle():
    python = "radon.nodes.datapipeline.process.ExecutePython"
    a = NodeTemplate("A", python, property_values={
        "script_path": "{ get_property: [B, script_path]}"})
    b = NodeTemplate("B", python, property_values={
        "script_path": {"get_property": ["A", "script_path"]}})
    template = ServiceTemplate(node_templates={"A": a, "B": b})
    with pytest.raises(CyclicPropertyError,
                       match="B.script_path -> A.script_path -> B.script_path"):
        evaluate_intrinsic(a.property_values["script_path"], a, template)
