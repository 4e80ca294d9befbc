import inspect
import pathlib

import pytest

import excerpts
from toscaflow import catalog as cat
from toscaflow import parsing
from toscaflow.errors import (
    DuplicateTemplateNameError,
    SchemaError,
    TemplateSyntaxError,
)
from toscaflow.parsing import (
    parse_definitions,
    parse_node_templates_fragment,
    parse_requirements_fragment,
    parse_service_template,
    serialize_template,
)


def test_pipeline_block_excerpt_matches_catalog(defs):
    parsed = parse_definitions(excerpts.PIPELINE_BLOCK_TYPE)
    assert len(parsed) == 1
    definition = parsed[0]
    assert definition.name == cat.PIPELINE_BLOCK
    assert len(definition.properties) == 3
    assert len(definition.attributes) == 1
    assert definition == defs[cat.PIPELINE_BLOCK]


def test_capability_excerpt_matches_catalog(defs):
    parsed = parse_definitions(excerpts.CONNECT_TO_PIPELINE_CAPABILITY_TYPE)
    assert len(parsed) == 1
    definition = parsed[0]
    assert definition.kind == "capability"
    assert definition.derived_from == "tosca.capabilities.Endpoint"
    assert definition == defs[cat.CONNECT_TO_PIPELINE_CAP]


def test_definitions_document_without_version_but_with_types_is_accepted(defs):
    parsed = parse_definitions(excerpts.NIFI_TYPE)
    assert parsed[0] == defs[cat.NIFI]


def test_empty_document_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_definitions("")


def test_requirements_fragment_matches_source_pb(defs):
    reqs = parse_requirements_fragment(excerpts.SOURCE_PB_REQUIREMENTS)
    assert reqs == defs[cat.SOURCE_PB].requirements


def test_cons_minio_excerpt_values():
    nodes = parse_node_templates_fragment(excerpts.CONS_MINIO_NODE)
    node = nodes["ConsMinIO_0"]
    assert node.type == "radon.nodes.datapipeline.source.ConsMinIO"
    assert node.property_values["BucketName"] == "firstbucket"
    assert node.property_values["MinIO_Endpoint"] == "http://172.17.25.36:8089"
    assert node.property_values["schedulingStrategy"] == "EVENT_DRIVEN"
    assert node.property_values["schedulingPeriodCRON"] == "* * * * * ?"
    assert node.property_values["cred_file_path"] == \
        "{ get_artifact: [SELF, credentials]}"


def test_pub_gcs_excerpt_values():
    nodes = parse_node_templates_fragment(excerpts.PUB_GCS_NODE)
    node = nodes["PubGCS_0"]
    assert node.property_values["BucketName"] == "radongcs"
    assert node.property_values["ProjectID"] == "radon-825040-utr"


def test_duplicate_template_names_rejected():
    text = """\
tosca_definitions_version: tosca_simple_yaml_1_3
topology_template:
  node_templates:
    X:
      type: tosca.nodes.Compute
    X:
      type: tosca.nodes.Compute
"""
    with pytest.raises(DuplicateTemplateNameError):
        parse_service_template(text)


def test_syntax_error_carries_location():
    text = "tosca_definitions_version: 1\nnode_types:\n  - bad\n  broken: [\n"
    with pytest.raises(TemplateSyntaxError) as excinfo:
        parse_definitions(text, filename="broken.yaml")
    location = excinfo.value.location
    assert location is not None
    assert location.file == "broken.yaml"
    assert 1 <= location.line <= text.count("\n") + 1
    assert location.column >= 1


NODE_A = """\
tosca_definitions_version: tosca_simple_yaml_1_3
topology_template:
  node_templates:
    A:
"""


@pytest.mark.parametrize("body, message, column", [
    ("      type: !foo tosca.nodes.Compute\n",
     "could not determine a constructor for the tag '!foo'", 13),
    ("      type: 2020-13-45\n", "month must be in 1..12", 13),
    ("      type: tosca.nodes.Com\0pute\n",
     "unacceptable character #x0000: special characters are not allowed", 28),
    ("      type: !!int\n", "a value does not match its tag", 13),
    ("      type: !!bool maybe\n", "a value does not match its tag", 13),
    ("      type: !!timestamp noon\n", "a value does not match its tag", 13),
])
def test_unreadable_scalars_are_located_syntax_errors(body, message, column):
    with pytest.raises(TemplateSyntaxError) as excinfo:
        parse_service_template(NODE_A + body, filename="a.yaml")
    assert str(excinfo.value) == message
    assert str(excinfo.value.location) == f"a.yaml:5:{column}"


def test_recursive_alias_is_a_located_syntax_error():
    text = NODE_A + "      type: tosca.nodes.Compute\n      properties: {a: &x [*x]}\n"
    with pytest.raises(TemplateSyntaxError,
                       match="unconstructable recursive node") as excinfo:
        parse_service_template(text, filename="a.yaml")
    assert str(excinfo.value.location) == "a.yaml:6:23"


def test_nul_is_located_past_unicode_line_breaks():
    with pytest.raises(TemplateSyntaxError) as excinfo:
        parse_definitions("a: 1\r\nb: 2\u2028c\0", filename="d.yaml")
    assert str(excinfo.value.location) == "d.yaml:3:2"


REQUIREMENT_TYPE = """\
tosca_definitions_version: tosca_simple_yaml_1_3
node_types:
  acme.nodes.Needy:
    derived_from: tosca.nodes.Root
    requirements:
      - dependency:
          capability: tosca.capabilities.Node
          node: tosca.nodes.Root
          relationship: tosca.relationships.DependsOn
          occurrences: OCCURRENCES
"""
CAPABILITY_TYPE = """\
tosca_definitions_version: tosca_simple_yaml_1_3
node_types:
  acme.nodes.Offering:
    derived_from: tosca.nodes.Root
    capabilities:
      feature:
        type: tosca.capabilities.Node
        occurrences: OCCURRENCES
"""


@pytest.mark.parametrize("document, occurrences, name, location", [
    (REQUIREMENT_TYPE, "[3, 1]", "dependency", "t.yaml:6:9"),
    (REQUIREMENT_TYPE, "[0, 0]", "dependency", "t.yaml:6:9"),
    (CAPABILITY_TYPE, "[2, 1]", "feature", "t.yaml:6:7"),
])
def test_occurrences_the_model_rejects_are_schema_errors(document, occurrences, name,
                                                         location):
    document = document.replace("OCCURRENCES", occurrences)
    template = document + "topology_template:\n  node_templates: {}\n"
    for parse, text in ((parse_definitions, document),
                        (parse_service_template, template)):
        with pytest.raises(SchemaError, match=f"bad occurrences .* on {name}") \
                as excinfo:
            parse(text, filename="t.yaml")
        assert str(excinfo.value.location) == location


def test_unknown_template_property_is_an_error():
    text = excerpts.CONS_MINIO_NODE.replace("BucketName", "BucketNome")
    with pytest.raises(SchemaError):
        parse_node_templates_fragment(text)


def test_missing_required_property_is_an_error(fixture_path):
    text = (pathlib.Path(fixture_path("s3_to_gcs.yaml")).read_text(encoding="utf-8")
            .replace("        Region: eu-west-1\n", ""))
    with pytest.raises(SchemaError):
        parse_service_template(text)


def test_unknown_top_level_key_warns():
    text = excerpts.PIPELINE_BLOCK_TYPE + "something_else: 1\n"
    with pytest.warns(UserWarning):
        parse_definitions(text)


def test_unknown_requirement_target_is_an_error():
    text = """\
tosca_definitions_version: tosca_simple_yaml_1_3
topology_template:
  node_templates:
    VM:
      type: tosca.nodes.Compute
      requirements:
        - host: Ghost
"""
    with pytest.raises(SchemaError):
        parse_service_template(text)


@pytest.mark.parametrize("name", ["s3_to_gcs.yaml", "duplicate_connection.yaml", "image_pipeline.yaml",
                                  "cyclic.yaml", "encrypt_mismatch.yaml"])
def test_round_trip_is_stable(name, load_fixture):
    template = load_fixture(name)
    once = serialize_template(template)
    again = parse_service_template(once, filename=name)
    assert again == template
    assert serialize_template(again) == once


def test_empty_topology_serializes_and_parses():
    from toscaflow.model import ServiceTemplate

    text = serialize_template(ServiceTemplate())
    parsed = parse_service_template(text)
    assert parsed.node_templates == {}


def test_round_trip_random_clean_topologies():
    import topology_gen
    from toscaflow.planner import plan

    for seed in range(25):
        template = topology_gen.random_clean_dag(seed)
        text = serialize_template(template)
        reparsed = parse_service_template(text, filename=f"seed{seed}.yaml")
        assert reparsed == template
        assert plan(reparsed) == plan(template)


def test_round_trip_with_inline_user_types():
    text = """\
tosca_definitions_version: tosca_simple_yaml_1_3
node_types:
  acme.nodes.CustomBlock:
    derived_from: radon.nodes.datapipeline.MidwayPB
    properties:
      knob:
        type: integer
        default: 3
    attributes:
      block_id:
        type: string
        default: block-7
topology_template:
  node_templates:
    VM:
      type: tosca.nodes.Compute
    Nifi:
      type: radon.nodes.nifi.Nifi
      properties:
        component_version: "1.14.0"
      requirements:
        - host: VM
    Custom:
      type: acme.nodes.CustomBlock
      properties:
        name: custom
        knob: 5
      requirements:
        - host: Nifi
        - ConnectToPipeline: Custom
"""
    template = parse_service_template(text)
    assert len(template.user_types) == 1
    assert template.user_types[0].properties["knob"].default == 3
    assert template.user_types[0].attributes["block_id"].default == "block-7"
    once = serialize_template(template)
    assert parse_service_template(once) == template
    assert serialize_template(parse_service_template(once)) == once


INLINE_OVERLAY = """\
tosca_definitions_version: tosca_simple_yaml_1_3
node_types:
  acme.nodes.TaggedS3Source:
    derived_from: radon.nodes.datapipeline.source.ConsS3Bucket
    properties:
      tag:
        type: string
        required: false
  radon.nodes.datapipeline.destination.PubGCS:
    derived_from: radon.nodes.datapipeline.destination.PublishRemote
    properties:
      BucketName:
        type: string
      cred_file_path:
        type: string
      ProjectID:
        type: string
      StorageClass:
        type: string
        default: NEARLINE
      Retention:
        type: integer
        required: false
topology_template:
  node_templates:
""" + "\n".join((pathlib.Path(__file__).parent / "fixtures" / "s3_to_gcs.yaml")
                .read_text(encoding="utf-8")
                .replace("radon.nodes.datapipeline.source.ConsS3Bucket",
                         "acme.nodes.TaggedS3Source")
                .replace("        Region: eu-west-1\n",
                         "        Region: eu-west-1\n"
                         "        tag: { get_property: [PublishGoogleBucket, "
                         "StorageClass] }\n")
                .replace("        ProjectID: demo-project\n",
                         "        ProjectID: demo-project\n"
                         "        Retention: 30\n")
                .split("\n")[4:])


def test_inline_types_overlay_the_catalog_in_every_layer():
    from toscaflow.planner import plan, validate_plan
    from toscaflow.simulator import instantiate
    from toscaflow.topology import Topology
    from toscaflow.verifier import verify

    template = parse_service_template(INLINE_OVERLAY)
    with pytest.raises(SchemaError, match="Retention"):
        parse_service_template(INLINE_OVERLAY.replace(
            "radon.nodes.datapipeline.destination.PubGCS:\n",
            "acme.nodes.Unused:\n"))

    topo = Topology(template)
    source = topo.resolved_node("ConsumeS3Bucket")
    assert "tag" in source.properties
    assert "radon.nodes.datapipeline.source.ConsS3Bucket" in source.ancestry
    assert "StorageClass" in topo.resolved_node("PublishGoogleBucket").properties
    assert topo.effective_property("ConsumeS3Bucket", "tag") == "NEARLINE"

    assert verify(template) == (template, [])
    assert validate_plan(plan(template), template)

    flow = instantiate(template)
    assert flow.blocks["ConsumeS3Bucket"].source == ("s3", "demo-source")
    assert flow.blocks["PublishGoogleBucket"].destination == ("gcs", "demo-dest")


def _nested_property(levels, separator):
    return ("tosca_definitions_version: tosca_simple_yaml_1_3\n"
            "topology_template:\n"
            "  node_templates:\n"
            "    A:\n"
            "      type: tosca.nodes.Compute\n"
            "      properties:\n"
            "        a: " + separator.join("[" * levels) + separator.join("]" * levels)
            + "\n")


@pytest.mark.parametrize("levels, separator", [(600, ""), (600, "\n"), (5000, "\n")],
                         ids=["600 on one line", "600 a line each", "5000 a line each"])
def test_deep_nesting_is_a_located_syntax_error(levels, separator):
    # one line is too long for libyaml's nesting bound, so the pure
    # composer stops; 600 levels a line each compose and fail to construct
    with pytest.raises(TemplateSyntaxError, match="^nested too deep$") as error:
        parse_service_template(_nested_property(levels, separator), "deep.yaml")
    assert str(error.value.location) == "deep.yaml:7:12"


# --------------------------------------------------------------------------
# every shape error of the parse half, pinned by class, message and location
# --------------------------------------------------------------------------

V = "tosca_definitions_version: tosca_simple_yaml_1_3\n"
TOPOLOGY = "topology_template:\n  node_templates:\n"
NODE_TYPE = V + "node_types:\n  T:\n"                  # a type body at column 5
NODE = V + TOPOLOGY + "    X:\n      type: tosca.nodes.Compute\n"
REQUIREMENT = "capability: C, node: N, relationship: R"

D, T = parse_definitions, parse_service_template
R, N = parse_requirements_fragment, parse_node_templates_fragment

SHAPE_ERRORS = [
    # documents that are empty or not a mapping
    (D, "", SchemaError, "definitions document is empty", "1:1"),
    (T, "# nothing\n", SchemaError, "service template is empty", "1:1"),
    (R, "", SchemaError, "requirements fragment is empty", "1:1"),
    (N, "", SchemaError, "node templates fragment is empty", "1:1"),
    (D, "42\n", SchemaError, "definitions document must be a mapping", "1:1"),
    (T, "- a\n", SchemaError, "service template must be a mapping", "1:1"),
    (R, "[a]\n", SchemaError, "requirements fragment must be a mapping", "1:1"),
    (N, "x\n", SchemaError, "node templates fragment must be a mapping", "1:1"),
    # keys
    (D, V + "1: x\n", SchemaError, "mapping key 1 is not a string", "2:1"),
    (T, V + V, SchemaError, "duplicate key 'tosca_definitions_version'", "2:1"),
    (D, NODE_TYPE + "    properties:\n      p: {type: string, type: integer}\n",
     SchemaError, "duplicate key 'type'", "5:25"),
    (T, NODE + "    X:\n      type: tosca.nodes.Compute\n",
     DuplicateTemplateNameError, "duplicate key 'X'", "6:5"),
    (N, "X: {type: tosca.nodes.Compute}\nX: {}\n",
     DuplicateTemplateNameError, "duplicate key 'X'", "2:1"),
    (T, NODE + "      properties: {null: 1}\n",
     SchemaError, "mapping key None is not a string", "6:20"),
    # definitions documents
    (D, "description: d\n", SchemaError, "missing tosca_definitions_version", "1:1"),
    (D, V + "node_types: [a]\n", SchemaError, "node_types must be a mapping", "2:13"),
    (D, V + "capability_types: [a]\n", SchemaError,
     "capability_types must be a mapping", "2:19"),
    (T, V + "relationship_types: [a]\n" + TOPOLOGY, SchemaError,
     "relationship_types must be a mapping", "2:21"),
    (D, V + "node_types:\n  T: [a]\n", SchemaError, "type 'T' must be a mapping",
     "3:6"),
    (D, NODE_TYPE + "    properties: [a]\n", SchemaError,
     "properties must be a mapping", "4:17"),
    (D, NODE_TYPE + "    properties:\n", SchemaError,
     "properties must be a mapping", "4:16"),
    (D, NODE_TYPE + "    properties: {p: [a]}\n", SchemaError,
     "property 'p' must be a mapping", "4:21"),
    (D, NODE_TYPE + "    properties: {p: {type: float}}\n", SchemaError,
     "unsupported property type 'float' on 'p'", "4:18"),
    (D, NODE_TYPE + "    properties: {p: {type: integer, default: x}}\n",
     SchemaError, "default 'x' of property 'p' does not fit type 'integer'", "4:18"),
    (D, NODE_TYPE + "    attributes: 5\n", SchemaError,
     "attributes must be a mapping", "4:17"),
    (D, NODE_TYPE + "    attributes: {a: [b]}\n", SchemaError,
     "attribute 'a' must be a mapping", "4:21"),
    (D, NODE_TYPE + "    requirements: {}\n", SchemaError,
     "requirements must be a list", "4:19"),
    (D, NODE_TYPE + "    requirements: [a]\n", SchemaError,
     "requirement entry must be a mapping", "4:20"),
    (D, NODE_TYPE + "    requirements: [{}]\n", SchemaError,
     "each requirement entry holds exactly one name", "4:20"),
    (D, NODE_TYPE + "    requirements: [{a: {" + REQUIREMENT + "}, b: {}}]\n",
     SchemaError, "each requirement entry holds exactly one name", "4:20"),
    (D, NODE_TYPE + "    requirements:\n      - r:\n", SchemaError,
     "requirement 'r' must be a mapping", "5:11"),
    (D, NODE_TYPE + "    requirements: [{r: {capability: C, node: N}}]\n",
     SchemaError, "requirement 'r' lacks 'relationship'", "4:21"),
    (D, NODE_TYPE + "    requirements: [{r: {" + REQUIREMENT + ", occurrences: 1}}]\n",
     SchemaError, "occurrences of r must be [min, max]", "4:21"),
    (D, NODE_TYPE + "    requirements: [{r: {" + REQUIREMENT
     + ", occurrences: [-1, 1]}}]\n",
     SchemaError, "bad minimum occurrence -1 on r", "4:21"),
    (D, NODE_TYPE + "    requirements: [{r: {" + REQUIREMENT
     + ", occurrences: [1, many]}}]\n",
     SchemaError, "bad maximum occurrence 'many' on r", "4:21"),
    (R, "requirements:\n  - a: {" + REQUIREMENT + "}\n  - b\n", SchemaError,
     "requirement entry must be a mapping", "3:5"),
    (R, "other: 1\n", SchemaError, "fragment has no 'requirements' key", "1:1"),
    (R, "requirements: a\n", SchemaError, "requirements must be a list", "1:15"),
    (D, NODE_TYPE + "    capabilities: []\n", SchemaError,
     "capabilities must be a mapping", "4:19"),
    (D, NODE_TYPE + "    capabilities: {c: x}\n", SchemaError,
     "capability 'c' must be a mapping", "4:23"),
    (D, NODE_TYPE + "    capabilities: {c: {occurrences: [0, 1]}}\n", SchemaError,
     "capability 'c' lacks 'type'", "4:20"),
    (D, NODE_TYPE + "    capabilities: {c: {type: C, valid_source_types: S}}\n",
     SchemaError, "valid_source_types of 'c' must be a list", "4:20"),
    # service templates and node templates
    (T, TOPOLOGY, SchemaError, "missing tosca_definitions_version", "1:1"),
    (T, V, SchemaError, "missing topology_template", "1:1"),
    (T, V + "topology_template: [a]\n", SchemaError,
     "topology_template must be a mapping", "2:20"),
    (T, V + "topology_template: {}\n", SchemaError,
     "topology_template has no node_templates", "2:20"),
    (T, V + "topology_template:\n  node_templates: 5\n", SchemaError,
     "node_templates must be a mapping", "3:19"),
    (T, V + "topology_template:\n  node_templates: [a]\n", SchemaError,
     "node_templates must be a mapping", "3:19"),
    (T, V + TOPOLOGY + "    X: tosca.nodes.Compute\n", SchemaError,
     "node template 'X' must be a mapping", "4:8"),
    (N, "X:\n", SchemaError, "node template 'X' must be a mapping", "1:3"),
    (T, V + TOPOLOGY + "    X: {}\n", SchemaError,
     "node template 'X' has no type", "4:5"),
    (T, NODE + "      interfaces: {}\n", SchemaError,
     "unknown key 'interfaces' on node template 'X'", "6:7"),
    (T, V + TOPOLOGY + "    X: {type: acme.Missing}\n", SchemaError,
     "node template 'X': unknown type 'acme.Missing'", "4:5"),
    (T, NODE + "      properties: [a]\n", SchemaError,
     "properties of 'X' must be a mapping", "6:19"),
    (N, "X: {type: tosca.nodes.Compute, properties: {p: 1}}\n", SchemaError,
     "node template 'X' assigns unknown property 'p'", "1:1"),
    (T, V + TOPOLOGY + "    X: {type: radon.nodes.nifi.Nifi}\n", SchemaError,
     "node template 'X' misses required property 'component_version'", "4:5"),
    (T, NODE + "      artifacts: a\n", SchemaError,
     "artifacts of 'X' must be a mapping", "6:18"),
    (T, NODE + "      artifacts: {a: {type: t}}\n", SchemaError,
     "artifact 'a' needs a file path", "6:19"),
    (T, NODE + "      requirements: {host: X}\n", SchemaError,
     "requirements of 'X' must be a list", "6:21"),
    (T, NODE + "      requirements: [host]\n", SchemaError,
     "requirement assignment must be a mapping", "6:22"),
    (T, NODE + "      requirements: [{}]\n", SchemaError,
     "each requirement assignment holds exactly one name", "6:22"),
    (T, NODE + "      requirements: [{host: X, other: X}]\n", SchemaError,
     "each requirement assignment holds exactly one name", "6:22"),
    (N, "X:\n  type: tosca.nodes.Compute\n  requirements:\n    - host: Y\n"
     "    - [b]\n", SchemaError, "requirement assignment must be a mapping", "5:7"),
    (T, NODE + "      requirements: [{host: {node: X, capability: c}}]\n",
     SchemaError, "requirement 'host' has unsupported keys ['capability']", "6:23"),
    (T, NODE + "      requirements: [{host: {relationship: R}}]\n", SchemaError,
     "requirement 'host' assignment lacks 'node'", "6:23"),
    (T, NODE + "      requirements: [{host: [X]}]\n", SchemaError,
     "requirement 'host' must name a target", "6:23"),
    (T, NODE + "      requirements: [{host: Y}]\n", SchemaError,
     "node 'X' requirement 'host' targets unknown template 'Y'", "4:5"),
]


@pytest.mark.parametrize("parse, text, error, message, location", SHAPE_ERRORS,
                         ids=[f"{case[0].__name__}: {case[3]}" for case in SHAPE_ERRORS])
def test_each_shape_error_keeps_its_class_message_and_location(parse, text, error,
                                                               message, location):
    with pytest.raises(SchemaError) as excinfo:
        parse(text, filename="p.yaml")
    assert type(excinfo.value) is error
    assert excinfo.value.args[0] == message
    assert str(excinfo.value.location) == f"p.yaml:{location}"


def test_empty_and_scalar_bodies_read_as_empty():
    from toscaflow.model import AttributeDefinition, PropertyDefinition

    assert parse_definitions(V + "node_types: 5\ncapability_types:\n") == []
    for body in ("", " 5", " ~", " text"):
        (definition,) = parse_definitions(NODE_TYPE[:-1] + body + "\n")
        assert (definition.name, definition.kind, definition.derived_from,
                definition.properties, definition.attributes, definition.requirements,
                definition.capabilities, definition.metadata) \
            == ("T", "node", None, {}, {}, [], {}, {})
        assert str(definition.location) == "<string>:3:3"
    (definition,) = parse_definitions(
        NODE_TYPE + "    metadata: [a]\n    properties: {p: , q: 1}\n"
        "    attributes: {a: , b: x}\n")
    assert definition.metadata == {}
    assert definition.properties == {"p": PropertyDefinition("p", "string", None, True),
                                     "q": PropertyDefinition("q", "string", None, True)}
    assert definition.attributes == {"a": AttributeDefinition("a", "string", None),
                                     "b": AttributeDefinition("b", "string", None)}
    for nothing in ("", " ~", " null"):
        template = parse_service_template(V + TOPOLOGY[:-1] + nothing + "\n")
        assert template.node_templates == {}


def _attributed_to(record):
    """'test' for a warning pointing at this file, else the parsing
    function whose source holds the line it points at."""
    if record.filename == __file__:
        return "test"
    for name, function in vars(parsing).items():
        if inspect.isfunction(function) and function.__module__ == parsing.__name__:
            lines, start = inspect.getsourcelines(function)
            if start <= record.lineno < start + len(lines):
                return name
    return record.filename, record.lineno


@pytest.mark.parametrize("parse, text, message, attributed_to", [
    (D, NODE_TYPE + "x: 1\n", "p.yaml:4:1: ignoring unknown top-level key 'x'", "test"),
    (T, V + "x: 1\n" + TOPOLOGY, "p.yaml:2:1: ignoring unknown top-level key 'x'",
     "test"),
    (D, NODE_TYPE + "    x: 1\n", "p.yaml:4:5: ignoring unknown key 'x' in type 'T'",
     "parse_definitions"),
    (T, NODE_TYPE + "    x: 1\n" + TOPOLOGY,
     "p.yaml:4:5: ignoring unknown key 'x' in type 'T'", "parse_service_template"),
    (T, V + "topology_template:\n  inputs: {}\n  node_templates:\n",
     "p.yaml:3:3: ignoring topology_template key 'inputs'", "test"),
])
def test_unknown_keys_warn_with_their_location(parse, text, message, attributed_to):
    with pytest.warns(UserWarning) as records:
        parse(text, filename="p.yaml")
    assert [str(record.message) for record in records] == [message]
    assert _attributed_to(records[0]) == attributed_to
