"""The value semantics every record class keeps: construction with
defaults, fresh mutable defaults, repr text, equality and hashing."""

import pytest

from toscaflow.cron import CronExpr
from toscaflow.csar import CsarArchive
from toscaflow.model import (
    UNBOUNDED,
    AttributeDefinition,
    CapabilityDefinition,
    NodeTemplate,
    PropertyDefinition,
    RequirementAssignment,
    RequirementDefinition,
    ResolvedNodeType,
    ServiceTemplate,
    TypeDefinition,
)
from toscaflow.parsing import SourceLocation
from toscaflow.planner import DependencyEdge, DependencyGraph, DeploymentPlan, PlanStep
from toscaflow.simulator import FlowItem, StoreEvent
from toscaflow.verifier import Diagnostic

SECONDS = frozenset({0, 30})
HOURS = frozenset({1})

# class, its required arguments by name, its defaults by name, and the repr
# of an instance built from the required arguments alone
RECORDS = [
    (AttributeDefinition, {"name": "p"}, {"value_type": "string", "default": None},
     "AttributeDefinition(name='p', value_type='string', default=None)"),
    (PropertyDefinition, {"name": "p"},
     {"value_type": "string", "default": None, "required": True},
     "PropertyDefinition(name='p', value_type='string', default=None, "
     "required=True)"),
    (RequirementDefinition, {"name": "r"},
     {"capability_type": "", "node_type": "", "relationship_type": "",
      "occurrences": (1, 1)},
     "RequirementDefinition(name='r', capability_type='', node_type='', "
     "relationship_type='', occurrences=(1, 1))"),
    (CapabilityDefinition, {"name": "c"},
     {"capability_type": "", "valid_source_types": [], "occurrences": (1, UNBOUNDED)},
     "CapabilityDefinition(name='c', capability_type='', valid_source_types=[], "
     "occurrences=(1, UNBOUNDED))"),
    (TypeDefinition, {"name": "t", "kind": "node"},
     {"derived_from": None, "properties": {}, "attributes": {}, "requirements": [],
      "capabilities": {}, "metadata": {}, "location": None},
     "TypeDefinition(name='t', kind='node', derived_from=None, properties={}, "
     "attributes={}, requirements=[], capabilities={}, metadata={})"),
    (RequirementAssignment, {"name": "host", "target": "H"}, {"relationship": None},
     "RequirementAssignment(name='host', target='H', relationship=None)"),
    (NodeTemplate, {"name": "N", "type": "t"},
     {"property_values": {}, "artifacts": {}, "requirement_assignments": [],
      "location": None},
     "NodeTemplate(name='N', type='t', property_values={}, artifacts={}, "
     "requirement_assignments=[])"),
    (ServiceTemplate, {},
     {"tosca_version": "tosca_simple_yaml_1_3", "user_types": [],
      "node_templates": {}},
     "ServiceTemplate(tosca_version='tosca_simple_yaml_1_3', user_types=[], "
     "node_templates={})"),
    (ResolvedNodeType,
     {"name": "t", "kind": "node", "ancestry": ["t"], "properties": {},
      "attributes": {}, "requirements": [], "capabilities": {}}, {},
     "ResolvedNodeType(name='t', kind='node', ancestry=['t'], properties={}, "
     "attributes={}, requirements=[], capabilities={})"),
    (DependencyEdge, {"source": "A", "target": "B", "kind": "HostedOn"}, {},
     "DependencyEdge(source='A', target='B', kind='HostedOn')"),
    (DependencyGraph, {"vertices": ["A"], "edges": []}, {},
     "DependencyGraph(vertices=['A'], edges=[])"),
    (PlanStep, {"node": "A", "op": "create"}, {"annotation": None},
     "PlanStep(node='A', op='create', annotation=None)"),
    (DeploymentPlan, {}, {"steps": []}, "DeploymentPlan(steps=[])"),
    (FlowItem, {"payload": b"x"}, {"attributes": {}, "trail": []},
     "FlowItem(payload=b'x', attributes={}, trail=[])"),
    (StoreEvent,
     {"seq": 0, "tick": 1, "provider": "aws", "bucket": "b", "key": "k",
      "payload": b"x"}, {},
     "StoreEvent(seq=0, tick=1, provider='aws', bucket='b', key='k', "
     "payload=b'x')"),
    (SourceLocation, {"file": "f.yaml", "line": 3, "column": 5}, {},
     "SourceLocation(file='f.yaml', line=3, column=5)"),
    (Diagnostic, {"rule": "R1", "severity": "error", "nodes": ["A"],
                  "message": "m"}, {"fix": None},
     "Diagnostic(rule='R1', severity='error', nodes=['A'], message='m', "
     "fix=None)"),
    (CronExpr, {"text": "*/30 * 1 * * ?", "seconds": SECONDS,
                "minutes": frozenset({0}), "hours": HOURS}, {},
     "CronExpr(text='*/30 * 1 * * ?', seconds=frozenset({0, 30}), "
     "minutes=frozenset({0}), hours=frozenset({1}))"),
    (CsarArchive, {"entry_definitions": "s.yaml"}, {"files": {}, "metadata": {}},
     "CsarArchive(entry_definitions='s.yaml', files={}, metadata={})"),
]

FROZEN = {SourceLocation, CronExpr, DependencyEdge, PlanStep, StoreEvent}

# a value for each defaulted field that differs from its default
OTHER = {"value_type": "integer", "default": 7, "required": False,
         "capability_type": "c.T", "node_type": "n.T", "relationship_type": "r.T",
         "occurrences": (0, 2), "valid_source_types": ["s.T"], "derived_from": "b",
         "properties": {"p": PropertyDefinition("p")}, "attributes": {"a": 1},
         "requirements": [RequirementDefinition("r")], "capabilities": {"c": 1},
         "metadata": {"k": "v"}, "location": SourceLocation("f.yaml", 1, 1),
         "relationship": "r.T", "property_values": {"p": 1},
         "artifacts": {"a": "x.py"}, "requirement_assignments": [
             RequirementAssignment("host", "H")],
         "tosca_version": "tosca_simple_yaml_1_2", "user_types": [
             TypeDefinition("u", "node")], "node_templates": {"N": 1},
         "annotation": "why", "steps": [PlanStep("A", "create")],
         "trail": [("A", 1)], "fix": "fixed", "files": {"s.yaml": b""}}

IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, required, defaults, text", RECORDS, ids=IDS)
def test_construction_fills_defaults_by_position_and_keyword(cls, required,
                                                             defaults, text):
    built = cls(*required.values())
    for name, value in {**required, **defaults}.items():
        assert getattr(built, name) == value, name
    others = {name: OTHER[name] for name in defaults}
    values = {**required, **others}
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    for name, value in values.items():
        assert getattr(by_position, name) == value, name
        assert getattr(by_keyword, name) == value, name


@pytest.mark.parametrize("cls, required, defaults, text", RECORDS, ids=IDS)
def test_no_two_instances_share_a_mutable_default(cls, required, defaults, text):
    first, second = cls(*required.values()), cls(*required.values())
    for name, value in defaults.items():
        if isinstance(value, (list, dict)):
            assert getattr(first, name) is not getattr(second, name), name


@pytest.mark.parametrize("cls, required, defaults, text", RECORDS, ids=IDS)
def test_repr_text(cls, required, defaults, text):
    assert repr(cls(*required.values())) == text


@pytest.mark.parametrize("cls, required, defaults, text", RECORDS, ids=IDS)
def test_equality_is_by_field_and_class(cls, required, defaults, text):
    built = cls(*required.values())
    assert built == cls(**required)
    assert not built != cls(**required)
    assert built != tuple(required.values())
    for name in defaults.keys() - {"location"}:
        changed = {name: OTHER[name]}
        if name == "default":  # a default must fit the value type
            changed["value_type"] = OTHER["value_type"]
        assert built != cls(**required, **changed), name


@pytest.mark.parametrize("cls", [TypeDefinition, NodeTemplate])
def test_equality_ignores_location(cls):
    here, there = SourceLocation("a.yaml", 1, 1), SourceLocation("b.yaml", 9, 9)
    assert cls("x", "node", location=here) == cls("x", "node", location=there)
    assert cls("x", "node", location=here) == cls("x", "node")
    assert "location" not in repr(cls("x", "node", location=here))


def test_records_of_different_classes_are_never_equal():
    assert AttributeDefinition("p") != PropertyDefinition("p")
    assert PropertyDefinition("p") != AttributeDefinition("p")
    assert DependencyEdge("A", "B", "k") != PlanStep("A", "B", "k")


@pytest.mark.parametrize("cls, required, defaults, text", RECORDS, ids=IDS)
def test_frozen_records_hash_and_refuse_assignment_and_others_do_not_hash(
        cls, required, defaults, text):
    built = cls(*required.values())
    name, value = next(iter({**required, **defaults}.items()))
    if cls in FROZEN:
        assert hash(built) == hash(cls(**required))
        assert {built, cls(**required)} == {built}
        with pytest.raises(AttributeError):
            setattr(built, name, value)
    else:
        with pytest.raises(TypeError):
            hash(built)
        setattr(built, name, value)  # mutable: assignment works
