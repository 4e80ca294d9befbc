"""Mutated topologies against the library's entry points.

Each example takes a generated topology, applies up to three tree
mutations (a retargeted assignment, an odd property value, an assignment
under a random requirement name) and runs it through verify with repair,
serialize and re-parse, plan, instantiate and `run_until`.  Every entry
point must return or raise a `ToscaflowError`; anything else escaping is a
bug.  The repair must also leave its input as it was, every plan that
returns must pass `validate_plan`, and a dependency cycle the planner
reports must be one.

The default profile runs a few dozen examples;
HYPOTHESIS_PROFILE=fuzz python -m pytest tests/test_library_fuzz.py
runs thousands.
"""

from hypothesis import given
from hypothesis import strategies as st

import topology_gen
from toscaflow.errors import DependencyCycleError, ToscaflowError
from toscaflow.model import RequirementAssignment
from toscaflow.parsing import parse_service_template, serialize_template
from toscaflow.planner import build_graph, plan, validate_plan
from toscaflow.simulator import instantiate
from toscaflow.topology import Topology
from toscaflow.verifier import verify

ODD_VALUES = ("none", "int", "bool", "list", "self", "artifact", "empty",
              "quoted")

REQUIREMENT_NAMES = ("host", "connectToPipeline", "connectToPipelineRemote",
                     "ConnectToPipeline", "ConnectToPipelineRemote", "bogus")


def _odd_value(kind, prop):
    return {"none": None, "int": 7, "bool": True, "list": ["a", 1],
            "self": {"get_property": ["SELF", prop]},
            "artifact": {"get_artifact": ["SELF", "missing"]},
            "empty": "", "quoted": "{ get_property: [SELF] }"}[kind]


def _mutate(template, data):
    """Apply one tree mutation, drawn from `data`, to `template` in place."""
    names = sorted(template.node_templates)
    targets = names + ["Nowhere"]
    node = template.node_templates[data.draw(st.sampled_from(names))]
    mutation = data.draw(st.sampled_from(("retarget", "property", "append")))
    if mutation == "retarget" and node.requirement_assignments:
        assignment = data.draw(st.sampled_from(node.requirement_assignments))
        assignment.target = data.draw(st.sampled_from(targets))
    elif mutation == "property":
        resolved = Topology(template).resolved_node(node.name)
        props = sorted({*node.property_values, *resolved.properties})
        prop = data.draw(st.sampled_from(props or ["name"]))
        node.property_values[prop] = _odd_value(
            data.draw(st.sampled_from(ODD_VALUES)), prop)
    else:
        node.requirement_assignments.append(RequirementAssignment(
            data.draw(st.sampled_from(REQUIREMENT_NAMES)),
            data.draw(st.sampled_from(targets))))


def _or_toscaflow_error(call):
    """call(), or None when it raises a ToscaflowError."""
    try:
        return call()
    except ToscaflowError:
        return None


def _plan(template):
    """Plan `template` and check the plan, or the cycle it reports."""
    try:
        deployment = plan(template)
    except DependencyCycleError as exc:
        edges = {(e.source, e.target) for e in build_graph(template).edges}
        members = exc.members
        assert members and len(set(members)) == len(members)
        assert all(pair in edges
                   for pair in zip(members, members[1:] + members[:1]))
        return
    assert validate_plan(deployment, template)


def _simulate(template):
    flow = instantiate(template)
    for stage in flow.blocks.values():
        if stage.source is not None:
            flow.schedule_injection(0, *stage.source, "item", b"payload")
    return flow.run_until(30)


@given(seed=st.integers(0, 10_000), clean=st.booleans(),
       mutations=st.integers(0, 3), data=st.data())
def test_only_toscaflow_errors_escape_the_library(seed, clean, mutations, data):
    generate = topology_gen.random_clean_dag if clean \
        else topology_gen.random_topology
    template = generate(seed)
    for _ in range(mutations):
        _mutate(template, data)
    before = serialize_template(template)

    verified = _or_toscaflow_error(lambda: verify(template, fix=True, seed=seed))
    assert serialize_template(template) == before
    fixed = template if verified is None else verified[0]
    reparsed = _or_toscaflow_error(
        lambda: parse_service_template(serialize_template(fixed)))
    for candidate in (fixed, reparsed):
        if candidate is not None:
            _or_toscaflow_error(lambda: _plan(candidate))
            _or_toscaflow_error(lambda: _simulate(candidate))
