"""Shorthand for building service templates programmatically in tests."""

from toscaflow import catalog as cat
from toscaflow.model import (
    NodeTemplate,
    RequirementAssignment,
    ServiceTemplate,
)

SRC = "radon.nodes.datapipeline.source."
PRC = "radon.nodes.datapipeline.process."
DST = "radon.nodes.datapipeline.destination."
STA = "radon.nodes.datapipeline.standalone."


def node(name, type_name, props=None, artifacts=None, reqs=None):
    """reqs: iterable of (requirement name, target) or (name, target, override)."""
    assignments = []
    for entry in reqs or ():
        if len(entry) == 2:
            assignments.append(RequirementAssignment(entry[0], entry[1]))
        else:
            assignments.append(RequirementAssignment(entry[0], entry[1], entry[2]))
    return NodeTemplate(
        name=name,
        type=type_name,
        property_values=dict(props or {}),
        artifacts=dict(artifacts or {}),
        requirement_assignments=assignments,
    )


def template(*nodes) -> ServiceTemplate:
    return ServiceTemplate(node_templates={n.name: n for n in nodes})


def nifi_stack(index=0):
    """A Compute VM with a NiFi on top; returns (nodes, nifi name)."""
    vm_name = f"VM_{index}"
    nifi_name = f"Nifi_{index}"
    return [
        node(vm_name, cat.COMPUTE),
        node(nifi_name, cat.NIFI, props={"component_version": "1.14.0"},
             reqs=[("host", vm_name)]),
    ], nifi_name


def fill_required(template_obj, defs):
    """Assign a placeholder to every required property left unassigned."""
    from toscaflow.model import resolve_type

    for nt in template_obj.node_templates.values():
        resolved = resolve_type(nt.type, defs)
        for prop in resolved.properties.values():
            if prop.required and prop.default is None \
                    and prop.name not in nt.property_values:
                nt.property_values[prop.name] = "x"
    return template_obj


def diamond_cycle():
    """Src -> A; A -> B, C; B, C -> D; D -> A, Dst: a connection cycle that
    holds a diamond, so every lap through it doubles the items in flight."""
    stack, nifi = nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}
    targets = {"A": ["B", "C"], "B": ["D"], "C": ["D"], "D": ["A", "Dst"]}
    blocks = [node(name, PRC + "ExecutePython",
                   props={"name": name, "script_path": "run.py"},
                   reqs=[("host", nifi)] + [("ConnectToPipeline", t) for t in outs])
              for name, outs in targets.items()]
    return template(
        *stack, *blocks,
        node("Src", SRC + "ConsMinIO", props={"name": "s", "BucketName": "in", **minio},
             reqs=[("host", nifi), ("connectToPipeline", "A")]),
        node("Dst", DST + "PubsMinIO", props={"name": "d", "BucketName": "out", **minio},
             reqs=[("host", nifi)]))
