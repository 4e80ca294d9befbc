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


def rekey_cascade(chains):
    """Src -> E<i> -> D<i> -> Dst for i from 1 to `chains`.  E1 keys "e",
    every D<i> keys "d" and every later E<i> takes D<i-1>'s passphrase, so
    only (E1, D1) disagree; but each repair re-keys D<i> and so breaks the
    next pair, and `chains` pairs take `chains` fix passes."""
    stack, nifi = nifi_stack()
    minio = {"cred_file_path": "c", "MinIO_Endpoint": "e"}
    ciphers = []
    for i in range(1, chains + 1):
        key = "e" if i == 1 else {"get_property": [f"D{i - 1}", "passphrase"]}
        ciphers += [
            node(f"E{i}", cat.ENCRYPT, props={"name": "e", "passphrase": key},
                 reqs=[("host", nifi), ("ConnectToPipeline", f"D{i}")]),
            node(f"D{i}", cat.DECRYPT, props={"name": "d", "passphrase": "d"},
                 reqs=[("host", nifi), ("ConnectToPipeline", "Dst")])]
    return template(
        *stack, *ciphers,
        node("Src", SRC + "ConsMinIO", props={"name": "s", "BucketName": "in", **minio},
             reqs=[("host", nifi)] + [("connectToPipeline", f"E{i}")
                                      for i in range(1, chains + 1)]),
        node("Dst", DST + "PubsMinIO", props={"name": "d", "BucketName": "out", **minio},
             reqs=[("host", nifi)]))
