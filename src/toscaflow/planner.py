"""Deployment ordering: dependency graph extraction and lifecycle planning.

Every template contributes create < configure < start.  A host must be
started before its dependent is created; a data target must be started
before the data source is configured (downstream ports have to exist
before upstream connects).  `validate_plan` re-checks those constraints by
direct scan and serves as the independent oracle for `plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DependencyCycleError
from .model import ServiceTemplate
from .topology import Locality, Topology, lexicographic_order

HOSTED_ON = "HostedOn"
CONNECTS_TO = "ConnectsTo"

OPERATIONS = ("create", "configure", "start")
_CREATE, _CONFIGURE, _START = range(len(OPERATIONS))  # ranks in OPERATIONS


@dataclass(frozen=True)
class DependencyEdge:
    """`source` depends on `target` being up."""

    source: str
    target: str
    kind: str  # HostedOn | ConnectsTo


@dataclass
class DependencyGraph:
    vertices: list[str]
    edges: list[DependencyEdge]


@dataclass(frozen=True)
class PlanStep:
    node: str
    op: str
    annotation: str | None = None

    def to_dict(self):
        return {"node": self.node, "op": self.op, "annotation": self.annotation}


@dataclass
class DeploymentPlan:
    steps: list[PlanStep] = field(default_factory=list)

    def to_list(self):
        return [step.to_dict() for step in self.steps]


def build_graph(template: ServiceTemplate) -> DependencyGraph:
    """One HostedOn edge per host assignment, one ConnectsTo edge per
    pipeline connection (source depends on target)."""
    vertices = sorted(template.node_templates)
    edges = []
    for name in vertices:
        node = template.node_templates[name]
        for assignment in node.requirement_assignments:
            if assignment.name == "host" \
                    and assignment.target in template.node_templates:
                edges.append(DependencyEdge(name, assignment.target, HOSTED_ON))
    edges += [DependencyEdge(a, b, CONNECTS_TO)
              for a, b in Topology(template).pairs]
    return DependencyGraph(vertices=vertices, edges=edges)


def _remote_targets(topo, name):
    """The sorted remote connection targets of `name`, for its annotation."""
    return [target for target in topo.successors.get(name, ())
            if topo.locality(name, target) is Locality.REMOTE]


def plan(template: ServiceTemplate) -> DeploymentPlan:
    """A deterministic total order over lifecycle steps.

    Ties are broken by template name, then by operation rank.  Raises
    DependencyCycleError naming one cycle when no order exists.
    """
    topo = Topology(template)
    graph = build_graph(template)

    # a step is (name, operation rank), so ties go by name, then by rank
    steps = [(name, rank) for name in graph.vertices
             for rank in range(len(OPERATIONS))]
    successors = {step: [] for step in steps}
    for name in graph.vertices:
        successors[(name, _CREATE)].append((name, _CONFIGURE))
        successors[(name, _CONFIGURE)].append((name, _START))
    for edge in graph.edges:
        dependent = _CREATE if edge.kind == HOSTED_ON else _CONFIGURE
        successors[(edge.target, _START)].append((edge.source, dependent))
    ordered = lexicographic_order(steps, successors)
    if len(ordered) != len(steps):
        raise DependencyCycleError(_find_cycle(graph))

    plan_steps = []
    for name, rank in ordered:
        remote = _remote_targets(topo, name) if rank == _CONFIGURE else []
        plan_steps.append(PlanStep(name, OPERATIONS[rank],
                                   "remote:" + ",".join(remote) if remote else None))
    return DeploymentPlan(steps=plan_steps)


def _find_cycle(graph: DependencyGraph) -> list[str]:
    """One cycle, found by depth-first search from the sorted vertices.

    An explicit stack of successor iterators stands in for recursion, so a
    dependency chain of any length fits.
    """
    adjacency = {}
    for edge in graph.edges:
        adjacency.setdefault(edge.source, []).append(edge.target)
    for targets in adjacency.values():
        targets.sort()
    colors = {}
    path = []
    for root in sorted(graph.vertices):
        if root in colors:
            continue
        colors[root] = "grey"
        path.append(root)
        pending = [iter(adjacency.get(root, ()))]
        while pending:
            for nxt in pending[-1]:
                if colors.get(nxt) == "grey":
                    return path[path.index(nxt):]
                if nxt not in colors:
                    colors[nxt] = "grey"
                    path.append(nxt)
                    pending.append(iter(adjacency.get(nxt, ())))
                    break
            else:
                colors[path.pop()] = "black"
                pending.pop()
    return []


def undeploy_plan(template: ServiceTemplate) -> DeploymentPlan:
    """Reverse of the deployment order: stop everything, then delete."""
    forward = plan(template)
    reversed_ops = {"start": "stop", "create": "delete"}
    steps = []
    for step in reversed(forward.steps):
        if step.op in reversed_ops:
            steps.append(PlanStep(step.node, reversed_ops[step.op]))
    return DeploymentPlan(steps=steps)


def validate_plan(deployment: DeploymentPlan, template: ServiceTemplate) -> bool:
    """Direct-scan oracle for plan correctness.

    True iff every node contributes exactly create, configure, start in
    that order, every host's start precedes its dependent's create, and
    every data target's start precedes its source's configure.
    """
    graph = build_graph(template)
    position = {}
    for index, step in enumerate(deployment.steps):
        key = (step.node, step.op)
        if key in position:
            return False
        position[key] = index
    expected = {(name, op) for name in graph.vertices for op in OPERATIONS}
    if set(position) != expected:
        return False
    for name in graph.vertices:
        if not (position[(name, "create")] < position[(name, "configure")]
                < position[(name, "start")]):
            return False
    for edge in graph.edges:
        dependent_op = "create" if edge.kind == HOSTED_ON else "configure"
        if position[(edge.target, "start")] >= position[(edge.source, dependent_op)]:
            return False
    return True
