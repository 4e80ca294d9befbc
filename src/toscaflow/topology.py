"""One resolved view of a service template, read by every layer.

The verifier, the planner and the simulator all need the same facts about
a topology: which templates are pipelines, which pipeline connections
exist and of what relationship kind, where each block is hosted, and
whether two connected blocks share a NiFi.  `Topology` derives them once.
`lexicographic_order` is the one topological order they share: the
planner's deployment order and the simulator's firing order.
A type that does not resolve reads as None and an edge to a missing or
non-pipeline template is left out, so broken input stays the verifier's
to report; only the hosting queries raise, and `locality` turns their
errors into None.
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import cached_property

from . import catalog as cat
from .errors import (
    HostCycleError,
    MissingHostError,
    NotAPipelineError,
    ToscaflowError,
)
from .model import ServiceTemplate, evaluate_intrinsic, resolve_type


class Locality(Enum):
    LOCAL = "local"
    REMOTE = "remote"


class Topology:
    """Resolved types, pipelines, connections and hosting of one template.

    Derived facts are cached; a repair builds a new template and a new
    view of it, since templates are never changed.  Types resolve in the
    template's `combined_definitions`.
    """

    def __init__(self, template: ServiceTemplate):
        self.template = template
        self.defs = template.combined_definitions()
        self._resolved = {}
        self._nifi = {}

    # -- types ---------------------------------------------------------------

    def resolved_type(self, type_name):
        """The flattened type, or None when it does not resolve."""
        if type_name not in self._resolved:
            try:
                self._resolved[type_name] = resolve_type(type_name, self.defs)
            except ToscaflowError:
                self._resolved[type_name] = None
        return self._resolved[type_name]

    def resolved_node(self, node_name):
        node = self.template.node_templates.get(node_name)
        return None if node is None else self.resolved_type(node.type)

    def subtype(self, a, b) -> bool:
        resolved = self.resolved_type(a)
        return resolved is not None and b in resolved.ancestry

    def is_a(self, node_name, type_name) -> bool:
        """True when the node exists and its type derives from `type_name`."""
        resolved = self.resolved_node(node_name)
        return resolved is not None and type_name in resolved.ancestry

    @cached_property
    def pipelines(self) -> list[str]:
        """Pipeline template names, sorted."""
        return [name for name in sorted(self.template.node_templates)
                if self.is_a(name, cat.ABSTRACT_DATA_PIPELINE)]

    def effective_property(self, node_name, prop_name):
        """Assigned value (intrinsics evaluated) or the type default.

        None when the value cannot be evaluated.
        """
        return self.evaluate_property(node_name, prop_name)[0]

    def evaluate_property(self, node_name, prop_name):
        """(effective value, None), or (None, why) when the assigned value
        cannot be evaluated."""
        node = self.template.node_templates[node_name]
        if prop_name in node.property_values:
            try:
                return evaluate_intrinsic(node.property_values[prop_name], node,
                                          self.template), None
            except ToscaflowError as exc:
                return None, str(exc)
        resolved = self.resolved_node(node_name)
        if resolved is not None and prop_name in resolved.properties:
            return resolved.properties[prop_name].default, None
        return None, None

    # -- connections ---------------------------------------------------------

    @cached_property
    def pairs(self) -> dict:
        """Sorted (source, target) pipeline pairs -> their edges.

        An edge is (assignment, effective relationship kind), in the order
        the source assigns them.  An assignment counts as a connection when
        its requirement demands a ConnectToPipeline-typed capability;
        assignments naming no requirement of the type are skipped.
        """
        pipelines = set(self.pipelines)
        pairs = {}
        for name in self.pipelines:
            by_name = {r.name: r for r in self.resolved_node(name).requirements}
            node = self.template.node_templates[name]
            for assignment in node.requirement_assignments:
                req = by_name.get(assignment.name)
                if req is None or assignment.target not in pipelines:
                    continue
                if self.subtype(req.capability_type, cat.CONNECT_TO_PIPELINE_CAP):
                    kind = assignment.relationship or req.relationship_type
                    pairs.setdefault((name, assignment.target), []).append(
                        (assignment, kind))
        return {pair: pairs[pair] for pair in sorted(pairs)}

    @cached_property
    def successors(self) -> dict[str, list[str]]:
        """Pipeline -> the sorted targets of its connections."""
        successors = {name: [] for name in self.pipelines}
        for source, target in self.pairs:  # sorted, so every list is too
            successors[source].append(target)
        return successors

    def kind_locality(self, kind):
        """The locality a relationship kind asserts, or None for neither."""
        if self.subtype(kind, cat.CONNECT_NIFI_LOCAL):
            return Locality.LOCAL
        if self.subtype(kind, cat.CONNECT_NIFI_REMOTE):
            return Locality.REMOTE
        return None

    # -- hosting -------------------------------------------------------------

    def host_chain(self, node_name) -> list[str]:
        """The node followed by its transitive hosts; see `host_chain`."""
        templates = self.template.node_templates
        if node_name not in templates:
            raise MissingHostError(f"no node template named {node_name!r}")
        chain = [node_name]
        visited = {node_name}
        current = node_name
        while True:
            resolved = self.resolved_node(current)
            if resolved is None:
                raise MissingHostError(f"type of {current!r} does not resolve")
            host_req = next((r for r in resolved.requirements if r.name == "host"),
                            None)
            if host_req is None:
                return chain
            assignment = next((a for a in templates[current].requirement_assignments
                               if a.name == "host"), None)
            if assignment is None:
                if host_req.occurrences[0] >= 1:
                    raise MissingHostError(f"{current!r} has no host assignment")
                return chain
            target = assignment.target
            if target not in templates:
                raise MissingHostError(f"{current!r} is hosted on unknown template "
                                       f"{target!r}")
            if target in visited:
                raise HostCycleError(
                    "host cycle: " + " -> ".join(chain + [target]))
            chain.append(target)
            visited.add(target)
            current = target

    def nearest_nifi(self, node_name) -> str:
        """The first NiFi template above `node_name` in its host chain."""
        if node_name not in self._nifi:
            for ancestor in self.host_chain(node_name)[1:]:
                if self.is_a(ancestor, cat.NIFI):
                    self._nifi[node_name] = ancestor
                    break
            else:
                raise MissingHostError(f"{node_name!r} has no NiFi host in its chain")
        return self._nifi[node_name]

    def colocated(self, a, b) -> Locality:
        """LOCAL when both pipelines sit on the same NiFi template, else REMOTE."""
        for name in (a, b):
            if not self.is_a(name, cat.ABSTRACT_DATA_PIPELINE):
                raise NotAPipelineError(f"{name!r} is not a pipeline node")
        return Locality.LOCAL if self.nearest_nifi(a) == self.nearest_nifi(b) \
            else Locality.REMOTE

    def locality(self, a, b):
        """`colocated(a, b)`, or None when hosting is broken."""
        try:
            return self.colocated(a, b)
        except (MissingHostError, HostCycleError, NotAPipelineError):
            return None


def lexicographic_order(nodes, successors) -> list:
    """The topological order that always takes the smallest ready node.

    Kahn's algorithm over a min-heap.  `successors` maps a node to the
    nodes that must come after it, once per constraint; nodes on or behind
    a cycle are left out.
    """
    indegree = dict.fromkeys(nodes, 0)
    for node in nodes:
        for after in successors.get(node, ()):
            indegree[after] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for after in successors.get(node, ()):
            indegree[after] -= 1
            if indegree[after] == 0:
                heapq.heappush(ready, after)
    return order


def host_chain(node_name: str, template: ServiceTemplate) -> list[str]:
    """The node followed by its transitive hosts, up to an unhosted template.

    Follows the first ``host`` assignment of each template.  Raises
    HostCycleError on a loop and MissingHostError when a required host is
    unassigned or names a missing template.
    """
    return Topology(template).host_chain(node_name)


def colocated(a: str, b: str, template: ServiceTemplate) -> Locality:
    """LOCAL when both pipelines sit on the same NiFi template, else REMOTE."""
    return Topology(template).colocated(a, b)
