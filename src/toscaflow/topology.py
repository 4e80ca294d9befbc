"""One resolved view of a service template, read by every layer.

The verifier, the planner and the simulator all need the same facts about
a topology: which templates are pipelines, which pipeline connections
exist and of what relationship kind, where each block is hosted, whether
two connected blocks share a NiFi, and which blocks fire on their cron.
`Topology` derives them once.  `lexicographic_order` is the one
topological order of the planner and the simulator, and `find_cycle` names
the cycle both refuse when it leaves a node out.  `first_of` reads the
catalog's type-keyed tables against a block's ancestry.
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


# the connection kind that belongs between blocks of each locality
CONNECTION_KIND = {Locality.LOCAL: cat.CONNECT_NIFI_LOCAL,
                   Locality.REMOTE: cat.CONNECT_NIFI_REMOTE}


class Topology:
    """Resolved types, pipelines, connections and hosting of one template.

    Derived facts are cached; templates are never changed, so a repair
    builds a new template, and `_repaired` gives its view.  Types resolve
    in the template's `combined_definitions`.
    """

    def __init__(self, template: ServiceTemplate):
        self.template = template
        self.defs = template.combined_definitions()
        self._resolved = {}
        self._by_node = {}
        self._evaluated = {}
        self._chains = {}  # node -> a host chain found that holds it
        self._nifi = {}

    def _repaired(self, template: ServiceTemplate, replaced) -> Topology:
        """The view of `template`, this view's with the `replaced` nodes
        repaired.  A repair adds, removes and retypes no node and keeps the
        inline types, so types and pipelines carry over.  It can move a host
        assignment, so a node keeps its host chain and nearest NiFi only when
        that chain holds no replaced node.  The rest is derived again."""
        view = Topology.__new__(Topology)
        view.template, view.defs = template, self.defs
        view._resolved, view._by_node = self._resolved, self._by_node
        view.pipelines = self.pipelines
        view._evaluated = {}
        view._chains = {name: chain for name, chain in self._chains.items()
                        if replaced.isdisjoint(chain[chain.index(name):])}
        view._nifi = {name: nifi for name, nifi in self._nifi.items()
                      if name in view._chains}
        return view

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
        if node_name not in self._by_node:
            node = self.template.node_templates.get(node_name)
            self._by_node[node_name] = None if node is None \
                else self.resolved_type(node.type)
        return self._by_node[node_name]

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
        cannot be evaluated; each property is evaluated once per view."""
        key = (node_name, prop_name)
        if key not in self._evaluated:
            self._evaluated[key] = self._evaluate(node_name, prop_name)
        return self._evaluated[key]

    def _evaluate(self, node_name, prop_name):
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

    def cron(self, node_name):
        """`evaluate_property` of the block's schedulingPeriodCRON when the
        block fires on its cron, else None.

        A type that declares schedulingStrategy fires on its cron when the
        strategy evaluates to CRON_DRIVEN; a type that declares only
        schedulingPeriodCRON (a standalone task) always does.
        """
        properties = self.resolved_node(node_name).properties
        if "schedulingStrategy" in properties:
            if self.effective_property(node_name, "schedulingStrategy") != "CRON_DRIVEN":
                return None
        elif "schedulingPeriodCRON" not in properties:
            return None
        return self.evaluate_property(node_name, "schedulingPeriodCRON")

    # -- connections ---------------------------------------------------------

    def connects(self, req) -> bool:
        """True when the requirement is a pipeline connection: it demands a
        ConnectToPipeline-typed capability."""
        return self.subtype(req.capability_type, cat.CONNECT_TO_PIPELINE_CAP)

    @cached_property
    def pairs(self) -> dict:
        """Sorted (source, target) pipeline pairs -> their edges.

        An edge is (assignment, effective relationship kind), in the order
        the source assigns them.  An assignment counts as a connection when
        its requirement `connects`; assignments naming no requirement of the
        type are skipped.
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
                if self.connects(req):
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
        return next((locality for locality, connection in CONNECTION_KIND.items()
                     if self.subtype(kind, connection)), None)

    # -- hosting -------------------------------------------------------------

    def host_chain(self, node_name) -> list[str]:
        """The node followed by its transitive hosts; see `host_chain`.

        Each chain found is kept, so a later walk ends at the first node
        of it that it reaches; a walk that raises keeps nothing.
        """
        templates = self.template.node_templates
        if node_name not in templates:
            raise MissingHostError(f"no node template named {node_name!r}")
        chain = [node_name]
        while (current := chain[-1]) not in self._chains:
            resolved = self.resolved_node(current)
            if resolved is None:
                raise MissingHostError(f"type of {current!r} does not resolve")
            host_req = next((r for r in resolved.requirements if r.name == "host"),
                            None)
            if host_req is None:
                break
            assignment = next((a for a in templates[current].requirement_assignments
                               if a.name == "host"), None)
            if assignment is None:
                if host_req.occurrences[0] >= 1:
                    raise MissingHostError(f"{current!r} has no host assignment")
                break
            target = assignment.target
            if target not in templates:
                raise MissingHostError(f"{current!r} is hosted on unknown template "
                                       f"{target!r}")
            if target in chain:
                raise HostCycleError(
                    "host cycle: " + " -> ".join(chain + [target]))
            chain.append(target)
        else:  # a chain found before goes on from `current`
            found = self._chains[chain.pop()]
            chain += found[found.index(current):]
        found = tuple(chain)
        for name in found:
            self._chains.setdefault(name, found)
        return chain

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


def first_of(table, ancestry):
    """The value of the first `table` type in `ancestry`, else None."""
    return next((value for type_name, value in table.items()
                 if type_name in ancestry), None)


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


def find_cycle(nodes, successors) -> list:
    """One cycle, by depth-first search from the sorted nodes through their
    sorted successors, or [] when there is none.  An explicit stack of
    iterators stands in for recursion, so a chain of any length fits."""
    colors = {}
    path = []
    for root in sorted(nodes):
        if root in colors:
            continue
        colors[root] = "grey"
        path.append(root)
        pending = [iter(sorted(successors.get(root, ())))]
        while pending:
            for nxt in pending[-1]:
                if colors.get(nxt) == "grey":
                    return path[path.index(nxt):]
                if nxt not in colors:
                    colors[nxt] = "grey"
                    path.append(nxt)
                    pending.append(iter(sorted(successors.get(nxt, ()))))
                    break
            else:
                colors[path.pop()] = "black"
                pending.pop()
    return []


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
