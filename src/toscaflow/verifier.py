"""Blueprint verifier: finds topology inconsistencies and optionally repairs them.

Six rules, run in order:

  R1-REQ-MATCH     requirement/capability matching, occurrence bounds,
                   relationship-override conformance
  R2-LOCALITY      a single pipeline connection whose local/remote kind
                   contradicts where the two blocks are actually hosted
  R3-DUPLICATE-CONN more than one connection between the same ordered pair
  R4-ENCRYPTION    every Encrypt reaches a Decrypt and vice versa;
                   reachable pairs must share a passphrase, compared as
                   the text that keys the cipher (`7` and "7" agree)
  R5-HOSTING       host assignments whose target violates the declared
                   host node type (NiFi pipelines off NiFi, AWS standalone
                   tasks off AWSPlatform, ...)
  R6-SCHEDULING    scheduling strategy in the allowed set, cron expressions
                   parseable where CRON scheduling applies, and the key of
                   an invoked function evaluable

R2, R3, and R4 passphrase mismatches are fixable; fixes never add or remove
node templates, only rewrite connection kinds, drop duplicate edges, and
re-key passphrases.  A connection kind is rewritten only where R1 accepts
the result, so an R2 finding with no such rewrite is an error.
Capability-side occurrence minimums are not enforced (idle capacity is
legal), and the local/remote connection requirement pair is counted
jointly against its minimum so a block needs *a* downstream, not one of
each kind.
"""

from __future__ import annotations

import random

from . import catalog as cat
from .cron import is_valid_cron
from .crypto import cipher_key
from .errors import VerifierNonConvergenceError
from .model import UNBOUNDED, Record, RequirementAssignment, ServiceTemplate
from .topology import CONNECTION_KIND, Topology, first_of

R1_REQ_MATCH = "R1-REQ-MATCH"
R2_LOCALITY = "R2-LOCALITY"
R3_DUPLICATE_CONN = "R3-DUPLICATE-CONN"
R4_ENCRYPTION = "R4-ENCRYPTION"
R5_HOSTING = "R5-HOSTING"
R6_SCHEDULING = "R6-SCHEDULING"

ERROR = "error"
FIXABLE = "fixable"

MAX_FIX_PASSES = 3


class Diagnostic(Record):
    """One verifier finding.  `location` is where its first node was
    parsed from, if anywhere."""

    _fields = ("rule", "severity", "nodes", "message", "fix")

    def __init__(self, rule: str, severity: str, nodes: list[str], message: str,
                 fix: str | None = None, location: object = None):
        self.rule, self.severity, self.nodes = rule, severity, nodes
        self.message, self.fix, self.location = message, fix, location

    def key(self):
        return (self.rule, tuple(self.nodes), self.message)

    def to_dict(self):
        return {"rule": self.rule, "severity": self.severity,
                "nodes": list(self.nodes), "message": self.message,
                "fix": self.fix}


def report_to_dict(diagnostics, fixed: bool):
    """The stable JSON shape of a verification report."""
    return {"diagnostics": [d.to_dict() for d in diagnostics], "fixed": fixed}


# --------------------------------------------------------------------------
# rule checks
# --------------------------------------------------------------------------

def check_requirements(template: ServiceTemplate) -> list[Diagnostic]:
    """R1 requirement/capability matching plus R5 hosting conformance."""
    return _located(_check_requirements, Topology(template))


def _check_requirements(topo: Topology, changed=None):
    """R1 and R5 on every node, or on the nodes named in `changed` only."""
    t = topo.template
    requirements = {}  # node type -> `_requirement_groups` of it
    faults = {}  # (source type, requirement, target type, override) -> faults
    for name in sorted(t.node_templates if changed is None else changed):
        node = t.node_templates[name]
        resolved = topo.resolved_node(name)
        if resolved is None:
            yield Diagnostic(R1_REQ_MATCH, ERROR, [name],
                             f"type {node.type!r} does not resolve")
            continue
        if node.type not in requirements:
            requirements[node.type] = _requirement_groups(topo, resolved)
        by_name, connect_reqs, other_reqs = requirements[node.type]
        counts = {}
        for assignment in node.requirement_assignments:
            counts[assignment.name] = counts.get(assignment.name, 0) + 1
            req = by_name.get(assignment.name)
            target = assignment.target
            if req is None:
                yield Diagnostic(
                    R1_REQ_MATCH, ERROR, [name],
                    f"{name!r} assigns requirement {assignment.name!r} that "
                    f"type {node.type!r} does not declare")
            elif target not in t.node_templates:
                yield Diagnostic(
                    R1_REQ_MATCH, ERROR, [name],
                    f"{name!r} requirement {assignment.name!r} targets missing "
                    f"template {target!r}")
            else:
                target_type = t.node_templates[target].type
                key = (node.type, req.name, target_type, assignment.relationship)
                if key not in faults:
                    faults[key] = _assignment_faults(topo, node.type, req, target_type,
                                                     assignment.relationship)
                for rule, message in faults[key]:
                    yield Diagnostic(rule, ERROR, [name, target], message(name, target))
        yield from _check_occurrences(name, connect_reqs, other_reqs, counts)


def _requirement_groups(topo: Topology, resolved):
    """A type's requirements by name, its pipeline connection requirements
    and the others, each in declaration order."""
    connect_reqs, other_reqs = [], []
    for req in resolved.requirements:
        (connect_reqs if topo.connects(req) else other_reqs).append(req)
    return {r.name: r for r in resolved.requirements}, connect_reqs, other_reqs


def _assignment_faults(topo: Topology, source_type, req, target_type, relationship):
    """The (rule, message) findings of a `source_type` node that fills `req`
    with a `target_type` node under the `relationship` override, where a
    message is a function of the two node names.  They depend on these
    alone, so a view judges each such signature once."""
    target_resolved = topo.resolved_type(target_type)
    if target_resolved is None:
        return [(R1_REQ_MATCH, lambda name, target:
                 f"target {target!r} has unresolvable type {target_type!r}")]
    faults = []

    # declared node type conformance; hosting violations get their own rule
    if req.node_type and topo.resolved_type(req.node_type) is not None:
        if req.node_type not in target_resolved.ancestry:
            rule = R5_HOSTING if req.name == "host" else R1_REQ_MATCH
            faults.append((rule, lambda name, target:
                           f"{name!r} requires {req.name!r} on a "
                           f"{req.node_type!r} node, but {target!r} is a "
                           f"{target_type!r}"))

    # the target must offer a capability of the demanded type that accepts us
    if req.capability_type and topo.resolved_type(req.capability_type) is not None:
        matching = [c for c in target_resolved.capabilities.values()
                    if topo.subtype(c.capability_type, req.capability_type)]
        if not matching:
            faults.append((R1_REQ_MATCH, lambda name, target:
                           f"{target!r} has no capability of type "
                           f"{req.capability_type!r} demanded by {name!r}"))
        elif not any(
                not c.valid_source_types
                or any(topo.subtype(source_type, s) for s in c.valid_source_types)
                for c in matching):
            faults.append((R1_REQ_MATCH, lambda name, target:
                           f"{source_type!r} is not a valid source type for the "
                           f"{req.capability_type!r} capability of {target!r}"))

    # an explicit relationship override must refine the declared one
    if relationship is not None and req.relationship_type:
        if not topo.subtype(relationship, req.relationship_type):
            faults.append((R1_REQ_MATCH, lambda name, target:
                           f"relationship {relationship!r} on {name!r} is not "
                           f"a subtype of declared {req.relationship_type!r}"))
    return faults


def _check_occurrences(name, connect_reqs, other_reqs, counts):
    for req in other_reqs:
        yield from _check_bounds(name, req, counts, req.occurrences[0])
    if connect_reqs and sum(counts.get(r.name, 0) for r in connect_reqs) \
            < max(r.occurrences[0] for r in connect_reqs):
        yield Diagnostic(R1_REQ_MATCH, ERROR, [name],
                         f"{name!r} has no downstream pipeline connection")
    for req in connect_reqs:  # their minimum is the group's, checked above
        yield from _check_bounds(name, req, counts, 0)


def _check_bounds(name, req, counts, lo):
    """`name` fills `req` fewer than `lo` or more than its maximum times."""
    count, hi = counts.get(req.name, 0), req.occurrences[1]
    for which, bound, broken in (("minimum", lo, count < lo),
                                 ("maximum", hi, hi is not UNBOUNDED and count > hi)):
        if broken:
            yield Diagnostic(
                R1_REQ_MATCH, ERROR, [name],
                f"{name!r} fills requirement {req.name!r} {count} times, "
                f"{which} is {bound}")


def check_locality(template: ServiceTemplate) -> list[Diagnostic]:
    """R2 wrong-kind connections and R3 duplicate connections."""
    return _located(_check_locality, Topology(template))


def _check_locality(topo: Topology):
    for (a, b), edges in topo.pairs.items():
        locality = topo.locality(a, b)
        if locality is None:
            continue
        if len(edges) > 1:
            yield Diagnostic(
                R3_DUPLICATE_CONN, FIXABLE, [a, b],
                f"{len(edges)} connections between {a!r} and {b!r}; blocks are "
                f"{locality.value}, exactly one {CONNECTION_KIND[locality]!r} "
                f"belongs here")
        else:
            assignment, kind = edges[0]
            bucket = topo.kind_locality(kind)
            if bucket is not None and bucket is not locality:
                rewrite = _rewrite_assignment_kind(topo, a, assignment,
                                                   CONNECTION_KIND[locality])
                yield Diagnostic(
                    R2_LOCALITY, ERROR if rewrite is None else FIXABLE, [a, b],
                    f"connection {a!r} -> {b!r} uses a {bucket.value} "
                    f"relationship but the blocks are {locality.value}")


def _reachable_from(adjacency, start):
    seen = set()
    stack = [start]
    while stack:
        current = stack.pop()
        for nxt in adjacency.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def check_encryption(template: ServiceTemplate) -> list[Diagnostic]:
    """R4: Encrypt/Decrypt pairing and passphrase agreement."""
    return _located(_check_encryption, Topology(template))


def _encrypt_decrypt_pairs(topo: Topology):
    names = sorted(topo.template.node_templates)
    encrypts = [n for n in names if topo.is_a(n, cat.ENCRYPT)]
    decrypts = [n for n in names if topo.is_a(n, cat.DECRYPT)]
    decrypt_set = set(decrypts)
    pairs = [(e, d) for e in encrypts
             for d in sorted(_reachable_from(topo.successors, e) & decrypt_set)]
    return encrypts, decrypts, pairs


def _check_encryption(topo: Topology):
    encrypts, decrypts, pairs = _encrypt_decrypt_pairs(topo)
    paired_e = {e for e, _ in pairs}
    paired_d = {d for _, d in pairs}
    for e in encrypts:
        if e not in paired_e:
            yield Diagnostic(
                R4_ENCRYPTION, ERROR, [e],
                f"Encrypt node {e!r} reaches no Decrypt node")
    for d in decrypts:
        if d not in paired_d:
            yield Diagnostic(
                R4_ENCRYPTION, ERROR, [d],
                f"Decrypt node {d!r} is not reachable from any Encrypt node")
    for e, d in pairs:
        if cipher_key(topo.effective_property(e, "passphrase")) != \
                cipher_key(topo.effective_property(d, "passphrase")):
            yield Diagnostic(
                R4_ENCRYPTION, FIXABLE, [e, d],
                f"passphrases of {e!r} and {d!r} differ")


def check_scheduling(template: ServiceTemplate) -> list[Diagnostic]:
    """R6: allowed strategies, parseable cron expressions and evaluable
    function keys."""
    return _located(_check_scheduling, Topology(template))


def _check_scheduling(topo: Topology):
    def finding(name, message, why):
        return Diagnostic(R6_SCHEDULING, ERROR, [name],
                          f"{message} ({why})" if why else message)

    for name in topo.pipelines:
        resolved = topo.resolved_node(name)
        declares_strategy = "schedulingStrategy" in resolved.properties
        if declares_strategy:
            strategy, why = topo.evaluate_property(name, "schedulingStrategy")
            if strategy not in cat.SCHEDULING_STRATEGIES:
                yield finding(name, f"{name!r} has schedulingStrategy {strategy!r}, "
                              f"allowed: {', '.join(cat.SCHEDULING_STRATEGIES)}", why)
        if (cron := topo.cron(name)) is not None:
            expr, why = cron
            if not isinstance(expr, str) or not is_valid_cron(expr):
                fires = "is CRON driven" if declares_strategy \
                    else "schedules only by cron"
                yield finding(name, f"{name!r} {fires} but {expr!r} is not a "
                              f"valid cron expression", why)
        key = first_of(cat.INVOKER_KEYS, resolved.ancestry)
        if key is not None:
            _, why = topo.evaluate_property(name, key)
            if why:
                yield finding(name, f"{name!r} cannot evaluate its {key}", why)


# --------------------------------------------------------------------------
# fixes and the verify driver
# --------------------------------------------------------------------------

def _passphrase(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(32))


def _fix_locality_pair(topo: Topology, nodes: dict, a: str, b: str) -> str:
    """Leave exactly one connection a -> b: one of the locality-correct kind
    if there is one, else the first, rewritten to that kind where that is
    legal."""
    locality = topo.locality(a, b)
    desired = CONNECTION_KIND[locality]
    edges = topo.pairs[(a, b)]
    actions = [f"dropped {len(edges) - 1} duplicate connection(s)"] \
        if len(edges) > 1 else []
    keeper = next((assignment for assignment, kind in edges
                   if topo.kind_locality(kind) is locality), None)
    if keeper is not None:
        kept = keeper
        actions.append(f"kept the {desired!r} connection")
    else:
        keeper = edges[0][0]
        kept = _rewrite_assignment_kind(topo, a, keeper, desired) or keeper
        if kept is not keeper:
            actions.append(f"rewrote the connection to {desired!r}")
    drop = {id(assignment) for assignment, _ in edges if assignment is not keeper}
    nodes[a] = nodes[a].replace(requirement_assignments=[
        kept if assignment is keeper else assignment
        for assignment in nodes[a].requirement_assignments
        if id(assignment) not in drop])
    return " and ".join(actions)


def _rewrite_assignment_kind(topo: Topology, node_name: str,
                             assignment: RequirementAssignment, desired: str):
    """`assignment` made a connection of the `desired` kind, or None where
    no rewrite is legal: the node's type has no connection requirement of
    that kind, and R1 rejects `desired` as an override of the declared
    relationship."""
    requirements = topo.resolved_node(node_name).requirements
    counterpart = next((r for r in requirements
                        if topo.connects(r) and r.relationship_type == desired),
                       None)
    if counterpart is not None:
        return assignment.replace(name=counterpart.name, relationship=None)
    declared = next(r.relationship_type for r in requirements
                    if r.name == assignment.name)
    if not declared or topo.subtype(desired, declared):
        return assignment.replace(relationship=desired)
    return None


def _fix_encryption(nodes: dict, pairs, mismatches, rng: random.Random) -> dict:
    """One fresh passphrase per connected component of the Encrypt->Decrypt
    `pairs` that holds one of the `mismatches`, drawn in order of the
    components' smallest members.  The whole component is re-keyed, so no
    pair in it that agreed is left disagreeing."""
    links = {}
    for e, d in pairs:
        links.setdefault(e, []).append(d)
        links.setdefault(d, []).append(e)
    mismatched = {node for pair in mismatches for node in pair}
    fixes = {}  # member -> the fix of its component, None where all agree
    for node in sorted(links):
        if node in fixes:
            continue
        # the node has a neighbour, so the walk from it comes back to it
        members = sorted(_reachable_from(links, node))
        fixes.update(dict.fromkeys(members))
        if mismatched.isdisjoint(members):
            continue
        fresh = _passphrase(rng)
        for member in members:
            values = {**nodes[member].property_values, "passphrase": fresh}
            nodes[member] = nodes[member].replace(property_values=values)
            fixes[member] = f"assigned a shared passphrase to {', '.join(members)}"
    return {(e, d): fixes[e] for e, d in mismatches}


def _run_checks(topo: Topology, changed=None) -> list[Diagnostic]:
    """Every rule's findings; with `changed`, those of R1/R5 only on its
    nodes (see `verify`)."""
    return (_located(_check_requirements, topo, changed)
            + _located(_check_locality, topo)
            + _located(_check_encryption, topo) + _located(_check_scheduling, topo))


def _located(check, topo: Topology, *scope) -> list[Diagnostic]:
    """The findings of `check`, each given the location of its first node."""
    nodes = topo.template.node_templates
    found = list(check(topo, *scope))
    for diag in found:
        diag.location = nodes[diag.nodes[0]].location
    return found


def verify(template: ServiceTemplate, fix: bool = False,
           seed: int | None = None) -> tuple[ServiceTemplate, list[Diagnostic]]:
    """Run all rules; with fix=True repair fixable findings to a fixpoint.

    Returns the template, repaired with new node templates where needed,
    and the accumulated diagnostics; repaired findings carry a `fix`
    description.  The input template is never mutated, and the result
    shares with it every node that no repair changed.

    A pass after a repair runs R1/R5 only on the nodes the repair
    replaced.  That is exact: a repair never adds, removes or retypes a
    node, and a node's R1/R5 findings read only its own assignments and
    the types of their targets, so every other one was reported by the
    pass before.  R2/R3, R4 and R6 run in full, on a view that keeps the
    types and the host chains the repair left alone (`Topology._repaired`).
    """
    work = template
    topo = Topology(work)
    rng = random.Random(seed)
    reported: dict = {}
    changed = None  # the first pass checks everything
    for attempt in range(MAX_FIX_PASSES + 1):
        diagnostics = _run_checks(topo, changed)
        for diag in diagnostics:
            reported.setdefault(diag.key(), diag)
        fixables = [d for d in diagnostics if d.severity == FIXABLE]
        if not fix or not fixables:
            break
        if attempt == MAX_FIX_PASSES:
            raise VerifierNonConvergenceError(
                f"fixable diagnostics remain after {MAX_FIX_PASSES} fix passes")
        nodes = dict(work.node_templates)
        _apply_fixes(topo, nodes, fixables, rng, reported)
        changed = {name for name, node in nodes.items()
                   if node is not work.node_templates[name]}
        work = work.replace(node_templates=nodes)
        topo = topo._repaired(work, changed)
    return work, list(reported.values())


def _apply_fixes(topo: Topology, nodes: dict, fixables, rng, reported):
    encryption_pairs = []
    for diag in fixables:
        if diag.rule in (R2_LOCALITY, R3_DUPLICATE_CONN):
            reported[diag.key()].fix = _fix_locality_pair(topo, nodes, *diag.nodes)
        elif diag.rule == R4_ENCRYPTION:
            encryption_pairs.append(tuple(diag.nodes))
    if encryption_pairs:
        descriptions = _fix_encryption(nodes, _encrypt_decrypt_pairs(topo)[2],
                                       encryption_pairs, rng)
        for diag in fixables:
            if diag.rule == R4_ENCRYPTION:
                reported[diag.key()].fix = descriptions.get(tuple(diag.nodes))
