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
re-key passphrases.  Capability-side occurrence minimums are not enforced
(idle capacity is legal), and the local/remote connection requirement pair
is counted jointly against its minimum so a block needs *a* downstream,
not one of each kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from . import catalog as cat
from .cron import is_valid_cron
from .crypto import cipher_key
from .errors import VerifierNonConvergenceError
from .model import UNBOUNDED, RequirementAssignment, ServiceTemplate
# colocated and host_chain are re-exported for callers of this module
from .topology import Locality, Topology, colocated, host_chain

R1_REQ_MATCH = "R1-REQ-MATCH"
R2_LOCALITY = "R2-LOCALITY"
R3_DUPLICATE_CONN = "R3-DUPLICATE-CONN"
R4_ENCRYPTION = "R4-ENCRYPTION"
R5_HOSTING = "R5-HOSTING"
R6_SCHEDULING = "R6-SCHEDULING"

RULES = (R1_REQ_MATCH, R2_LOCALITY, R3_DUPLICATE_CONN, R4_ENCRYPTION,
         R5_HOSTING, R6_SCHEDULING)

ERROR = "error"
FIXABLE = "fixable"
WARNING = "warning"

MAX_FIX_PASSES = 3


@dataclass
class Diagnostic:
    """One verifier finding."""

    rule: str
    severity: str
    nodes: list[str]
    message: str
    fix: str | None = None

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
    return _check_requirements(Topology(template))


def _check_requirements(topo: Topology) -> list[Diagnostic]:
    out = []
    t = topo.template
    for name in sorted(t.node_templates):
        node = t.node_templates[name]
        resolved = topo.resolved_node(name)
        if resolved is None:
            out.append(Diagnostic(R1_REQ_MATCH, ERROR, [name],
                                  f"type {node.type!r} does not resolve"))
            continue
        by_name = {r.name: r for r in resolved.requirements}
        counts = {}
        for assignment in node.requirement_assignments:
            counts[assignment.name] = counts.get(assignment.name, 0) + 1
            req = by_name.get(assignment.name)
            if req is None:
                out.append(Diagnostic(
                    R1_REQ_MATCH, ERROR, [name],
                    f"{name!r} assigns requirement {assignment.name!r} that "
                    f"type {node.type!r} does not declare"))
                continue
            target = assignment.target
            if target not in t.node_templates:
                out.append(Diagnostic(
                    R1_REQ_MATCH, ERROR, [name],
                    f"{name!r} requirement {assignment.name!r} targets missing "
                    f"template {target!r}"))
                continue
            out.extend(_check_assignment(topo, name, node, req, assignment))
        out.extend(_check_occurrences(topo, name, resolved, counts))
    return out


def _check_assignment(topo: Topology, name, node, req, assignment):
    out = []
    target = assignment.target
    target_node = topo.template.node_templates[target]
    target_resolved = topo.resolved_node(target)
    if target_resolved is None:
        out.append(Diagnostic(
            R1_REQ_MATCH, ERROR, [name, target],
            f"target {target!r} has unresolvable type {target_node.type!r}"))
        return out

    # declared node type conformance; hosting violations get their own rule
    if req.node_type and topo.resolved_type(req.node_type) is not None:
        if req.node_type not in target_resolved.ancestry:
            rule = R5_HOSTING if req.name == "host" else R1_REQ_MATCH
            out.append(Diagnostic(
                rule, ERROR, [name, target],
                f"{name!r} requires {req.name!r} on a "
                f"{req.node_type!r} node, but {target!r} is a "
                f"{target_node.type!r}"))

    # the target must offer a capability of the demanded type that accepts us
    if req.capability_type and topo.resolved_type(req.capability_type) is not None:
        matching = [c for c in target_resolved.capabilities.values()
                    if topo.subtype(c.capability_type, req.capability_type)]
        if not matching:
            out.append(Diagnostic(
                R1_REQ_MATCH, ERROR, [name, target],
                f"{target!r} has no capability of type "
                f"{req.capability_type!r} demanded by {name!r}"))
        else:
            accepted = any(
                not c.valid_source_types
                or any(topo.subtype(node.type, s) for s in c.valid_source_types)
                for c in matching)
            if not accepted:
                out.append(Diagnostic(
                    R1_REQ_MATCH, ERROR, [name, target],
                    f"{node.type!r} is not a valid source type for the "
                    f"{req.capability_type!r} capability of {target!r}"))

    # an explicit relationship override must refine the declared one
    if assignment.relationship is not None and req.relationship_type:
        if not topo.subtype(assignment.relationship, req.relationship_type):
            out.append(Diagnostic(
                R1_REQ_MATCH, ERROR, [name, target],
                f"relationship {assignment.relationship!r} on {name!r} is not "
                f"a subtype of declared {req.relationship_type!r}"))
    return out


def _check_occurrences(topo: Topology, name, resolved, counts):
    out = []
    connect_reqs = [r for r in resolved.requirements
                    if topo.subtype(r.capability_type, cat.CONNECT_TO_PIPELINE_CAP)]
    other_reqs = [r for r in resolved.requirements if r not in connect_reqs]
    for req in other_reqs:
        count = counts.get(req.name, 0)
        lo, hi = req.occurrences
        if count < lo:
            out.append(Diagnostic(
                R1_REQ_MATCH, ERROR, [name],
                f"{name!r} fills requirement {req.name!r} {count} times, "
                f"minimum is {lo}"))
        if hi is not UNBOUNDED and count > hi:
            out.append(Diagnostic(
                R1_REQ_MATCH, ERROR, [name],
                f"{name!r} fills requirement {req.name!r} {count} times, "
                f"maximum is {hi}"))
    if connect_reqs:
        total = sum(counts.get(r.name, 0) for r in connect_reqs)
        group_min = max(r.occurrences[0] for r in connect_reqs)
        if total < group_min:
            out.append(Diagnostic(
                R1_REQ_MATCH, ERROR, [name],
                f"{name!r} has no downstream pipeline connection"))
        for req in connect_reqs:
            lo, hi = req.occurrences
            count = counts.get(req.name, 0)
            if hi is not UNBOUNDED and count > hi:
                out.append(Diagnostic(
                    R1_REQ_MATCH, ERROR, [name],
                    f"{name!r} fills requirement {req.name!r} {count} times, "
                    f"maximum is {hi}"))
    return out


def check_locality(template: ServiceTemplate) -> list[Diagnostic]:
    """R2 wrong-kind connections and R3 duplicate connections."""
    return _check_locality(Topology(template))


def _check_locality(topo: Topology) -> list[Diagnostic]:
    out = []
    for (a, b), edges in topo.pairs.items():
        locality = topo.locality(a, b)
        if locality is None:
            continue
        desired = cat.CONNECT_NIFI_LOCAL if locality is Locality.LOCAL \
            else cat.CONNECT_NIFI_REMOTE
        if len(edges) > 1:
            out.append(Diagnostic(
                R3_DUPLICATE_CONN, FIXABLE, [a, b],
                f"{len(edges)} connections between {a!r} and {b!r}; blocks are "
                f"{locality.value}, exactly one {desired!r} belongs here"))
        else:
            bucket = topo.kind_locality(edges[0][1])
            if bucket is not None and bucket is not locality:
                out.append(Diagnostic(
                    R2_LOCALITY, FIXABLE, [a, b],
                    f"connection {a!r} -> {b!r} uses a {bucket.value} "
                    f"relationship but the blocks are {locality.value}"))
    return out


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
    return _check_encryption(Topology(template))


def _encrypt_decrypt_pairs(topo: Topology):
    names = sorted(topo.template.node_templates)
    encrypts = [n for n in names if topo.is_a(n, cat.ENCRYPT)]
    decrypts = [n for n in names if topo.is_a(n, cat.DECRYPT)]
    reach = {e: _reachable_from(topo.successors, e) for e in encrypts}
    pairs = [(e, d) for e in encrypts for d in decrypts if d in reach[e]]
    return encrypts, decrypts, pairs


def _check_encryption(topo: Topology) -> list[Diagnostic]:
    out = []
    encrypts, decrypts, pairs = _encrypt_decrypt_pairs(topo)
    paired_e = {e for e, _ in pairs}
    paired_d = {d for _, d in pairs}
    for e in encrypts:
        if e not in paired_e:
            out.append(Diagnostic(
                R4_ENCRYPTION, ERROR, [e],
                f"Encrypt node {e!r} reaches no Decrypt node"))
    for d in decrypts:
        if d not in paired_d:
            out.append(Diagnostic(
                R4_ENCRYPTION, ERROR, [d],
                f"Decrypt node {d!r} is not reachable from any Encrypt node"))
    for e, d in pairs:
        if cipher_key(topo.effective_property(e, "passphrase")) != \
                cipher_key(topo.effective_property(d, "passphrase")):
            out.append(Diagnostic(
                R4_ENCRYPTION, FIXABLE, [e, d],
                f"passphrases of {e!r} and {d!r} differ"))
    return out


def check_scheduling(template: ServiceTemplate) -> list[Diagnostic]:
    """R6: allowed strategies, parseable cron expressions and evaluable
    function keys."""
    return _check_scheduling(Topology(template))


def _check_scheduling(topo: Topology) -> list[Diagnostic]:
    out = []

    def finding(name, message, why):
        out.append(Diagnostic(R6_SCHEDULING, ERROR, [name],
                              f"{message} ({why})" if why else message))

    for name in topo.pipelines:
        resolved = topo.resolved_node(name)
        if "schedulingStrategy" in resolved.properties:
            strategy, why = topo.evaluate_property(name, "schedulingStrategy")
            if strategy not in cat.SCHEDULING_STRATEGIES:
                finding(name, f"{name!r} has schedulingStrategy {strategy!r}, "
                        f"allowed: {', '.join(cat.SCHEDULING_STRATEGIES)}", why)
            elif strategy == "CRON_DRIVEN":
                expr, why = topo.evaluate_property(name, "schedulingPeriodCRON")
                if not isinstance(expr, str) or not is_valid_cron(expr):
                    finding(name, f"{name!r} is CRON driven but {expr!r} is not "
                            f"a valid cron expression", why)
        elif "schedulingPeriodCRON" in resolved.properties:
            expr, why = topo.evaluate_property(name, "schedulingPeriodCRON")
            if not isinstance(expr, str) or not is_valid_cron(expr):
                finding(name, f"{name!r} schedules only by cron but {expr!r} is "
                        f"not a valid cron expression", why)
        key = next((key for type_name, key in cat.INVOKER_KEYS.items()
                    if type_name in resolved.ancestry), None)
        if key is not None:
            _, why = topo.evaluate_property(name, key)
            if why:
                finding(name, f"{name!r} cannot evaluate its {key}", why)
    return out


# --------------------------------------------------------------------------
# fixes and the verify driver
# --------------------------------------------------------------------------

def _passphrase(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(32))


def _fix_locality_pair(topo: Topology, nodes: dict, a: str, b: str) -> str:
    """Leave exactly one connection a -> b, of the locality-correct kind."""
    locality = topo.locality(a, b)
    desired = cat.CONNECT_NIFI_LOCAL if locality is Locality.LOCAL \
        else cat.CONNECT_NIFI_REMOTE
    edges = topo.pairs[(a, b)]
    keeper = next((assignment for assignment, kind in edges
                   if topo.kind_locality(kind) is locality), None)
    rewrote = keeper is None
    if rewrote:
        keeper = edges[0][0]
    drop = {id(assignment) for assignment, _ in edges
            if assignment is not keeper}
    nodes[a] = replace(nodes[a], requirement_assignments=[
        _rewrite_assignment_kind(topo, a, assignment, desired)
        if rewrote and assignment is keeper else assignment
        for assignment in nodes[a].requirement_assignments
        if id(assignment) not in drop])
    action = f"rewrote the connection to {desired!r}" if rewrote \
        else f"kept the {desired!r} connection"
    if len(edges) > 1:
        return f"dropped {len(edges) - 1} duplicate connection(s) and {action}"
    return action


def _rewrite_assignment_kind(topo: Topology, node_name: str,
                             assignment: RequirementAssignment, desired: str):
    resolved = topo.resolved_node(node_name)
    counterpart = next(
        (r for r in resolved.requirements
         if topo.subtype(r.capability_type, cat.CONNECT_TO_PIPELINE_CAP)
         and r.relationship_type == desired),
        None)
    if counterpart is not None:
        return replace(assignment, name=counterpart.name, relationship=None)
    return replace(assignment, relationship=desired)


def _fix_encryption(nodes: dict, pairs, rng: random.Random) -> dict:
    """One fresh passphrase per connected mismatch component, drawn in
    order of the components' smallest members."""
    links = {}
    for e, d in pairs:
        links.setdefault(e, []).append(d)
        links.setdefault(d, []).append(e)
    fixes = {}  # member -> the fix of its component
    for node in sorted(links):
        if node in fixes:
            continue
        # the node has a neighbour, so the walk from it comes back to it
        members = sorted(_reachable_from(links, node))
        fresh = _passphrase(rng)
        for member in members:
            values = {**nodes[member].property_values, "passphrase": fresh}
            nodes[member] = replace(nodes[member], property_values=values)
            fixes[member] = f"assigned a shared passphrase to {', '.join(members)}"
    return {(e, d): fixes[e] for e, d in pairs}


def _run_checks(topo: Topology) -> list[Diagnostic]:
    return [*_check_requirements(topo), *_check_locality(topo),
            *_check_encryption(topo), *_check_scheduling(topo)]


def verify(template: ServiceTemplate, fix: bool = False,
           seed: int | None = None) -> tuple[ServiceTemplate, list[Diagnostic]]:
    """Run all rules; with fix=True repair fixable findings to a fixpoint.

    Returns the template, repaired with new node templates where needed,
    and the accumulated diagnostics; repaired findings carry a `fix`
    description.  The input template is never mutated, and the result
    shares with it every node that no repair changed.
    """
    work = template
    rng = random.Random(seed)
    reported: dict = {}
    for attempt in range(MAX_FIX_PASSES + 1):
        topo = Topology(work)  # a fresh view: each pass repairs the template
        diagnostics = _run_checks(topo)
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
        work = replace(work, node_templates=nodes)
    return work, list(reported.values())


def _apply_fixes(topo: Topology, nodes: dict, fixables, rng, reported):
    encryption_pairs = []
    for diag in fixables:
        if diag.rule in (R2_LOCALITY, R3_DUPLICATE_CONN):
            a, b = diag.nodes
            description = _fix_locality_pair(topo, nodes, a, b)
            reported[diag.key()].fix = description
        elif diag.rule == R4_ENCRYPTION:
            encryption_pairs.append(tuple(diag.nodes))
    if encryption_pairs:
        descriptions = _fix_encryption(nodes, encryption_pairs, rng)
        for diag in fixables:
            if diag.rule == R4_ENCRYPTION:
                reported[diag.key()].fix = descriptions.get(tuple(diag.nodes))
