"""Independent brute-force re-derivation of every verifier rule.

Shares only the core object model (type resolution, intrinsic evaluation,
cron validity) with the implementation under test; all rule logic here is
written from scratch with naive scans.  Violations are reported as a set of
(rule id, frozenset of node names) pairs for exact comparison.
"""

from toscaflow import catalog as cat
from toscaflow.cron import is_valid_cron
from toscaflow.errors import ToscaflowError
from toscaflow.model import UNBOUNDED, evaluate_intrinsic, resolve_type

R1 = "R1-REQ-MATCH"
R2 = "R2-LOCALITY"
R3 = "R3-DUPLICATE-CONN"
R4 = "R4-ENCRYPTION"
R5 = "R5-HOSTING"
R6 = "R6-SCHEDULING"


def rule_violations(template):
    """All (rule, node set) violations of `template`, derived from scratch."""
    defs = template.combined_definitions()
    resolved_cache = {}

    def resolved(type_name):
        if type_name not in resolved_cache:
            try:
                resolved_cache[type_name] = resolve_type(type_name, defs)
            except ToscaflowError:
                resolved_cache[type_name] = None
        return resolved_cache[type_name]

    def subtype(a, b):
        r = resolved(a)
        return r is not None and b in r.ancestry

    templates = template.node_templates

    def node_resolved(name):
        return resolved(templates[name].type)

    def is_pipeline(name):
        r = node_resolved(name)
        return r is not None and cat.ABSTRACT_DATA_PIPELINE in r.ancestry

    def effective(name, prop):
        nt = templates[name]
        if prop in nt.property_values:
            try:
                return evaluate_intrinsic(nt.property_values[prop], nt,
                                          template)
            except (ToscaflowError, ValueError):
                return None
        r = node_resolved(name)
        if r is not None and prop in r.properties:
            return r.properties[prop].default
        return None

    found = set()

    def flag(rule, *names):
        found.add((rule, frozenset(names)))

    # ---- R1 / R5: requirement and hosting conformance ----------------------
    for name in templates:
        nt = templates[name]
        r = node_resolved(name)
        if r is None:
            flag(R1, name)
            continue
        reqs = {q.name: q for q in r.requirements}
        tallies = {}
        for a in nt.requirement_assignments:
            tallies[a.name] = tallies.get(a.name, 0) + 1
            if a.name not in reqs:
                flag(R1, name)
                continue
            req = reqs[a.name]
            if a.target not in templates:
                flag(R1, name)
                continue
            target_r = node_resolved(a.target)
            if target_r is None:
                flag(R1, name, a.target)
                continue
            if req.node_type and resolved(req.node_type) is not None \
                    and req.node_type not in target_r.ancestry:
                flag(R5 if a.name == "host" else R1, name, a.target)
            if req.capability_type and resolved(req.capability_type) is not None:
                offering = [c for c in target_r.capabilities.values()
                            if subtype(c.capability_type, req.capability_type)]
                if not offering:
                    flag(R1, name, a.target)
                elif not any(
                        not c.valid_source_types
                        or any(subtype(nt.type, s) for s in c.valid_source_types)
                        for c in offering):
                    flag(R1, name, a.target)
            if a.relationship is not None and req.relationship_type \
                    and not subtype(a.relationship, req.relationship_type):
                flag(R1, name, a.target)
        connect_group = [q for q in r.requirements
                         if subtype(q.capability_type, cat.CONNECT_TO_PIPELINE_CAP)]
        for q in r.requirements:
            count = tallies.get(q.name, 0)
            lo, hi = q.occurrences
            if q in connect_group:
                if hi is not UNBOUNDED and count > hi:
                    flag(R1, name)
            else:
                if count < lo:
                    flag(R1, name)
                if hi is not UNBOUNDED and count > hi:
                    flag(R1, name)
        if connect_group:
            total = sum(tallies.get(q.name, 0) for q in connect_group)
            if total < max(q.occurrences[0] for q in connect_group):
                flag(R1, name)

    # ---- connection edges (shared by R2/R3/R4) ------------------------------
    def connection_edges(name):
        nt = templates[name]
        r = node_resolved(name)
        if r is None:
            return []
        reqs = {q.name: q for q in r.requirements}
        edges = []
        for a in nt.requirement_assignments:
            req = reqs.get(a.name)
            if req is None:
                continue
            if not subtype(req.capability_type, cat.CONNECT_TO_PIPELINE_CAP):
                continue
            if a.target not in templates or not is_pipeline(a.target):
                continue
            edges.append((a.target, a.relationship or req.relationship_type))
        return edges

    def nearest_nifi(name):
        chain = [name]
        visited = {name}
        current = name
        while True:
            r = node_resolved(current)
            if r is None:
                return None
            host_req = next((q for q in r.requirements if q.name == "host"), None)
            if host_req is None:
                break
            assignment = next((a for a in templates[current].requirement_assignments
                               if a.name == "host"), None)
            if assignment is None:
                if host_req.occurrences[0] >= 1:
                    return None
                break
            if assignment.target not in templates \
                    or assignment.target in visited:
                return None
            chain.append(assignment.target)
            visited.add(assignment.target)
            current = assignment.target
        for member in chain[1:]:
            if subtype(templates[member].type, cat.NIFI):
                return member
        return None

    # ---- R2 / R3: locality ---------------------------------------------------
    pair_edges = {}
    for name in templates:
        if not is_pipeline(name):
            continue
        for target, kind in connection_edges(name):
            pair_edges.setdefault((name, target), []).append(kind)
    for (a, b), kinds in pair_edges.items():
        nifi_a = nearest_nifi(a)
        nifi_b = nearest_nifi(b)
        if nifi_a is None or nifi_b is None:
            continue
        local = nifi_a == nifi_b
        if len(kinds) > 1:
            flag(R3, a, b)
        else:
            kind = kinds[0]
            if subtype(kind, cat.CONNECT_NIFI_LOCAL) and not local:
                flag(R2, a, b)
            elif subtype(kind, cat.CONNECT_NIFI_REMOTE) and local:
                flag(R2, a, b)

    # ---- R4: encryption pairing ---------------------------------------------
    def key(passphrase):  # the text the simulator keys the cipher with
        return str(passphrase or "")

    encrypts = [n for n in templates if subtype(templates[n].type, cat.ENCRYPT)]
    decrypts = [n for n in templates if subtype(templates[n].type, cat.DECRYPT)]
    reachable = {}
    for start in encrypts:
        seen = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            if not is_pipeline(current):
                continue
            for target, _ in connection_edges(current):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        reachable[start] = seen
    for e in encrypts:
        if not any(d in reachable[e] for d in decrypts):
            flag(R4, e)
    for d in decrypts:
        if not any(d in reachable[e] for e in encrypts):
            flag(R4, d)
    for e in encrypts:
        for d in decrypts:
            if d in reachable[e] \
                    and key(effective(e, "passphrase")) \
                    != key(effective(d, "passphrase")):
                flag(R4, e, d)

    # ---- R6: scheduling --------------------------------------------------------
    for name in templates:
        if not is_pipeline(name):
            continue
        r = node_resolved(name)
        if "schedulingStrategy" in r.properties:
            strategy = effective(name, "schedulingStrategy")
            if strategy not in ("EVENT_DRIVEN", "CRON_DRIVEN"):
                flag(R6, name)
            elif strategy == "CRON_DRIVEN":
                expr = effective(name, "schedulingPeriodCRON")
                if not isinstance(expr, str) or not is_valid_cron(expr):
                    flag(R6, name)
        elif "schedulingPeriodCRON" in r.properties:
            expr = effective(name, "schedulingPeriodCRON")
            if not isinstance(expr, str) or not is_valid_cron(expr):
                flag(R6, name)

    return found


def diagnostics_as_set(diagnostics):
    return {(d.rule, frozenset(d.nodes)) for d in diagnostics}
