import heapq
import random

import pytest

import builders as b
import topology_gen
from toscaflow import catalog as cat
from toscaflow.errors import DependencyCycleError
from toscaflow.model import ServiceTemplate
from toscaflow.planner import (
    CONNECTS_TO,
    HOSTED_ON,
    DependencyEdge,
    DependencyGraph,
    DeploymentPlan,
    PlanStep,
    _find_cycle,
    build_graph,
    plan,
    undeploy_plan,
    validate_plan,
)
from toscaflow.topology import Locality, Topology
from toscaflow.verifier import verify


def _edge_set(graph):
    return {(e.source, e.target, e.kind) for e in graph.edges}


def test_build_graph_s3_to_gcs(load_fixture):
    graph = build_graph(load_fixture("s3_to_gcs.yaml"))
    edges = _edge_set(graph)
    assert ("ConsumeS3Bucket", "Nifi_Platform", HOSTED_ON) in edges
    assert ("ConsumeS3Bucket", "PublishGoogleBucket", CONNECTS_TO) in edges
    assert ("EC2_VM", "AWSPlatform", HOSTED_ON) in edges


def test_build_graph_single_node_has_no_edges():
    graph = build_graph(b.template(b.node("VM", cat.COMPUTE)))
    assert graph.vertices == ["VM"]
    assert graph.edges == []


def test_build_graph_image_pipeline_counts(load_fixture):
    template = load_fixture("image_pipeline.yaml")
    graph = build_graph(template)
    connects = [e for e in graph.edges if e.kind == CONNECTS_TO]
    assert len(connects) == 5
    # four distinct hosting stacks: follow host edges to their roots
    from toscaflow.verifier import host_chain
    roots = {host_chain(name, template)[-1]
             for name in template.node_templates}
    assert roots == {"OpenStackPlatform_0", "AWSPlatform_0", "GCP_VM", "Azure_VM"}


def _positions(deployment):
    return {(s.node, s.op): i for i, s in enumerate(deployment.steps)}


def test_plan_s3_to_gcs_ordering(load_fixture):
    template = load_fixture("s3_to_gcs.yaml")
    deployment = plan(template)
    assert validate_plan(deployment, template)
    pos = _positions(deployment)
    assert pos[("AWSPlatform", "start")] < pos[("EC2_VM", "create")]
    assert pos[("EC2_VM", "start")] < pos[("Nifi_Platform", "create")]
    assert pos[("Nifi_Platform", "start")] < pos[("ConsumeS3Bucket", "create")]
    assert pos[("PublishGoogleBucket", "start")] < \
        pos[("ConsumeS3Bucket", "configure")]
    # the cross-host connection is annotated on the source's configure step
    step = deployment.steps[pos[("ConsumeS3Bucket", "configure")]]
    assert step.annotation == "remote:PublishGoogleBucket"


def test_plan_is_deterministic(load_fixture):
    template = load_fixture("image_pipeline.yaml")
    assert plan(template) == plan(template)


def test_mutually_connected_pipelines_cycle(load_fixture):
    template = load_fixture("cyclic.yaml")
    _, diags = verify(template)
    assert diags == []
    with pytest.raises(DependencyCycleError) as excinfo:
        plan(template)
    assert set(excinfo.value.members) == {"Exec_A", "Exec_B"}


def test_long_dependency_ring_names_its_cycle():
    # longer than the interpreter's recursion limit
    size = 5000
    stack, nifi = b.nifi_stack()
    names = [f"Exec_{i:04d}" for i in range(size)]
    ring = [
        b.node(name, b.PRC + "ExecutePython",
               props={"name": name, "script_path": "run.py"},
               reqs=[("host", nifi), ("ConnectToPipeline", names[(i + 1) % size])])
        for i, name in enumerate(names)]
    with pytest.raises(DependencyCycleError) as excinfo:
        plan(b.template(*stack, *ring))
    assert excinfo.value.members == names


def _recursive_find_cycle(graph):
    # the recursive depth-first search _find_cycle replaced, as a reference
    adjacency = {}
    for edge in graph.edges:
        adjacency.setdefault(edge.source, []).append(edge.target)
    colors, path = {}, []

    def visit(vertex):
        colors[vertex] = "grey"
        path.append(vertex)
        for nxt in sorted(adjacency.get(vertex, ())):
            if colors.get(nxt) == "grey":
                return path[path.index(nxt):]
            if nxt not in colors:
                found = visit(nxt)
                if found:
                    return found
        colors[vertex] = "black"
        path.pop()
        return None

    for vertex in sorted(graph.vertices):
        if vertex not in colors:
            found = visit(vertex)
            if found:
                return found
    return []


def test_find_cycle_matches_recursive_search():
    rng = random.Random(3)
    for _ in range(300):
        vertices = [f"n{i}" for i in range(rng.randint(1, 12))]
        edges = [DependencyEdge(rng.choice(vertices), rng.choice(vertices),
                                CONNECTS_TO)
                 for _ in range(rng.randint(0, 16))]
        graph = DependencyGraph(vertices=vertices, edges=edges)
        assert _find_cycle(graph) == _recursive_find_cycle(graph)


def test_validate_plan_rejects_reordered_dependency(load_fixture):
    template = load_fixture("s3_to_gcs.yaml")
    deployment = plan(template)
    pos = _positions(deployment)
    steps = list(deployment.steps)
    i = pos[("PublishGoogleBucket", "start")]
    j = pos[("ConsumeS3Bucket", "configure")]
    steps[i], steps[j] = steps[j], steps[i]
    assert not validate_plan(DeploymentPlan(steps=steps), template)


def test_validate_plan_requires_all_three_ops(load_fixture):
    template = load_fixture("s3_to_gcs.yaml")
    deployment = plan(template)
    assert not validate_plan(DeploymentPlan(steps=deployment.steps[:-1]), template)


def test_empty_plan_for_empty_template():
    assert validate_plan(DeploymentPlan(), ServiceTemplate())


def _constrained(before, after, graph):
    """Independent pairwise constraint test used for swap sharpness."""
    if before[0] == after[0]:
        order = ["create", "configure", "start"]
        return order.index(before[1]) < order.index(after[1])
    for edge in graph.edges:
        dependent_op = "create" if edge.kind == HOSTED_ON else "configure"
        if before == (edge.target, "start") and after == (edge.source, dependent_op):
            return True
    return False


def test_random_dags_plan_and_swaps_fail():
    for seed in range(40):
        template = topology_gen.random_clean_dag(seed)
        _, diags = verify(template)
        assert diags == [], f"generator produced findings at seed {seed}"
        deployment = plan(template)
        assert validate_plan(deployment, template)
        graph = build_graph(template)
        steps = deployment.steps
        for i in range(len(steps) - 1):
            a = (steps[i].node, steps[i].op)
            b_ = (steps[i + 1].node, steps[i + 1].op)
            if _constrained(a, b_, graph):
                swapped = list(steps)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                assert not validate_plan(DeploymentPlan(steps=swapped), template)


def test_undeploy_is_reverse_of_deploy(load_fixture):
    template = load_fixture("s3_to_gcs.yaml")
    forward = plan(template)
    backward = undeploy_plan(template)
    stops = [s for s in backward.steps if s.op == "stop"]
    deletes = [s for s in backward.steps if s.op == "delete"]
    assert len(backward.steps) == len(stops) + len(deletes)
    starts_forward = [s.node for s in forward.steps if s.op == "start"]
    assert [s.node for s in stops] == list(reversed(starts_forward))


def test_plan_steps_serialize():
    step = PlanStep("X", "create")
    assert step.to_dict() == {"node": "X", "op": "create", "annotation": None}


def _plan_by_inline_heap(template):
    """The plan as `plan` computed it with its own min-heap loop, and the
    cycle the recursive search names when no order exists, as a reference."""
    graph = build_graph(template)
    ranks = {"create": 0, "configure": 1, "start": 2}
    steps = [(name, op) for name in graph.vertices for op in ranks]
    successors = {step: [] for step in steps}
    indegree = {step: 0 for step in steps}

    def add_constraint(before, after):
        successors[before].append(after)
        indegree[after] += 1

    for name in graph.vertices:
        add_constraint((name, "create"), (name, "configure"))
        add_constraint((name, "configure"), (name, "start"))
    for edge in graph.edges:
        dependent_op = "create" if edge.kind == HOSTED_ON else "configure"
        add_constraint((edge.target, "start"), (edge.source, dependent_op))
    ready = [(name, ranks[op], op) for (name, op), deg in indegree.items()
             if deg == 0]
    heapq.heapify(ready)
    ordered = []
    while ready:
        name, _, op = heapq.heappop(ready)
        ordered.append((name, op))
        for successor in successors[(name, op)]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, (successor[0], ranks[successor[1]],
                                       successor[1]))
    if len(ordered) != len(steps):
        return None, _recursive_find_cycle(graph)

    topo = Topology(template)
    remote = {}
    for edge in graph.edges:
        if edge.kind == CONNECTS_TO \
                and topo.locality(edge.source, edge.target) is Locality.REMOTE:
            remote.setdefault(edge.source, []).append(edge.target)
    return [PlanStep(name, op, "remote:" + ",".join(sorted(remote[name]))
                     if op == "configure" and name in remote else None)
            for name, op in ordered], None


def test_plan_is_the_inline_heap_order(load_fixture):
    templates = [load_fixture(name) for name in (
        "cyclic.yaml", "duplicate_connection.yaml", "encrypt_mismatch.yaml",
        "image_pipeline.yaml", "s3_to_gcs.yaml")]
    templates += [topology_gen.random_topology(seed) for seed in range(150)]
    templates += [topology_gen.random_clean_dag(seed) for seed in range(150)]
    outcomes = set()
    for template in templates:
        steps, cycle = _plan_by_inline_heap(template)
        if steps is None:
            with pytest.raises(DependencyCycleError) as excinfo:
                plan(template)
            assert excinfo.value.members == cycle
        else:
            assert plan(template).steps == steps
        outcomes.add(steps is None)
    assert outcomes == {True, False}
