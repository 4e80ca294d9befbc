"""toscaflow: model, verify, plan, and simulate TOSCA data-pipeline blueprints.

Every public name is imported from its module on first use (PEP 562), so
`import toscaflow` loads no layer and each program loads only the layers
it reaches.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it, in `__all__` order
_EXPORTS = {
    "AttributeDefinition": "model",
    "CapabilityDefinition": "model",
    "CronExpr": "cron",
    "CsarArchive": "csar",
    "DependencyEdge": "planner",
    "DependencyGraph": "planner",
    "DeploymentPlan": "planner",
    "Diagnostic": "verifier",
    "Flow": "simulator",
    "FlowItem": "simulator",
    "Locality": "topology",
    "NodeTemplate": "model",
    "PlanStep": "planner",
    "PropertyDefinition": "model",
    "RequirementAssignment": "model",
    "RequirementDefinition": "model",
    "ResolvedNodeType": "model",
    "ServiceTemplate": "model",
    "SourceLocation": "parsing",
    "TypeCatalog": "catalog",
    "Topology": "topology",
    "TypeDefinition": "model",
    "UNBOUNDED": "model",
    "build_graph": "planner",
    "builtin_catalog": "catalog",
    "check_encryption": "verifier",
    "check_locality": "verifier",
    "check_requirements": "verifier",
    "check_scheduling": "verifier",
    "colocated": "topology",
    "cron_next": "cron",
    "decrypt_bytes": "crypto",
    "encrypt_bytes": "crypto",
    "evaluate_intrinsic": "model",
    "export_catalog_yaml": "parsing",
    "fnv1a_64": "crypto",
    "host_chain": "topology",
    "instantiate": "simulator",
    "is_subtype": "model",
    "is_valid_cron": "cron",
    "lookup": "catalog",
    "pack_csar": "csar",
    "parse_cron": "cron",
    "parse_definitions": "parsing",
    "parse_node_templates_fragment": "parsing",
    "parse_requirements_fragment": "parsing",
    "parse_schedule": "simulator",
    "parse_service_template": "parsing",
    "plan": "planner",
    "report_to_dict": "verifier",
    "resolve_type": "model",
    "serialize_definitions": "parsing",
    "serialize_template": "parsing",
    "undeploy_plan": "planner",
    "unpack_csar": "csar",
    "validate_plan": "planner",
    "verify": "verifier",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    source = _EXPORTS.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{source}", __name__)
    # bind all of the module's public names at once, as `from .x import a, b`
    # would, so a tool that patches a module's functions finds each bound here
    globals().update((key, getattr(module, key))
                     for key, where in _EXPORTS.items() if where == source)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
