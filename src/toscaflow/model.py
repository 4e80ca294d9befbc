"""Object model for TOSCA blueprints and the derived_from type system.

Holds type definitions (node / capability / relationship), node templates,
service templates, and the three core operations on them: flattening a
type's ancestry, subtype tests, and evaluation of the small intrinsic
function subset (`get_artifact`, `get_property`).

Values are immutable after construction: no toscaflow module mutates a model
object once built, and `verify(fix=True)` returns a new template that shares
with its input every node it did not repair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import (
    CyclicDerivationError,
    CyclicPropertyError,
    IntrinsicArityError,
    UnknownArtifactError,
    UnknownPropertyError,
    UnknownTemplateError,
    UnknownTypeError,
)


class _Unbounded:
    """Marker for an occurrence range with no upper limit."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()

#: Occurrence bounds: (min, max). max is an int or UNBOUNDED.
Occurrences = tuple

VALUE_TYPES = ("string", "integer", "boolean")


@dataclass
class PropertyDefinition:
    """One declared property on a type: name, scalar type, default, required."""

    name: str
    value_type: str = "string"
    default: Any = None
    required: bool = True

    def __post_init__(self):
        if self.value_type not in VALUE_TYPES:
            raise ValueError(f"unsupported property type {self.value_type!r}")
        if self.default is not None and not _conforms(self.default, self.value_type):
            raise ValueError(
                f"default {self.default!r} does not conform to {self.value_type}"
            )


@dataclass
class AttributeDefinition:
    """A runtime attribute slot (e.g. the engine-assigned pipeline id)."""

    name: str
    value_type: str = "string"
    default: Any = None


@dataclass
class RequirementDefinition:
    """A declared need: demanded capability, acceptable node and relationship."""

    name: str
    capability_type: str = ""
    node_type: str = ""
    relationship_type: str = ""
    occurrences: Occurrences = (1, 1)

    def __post_init__(self):
        lo, hi = self.occurrences
        if hi is not UNBOUNDED and (lo > hi or hi < 1):
            raise ValueError(f"bad occurrences {self.occurrences!r} on {self.name}")
        if lo < 0:
            raise ValueError(f"negative minimum occurrence on {self.name}")


@dataclass
class CapabilityDefinition:
    """A declared ability to satisfy requirements of a given capability type."""

    name: str
    capability_type: str = ""
    valid_source_types: list[str] = field(default_factory=list)
    occurrences: Occurrences = (1, UNBOUNDED)

    def __post_init__(self):
        lo, hi = self.occurrences
        if hi is not UNBOUNDED and lo > hi:
            raise ValueError(f"bad occurrences {self.occurrences!r} on {self.name}")


@dataclass
class TypeDefinition:
    """A node, capability, or relationship type, before ancestry flattening."""

    name: str
    kind: str  # "node" | "capability" | "relationship"
    derived_from: str | None = None
    properties: dict[str, PropertyDefinition] = field(default_factory=dict)
    attributes: dict[str, AttributeDefinition] = field(default_factory=dict)
    requirements: list[RequirementDefinition] = field(default_factory=list)
    capabilities: dict[str, CapabilityDefinition] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)
    # where the definition was parsed from, if anywhere; not part of equality
    location: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("node", "capability", "relationship"):
            raise ValueError(f"unsupported type kind {self.kind!r}")


@dataclass
class RequirementAssignment:
    """One requirement filled in on a node template."""

    name: str
    target: str
    relationship: str | None = None  # optional override of the declared type


@dataclass
class NodeTemplate:
    """A concrete node in a topology: a typed instance with assigned values."""

    name: str
    type: str
    property_values: dict[str, Any] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    requirement_assignments: list[RequirementAssignment] = field(default_factory=list)
    location: Any = field(default=None, compare=False, repr=False)


@dataclass
class ServiceTemplate:
    """A parsed blueprint: inline type definitions plus the topology."""

    tosca_version: str = "tosca_simple_yaml_1_3"
    user_types: list[TypeDefinition] = field(default_factory=list)
    node_templates: dict[str, NodeTemplate] = field(default_factory=dict)

    def combined_definitions(self):
        """The built-in catalog overlaid with this template's inline types.

        This is the one map every layer resolves the template's types in.
        """
        from .catalog import builtin_catalog

        defs = builtin_catalog().definitions  # a fresh copy
        defs.update({t.name: t for t in self.user_types})
        return defs


@dataclass
class ResolvedNodeType:
    """A type with its derived_from ancestry flattened into merged maps.

    `ancestry` runs root first, the requested type last.  On a name
    collision the most-derived declaration wins wholesale.
    """

    name: str
    kind: str
    ancestry: list[str]
    properties: dict[str, PropertyDefinition]
    attributes: dict[str, AttributeDefinition]
    requirements: list[RequirementDefinition]
    capabilities: dict[str, CapabilityDefinition]


def _conforms(value, value_type):
    if value_type == "string":
        return isinstance(value, str)
    if value_type == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if value_type == "boolean":
        return isinstance(value, bool)
    return False


def ancestry_of(name: str, defs: Mapping[str, TypeDefinition]) -> list[TypeDefinition]:
    """Definitions from root to `name`, following derived_from upwards."""
    chain = []
    seen = set()
    current = name
    while current is not None:
        if current not in defs:
            raise UnknownTypeError(f"unknown type {current!r}")
        if current in seen:
            raise CyclicDerivationError(
                f"derived_from cycle through {current!r} while resolving {name!r}"
            )
        seen.add(current)
        definition = defs[current]
        chain.append(definition)
        current = definition.derived_from
    chain.reverse()
    return chain


def resolve_type(name: str, defs: Mapping[str, TypeDefinition]) -> ResolvedNodeType:
    """Flatten `name`'s ancestry into one merged definition.

    Raises UnknownTypeError for absent names and CyclicDerivationError when
    the derived_from graph loops.
    """
    chain = ancestry_of(name, defs)
    properties: dict[str, PropertyDefinition] = {}
    attributes: dict[str, AttributeDefinition] = {}
    requirements: dict[str, RequirementDefinition] = {}
    capabilities: dict[str, CapabilityDefinition] = {}
    for definition in chain:
        properties.update(definition.properties)
        attributes.update(definition.attributes)
        for req in definition.requirements:
            requirements[req.name] = req  # most-derived wins, position kept
        capabilities.update(definition.capabilities)
    return ResolvedNodeType(
        name=name,
        kind=chain[-1].kind,
        ancestry=[d.name for d in chain],
        properties=properties,
        attributes=attributes,
        requirements=list(requirements.values()),
        capabilities=capabilities,
    )


def is_subtype(a: str, b: str, defs: Mapping[str, TypeDefinition]) -> bool:
    """True iff `b` appears in `a`'s ancestry (reflexive)."""
    return b in (d.name for d in ancestry_of(a, defs))


_INTRINSIC_NAMES = ("get_artifact", "get_property")


def _as_intrinsic(expr):
    """Return (fn, args) when `expr` encodes an intrinsic call, else None.

    Accepts the mapping form {get_artifact: [SELF, name]} and the quoted
    string form "{ get_artifact: [SELF, name]}" used in blueprints.
    """
    if isinstance(expr, dict) and len(expr) == 1:
        fn = next(iter(expr))
        if fn in _INTRINSIC_NAMES:
            args = expr[fn]
            if isinstance(args, list):
                return fn, args
    if isinstance(expr, str):
        stripped = expr.strip()
        if stripped.startswith("{") and stripped.endswith("}"):
            call = _quoted_intrinsic(stripped)
            if call is not None:
                return call[0], list(call[1])
    return None


@functools.lru_cache(maxsize=1024)
def _quoted_intrinsic(text):
    """(fn, args tuple) for the string form of an intrinsic call, else None.

    The pure loader stays here: libyaml accepts some tabs that it rejects,
    which would change which strings count as intrinsics.
    """
    import yaml  # here alone, so building the catalog does not load PyYAML

    try:
        inner = yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError):  # not YAML, or nested too deep
        return None
    call = _as_intrinsic(inner) if isinstance(inner, dict) else None
    return call and (call[0], tuple(call[1]))


def evaluate_intrinsic(expr, node: NodeTemplate, template: ServiceTemplate):
    """Evaluate a property expression against a node in a template.

    Literals come back unchanged.  `get_artifact: [SELF, name]` yields the
    declared artifact path; `get_property: [SELF|<template>, name]` yields
    the assigned value (itself evaluated) or the type default, resolved
    in the template's `combined_definitions`.  Raises CyclicPropertyError
    when a chain of get_property reads comes back to a (template,
    property) pair it already read.
    """
    reading = {}  # (template name, property) pairs read so far, in order
    while True:
        call = _as_intrinsic(expr)
        if call is None:
            return expr
        fn, args = call
        if len(args) != 2:
            raise IntrinsicArityError(f"{fn} expects two arguments, got {args!r}")
        subject, item = str(args[0]), str(args[1])
        target = _resolve_subject(subject, node, template)

        if fn == "get_artifact":
            if item not in target.artifacts:
                raise UnknownArtifactError(
                    f"node {target.name!r} declares no artifact {item!r}"
                )
            return target.artifacts[item]

        if item not in target.property_values:
            break
        pair = (target.name, item)
        if pair in reading:
            raise CyclicPropertyError(
                "get_property cycle: "
                + " -> ".join(f"{n}.{p}" for n, p in [*reading, pair]))
        reading[pair] = None
        expr, node = target.property_values[item], target

    resolved = resolve_type(target.type, template.combined_definitions())
    if item in resolved.properties:
        return resolved.properties[item].default
    raise UnknownPropertyError(
        f"type {target.type!r} defines no property {item!r}"
    )


def _resolve_subject(subject, node, template):
    if subject == "SELF":
        return node
    if subject in template.node_templates:
        return template.node_templates[subject]
    raise UnknownTemplateError(f"no node template named {subject!r}")
