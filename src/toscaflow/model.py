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
from collections.abc import Mapping
from operator import attrgetter

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


class Record:
    """Base of the value records: equality, repr and `replace` by field.

    A subclass lists its fields in `_fields`, in constructor order, and
    writes its own `__init__`, which runs the record's checks.  Records are
    equal when they are of one class and agree on every field, and `repr`
    shows the fields.  `location` is not a field, so it takes part in
    neither; `replace` keeps it.  `class R(Record, frozen=True)` makes
    records that hash by their fields and refuse assignment, so their
    `__init__` stores each field as an item of `self.__dict__`
    (``fields = self.__dict__``, then ``fields["name"] = name``), which
    builds no keyword dict as ``self.__dict__.update(name=name)`` would.
    """

    def __init_subclass__(cls, frozen=False):
        cls._key = attrgetter(*cls._fields)
        if frozen:
            def refuse(self, name, *value):
                raise AttributeError(f"{cls.__name__} is frozen: cannot change {name!r}")
            cls.__setattr__ = cls.__delattr__ = refuse
            cls.__hash__ = lambda self: hash(self._key(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes):
        """This record with `changes`, built again through `__init__`."""
        return self.__class__(**{**self.__dict__, **changes})


class AttributeDefinition(Record):
    """A runtime attribute slot (e.g. the engine-assigned pipeline id)."""

    noun = "attribute"  # names the record in its errors
    _fields = ("name", "value_type", "default")

    def __init__(self, name: str, value_type: str = "string", default: object = None):
        self.name, self.value_type, self.default = name, value_type, default
        if value_type not in VALUE_TYPES:
            raise ValueError(f"unsupported {self.noun} type {value_type!r} on {name!r}")
        if default is not None and not _conforms(default, value_type):
            raise ValueError(f"default {default!r} of {self.noun} {name!r} "
                             f"does not fit type {value_type!r}")


class PropertyDefinition(AttributeDefinition):
    """One declared property on a type: an attribute's fields plus required."""

    noun = "property"
    _fields = (*AttributeDefinition._fields, "required")

    def __init__(self, name: str, value_type: str = "string", default: object = None,
                 required: bool = True):
        super().__init__(name, value_type, default)
        self.required = required
        if not isinstance(required, bool):
            raise ValueError(f"required {required!r} of property {name!r} "
                             f"is not a boolean")


class RequirementDefinition(Record):
    """A declared need: demanded capability, acceptable node and relationship."""

    _fields = ("name", "capability_type", "node_type", "relationship_type",
               "occurrences")

    def __init__(self, name: str, capability_type: str = "", node_type: str = "",
                 relationship_type: str = "", occurrences: Occurrences = (1, 1)):
        _check_occurrences(name, occurrences, least_maximum=1)
        self.name, self.capability_type = name, capability_type
        self.node_type, self.relationship_type = node_type, relationship_type
        self.occurrences = occurrences


class CapabilityDefinition(Record):
    """A declared ability to satisfy requirements of a given capability type."""

    _fields = ("name", "capability_type", "valid_source_types", "occurrences")

    def __init__(self, name: str, capability_type: str = "",
                 valid_source_types: list[str] | None = None,
                 occurrences: Occurrences = (1, UNBOUNDED)):
        _check_occurrences(name, occurrences, least_maximum=0)
        self.name, self.capability_type, self.occurrences = \
            name, capability_type, occurrences
        self.valid_source_types = \
            [] if valid_source_types is None else valid_source_types


class TypeDefinition(Record):
    """A node, capability, or relationship type, before ancestry flattening.

    `location` is where the definition was parsed from, if anywhere.
    """

    _fields = ("name", "kind", "derived_from", "properties", "attributes",
               "requirements", "capabilities", "metadata")

    def __init__(self, name: str, kind: str, derived_from: str | None = None,
                 properties: dict[str, PropertyDefinition] | None = None,
                 attributes: dict[str, AttributeDefinition] | None = None,
                 requirements: list[RequirementDefinition] | None = None,
                 capabilities: dict[str, CapabilityDefinition] | None = None,
                 metadata: dict[str, str] | None = None, location: object = None):
        if kind not in ("node", "capability", "relationship"):
            raise ValueError(f"unsupported type kind {kind!r}")
        self.name, self.kind, self.derived_from = name, kind, derived_from
        self.properties = {} if properties is None else properties
        self.attributes = {} if attributes is None else attributes
        self.requirements = [] if requirements is None else requirements
        self.capabilities = {} if capabilities is None else capabilities
        self.metadata = {} if metadata is None else metadata
        self.location = location


class RequirementAssignment(Record):
    """One requirement filled in on a node template; `relationship`
    optionally overrides the declared type."""

    _fields = ("name", "target", "relationship")

    def __init__(self, name: str, target: str, relationship: str | None = None):
        self.name, self.target, self.relationship = name, target, relationship


class NodeTemplate(Record):
    """A concrete node in a topology: a typed instance with assigned values."""

    _fields = ("name", "type", "property_values", "artifacts",
               "requirement_assignments")

    def __init__(self, name: str, type: str,
                 property_values: dict[str, object] | None = None,
                 artifacts: dict[str, str] | None = None,
                 requirement_assignments: list[RequirementAssignment] | None = None,
                 location: object = None):
        self.name, self.type, self.location = name, type, location
        self.property_values = {} if property_values is None else property_values
        self.artifacts = {} if artifacts is None else artifacts
        self.requirement_assignments = \
            [] if requirement_assignments is None else requirement_assignments


class ServiceTemplate(Record):
    """A parsed blueprint: inline type definitions plus the topology."""

    tosca_version = "tosca_simple_yaml_1_3"  # what a new template declares
    _fields = ("tosca_version", "user_types", "node_templates")

    def __init__(self, tosca_version: str = tosca_version,
                 user_types: list[TypeDefinition] | None = None,
                 node_templates: dict[str, NodeTemplate] | None = None):
        self.tosca_version = tosca_version
        self.user_types = [] if user_types is None else user_types
        self.node_templates = {} if node_templates is None else node_templates

    def combined_definitions(self):
        """The built-in catalog overlaid with this template's inline types.

        This is the one map every layer resolves the template's types in.
        """
        from .catalog import builtin_catalog

        defs = builtin_catalog().definitions  # a fresh copy
        defs.update({t.name: t for t in self.user_types})
        return defs


class ResolvedNodeType(Record):
    """A type with its derived_from ancestry flattened into merged maps.

    `ancestry` runs root first, the requested type last.  On a name
    collision the most-derived declaration wins wholesale.
    """

    _fields = ("name", "kind", "ancestry", "properties", "attributes",
               "requirements", "capabilities")

    def __init__(self, name: str, kind: str, ancestry: list[str],
                 properties: dict[str, PropertyDefinition],
                 attributes: dict[str, AttributeDefinition],
                 requirements: list[RequirementDefinition],
                 capabilities: dict[str, CapabilityDefinition]):
        self.name, self.kind, self.ancestry = name, kind, ancestry
        self.properties, self.attributes = properties, attributes
        self.requirements, self.capabilities = requirements, capabilities


def _conforms(value, value_type):
    if value_type == "string":
        return isinstance(value, str)
    if value_type == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, bool)


def _check_occurrences(name, occurrences, least_maximum):
    """Raise ValueError unless `occurrences` is (min, max) with min a
    non-bool int of at least 0 and max UNBOUNDED or a non-bool int no less
    than min and `least_maximum`."""
    lo, hi = occurrences
    if not _conforms(lo, "integer") or lo < 0:
        raise ValueError(f"bad minimum occurrence {lo!r} on {name}")
    if hi is UNBOUNDED:
        return
    if not _conforms(hi, "integer"):
        raise ValueError(f"bad maximum occurrence {hi!r} on {name}")
    if lo > hi or hi < least_maximum:
        raise ValueError(f"bad occurrences {occurrences!r} on {name}")


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
