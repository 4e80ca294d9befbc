"""Reading and writing the YAML blueprint exchange format.

The parser works on the composed YAML node tree rather than plain
``safe_load`` output so every definition and error can carry a precise
source location, and so duplicate mapping keys (e.g. two node templates
with the same name) are detected instead of silently collapsing.

Serialization emits a normalized form: two-space indent, template names
sorted, stable key order, so serialize(parse(serialize(t))) == serialize(t).
"""

from __future__ import annotations

import inspect
import re
import warnings
from dataclasses import dataclass

import yaml

from . import catalog as _catalog
from .errors import (
    DuplicateTemplateNameError,
    SchemaError,
    TemplateSyntaxError,
    UnknownTypeError,
)
from .model import (
    UNBOUNDED,
    AttributeDefinition,
    CapabilityDefinition,
    NodeTemplate,
    PropertyDefinition,
    RequirementAssignment,
    RequirementDefinition,
    ServiceTemplate,
    TypeDefinition,
    resolve_type,
)

TOSCA_VERSION_KEY = "tosca_definitions_version"

_SECTION_KINDS = {
    "node_types": "node",
    "capability_types": "capability",
    "relationship_types": "relationship",
}

# top-level keys we understand but deliberately do not interpret
_IGNORED_QUIETLY = {"description", "metadata"}

_LINE_BREAK = re.compile("\r\n|[\n\r\x85\u2028\u2029]")  # YAML's line breaks


@dataclass(frozen=True)
class SourceLocation:
    """1-based position of a construct in its input file."""

    file: str
    line: int
    column: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"

    @classmethod
    def after(cls, file: str, prefix: str) -> SourceLocation:
        """The position just past `prefix`, the text `file` starts with."""
        lines = _LINE_BREAK.split(prefix)
        return cls(file, len(lines), len(lines[-1]) + 1)


def _loc(node, filename) -> SourceLocation:
    mark = node.start_mark
    return SourceLocation(filename, mark.line + 1, mark.column + 1)


def _marked_error(exc: yaml.MarkedYAMLError, filename) -> TemplateSyntaxError:
    # the context mark is where the broken construct starts; the problem
    # mark is where the parser gave up, often the end of the stream
    message = ": ".join(filter(None, (exc.context, exc.problem))) or str(exc)
    mark = exc.context_mark or exc.problem_mark
    location = mark and SourceLocation(filename, mark.line + 1, mark.column + 1)
    return TemplateSyntaxError(message, location)


# libyaml composes on the C stack and kills the process past about
# 20,000 nested levels; the pure composer stops at the recursion limit
_LIBYAML_MAX_DEPTH = 2000

_TAG_START = r"(?:^|[\s\[\]{},:\ufeff])!"  # compiled by `re` on first use


def _suits_libyaml(text) -> bool:
    """Whether libyaml composes `text` safely and as the pure loader does,
    save that it accepts a tab in a plain scalar, which the pure one rejects.

    It marks the end of text with no final line break on the line after,
    counts a byte order mark past the start as a column, and resolves an
    empty scalar tagged `!` to '' where the pure loader gives None, so
    such text goes pure; most text has no '!', which is quicker to test.

    Its nesting must stay well inside the C stack.  A block collection is
    indented deeper than its parent, save a sequence inside a mapping, so
    block depth is at most twice the line length; flow depth is at most
    the number of brackets.  Lines split on '\\n' alone are no shorter
    than YAML's, so the bound stays an upper one.
    """
    if (not text.endswith("\n") or text.find("\ufeff", 1) != -1
            or ("!" in text and re.search(_TAG_START, text))):
        return False
    longest = max(map(len, text.split("\n")))
    return 2 * (longest + 1) + text.count("[") + text.count("{") <= _LIBYAML_MAX_DEPTH


def _compose(text, filename):
    fast_loader = getattr(yaml, "CSafeLoader", None)
    if fast_loader is not None and _suits_libyaml(text):
        try:
            return yaml.compose(text, Loader=fast_loader)
        except (yaml.YAMLError, UnicodeEncodeError):  # a lone surrogate
            pass  # composed again below, so the pure loader words the error
    try:
        loader = yaml.SafeLoader(text)
        try:
            return loader.get_single_node()
        except RecursionError as exc:
            raise _too_deep(_outermost_open(loader.marks), filename) from exc
        finally:
            loader.dispose()
    except yaml.MarkedYAMLError as exc:
        raise _marked_error(exc, filename) from exc
    except yaml.reader.ReaderError as exc:
        raise TemplateSyntaxError(
            f"unacceptable character #x{exc.character:04x}: {exc.reason}",
            SourceLocation.after(filename, text[:exc.position])) from exc
    except yaml.YAMLError as exc:
        raise TemplateSyntaxError(str(exc), SourceLocation(filename, 1, 1)) from exc


def _outermost_open(marks):
    """The start of the outermost flow collection among the parser's open
    collection `marks`, else of the outermost one: nesting deep enough to
    stop the composer is nearly always brackets."""
    return next((mark for mark in marks if mark.buffer[mark.pointer] in "[{"),
                marks[0])


def _too_deep(mark, filename) -> TemplateSyntaxError:
    return TemplateSyntaxError(
        "nested too deep", SourceLocation(filename, mark.line + 1, mark.column + 1))


# the scalar constructors are stateless, so one instance serves every call;
# the generator constructors build collections and need a fresh one
_SCALAR_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_SCALAR_CONSTRUCTORS = {
    tag: construct
    for tag, construct in yaml.constructor.SafeConstructor.yaml_constructors.items()
    if tag is not None and not inspect.isgeneratorfunction(construct)
}


def _construct(node, filename):
    try:
        if isinstance(node, yaml.ScalarNode) and node.tag in _SCALAR_CONSTRUCTORS:
            return _SCALAR_CONSTRUCTORS[node.tag](_SCALAR_CONSTRUCTOR, node)
        return yaml.constructor.SafeConstructor().construct_object(node, deep=True)
    except yaml.constructor.ConstructorError as exc:  # unknown tag, recursive alias
        raise _marked_error(exc, filename) from exc
    except ValueError as exc:  # a scalar its tag cannot convert, e.g. 2020-13-45
        raise TemplateSyntaxError(str(exc), _loc(node, filename)) from exc
    except (LookupError, AttributeError) as exc:  # e.g. !!bool maybe, a bare !!int
        raise TemplateSyntaxError("a value does not match its tag",
                                  _loc(node, filename)) from exc
    except RecursionError as exc:
        raise _too_deep(node.start_mark, filename) from exc


def _require_mapping(node, what, filename):
    if node is None:
        raise SchemaError(f"{what} is empty", SourceLocation(filename, 1, 1))
    if not isinstance(node, yaml.MappingNode):
        raise SchemaError(f"{what} must be a mapping", _loc(node, filename))
    return node


def _items(mapping_node, filename, duplicate_error=SchemaError):
    """(key, value_node, key_location) triples, rejecting duplicate keys."""
    seen = {}
    out = []
    for key_node, value_node in mapping_node.value:
        key = _construct(key_node, filename)
        if not isinstance(key, str):
            raise SchemaError(f"mapping key {key!r} is not a string",
                              _loc(key_node, filename))
        if key in seen:
            raise duplicate_error(f"duplicate key {key!r}", _loc(key_node, filename))
        seen[key] = True
        out.append((key, value_node, _loc(key_node, filename)))
    return out


# --------------------------------------------------------------------------
# definitions documents
# --------------------------------------------------------------------------

def parse_definitions(text: str, filename: str = "<string>") -> list[TypeDefinition]:
    """Parse a type-definitions document into TypeDefinition objects.

    The document should declare ``tosca_definitions_version`` and one or
    more of node_types / capability_types / relationship_types; a missing
    version header is tolerated when a type section is present.  Unknown
    top-level keys are ignored with a warning.
    """
    root = _require_mapping(_compose(text, filename), "definitions document", filename)
    sections = []
    saw_version = False
    for key, value_node, key_loc in _items(root, filename):
        if key == TOSCA_VERSION_KEY:
            saw_version = True
        elif key in _SECTION_KINDS:
            sections.append((key, value_node))
        elif key not in _IGNORED_QUIETLY:
            warnings.warn(f"{key_loc}: ignoring unknown top-level key {key!r}",
                          stacklevel=2)
    if not saw_version and not sections:
        raise SchemaError(f"missing {TOSCA_VERSION_KEY}",
                          SourceLocation(filename, 1, 1))
    return _parse_type_sections(sections, filename)


def _parse_type_sections(sections, filename) -> list[TypeDefinition]:
    """The types of (section key, section node) pairs, in document order."""
    definitions = []
    for section_key, section_node in sections:
        if section_node is None or isinstance(section_node, yaml.ScalarNode):
            continue  # empty section
        section = _require_mapping(section_node, section_key, filename)
        kind = _SECTION_KINDS[section_key]
        for name, body_node, name_loc in _items(section, filename):
            definitions.append(_parse_type(name, kind, body_node, name_loc, filename))
    return definitions


def _parse_type(name, kind, body_node, location, filename) -> TypeDefinition:
    derived_from = None
    properties = {}
    attributes = {}
    requirements = []
    capabilities = {}
    metadata = {}
    if body_node is not None and not isinstance(body_node, yaml.ScalarNode):
        body = _require_mapping(body_node, f"type {name!r}", filename)
        for key, value_node, key_loc in _items(body, filename):
            if key == "derived_from":
                derived_from = str(_construct(value_node, filename))
            elif key == "properties":
                properties = _parse_property_defs(value_node, filename)
            elif key == "attributes":
                attributes = _parse_attribute_defs(value_node, filename)
            elif key == "requirements":
                requirements = _parse_requirement_defs(value_node, filename)
            elif key == "capabilities":
                capabilities = _parse_capability_defs(value_node, filename)
            elif key == "metadata":
                raw = _construct(value_node, filename)
                if isinstance(raw, dict):
                    metadata = {str(k): str(v) for k, v in raw.items()}
            elif key != "description":
                warnings.warn(f"{key_loc}: ignoring unknown key {key!r} "
                              f"in type {name!r}", stacklevel=3)
    return TypeDefinition(
        name=name,
        kind=kind,
        derived_from=derived_from,
        properties=properties,
        attributes=attributes,
        requirements=requirements,
        capabilities=capabilities,
        metadata=metadata,
        location=location,
    )


def _coerce_default(value, value_type, where, location):
    if value is None:
        return None
    if value_type == "string":
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return str(value)
        if isinstance(value, str):
            return value
    elif value_type == "integer":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                pass
    elif value_type == "boolean":
        if isinstance(value, bool):
            return value
    raise SchemaError(f"default {value!r} of {where} does not fit type "
                      f"{value_type!r}", location)


def _parse_property_defs(node, filename):
    out = {}
    mapping = _require_mapping(node, "properties", filename)
    for name, body_node, name_loc in _items(mapping, filename):
        value_type = "string"
        default = None
        required = True
        if body_node is not None and not isinstance(body_node, yaml.ScalarNode):
            body = _require_mapping(body_node, f"property {name!r}", filename)
            raw = {}
            for key, value_node, _ in _items(body, filename):
                raw[key] = _construct(value_node, filename)
            value_type = str(raw.get("type", "string"))
            if value_type not in ("string", "integer", "boolean"):
                raise SchemaError(f"unsupported property type {value_type!r} "
                                  f"on {name!r}", name_loc)
            required = bool(raw.get("required", True))
            default = _coerce_default(raw.get("default"), value_type,
                                      f"property {name!r}", name_loc)
        out[name] = PropertyDefinition(name, value_type, default, required)
    return out


def _parse_attribute_defs(node, filename):
    out = {}
    mapping = _require_mapping(node, "attributes", filename)
    for name, body_node, name_loc in _items(mapping, filename):
        value_type = "string"
        default = None
        if body_node is not None and not isinstance(body_node, yaml.ScalarNode):
            body = _require_mapping(body_node, f"attribute {name!r}", filename)
            raw = {key: _construct(value_node, filename)
                   for key, value_node, _ in _items(body, filename)}
            value_type = str(raw.get("type", "string"))
            default = raw.get("default")
        out[name] = AttributeDefinition(name, value_type, default)
    return out


def _parse_occurrences(raw, where, location, default):
    if raw is None:
        return default
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(f"occurrences of {where} must be [min, max]", location)
    lo, hi = raw
    if not isinstance(lo, int) or isinstance(lo, bool) or lo < 0:
        raise SchemaError(f"bad minimum occurrence {lo!r} on {where}", location)
    if isinstance(hi, str) and hi == "UNBOUNDED":
        return (lo, UNBOUNDED)
    if not isinstance(hi, int) or isinstance(hi, bool):
        raise SchemaError(f"bad maximum occurrence {hi!r} on {where}", location)
    return (lo, hi)


def _checked(definition_class, location, **fields):
    """`definition_class(**fields)`, its ValueError a SchemaError at `location`."""
    try:
        return definition_class(**fields)
    except ValueError as exc:
        raise SchemaError(str(exc), location) from exc


def _parse_requirement_defs(node, filename):
    if not isinstance(node, yaml.SequenceNode):
        raise SchemaError("requirements must be a list", _loc(node, filename))
    out = []
    for entry_node in node.value:
        entry = _require_mapping(entry_node, "requirement entry", filename)
        entries = _items(entry, filename)
        if len(entries) != 1:
            raise SchemaError("each requirement entry holds exactly one name",
                              _loc(entry_node, filename))
        name, body_node, name_loc = entries[0]
        body = _require_mapping(body_node, f"requirement {name!r}", filename)
        raw = {key: _construct(value_node, filename)
               for key, value_node, _ in _items(body, filename)}
        for mandatory in ("capability", "node", "relationship"):
            if mandatory not in raw:
                raise SchemaError(f"requirement {name!r} lacks {mandatory!r}",
                                  name_loc)
        out.append(_checked(
            RequirementDefinition, name_loc,
            name=name,
            capability_type=str(raw["capability"]),
            node_type=str(raw["node"]),
            relationship_type=str(raw["relationship"]),
            occurrences=_parse_occurrences(raw.get("occurrences"), name,
                                           name_loc, (1, 1)),
        ))
    return out


def _parse_capability_defs(node, filename):
    out = {}
    mapping = _require_mapping(node, "capabilities", filename)
    for name, body_node, name_loc in _items(mapping, filename):
        body = _require_mapping(body_node, f"capability {name!r}", filename)
        raw = {key: _construct(value_node, filename)
               for key, value_node, _ in _items(body, filename)}
        if "type" not in raw:
            raise SchemaError(f"capability {name!r} lacks 'type'", name_loc)
        sources = raw.get("valid_source_types", [])
        if not isinstance(sources, list):
            raise SchemaError(f"valid_source_types of {name!r} must be a list",
                              name_loc)
        out[name] = _checked(
            CapabilityDefinition, name_loc,
            name=name,
            capability_type=str(raw["type"]),
            valid_source_types=[str(s) for s in sources],
            occurrences=_parse_occurrences(raw.get("occurrences"), name,
                                           name_loc, (1, UNBOUNDED)),
        )
    return out


def parse_requirements_fragment(text: str,
                                filename: str = "<string>") -> list[RequirementDefinition]:
    """Parse a bare ``requirements:`` block (as printed in catalog excerpts)."""
    root = _require_mapping(_compose(text, filename), "requirements fragment",
                            filename)
    for key, value_node, key_loc in _items(root, filename):
        if key == "requirements":
            return _parse_requirement_defs(value_node, filename)
    raise SchemaError("fragment has no 'requirements' key",
                      SourceLocation(filename, 1, 1))


# --------------------------------------------------------------------------
# service templates
# --------------------------------------------------------------------------

def parse_service_template(text: str, filename: str = "<string>") -> ServiceTemplate:
    """Parse a full blueprint document into a ServiceTemplate.

    Property expressions are kept symbolic (intrinsics are not evaluated).
    Assigned property names are validated against the resolved node type,
    required properties without defaults must be assigned, and requirement
    targets must name existing templates.  Types resolve in the template's
    `combined_definitions`: the built-in catalog overlaid with the
    document's inline type sections.
    """
    root = _require_mapping(_compose(text, filename), "service template", filename)
    version = None
    inline_sections = []
    topology_node = None
    for key, value_node, key_loc in _items(root, filename):
        if key == TOSCA_VERSION_KEY:
            version = str(_construct(value_node, filename))
        elif key in _SECTION_KINDS:
            inline_sections.append((key, value_node))
        elif key == "topology_template":
            topology_node = value_node
        elif key not in _IGNORED_QUIETLY:
            warnings.warn(f"{key_loc}: ignoring unknown top-level key {key!r}",
                          stacklevel=2)
    if version is None:
        raise SchemaError(f"missing {TOSCA_VERSION_KEY}",
                          SourceLocation(filename, 1, 1))
    if topology_node is None:
        raise SchemaError("missing topology_template",
                          SourceLocation(filename, 1, 1))

    template = ServiceTemplate(tosca_version=version,
                               user_types=_parse_type_sections(inline_sections, filename))

    topology = _require_mapping(topology_node, "topology_template", filename)
    templates_node = None
    for key, value_node, key_loc in _items(topology, filename):
        if key == "node_templates":
            templates_node = value_node
        else:
            warnings.warn(f"{key_loc}: ignoring topology_template key {key!r}",
                          stacklevel=2)
    if templates_node is None:
        raise SchemaError("topology_template has no node_templates",
                          _loc(topology, filename))

    node_templates = _parse_node_templates(
        templates_node, filename, template.combined_definitions(), partial=False)
    template.node_templates = node_templates
    for node in node_templates.values():
        for assignment in node.requirement_assignments:
            if assignment.target not in node_templates:
                raise SchemaError(
                    f"node {node.name!r} requirement {assignment.name!r} targets "
                    f"unknown template {assignment.target!r}", node.location)
    return template


def parse_node_templates_fragment(text: str,
                                  filename: str = "<string>") -> dict[str, NodeTemplate]:
    """Parse a bare node-template mapping (template excerpts, no topology).

    Fragments are partial by nature, so required-property coverage and
    requirement-target existence are not enforced; property names still are.
    Types resolve in the built-in catalog.
    """
    root = _require_mapping(_compose(text, filename), "node templates fragment",
                            filename)
    return _parse_node_templates(root, filename,
                                 ServiceTemplate().combined_definitions(), partial=True)


def _parse_node_templates(templates_node, filename, defs, partial):
    if isinstance(templates_node, yaml.ScalarNode):
        raw = _construct(templates_node, filename)
        if raw is None:
            return {}
        raise SchemaError("node_templates must be a mapping",
                          _loc(templates_node, filename))
    mapping = _require_mapping(templates_node, "node_templates", filename)
    out = {}
    for name, body_node, name_loc in _items(mapping, filename,
                                            duplicate_error=DuplicateTemplateNameError):
        out[name] = _parse_node_template(name, body_node, name_loc, filename,
                                         defs, partial)
    return out


def _parse_node_template(name, body_node, location, filename, defs, partial):
    body = _require_mapping(body_node, f"node template {name!r}", filename)
    type_name = None
    property_values = {}
    artifacts = {}
    assignments = []
    for key, value_node, key_loc in _items(body, filename):
        if key == "type":
            type_name = str(_construct(value_node, filename))
        elif key == "properties":
            prop_map = _require_mapping(value_node, f"properties of {name!r}",
                                        filename)
            for prop_name, prop_node, _ in _items(prop_map, filename):
                property_values[prop_name] = _construct(prop_node, filename)
        elif key == "artifacts":
            artifacts = _parse_artifacts(value_node, name, filename)
        elif key == "requirements":
            assignments = _parse_requirement_assignments(value_node, name, filename)
        elif key not in ("description", "metadata"):
            raise SchemaError(f"unknown key {key!r} on node template {name!r}",
                              key_loc)
    if type_name is None:
        raise SchemaError(f"node template {name!r} has no type", location)

    try:
        resolved = resolve_type(type_name, defs)
    except UnknownTypeError as exc:
        raise SchemaError(f"node template {name!r}: {exc}", location) from exc

    for prop_name in property_values:
        if prop_name not in resolved.properties:
            raise SchemaError(f"node template {name!r} assigns unknown property "
                              f"{prop_name!r}", location)
    if not partial:
        for prop in resolved.properties.values():
            if prop.required and prop.default is None \
                    and prop.name not in property_values:
                raise SchemaError(f"node template {name!r} misses required "
                                  f"property {prop.name!r}", location)

    return NodeTemplate(
        name=name,
        type=type_name,
        property_values=property_values,
        artifacts=artifacts,
        requirement_assignments=assignments,
        location=location,
    )


def _parse_artifacts(node, template_name, filename):
    out = {}
    mapping = _require_mapping(node, f"artifacts of {template_name!r}", filename)
    for name, body_node, name_loc in _items(mapping, filename):
        raw = _construct(body_node, filename)
        if isinstance(raw, str):
            out[name] = raw
        elif isinstance(raw, dict) and isinstance(raw.get("file"), str):
            out[name] = raw["file"]
        else:
            raise SchemaError(f"artifact {name!r} needs a file path", name_loc)
    return out


def _parse_requirement_assignments(node, template_name, filename):
    if not isinstance(node, yaml.SequenceNode):
        raise SchemaError(f"requirements of {template_name!r} must be a list",
                          _loc(node, filename))
    out = []
    for entry_node in node.value:
        entry = _require_mapping(entry_node, "requirement assignment", filename)
        entries = _items(entry, filename)
        if len(entries) != 1:
            raise SchemaError("each requirement assignment holds exactly one name",
                              _loc(entry_node, filename))
        name, body_node, name_loc = entries[0]
        raw = _construct(body_node, filename)
        if isinstance(raw, str):
            out.append(RequirementAssignment(name=name, target=raw))
        elif isinstance(raw, dict):
            unknown = set(raw) - {"node", "relationship"}
            if unknown:
                raise SchemaError(f"requirement {name!r} has unsupported keys "
                                  f"{sorted(unknown)}", name_loc)
            if "node" not in raw:
                raise SchemaError(f"requirement {name!r} assignment lacks 'node'",
                                  name_loc)
            relationship = raw.get("relationship")
            out.append(RequirementAssignment(
                name=name,
                target=str(raw["node"]),
                relationship=None if relationship is None else str(relationship),
            ))
        else:
            raise SchemaError(f"requirement {name!r} must name a target", name_loc)
    return out


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def serialize_template(template: ServiceTemplate) -> str:
    """Normalized YAML for a service template (sorted template names)."""
    doc = {TOSCA_VERSION_KEY: template.tosca_version}
    doc.update(_definition_sections(template.user_types))
    node_templates = {}
    for name in sorted(template.node_templates):
        node_templates[name] = _dump_node_template(template.node_templates[name])
    doc["topology_template"] = {"node_templates": node_templates}
    return _dump(doc)


def serialize_definitions(definitions, tosca_version="tosca_simple_yaml_1_3") -> str:
    """Normalized YAML for a set of TypeDefinitions (the catalog export shape)."""
    doc = {TOSCA_VERSION_KEY: tosca_version}
    doc.update(_definition_sections(definitions))
    return _dump(doc)


def _dump(doc) -> str:
    dumper = getattr(yaml, "CSafeDumper", None)
    if dumper is None or not _libyaml_emits_alike(doc):
        dumper = yaml.SafeDumper
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, indent=2,
                     default_flow_style=False, width=100)


def _libyaml_emits_alike(doc) -> bool:
    """True when libyaml writes `doc` byte for byte as the pure emitter does.

    The two emitters differ in folding a long double-quoted scalar, which
    a string of printable ASCII never is.  They also differ in which keys
    they write in the explicit `? key` form: the pure emitter does so for
    an empty key, and for one that comes to 128 characters or more with
    its five-character tag `!!str`; libyaml only for a key past 128.
    """
    pending = [doc]
    while pending:
        value = pending.pop()
        if isinstance(value, str):
            if not (value.isascii() and value.isprintable()):
                return False
        elif isinstance(value, dict):
            for key in value:
                if not (isinstance(key, str) and 0 < len(key) < 123
                        and key.isascii() and key.isprintable()):
                    return False
            pending.extend(value.values())
        elif isinstance(value, list):
            pending.extend(value)
        elif value is not None and not isinstance(value, (bool, int, float)):
            return False
    return True


def _definition_sections(definitions):
    sections = {}
    by_kind = {"node": {}, "capability": {}, "relationship": {}}
    for definition in definitions:
        by_kind[definition.kind][definition.name] = definition
    for section_key, kind in _SECTION_KINDS.items():
        group = by_kind[kind]
        if group:
            sections[section_key] = {name: _dump_type(group[name])
                                     for name in sorted(group)}
    return sections


def _dump_occurrences(occurrences):
    lo, hi = occurrences
    return [lo, "UNBOUNDED" if hi is UNBOUNDED else hi]


def _dump_type(definition: TypeDefinition):
    out = {}
    if definition.derived_from:
        out["derived_from"] = definition.derived_from
    if definition.metadata:
        out["metadata"] = dict(definition.metadata)
    if definition.attributes:
        out["attributes"] = {
            name: {"type": attr.value_type}
            for name, attr in sorted(definition.attributes.items())
        }
    if definition.properties:
        props = {}
        for name in sorted(definition.properties):
            prop = definition.properties[name]
            body = {"type": prop.value_type}
            if prop.default is not None:
                body["default"] = prop.default
            if not prop.required:
                body["required"] = False
            props[name] = body
        out["properties"] = props
    if definition.requirements:
        out["requirements"] = [
            {req.name: {
                "capability": req.capability_type,
                "node": req.node_type,
                "relationship": req.relationship_type,
                "occurrences": _dump_occurrences(req.occurrences),
            }}
            for req in definition.requirements
        ]
    if definition.capabilities:
        caps = {}
        for name in sorted(definition.capabilities):
            cap = definition.capabilities[name]
            body = {"occurrences": _dump_occurrences(cap.occurrences)}
            if cap.valid_source_types:
                body["valid_source_types"] = list(cap.valid_source_types)
            body["type"] = cap.capability_type
            caps[name] = body
        out["capabilities"] = caps
    return out


def _dump_node_template(node: NodeTemplate):
    out = {"type": node.type}
    if node.property_values:
        out["properties"] = {name: node.property_values[name]
                             for name in sorted(node.property_values)}
    if node.artifacts:
        out["artifacts"] = {name: node.artifacts[name]
                            for name in sorted(node.artifacts)}
    if node.requirement_assignments:
        reqs = []
        for assignment in node.requirement_assignments:
            if assignment.relationship is None:
                reqs.append({assignment.name: assignment.target})
            else:
                reqs.append({assignment.name: {
                    "node": assignment.target,
                    "relationship": assignment.relationship,
                }})
        out["requirements"] = reqs
    return out


def export_catalog_yaml() -> str:
    """The built-in catalog as a definitions document the parser reads back."""
    definitions = _catalog.builtin_catalog().definitions
    return serialize_definitions(list(definitions.values()))
