"""Reading and writing the YAML blueprint exchange format.

The parser works on the composed YAML node tree rather than plain
``safe_load`` output so every definition and error can carry a precise
source location, and so duplicate mapping keys (e.g. two node templates
with the same name) are detected instead of silently collapsing.

Serialization emits a normalized form: two-space indent, template names
sorted, stable key order, so serialize(parse(serialize(t))) == serialize(t).
Its bytes are `yaml.dump`'s with SafeDumper (see `_dump`), written a line
at a time from the model records and plain data.  A printable-ASCII str
is plain unless it is empty, has a leading or trailing space, starts with
one of ``#,[]{}&*!|>'"%@` ``, with ``---`` or ``...``, or with ``?``,
``:`` or ``-`` before a space or the end, holds ``: `` or `` #``, ends
with ``:``, or resolves to another tag; then it is single-quoted, each
``'`` doubled.  A None, bool, int or float is SafeRepresenter's text.
Anything else goes to `yaml.dump` whole: a str not printable ASCII, a key
not a str of 1-122 characters, a scalar with a space that ends past
column 100 (it may fold), a collection reached twice (it is anchored), a
scalar text resolving to another tag, and any other type.  Both ways, a
plain scalar is a str when its first character starts no implicit
resolver, without asking PyYAML's resolver.
"""

from __future__ import annotations

import functools
import gc
import re
import warnings

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
    Record,
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

# keys of a document or a node template we read but do not interpret
_IGNORED_QUIETLY = {"description", "metadata"}

_LINE_BREAK = re.compile("\r\n|[\n\r\x85\u2028\u2029]")  # YAML's line breaks


class SourceLocation(Record, frozen=True):
    """1-based position of a construct in its input file."""

    _fields = ("file", "line", "column")

    def __init__(self, file: str, line: int, column: int):
        fields = self.__dict__
        fields["file"] = file
        fields["line"] = line
        fields["column"] = column

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
# an empty value before a flow collection's ',', '}' or ']', maybe after comments;
# the lookahead takes the whole run of whitespace and never gives any back, as
# what follows starts with no whitespace (`\s*+` would need Python 3.11)
_EMPTY_FLOW_VALUE = r":(?=(\s*))\1(?:[,}\]]|#[^\n]*\n(?:\s*#[^\n]*\n)*\s*[,}\]])"


def _suits_libyaml(text) -> bool:
    """Whether libyaml composes `text` safely and as the pure loader does.

    It marks the end of text with no final line break on the line after,
    counts a byte order mark past the start as a column, resolves an
    empty scalar tagged `!` to '' where the pure loader gives None,
    accepts tabs the pure loader rejects (`a: b\\tc`), and starts a value
    left empty in a flow collection past its ':' (`{k: }`), so such text
    goes pure; most text has no '!', which is quicker to test.

    Its nesting must stay well inside the C stack.  A block collection is
    indented deeper than its parent, save a sequence inside a mapping, so
    block depth is at most twice the line length; flow depth is at most
    the number of brackets.  Lines split on '\\n' alone are no shorter
    than YAML's, so the bound stays an upper one.
    """
    if (not text.endswith("\n") or text.find("\ufeff", 1) != -1 or "\t" in text
            or ("!" in text and re.search(_TAG_START, text))
            or re.search(_EMPTY_FLOW_VALUE, text)):
        return False
    longest = max(map(len, text.split("\n")))
    return 2 * (longest + 1) + text.count("[") + text.count("{") <= _LIBYAML_MAX_DEPTH


_STR_TAG = "tag:yaml.org,2002:str"
_SEQ_TAG = "tag:yaml.org,2002:seq"
_MAP_TAG = "tag:yaml.org,2002:map"
# the first characters of a plain scalar that may resolve to another tag
# (with '' for the empty one): stock SafeLoader's and SafeDumper's table
_IMPLICIT_FIRST = yaml.resolver.Resolver.yaml_implicit_resolvers


class _Resolver(yaml.resolver.Resolver):
    """A resolver put before a stock loader's own.  toscaflow registers no
    path resolver, so a collection takes the default tag, a quoted scalar
    `!!str`, and a plain scalar's tag depends on its value alone: a str
    when no implicit resolver starts with its first character, else
    resolved once per value in a document.  The path hooks do nothing."""

    def __init__(self, stream):
        super().__init__(stream)  # the stock loader's
        self._plain_tags = {}

    def resolve(self, kind, value, implicit):
        if kind is not yaml.ScalarNode:
            return _MAP_TAG if kind is yaml.MappingNode else _SEQ_TAG
        if not implicit[0] or value[:1] not in _IMPLICIT_FIRST:
            return _STR_TAG
        tag = self._plain_tags.get(value)
        if tag is None:
            tag = self._plain_tags[value] = super().resolve(kind, value, implicit)
        return tag

    def descend_resolver(self, current_node, current_index):
        pass

    def ascend_resolver(self):
        pass


class _PureLoader(_Resolver, yaml.SafeLoader):
    """`yaml.SafeLoader` resolving through `_Resolver`."""


_LibyamlLoader = None
if yaml.__with_libyaml__:  # yaml.cyaml's, so hiding yaml.CSafeLoader first is safe
    class _LibyamlLoader(_Resolver, yaml.cyaml.CSafeLoader):
        """`yaml.CSafeLoader` resolving through `_Resolver`."""


def _compose(text, filename):
    # asked at each call, so hiding `CSafeLoader` takes the pure path
    if getattr(yaml, "CSafeLoader", None) is not None and _suits_libyaml(text):
        try:
            return yaml.compose(text, Loader=_LibyamlLoader)
        except (yaml.YAMLError, UnicodeEncodeError):  # a lone surrogate
            pass  # composed again below, so the pure loader words the error
    try:
        loader = _PureLoader(text)
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


def _construct(node, filename):
    if isinstance(node, yaml.ScalarNode) and node.tag == _STR_TAG:
        return node.value  # what construct_yaml_str returns
    try:
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


def _items(node, what, filename, duplicate_error=SchemaError):
    """(key, value_node, key_node) triples of the mapping `node`, rejecting
    duplicate keys."""
    seen = {}
    out = []
    for key_node, value_node in _require_mapping(node, what, filename).value:
        key = key_node.value if key_node.tag == _STR_TAG \
            and isinstance(key_node, yaml.ScalarNode) else _construct(key_node, filename)
        if not isinstance(key, str):
            raise SchemaError(f"mapping key {key!r} is not a string",
                              _loc(key_node, filename))
        if key in seen:
            raise duplicate_error(f"duplicate key {key!r}", _loc(key_node, filename))
        seen[key] = True
        out.append((key, value_node, key_node))
    return out


def _fields(node, what, filename):
    """The mapping `node` with its values constructed."""
    return {key: _construct(value_node, filename)
            for key, value_node, _ in _items(node, what, filename)}


def _named_entries(node, what, entry, filename):
    """(name, body_node, name_node) of each one-name mapping in the list
    `node`, each checked only when it is reached."""
    if not isinstance(node, yaml.SequenceNode):
        raise SchemaError(f"{what} must be a list", _loc(node, filename))
    for entry_node in node.value:
        entries = _items(entry_node, entry, filename)
        if len(entries) != 1:
            raise SchemaError(f"each {entry} holds exactly one name",
                              _loc(entry_node, filename))
        yield entries[0]


def _present(node) -> bool:
    """Whether a body has content: an empty or scalar body reads as empty."""
    return node is not None and not isinstance(node, yaml.ScalarNode)


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
    version, sections, _ = _top_level(text, "definitions document", filename)
    if version is None and not sections:
        raise SchemaError(f"missing {TOSCA_VERSION_KEY}",
                          SourceLocation(filename, 1, 1))
    return _parse_type_sections(sections, filename)


def _top_level(text, what, filename, body_key=None):
    """The version header (None when absent), the (key, node) type
    sections in document order and the node of `body_key` (None when
    absent) of the document `text`; any other key warns, attributed to
    the public parser's caller, unless it is ignored quietly.  A header
    is the text of a scalar: a null or a collection is a SchemaError."""
    version, sections, body_node = None, [], None
    for key, value_node, key_node in _items(_compose(text, filename), what, filename):
        if key == TOSCA_VERSION_KEY:
            version = _construct(value_node, filename) \
                if isinstance(value_node, yaml.ScalarNode) else None
            if version is None:
                raise SchemaError(f"{TOSCA_VERSION_KEY} must name a version",
                                  _loc(value_node, filename))
            version = str(version)
        elif key in _SECTION_KINDS:
            sections.append((key, value_node))
        elif key == body_key:
            body_node = value_node
        elif key not in _IGNORED_QUIETLY:
            warnings.warn(f"{_loc(key_node, filename)}: ignoring unknown "
                          f"top-level key {key!r}", stacklevel=3)
    return version, sections, body_node


def _parse_type_sections(sections, filename) -> list[TypeDefinition]:
    """The types of (section key, section node) pairs, in document order."""
    definitions = []
    for section_key, section_node in sections:
        if not _present(section_node):
            continue
        kind = _SECTION_KINDS[section_key]
        for name, body_node, name_node in _items(section_node, section_key, filename):
            definitions.append(_parse_type(name, kind, body_node,
                                           _loc(name_node, filename), filename))
    return definitions


def _parse_type(name, kind, body_node, location, filename) -> TypeDefinition:
    fields = {}
    if _present(body_node):
        for key, value_node, key_node in _items(body_node, f"type {name!r}", filename):
            if key in _TYPE_SECTIONS:
                fields[key] = _TYPE_SECTIONS[key](value_node, filename)
            elif key == "derived_from":
                fields[key] = str(_construct(value_node, filename))
            elif key == "metadata":
                raw = _construct(value_node, filename)
                if isinstance(raw, dict):
                    fields[key] = {str(k): str(v) for k, v in raw.items()}
            elif key != "description":
                warnings.warn(f"{_loc(key_node, filename)}: ignoring unknown key "
                              f"{key!r} in type {name!r}", stacklevel=3)
    return TypeDefinition(name=name, kind=kind, location=location, **fields)


def _coerce_default(value, value_type):
    """`value` read as a `value_type` where YAML typed it otherwise: a bool
    or number as text for a string, decimal text as an int for an integer.
    Anything else is returned as it is, for the model to judge."""
    if value_type == "string" and isinstance(value, (bool, int, float)):
        return str(value).lower() if isinstance(value, bool) else str(value)
    if value_type == "integer" and isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    return value


def _parse_value_defs(definition_class, section, optional, node, filename):
    """Each property or attribute of `section` as a `definition_class`
    record; the `optional` keys a body holds are passed on as read."""
    out = {}
    for name, body_node, name_node in _items(node, section, filename):
        raw = _fields(body_node, f"{definition_class.noun} {name!r}", filename) \
            if _present(body_node) else {}
        value_type = str(raw.get("type", "string"))
        out[name] = _checked(definition_class, name_node, filename, name=name,
                             value_type=value_type,
                             default=_coerce_default(raw.get("default"), value_type),
                             **{key: raw[key] for key in optional if key in raw})
    return out


def _parse_occurrences(raw, where, name_node, filename, default):
    if raw is None:
        return default
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(f"occurrences of {where} must be [min, max]",
                          _loc(name_node, filename))
    lo, hi = raw
    return (lo, UNBOUNDED if hi == "UNBOUNDED" else hi)


def _checked(definition_class, name_node, filename, **fields):
    """`definition_class(**fields)`, its ValueError a SchemaError at `name_node`."""
    try:
        return definition_class(**fields)
    except ValueError as exc:
        raise SchemaError(str(exc), _loc(name_node, filename)) from exc


def _parse_requirement_defs(node, filename):
    out = []
    for name, body_node, name_node in _named_entries(node, "requirements",
                                                     "requirement entry", filename):
        raw = _fields(body_node, f"requirement {name!r}", filename)
        for mandatory in ("capability", "node", "relationship"):
            if mandatory not in raw:
                raise SchemaError(f"requirement {name!r} lacks {mandatory!r}",
                                  _loc(name_node, filename))
        out.append(_checked(
            RequirementDefinition, name_node, filename,
            name=name,
            capability_type=str(raw["capability"]),
            node_type=str(raw["node"]),
            relationship_type=str(raw["relationship"]),
            occurrences=_parse_occurrences(raw.get("occurrences"), name,
                                           name_node, filename, (1, 1)),
        ))
    return out


def _parse_capability_defs(node, filename):
    out = {}
    for name, body_node, name_node in _items(node, "capabilities", filename):
        raw = _fields(body_node, f"capability {name!r}", filename)
        if "type" not in raw:
            raise SchemaError(f"capability {name!r} lacks 'type'",
                              _loc(name_node, filename))
        sources = raw.get("valid_source_types", [])
        if not isinstance(sources, list):
            raise SchemaError(f"valid_source_types of {name!r} must be a list",
                              _loc(name_node, filename))
        out[name] = _checked(
            CapabilityDefinition, name_node, filename,
            name=name,
            capability_type=str(raw["type"]),
            valid_source_types=[str(s) for s in sources],
            occurrences=_parse_occurrences(raw.get("occurrences"), name,
                                           name_node, filename, (1, UNBOUNDED)),
        )
    return out


# the sections of a type body, each keyed by its TypeDefinition field
_TYPE_SECTIONS = {
    "properties": functools.partial(_parse_value_defs, PropertyDefinition,
                                    "properties", ("required",)),
    "attributes": functools.partial(_parse_value_defs, AttributeDefinition,
                                    "attributes", ()),
    "requirements": _parse_requirement_defs,
    "capabilities": _parse_capability_defs,
}


def parse_requirements_fragment(text: str,
                                filename: str = "<string>") -> list[RequirementDefinition]:
    """Parse a bare ``requirements:`` block (as printed in catalog excerpts)."""
    root = _compose(text, filename)
    for key, value_node, _ in _items(root, "requirements fragment", filename):
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

    The cyclic garbage collector is paused while the template is built,
    and switched back on at the end only if it was on.  The pause holds
    for the whole process, not only this thread.
    """
    collecting = gc.isenabled()
    gc.disable()  # the build allocates much and frees next to nothing
    try:
        version, sections, topology_node = _top_level(
            text, "service template", filename, "topology_template")
        if version is None:
            raise SchemaError(f"missing {TOSCA_VERSION_KEY}",
                              SourceLocation(filename, 1, 1))
        if topology_node is None:
            raise SchemaError("missing topology_template",
                              SourceLocation(filename, 1, 1))
        user_types = _parse_type_sections(sections, filename)

        templates_node = None
        for key, value_node, key_node in _items(topology_node, "topology_template",
                                                filename):
            if key == "node_templates":
                templates_node = value_node
            else:
                warnings.warn(f"{_loc(key_node, filename)}: ignoring topology_template "
                              f"key {key!r}", stacklevel=2)
        if templates_node is None:
            raise SchemaError("topology_template has no node_templates",
                              _loc(topology_node, filename))

        node_templates = _parse_node_templates(
            templates_node, filename,
            ServiceTemplate(user_types=user_types).combined_definitions(), partial=False)
        for node in node_templates.values():
            for assignment in node.requirement_assignments:
                if assignment.target not in node_templates:
                    raise SchemaError(
                        f"node {node.name!r} requirement {assignment.name!r} targets "
                        f"unknown template {assignment.target!r}", node.location)
        return ServiceTemplate(version, user_types, node_templates)
    finally:
        if collecting:
            gc.enable()


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
    if isinstance(templates_node, yaml.ScalarNode) \
            and _construct(templates_node, filename) is None:
        return {}
    out = {}
    types = {}  # each type resolved so far, by name
    for name, body_node, name_node in _items(templates_node, "node_templates", filename,
                                             duplicate_error=DuplicateTemplateNameError):
        out[name] = _parse_node_template(name, body_node, _loc(name_node, filename),
                                         filename, defs, partial, types)
    return out


def _parse_node_template(name, body_node, location, filename, defs, partial, types):
    type_name = None
    property_values = {}
    artifacts = {}
    assignments = []
    for key, value_node, key_node in _items(body_node, f"node template {name!r}",
                                            filename):
        if key == "type":
            type_name = str(_construct(value_node, filename))
        elif key == "properties":
            property_values = _fields(value_node, f"properties of {name!r}", filename)
        elif key == "artifacts":
            artifacts = _parse_artifacts(value_node, name, filename)
        elif key == "requirements":
            assignments = _parse_requirement_assignments(value_node, name, filename)
        elif key not in _IGNORED_QUIETLY:
            raise SchemaError(f"unknown key {key!r} on node template {name!r}",
                              _loc(key_node, filename))
    if type_name is None:
        raise SchemaError(f"node template {name!r} has no type", location)

    resolved = types.get(type_name)
    if resolved is None:
        try:
            resolved = types[type_name] = resolve_type(type_name, defs)
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
    for name, body_node, name_node in _items(node, f"artifacts of {template_name!r}",
                                             filename):
        raw = _construct(body_node, filename)
        if isinstance(raw, str):
            out[name] = raw
        elif isinstance(raw, dict) and isinstance(raw.get("file"), str):
            out[name] = raw["file"]
        else:
            raise SchemaError(f"artifact {name!r} needs a file path",
                              _loc(name_node, filename))
    return out


def _parse_requirement_assignments(node, template_name, filename):
    out = []
    for name, body_node, name_node in _named_entries(
            node, f"requirements of {template_name!r}", "requirement assignment",
            filename):
        raw = _construct(body_node, filename)
        if isinstance(raw, str):
            out.append(RequirementAssignment(name=name, target=raw))
        elif isinstance(raw, dict):
            unknown = set(raw) - {"node", "relationship"}
            if unknown:
                raise SchemaError(f"requirement {name!r} has unsupported keys "
                                  f"{sorted(unknown)}", _loc(name_node, filename))
            if "node" not in raw:
                raise SchemaError(f"requirement {name!r} assignment lacks 'node'",
                                  _loc(name_node, filename))
            relationship = raw.get("relationship")
            out.append(RequirementAssignment(
                name=name,
                target=str(raw["node"]),
                relationship=None if relationship is None else str(relationship),
            ))
        else:
            raise SchemaError(f"requirement {name!r} must name a target",
                              _loc(name_node, filename))
    return out


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def serialize_template(template: ServiceTemplate) -> str:
    """Normalized YAML for a service template (sorted template names).

    Each node template is written from its record: its `type`, its
    properties and artifacts by sorted name, then its requirements in
    order.  A template whose bytes `_Writer` cannot prove goes to
    `yaml.dump` whole, as a document of that shape."""
    writer, sections = _Writer(), _definition_sections(template.user_types)
    try:
        writer.entry("", TOSCA_VERSION_KEY, template.tosca_version, "")
        writer.mapping(sections, "", "")
        nodes = template.node_templates
        writer.out.append("topology_template:\n  node_templates:"
                          + ("\n" if nodes else " {}\n"))
        for name in sorted(nodes):
            writer.node_template(name, nodes[name])
    except _Unproven:
        return yaml.dump(_template_document(template, sections), **_DUMP_OPTIONS)
    return "".join(writer.out)


def serialize_definitions(definitions) -> str:
    """Normalized YAML for a set of TypeDefinitions (the catalog export shape)."""
    doc = {TOSCA_VERSION_KEY: ServiceTemplate.tosca_version}
    doc.update(_definition_sections(list(definitions)))  # any iterable, read once
    return _dump(doc)


_DUMP_OPTIONS = dict(Dumper=yaml.SafeDumper, sort_keys=False, indent=2,
                     default_flow_style=False, width=100)


def _dump(doc) -> str:
    """`yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False, indent=2,
    default_flow_style=False, width=100)`, byte for byte: `_Writer` writes
    a mapping, and a document whose bytes it cannot prove goes to that
    call."""
    writer = _Writer()
    try:
        if type(doc) is dict and writer.opened(doc):
            writer.mapping(doc, "", "")
            return "".join(writer.out)
    except _Unproven:
        pass
    return yaml.dump(doc, **_DUMP_OPTIONS)


class _Unproven(Exception):
    """A value whose bytes `_Writer` cannot prove are `yaml.dump`'s."""


_RESOLVER = yaml.resolver.Resolver()
# only its scalar representers run, never `represent_data`, so it records
# no objects and one instance serves every call
_REPRESENTER = yaml.representer.SafeRepresenter()
_SCALAR_REPRESENTERS = {kind: _REPRESENTER.yaml_representers[kind]
                        for kind in (type(None), bool, int, float)}
# printable ASCII that SafeDumper quotes in block context (its analyze_scalar)
_NOT_PLAIN = re.compile(r"\A(?:[ #,\[\]{}&*!|>'\"%@`]|[-?:](?: |\Z)|---|\.\.\.)"
                        r"|: |:\Z| #| \Z")


def _scalar_text(value) -> str:
    """`value` as SafeDumper writes a scalar in block context."""
    kind = type(value)
    if kind is str:
        if not (value.isascii() and value.isprintable()):
            raise _Unproven  # escaped in double quotes
        if value and not _NOT_PLAIN.search(value) and (
                value[0] not in _IMPLICIT_FIRST
                or _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == _STR_TAG):
            return value
        return "'" + value.replace("'", "''") + "'"
    if kind not in _SCALAR_REPRESENTERS:
        raise _Unproven
    node = _SCALAR_REPRESENTERS[kind](_REPRESENTER, value)
    if _RESOLVER.resolve(yaml.ScalarNode, node.value, (True, False)) != node.tag:
        raise _Unproven  # written with its tag
    return node.value


class _Writer:
    """Plain data as `yaml.dump` writes it, a line at a time into `out`,
    by the rules in the module docstring; `_Unproven` where they end."""

    def __init__(self):
        self.out, self.texts = [], {}  # the text of each str written
        self.walked = set()  # ids of the collections written

    def text(self, value) -> str:
        """The text of a scalar or an empty collection."""
        kind = type(value)
        if kind is not str:
            return "{}" if kind is dict else "[]" if kind is list else _scalar_text(value)
        text = self.texts.get(value)
        if text is None:
            text = self.texts[value] = _scalar_text(value)
        return text

    def key(self, key) -> str:
        if type(key) is not str or not 0 < len(key) < 123:
            raise _Unproven  # written as `? key`
        return self.texts.get(key) or self.text(key)

    def opened(self, value) -> bool:
        """Whether `value` is a collection with items."""
        kind = type(value)
        if kind is not dict and kind is not list:
            return False
        if id(value) in self.walked:
            raise _Unproven  # anchored
        self.walked.add(id(value))
        return bool(value)

    def end(self, line, text):
        line = f"{line} {text}\n"
        if len(line) > 101 and " " in text:
            raise _Unproven  # maybe folded
        self.out.append(line)

    def entry(self, lead, key, value, pad):
        """`key: value` in a mapping indented by `pad`, its first line
        starting with `lead`, which is as long."""
        line = lead + self.key(key) + ":"
        if type(value) is str:
            self.end(line, self.texts.get(value) or self.text(value))
        elif not self.opened(value):
            self.end(line, self.text(value))
        else:
            self.out.append(line + "\n")
            if type(value) is dict:
                self.mapping(value, pad + "  ", pad + "  ")
            else:
                self.sequence(value, pad, pad)

    def mapping(self, mapping, pad, lead):
        for key, value in mapping.items():
            self.entry(lead, key, value, pad)
            lead = pad

    def sequence(self, sequence, pad, lead):
        for value in sequence:
            if not self.opened(value):
                self.end(lead + "-", self.text(value))
            elif type(value) is dict:
                self.mapping(value, pad + "  ", lead + "- ")
            else:
                self.sequence(value, pad + "  ", lead + "- ")
            lead = pad

    def node_template(self, name, node: NodeTemplate):
        self.out.append(f"    {self.key(name)}:\n")
        self.entry("      ", "type", node.type, "      ")
        for section, values in (("properties", node.property_values),
                                ("artifacts", node.artifacts)):
            if values:
                self.out.append(f"      {section}:\n")
                for key in sorted(values):
                    self.entry("        ", key, values[key], "        ")
        if node.requirement_assignments:
            self.out.append("      requirements:\n")
        for req in node.requirement_assignments:
            if req.relationship is None:
                self.entry("      - ", req.name, req.target, "        ")
            else:
                self.out.append(f"      - {self.key(req.name)}:\n")
                self.entry("          ", "node", req.target, "          ")
                self.entry("          ", "relationship", req.relationship, "          ")


def _template_document(template: ServiceTemplate, sections):
    """What `serialize_template` writes, as a document for `yaml.dump`."""
    nodes = {}
    for name in sorted(template.node_templates):
        node = template.node_templates[name]
        body = nodes[name] = {"type": node.type}
        for section, values in (("properties", node.property_values),
                                ("artifacts", node.artifacts)):
            if values:
                body[section] = {key: values[key] for key in sorted(values)}
        if node.requirement_assignments:
            body["requirements"] = [
                {req.name: req.target if req.relationship is None
                 else {"node": req.target, "relationship": req.relationship}}
                for req in node.requirement_assignments]
    return {TOSCA_VERSION_KEY: template.tosca_version, **sections,
            "topology_template": {"node_templates": nodes}}


def _definition_sections(definitions):
    sections = {}
    for section_key, kind in _SECTION_KINDS.items():
        group = {definition.name: definition
                 for definition in definitions if definition.kind == kind}
        if group:
            sections[section_key] = {name: _dump_type(group[name])
                                     for name in sorted(group)}
    return sections


def _dump_occurrences(occurrences):
    lo, hi = occurrences
    return [lo, "UNBOUNDED" if hi is UNBOUNDED else hi]


def _dump_values(definitions):
    """Attribute or property bodies by sorted name; `required` only when false."""
    out = {}
    for name in sorted(definitions):
        definition = definitions[name]
        body = out[name] = {"type": definition.value_type}
        if definition.default is not None:
            body["default"] = definition.default
        if not getattr(definition, "required", True):
            body["required"] = False
    return out


def _dump_type(definition: TypeDefinition):
    out = {}
    if definition.derived_from:
        out["derived_from"] = definition.derived_from
    if definition.metadata:
        out["metadata"] = dict(definition.metadata)
    for section in ("attributes", "properties"):
        if getattr(definition, section):
            out[section] = _dump_values(getattr(definition, section))
    if definition.requirements:
        out["requirements"] = [{req.name: {
            "capability": req.capability_type, "node": req.node_type,
            "relationship": req.relationship_type,
            "occurrences": _dump_occurrences(req.occurrences)}}
            for req in definition.requirements]
    if definition.capabilities:
        out["capabilities"] = caps = {}
        for name in sorted(definition.capabilities):
            cap = definition.capabilities[name]
            body = caps[name] = {"occurrences": _dump_occurrences(cap.occurrences)}
            if cap.valid_source_types:
                body["valid_source_types"] = list(cap.valid_source_types)
            body["type"] = cap.capability_type
    return out


def export_catalog_yaml() -> str:
    """The built-in catalog as a definitions document the parser reads back."""
    definitions = _catalog.builtin_catalog().definitions
    return serialize_definitions(list(definitions.values()))
