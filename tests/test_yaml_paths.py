"""libyaml against the pure-Python PyYAML classes, and the writer
against `yaml.dump`.

Parsing composes with libyaml when PyYAML has it, falling back to the
pure classes; serializing writes block YAML itself, falling back to
`yaml.dump` with the pure SafeDumper.  These tests hold the paths to the
same trees, the same errors and the same bytes.
"""

import datetime
import pathlib
import re

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import topology_gen
from toscaflow.catalog import builtin_catalog
from toscaflow.csar import unpack_csar
from toscaflow.errors import TemplateSyntaxError
from toscaflow.model import (
    UNBOUNDED,
    NodeTemplate,
    RequirementAssignment,
    ServiceTemplate,
)
from toscaflow.parsing import (
    _compose,
    _construct,
    _EMPTY_FLOW_VALUE,
    _dump,
    _suits_libyaml,
    export_catalog_yaml,
    parse_service_template,
    serialize_template,
)
from toscaflow.verifier import verify

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.yaml"))

CORPUS = {path.name: path.read_text(encoding="utf-8") for path in FIXTURES}
CORPUS["catalog"] = export_catalog_yaml()
CORPUS.update({f"topology_{seed}": serialize_template(topology_gen.random_topology(seed))
               for seed in range(4)})

DUMP_OPTIONS = dict(sort_keys=False, indent=2, default_flow_style=False, width=100)

needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                                   reason="PyYAML built without libyaml")


def _pure_only(monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)


def _assert_dumps_as_yaml_dump(doc):
    """`_dump(doc)` is what `yaml.dump` writes with SafeDumper, byte for
    byte, both where PyYAML has libyaml and where only the pure classes
    exist."""
    expected = yaml.dump(doc, Dumper=yaml.SafeDumper, **DUMP_OPTIONS)
    assert _dump(doc) == expected
    with pytest.MonkeyPatch.context() as monkeypatch:
        _pure_only(monkeypatch)
        assert _dump(doc) == expected


def _handed_to_yaml_dump(write, *args):
    """The documents `write(*args)` hands to `yaml.dump`."""
    handed = []
    dump = yaml.dump

    def record(doc, *dump_args, **options):
        handed.append(doc)
        return dump(doc, *dump_args, **options)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(yaml, "dump", record)
        write(*args)
    return handed


# -- the reference documents: what serializing wrote through `yaml.dump` --

def _reference_sections(definitions):
    def occurrences(bounds):
        lo, hi = bounds
        return [lo, "UNBOUNDED" if hi is UNBOUNDED else hi]

    def values(definitions):
        out = {}
        for name in sorted(definitions):
            definition = definitions[name]
            body = {"type": definition.value_type}
            if definition.default is not None:
                body["default"] = definition.default
            if not getattr(definition, "required", True):
                body["required"] = False
            out[name] = body
        return out

    def body(definition):
        out = {}
        if definition.derived_from:
            out["derived_from"] = definition.derived_from
        if definition.metadata:
            out["metadata"] = dict(definition.metadata)
        if definition.attributes:
            out["attributes"] = values(definition.attributes)
        if definition.properties:
            out["properties"] = values(definition.properties)
        if definition.requirements:
            out["requirements"] = [
                {req.name: {"capability": req.capability_type, "node": req.node_type,
                            "relationship": req.relationship_type,
                            "occurrences": occurrences(req.occurrences)}}
                for req in definition.requirements]
        if definition.capabilities:
            caps = {}
            for name in sorted(definition.capabilities):
                cap = definition.capabilities[name]
                caps[name] = {"occurrences": occurrences(cap.occurrences)}
                if cap.valid_source_types:
                    caps[name]["valid_source_types"] = list(cap.valid_source_types)
                caps[name]["type"] = cap.capability_type
            out["capabilities"] = caps
        return out

    sections = {}
    for key, kind in (("node_types", "node"), ("capability_types", "capability"),
                      ("relationship_types", "relationship")):
        group = {d.name: d for d in definitions if d.kind == kind}
        if group:
            sections[key] = {name: body(group[name]) for name in sorted(group)}
    return sections


def _reference_node(node):
    out = {"type": node.type}
    if node.property_values:
        out["properties"] = {name: node.property_values[name]
                             for name in sorted(node.property_values)}
    if node.artifacts:
        out["artifacts"] = {name: node.artifacts[name] for name in sorted(node.artifacts)}
    if node.requirement_assignments:
        reqs = []
        for assignment in node.requirement_assignments:
            if assignment.relationship is None:
                reqs.append({assignment.name: assignment.target})
            else:
                reqs.append({assignment.name: {"node": assignment.target,
                                               "relationship": assignment.relationship}})
        out["requirements"] = reqs
    return out


def _reference_document(template):
    doc = {"tosca_definitions_version": template.tosca_version}
    doc.update(_reference_sections(template.user_types))
    doc["topology_template"] = {"node_templates": {
        name: _reference_node(template.node_templates[name])
        for name in sorted(template.node_templates)}}
    return doc


def _assert_writes_as_yaml_dump(write, reference):
    """`write()` is what `yaml.dump` writes of `reference` with SafeDumper,
    with and without libyaml."""
    expected = yaml.dump(reference, Dumper=yaml.SafeDumper, **DUMP_OPTIONS)
    assert write() == expected
    with pytest.MonkeyPatch.context() as monkeypatch:
        _pure_only(monkeypatch)
        assert write() == expected


def _assert_serializes_as_yaml_dump(template):
    _assert_writes_as_yaml_dump(lambda: serialize_template(template),
                                _reference_document(template))


def _tree(node):
    """What parsing reads of a node: class, tag, value and start.

    The end mark is left out: libyaml counts a byte order mark inside a
    scalar where the pure reader does not.
    """
    if node is None:
        return None
    if isinstance(node, yaml.ScalarNode):
        value = node.value
    elif isinstance(node, yaml.MappingNode):
        value = [(_tree(key), _tree(item)) for key, item in node.value]
    else:
        value = [_tree(item) for item in node.value]
    return (type(node).__name__, node.tag, node.start_mark.line,
            node.start_mark.column, value)


def _outcome(text):
    try:
        return _tree(_compose(text, "f.yaml"))
    except TemplateSyntaxError as exc:
        return str(exc), str(exc.location)


def _pure_outcome(text):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _pure_only(monkeypatch)
        return _outcome(text)


@needs_libyaml
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_libyaml_composes_the_corpus_as_the_pure_loader(name):
    text = CORPUS[name]
    assert _suits_libyaml(text)
    assert _outcome(text) == _tree(yaml.compose(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("text", [
    "a: [\n",                         # libyaml: "did not find expected node content"
    "a: b\n c: d\n",
    "a: {b: 1\n",
    "a: 'unclosed\n",
    "- a\nb: c\n",
    "a: b\x00c\n",
    "a: \ud800\n",                    # libyaml cannot even encode it
    "a: !\n",                         # '' in libyaml, None in the pure loader
    "[!, 1]\n",
    "k\ufeffey: value\n",             # libyaml counts the mark as a column
    "a:\n\ufeff  - b: c\n",
    "%YAML 1.1\n--- {a: 1}\n",
    "a: 1\n? b",                       # libyaml ends the stream a line later
    "---",
    "a: &x 1\nb: *x\nc: *y\n",
    "a: b\tc\n",                      # libyaml takes tabs the pure loader rejects
    "a: b \t\n",
    "a: [b,\tc]\n",
    "{k: }\n",                        # libyaml starts an empty value a column late
    "{k: , j: 1}\n",
    "[a, {k: }]\n",
    "k: {a: }\n",
    "{k: # c\n  # d\n}\n",            # and a line late after a comment
], ids=repr)
def test_libyaml_and_pure_agree_on_hard_inputs(text):
    assert _outcome(text) == _pure_outcome(text)


_SCALAR_OUTCOMES = [
    ("1", ("int", 1)),
    ("1.5", ("float", 1.5)),
    ("~", ("NoneType", None)),
    ("yes", ("bool", True)),
    ("2020-01-01", ("date", datetime.date(2020, 1, 1))),
    ("plain", ("str", "plain")),
    ("'quoted'", ("str", "quoted")),
    ("!!str 1", ("str", "1")),
    ("!!int 0x1f", ("int", 31)),
    ("!!int x", ("invalid literal for int() with base 10: 'x'", "f.yaml:1:1")),
    ("!!float x", ("could not convert string to float: 'x'", "f.yaml:1:1")),
    ("!!bool yes", ("bool", True)),
    ("!!null ''", ("NoneType", None)),
    ("!!binary aGk=", ("bytes", b"hi")),
    ("!!binary ====", ("bytes", b"")),
    ("!!timestamp 2020-13-45", ("month must be in 1..12", "f.yaml:1:1")),
    ("!!map b", ("expected a mapping node, but found scalar", "f.yaml:1:1")),
    ("!!seq b", ("expected a sequence node, but found scalar", "f.yaml:1:1")),
    ("!!set b", ("expected a mapping node, but found scalar", "f.yaml:1:1")),
    ("!!omap b", ("while constructing an ordered map: expected a sequence, "
                  "but found scalar", "f.yaml:1:1")),
    ("!!pairs b", ("while constructing pairs: expected a sequence, but found "
                   "scalar", "f.yaml:1:1")),
    ("!foo b", ("could not determine a constructor for the tag '!foo'",
                "f.yaml:1:1")),
]


@pytest.mark.parametrize("text, expected", _SCALAR_OUTCOMES,
                         ids=[repr(text) for text, _ in _SCALAR_OUTCOMES])
def test_one_shared_constructor_builds_scalars_as_a_fresh_one_does(text, expected):
    """Each tagged or plain root scalar constructs to its value, of its
    type, or fails with its message at its location."""
    node = _compose(text, "f.yaml")
    try:
        value = _construct(node, "f.yaml")
        outcome = (type(value).__name__, value)
    except TemplateSyntaxError as exc:
        outcome = (str(exc), str(exc.location))
    assert outcome == expected


@st.composite
def _mutations(draw):
    """A corpus document with a few bytes inserted, deleted or replaced."""
    data = bytearray(CORPUS[draw(st.sampled_from(sorted(CORPUS)))].encode())
    tokens = st.sampled_from([
        b"[", b"]", b"{", b"}", b":", b",", b"-", b"?", b"#", b"&a ", b"*a", b"!",
        b"|", b">", b"'", b'"', b"%", b"@", b"\t", b"\n", b"\r", b" ", b"\\", b"x",
        b"0", b".", b"\x00", b"\xc3\xa9", b"\xff", b"\xef\xbb\xbf", b"\xc2\x85",
        b"\xe2\x80\xa8", b"---", b"...", b"!!str ", b"! ",
    ])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        token = b"" if op == "delete" else draw(tokens)
        data[at:at + (op != "insert")] = token
    return bytes(data).decode("utf-8", "surrogateescape")


@needs_libyaml
@given(_mutations())
def test_libyaml_and_pure_agree_on_mutated_documents(text):
    assert _outcome(text) == _pure_outcome(text)


def test_nesting_bound_sends_deep_text_to_the_pure_loader():
    assert _suits_libyaml("a: " + "[" * 300 + "]" * 300 + "\n")
    assert not _suits_libyaml("a: " + "[" * 1000 + "]" * 1000 + "\n")
    assert not _suits_libyaml("a:\n" + "[\n" * 2000 + "]\n" * 2000)


# the pattern before its leading whitespace was made atomic
_GREEDY_EMPTY_FLOW_VALUE = r":\s*(?:[,}\]]|#[^\n]*\n(?:\s*#[^\n]*\n)*\s*[,}\]])"


@given(st.text(": \n#,}]a", max_size=40))
def test_the_atomic_empty_flow_value_finds_what_the_greedy_one_found(text):
    """Both alternatives after the leading whitespace start with a
    character that is not whitespace, so giving it back never matches."""
    greedy = re.search(_GREEDY_EMPTY_FLOW_VALUE, text)
    atomic = re.search(_EMPTY_FLOW_VALUE, text)
    assert (greedy and greedy.span()) == (atomic and atomic.span())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_the_writer_writes_the_corpus_as_the_pure_emitter(name):
    doc = yaml.safe_load(CORPUS[name])
    assert _handed_to_yaml_dump(_dump, doc) == []
    _assert_dumps_as_yaml_dump(doc)


_PRINTABLE_ASCII = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
                           max_size=300)
_SCALARS = st.one_of(_PRINTABLE_ASCII, st.none(), st.booleans(), st.integers(),
                     st.floats())


def _nested(depth):
    if depth == 1:
        return st.dictionaries(_PRINTABLE_ASCII, _SCALARS, min_size=1, max_size=4)
    inner = st.one_of(_SCALARS, _nested(depth - 1),
                      st.lists(_nested(depth - 1), max_size=3))
    return st.dictionaries(_PRINTABLE_ASCII, inner, min_size=1, max_size=4)


@needs_libyaml
@given(st.one_of(_nested(1), _nested(2), _nested(3)))
def test_printable_ascii_is_emitted_as_by_the_pure_emitter(doc):
    assert _dump(doc) == yaml.dump(doc, Dumper=yaml.SafeDumper, **DUMP_OPTIONS)


@needs_libyaml
@pytest.mark.parametrize("doc", [
    {"a": "\u00e9 " * 80},             # a long double-quoted scalar
    {"a": "x\ty " * 40},
    {"": 1},                           # keys the pure emitter writes as `? key`
    {"k" * 123: 1},
    {"a": [{"b": {"k" * 128: None}}]},
    "plain", 5, None,                  # libyaml ends a plain root scalar without `...`
], ids=repr)
def test_what_libyaml_emits_otherwise_goes_to_the_pure_emitter(doc):
    pure = yaml.dump(doc, Dumper=yaml.SafeDumper, **DUMP_OPTIONS)
    assert yaml.dump(doc, Dumper=yaml.CSafeDumper, **DUMP_OPTIONS) != pure
    [handed] = _handed_to_yaml_dump(_dump, doc)
    assert handed is doc
    _assert_dumps_as_yaml_dump(doc)


def test_without_libyaml_fixtures_parse_and_serialize_alike(monkeypatch):
    texts = {path.name: path.read_text(encoding="utf-8") for path in FIXTURES}
    templates = {name: parse_service_template(text, filename=name)
                 for name, text in texts.items()}
    serialized = {name: serialize_template(t) for name, t in templates.items()}
    _pure_only(monkeypatch)
    for name, text in texts.items():
        assert parse_service_template(text, filename=name) == templates[name], name
        assert serialize_template(templates[name]) == serialized[name], name
    assert export_catalog_yaml() == CORPUS["catalog"]


# -- the writer against `yaml.dump` ------------------------------------------

@pytest.mark.parametrize("name", [path.name for path in FIXTURES])
def test_dump_writes_the_fixtures_as_yaml_dump(name):
    _assert_dumps_as_yaml_dump(yaml.safe_load(CORPUS[name]))
    _assert_serializes_as_yaml_dump(parse_service_template(CORPUS[name], filename=name))


def test_dump_writes_the_catalog_export_as_yaml_dump():
    definitions = list(builtin_catalog().definitions.values())
    _assert_writes_as_yaml_dump(export_catalog_yaml, {
        "tosca_definitions_version": ServiceTemplate.tosca_version,
        **_reference_sections(definitions)})


@pytest.mark.parametrize("seed", range(6))
def test_dump_writes_repaired_generated_topologies_as_yaml_dump(seed):
    fixed, _ = verify(topology_gen.random_topology(seed), fix=True, seed=seed)
    _assert_serializes_as_yaml_dump(fixed)


_HASHABLE = st.one_of(
    st.text(max_size=20), st.none(), st.booleans(), st.integers(), st.floats(),
    st.dates(), st.datetimes(timezones=st.none() | st.just(datetime.timezone.utc)),
    st.binary(max_size=20))
_ANY_SCALAR = st.one_of(_HASHABLE, st.text(max_size=150), st.sampled_from(
    ["yes", "No", "1.0", "1_000", "0x1f", "~", "null", "", "2020-01-01", ".inf",
     "a: b", "- a", "#", "line\nbreak", "ends\n", " lead", "trail ", "'q", '"q']))


def _collections(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=20), _HASHABLE), children,
                        max_size=4),
        st.sets(_HASHABLE, max_size=3),
        children.map(lambda child: [child, child]),  # one object twice
    )


@given(st.dictionaries(st.text(max_size=20),
                       st.recursive(_ANY_SCALAR, _collections, max_leaves=12),
                       max_size=5))
def test_dump_writes_every_scalar_type_as_yaml_dump(doc):
    _assert_dumps_as_yaml_dump(doc)


@pytest.mark.parametrize("text", [
    "yes", "no", "on", "true", "1", "1.0", "-1", "0o17", "1e3", ".nan", "~", "null",
    "", " ", "2020-01-01", "a\nb", "a\n", "\n", "a\n\nb\n", "x " * 80, "a:b", "{a}",
    "---a", "...x", "a #b", "a# b", "x " * 47 + "x", "x " * 60 + "x",  # the last folds
], ids=repr)
def test_dump_writes_strings_another_type_would_read_as_yaml_dump(text):
    _assert_dumps_as_yaml_dump({"key": text, text or "k": [text]})


_SHARED = ["a", 1]


@pytest.mark.parametrize("doc", [
    {"a": {1, 2}},
    {"a": datetime.date(2020, 1, 2)},
    {"a": b"hi"},
    {"a": (1, "b")},
    {1: "a"},
    {"x": _SHARED, "y": {"z": _SHARED}},
    {"a": "\u00e9"},
    {"a": "a\nb"},
    {"": 1},
    {"k" * 123: 1},
], ids=repr)
def test_dump_hands_what_is_not_plain_data_to_yaml_dump(doc):
    [handed] = _handed_to_yaml_dump(_dump, doc)
    assert handed is doc
    _assert_dumps_as_yaml_dump(doc)


def test_dump_anchors_a_list_shared_under_two_keys():
    shared = ["a", 1]
    doc = {"x": shared, "y": {"z": shared}}
    _assert_dumps_as_yaml_dump(doc)
    assert _dump(doc) == "x: &id001\n- a\n- 1\ny:\n  z: *id001\n"


def test_dump_anchors_a_date_used_twice():
    day = datetime.date(2020, 1, 2)
    doc = {"x": day, "y": [day, datetime.date(2020, 1, 2)]}
    _assert_dumps_as_yaml_dump(doc)
    assert _dump(doc) == "x: &id001 2020-01-02\ny:\n- *id001\n- 2020-01-02\n"


def test_dump_emits_str_int_bool_and_none_without_the_representer(monkeypatch):
    """The fixtures, the catalog and the repaired generated topologies hold
    only those scalars, so writing them runs neither PyYAML's representer
    nor `yaml.dump`."""
    templates = [parse_service_template(CORPUS[path.name], filename=path.name)
                 for path in FIXTURES]
    templates += [verify(topology_gen.random_topology(seed), fix=True, seed=seed)[0]
                  for seed in range(6)]
    expected = [serialize_template(template) for template in templates]
    catalog = export_catalog_yaml()

    def refuse(*args, **kwargs):
        raise AssertionError("the representer ran")

    monkeypatch.setattr(yaml.representer.SafeRepresenter, "represent_data", refuse)
    monkeypatch.setattr(yaml, "dump", refuse)
    assert [serialize_template(template) for template in templates] == expected
    assert export_catalog_yaml() == catalog


# -- node templates written from their records ------------------------------

_SIGNIFICANT = st.sampled_from(
    ["yes", "1.0", "~", "", "- a", "a: b", "x #y", "'q", "---", "...", "-", "?", ":",
     "a:", "?a", "-a", "=", "<<", " lead", "trail ", "#", "@x", "`x", "%x", "a'b"])
_ASCII_150 = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
                     max_size=150)
# words and spaces that end a line between about column 70 and 140
_NEAR_COLUMN_100 = st.builds(lambda word, size: ((word + " ") * 60)[:size],
                             st.text("abc'#:", min_size=1, max_size=12),
                             st.integers(60, 110))
_TEXTS = st.one_of(_SIGNIFICANT, _ASCII_150, _NEAR_COLUMN_100, st.text(max_size=20))
_KEYS = st.one_of(_SIGNIFICANT, st.text(st.characters(min_codepoint=0x20,
                                                      max_codepoint=0x7e), max_size=20),
                  st.text(max_size=12))
_VALUES = st.recursive(
    st.one_of(_TEXTS, st.integers(), st.floats(), st.booleans(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_KEYS, children, max_size=3),
        children.map(lambda child: [child, child])),  # one object twice
    max_leaves=8)


@st.composite
def _service_templates(draw):
    """Node templates over YAML-significant, long, folded and non-ASCII
    text, every scalar type, nested, shared and empty collections, and
    relationship overrides; `shared` may sit in several nodes at once."""
    shared = draw(st.one_of(st.lists(_VALUES, max_size=2),
                            st.dictionaries(_KEYS, _VALUES, max_size=2)))
    values = st.one_of(_VALUES, st.just(shared))
    nodes = {}
    for name in draw(st.lists(_KEYS, unique=True, max_size=4)):
        nodes[name] = NodeTemplate(
            name, draw(_TEXTS),
            property_values=draw(st.dictionaries(_KEYS, values, max_size=4)),
            artifacts=draw(st.dictionaries(_KEYS, _TEXTS, max_size=2)),
            requirement_assignments=draw(st.lists(st.builds(
                RequirementAssignment, _KEYS, _TEXTS, st.none() | _TEXTS), max_size=3)))
    return ServiceTemplate(draw(st.just(ServiceTemplate.tosca_version) | _TEXTS),
                           node_templates=nodes)


@given(_service_templates())
def test_node_templates_are_written_as_yaml_dump_writes_their_document(template):
    _assert_serializes_as_yaml_dump(template)


def test_the_writer_writes_real_inputs_without_yaml_dump(bench, monkeypatch):
    """The fixtures, the catalog, each workload's repaired seed 1 template
    and relationship overrides are written without PyYAML's dumper or
    emitter."""
    workloads, _ = bench
    templates = [parse_service_template(CORPUS[path.name], filename=path.name)
                 for path in FIXTURES]
    for generate in workloads.GENERATORS.values():
        workload = generate(1)
        archive = unpack_csar(workload.csar())
        entry = archive.entry_definitions
        template = parse_service_template(archive.files[entry].decode("utf-8"), entry)
        templates.append(verify(template, fix=True, seed=workload.seed)[0])
    templates.append(ServiceTemplate(node_templates={
        name: NodeTemplate(name, "T", requirement_assignments=[
            RequirementAssignment("r", "x", "tosca.relationships.DependsOn"),
            RequirementAssignment("s", "y", "tosca.relationships.ConnectsTo")])
        for name in ("a", "b")}))  # relationship overrides
    expected = [yaml.dump(_reference_document(template), Dumper=yaml.SafeDumper,
                          **DUMP_OPTIONS) for template in templates]
    catalog = yaml.dump({"tosca_definitions_version": ServiceTemplate.tosca_version,
                         **_reference_sections(builtin_catalog().definitions.values())},
                        Dumper=yaml.SafeDumper, **DUMP_OPTIONS)

    def refuse(*args, **kwargs):
        raise AssertionError("PyYAML's dumper ran")

    monkeypatch.setattr(yaml, "dump", refuse)
    monkeypatch.setattr(yaml, "emit", refuse)
    assert [serialize_template(template) for template in templates] == expected
    assert export_catalog_yaml() == catalog
