"""The private loaders resolve tags as PyYAML's stock SafeLoader does.

`parsing._compose` composes through loaders of its own, which share one
resolver that looks a plain scalar's tag up once per value in a document
and skips the path hooks.  These tests hold every node's tag to the stock
loader's, on libyaml and on the pure path.
"""

import pathlib
import subprocess
import sys

import pytest
import yaml

from test_yaml_paths import CORPUS, _pure_only, needs_libyaml
from toscaflow import parsing
from toscaflow.errors import TemplateSyntaxError
from toscaflow.parsing import _compose, _suits_libyaml

# a scalar starting with each character an implicit resolver is filed
# under, alone and followed by a letter or a digit, and the edge cases
_FIRST = sorted(key for key in yaml.resolver.Resolver.yaml_implicit_resolvers if key)
_VALUES = ["", "~", "null", "yes", "Off", "0x1F", "0o7", "1_000", ".inf", "-.5",
           "2020-01-01", "<<", "="] + [first + rest for first in _FIRST
                                        for rest in ("", "x", "1")]
# block and flow positions: the root, a value, an item and a key
_PLACES = ["{}\n", "k: {}\n", "- {}\n", "{}: k\n",
           "[{}]\n", "{{k: {}}}\n", "{{{}: k}}\n", "[a, {}, b]\n"]
_ONE_LINERS = [place.format(form) for value in _VALUES
               for form in (value, f"'{value}'", f'"{value}"') for place in _PLACES]


def _tags(node):
    """Each node's class, tag and value.  Marks are left out: libyaml
    starts an empty value in a flow mapping a column later than the pure
    loader does."""
    if node is None:
        return None
    if isinstance(node, yaml.ScalarNode):
        value = node.value
    elif isinstance(node, yaml.MappingNode):
        value = [(_tags(key), _tags(item)) for key, item in node.value]
    else:
        value = [_tags(item) for item in node.value]
    return type(node).__name__, node.tag, value


def _stock(text):
    """The stock loader's tags of `text`, or None where it rejects it."""
    try:
        return ("tags", _tags(yaml.compose(text, Loader=yaml.SafeLoader)))
    except yaml.YAMLError:
        return None


def _ours(text):
    try:
        return ("tags", _tags(_compose(text, "f.yaml")))
    except TemplateSyntaxError:
        return None


_PATHS = [pytest.param(True, id="libyaml", marks=needs_libyaml),
          pytest.param(False, id="pure")]


@pytest.mark.parametrize("libyaml", _PATHS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_corpus_node_gets_the_stock_loaders_tag(name, libyaml, monkeypatch):
    text = CORPUS[name]
    expected = _stock(text)
    if not libyaml:
        _pure_only(monkeypatch)
    assert expected is not None
    assert _ours(text) == expected


@pytest.mark.parametrize("libyaml", _PATHS)
def test_one_line_scalars_get_the_stock_loaders_tags(libyaml, monkeypatch):
    """Plain, single- and double-quoted forms of each value in every
    position: the same tree, or rejected by both."""
    expected = {text: _stock(text) for text in _ONE_LINERS}
    if not libyaml:
        _pure_only(monkeypatch)
    assert {text: _ours(text) for text in _ONE_LINERS} == expected
    # the set is not vacuous: most of it composes, most of that on libyaml
    composed = [text for text in _ONE_LINERS if expected[text] is not None]
    assert len(composed) > 0.95 * len(_ONE_LINERS)
    assert sum(map(_suits_libyaml, composed)) > 0.9 * len(composed)


def _refuse(text):
    raise AssertionError("the libyaml loader was built")


@needs_libyaml
def test_the_libyaml_loader_is_built_only_while_pyyaml_has_libyaml(monkeypatch):
    """Hiding `CSafeLoader` takes the pure path at call time, so the pure
    tests above do not run libyaml unawares."""
    text = CORPUS["catalog"]
    expected = _tags(yaml.compose(text, Loader=yaml.SafeLoader))
    monkeypatch.setattr(parsing, "_LibyamlLoader", _refuse)
    with pytest.raises(AssertionError, match="libyaml loader was built"):
        _compose(text, "f.yaml")
    _pure_only(monkeypatch)
    assert _tags(_compose(text, "f.yaml")) == expected


def test_parsing_imports_and_composes_with_libyaml_hidden_before_it():
    """As on a host whose PyYAML lacks libyaml, a process that hides it
    first still imports `parsing` and composes on the pure path."""
    source_root = str(pathlib.Path(parsing.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, yaml; sys.path.insert(0, sys.argv[1]); "
         "del yaml.CSafeLoader, yaml.CSafeDumper\n"
         "from toscaflow.parsing import _compose\n"
         "print(_compose('a: [1, yes]\\n', 'f.yaml').value[0][1].value[1].tag)",
         source_root], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "tag:yaml.org,2002:bool\n", "")
