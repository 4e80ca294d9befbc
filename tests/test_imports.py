"""What each entry point loads, and the lazy package's public names.

The load checks run in fresh interpreters, so that modules this test
session has already imported cannot hide an eager import.  They look only
at toscaflow's modules, PyYAML, and `dataclasses` and `inspect`, which
cost a fresh interpreter about 10 ms and which no command needs.
"""

import ast
import json
import pathlib
import subprocess
import sys
import typing

import pytest

import toscaflow
from toscaflow import model

PACKAGE = pathlib.Path(toscaflow.__file__).parent
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "s3_to_gcs.yaml"

EXPECTED_ALL = """
AttributeDefinition CapabilityDefinition CronExpr CsarArchive DependencyEdge
DependencyGraph DeploymentPlan Diagnostic Flow FlowItem Locality NodeTemplate
PlanStep PropertyDefinition RequirementAssignment RequirementDefinition
ResolvedNodeType ServiceTemplate SourceLocation TypeCatalog Topology
TypeDefinition UNBOUNDED build_graph builtin_catalog check_encryption
check_locality check_requirements check_scheduling colocated cron_next
decrypt_bytes encrypt_bytes evaluate_intrinsic export_catalog_yaml fnv1a_64
host_chain instantiate is_subtype is_valid_cron lookup pack_csar parse_cron
parse_definitions parse_node_templates_fragment parse_requirements_fragment
parse_schedule parse_service_template plan report_to_dict resolve_type
serialize_definitions serialize_template undeploy_plan unpack_csar
validate_plan verify
""".split()


def _in_child(code, *flags):
    """The JSON value `code` leaves in `result`, run in a fresh interpreter
    started with `flags`."""
    script = (f"import json, sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
              f"{code}\nprint(json.dumps(result))")
    done = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("sorted(name.removeprefix('toscaflow.') for name in sys.modules "
          "if name in ('yaml', 'dataclasses', 'inspect') "
          "or name.startswith('toscaflow.'))")
SLOW_STDLIB = {"dataclasses", "inspect"}


def test_building_the_catalog_loads_only_catalog_model_and_errors():
    loaded = _in_child("import toscaflow\ntoscaflow.builtin_catalog()\n"
                       f"result = {LOADED}")
    assert loaded == ["catalog", "errors", "model"]


def test_building_the_catalog_does_not_load_typing():
    # -S: no site hook may load typing before toscaflow does
    loaded = _in_child("import toscaflow\ntoscaflow.builtin_catalog()\n"
                       "result = 'typing' in sys.modules", "-S")
    assert loaded is False


@pytest.mark.parametrize("command, unused", [
    (["verify"], {"planner", "simulator", "csar"}),
    (["plan"], {"simulator", "csar"}),
    (["simulate", "--until", "5"], {"planner", "csar"}),
])
def test_each_command_loads_only_the_layers_it_runs(command, unused):
    argv = [command[0], str(FIXTURE), *command[1:]]
    code, loaded = _in_child("from toscaflow.cli import main\n"
                             f"result = [main({argv!r}), {LOADED}]")
    assert code == 0
    assert (unused | SLOW_STDLIB).isdisjoint(loaded)


def test_csar_pack_and_unpack_load_neither_the_parser_nor_the_verifier(tmp_path):
    source = tmp_path / "bundle"
    source.mkdir()
    (source / "service.yaml").write_bytes(FIXTURE.read_bytes())
    pack = ["csar", "pack", str(source), str(tmp_path / "b.csar")]
    unpack = ["csar", "unpack", str(tmp_path / "b.csar"), str(tmp_path / "out")]
    codes, loaded = _in_child("from toscaflow.cli import main\n"
                              f"result = [[main({pack!r}), main({unpack!r})], {LOADED}]")
    assert codes == [0, 0]
    assert {"yaml", "parsing", "verifier", *SLOW_STDLIB}.isdisjoint(loaded)
    assert (tmp_path / "out" / "service.yaml").read_bytes() == FIXTURE.read_bytes()


def test_all_is_unchanged_and_each_name_is_its_modules_object():
    assert toscaflow.__all__ == EXPECTED_ALL
    for name in EXPECTED_ALL:
        value = getattr(toscaflow, name)
        module = sys.modules[f"toscaflow.{toscaflow._EXPORTS[name]}"]
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__


def test_every_public_annotation_resolves():
    for name in EXPECTED_ALL:
        value = getattr(toscaflow, name)
        if isinstance(value, type):
            typing.get_type_hints(value)
            typing.get_type_hints(value.__init__)
        elif callable(value):
            typing.get_type_hints(value)


def test_dir_star_import_and_unknown_names():
    listed, starred = _in_child(
        "import toscaflow\nlisted = dir(toscaflow)\nnamespace = {}\n"
        "exec('from toscaflow import *', namespace)\n"
        "result = [listed, sorted(set(namespace) - {'__builtins__'})]")
    assert set(EXPECTED_ALL) <= set(listed)
    assert starred == sorted(EXPECTED_ALL)
    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        toscaflow.nothing_here  # noqa: B018


def test_first_use_binds_the_names_of_that_module_alone():
    bound = _in_child("import toscaflow\ntoscaflow.verify\n"
                      "result = sorted(set(vars(toscaflow)) & set(toscaflow.__all__))")
    assert bound == sorted(name for name, module in toscaflow._EXPORTS.items()
                           if module == "verifier")


def _private_imports(path):
    """'file:line name' for each private name of a toscaflow module that
    `path` imports or reads from a module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("toscaflow")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
                elif node.module is None or node.module == "toscaflow":
                    modules.add(alias.asname or alias.name)  # a submodule
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    assert [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _private_imports(path)] == []


def test_the_private_name_check_finds_both_forms(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("from .crypto import _keystream\nfrom . import catalog as cat\n"
                    "cat._node\n")
    assert _private_imports(path) == ["bad.py:1 _keystream", "bad.py:3 cat._node"]


SCHEDULING_WORDS = ("CRON_DRIVEN", "schedulingPeriodCRON")


def _scheduling_literals(path):
    """'file:line' for each string literal in `path` that holds a word of
    the scheduling rule."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(word in node.value for word in SCHEDULING_WORDS)]


def test_only_the_catalog_and_topology_spell_the_scheduling_rule():
    assert [hit for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in ("catalog.py", "topology.py")
            for hit in _scheduling_literals(path)] == []
    assert _scheduling_literals(PACKAGE / "topology.py")


def _reads(path, name):
    """'file:line' for each place `path` imports or reads `name`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name]


@pytest.mark.parametrize("name", ["CONNECT_TO_PIPELINE_CAP", "CONNECT_NIFI_LOCAL",
                                  "CONNECT_NIFI_REMOTE"])
def test_only_the_catalog_and_topology_read_the_connection_capability(name):
    assert [hit for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in ("catalog.py", "topology.py")
            for hit in _reads(path, name)] == []
    assert _reads(PACKAGE / "topology.py", name)


def test_the_read_check_finds_each_form(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("from .catalog import CAP\nfrom . import catalog as cat\n"
                    "cat.CAP\nCAP\n")
    assert _reads(path, "CAP") == ["bad.py:1", "bad.py:3", "bad.py:4"]


MODEL_RECORDS = [value for value in vars(model).values()
                 if isinstance(value, type) and issubclass(value, model.Record)
                 and value is not model.Record and value.__module__ == model.__name__]
MODEL_FIELDS = {field for record in MODEL_RECORDS for field in record._fields}


def _late_writes(path):
    """'file:line name' for each attribute `path` assigns outside an
    `__init__` whose name is a field of a model record."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_init = {id(node) for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef) and function.name == "__init__"
               for node in ast.walk(function)}
    return [f"{path.name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr in MODEL_FIELDS and id(node) not in in_init]


def test_no_module_writes_a_model_record_field_after_init():
    assert len(MODEL_RECORDS) == 9
    assert [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _late_writes(path)] == []


def test_the_late_write_check_finds_plain_and_tuple_targets(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("class T:\n    def __init__(self, x):\n        self.name = x\n\n"
                    "def f(t, x):\n    t.node_templates = x\n"
                    "    t.kind, t.other = x, x\n    t.other = x\n")
    assert _late_writes(path) == ["bad.py:6 node_templates", "bad.py:7 kind"]
