"""What each entry point loads, and the lazy package's public names.

The load checks run in fresh interpreters, so that modules this test
session has already imported cannot hide an eager import.  They look only
at toscaflow's modules and PyYAML.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import toscaflow

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


def _in_child(code):
    """The JSON value `code` leaves in `result`, run in a fresh interpreter."""
    script = (f"import json, sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
              f"{code}\nprint(json.dumps(result))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("sorted(name.removeprefix('toscaflow.') for name in sys.modules "
          "if name == 'yaml' or name.startswith('toscaflow.'))")


def test_building_the_catalog_loads_only_catalog_model_and_errors():
    loaded = _in_child("import toscaflow\ntoscaflow.builtin_catalog()\n"
                       f"result = {LOADED}")
    assert loaded == ["catalog", "errors", "model"]


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
    assert unused.isdisjoint(loaded)


def test_all_is_unchanged_and_each_name_is_its_modules_object():
    assert toscaflow.__all__ == EXPECTED_ALL
    for name in EXPECTED_ALL:
        value = getattr(toscaflow, name)
        module = sys.modules[f"toscaflow.{toscaflow._EXPORTS[name]}"]
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__


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
