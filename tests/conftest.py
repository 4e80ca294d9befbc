import importlib
import os
import pathlib

import pytest
from hypothesis import settings

from toscaflow import builtin_catalog, parse_service_template

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# Property tests without an example count of their own take it from the
# profile: "small" by default, "fuzz" for a long manual run, e.g.
# HYPOTHESIS_PROFILE=fuzz python -m pytest tests/test_yaml_paths.py
settings.register_profile("small", max_examples=30, deadline=None)
settings.register_profile("fuzz", max_examples=3000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "small"))


@pytest.fixture(scope="session")
def defs():
    return builtin_catalog().definitions


@pytest.fixture
def fixture_path():
    def _path(name):
        return str(FIXTURES / name)
    return _path


@pytest.fixture
def load_fixture():
    def _load(name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        return parse_service_template(text, filename=name)
    return _load


@pytest.fixture(scope="session")
def bench():
    """The benchmark's `workloads` and `worker` modules, imported from
    `perfbench/` as its scripts import them."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        return (importlib.import_module("workloads"),
                importlib.import_module("worker"))
