"""Byte-mutated templates through the command line.

Each example takes a fixture or a serialized generated topology, applies
up to three byte mutations (tags, anchors, aliases, NUL, invalid UTF-8,
random bytes, truncation, deletion) and runs `verify`, `plan` and
`simulate --until 5` on it.  `main()` must return 0, 1 or 2 and never
raise.  The documents stay short: the pure-Python YAML scanner, which
reads every text holding a tag, is quadratic in flow brackets on one line.
Two fixtures packed as CSARs are mutated the same way and unpacked by
`csar unpack`, under the same contract.

The default profile runs a few dozen examples;
HYPOTHESIS_PROFILE=fuzz python -m pytest tests/test_cli_fuzz.py
runs thousands.
"""

import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import topology_gen
from toscaflow.cli import main
from toscaflow.csar import pack_csar
from toscaflow.parsing import serialize_template

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

DOCUMENTS = [path.read_bytes() for path in sorted(FIXTURES.glob("*.yaml"))]
DOCUMENTS += [serialize_template(generate(seed)).encode("utf-8")
              for generate in (topology_gen.random_topology,
                               topology_gen.random_clean_dag)
              for seed in range(3)]

ARCHIVES = [pack_csar("service.yaml", {"service.yaml": (FIXTURES / name).read_bytes(),
                                       "playbooks/create.yml": b"- hosts: all\n"})
            for name in ("image_pipeline.yaml", "s3_to_gcs.yaml")]

INSERTS = (b"!foo ", b"!!binary ", b"!!map ", b"!!int ", b"&a ", b"*a",
           b"&a [*a] ", b"\x00", b"\xff", b"\xc3(", b"\xed\xa0\x80",
           b"\xef\xbb\xbf", b"{", b"[", b"\t", b"\r", b"\n  ", b": ", b"- ")

COMMANDS = (["verify"], ["plan"], ["simulate", "--until", "5"])


def _mutate(document, draw):
    at = draw(st.integers(0, len(document)))
    kind = draw(st.sampled_from(("insert", "replace", "truncate", "delete")))
    if kind == "insert":
        piece = draw(st.sampled_from(INSERTS) | st.binary(min_size=1, max_size=4))
        return document[:at] + piece + document[at:]
    if kind == "replace":
        return document[:at] + draw(st.binary(min_size=1, max_size=1)) \
            + document[at + 1:]
    if kind == "truncate":
        return document[:at]
    return document[:at] + document[at + draw(st.integers(1, 16)):]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@pytest.mark.filterwarnings("ignore:.*ignoring")  # a mangled key is skipped
@given(document=st.sampled_from(DOCUMENTS), mutations=st.integers(1, 3),
       data=st.data())
def test_main_exits_0_1_or_2_on_mutated_bytes(workdir, document, mutations, data):
    for _ in range(mutations):
        document = _mutate(document, data.draw)
    path = workdir / "mutated.yaml"
    path.write_bytes(document)
    for command in COMMANDS:
        assert main([command[0], str(path), *command[1:]]) in (0, 1, 2)


@given(archive=st.sampled_from(ARCHIVES), mutations=st.integers(1, 3), data=st.data())
def test_csar_unpack_exits_0_1_or_2_on_mutated_archives(workdir, archive, mutations,
                                                        data):
    for _ in range(mutations):
        archive = _mutate(archive, data.draw)
    path = workdir / "mutated.csar"
    path.write_bytes(archive)
    assert main(["csar", "unpack", str(path), str(workdir / "unpacked")]) in (0, 1, 2)
