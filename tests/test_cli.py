import io
import json
import os
import pathlib
import subprocess
import sys
import zipfile

import pytest

import builders as b
import toscaflow
from toscaflow.cli import main
from toscaflow.csar import unpack_csar
from toscaflow.parsing import parse_service_template, serialize_template
from toscaflow.verifier import verify


def test_verify_duplicate_connection_reports_r3_and_exits_1(fixture_path, capsys):
    code = main(["verify", fixture_path("duplicate_connection.yaml")])
    out = capsys.readouterr().out
    assert code == 1
    assert "R3-DUPLICATE-CONN" in out


def test_verify_fix_out_then_reverify_clean(fixture_path, tmp_path, capsys):
    out_path = tmp_path / "ok.yaml"
    code = main(["verify", fixture_path("duplicate_connection.yaml"), "--fix",
                 "--out", str(out_path), "--seed", "7"])
    assert code == 0  # everything found was repaired
    assert out_path.exists()
    code = main(["verify", str(out_path)])
    assert code == 0
    assert capsys.readouterr() is not None


def test_verify_json_report(fixture_path, capsys):
    code = main(["verify", fixture_path("duplicate_connection.yaml"), "--report", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["fixed"] is False
    assert [d["rule"] for d in report["diagnostics"]] == ["R3-DUPLICATE-CONN"]
    assert report["diagnostics"][0]["fix"] is None


def test_verify_text_report_ends_with_the_first_nodes_location(fixture_path, capsys):
    path = fixture_path("duplicate_connection.yaml")
    fixed = "\tfixed: dropped 1 duplicate connection(s)"
    for flags, fix in (([], ""), (["--fix"], fixed)):
        main(["verify", path, *flags])
        line, = capsys.readouterr().out.splitlines()
        assert line.startswith("R3-DUPLICATE-CONN\tfixable\tConsS3Bucket,PubGCS\t")
        assert fix in line
        assert line.endswith(f"\t{path}:22:5")


def test_verify_missing_file_exits_2(capsys):
    assert main(["verify", "missing.yaml"]) == 2


def test_verify_seed_reproducible(fixture_path, tmp_path):
    paths = []
    for run in range(2):
        out_path = tmp_path / f"fixed{run}.yaml"
        assert main(["verify", fixture_path("encrypt_mismatch.yaml"), "--fix",
                     "--out", str(out_path), "--seed", "41"]) == 0
        paths.append(out_path.read_bytes())
    assert paths[0] == paths[1]


def test_verify_fix_that_does_not_converge_prints_one_line(tmp_path, capsys):
    path = tmp_path / "cascade.yaml"
    path.write_text(serialize_template(b.rekey_cascade(4)), encoding="utf-8")
    out_path = tmp_path / "fixed.yaml"
    assert main(["verify", str(path), "--fix", "--out", str(out_path)]) == 1
    assert capsys.readouterr() == (
        "cannot repair: fixable diagnostics remain after 3 fix passes\n", "")
    assert not out_path.exists()


def test_plan_text_is_one_line_per_step_of_the_json_plan(fixture_path, capsys):
    path = fixture_path("image_pipeline.yaml")
    assert main(["plan", path, "--format", "json"]) == 0
    steps = json.loads(capsys.readouterr().out)
    assert main(["plan", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["\t".join([s["node"], s["op"]]
                               + ([s["annotation"]] if s["annotation"] else []))
                     for s in steps]
    assert [line for line in lines if line.count("\t") == 2] == [
        "InvokeLambda_1\tconfigure\tremote:InvokeImageFaaSFunction_0,PubGCS_0",
        "ConsMinIO_0\tconfigure\tremote:InvokeLambda_0"]


def test_plan_json_first_start_is_a_platform(fixture_path, capsys):
    code = main(["plan", fixture_path("s3_to_gcs.yaml"), "--format", "json"])
    assert code == 0
    steps = json.loads(capsys.readouterr().out)
    first_start = next(s for s in steps if s["op"] == "start")
    assert first_start["node"] in ("AWSPlatform", "OpenStackPlatform")


def test_plan_image_pipeline_full_step_count(fixture_path, capsys):
    code = main(["plan", fixture_path("image_pipeline.yaml"), "--format", "json"])
    assert code == 0
    steps = json.loads(capsys.readouterr().out)
    assert len(steps) == 16 * 3  # six pipeline blocks plus ten host templates
    annotations = {s["node"]: s["annotation"] for s in steps
                   if s["op"] == "configure" and s["annotation"]}
    assert annotations == {
        "ConsMinIO_0": "remote:InvokeLambda_0",
        "InvokeLambda_1": "remote:InvokeImageFaaSFunction_0,PubGCS_0",
    }


def test_plan_cyclic_names_cycle_members(fixture_path, capsys):
    code = main(["plan", fixture_path("cyclic.yaml")])
    out = capsys.readouterr().out
    assert code == 1
    assert "Exec_A" in out and "Exec_B" in out


def test_simulate_refuses_a_connection_cycle(fixture_path, tmp_path, capsys):
    assert main(["simulate", fixture_path("cyclic.yaml")]) == 1
    assert capsys.readouterr() == (
        "cannot simulate: dependency cycle: Exec_A -> Exec_B\n", "")
    path = tmp_path / "diamond.yaml"
    path.write_text(serialize_template(b.diamond_cycle()), encoding="utf-8")
    assert main(["simulate", str(path), "--until", "30"]) == 1
    assert capsys.readouterr() == ("cannot simulate: dependency cycle: A -> B -> D\n", "")


def test_plan_refuses_unverified_template(fixture_path, capsys):
    code = main(["plan", fixture_path("duplicate_connection.yaml")])
    assert code == 1
    assert "R3-DUPLICATE-CONN" in capsys.readouterr().out


def test_simulate_image_pipeline_writes_metrics(fixture_path, tmp_path, capsys):
    schedule = tmp_path / "inject.txt"
    schedule.write_text(
        "\n".join(f"{i} minio firstbucket img{i} 0a0b{i:02d}" for i in range(5))
        + "\n")
    metrics_path = tmp_path / "metrics.json"
    code = main(["simulate", fixture_path("image_pipeline.yaml"),
                 "--inject", str(schedule), "--until", "50",
                 "--metrics", str(metrics_path)])
    assert code == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["stores"]["gcs/radongcs"] == 5
    assert metrics["stores"]["azure/blurredcontainer"] == 5
    assert metrics["final_tick"] == 50


def test_simulate_empty_schedule_all_zero(fixture_path, capsys):
    code = main(["simulate", fixture_path("image_pipeline.yaml"), "--until", "10"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert all(counts == {"consumed": 0, "emitted": 0, "errors": 0}
               for counts in metrics["per_block"].values())
    assert metrics["stores"] == {}


def test_simulate_malformed_schedule_exits_2(fixture_path, tmp_path, capsys):
    schedule = tmp_path / "inject.txt"
    schedule.write_text("bogus line\n")
    assert main(["simulate", fixture_path("image_pipeline.yaml"),
                 "--inject", str(schedule)]) == 2


def test_simulate_unregistered_function_exits_1(tmp_path, capsys):
    template_text = """\
tosca_definitions_version: tosca_simple_yaml_1_3
topology_template:
  node_templates:
    VM_0:
      type: tosca.nodes.Compute
    Nifi_0:
      type: radon.nodes.nifi.Nifi
      properties: {component_version: "1.14.0"}
      requirements:
        - host: VM_0
    Src:
      type: radon.nodes.datapipeline.source.ConsMinIO
      properties: {name: s, BucketName: in, cred_file_path: c, MinIO_Endpoint: e}
      requirements:
        - host: Nifi_0
        - connectToPipeline: Fn
    Fn:
      type: radon.nodes.datapipeline.process.InvokeLambda
      properties: {name: f, cred_file_path: c, function_name: nobody-registered-this, region: r}
      requirements:
        - host: Nifi_0
        - ConnectToPipeline: Dst
    Dst:
      type: radon.nodes.datapipeline.destination.PubsMinIO
      properties: {name: d, BucketName: out, cred_file_path: c, MinIO_Endpoint: e}
      requirements:
        - host: Nifi_0
"""
    template_path = tmp_path / "t.yaml"
    template_path.write_text(template_text)
    schedule = tmp_path / "inject.txt"
    schedule.write_text("0 minio in k 00\n")
    code = main(["simulate", str(template_path), "--inject", str(schedule),
                 "--until", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["per_block"]["Fn"]["errors"] == 1


def test_csar_pack_unpack_round_trip(fixture_path, tmp_path, capsys):
    source = tmp_path / "bundle"
    (source / "playbooks").mkdir(parents=True)
    service = pathlib.Path(fixture_path("s3_to_gcs.yaml")).read_bytes()
    (source / "service.yaml").write_bytes(service)
    (source / "playbooks" / "create.yml").write_bytes(b"- hosts: all\n")

    archive = tmp_path / "bundle.csar"
    assert main(["csar", "pack", str(source), str(archive)]) == 0

    dest = tmp_path / "out"
    assert main(["csar", "unpack", str(archive), str(dest)]) == 0
    assert (dest / "service.yaml").read_bytes() == service
    assert (dest / "playbooks" / "create.yml").read_bytes() == b"- hosts: all\n"


def test_csar_pack_of_a_source_that_is_not_a_directory(tmp_path, capsys):
    source = tmp_path / "service.yaml"
    source.write_bytes(b"tosca_definitions_version: tosca_simple_yaml_1_3\n")
    archive = tmp_path / "bundle.csar"
    assert main(["csar", "pack", str(source), str(archive)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {str(source)!r} is not a directory\n")
    assert not archive.exists()


def test_csar_pack_without_its_entry_definitions(tmp_path, capsys):
    source = tmp_path / "bundle"
    source.mkdir()
    (source / "service.yaml").write_bytes(b"tosca_definitions_version: x\n")
    archive = tmp_path / "bundle.csar"
    assert main(["csar", "pack", str(source), str(archive),
                 "--entry", "nope.yaml"]) == 2
    assert capsys.readouterr() == (
        "", "error: entry definitions 'nope.yaml' not among the files to pack\n")
    assert not archive.exists()


def test_csar_unpack_non_zip_exits_2(tmp_path, capsys):
    bogus = tmp_path / "bogus.csar"
    bogus.write_bytes(b"not a zip")
    assert main(["csar", "unpack", str(bogus), str(tmp_path / "out")]) == 2


def test_csar_unpack_of_a_damaged_member_prints_one_error_line(tmp_path, capsys):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as stored:
        stored.writestr("TOSCA-Metadata/TOSCA.meta", "Entry-Definitions: service.yaml\n")
        stored.writestr("service.yaml", b"tosca_definitions_version: x\n")
    archive = tmp_path / "damaged.csar"
    archive.write_bytes(buffer.getvalue().replace(b"version: x", b"version: y"))
    dest = tmp_path / "out"

    assert main(["csar", "unpack", str(archive), str(dest)]) == 2
    assert capsys.readouterr().err == ("error: cannot read archive member "
                                       "'service.yaml': Bad CRC-32 for file "
                                       "'service.yaml'\n")
    assert not dest.exists()


def test_csar_unpack_refuses_member_outside_dest(tmp_path, capsys):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as crafted:
        crafted.writestr("TOSCA-Metadata/TOSCA.meta",
                         "Entry-Definitions: service.yaml\n")
        crafted.writestr("service.yaml", b"x")
        crafted.writestr("../escaped.txt", b"escaped")
    archive = tmp_path / "work" / "crafted.csar"
    archive.parent.mkdir()
    archive.write_bytes(buffer.getvalue())
    dest = tmp_path / "work" / "out"

    assert main(["csar", "unpack", str(archive), str(dest)]) == 2
    assert "escaped.txt" in capsys.readouterr().err
    assert not (tmp_path / "work" / "escaped.txt").exists()
    assert not dest.exists()


def test_verify_entry_inside_archive_matches_direct(fixture_path, tmp_path):
    source = tmp_path / "bundle"
    source.mkdir()
    raw = pathlib.Path(fixture_path("duplicate_connection.yaml")).read_bytes()
    (source / "service.yaml").write_bytes(raw)
    archive_path = tmp_path / "bundle.csar"
    assert main(["csar", "pack", str(source), str(archive_path)]) == 0

    archive = unpack_csar(archive_path.read_bytes())
    inside = parse_service_template(archive.entry_bytes.decode("utf-8"))
    direct = parse_service_template(raw.decode("utf-8"))
    _, inside_diags = verify(inside)
    _, direct_diags = verify(direct)
    assert [(d.rule, d.nodes) for d in inside_diags] == \
        [(d.rule, d.nodes) for d in direct_diags]


SELF_REFERENCING_STRATEGY = """\
tosca_definitions_version: tosca_simple_yaml_1_3
topology_template:
  node_templates:
    VM_0:
      type: tosca.nodes.Compute
    Nifi_0:
      type: radon.nodes.nifi.Nifi
      properties: {component_version: "1.14.0"}
      requirements:
        - host: VM_0
    Py:
      type: radon.nodes.datapipeline.process.ExecutePython
      properties:
        name: p
        script_path: run.py
        schedulingStrategy: { get_property: [SELF, schedulingStrategy] }
      requirements:
        - host: Nifi_0
"""


def test_verify_self_referencing_property_exits_1(tmp_path, capsys):
    path = tmp_path / "self.yaml"
    path.write_text(SELF_REFERENCING_STRATEGY)
    assert main(["verify", str(path)]) == 1
    assert "R6-SCHEDULING\terror\tPy" in capsys.readouterr().out


def test_self_referencing_script_path_fails_verify_and_simulate(tmp_path, capsys):
    path = tmp_path / "self.yaml"
    path.write_text(SELF_REFERENCING_STRATEGY.replace(
        "script_path: run.py",
        "script_path: { get_property: [SELF, script_path] }").replace(
        "{ get_property: [SELF, schedulingStrategy] }", "EVENT_DRIVEN"))
    finding = ("R6-SCHEDULING\terror\tPy\t'Py' cannot evaluate its script_path "
               f"(get_property cycle: Py.script_path -> Py.script_path)\t{path}:11:5\n")
    for command in ("verify", "simulate"):
        assert main([command, str(path)]) == 1, command
        assert finding in capsys.readouterr().out, command


def test_simulate_a_block_without_behaviour_exits_1(tmp_path, capsys):
    path = tmp_path / "block.yaml"
    path.write_text("tosca_definitions_version: tosca_simple_yaml_1_3\n"
                    "node_types:\n"
                    "  my.Block:\n"
                    "    derived_from: radon.nodes.abstract.DataPipeline\n"
                    "topology_template:\n"
                    "  node_templates:\n"
                    "    B:\n"
                    "      type: my.Block\n")
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().out == (
        "cannot simulate: pipeline node 'B' of type 'my.Block' has no "
        "simulation behaviour\n")


def test_plan_and_simulate_show_the_error_location(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("tosca_definitions_version: tosca_simple_yaml_1_3\n"
                    "topology_template:\n"
                    "  node_templates:\n"
                    "    A:\n"
                    "      typo: x\n")
    for command in ("verify", "plan", "simulate"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.endswith(f" at {path}:5:7\n"), command


def test_yaml_syntax_error_is_one_line_at_the_broken_construct(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("tosca_definitions_version: tosca_simple_yaml_1_3\n"
                    "topology_template:\n"
                    "  node_templates:\n"
                    "    A:\n"
                    "      type: [unclosed\n")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: while parsing a flow sequence: expected ',' or ']', "
                   f"but got '<stream end>' at {path}:5:13\n")


def test_plan_has_no_seed_option(fixture_path, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["plan", fixture_path("s3_to_gcs.yaml"), "--seed", "1"])
    assert stop.value.code == 2


def test_csar_unpack_refuses_member_clash(tmp_path, capsys):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as crafted:
        crafted.writestr("TOSCA-Metadata/TOSCA.meta",
                         "Entry-Definitions: service.yaml\n")
        crafted.writestr("service.yaml", b"x")
        crafted.writestr("a", b"file")
        crafted.writestr("a/b", b"file below a file")
    archive = tmp_path / "clash.csar"
    archive.write_bytes(buffer.getvalue())
    dest = tmp_path / "out"

    assert main(["csar", "unpack", str(archive), str(dest)]) == 2
    assert "'a'" in capsys.readouterr().err
    assert not dest.exists()


def _two_member_csar(tmp_path):
    """A CSAR of `service.yaml` and `z/c.yml`, written under `tmp_path`."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as crafted:
        crafted.writestr("TOSCA-Metadata/TOSCA.meta",
                         "Entry-Definitions: service.yaml\n")
        crafted.writestr("service.yaml", b"x")
        crafted.writestr("z/c.yml", b"y")
    archive = tmp_path / "bundle.csar"
    archive.write_bytes(buffer.getvalue())
    return archive


@pytest.mark.parametrize("in_the_way, error", [
    ("z", "cannot unpack 'z/c.yml': '{dest}/z' is not a directory"),
    ("z/c.yml/", "cannot unpack 'z/c.yml': '{dest}/z/c.yml' is a directory"),
])
def test_csar_unpack_writes_nothing_unless_it_can_write_every_member(
        tmp_path, capsys, in_the_way, error):
    archive = _two_member_csar(tmp_path)
    dest = tmp_path / "out"
    if in_the_way.endswith("/"):
        (dest / in_the_way).mkdir(parents=True)
    else:
        dest.mkdir()
        (dest / in_the_way).write_bytes(b"a file")

    assert main(["csar", "unpack", str(archive), str(dest)]) == 2
    assert capsys.readouterr().err == f"error: {error.format(dest=dest)}\n"
    assert not (dest / "service.yaml").exists()


def _symlink(target, link):
    if not hasattr(os, "symlink"):
        pytest.skip("no os.symlink on this platform")
    try:
        os.symlink(target, link)
    except OSError as exc:  # e.g. Windows without the privilege to link
        pytest.skip(f"cannot make a symbolic link: {exc}")


@pytest.mark.parametrize("link, target, error", [
    ("z", "outside", "cannot unpack 'z/c.yml': '{dest}/z' is a symbolic link"),
    ("z/c.yml", "outside/c.yml",
     "cannot unpack 'z/c.yml': '{dest}/z/c.yml' is a symbolic link"),
])
def test_csar_unpack_follows_no_symbolic_link_under_its_destination(
        tmp_path, capsys, link, target, error):
    archive = _two_member_csar(tmp_path)
    (tmp_path / "outside").mkdir()
    dest = tmp_path / "out"
    (dest / link).parent.mkdir(parents=True)
    _symlink(tmp_path / target, dest / link)

    assert main(["csar", "unpack", str(archive), str(dest)]) == 2
    assert capsys.readouterr().err == f"error: {error.format(dest=dest)}\n"
    assert not (dest / "service.yaml").exists()
    assert list((tmp_path / "outside").iterdir()) == []


def test_csar_unpack_into_a_destination_that_is_a_symbolic_link(tmp_path, capsys):
    archive = _two_member_csar(tmp_path)
    (tmp_path / "real").mkdir()
    dest = tmp_path / "out"
    _symlink(tmp_path / "real", dest)

    assert main(["csar", "unpack", str(archive), str(dest)]) == 0
    assert (tmp_path / "real" / "z" / "c.yml").read_bytes() == b"y"
    assert (tmp_path / "real" / "service.yaml").read_bytes() == b"x"


def test_csar_unpack_refuses_an_archive_declaring_too_many_bytes(tmp_path, capsys):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as crafted:
        crafted.writestr("TOSCA-Metadata/TOSCA.meta",
                         "Entry-Definitions: service.yaml\n")
        crafted.writestr("service.yaml", b"x")
    data = bytearray(buffer.getvalue())
    # the last central directory entry, service.yaml, now declares 2 GiB
    entry = data.rindex(b"PK\x01\x02")
    data[entry + 24:entry + 28] = (2**31).to_bytes(4, "little")
    archive = tmp_path / "bomb.csar"
    archive.write_bytes(bytes(data))
    dest = tmp_path / "out"

    assert main(["csar", "unpack", str(archive), str(dest)]) == 2
    assert "uncompressed" in capsys.readouterr().err
    assert not dest.exists()


def test_unknown_tag_exits_2_with_its_location(tmp_path, capsys):
    path = tmp_path / "tag.yaml"
    path.write_text("tosca_definitions_version: tosca_simple_yaml_1_3\n"
                    "topology_template:\n"
                    "  node_templates:\n"
                    "    A:\n"
                    "      type: !foo tosca.nodes.Compute\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: could not determine a constructor for the tag '!foo' "
        f"at {path}:5:13\n")


def test_undecodable_template_exits_2_at_the_first_bad_byte(fixture_path, tmp_path,
                                                            capsys):
    with open(fixture_path("s3_to_gcs.yaml"), "rb") as handle:
        source = handle.read()
    path = tmp_path / "latin1.yaml"
    path.write_bytes(source.replace(b"demo-dest", "d\u00e9mo-dest".encode("latin-1")))
    for command in ("verify", "plan"):
        assert main([command, str(path)]) == 2, command
        assert capsys.readouterr().err == (
            "error: cannot decode byte 0xe9 as UTF-8 (invalid continuation byte) "
            f"at {path}:43:22\n"), command


def test_nul_byte_is_one_line_at_its_position(tmp_path, capsys):
    path = tmp_path / "nul.yaml"
    path.write_bytes(b"tosca_definitions_version: tosca_simple_yaml_1_3\n"
                     b"topology_template:\n  node\x00_templates: {}\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: unacceptable character #x0000: special characters are not "
        f"allowed at {path}:3:7\n")


def test_verify_out_without_fix_writes_the_verified_template(fixture_path, tmp_path):
    out_path = tmp_path / "same.yaml"
    source = fixture_path("duplicate_connection.yaml")
    assert main(["verify", source, "--out", str(out_path)]) == 1
    with open(source, encoding="utf-8") as handle:
        template = parse_service_template(handle.read())
    assert out_path.read_text(encoding="utf-8") == serialize_template(template)


@pytest.mark.parametrize("command, option", [("verify", "--out"),
                                             ("simulate", "--metrics")])
def test_unwritable_output_path_exits_2(command, option, fixture_path, tmp_path,
                                        capsys):
    assert main([command, fixture_path("s3_to_gcs.yaml"), option,
                 str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_of_a_100000_level_nesting_exits_2_with_its_location(tmp_path):
    # in a child process, so that a crash in libyaml shows as a return code;
    # a bracket a line, which the pure scanner reads faster than one line
    path = tmp_path / "deep.yaml"
    path.write_text("tosca_definitions_version: tosca_simple_yaml_1_3\n"
                    "topology_template:\n"
                    "  node_templates:\n"
                    "    A:\n"
                    "      type: tosca.nodes.Compute\n"
                    "      properties: {a: " + "[\n" * 100_000 + "]\n" * 100_000 + "}\n")
    source_root = str(pathlib.Path(toscaflow.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from toscaflow.cli import main; "
         "sys.exit(main(sys.argv[2:]))", source_root, "verify", str(path)],
        capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: nested too deep at {path}:6:19\n"
