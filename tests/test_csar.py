import io
import random
import zipfile

import pytest

from toscaflow import csar
from toscaflow.csar import META_PATH, pack_csar, unpack_csar
from toscaflow.errors import (
    ArchiveTooLargeError,
    MissingEntryDefinitionsError,
    MissingMetadataError,
    ToscaflowError,
    UnsafeMemberNameError,
)


FILES = {
    "service.yaml": b"tosca_definitions_version: tosca_simple_yaml_1_3\n",
    "playbooks/create.yml": b"- hosts: all\n",
    "creds/minio.json": b"{}",
}


def test_pack_unpack_round_trip():
    archive = unpack_csar(pack_csar("service.yaml", FILES))
    assert archive.files == FILES
    assert archive.entry_definitions == "service.yaml"
    assert archive.metadata["TOSCA-Meta-File-Version"] == "1.1"
    assert archive.metadata["CSAR-Version"] == "1.1"


def test_pack_is_deterministic():
    assert pack_csar("service.yaml", FILES) == pack_csar("service.yaml", FILES)


def test_pack_requires_entry_present():
    with pytest.raises(MissingEntryDefinitionsError):
        pack_csar("missing.yaml", FILES)


def test_unpack_rejects_archive_without_metadata():
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("service.yaml", b"x")
    with pytest.raises(MissingMetadataError):
        unpack_csar(buffer.getvalue())


def test_unpack_rejects_non_zip():
    with pytest.raises(MissingMetadataError):
        unpack_csar(b"this is not a zip archive")


def test_unpack_rejects_dangling_entry_definitions():
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(META_PATH,
                         "TOSCA-Meta-File-Version: 1.1\n"
                         "CSAR-Version: 1.1\n"
                         "Entry-Definitions: main.yaml\n")
        archive.writestr("other.yaml", b"x")
    with pytest.raises(MissingEntryDefinitionsError):
        unpack_csar(buffer.getvalue())


def test_pack_deflates_members():
    files = dict(FILES, **{"data/log.txt": b"the same line again\n" * 500})
    packed = pack_csar("service.yaml", files)
    assert packed == pack_csar("service.yaml", files)
    assert unpack_csar(packed).files == files
    assert len(packed) < sum(len(payload) for payload in files.values())
    with zipfile.ZipFile(io.BytesIO(packed)) as archive:
        assert {info.compress_type for info in archive.infolist()} \
            == {zipfile.ZIP_DEFLATED}


def _archive_with(member):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(META_PATH, "Entry-Definitions: service.yaml\n")
        archive.writestr("service.yaml", b"x")
        archive.writestr(zipfile.ZipInfo(member), b"escaped")
    return buffer.getvalue()


@pytest.mark.parametrize("member", [
    "../escaped.txt", "playbooks/../../escaped.txt", "/abs/escaped.txt",
    "\\abs\\escaped.txt", "C:/escaped.txt", "c:escaped.txt",
    "playbooks\\..\\..\\escaped.txt",
    "service.yaml/below-a-file.txt", "TOSCA-Metadata",
])
def test_unpack_rejects_unsafe_member_names(member):
    with pytest.raises(UnsafeMemberNameError):
        unpack_csar(_archive_with(member))


def test_unpack_accepts_dotted_but_safe_names():
    archive = unpack_csar(_archive_with("playbooks/..hidden/v1..2.yml"))
    assert archive.files["playbooks/..hidden/v1..2.yml"] == b"escaped"


def _declaring(sizes):
    """An archive whose members declare `sizes` uncompressed bytes in the
    central directory, whatever they really hold."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(META_PATH, "Entry-Definitions: service.yaml\n")
        archive.writestr("service.yaml", b"x")
        for index in range(len(sizes)):
            archive.writestr(f"data/{index}.bin", b"small")
    data = bytearray(buffer.getvalue())
    entry = len(data)
    for size in reversed(sizes):
        entry = data.rindex(b"PK\x01\x02", 0, entry)
        data[entry + 24:entry + 28] = size.to_bytes(4, "little")
    return bytes(data)


def test_unpack_refuses_members_declaring_more_than_the_cap():
    with pytest.raises(ArchiveTooLargeError):
        unpack_csar(_declaring([2**31]))
    # no single member is over the cap, their sum is
    with pytest.raises(ArchiveTooLargeError):
        unpack_csar(_declaring([csar.MAX_UNPACKED_BYTES // 2 + 1] * 2))


def test_unpack_cap_counts_every_member(monkeypatch):
    files = {"service.yaml": b"x" * 10, "data/log.txt": b"y" * 20}
    packed = pack_csar("service.yaml", files)
    with zipfile.ZipFile(io.BytesIO(packed)) as archive:
        total = sum(info.file_size for info in archive.infolist())
    monkeypatch.setattr(csar, "MAX_UNPACKED_BYTES", total)
    assert unpack_csar(packed).files == files
    monkeypatch.setattr(csar, "MAX_UNPACKED_BYTES", total - 1)
    with pytest.raises(ArchiveTooLargeError):
        unpack_csar(packed)


SERVICE = b"tosca_definitions_version: tosca_simple_yaml_1_3\n"


def _two_members(method=zipfile.ZIP_STORED, meta=b"Entry-Definitions: service.yaml\n",
                 service=SERVICE):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", method) as archive:
        archive.writestr(META_PATH, meta)
        archive.writestr("service.yaml", service)
    return buffer.getvalue()


def _service_record(data, offset, change):
    """`data` with byte `offset` of service.yaml's central-directory record
    replaced by `change(byte)`."""
    data = bytearray(data)
    at = data.rindex(b"PK\x01\x02") + offset
    data[at] = change(data[at])
    return bytes(data)


def _bad_deflate_block():
    data = bytearray(_two_members(zipfile.ZIP_DEFLATED))
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        header = archive.getinfo("service.yaml").header_offset
    name_size, extra_size = data[header + 26], data[header + 28]
    data[header + 30 + name_size + extra_size] = 0xFF  # final block, reserved type
    return bytes(data)


DAMAGED = {
    "crc mismatch": (_two_members().replace(b"simple", b"simplE"),
                     "Bad CRC-32 for file 'service.yaml'"),
    "bad deflate block": (_bad_deflate_block(), "invalid block type"),
    "unknown compression method": (_service_record(_two_members(), 10, lambda _: 99),
                                   "compression method is not supported"),
    # stored bytes read as lzma: a header naming filter properties it refuses
    "bad lzma stream": (_service_record(
        _two_members(service=b"\x09\x14\x05\x00\xff\x00\x00\x01\x00garbage"),
        10, lambda _: zipfile.ZIP_LZMA), "Invalid or unsupported options"),
    "encrypted flag": (_service_record(_two_members(), 8, lambda bits: bits | 1),
                       "is encrypted"),
    "non-UTF-8 TOSCA.meta": (_two_members(meta=b"Entry-Definitions: s\xff.yaml\n"),
                             "TOSCA.meta is not UTF-8"),
}


@pytest.mark.parametrize("data, message", DAMAGED.values(), ids=DAMAGED.keys())
def test_unpack_reports_a_damaged_archive_as_missing_metadata(data, message):
    with pytest.raises(MissingMetadataError, match=message):
        unpack_csar(data)


def test_unpack_raises_only_toscaflow_errors_on_flipped_bytes():
    packed = pack_csar("service.yaml", FILES)
    rng = random.Random(7)
    for _ in range(2000):
        data = bytearray(packed)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            assert isinstance(unpack_csar(bytes(data)), csar.CsarArchive)
        except ToscaflowError:
            pass
