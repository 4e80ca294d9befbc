"""Minimal CSAR (Cloud Service Archive) packing and unpacking.

A CSAR here is a zip archive whose ``TOSCA-Metadata/TOSCA.meta`` names the
entry definitions file.  Three metadata keys are required:
TOSCA-Meta-File-Version, CSAR-Version, and Entry-Definitions.
"""

from __future__ import annotations

import io
import zipfile
import zlib

from .errors import (
    ArchiveTooLargeError,
    MissingEntryDefinitionsError,
    MissingMetadataError,
    UnsafeMemberNameError,
)
from .model import Record

META_PATH = "TOSCA-Metadata/TOSCA.meta"
META_VERSION = "1.1"
CSAR_VERSION = "1.1"

try:
    from lzma import LZMAError
except ImportError:  # zipfile then refuses lzma members with a RuntimeError
    LZMAError = RuntimeError

# what zipfile raises on damaged bytes: BadZipFile for a bad header or CRC;
# zlib.error, LZMAError, OSError (bzip2) or EOFError for a bad stream;
# RuntimeError for an encrypted member or, as NotImplementedError, an
# unknown method; ValueError for a bad offset or a name that is not UTF-8
_UNREADABLE = (zipfile.BadZipFile, zlib.error, LZMAError, OSError, EOFError,
               RuntimeError, ValueError)

# fixed timestamp so packing is deterministic
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)

# the most bytes unpack_csar reads out of one archive; zipfile never reads
# past a member's declared size, so the declared sizes bound the total
MAX_UNPACKED_BYTES = 256 * 1024 * 1024


class CsarArchive(Record):
    """An unpacked archive: entry file name, payload files, metadata map."""

    _fields = ("entry_definitions", "files", "metadata")

    def __init__(self, entry_definitions: str, files: dict[str, bytes] | None = None,
                 metadata: dict[str, str] | None = None):
        self.entry_definitions = entry_definitions
        self.files = {} if files is None else files
        self.metadata = {} if metadata is None else metadata

    @property
    def entry_bytes(self) -> bytes:
        return self.files[self.entry_definitions]


def _render_meta(entry: str) -> bytes:
    lines = [
        f"TOSCA-Meta-File-Version: {META_VERSION}",
        f"CSAR-Version: {CSAR_VERSION}",
        f"Entry-Definitions: {entry}",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _member_info(path: str) -> zipfile.ZipInfo:
    # a bare ZipInfo is stored uncompressed whatever the archive's default
    info = zipfile.ZipInfo(path, date_time=_ZIP_DATE)
    info.compress_type = zipfile.ZIP_DEFLATED
    return info


def pack_csar(entry: str, files: dict[str, bytes]) -> bytes:
    """Zip `files` plus generated metadata naming `entry` as the main template."""
    if entry not in files:
        raise MissingEntryDefinitionsError(
            f"entry definitions {entry!r} not among the files to pack")
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr(_member_info(META_PATH), _render_meta(entry))
        for path in sorted(files):
            archive.writestr(_member_info(path), files[path])
    return buffer.getvalue()


def _parse_meta(raw: bytes) -> dict[str, str]:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MissingMetadataError(f"{META_PATH} is not UTF-8: {exc}") from exc
    metadata = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        key, value = line.split(":", 1)
        metadata[key.strip()] = value.strip()
    return metadata


def _check_member_name(name: str):
    """Refuse names that would resolve outside the directory unpacked into."""
    parts = name.replace("\\", "/").split("/")
    if parts[0] == "" or parts[0][1:2] == ":" or ".." in parts:
        raise UnsafeMemberNameError(
            f"archive member {name!r} would be written outside the destination")


def _check_member_clashes(names):
    """Refuse a file member whose name is also a directory of another member."""
    directories = {name[:i] for name in names
                   for i, char in enumerate(name) if char == "/"}
    for name in names:
        if name in directories:
            raise UnsafeMemberNameError(
                f"archive member {name!r} is also a directory of another member")


def _check_unpacked_size(infos):
    """Refuse an archive whose members declare more than MAX_UNPACKED_BYTES."""
    total = sum(info.file_size for info in infos)
    if total > MAX_UNPACKED_BYTES:
        raise ArchiveTooLargeError(
            f"archive members declare {total} bytes uncompressed, more than "
            f"the {MAX_UNPACKED_BYTES} allowed")


def _read(archive, name) -> bytes:
    try:
        return archive.read(name)
    except _UNREADABLE as exc:
        raise MissingMetadataError(
            f"cannot read archive member {name!r}: {exc}") from exc


def unpack_csar(data: bytes) -> CsarArchive:
    """Read a CSAR back into memory, validating its metadata, member names
    and total uncompressed size before any member is read.  Bytes that
    cannot be read as a zip, or a member that cannot be read, are a
    MissingMetadataError."""
    try:
        archive = zipfile.ZipFile(io.BytesIO(data))
    except _UNREADABLE as exc:
        raise MissingMetadataError(f"not a zip archive: {exc}") from exc
    with archive:
        names = archive.namelist()
        for name in names:
            _check_member_name(name)
        _check_member_clashes(names)
        _check_unpacked_size(archive.infolist())
        if META_PATH not in names:
            raise MissingMetadataError(f"archive lacks {META_PATH}")
        metadata = _parse_meta(_read(archive, META_PATH))
        entry = metadata.get("Entry-Definitions")
        if not entry:
            raise MissingMetadataError("TOSCA.meta lacks Entry-Definitions")
        files = {name: _read(archive, name) for name in names
                 if name != META_PATH and not name.endswith("/")}
    if entry not in files:
        raise MissingEntryDefinitionsError(
            f"Entry-Definitions names {entry!r}, which is not in the archive")
    return CsarArchive(entry_definitions=entry, files=files, metadata=metadata)
