"""On-disk container for durable simulation state.

A checkpoint is a *directory*::

    <name>/
        manifest.json       format tag, schema version, config
                            fingerprint, clock, and a checksummed
                            entry for every other file
        runtime.json        JSON-serializable runtime state (engine
                            queue, connections, RNG positions, metrics)
        cells/cell_0000.bin per-cell binary column blobs (quadruplet
                            history + optional F_HOE snapshots)

Design points:

* **Atomic**: everything is written into a temporary sibling directory,
  each file is flushed and ``fsync``'d, and the directory is published
  with a single ``rename`` (an existing target is rotated aside first —
  ``os.replace`` cannot replace a non-empty directory).  A reader never
  observes a half-written checkpoint.
* **Checksummed**: the manifest records a CRC32 per file; every read
  verifies it and raises :class:`StateCorruptionError` on mismatch.
* **Versioned**: the manifest carries ``schema_version``; a mismatch
  raises :class:`StateSchemaError` with a migration hint instead of
  mis-parsing bytes.

Blob layout (all little-endian)::

    "RQC1"                              magic
    u32  n_pairs
    per pair:
        i32 prev                        -2 encodes ``prev = None``
        i32 next                        -1 is EXIT_CELL (valid)
        u32 n
        n * f64 event times (record order)
        n * f64 sojourns
    u8   has_snapshots
    if has_snapshots:
        u32  n_snapshots
        per snapshot:
            i32 prev, f64 built_at, u32 n_next
            per next: i32 next, column sojourns, column cumulative
            column union sojourns, column union cumulative
    (column = u32 length + that many f64)

JSON floats round-trip exactly (``repr`` produces the shortest string
that parses back to the same double), so ``runtime.json`` can carry
clock values and accumulated bandwidth without precision loss; the
binary blobs exist for *size*, not precision — a warm L=200 state holds
tens of thousands of quadruplets per cell.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import struct
import zlib
from pathlib import Path
from typing import Iterable

FORMAT_NAME = "repro-state"
SCHEMA_VERSION = 4

MANIFEST_NAME = "manifest.json"
RUNTIME_NAME = "runtime.json"
CELLS_DIR = "cells"

BLOB_MAGIC = b"RQC1"
#: Encodes ``prev = None`` (birth cell) in the i32 ``prev`` slot.
#: Distinct from ``EXIT_CELL = -1``, which is a valid *next* value
#: (``prev`` is never -1: exits terminate connections).
PREV_NONE = -2

_HEADER = struct.Struct("<4sI")
_PAIR_HEADER = struct.Struct("<iiI")
_SNAP_HEADER = struct.Struct("<idI")
_I32 = struct.Struct("<i")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")


class StateFormatError(ValueError):
    """The bytes/files do not form a valid state container."""


class StateSchemaError(StateFormatError):
    """The container is valid but written by an incompatible schema."""


class StateCorruptionError(StateFormatError):
    """A checksum failed: the container was truncated or bit-flipped."""


def crc32_of(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def encode_prev(prev: int | None) -> int:
    return PREV_NONE if prev is None else int(prev)


def decode_prev(raw: int) -> int | None:
    return None if raw == PREV_NONE else raw


# ----------------------------------------------------------------------
# cell blobs
# ----------------------------------------------------------------------
def _pack_column(values: Iterable[float]) -> bytes:
    values = list(values)
    return _U32.pack(len(values)) + struct.pack(f"<{len(values)}d", *values)


def pack_cell_blob(pairs, snapshots=None) -> bytes:
    """Serialize one cell's quadruplet history (and F_HOE snapshots).

    ``pairs`` maps ``(prev, next)`` to parallel ``(times, sojourns)``
    record-order columns — exactly what
    :meth:`repro.estimation.cache.QuadrupletCache.export_columns`
    returns.  ``snapshots`` (finite ``T_int`` only; ``None`` otherwise)
    is a list of ``{"prev", "built_at", "per_next", "union"}`` dicts
    where each column pair is ``(sojourns, cumulative)``.
    """
    chunks = [_HEADER.pack(BLOB_MAGIC, len(pairs))]
    for (prev, next_cell), (times, sojourns) in pairs.items():
        if len(times) != len(sojourns):
            raise StateFormatError(
                f"pair ({prev}, {next_cell}): column lengths differ"
            )
        chunks.append(
            _PAIR_HEADER.pack(encode_prev(prev), int(next_cell), len(times))
        )
        chunks.append(struct.pack(f"<{len(times)}d", *times))
        chunks.append(struct.pack(f"<{len(sojourns)}d", *sojourns))
    if snapshots is None:
        chunks.append(_U8.pack(0))
    else:
        chunks.append(_U8.pack(1))
        chunks.append(_U32.pack(len(snapshots)))
        for snapshot in snapshots:
            per_next = snapshot["per_next"]
            chunks.append(
                _SNAP_HEADER.pack(
                    encode_prev(snapshot["prev"]),
                    float(snapshot["built_at"]),
                    len(per_next),
                )
            )
            for next_cell, (sojourns, cumulative) in per_next.items():
                chunks.append(_I32.pack(int(next_cell)))
                chunks.append(_pack_column(sojourns))
                chunks.append(_pack_column(cumulative))
            union_sojourns, union_cumulative = snapshot["union"]
            chunks.append(_pack_column(union_sojourns))
            chunks.append(_pack_column(union_cumulative))
    return b"".join(chunks)


class _Reader:
    """Bounds-checked sequential reader over a blob."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, spec: struct.Struct):
        end = self.offset + spec.size
        if end > len(self.data):
            raise StateCorruptionError("blob truncated")
        values = spec.unpack_from(self.data, self.offset)
        self.offset = end
        return values

    def floats(self, count: int) -> list[float]:
        end = self.offset + 8 * count
        if end > len(self.data):
            raise StateCorruptionError("blob truncated inside a column")
        values = list(struct.unpack_from(f"<{count}d", self.data, self.offset))
        self.offset = end
        return values

    def column(self) -> list[float]:
        (count,) = self.take(_U32)
        return self.floats(count)


def unpack_cell_blob(data: bytes):
    """Inverse of :func:`pack_cell_blob` — ``(pairs, snapshots)``."""
    reader = _Reader(data)
    magic, n_pairs = reader.take(_HEADER)
    if magic != BLOB_MAGIC:
        raise StateFormatError(
            f"bad cell blob magic {magic!r} (expected {BLOB_MAGIC!r})"
        )
    pairs = {}
    for _ in range(n_pairs):
        raw_prev, next_cell, count = reader.take(_PAIR_HEADER)
        times = reader.floats(count)
        sojourns = reader.floats(count)
        pairs[(decode_prev(raw_prev), next_cell)] = (times, sojourns)
    (has_snapshots,) = reader.take(_U8)
    snapshots = None
    if has_snapshots:
        (n_snapshots,) = reader.take(_U32)
        snapshots = []
        for _ in range(n_snapshots):
            raw_prev, built_at, n_next = reader.take(_SNAP_HEADER)
            per_next = {}
            for _ in range(n_next):
                (next_cell,) = reader.take(_I32)
                per_next[next_cell] = (reader.column(), reader.column())
            union = (reader.column(), reader.column())
            snapshots.append(
                {
                    "prev": decode_prev(raw_prev),
                    "built_at": built_at,
                    "per_next": per_next,
                    "union": union,
                }
            )
    if reader.offset != len(data):
        raise StateCorruptionError(
            f"{len(data) - reader.offset} trailing bytes after blob payload"
        )
    return pairs, snapshots


def cell_blob_name(cell_id: int) -> str:
    return f"{CELLS_DIR}/cell_{cell_id:04d}.bin"


# ----------------------------------------------------------------------
# directory container
# ----------------------------------------------------------------------
def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    try:
        _fsync_path(path)
    except OSError:  # pragma: no cover - fsync on dirs can be unsupported
        pass


def _siblings(path: Path, tag: str) -> list[Path]:
    """The ``.<name>.<tag>.<pid>`` siblings publishes of ``path`` make."""
    pattern = f".{glob.escape(path.name)}.{tag}.*"
    return sorted(path.parent.glob(pattern))


def _recover_rotated(path: Path) -> None:
    """Put back the generation a publish rotated aside and then died
    before its second ``rename``: ``path`` is missing, and a complete
    ``.<name>.old.<pid>`` sibling holds the previous checkpoint."""
    if path.exists():
        return
    for old in _siblings(path, "old"):
        if (old / MANIFEST_NAME).is_file():
            try:
                os.rename(old, path)
            except OSError:  # another reader put it back first
                pass
            return


def publish_state_dir(path: str | Path, files: dict[str, bytes]) -> Path:
    """Atomically write ``files`` (relpath -> bytes) as directory ``path``.

    The payload lands in a temporary sibling, every file is fsync'd,
    and one ``rename`` publishes the whole directory.  An existing
    checkpoint at ``path`` is rotated aside first and removed only
    after the new one is in place.  A process killed between the two
    renames leaves ``path`` missing and the old checkpoint aside;
    :func:`load_manifest`, every reader's first step, puts it back, so
    a crash at any instant leaves either the old or the new checkpoint
    readable.  The next successful publish removes whatever killed ones
    left behind.  One writer per ``path`` at a time.
    """
    path = Path(path)
    parent = path.parent
    parent.mkdir(parents=True, exist_ok=True)
    tmp = parent / f".{path.name}.tmp.{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    seen_dirs = {tmp}
    for relative, data in files.items():
        target = tmp / relative
        if target.parent not in seen_dirs:
            target.parent.mkdir(parents=True, exist_ok=True)
            seen_dirs.add(target.parent)
        target.write_bytes(data)
    # Flushed once all are written: the filesystem commits the batch
    # in a few journal transactions instead of one per file.
    for relative in files:
        _fsync_path(tmp / relative)
    for directory in seen_dirs:
        _fsync_dir(directory)
    if path.exists():
        rotated = parent / f".{path.name}.old.{os.getpid()}"
        if rotated.exists():
            shutil.rmtree(rotated)
        os.rename(path, rotated)
    os.rename(tmp, path)
    _fsync_dir(parent)
    # Ours, and what killed publishes left: torn temporaries and
    # generations rotated aside.
    for stale in _siblings(path, "old") + _siblings(path, "tmp"):
        shutil.rmtree(stale, ignore_errors=True)
    return path


def load_manifest(path: str | Path) -> dict:
    """Read and gate ``manifest.json`` (format tag + schema version).

    A checkpoint a killed publish left rotated aside is put back at
    ``path`` first (see :func:`publish_state_dir`).
    """
    path = Path(path)
    _recover_rotated(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StateFormatError(
            f"not a state directory (no {MANIFEST_NAME}): {path}"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise StateCorruptionError(
            f"unreadable manifest at {manifest_path}: {error}"
        ) from error
    if manifest.get("format") != FORMAT_NAME:
        raise StateFormatError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest"
        )
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StateSchemaError(
            f"state schema v{version} at {path} is not readable by this "
            f"build (supports v{SCHEMA_VERSION}); re-create the checkpoint "
            f"with this version, or load it with the version that wrote it"
        )
    return manifest


def read_entry(path: str | Path, entry: dict) -> bytes:
    """Read one manifest file entry, verifying size and CRC32."""
    target = Path(path) / entry["path"]
    try:
        data = target.read_bytes()
    except OSError as error:
        raise StateCorruptionError(
            f"missing state file {target}: {error}"
        ) from error
    if len(data) != entry["bytes"]:
        raise StateCorruptionError(
            f"{target}: expected {entry['bytes']} bytes, found {len(data)}"
        )
    actual = crc32_of(data)
    if actual != entry["crc32"]:
        raise StateCorruptionError(
            f"{target}: CRC32 mismatch "
            f"(manifest {entry['crc32']:#010x}, file {actual:#010x})"
        )
    return data


def verify_state_dir(path: str | Path) -> list[dict]:
    """CRC-verify every manifest entry; one report row per file.

    Rows are ``{"path", "bytes", "crc32", "ok", "error"}``.  Raises
    only for an unreadable/incompatible manifest — per-file corruption
    is reported, not raised, so ``inspect`` can show the full picture.
    """
    manifest = load_manifest(path)
    rows = []
    for entry in manifest.get("files", []):
        row = {
            "path": entry["path"],
            "bytes": entry["bytes"],
            "crc32": entry["crc32"],
            "ok": True,
            "error": "",
        }
        try:
            read_entry(path, entry)
        except StateCorruptionError as error:
            row["ok"] = False
            row["error"] = str(error)
        rows.append(row)
    return rows
