"""Crash-safe file publication: the one durable-write layer.

Checkpoint records, shard files and manifests, and disk-cache entries
all reach the disk through :func:`publish`: temp file in the target's
directory, flush + ``fsync``, ``os.replace`` onto the final name, then a
best-effort directory ``fsync``. A crash at any instant leaves the old
file or the complete new one under the final name, never a torn one —
at worst a stray ``*.tmp`` for :func:`sweep_temp_files`. Self-verifying
records wrap their JSON payload in a schema-versioned SHA-256 envelope
(:func:`encode_envelope` / :func:`decode_envelope`).

Crash seam: :data:`_crash_hook` is ``None`` in production; tests set it
to ``hook(point, path)``, called as :func:`publish` completes each of
:data:`SEAM_POINTS`, to kill a writer after every step.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

__all__ = ["CorruptEnvelope", "SEAM_POINTS", "decode_envelope",
           "encode_envelope", "publish", "remove", "sweep_temp_files"]

#: Steps of :func:`publish`, in order; ``fsync=False`` passes only
#: ``"written"`` and ``"renamed"``.
SEAM_POINTS = ("written", "fsynced", "renamed", "dir_synced")

_crash_hook = None


def _seam(point: str, path: Path) -> None:
    if _crash_hook is not None:
        _crash_hook(point, path)


class CorruptEnvelope(ValueError):
    """An envelope failed verification; the message names the reason."""


def publish(path: str | os.PathLike, data: bytes, *,
            fsync: bool = True) -> None:
    """Atomically replace ``path`` (whose directory must exist) by ``data``.

    ``fsync=False`` keeps the atomic rename but skips both fsyncs, so a
    power cut may lose the write — the disk cache's trade, whose entries
    are recomputable and read back as misses when damaged.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            _seam("written", path)
            if fsync:
                os.fsync(handle.fileno())
                _seam("fsynced", path)
        os.replace(tmp, path)
    except BaseException:
        remove(tmp)
        raise
    _seam("renamed", path)
    if fsync:
        _fsync_dir(path.parent)
        _seam("dir_synced", path)


def _fsync_dir(directory: Path) -> None:
    # Makes the rename durable; best-effort, as not every platform can
    # open a directory.
    with contextlib.suppress(OSError):
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def remove(*paths: str | os.PathLike) -> None:
    """Best-effort unlink: a path already gone (say, pruned by a
    concurrent writer) or not removable is skipped, never raised."""
    for path in paths:
        with contextlib.suppress(OSError):
            os.unlink(path)


def sweep_temp_files(*directories: str | os.PathLike) -> None:
    """Delete killed publishes' ``*.tmp`` files (single-writer dirs only:
    a concurrent writer's in-flight temp file would vanish)."""
    for directory in directories:
        remove(*Path(directory).glob("*.tmp"))


def encode_envelope(payload, *, schema: int, **fields) -> bytes:
    """``{"schema", **fields, "sha256", "payload"}`` as JSON bytes, the
    payload stored as sorted-key JSON text hashed by ``sha256``."""
    payload_json = json.dumps(payload, sort_keys=True)
    return json.dumps({
        "schema": schema,
        **fields,
        "sha256": hashlib.sha256(payload_json.encode()).hexdigest(),
        "payload": payload_json,
    }).encode()


def decode_envelope(raw: bytes, *, schema: int) -> tuple[dict, object]:
    """Verify an :func:`encode_envelope` blob; ``(envelope, payload)``.

    Raises :class:`CorruptEnvelope` on undecodable bytes, another
    schema, a missing payload or a content-hash mismatch.
    """
    try:
        envelope = json.loads(raw.decode("utf-8"))
    except ValueError as error:
        raise CorruptEnvelope(f"garbled JSON: {error}") from error
    if not isinstance(envelope, dict):
        raise CorruptEnvelope("not an object")
    if envelope.get("schema") != schema:
        raise CorruptEnvelope(f"unknown schema {envelope.get('schema')!r}")
    payload_json = envelope.get("payload")
    if not isinstance(payload_json, str):
        raise CorruptEnvelope("missing payload")
    if hashlib.sha256(payload_json.encode()).hexdigest() \
            != envelope.get("sha256"):
        raise CorruptEnvelope("content hash mismatch")
    try:
        return envelope, json.loads(payload_json)
    except ValueError as error:
        raise CorruptEnvelope(f"garbled payload: {error}") from error
