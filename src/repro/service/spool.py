"""Checksummed, versioned spool checkpoint envelopes (DESIGN.md 5.10).

The fleet's currency is the suspend envelope: each session has one
spool file, which LRU eviction and background checkpoints replace and
resumption (and now crash recovery) reads back.  PR 9
trusted those files blindly -- a truncated or bit-flipped spool file
would be fed straight into ``Session.resume`` and fail in whatever way
the JSON parser happened to notice first, if at all.  This module
wraps every spool write in an integrity envelope the reader can
*refuse*:

    {"length": N, "sha256": "...", "spool_version": 1}\\n
    <payload bytes, exactly N of them>

The header is one JSON line; the payload is the session's canonical
suspend envelope, byte-exact.  :func:`spool_decode` verifies the
version, the byte length (truncation), and the SHA-256 digest (any
flipped bit) and raises :class:`~repro.errors.SpoolCorruption` on the
slightest disagreement -- the fleet catches that, counts the detection
in ``checkpoint_corruptions``, deletes the file, and rebuilds the
session from its admission spec by replaying the whole slice journal.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

from ..errors import SpoolCorruption

#: Version tag of the on-disk spool envelope; bumped on layout changes.
SPOOL_FORMAT_VERSION = 1


def spool_encode(payload: str) -> bytes:
    """Wrap a suspend envelope in the checksummed spool format."""
    body = payload.encode("utf-8")
    header = json.dumps(
        {
            "spool_version": SPOOL_FORMAT_VERSION,
            "length": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return header.encode("ascii") + b"\n" + body


def spool_decode(data: bytes) -> str:
    """Verify a spool file's integrity and return its payload.

    Raises :class:`~repro.errors.SpoolCorruption` for a missing or
    unparseable header, an unsupported version, a byte count that does
    not match (truncation or trailing garbage), or a digest mismatch
    (any corrupted byte).
    """
    head, sep, body = data.partition(b"\n")
    if not sep:
        raise SpoolCorruption("spool file truncated: no header separator")
    try:
        header: Dict[str, Any] = json.loads(head.decode("ascii"))
        if not isinstance(header, dict):
            raise ValueError("header is not a JSON object")
    except (ValueError, UnicodeDecodeError) as exc:
        raise SpoolCorruption(f"unreadable spool header: {exc}") from exc
    version = header.get("spool_version")
    if version != SPOOL_FORMAT_VERSION:
        raise SpoolCorruption(
            f"spool envelope version {version!r} unsupported "
            f"(expected {SPOOL_FORMAT_VERSION})"
        )
    length = header.get("length")
    if length != len(body):
        raise SpoolCorruption(
            f"spool payload is {len(body)} bytes, header promises {length!r}"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise SpoolCorruption(
            f"spool checksum mismatch: payload hashes to {digest[:16]}..., "
            f"header promises {str(header.get('sha256'))[:16]}..."
        )
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:  # pragma: no cover - sha catches first
        raise SpoolCorruption(f"undecodable spool payload: {exc}") from exc


def spool_write(path: str, payload: str) -> None:
    """Write a checksummed spool file, durably and atomically.

    The temporary file is fsynced before the rename replaces *path*,
    and the directory after it, so a host crash leaves either the old
    file or the complete new one -- never a renamed but empty file.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(spool_encode(payload))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def spool_read(path: str) -> str:
    """Read and verify a spool file; raises SpoolCorruption on damage."""
    with open(path, "rb") as f:
        return spool_decode(f.read())
