"""Artifact integrity: headers, verification, atomic writes, quarantine.

Every JSON artifact SPIRE persists — saved models and sample sets —
carries a shared ``header`` block::

    {"format": "<schema>/<rev>", "checksum": "sha256:<...>",
     "code_version": "<package version>"}

The checksum covers the canonical JSON encoding of the payload *without*
the header, so truncation, bit rot and hand-editing are all detectable.
Loaders verify the schema string and checksum; a mismatched or headerless
managed artifact is **quarantined** — moved into a ``.quarantine/``
subdirectory next to the file, never deleted — and recorded in the guard
health ledger so it surfaces in :class:`~repro.guard.health.HealthReport`.
The serving registry quarantines its packed ``.spm`` artifacts the same
way.

Writes here (and in :mod:`repro.io.dataset`) are atomic: content lands in
a temp file in the destination directory and is moved into place with
``os.replace``, so a crash mid-write never leaves a half-written artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.guard.dispatch import registry

__all__ = [
    "HEADER_KEY",
    "QUARANTINE_DIRNAME",
    "attach_header",
    "atomic_write_bytes",
    "atomic_write_text",
    "content_checksum",
    "quarantine_dir",
    "quarantine_file",
    "verify_payload",
]

HEADER_KEY = "header"
QUARANTINE_DIRNAME = ".quarantine"


def content_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON body (header excluded)."""
    body = {k: v for k, v in payload.items() if k != HEADER_KEY}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def attach_header(payload: dict, schema: str) -> dict:
    """Return ``payload`` with an integrity header attached."""
    from repro import __version__

    stamped = {k: v for k, v in payload.items() if k != HEADER_KEY}
    stamped[HEADER_KEY] = {
        "format": schema,
        "checksum": content_checksum(stamped),
        "code_version": __version__,
    }
    return stamped


def verify_payload(
    payload, schema: str, require_header: bool = True
) -> str | None:
    """Why ``payload`` fails integrity verification, or ``None`` if clean.

    Checks (in order): the payload is a JSON object, the header exists
    (skipped for legacy files when ``require_header`` is false), the
    header's schema string matches ``schema`` (version skew), and the
    content checksum matches (truncation/corruption).  The header's
    ``code_version`` is informational only — format revisions, not package
    versions, govern compatibility.
    """
    if not isinstance(payload, dict):
        return "not a JSON object"
    header = payload.get(HEADER_KEY)
    if header is None:
        if require_header:
            return "missing artifact header"
        return None
    if not isinstance(header, dict):
        return "malformed artifact header"
    found = header.get("format")
    if found != schema:
        return f"schema mismatch: expected {schema!r}, found {found!r}"
    expected = header.get("checksum")
    actual = content_checksum(payload)
    if expected != actual:
        return "checksum mismatch (truncated or corrupted content)"
    return None


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Binary twin of :func:`atomic_write_text` (temp file + ``os.replace``).

    Used for the packed model artifacts the serving registry maps
    read-only: a crash mid-pack must never leave a half-written ``.spm``
    where a server could map it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def quarantine_dir(directory: str | Path) -> Path:
    """The quarantine subdirectory for artifacts under ``directory``."""
    return Path(directory) / QUARANTINE_DIRNAME


def quarantine_file(path: str | Path, reason: str = "") -> Path | None:
    """Move a failed artifact into quarantine instead of deleting it.

    Returns the quarantine destination, or ``None`` when the file was
    already gone (a concurrent process quarantined or replaced it).  Name
    collisions get a numeric suffix so repeated corruption of the same
    entry never overwrites earlier evidence.
    """
    path = Path(path)
    target_dir = quarantine_dir(path.parent)
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        destination = target_dir / path.name
        counter = 1
        while destination.exists():
            destination = target_dir / f"{path.stem}.{counter}{path.suffix}"
            counter += 1
        os.replace(path, destination)
    except OSError:
        return None
    registry().record_quarantine(
        f"{destination}" + (f" ({reason})" if reason else "")
    )
    return destination
