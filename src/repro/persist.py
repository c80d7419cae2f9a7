"""Durable files: how every artefact reaches disk and how damage is detected.

Checkpoints, manifests, queue records, results and the design-point cache
all persist through this module (see "Durability model" in
``docs/ARCHITECTURE.md``).  Callers own their envelopes and serialisation;
their text is written verbatim (no newline translation).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import tempfile
from typing import Any, List

__all__ = ["append_line", "digest", "quarantine", "read_json", "remove_debris", "write_atomic"]

logger = logging.getLogger("repro.persist")

_TEMP_SUFFIX = ".tmp"


def _fsync_directory(directory: str) -> None:
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text``: after a crash it holds old or new, never torn.

    Writes a unique ``.<name>.<random>.tmp`` in the target directory,
    fsyncs it, renames it over ``path`` and fsyncs the directory; the temp
    file is unlinked if any step before the rename fails.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=_TEMP_SUFFIX
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp_path)
        raise
    _fsync_directory(directory)


def append_line(path: str, line: str) -> None:
    """Append one newline-terminated record and fsync it (a crash tears at most it)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    created = not os.path.exists(path)
    with open(path, "a", encoding="utf-8", newline="") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        _fsync_directory(directory)


def digest(obj: Any) -> str:
    """SHA-256 hex digest of ``obj`` as canonical (key-sorted) JSON."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def quarantine(path: str) -> str:
    """Rename a damaged file to ``<path>.corrupt`` (kept, never reread); returns it.

    A failed rename is logged, not raised: readers already treat the file
    as absent.
    """
    quarantined = path + ".corrupt"
    try:
        os.replace(path, quarantined)
        logger.warning("quarantined damaged file %s -> %s", path, quarantined)
    except OSError:
        logger.warning("could not quarantine damaged file %s", path)
    return quarantined


def read_json(path: str) -> Any | None:
    """The JSON document at ``path``; ``None`` if missing, or undecodable (quarantined)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError:
        return None
    except ValueError:
        quarantine(path)
        return None


def remove_debris(directory: str, name: str | None = None) -> List[str]:
    """Delete the temp files of writers killed mid-write; returns their paths.

    With ``name``, only that target's temp files go (for directories other
    writers share); without it, every ``*.tmp`` in ``directory``.
    """
    try:
        entries = sorted(os.listdir(directory))
    except OSError:
        return []
    removed = []
    for entry in entries:
        # ``.<name>.<random>.tmp`` is ours; ``<name>.tmp`` is the fixed-name
        # temp of earlier queue writers.
        ours = name is None or entry.startswith(f".{name}.") or entry == name + _TEMP_SUFFIX
        if not (ours and entry.endswith(_TEMP_SUFFIX)):
            continue
        path = os.path.join(directory, entry)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
            removed.append(path)
            logger.info("removed temp debris %s", path)
    return removed
