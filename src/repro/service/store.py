"""Content-addressed, checksummed results store with quarantine-on-corruption.

Two persistence tiers live here, both writing through :mod:`repro.persist`
(see "Durability model" in ``docs/ARCHITECTURE.md``):

* :class:`ResultsStore` — one atomic JSON document per sweep fingerprint
  holding a finished job's merged result.  Every read verifies a SHA-256
  checksum over the canonical payload; a damaged artefact (truncation, bit
  flip, garbage) is quarantined to ``<name>.corrupt`` and reported as a
  miss, so the job layer redoes the work instead of serving a lie — the
  same deal checkpoint v2 made in the orchestrator.
* :class:`PersistentDesignCache` — the shared persistent tier of
  :meth:`repro.link.design.OpticalLinkDesigner.design_point`.  An
  append-only JSON-lines file of checksummed ``(key, point)`` records:
  appends are cheap (design points are solved at millisecond cost but
  requested millions of times), every record carries its own checksum, and
  a damaged line costs only that record — the loader salvages the rest and
  quarantines the damaged file.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import asdict
from typing import Any, Dict, Tuple

from .. import persist

__all__ = ["ResultsStore", "PersistentDesignCache"]

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{8,64}$")


class ResultsStore:
    """Fingerprint-keyed result documents, verified on every read.

    Opening a store deletes the temp files of writes killed before their
    rename.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        persist.remove_debris(root)
        self._lock = threading.Lock()

    def path(self, fingerprint: str) -> str:
        if not _FINGERPRINT_RE.match(fingerprint):
            raise ValueError(f"not a result fingerprint: {fingerprint!r}")
        return os.path.join(self.root, f"{fingerprint}.json")

    def put(self, fingerprint: str, payload: Any) -> str:
        """Durably persist ``payload`` under ``fingerprint``; returns path."""
        path = self.path(fingerprint)
        document = {
            "kind": "result",
            "fingerprint": fingerprint,
            "payload": payload,
            "checksum": persist.digest(payload),
        }
        with self._lock:
            persist.write_atomic(path, json.dumps(document) + "\n")
        return path

    def get(self, fingerprint: str) -> Any | None:
        """The stored payload, or ``None`` on miss *or damage* (quarantined)."""
        path = self.path(fingerprint)
        with self._lock:
            document = persist.read_json(path)
            if document is None:
                return None
            if (
                not isinstance(document, dict)
                or document.get("kind") != "result"
                or document.get("fingerprint") != fingerprint
                or document.get("checksum") != persist.digest(document.get("payload"))
            ):
                persist.quarantine(path)
                return None
        return document["payload"]

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None


class PersistentDesignCache:
    """Durable ``(code, target BER) -> LinkDesignPoint`` cache.

    Implements the pluggable-cache protocol of
    :class:`repro.link.design.OpticalLinkDesigner` (``load``/``store``).
    The in-memory dict fronts the file, so a process pays the disk read
    once at construction; ``store`` appends one checksummed JSON line
    (point solves are rare — cache misses only — so append cost is
    irrelevant next to the brentq chain it memoizes).
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._points: Dict[Tuple, dict] = {}
        self._load()

    @staticmethod
    def _key_fields(key: Tuple) -> list:
        name, n, k, target_ber = key
        return [str(name), int(n), int(k), float(target_ber)]

    def _load(self) -> None:
        persist.remove_debris(os.path.dirname(self.path) or ".", os.path.basename(self.path))
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return
        damaged = False
        salvaged: Dict[Tuple, dict] = {}
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                damaged = True
                continue
            if (
                not isinstance(record, dict)
                or record.get("kind") != "design-point"
                or not isinstance(record.get("key"), list)
                or len(record["key"]) != 4
                or record.get("checksum")
                != persist.digest({"key": record.get("key"), "point": record.get("point")})
            ):
                damaged = True
                continue
            name, n, k, target = record["key"]
            salvaged[(str(name), int(n), int(k), float(target))] = record["point"]
        with self._lock:
            self._points = salvaged
        if damaged:
            persist.quarantine(self.path)
            # Rewrite the surviving records so the file is clean again.
            self._rewrite()

    def _rewrite(self) -> None:
        with self._lock:
            lines = [self._record_line(key, self._points[key]) for key in sorted(self._points)]
        persist.write_atomic(self.path, "".join(lines))

    def _record_line(self, key: Tuple, point: dict) -> str:
        fields = self._key_fields(key)
        record = {
            "kind": "design-point",
            "key": fields,
            "point": point,
            "checksum": persist.digest({"key": fields, "point": point}),
        }
        return json.dumps(record) + "\n"

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    # ------------------------------------------------- designer cache protocol
    def load(self, key: Tuple):
        """The cached design point for ``key``, or ``None`` on miss.

        Imports lazily to keep ``repro.service.store`` importable without
        pulling the photonics stack in (the queue/store tier has no
        designer dependency).
        """
        with self._lock:
            stored = self._points.get((str(key[0]), int(key[1]), int(key[2]), float(key[3])))
        if stored is None:
            return None
        from ..link.design import LinkDesignPoint

        try:
            return LinkDesignPoint(**stored)
        except TypeError:
            # Schema drift (a field was added/renamed): treat as a miss and
            # let the solver repopulate the entry.
            return None

    def store(self, key: Tuple, point) -> None:
        """Append one solved point (no-op if the key is already present)."""
        normalized = (str(key[0]), int(key[1]), int(key[2]), float(key[3]))
        with self._lock:
            if normalized in self._points:
                return
            payload = asdict(point)
            self._points[normalized] = payload
            persist.append_line(self.path, self._record_line(normalized, payload))
