"""Tests for :mod:`repro.persist` and the on-disk formats written through it.

The pinned hex digests and file bytes below were produced by the writers
that predate ``repro.persist`` (one private copy per module).  They pin the
claim that routing every writer through one module changed no byte on
disk, and that files written by those earlier writers still load.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat

import pytest

from repro import persist
from repro.experiments import orchestrator
from repro.experiments.orchestrator import ExperimentGrid, describe_grid
from repro.link.design import LinkDesignPoint
from repro.obs.manifest import load_manifest, write_manifest
from repro.service.models import Job
from repro.service.queue import DurableJobQueue
from repro.service.store import PersistentDesignCache, ResultsStore

JOB = Job(
    job_id="a" * 16,
    experiment="table1",
    options={"b": 2, "a": 1},
    created_s=1.5,
    updated_s=2.25,
)
RESULT = {"text": "report\n", "rows": [{"b": 0.1, "a": 1}]}
SHARD_PAYLOAD = {"ber": 1e-3, "rows": [1, 2.5, None, "x"]}
TOY_GRID = ExperimentGrid("toy", ({"i": 0}, {"i": 1}), {"o": 1})
TOY_SHARDS = {0: {"v": [1e-12]}, 1: {"v": [0.5]}}
DESIGN_KEY = ("H(7,4)", 7, 4, 1e-12)
DESIGN_POINT = LinkDesignPoint(
    "H(7,4)", 1e-12, 2.5e-9, 30.25, 1e-5, 2e-7, 4e-4, 1.6e-3, True, 1.75e-9, 4 / 7
)

MANIFEST_BYTES = (
    '{\n  "kind": "run-manifest",\n  "b": [\n    1,\n    2.5\n  ],\n'
    '  "a": {\n    "x": null\n  }\n}\n'
)
CHECKPOINT_BYTES = (
    '{"kind": "header", "experiment": "toy", "fingerprint": '
    '"53fb5e2e016915ad535cc9962f4ba1d80642cf0785e5a207655c840379cfdf68", "num_shards": 2}\n'
    '{"kind": "shard", "index": 0, "payload": {"v": [1e-12]}, "checksum": '
    '"8db0efaacf65e9faee290c14626042ec84a0e4518a008081504a40c5190551b8"}\n'
    '{"kind": "shard", "index": 1, "payload": {"v": [0.5]}, "checksum": '
    '"0014a1092177b867c63b4399e112dd7dea7e4be29a862d923d449482f68c64fc"}\n'
)
JOB_BYTES = (
    '{"kind": "job", "job": {"job_id": "aaaaaaaaaaaaaaaa", "experiment": "table1", '
    '"options": {"b": 2, "a": 1}, "state": "queued", "jobs": 1, "attempts": 0, '
    '"deterministic_failures": 0, "not_before_s": 0.0, "created_s": 1.5, '
    '"updated_s": 2.25, "error": null}, "checksum": '
    '"d8e84e4da1b0096ab711589467fb0fd04dceb96241cd96472565e37f0f27f7af"}\n'
)
RESULT_BYTES = (
    '{"kind": "result", "fingerprint": "ffffffffffffffff", "payload": '
    '{"text": "report\\n", "rows": [{"b": 0.1, "a": 1}]}, "checksum": '
    '"f56e4c71e3b26de6264dac13cc3dc7e0a36681fe303845c78b3d25dafcb00745"}\n'
)
DESIGN_CACHE_BYTES = (
    '{"kind": "design-point", "key": ["H(7,4)", 7, 4, 1e-12], "point": '
    '{"code_name": "H(7,4)", "target_ber": 1e-12, "raw_channel_ber": 2.5e-09, '
    '"required_snr": 30.25, "signal_power_w": 1e-05, "crosstalk_power_w": 2e-07, '
    '"laser_output_power_w": 0.0004, "laser_electrical_power_w": 0.0016, '
    '"feasible": true, "communication_time": 1.75e-09, '
    '"code_rate": 0.5714285714285714}, "checksum": '
    '"a0df27c0cff3c70897b9b51cb80817a250225a8089b183a8a5cf641d5cc252d9"}\n'
)


def _read(path) -> str:
    with open(path, "rb") as handle:
        return handle.read().decode("utf-8")


def _temp_files(directory) -> list:
    return sorted(name for name in os.listdir(directory) if name.endswith(".tmp"))


class TestPinnedDigests:
    def test_grid_fingerprint(self):
        grid = describe_grid(
            "validation", options={"targets": [1e-3], "num_blocks": 2000, "seed": 7}
        )
        assert grid.fingerprint == (
            "44215d63c826286109050f84ec282ea70d034b21a212438b69df47a6be68dbe7"
        )

    def test_shard_checksum(self):
        assert orchestrator._shard_checksum(3, SHARD_PAYLOAD) == persist.digest(
            {"index": 3, "payload": SHARD_PAYLOAD}
        )
        assert persist.digest({"index": 3, "payload": SHARD_PAYLOAD}) == (
            "ad9e23e29923ea388440f6b884e3df4eead5a3a3940e3042d846ece21fd98537"
        )

    def test_job_record(self):
        assert persist.digest(JOB.to_dict()) == (
            "d8e84e4da1b0096ab711589467fb0fd04dceb96241cd96472565e37f0f27f7af"
        )

    def test_result_payload(self):
        assert persist.digest(RESULT) == (
            "f56e4c71e3b26de6264dac13cc3dc7e0a36681fe303845c78b3d25dafcb00745"
        )

    def test_digest_is_key_order_independent(self):
        assert persist.digest({"a": 1, "b": [2, 3]}) == persist.digest({"b": [2, 3], "a": 1})


class TestPinnedFormats:
    """Each writer's exact bytes, and those bytes load back through the reader."""

    def test_manifest(self, tmp_path):
        path = str(tmp_path / "m.manifest.json")
        document = {"kind": "run-manifest", "b": [1, 2.5], "a": {"x": None}}
        write_manifest(path, document)
        assert _read(path) == MANIFEST_BYTES
        assert load_manifest(path) == document

    def test_checkpoint(self, tmp_path):
        orchestrator._write_checkpoint(str(tmp_path), TOY_GRID, dict(reversed(TOY_SHARDS.items())))
        path = orchestrator.checkpoint_path(str(tmp_path), "toy")
        assert _read(path) == CHECKPOINT_BYTES
        assert orchestrator._load_checkpoint(str(tmp_path), TOY_GRID) == TOY_SHARDS

    def test_job_record(self, tmp_path):
        DurableJobQueue(str(tmp_path)).submit(JOB)
        assert _read(tmp_path / ("a" * 16 + ".json")) == JOB_BYTES
        assert DurableJobQueue(str(tmp_path)).get(JOB.job_id) == JOB

    def test_result(self, tmp_path):
        path = ResultsStore(str(tmp_path)).put("f" * 16, RESULT)
        assert _read(path) == RESULT_BYTES
        assert ResultsStore(str(tmp_path)).get("f" * 16) == RESULT

    def test_design_cache(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        PersistentDesignCache(path).store(DESIGN_KEY, DESIGN_POINT)
        assert _read(path) == DESIGN_CACHE_BYTES
        assert PersistentDesignCache(path).load(DESIGN_KEY) == DESIGN_POINT

    def test_runner_csv(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["calibration", "--csv", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "calibration.csv", "rb") as handle:
            data = handle.read()
        assert b"\r\n" in data  # csv line endings survive verbatim
        assert hashlib.sha256(data).hexdigest() == (
            "b5849da7d873902acd78982f84357351a1bb50032541ea6023e8bd5e89686b04"
        )
        assert _temp_files(tmp_path) == []


class TestWriteAtomic:
    def test_fsyncs_file_then_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(descriptor):
            synced.append("dir" if stat.S_ISDIR(os.fstat(descriptor).st_mode) else "file")
            real_fsync(descriptor)

        monkeypatch.setattr(persist.os, "fsync", recording_fsync)
        persist.write_atomic(str(tmp_path / "x.json"), "{}\n")
        assert synced == ["file", "dir"]

    def test_replaces_content_and_creates_directories(self, tmp_path):
        path = tmp_path / "nested" / "x.txt"
        persist.write_atomic(str(path), "old")
        persist.write_atomic(str(path), "new\r\n")
        assert path.read_bytes() == b"new\r\n"
        assert _temp_files(path.parent) == []

    def test_failed_write_unlinks_its_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.json"
        persist.write_atomic(str(path), "old")

        def failing_replace(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(persist.os, "replace", failing_replace)
        with pytest.raises(OSError):
            persist.write_atomic(str(path), "new")
        assert path.read_text() == "old"
        assert _temp_files(tmp_path) == []


class TestAppendLine:
    def test_appends_and_fsyncs(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(descriptor):
            synced.append("dir" if stat.S_ISDIR(os.fstat(descriptor).st_mode) else "file")
            real_fsync(descriptor)

        monkeypatch.setattr(persist.os, "fsync", recording_fsync)
        path = tmp_path / "log.jsonl"
        persist.append_line(str(path), "a\n")
        assert synced == ["file", "dir"]  # a new file's directory entry too
        persist.append_line(str(path), "b\n")
        assert synced == ["file", "dir", "file"]
        assert path.read_text() == "a\nb\n"


class TestReadJsonAndQuarantine:
    def test_missing_is_none(self, tmp_path):
        assert persist.read_json(str(tmp_path / "absent.json")) is None

    def test_undecodable_is_quarantined(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert persist.read_json(str(path)) is None
        assert not path.exists()
        assert (tmp_path / "bad.json.corrupt").read_text() == "{not json"

    def test_decodable_round_trips(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"a": [1, None]}))
        assert persist.read_json(str(path)) == {"a": [1, None]}

    def test_quarantine_of_a_vanished_file_does_not_raise(self, tmp_path):
        path = str(tmp_path / "gone.json")
        assert persist.quarantine(path) == path + ".corrupt"


class TestRemoveDebris:
    def test_whole_directory(self, tmp_path):
        for name in (".a.json.x1.tmp", "b.json.tmp", "keep.json", ".c.json.corrupt"):
            (tmp_path / name).write_text("")
        removed = persist.remove_debris(str(tmp_path))
        assert sorted(os.path.basename(path) for path in removed) == [
            ".a.json.x1.tmp",
            "b.json.tmp",
        ]
        assert sorted(os.listdir(tmp_path)) == [".c.json.corrupt", "keep.json"]

    def test_one_target_leaves_other_writers_alone(self, tmp_path):
        for name in (".a.json.x1.tmp", ".ab.json.x2.tmp", ".b.json.x3.tmp"):
            (tmp_path / name).write_text("")
        persist.remove_debris(str(tmp_path), "a.json")
        assert sorted(os.listdir(tmp_path)) == [".ab.json.x2.tmp", ".b.json.x3.tmp"]

    def test_missing_directory(self, tmp_path):
        assert persist.remove_debris(str(tmp_path / "absent")) == []
