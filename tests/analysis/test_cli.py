"""End-to-end tests for the ``repro-lint`` command line interface.

Exit codes are part of the contract (CI scripts branch on them), so they
are pinned here: 0 clean, 1 findings (or strict + stale baseline),
2 usage/configuration errors.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.cli import main

DIRTY = "import random\nvalue = random.random()\n"
CLEAN = "def double(x):\n    return 2 * x\n"


@pytest.fixture()
def sim_tree(tmp_path, monkeypatch):
    """A tiny checkout with one dirty and one clean deterministic module."""
    package = tmp_path / "repro" / "netsim"
    package.mkdir(parents=True)
    (package / "dirty.py").write_text(DIRTY, encoding="utf-8")
    (package / "clean.py").write_text(CLEAN, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, sim_tree, capsys):
        assert main([os.path.join("repro", "netsim", "clean.py")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, sim_tree, capsys):
        assert main(["repro"]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out
        assert "repro/netsim/dirty.py:2" in out

    def test_missing_path_exits_two(self, sim_tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no/such/dir"])
        assert excinfo.value.code == 2

    def test_bad_config_exits_two(self, sim_tree, capsys):
        (sim_tree / "lint.json").write_text(json.dumps({"nope": []}), encoding="utf-8")
        assert main(["repro", "--config", "lint.json"]) == 2
        assert "unknown lint config key" in capsys.readouterr().err


class TestJsonReport:
    def test_document_shape(self, sim_tree, capsys):
        assert main(["repro", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["files_checked"] == 2
        (finding,) = document["findings"]
        assert finding["code"] == "RPR101"
        assert finding["file"] == "repro/netsim/dirty.py"
        assert finding["line"] == 2
        assert document["baselined"] == 0
        assert document["stale_baseline"] == []


class TestBaselineFlow:
    def test_write_then_lint_clean_then_strict_stale(self, sim_tree, capsys):
        # 1. Grandfather the current findings.
        assert main(["repro", "--write-baseline"]) == 0
        assert os.path.exists(".repro-lint-baseline.json")
        capsys.readouterr()
        # 2. The default run now picks the baseline up and passes.
        assert main(["repro"]) == 0
        assert "(1 baselined" in capsys.readouterr().out
        # 3. --no-baseline reveals the grandfathered finding again.
        assert main(["repro", "--no-baseline"]) == 1
        capsys.readouterr()
        # 4. Fix the violation: non-strict still passes, strict fails on
        # the now-stale entry until the baseline is regenerated.
        dirty = sim_tree / "repro" / "netsim" / "dirty.py"
        dirty.write_text(CLEAN, encoding="utf-8")
        assert main(["repro"]) == 0
        assert main(["repro", "--strict"]) == 1
        assert "stale baseline entry" in capsys.readouterr().out
        assert main(["repro", "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["repro", "--strict"]) == 0

    def test_explicit_missing_baseline_is_an_error(self, sim_tree):
        with pytest.raises(SystemExit) as excinfo:
            main(["repro", "--baseline", "absent.json"])
        assert excinfo.value.code == 2


class TestFlags:
    def test_select_and_ignore(self, sim_tree, capsys):
        assert main(["repro", "--select", "RPR103"]) == 0
        capsys.readouterr()
        assert main(["repro", "--ignore", "RPR101"]) == 0

    def test_list_rules_prints_catalogue(self, sim_tree, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR101", "RPR102", "RPR103", "RPR104",
                     "RPR201", "RPR202", "RPR301", "RPR302", "RPR303", "RPR304", "RPR305"):
            assert code in out

    def test_module_entry_point_matches_cli(self, sim_tree):
        from repro.analysis.__main__ import main as module_main

        assert module_main is main
