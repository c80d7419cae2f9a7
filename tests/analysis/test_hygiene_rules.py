"""Fixture suite for the RPR3xx hot-path / API hygiene rules."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import lint_source

#: Inside the configured hot modules (RPR301 applies).
HOT_PATH = "repro/netsim/events.py"
#: Anywhere else (RPR301 must stay silent).
COLD_PATH = "repro/manager/fixture.py"


def codes(source: str, path: str = COLD_PATH) -> list:
    return [finding.code for finding in lint_source(textwrap.dedent(source), path=path)]


class TestSlotsRequired:
    def test_plain_class_in_hot_module_is_flagged(self):
        source = """
        class Event:
            def __init__(self, t):
                self.t = t
        """
        assert codes(source, path=HOT_PATH) == ["RPR301"]

    def test_slots_class_is_fine(self):
        source = """
        class Event:
            __slots__ = ("t",)
            def __init__(self, t):
                self.t = t
        """
        assert codes(source, path=HOT_PATH) == []

    def test_dataclass_with_slots_is_fine(self):
        source = """
        from dataclasses import dataclass
        @dataclass(frozen=True, slots=True)
        class Event:
            t: float
        """
        assert codes(source, path=HOT_PATH) == []

    def test_dataclass_without_slots_is_flagged(self):
        source = """
        from dataclasses import dataclass
        @dataclass
        class Event:
            t: float
        """
        assert codes(source, path=HOT_PATH) == ["RPR301"]

    def test_enum_namedtuple_exception_are_exempt(self):
        source = """
        from enum import IntEnum
        from typing import NamedTuple
        class Kind(IntEnum):
            A = 0
        class Record(NamedTuple):
            t: float
        class SimError(ValueError):
            pass
        """
        assert codes(source, path=HOT_PATH) == []

    def test_cold_modules_are_not_checked(self):
        source = """
        class Anything:
            pass
        """
        assert codes(source, path=COLD_PATH) == []


class TestMutableDefaults:
    def test_list_default_is_flagged(self):
        assert codes("def f(x=[]):\n    return x\n") == ["RPR302"]

    def test_dict_call_default_is_flagged(self):
        assert codes("def f(x=dict()):\n    return x\n") == ["RPR302"]

    def test_kwonly_set_default_is_flagged(self):
        assert codes("def f(*, x={1}):\n    return x\n") == ["RPR302"]

    def test_none_default_is_fine(self):
        assert codes("def f(x=None):\n    return x or []\n") == []

    def test_tuple_and_frozen_constants_are_fine(self):
        assert codes("def f(x=(), y=0, z='a'):\n    return x, y, z\n") == []


class TestSilentExcept:
    def test_bare_except_is_flagged(self):
        source = """
        try:
            work()
        except:
            handle()
        """
        assert codes(source) == ["RPR303"]

    def test_except_exception_pass_is_flagged(self):
        source = """
        try:
            work()
        except Exception:
            pass
        """
        assert codes(source) == ["RPR303"]

    def test_narrow_pass_is_fine(self):
        # Narrow types with an intentional pass are a legitimate idiom
        # (e.g. "already dead" races around process termination).
        source = """
        try:
            work()
        except (OSError, ValueError):
            pass
        """
        assert codes(source) == []

    def test_broad_handler_that_logs_is_fine(self):
        source = """
        try:
            work()
        except Exception:
            logger.exception("work failed")
        """
        assert codes(source) == []


class TestAllDrift:
    def test_export_of_missing_name_is_flagged(self):
        source = """
        __all__ = ["gone"]
        def present():
            return 1
        """
        assert codes(source) == ["RPR304", "RPR304"]  # missing export + drift

    def test_public_def_missing_from_all_is_flagged(self):
        source = """
        __all__ = ["a"]
        def a():
            return 1
        def b():
            return 2
        """
        assert codes(source) == ["RPR304"]

    def test_consistent_module_is_fine(self):
        source = """
        __all__ = ["a", "B"]
        def a():
            return 1
        class B:
            pass
        def _private():
            return 3
        """
        assert codes(source) == []

    def test_reexports_count_as_defined(self):
        source = """
        from os.path import join
        __all__ = ["join"]
        """
        assert codes(source) == []

    def test_module_without_all_is_skipped(self):
        assert codes("def anything():\n    return 1\n") == []

    def test_computed_all_is_skipped(self):
        source = """
        __all__ = ["a"]
        __all__ += ["b"]
        def a():
            return 1
        """
        assert codes(source) == []


class TestRawPersistence:
    SERVICE = "repro/service/fixture.py"

    @pytest.mark.parametrize(
        "path",
        ["repro/service/fixture.py", "repro/experiments/fixture.py", "repro/obs/manifest.py"],
    )
    def test_raw_rename_tempfile_and_digest_are_flagged(self, path):
        source = """
        import hashlib
        import os
        import tempfile
        def save(path, text):
            descriptor, temp = tempfile.mkstemp(dir=".")
            os.replace(temp, path)
            return hashlib.sha256(text.encode()).hexdigest()
        """
        assert codes(source, path=path) == ["RPR305", "RPR305", "RPR305"]

    @pytest.mark.parametrize(
        "call",
        [
            'open(path, "w")',
            'open(path, mode="a", encoding="utf-8")',
            'open(path, "r+")',
            'io.open(path, "wb")',
            'os.fdopen(descriptor, "w")',
            'pathlib.Path(path).open("x")',
        ],
    )
    def test_write_mode_opens_are_flagged(self, call):
        source = f"""
        import io
        import os
        import pathlib
        def save(path, descriptor):
            with {call} as handle:
                handle.write("x")
        """
        assert codes(source, path=self.SERVICE) == ["RPR305"]

    def test_aliased_imports_are_resolved(self):
        source = """
        from os import replace as rename_over
        from hashlib import sha256
        def save(temp, path):
            rename_over(temp, path)
            return sha256(b"x")
        """
        assert codes(source, path=self.SERVICE) == ["RPR305", "RPR305"]

    def test_reads_and_persist_calls_are_fine(self):
        source = """
        import json
        from repro import persist
        def load(path, archive):
            with open(path) as handle:
                first = handle.read()
            with open(path, "r", encoding="utf-8") as handle:
                second = json.load(handle)
            with archive.open("data.txt") as member:  # a name, not a mode
                member.read()
            persist.write_atomic(path, first)
            persist.append_line(path, "x\\n")
            return persist.digest(second)
        """
        assert codes(source, path=self.SERVICE) == []

    @pytest.mark.parametrize(
        "path", ["repro/persist.py", "repro/obs/tracing.py", "repro/traffic/trace.py"]
    )
    def test_other_modules_are_not_checked(self, path):
        source = """
        import os
        def save(temp, path):
            with open(temp, "w") as handle:
                handle.write("x")
            os.replace(temp, path)
        """
        assert codes(source, path=path) == []


class TestHeavyScipyImports:
    @pytest.mark.parametrize(
        "statement",
        [
            "import scipy.stats",
            "import scipy.optimize as opt",
            "import scipy.stats.distributions",
            "from scipy.stats import binom",
            "from scipy.optimize import brentq as root_search",
            "from scipy.optimize._zeros_py import brentq",
            "from scipy import stats",
            "from scipy import optimize, constants",
            "import scipy.special",
            "import scipy.special._ufuncs",
            "from scipy.special import betainc, erfc",
            "from scipy.special._ufuncs import erfcinv",
            "from scipy import special",
            "from scipy import special as sp",
            "import importlib; importlib.import_module('scipy.stats')",
            "from importlib import import_module; import_module('scipy.optimize._zeros_py')",
            "__import__('scipy.optimize')",
            "import builtins; builtins.__import__('scipy.special')",
        ],
    )
    def test_banned_imports_are_flagged(self, statement):
        assert codes(statement) == ["RPR306"]

    def test_each_banned_module_of_one_statement_is_flagged(self):
        assert codes("from scipy import optimize, special, stats") == ["RPR306"] * 3

    def test_lazy_imports_are_flagged(self):
        source = """
        def tail(k, n, p):
            from scipy.stats import binom
            return binom.sf(k, n, p)
        def root(f, a, b):
            import scipy.optimize
            return scipy.optimize.brentq(f, a, b)
        def q(x):
            from scipy.special import erfc
            return erfc(x)
        """
        assert codes(source) == ["RPR306", "RPR306", "RPR306"]

    def test_light_scipy_and_lookalikes_are_fine(self):
        source = """
        import scipy
        from scipy import constants
        import scipy.statsmodels_shim
        import scipy.special_shim
        from .stats import summary
        from repro.obs import stats
        from repro._special import betainc, erfc, erfcinv
        from ._special import erfc
        """
        assert codes(source) == []

    def test_dynamic_imports_of_computed_or_light_names_are_fine(self):
        source = """
        import importlib
        name = "scipy." + "stats"
        importlib.import_module(name)
        importlib.import_module("repro.coding.theory")
        __import__("scipy")
        loader.import_module("scipy.stats")
        """
        assert codes(source) == []

    def test_the_special_loader_may_import_scipy_special(self):
        source = """
        import importlib
        def load():
            return importlib.import_module("scipy.special._ufuncs")
        def fallback():
            from scipy.special import betainc, erfc, erfcinv
            return erfc, erfcinv, betainc
        """
        assert codes(source, path="repro/_special.py") == []

    def test_the_special_loader_may_not_import_stats_or_optimize(self):
        source = """
        import importlib
        importlib.import_module("scipy.stats")
        from scipy.optimize import brentq
        """
        assert codes(source, path="repro/_special.py") == ["RPR306", "RPR306"]

    def test_messages_name_the_replacement(self):
        special, stats = lint_source(
            "from scipy.special import erfc\nimport scipy.stats\n", path=COLD_PATH
        )
        assert "repro._special" in special.message
        assert "scipy.special.betainc" not in stats.message
        assert "coding.theory" in stats.message

    @pytest.mark.parametrize("path", ["tests/coding/test_theory_parity.py", "e2ebench/run.py"])
    def test_code_outside_the_package_is_not_checked(self, path):
        assert codes("from scipy.stats import binom", path=path) == []
