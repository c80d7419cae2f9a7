"""Hot-path and API hygiene rules (``RPR3xx``)."""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .astutil import dotted_name
from .registry import rule

__all__ = [
    "check_slots",
    "check_mutable_defaults",
    "check_silent_except",
    "check_all_drift",
    "check_raw_persistence",
    "check_heavy_scipy_imports",
]

#: Base classes that manage their own storage layout (``__slots__`` is
#: meaningless, harmful, or implied for their subclasses).
_SLOTS_EXEMPT_BASES = frozenset(
    {
        "NamedTuple", "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
        "Protocol", "ABC", "type", "TypedDict", "SimpleNamespace",
    }
)

_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"}
)


def _base_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in cls.bases:
        dotted = dotted_name(base)
        if dotted is not None:
            names.add(dotted.split(".")[-1])
    return names


def _dataclass_slots(cls: ast.ClassDef) -> Optional[bool]:
    """``True``/``False`` for a dataclass with/without slots, else ``None``."""
    for decorator in cls.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call is not None else decorator
        dotted = dotted_name(target)
        if dotted is None or dotted.split(".")[-1] != "dataclass":
            continue
        if call is None:
            return False
        for keyword in call.keywords:
            if keyword.arg == "slots":
                return bool(
                    isinstance(keyword.value, ast.Constant) and keyword.value.value is True
                )
        return False
    return None


def _has_slots_assignment(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


@rule(
    "RPR301",
    "slots-required",
    "classes in configured hot modules must be __slots__-shaped",
    scope="slots_modules",
)
def check_slots(ctx) -> List:
    findings = []
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = _base_names(cls)
        if bases & _SLOTS_EXEMPT_BASES:
            continue
        if any(name.endswith(("Error", "Exception", "Warning")) for name in bases):
            continue
        slots = _dataclass_slots(cls)
        if slots is True or _has_slots_assignment(cls):
            continue
        how = "@dataclass(slots=True)" if slots is False else "__slots__"
        findings.append(
            ctx.finding(
                cls,
                "RPR301",
                f"class {cls.name} lives in a hot module but has no "
                f"__slots__ — per-instance dicts dominate allocation traffic "
                f"here; declare {how}",
            )
        )
    return findings


@rule(
    "RPR302",
    "mutable-default-argument",
    "no mutable default arguments",
)
def check_mutable_defaults(ctx) -> List:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_FACTORIES
            )
            if mutable:
                name = getattr(node, "name", "<lambda>")
                findings.append(
                    ctx.finding(
                        default,
                        "RPR302",
                        f"mutable default argument in {name}() is shared "
                        "across calls; default to None and construct inside",
                    )
                )
    return findings


@rule(
    "RPR303",
    "silent-exception-swallow",
    "no bare except, no except Exception: pass",
)
def check_silent_except(ctx) -> List:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(
                ctx.finding(
                    node,
                    "RPR303",
                    "bare `except:` catches SystemExit/KeyboardInterrupt too; "
                    "name the exception types",
                )
            )
            continue
        type_names = set()
        candidates = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for candidate in candidates:
            dotted = dotted_name(candidate)
            if dotted is not None:
                type_names.add(dotted.split(".")[-1])
        swallows = all(
            isinstance(statement, ast.Pass)
            or (
                isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis
            )
            for statement in node.body
        )
        if swallows and type_names & {"Exception", "BaseException"}:
            findings.append(
                ctx.finding(
                    node,
                    "RPR303",
                    "except Exception: pass silently swallows every failure; "
                    "log it or narrow the type",
                )
            )
    return findings


def _module_all(tree: ast.Module) -> Optional[List[ast.Constant]]:
    """The ``__all__`` literal's elements, or ``None`` (absent/not literal)."""
    elements: Optional[List[ast.Constant]] = None
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if not (isinstance(target, ast.Name) and target.id == "__all__"):
                continue
            value = getattr(node, "value", None)
            if isinstance(node, ast.Assign) and isinstance(value, (ast.List, ast.Tuple)):
                constants = [
                    element
                    for element in value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                ]
                if len(constants) == len(value.elts):
                    elements = constants
                    continue
            # Augmented / computed __all__: give up rather than guess.
            return None
    return elements


def _top_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for element in ast.walk(target):
                    if isinstance(element, ast.Name):
                        names.add(element.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditionally-defined names (version guards) still count.
            for child in ast.walk(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(child.name)
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
    return names


@rule(
    "RPR304",
    "all-drift",
    "__all__ must match the module's actual public defs",
)
def check_all_drift(ctx) -> List:
    findings = []
    exported = _module_all(ctx.tree)
    if exported is None:
        return findings
    defined = _top_level_names(ctx.tree)
    exported_names = {element.value for element in exported}
    for element in exported:
        if element.value not in defined:
            findings.append(
                ctx.finding(
                    element,
                    "RPR304",
                    f"__all__ exports {element.value!r} which is not defined "
                    "in this module (drift after a rename/removal?)",
                )
            )
    for node in ctx.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or node.name in exported_names:
            continue
        kind = "class" if isinstance(node, ast.ClassDef) else "function"
        findings.append(
            ctx.finding(
                node,
                "RPR304",
                f"public {kind} {node.name} is missing from __all__ (add it "
                "or rename it _private)",
            )
        )
    return findings


#: Modules whose files reach disk only through ``repro.persist`` (RPR305).
#: A fixed policy of the tree, not a configurable scope.
_PERSIST_ONLY_PATHS = ("repro/service/*", "repro/experiments/*", "repro/obs/manifest.py")

#: Calls that re-implement a ``repro.persist`` primitive.
_PERSIST_PRIMITIVES = {
    "os.replace": "write_atomic/quarantine",
    "tempfile.mkstemp": "write_atomic",
    "hashlib.sha256": "digest",
}


def _literal_write_mode(node: Optional[ast.AST]) -> bool:
    """A string literal that is a file mode (not a file name) and writes."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and set(node.value) <= set("rwxabt+")
        and bool(set(node.value) & set("wax+"))
    )


def _opens_for_writing(ctx, call: ast.Call) -> bool:
    """``open``/``io.open``/``os.fdopen``/``<path>.open`` with a write mode."""
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    func = call.func
    resolved = ctx.imports.resolve_call(func)
    if isinstance(func, ast.Name) and func.id == "open" and resolved is None:
        resolved = "open"
    if resolved in ("open", "io.open", "os.fdopen"):
        position = 1
    elif resolved is None and isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0  # pathlib-style method: the mode comes first
    else:
        return False
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    return _literal_write_mode(mode)


@rule(
    "RPR305",
    "persistence-outside-persist",
    "service, experiments and manifest code writes and digests files only via repro.persist",
)
def check_raw_persistence(ctx) -> List:
    findings = []
    if not ctx.config.path_matches(ctx.path, _PERSIST_ONLY_PATHS):
        return findings
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.imports.resolve_call(node.func)
        if resolved in _PERSIST_PRIMITIVES:
            replacement = _PERSIST_PRIMITIVES[resolved]
            message = f"raw {resolved}() outside repro.persist; use persist.{replacement}"
        elif _opens_for_writing(ctx, node):
            message = (
                "write-mode open() outside repro.persist skips fsync and atomic "
                "rename; use persist.write_atomic or persist.append_line"
            )
        else:
            continue
        findings.append(ctx.finding(node, "RPR305", message))
    return findings


#: SciPy subpackages the package must not import (RPR306): together they
#: cost over a second of start-up for a root search and one binomial tail,
#: which ``repro.coding.theory`` computes bit-identically without them.
_BANNED_SCIPY_MODULES = ("scipy.stats", "scipy.optimize")

#: ``scipy.special``'s package init costs ~0.2 s for three functions, so
#: only the loader that skips it may import the package (RPR306).
_SPECIAL_MODULE = "scipy.special"
_SPECIAL_LOADER = ("repro/_special.py",)

#: Calls that import the module named by their first argument.
_DYNAMIC_IMPORTS = frozenset(
    {"importlib.import_module", "importlib.__import__", "builtins.__import__", "__import__"}
)


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def _imported_modules(ctx, node: ast.AST) -> List[str]:
    """Dotted modules an import statement or a literal dynamic import loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        if node.module == "scipy":
            return [f"scipy.{alias.name}" for alias in node.names]
        return [node.module]
    if isinstance(node, ast.Call) and node.args:
        target = ctx.imports.resolve_call(node.func) or dotted_name(node.func)
        name = node.args[0]
        if (
            target in _DYNAMIC_IMPORTS
            and isinstance(name, ast.Constant)
            and isinstance(name.value, str)
        ):
            return [name.value]
    return []


def _scipy_import_message(module: str, special_allowed: bool) -> Optional[str]:
    """Why importing ``module`` breaks the import floor, else ``None``."""
    for banned in _BANNED_SCIPY_MODULES:
        if _within(module, banned):
            return (
                f"import of {banned} adds about a second to every process start "
                "(lazy imports only move it into the run); use coding.theory._brentq "
                "or coding.theory.block_error_probability"
            )
    if _within(module, _SPECIAL_MODULE) and not special_allowed:
        return (
            "import of the scipy.special package runs its __init__, about 0.2 s "
            "of every process start; take erfc, erfcinv and betainc from "
            "repro._special"
        )
    return None


@rule(
    "RPR306",
    "heavy-scipy-import",
    "no scipy.stats or scipy.optimize import anywhere in the package, and "
    "scipy.special only through repro._special",
)
def check_heavy_scipy_imports(ctx) -> List:
    findings = []
    if not ctx.config.path_matches(ctx.path, ("repro/*",)):
        return findings
    special_allowed = ctx.config.path_matches(ctx.path, _SPECIAL_LOADER)
    for node in ast.walk(ctx.tree):
        for module in _imported_modules(ctx, node):
            message = _scipy_import_message(module, special_allowed)
            if message is not None:
                findings.append(ctx.finding(node, "RPR306", message))
    return findings
