"""The package ships what it runs: every definition in `src/affinefock` is
reached from package or benchmark code.

An identifier scan over `src/` and `perfbench/` with `ast`.  A top-level
function or class, or a method of a top-level class, is reached when some
live code names it: a `Name`, or an attribute read `x.name`.  An attribute
read on a method's own receiver (`self.name`, `cls.name`) reaches only the
definitions in that class, its bases and its subclasses, so a method that
only a sibling class reads under the same name stays unreached.  Imports
(and so the re-exports of `__init__`), string literals and a definition's
own body are not references.  Module-level code is live, and a definition is
live when live code reaches it, so the scan iterates to a fixpoint: a helper
reached only from unreached code is unreached too.  Dunders are skipped; they
run with their class.  A method of an unreached class goes with its class
and is not listed on its own.

Tests are no reason to keep code in the package: the reference
implementations that only tests use live in `tests/oracles.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "affinefock"
BENCH = ROOT / "perfbench"

NAME = ""  # the reach of a bare name: module-level definitions only


class _Def:
    """A function, class or method of the package, with what its code reads."""

    __slots__ = ("qualname", "name", "owner", "refs")

    def __init__(self, qualname: str, name: str, owner: str | None):
        self.qualname = qualname
        self.name = name
        self.owner = owner  # the qualified name of a method's class
        self.refs: list[tuple[str, str | None]] = []  # see `_refs`


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _receiver(fn: ast.FunctionDef) -> str | None:
    """The name a method calls its instance or class by."""
    args = fn.args.posonlyargs + fn.args.args
    return args[0].arg if args else None


def _refs(node: ast.AST, receiver: str | None = None, cls: str | None = None) -> list:
    """The names read under node: (name, NAME) for a bare name, which reaches
    only a module-level definition, (name, cls) for an attribute read on the
    receiver of a method of package class cls, and (name, None) for any other
    attribute read."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append((sub.id, NAME))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            own = (cls is not None and isinstance(sub.value, ast.Name)
                   and sub.value.id == receiver)
            out.append((sub.attr, cls if own else None))
    return out


def _read(path: Path, own: bool, defs: list[_Def], live: list, bases: dict):
    """Add path's definitions (when it is a package file) and references."""
    stem = path.stem
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if own and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_dunder(stmt.name):
                defs.append(_Def(f"{stem}.{stmt.name}", stmt.name, None))
                defs[-1].refs = _refs(stmt)
                continue
        if not (own and isinstance(stmt, ast.ClassDef)):
            live.extend(_refs(stmt))
            continue
        qual = f"{stem}.{stmt.name}"
        bases[qual] = {f"{stem}.{b.id}" for b in stmt.bases if isinstance(b, ast.Name)}
        cls = _Def(qual, stmt.name, None)
        defs.append(cls)
        for extra in stmt.bases + stmt.keywords + stmt.decorator_list:
            cls.refs.extend(_refs(extra))
        for item in stmt.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(item.name)):
                defs.append(_Def(f"{qual}.{item.name}", item.name, qual))
                defs[-1].refs = _refs(item, _receiver(item), qual)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.refs.extend(_refs(item, _receiver(item), qual))
            else:
                cls.refs.extend(_refs(item))


def _family(cls: str, bases: dict[str, set[str]]) -> set[str]:
    """cls with its bases and its subclasses, transitively."""
    up, down = {cls}, {cls}
    while True:
        more_up = up | {b for c in up for b in bases.get(c, ())}
        more_down = down | {c for c, bs in bases.items() if bs & down}
        if (more_up, more_down) == (up, down):
            return up | down
        up, down = more_up, more_down


def scan(package: Path = PACKAGE, others=(BENCH,)) -> list[str]:
    """Qualified names (module.name, module.Class.method) of the package
    definitions that no live code reaches, sorted."""
    defs: list[_Def] = []
    live: list = []  # references made by module-level and benchmark code
    bases: dict[str, set[str]] = {}
    for path in sorted(package.glob("*.py")):
        _read(path, True, defs, live, bases)
    for other in others:
        for path in sorted(Path(other).glob("*.py")):
            _read(path, False, defs, live, bases)
    families = {cls: _family(cls, bases) for cls in bases}

    def _reaches(src: _Def | None, cls: str | None, d: _Def) -> bool:
        """Whether a read by src (None for live code) reaches d; a class's
        own methods do not keep it."""
        if src is not None and d.qualname in (src.qualname, src.owner):
            return False
        if cls == NAME:
            return d.owner is None
        return cls is None or d.owner in families[cls]

    dead: set[str] = set()
    while True:
        readers: dict[str, list] = {}  # name -> [(reading def or None, cls)]
        for name, cls in live:
            readers.setdefault(name, []).append((None, cls))
        for d in defs:
            if d.qualname not in dead:
                for name, cls in d.refs:
                    readers.setdefault(name, []).append((d, cls))
        newly = {d.qualname for d in defs if d.qualname not in dead and (
            d.owner in dead
            or not any(_reaches(src, cls, d) for src, cls in readers.get(d.name, ())))}
        if not newly:
            break
        dead |= newly
    owner = {d.qualname: d.owner for d in defs}
    return sorted(q for q in dead if owner[q] not in dead)


def test_every_package_definition_is_reached_from_package_or_benchmark_code():
    unreached = scan()
    assert not unreached, (
        "defined in src/affinefock but reached by no package or benchmark code; "
        "move a reference implementation that tests use to tests/oracles.py and "
        "delete the rest: " + ", ".join(unreached))
