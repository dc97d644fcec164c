"""Project-wide symbols: modules, classes, functions, imports.

One :class:`ModuleDecl` per file records everything the program-level
analyses need to *name* things — the module's dotted name, its
functions and methods (with parameter lists), its classes (with base
names and the inferred types of ``self.x = ClassName(...)``
attributes), and its import aliases.  A :class:`SymbolTable` joins the
declarations of every file in the run and resolves dotted references
across them.

Module naming is best-effort by design: inside a ``src`` tree the
dotted name is the path after the last ``src`` component (so
``src/repro/cluster/ledger.py`` → ``repro.cluster.ledger``); elsewhere
it is the longest path suffix whose components are valid identifiers.
References are then resolved by *suffix match* against the program's
modules, which makes fixture trees in temp directories resolve exactly
like installed packages.  The table indexes every dotted suffix of every
name once, so a suffix lookup is a dictionary probe, not a scan.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["FunctionDecl", "ClassDecl", "ModuleDecl", "SymbolTable", "module_name_for"]


def module_name_for(rel_path: str) -> str:
    """Best-effort dotted module name for a posix relative path."""
    parts = [p for p in rel_path.split("/") if p and p != "."]
    if not parts:
        return "<unknown>"
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    dirs = parts[:-1]
    if "src" in dirs:
        dirs = dirs[len(dirs) - 1 - dirs[::-1].index("src") + 1 :]
    else:
        # Longest suffix of identifier-valid components (temp dirs and
        # repo roots rarely survive this, package paths always do).
        kept: List[str] = []
        for part in reversed(dirs):
            if part.isidentifier():
                kept.append(part)
            else:
                break
        dirs = list(reversed(kept))
    if stem == "__init__":
        return ".".join(dirs) if dirs else "<init>"
    return ".".join([*dirs, stem]) if stem.isidentifier() else "<unknown>"


@dataclass
class FunctionDecl:
    """One function or method as the symbol table sees it."""

    qualname: str  #: ``module.func`` or ``module.Class.func``
    name: str
    module: str
    class_name: Optional[str]
    line: int
    params: List[str]  #: positional-or-keyword parameter names, in order
    decorators: List[str] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassDecl:
    """One class: its methods, bases, and constructor-inferred attr types."""

    name: str
    module: str
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: ``self.x = ClassName(...)`` assignments seen anywhere in the class
    #: body, as attribute → *unresolved* class reference (dotted text).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleDecl:
    """Everything one file declares, as resolvable plain data."""

    name: str
    rel_path: str
    display_path: str
    imports: Dict[str, str] = field(default_factory=dict)  #: alias → dotted target
    functions: List[FunctionDecl] = field(default_factory=list)
    classes: List[ClassDecl] = field(default_factory=list)


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as text for pure Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _relative_base(module: str, level: int) -> str:
    """The package a ``from ...x import y`` resolves against."""
    parts = module.split(".")
    # level 1 = current package (drop the module component), 2 = parent...
    keep = len(parts) - level
    return ".".join(parts[:keep]) if keep > 0 else ""


def build_module_decl(tree: ast.Module, rel_path: str, display_path: str) -> ModuleDecl:
    """Extract one file's declarations (functions, classes, imports)."""
    name = module_name_for(rel_path)
    decl = ModuleDecl(name=name, rel_path=rel_path, display_path=display_path)
    for stmt in tree.body:
        _collect_imports(stmt, name, decl.imports)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decl.functions.append(_function_decl(stmt, name, None))
        elif isinstance(stmt, ast.ClassDef):
            _collect_class(stmt, name, decl)
    return decl


def _collect_imports(stmt: ast.stmt, module: str, imports: Dict[str, str]) -> None:
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            imports[bound] = target
            if alias.asname is None:
                # ``import a.b`` also makes ``a.b`` referencable as written.
                imports[alias.name] = alias.name
    elif isinstance(stmt, ast.ImportFrom):
        base = stmt.module or ""
        if stmt.level:
            prefix = _relative_base(module, stmt.level)
            base = f"{prefix}.{base}" if prefix and base else (prefix or base)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            imports[bound] = f"{base}.{alias.name}" if base else alias.name
    elif isinstance(stmt, (ast.If, ast.Try)):
        # ``if TYPE_CHECKING:`` blocks and guarded imports still bind names.
        for field_name in ("body", "orelse", "finalbody"):
            for child in getattr(stmt, field_name, []):
                _collect_imports(child, module, imports)
        for handler in getattr(stmt, "handlers", []):
            for child in handler.body:
                _collect_imports(child, module, imports)


def _function_decl(
    node: ast.FunctionDef | ast.AsyncFunctionDef, module: str, class_name: Optional[str]
) -> FunctionDecl:
    qual = f"{module}.{class_name}.{node.name}" if class_name else f"{module}.{node.name}"
    params = [a.arg for a in [*node.args.posonlyargs, *node.args.args]]
    decorators = [d for d in (_dotted(dec) for dec in node.decorator_list) if d is not None]
    return FunctionDecl(
        qualname=qual,
        name=node.name,
        module=module,
        class_name=class_name,
        line=node.lineno,
        params=params,
        decorators=decorators,
    )


def _collect_class(node: ast.ClassDef, module: str, decl: ModuleDecl) -> None:
    cls = ClassDecl(name=node.name, module=module)
    cls.bases = [b for b in (_dotted(base) for base in node.bases) if b is not None]
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods.append(stmt.name)
            decl.functions.append(_function_decl(stmt, module, node.name))
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Attribute)
                    and isinstance(sub.targets[0].value, ast.Name)
                    and sub.targets[0].value.id == "self"
                    and isinstance(sub.value, ast.Call)
                ):
                    ref = _dotted(sub.value.func)
                    if ref is not None:
                        cls.attr_types.setdefault(sub.targets[0].attr, ref)
    decl.classes.append(cls)


def _suffix_index(names: Iterable[str]) -> Dict[str, List[str]]:
    """Every proper dotted suffix → the names ending in ``.<suffix>``.

    ``a.b.c`` is filed under ``b.c`` and ``c``: exactly the references
    ``name.endswith("." + ref)`` would match, found without a scan.
    """
    index: Dict[str, List[str]] = {}
    for name in names:
        for pos, char in enumerate(name):
            if char == ".":
                index.setdefault(name[pos + 1 :], []).append(name)
    return index


def _unique(matches: Optional[List[str]]) -> Optional[str]:
    """The single suffix match, or ``None`` when absent or ambiguous."""
    return matches[0] if matches is not None and len(matches) == 1 else None


class SymbolTable:
    """Joined declarations of every module in the run, with resolution."""

    def __init__(self, modules: List[ModuleDecl]):
        self.modules: Dict[str, ModuleDecl] = {m.name: m for m in modules}
        self.functions: Dict[str, FunctionDecl] = {}
        self.classes: Dict[str, ClassDecl] = {}
        self._methods: Dict[str, List[str]] = {}
        for mod in modules:
            for func in mod.functions:
                self.functions[func.qualname] = func
                if func.class_name is not None:
                    self._methods.setdefault(func.name, []).append(func.qualname)
            for cls in mod.classes:
                self.classes[f"{mod.name}.{cls.name}"] = cls
        self._module_suffixes = _suffix_index(self.modules)
        self._suffixes = {
            "function": _suffix_index(self.functions),
            "class": _suffix_index(self.classes),
        }

    # -- reference resolution ----------------------------------------------------

    def resolve_module(self, ref: str) -> Optional[str]:
        """A dotted module reference → the program module it names."""
        if ref in self.modules:
            return ref
        return _unique(self._module_suffixes.get(ref))

    def resolve_class(self, module: str, ref: str) -> Optional[str]:
        """A class reference as written in ``module`` → class qualname."""
        return self._resolve_qualified(module, ref, kind="class")

    def resolve_function(self, module: str, ref: str) -> Optional[str]:
        """A function reference as written in ``module`` → function qualname."""
        return self._resolve_qualified(module, ref, kind="function")

    def _lookup(self, qualname: str, kind: str) -> Optional[str]:
        table = self.functions if kind == "function" else self.classes
        if qualname in table:
            return qualname
        return _unique(self._suffixes[kind].get(qualname))

    def _resolve_qualified(self, module: str, ref: str, *, kind: str) -> Optional[str]:
        mod = self.modules.get(module)
        parts = ref.split(".")
        head, rest = parts[0], parts[1:]
        # Module-local definition.
        if not rest:
            local = self._lookup(f"{module}.{head}", kind)
            if local is not None:
                return local
        # Through an import alias: the alias may name the target itself
        # (``from m import f``) or a module the rest indexes into.
        if mod is not None and head in mod.imports:
            target = mod.imports[head]
            full = ".".join([target, *rest]) if rest else target
            found = self._lookup(full, kind)
            if found is not None:
                return found
            target_module = self.resolve_module(target)
            if target_module is not None and rest:
                return self._lookup(".".join([target_module, *rest]), kind)
            return None
        # A dotted path through a (possibly unimported) module name.
        if rest:
            prefix_module = self.resolve_module(".".join(parts[:-1]))
            if prefix_module is not None:
                return self._lookup(f"{prefix_module}.{parts[-1]}", kind)
        return None

    def method_candidates(self, name: str) -> List[str]:
        """Every class method with this bare name, program-wide."""
        return list(self._methods.get(name, []))

    def class_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Resolve ``method`` on a class, walking base classes by name."""
        seen: set[str] = set()
        queue: List[str] = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return f"{current}.{method}"
            for base in cls.bases:
                resolved = self.resolve_class(cls.module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None
