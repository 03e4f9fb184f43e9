"""Every function, class and constant defined in ``src/sepattn`` serves the program.

The package is reached from the ``sepattn`` CLI, the trainer and the benchmark
in ``perfbench/``. A function or class whose name appears nowhere in ``src/`` or
in the benchmark's own modules, apart from its ``def``/``class`` line and
``__all__``, is reached only by tests: delete it, or use it. A module-level
UPPER_CASE constant must be loaded from its own module: by name inside that
module, or imported or read as an attribute from it elsewhere, so a second copy
of a value that lives in another module is flagged too. And every name a
module's ``__all__`` lists exists: the benchmark's tracer looks each one up.
What the package imports from one of its own modules is listed in that
module's ``__all__``, so ``__all__`` is the module's whole public surface.
"""
import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def _trees(directory: Path, skip_tests: bool = False):
    for path in sorted(directory.rglob("*.py")):
        if not (skip_tests and path.name.startswith("test_")):
            yield path, ast.parse(path.read_text(), str(path))


def _module(path: Path, root: Path) -> str:
    """Dotted module name: ``sepattn.diffcore`` for src/sepattn/diffcore/__init__.py."""
    base = root / "src" if (root / "src") in path.parents else root
    parts = path.relative_to(base).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _constants(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for t in targets:
            for name in t.elts if isinstance(t, ast.Tuple) else [t]:
                if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                    yield name.id, node.lineno


def _constant_loads(tree: ast.Module, module: str, is_package: bool) -> set:
    """(module, name) of each module-level name this module loads, imports or reads."""
    aliases, loads = {}, set()
    package = module.split(".") if is_package else module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound = a.asname or a.name.split(".")[0]
                aliases[bound] = a.name if a.asname else bound
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(package[: len(package) - node.level + 1]) if node.level else ""
            source = ".".join(p for p in (base, node.module) if p)
            for a in node.names:
                aliases[a.asname or a.name] = f"{source}.{a.name}"
                loads.add((source, a.name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add((module, node.id))

    def dotted(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and dotted(node.value):
            loads.add((dotted(node.value), node.attr))
    return loads


def unreferenced(root: Path = ROOT) -> list:
    """``file:line name`` of each definition in src/sepattn that nothing uses."""
    package = root / "src" / "sepattn"
    defined, constants = {}, {}
    for path, tree in _trees(package):
        for node in ast.walk(tree):
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{path.relative_to(root)}:{node.lineno}")
        for name, line in _constants(tree):
            constants[(_module(path, root), name)] = f"{path.relative_to(root)}:{line}"
    used, loads = set(), set()
    for path, tree in [*_trees(package), *_trees(root / "perfbench", skip_tests=True)]:
        loads |= _constant_loads(tree, _module(path, root), path.name == "__init__.py")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        [f"{loc} {name}" for name, loc in defined.items() if name not in used]
        + [f"{loc} {name}" for (mod, name), loc in constants.items() if (mod, name) not in loads]
    )


def test_every_definition_is_used_outside_tests():
    assert unreferenced() == []


def test_every_all_entry_exists():
    src = ROOT / "src"
    missing = []
    for path in sorted((src / "sepattn").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        names = getattr(module, "__all__", ())
        missing += [f"{module.__name__}.{n}" for n in names if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_what_all_lists():
    """Each ``from .X import name`` inside the package names an entry of X's ``__all__``."""
    unlisted = []
    for path, tree in _trees(ROOT / "src" / "sepattn"):
        module = _module(path, ROOT)
        package = module.split(".") if path.name == "__init__.py" else module.split(".")[:-1]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            base = package[: len(package) - node.level + 1]
            source = importlib.import_module(".".join([*base, *filter(None, [node.module])]))
            listed = getattr(source, "__all__", None)
            if listed is None:
                continue
            unlisted += [
                f"{path.relative_to(ROOT)}:{node.lineno} {source.__name__}.{a.name}"
                for a in node.names
                if a.name not in listed
            ]
    assert unlisted == []
