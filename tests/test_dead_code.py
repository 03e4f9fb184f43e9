"""Every function and class defined in ``src/sepattn`` serves the program.

The package is reached from the ``sepattn`` CLI, the trainer and the benchmark
in ``perfbench/``. A definition whose name appears nowhere in ``src/`` or in the
benchmark's own modules, apart from its ``def``/``class`` line and
``__all__``, is reached only by tests: delete it, or use it. And every name a
module's ``__all__`` lists exists: the benchmark's tracer looks each one up.
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory: Path, skip_tests: bool = False):
    for path in sorted(directory.rglob("*.py")):
        if not (skip_tests and path.name.startswith("test_")):
            yield path, ast.parse(path.read_text(), str(path))


def unreferenced(root: Path = ROOT) -> list:
    """``file:line name`` of each definition in src/sepattn that nothing uses."""
    package = root / "src" / "sepattn"
    defined = {}
    for path, tree in _trees(package):
        for node in ast.walk(tree):
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{path.relative_to(root)}:{node.lineno}")
    used = set()
    for _, tree in [*_trees(package), *_trees(root / "perfbench", skip_tests=True)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{loc} {name}" for name, loc in defined.items() if name not in used)


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
