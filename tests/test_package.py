"""Package structure: no module of ``csts`` may sit unused."""

import ast
from pathlib import Path

import csts

# Entry points reached from outside the package rather than by import.
ENTRY_MODULES = {"__init__", "cli"}


def _imported_modules(path: Path) -> set[str]:
    """Sibling modules a source file imports (``from .x import ...`` or
    ``from . import x``), by bare name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_is_imported_by_another():
    src = Path(csts.__file__).parent
    modules = {p.stem: p for p in src.glob("*.py")}
    importers = {name: set() for name in modules}
    for name, path in modules.items():
        for target in _imported_modules(path) - {name}:
            if target in importers:
                importers[target].add(name)
    unused = sorted(name for name, by in importers.items()
                    if not by and name not in ENTRY_MODULES)
    assert not unused, f"modules nothing in the package imports: {unused}"
