"""Package structure: no module of ``csts`` may sit unused, and no public
name may serve only the tests."""

import ast
import re
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


def test_every_public_name_has_a_user():
    # A name in csts.__all__ must appear, as a whole word, in README.md or in
    # a package module other than the one that defines it.
    src = Path(csts.__file__).parent
    defined_in = {}
    for node in ast.parse((src / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defined_in.update((alias.name, node.module) for alias in node.names)
    texts = {p.stem: p.read_text(encoding="utf-8") for p in src.glob("*.py")
             if p.stem != "__init__"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    unused = []
    for name in csts.__all__:
        if name.startswith("__"):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        users = [text for module, text in texts.items() if module != defined_in[name]]
        if not any(word.search(text) for text in [readme, *users]):
            unused.append(name)
    assert not unused, f"public names with no user outside their own module: {unused}"
