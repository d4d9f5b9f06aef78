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


def test_every_oracle_name_has_a_user_outside_the_tests():
    # csts.oracle holds the brute-force reference, not test helpers: each
    # public function or class it defines must appear, as a whole word, in
    # another package module, in README.md or in a perfbench script.
    src = Path(csts.__file__).parent
    root = Path(__file__).resolve().parents[1]
    oracle = src / "oracle.py"
    users = [p.read_text(encoding="utf-8")
             for p in [*src.glob("*.py"), root / "README.md", *root.glob("perfbench/*.py")]
             if p != oracle]
    names = [node.name for node in ast.parse(oracle.read_text(encoding="utf-8")).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")]
    unused = [name for name in names
              if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in users)]
    assert not unused, f"csts.oracle names that only the tests use: {unused}"


def test_oracle_shares_no_helper_with_the_miner():
    # The oracle checks the miner, so it takes only the domain types from
    # csts.model and decides theta itself: a fault in a shared helper would
    # otherwise pass every miner-vs-oracle test.
    tree = ast.parse((Path(csts.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    from_model = {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module == "model"
                  for alias in node.names}
    assert from_model <= {"EventDataset", "EventType", "MiningConfig", "Pattern"}
    calls = [node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert "passes_theta" not in calls


def test_event_dataset_surface():
    # The dataset is its columns: the one instance view is left, and no
    # per-type view or label lookup beside parse_pattern.
    from csts.oracle import example_dataset
    public = {name for name in dir(example_dataset()) if not name.startswith("_")}
    assert public == {"count", "from_columns", "instances", "label_of", "parse_pattern",
                      "pattern_labels", "times", "type_ids", "type_order", "type_starts",
                      "types", "xs", "ys"}
