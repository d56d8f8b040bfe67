"""Every module-level import in the library is used by its module, every
private helper is read somewhere in the package and every private function
is reached from live code, and the package exports exactly the README's
"Library API" list.

`__init__.py` is left out of the first check: it imports names only to
re-export them.  The second set of tests pins it instead.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import symsug

PACKAGE = Path(__file__).parent.parent / "src" / "symsug"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level import statements."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def test_the_scan_covers_the_library():
    assert {p.stem for p in MODULES} >= {"cli", "integrals", "scale", "verify"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_every_import_is_at_module_level():
    """A function-level import is how one library module reaches another
    that imports it in turn: with none, the modules import in one order."""
    deferred = [
        (path.name, node.lineno)
        for path in MODULES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if not isinstance(top, (ast.Import, ast.ImportFrom))
        for node in ast.walk(top)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert deferred == []


def private_definitions(tree: ast.Module) -> list[str]:
    """The module-level private functions, classes and constants that have
    no decorator (a decorator may register a function it never names)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                names.append(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name[:1] == "_" and name[:2] != "__"]


def read_names(tree: ast.AST) -> set[str]:
    """The names and attributes read anywhere under ``tree``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def package_trees() -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")]


def test_every_private_helper_is_read_somewhere_in_the_package():
    """A helper that nothing reads is dead code, such as a kernel left
    behind when its callers moved to another one."""
    trees = package_trees()
    read = set().union(*map(read_names, trees))
    defined = [name for tree in trees for name in private_definitions(tree)]
    assert len(defined) > 50  # the scan sees the helpers
    orphans = [name for name in defined if name not in read]
    assert orphans == [], f"private helpers nothing reads: {orphans}"


def test_every_private_function_is_reached_from_live_code():
    """Every module-level private function is read from a public
    definition, a decorated (registered) function or module-level code,
    directly or through private functions that are: a wrapper left behind
    by a refactor fails, and so does the helper only it read."""
    helpers: dict[str, set[str]] = {}  # undecorated private function -> reads
    live: set[str] = set()
    for tree in package_trees():
        for node in tree.body:
            helper = (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.decorator_list
                and node.name[:1] == "_"
                and node.name[:2] != "__"
            )
            if helper:
                helpers.setdefault(node.name, set()).update(read_names(node))
            else:
                live |= read_names(node)
    assert len(helpers) > 50  # the scan sees the helpers
    frontier = live & helpers.keys()
    reached = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier |= (helpers[name] & helpers.keys()) - reached
    dead = sorted(helpers.keys() - reached)
    assert dead == [], f"private functions no live code reaches: {dead}"


# -- the package namespace ------------------------------------------------------

INIT = PACKAGE / "__init__.py"
README = PACKAGE.parent.parent / "README.md"


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``
    (``-S``: no site hooks, so only the library's own imports count)."""
    script = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


def readme_api() -> dict[str, list[str]]:
    """The README's "Library API" list: module name -> exported names."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `symsug\.(\w+)`:(.*?)(?=^- |^$|\Z)", section, re.M | re.S)
    return {module: re.findall(r"`(\w+)`", names) for module, names in bullets}


def test_importing_the_package_leaves_out_the_law_suite():
    loaded = modules_after("import symsug")
    assert "symsug.integrals" in loaded
    assert "symsug.verify" not in loaded
    assert "random" not in loaded


def test_the_command_line_still_loads_the_law_suite():
    """Only for ``perfbench/tracing.py``, which reads
    ``sys.modules["symsug.verify"]`` after ``import symsug.cli``.  Delete
    this test together with a lazy ``verify`` import in ``cli``."""
    assert "symsug.verify" in modules_after("import symsug.cli")


# modules the library once imported only for declarations; they are most
# of what a fresh ``import symsug.cli`` cost
DECLARATION_MODULES = {"dataclasses", "typing", "inspect"}


def test_the_command_line_starts_without_the_declaration_modules():
    loaded = modules_after("import symsug.cli")
    assert "symsug.cli" in loaded
    assert DECLARATION_MODULES & loaded == set()


def test_no_library_module_imports_the_declaration_modules():
    imported = []  # (file, top-level module) for every import statement
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module.split(".")[0]))
    assert len(imported) > 20  # the scan sees the imports
    assert [pair for pair in imported if pair[1] in DECLARATION_MODULES] == []


def test_init_imports_exactly_what_it_exports():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = imported_names(tree)
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    )
    assert len(set(imported)) == len(imported)
    assert len(set(exported)) == len(exported)
    assert sorted(imported) == sorted(exported)


def test_the_readme_lists_the_exports():
    listed = readme_api()
    assert [name for names in listed.values() for name in names] == symsug.__all__
    for module_name, names in listed.items():
        module = importlib.import_module(f"symsug.{module_name}")
        for name in names:
            assert getattr(symsug, name) is getattr(module, name), name
