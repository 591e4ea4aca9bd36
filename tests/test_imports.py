"""Every library module imports only the standard library and itself, and
uses every name it imports.

The package has no third-party dependency; an import that is left behind
once the code using it is gone reads as a dependency it does not have.
`__init__.py` re-exports its imports, and a line marked `# noqa: F401`
keeps an import on purpose.

Every module of the package and of the tests also parses as Python 3.10,
the oldest version the project supports.

Every name `wordcodes` exports has a caller in the library, or serves a
README acceptance criterion or reference that names it; every private
module-level name is read somewhere in the package; and the README's
Python examples run as written.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "wordcodes"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imports(tree):
    """(module's top-level name or None for a relative import, bound names,
    line) of every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield alias.name.split(".")[0], [bound], node.lineno
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            bound = [alias.asname or alias.name for alias in node.names]
            yield top, bound, node.lineno


def _annotations(tree):
    """Every annotation in the module: of arguments, returns and targets."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns:
                yield node.returns


def _used_names(tree):
    """Every name the module reads, quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_stdlib_and_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    for top, bound, lineno in _imports(tree):
        assert top is None or top == "wordcodes" or (
            top in sys.stdlib_module_names
        ), f"{path.name}:{lineno} imports {top}, outside the standard library"
        if path.name == "__init__.py" or top == "__future__":
            continue
        if "# noqa: F401" in lines[lineno - 1]:
            continue
        unused = [name for name in bound if name not in used]
        assert not unused, f"{path.name}:{lineno} imports unused {unused}"


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS,
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_sources_parse_as_python_3_10(path):
    """A syntax check only: `feature_version` makes the parser reject
    grammar newer than 3.10, such as `except*`, as far as `ast` tracks it.
    Library calls and behaviour that differ on 3.10 are not checked."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# Exports no library module calls, each with the README criterion or
# reference it serves.
TEST_FACING_EXPORTS = {
    "is_prefix_free": "criterion 4: prefix-free words and codewords",
    "find_shift": "criterion 8: the shift search",
    "sentinel_runs": "criterion 9: sentinel-run word families",
    "format_digits": "the range-checked one-value `codebook.digit_run`",
}


def _names_outside(tree, skip):
    """Every name and attribute the module reads, outside the definition
    of `skip`.  A name that is only assigned is not read."""
    defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, defines) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_export_has_a_caller_in_the_library():
    """A name `wordcodes` exports is read by some library module outside
    its own definition, or is a test-facing export named above."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    trees = [
        ast.parse(path.read_text())
        for path in MODULES
        if path.name != "__init__.py"
    ]
    orphans = {
        name
        for name in exported
        if not any(name in _names_outside(tree, name) for tree in trees)
    }
    unlisted = sorted(orphans - set(TEST_FACING_EXPORTS))
    assert not unlisted, f"no library module reads the exports {unlisted}"
    stale = sorted(set(TEST_FACING_EXPORTS) - orphans)
    assert not stale, f"the library reads the test-facing exports {stale}"


def _private_definitions(tree):
    """(line, name) of each module-level function, class or assignment
    target the module names `_x` (dunder names aside)."""
    defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defines):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_module_name_is_read_in_the_package():
    """A module-level `_x` helper, class or constant is read by some module
    of the package outside its own definition, so one whose last reader is
    gone does not stay behind."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    unread = [
        f"{module}:{lineno} {name}"
        for module, tree in trees.items()
        for lineno, name in _private_definitions(tree)
        if not any(name in _names_outside(t, name) for t in trees.values())
    ]
    assert not unread, f"nothing in the package reads {unread}"


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs, each in a fresh namespace,
    so an example that names a removed or renamed export fails here."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
