"""The package's exported names, and the demos that use them."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import asymx

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asymx"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    assert [name for name in asymx.__all__ if not hasattr(asymx, name)] == []


def test_no_export_takes_a_second_array_description():
    # a selection's num_transmit is the one element count M and
    # asymx.arrays.SPACING the one spacing d: a parameter that states
    # either again can disagree with them
    second = {"geometry", "spacing", "d_over_lambda"}
    exports = {name: getattr(asymx, name) for name in asymx.__all__}
    offenders = [
        f"{name}({param})" for name, export in exports.items()
        if callable(export) and not (isinstance(export, type)
                                     and issubclass(export, Exception))
        for param in inspect.signature(export).parameters if param in second
    ]
    assert offenders == []


def _identifiers(path):
    """Names a Python file reads, attribute names included, and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_has_a_caller():
    # an export earns its place by a use outside the module that defines
    # it: README, a demo, the CLI or another library module
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    home = {alias.asname or alias.name: PACKAGE / f"{node.module}.py"
            for node in init.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    modules = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    used = {path: _identifiers(path) for path in [*DEMOS, *modules]}
    readme = (ROOT / "README.md").read_text()
    uncalled = [
        name for name in asymx.__all__ if name != "__version__"
        and not re.search(rf"\b{name}\b", readme)
        and not any(name in names for path, names in used.items()
                    if path != home[name])
    ]
    assert uncalled == []


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports(path, capsys):
    # executing the module runs its imports; main(), behind the __main__
    # check, is run here, as a demo that calls a changed signature fails
    # only then (any warning fails it too)
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
