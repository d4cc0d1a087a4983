"""The package's exported names, and the demos that use them."""

import importlib.util
from pathlib import Path

import pytest

import asymx

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    assert [name for name in asymx.__all__ if not hasattr(asymx, name)] == []


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
