"""The package's exported names, and the demos that import them."""

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
def test_demo_imports(path):
    # executing the module runs its imports but not main(), which is behind
    # the __main__ check
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
