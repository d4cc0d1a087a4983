"""Library modules import only the names they read."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "asymx"

# The one import kept unread: benchmarks/tracer.py wraps
# asymx.transfer.steering_masked, which transfer.py never calls.
ALLOWED = [("transfer", "steering_masked")]


def _unread_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_library_modules_read_every_import():
    # __init__ imports to export, so it is left out
    unread = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" for name in _unread_imports(path)]
    assert unread == ALLOWED
