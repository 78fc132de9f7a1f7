"""Every name a package module imports is used in it, except the shim imports listed
here: the benchmark's tracer (``perfbench/spans.py``) patches those by module attribute
name, so they stay until it stops doing so. No linter is a dependency, so the check
reads each module with ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lingamkit"

SHIMS = {
    ("bootstrap", "center"),
    ("direct", "center"),
    ("direct", "simple_residual"),
    ("direct", "t_profile"),
    ("evaluation", "ThreadPoolExecutor"),
    ("independence", "simple_residual"),
}


def unused_imports(path: Path) -> set[str]:
    """Names bound by the module's imports that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_every_import_is_used_except_the_shims():
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py")) for name in unused_imports(path)}
    assert found == SHIMS
