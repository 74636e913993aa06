"""Every name a module of the package or of the tests imports is used there.

A plain walk of each file's syntax tree, so the check needs no linter and runs
with the suite. The package's __init__ is left out: its imports are its exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*ROOT.glob("src/dmasim/*.py"), *ROOT.glob("tests/*.py")] if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """'<file>:<line>: <name>' for each imported name the file never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds a
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    assert FILES
    assert [entry for path in FILES for entry in unused_imports(path)] == []
