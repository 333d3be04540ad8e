"""Every name a module imports is used in that module.

The package ``__init__.py`` is exempt: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import freewreath

SRC = Path(freewreath.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == \
        ["os (line 1)", "c (line 2)"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports():
    assert len(MODULES) > 5 and len(TESTS) > 5
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in MODULES + TESTS}
    assert {name: bad for name, bad in found.items() if bad} == {}
