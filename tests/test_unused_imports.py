"""No module of the package, its tests or its tools imports a name it never
reads, or imports one name twice."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports its public names to re-export them
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "qiplab", ROOT / "tests", ROOT / "tools")
    for path in folder.glob("*.py")
    if path != ROOT / "src" / "qiplab" / "__init__.py"
)


def import_faults(source: str) -> list[str]:
    """The names that ``source`` imports and never reads as a name, and the
    names it imports more than once.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    faults = []
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name in imported:
                faults.append(f"{name} imported again (line {node.lineno})")
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    faults += [f"{name} unused (line {line})" for name, line in imported.items() if name not in used]
    return faults


def test_the_guard_sees_an_unused_or_repeated_import():
    assert import_faults("import os\nimport numpy as np\nnp.zeros(1)\n") == ["os unused (line 1)"]
    assert import_faults("from a.b import c as d\nimport e.f\ne.f.g(d)\n") == []
    assert import_faults("import os\ndef f():\n    import os\n    os.sep\n") == [
        "os imported again (line 3)"
    ]


def test_no_module_imports_a_name_unused_or_twice():
    assert len(MODULES) > 20
    faults = {
        str(path.relative_to(ROOT)): found
        for path in MODULES
        if (found := import_faults(path.read_text()))
    }
    assert faults == {}
