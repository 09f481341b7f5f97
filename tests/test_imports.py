import ast
import pathlib

import percband

PACKAGE = pathlib.Path(percband.__file__).parent


def private_imports(path: pathlib.Path) -> list[str]:
    """The underscore names ``path`` imports from other percband modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("percband")):
            found += [f"{path.name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    # A private name is its module's own business; a module that needs one
    # from elsewhere needs a public function instead.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in private_imports(path)] == []
