"""Every private module-level function or class of the package is called
from the package: code that only the tests reach is deleted, not kept."""

import ast
from pathlib import Path

import polylevel

SRC = Path(polylevel.__file__).parent


def test_every_private_definition_has_a_caller():
    """A name counts as called when code elsewhere in the package reads it,
    as a plain name or an attribute; a recursive call is no caller."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                     | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append(f"{path.stem}.{node.name}")
                names.discard(node.name)
            referenced |= names
    assert len(defined) > 50
    assert [d for d in defined if d.split(".")[1] not in referenced] == []
