"""Internal self-checks must stay in force under `python -O`.

An `assert` disappears under -O, so the package's postconditions raise
InternalError instead; this test keeps it that way.
"""

import ast
from pathlib import Path

import oreshape

SRC = Path(oreshape.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements vanish under python -O: {found}"
