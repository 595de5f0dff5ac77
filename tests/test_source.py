import ast
from pathlib import Path

import fixitylab


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and with them any cross-check
    # written as one; the library raises instead
    src = Path(fixitylab.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
