import ast
import sys
from pathlib import Path

import cantor_measure


def test_imports_are_relative_or_stdlib():
    # pyproject.toml declares dependencies = []: the package imports only
    # its own modules and the standard library
    for path in sorted(Path(cantor_measure.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"
