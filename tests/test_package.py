import ast
import subprocess
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


FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_failing_hypothesis_test_is_a_plain_failure(tmp_path):
    """Under this repository's pytest settings, where warnings are errors, a
    failing Hypothesis test must end the run as a test failure (exit 1), not
    as an internal error (exit 3) raised while the plugin explains it."""
    (tmp_path / "test_fails.py").write_text(FAILING_HYPOTHESIS_TEST)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
