import ast
import re
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


ROOT = Path(__file__).resolve().parents[1]


def _read_name(node: ast.AST) -> str | None:
    """The name a bare or attribute reference reads, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a tree uses: references, imported names, and the words of
    its strings, which is how the benchmark's tracer names what it wraps
    ("codes.evaluate", "TailPoint")."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif (name := _read_name(node)) is not None:
            out.add(name)
    return out


def test_every_public_name_has_a_reader():
    """A public module-level function or class, and every name the package
    exports, must be read by something other than its own unit tests: a
    reference in the package outside the name's own definition, a use in the
    benchmark or the acceptance suite, or a backticked mention in README."""
    package = Path(cantor_measure.__file__).parent
    public: set[tuple[str, str]] = set()  # (module, name)
    src_reads: dict[str, set[tuple[str, str]]] = {}  # name -> (module, reading def)
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not owner.startswith("_"):
                public.add((module, owner))
            if isinstance(stmt, ast.ImportFrom) and module == "__init__":
                public.update((stmt.module, alias.asname or alias.name) for alias in stmt.names)
            for node in ast.walk(stmt):
                if (name := _read_name(node)) is not None:
                    src_reads.setdefault(name, set()).add((module, owner))
    outside = _outside_readers()
    unread = sorted(
        f"{module}.{name}" for module, name in public
        if not src_reads.get(name, set()) - {(module, name)} and name not in outside)
    assert unread == [], f"public names with no reader: {unread}"


def _outside_readers() -> set[str]:
    """Every identifier of the benchmark and the acceptance suite, and every
    word backticked in README."""
    out = set().union(*(
        _identifiers(ast.parse(path.read_text()))
        for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                     ROOT / "tests" / "test_acceptance.py"]))
    for span in re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text()):
        out.update(re.findall(r"[A-Za-z_]\w*", span))
    return out


def test_every_public_member_has_a_reader():
    """A public method, property or class-level attribute (a plain
    assignment in the class body; dataclass fields are instance data) of a
    public class must be read by something other than its own unit tests:
    an attribute read of its name in the package outside the member's own
    definition, a use in the benchmark or the acceptance suite, or a
    backticked mention in README.  Readers are matched by name, not by
    class, so a member that shares its name with a read member of another
    class passes."""
    package = Path(cantor_measure.__file__).parent
    public: set[tuple[str, str, str]] = set()  # (module, class, member)
    src_reads: dict[str, set[tuple]] = {}  # attribute -> (module, class, reading def)
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            cls = stmt.name if isinstance(stmt, ast.ClassDef) else None
            for item in members:
                names = ([item.name] if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         else [t.id for t in item.targets if isinstance(t, ast.Name)]
                         if isinstance(item, ast.Assign) else [])
                if cls is not None and not cls.startswith("_"):
                    public.update((module, cls, n) for n in names if not n.startswith("_"))
                for node in ast.walk(item):
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        src_reads.setdefault(node.attr, set()).update(
                            (module, cls, n) for n in names or [None])
    outside = _outside_readers()
    unread = sorted(
        f"{module}.{cls}.{name}" for module, cls, name in public
        if not src_reads.get(name, set()) - {(module, cls, name)} and name not in outside)
    assert unread == [], f"public members with no reader: {unread}"


def test_every_field_has_a_reader():
    """An annotated field in a public class's body, and a public attribute
    its __init__ sets on self, must be read by something other than its own
    unit tests: an attribute read of its name in the package, a use in the
    benchmark or the acceptance suite, or a backticked mention in README.
    Readers are matched by name, as for members."""
    package = Path(cantor_measure.__file__).parent
    fields: set[tuple[str, str, str]] = set()  # (module, class, field)
    src_reads: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        src_reads.update(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names = [item.target.id]
                elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    names = [node.attr for node in ast.walk(item)
                             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                             and isinstance(node.value, ast.Name) and node.value.id == "self"]
                else:
                    continue
                fields.update((path.stem, cls.name, n) for n in names if not n.startswith("_"))
    outside = _outside_readers()
    unread = sorted(f"{module}.{cls}.{name}" for module, cls, name in fields
                    if name not in src_reads and name not in outside)
    assert unread == [], f"fields with no reader: {unread}"


def _defaulted(fn: ast.FunctionDef, offset: int) -> list[tuple[str, int | None]]:
    """(name, position counting from the call's first argument, None for
    keyword-only) of each parameter with a default; offset is 1 for a
    method's self, which a call does not spell."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def _called_names(func: ast.expr) -> list[str]:
    """The names a call's callee may be: a bare name, an attribute, or
    either branch of a conditional expression."""
    if isinstance(func, ast.IfExp):
        return _called_names(func.body) + _called_names(func.orelse)
    return [n] if (n := _read_name(func)) is not None else []


def test_every_option_is_set_by_a_caller():
    """Every defaulted parameter of a public module-level function, of a
    public method of a public class, and of a public class's __init__ must
    be passed by at least one call outside the function's own body, in the
    package, the benchmark or the acceptance suite: by keyword, by enough
    positional arguments, or by a * or ** argument.  Calls are matched by
    the function's name, or the class's for __init__.  An option no caller
    sets has one value in use, and is a constant."""
    package = Path(cantor_measure.__file__).parent
    options = []  # (where, callee name, path, def node, parameter, position)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                defs = [(stmt.name, stmt.name, stmt, 0)]
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                defs = [(f"{stmt.name}.{f.name}", stmt.name if f.name == "__init__" else f.name,
                         f, 0 if any(getattr(d, "id", None) == "staticmethod"
                                     for d in f.decorator_list) else 1)
                        for f in stmt.body if isinstance(f, ast.FunctionDef)
                        and (f.name == "__init__" or not f.name.startswith("_"))]
            else:
                continue
            options += [(f"{path.stem}.{where}", callee, path, fn, arg, pos)
                        for where, callee, fn, offset in defs for arg, pos in _defaulted(fn, offset)]
    calls: dict[str, list[tuple[Path, ast.Call]]] = {}
    for path in [*sorted(package.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                for name in _called_names(node.func):
                    calls.setdefault(name, []).append((path, node))

    def sets(call: ast.Call, arg: str, pos: int | None) -> bool:
        return (any(k.arg in (arg, None) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or pos is not None and len(call.args) > pos)

    unset = sorted(
        f"{where}({arg})" for where, callee, path, fn, arg, pos in options
        if not any(sets(call, arg, pos) for where_path, call in calls.get(callee, [])
                   if not (where_path == path and fn.lineno <= call.lineno <= fn.end_lineno)))
    assert unset == [], f"options no caller sets: {unset}"


def test_mutant_catalog_texts_occur_once():
    """Every mutant of tests/mutants.py still finds its old text exactly
    once, and each of its test ids path::name names a top-level def of that
    file, so the catalog follows the code it mutates and the tests it
    names; running the mutants is `python tests/mutants.py`, outside this
    suite."""
    import mutants

    root = Path(mutants.ROOT)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (root / m.path).read_text().count(m.old) == 1, m.name
        assert m.tests, m.name
        for t in m.tests:
            path, name = t.split("::")
            defs = {stmt.name for stmt in ast.parse((root / path).read_text()).body
                    if isinstance(stmt, ast.FunctionDef)}
            assert name in defs, (m.name, t)
