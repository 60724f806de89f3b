"""Source-wide style rules that no linter in the toolchain enforces."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_source_line_over_120_characters():
    long_lines = [
        f"{path.relative_to(SRC)}:{number}: {len(line)} characters"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 120
    ]
    assert not long_lines, "\n".join(long_lines)


def test_every_file_parses_as_python_3_10():
    # pyproject.toml's floor: a newer form, such as an ``except*`` block, fails here on a newer interpreter
    root = SRC.parent
    folders = ("src", "scripts", "perfbench", "tests")
    for path in [root / "conftest.py", *(path for folder in folders for path in sorted((root / folder).rglob("*.py")))]:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_no_private_name_imported_from_another_oncograde_module():
    imports = [
        f"{path.relative_to(SRC)}:{node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "oncograde")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # a dunder like __version__ is public
    ]
    assert not imports, "\n".join(imports)


# every module a top-level import under src/ may name, besides oncograde's own;
# each one costs every command's start-up, so a new one is added here in plain sight
MODULE_LEVEL_IMPORTS = {
    "__future__", "argparse", "concurrent.futures", "copy", "csv", "dataclasses", "hashlib", "itertools",
    "json", "numpy", "operator", "os", "sys", "threading", "time", "types", "typing",
}


def _module_level_imports(node):
    """The import statements under ``node`` that run when the module loads,
    so not those inside a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _module_level_imports(child)


def test_module_level_imports_name_only_the_pinned_modules():
    imports = [
        f"{path.relative_to(SRC)}:{node.lineno}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else [node.module])
        if not (isinstance(node, ast.ImportFrom) and node.level)  # oncograde's own modules
        and name.split(".")[0] != "oncograde"
        and name not in MODULE_LEVEL_IMPORTS
    ]
    assert not imports, "\n".join(imports)


def _names_read(function) -> set:
    """Every name the body of ``function`` reads, nested functions and lambdas included."""
    return {
        n.id for stmt in function.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def test_every_parameter_is_read_in_its_function():
    # a parameter a refactor leaves behind still has to be passed by every caller
    unread = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.name}({arg.arg})"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, node.args.vararg, *node.args.kwonlyargs, node.args.kwarg)
        if arg is not None and arg.arg not in ("self", "cls") and arg.arg not in _names_read(node)
    ]
    assert not unread, "\n".join(unread)


def _names_in(tree):
    """Every name ``tree`` mentions: read names, attribute names, imported
    names, and each dotted part of a string constant, which is how a patch
    table names what it wraps."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield from n.value.split(".")


def _parts(module):
    """``(qualified name, node)`` of the module-level functions and classes of
    ``module`` and of the non-dunder methods of its classes."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from (
                (f"{node.name}.{child.name}", child) for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (child.name.startswith("__") and child.name.endswith("__"))
            )


def _uncalled_parts(folders) -> dict:
    """``{qualified name: "path:line"}`` of each part in ``src/`` that no file
    of ``folders`` names outside its own definition; tests do not count as callers."""
    files = [
        path for folder in folders
        for path in sorted((SRC.parent / folder).rglob("*.py")) if not path.name.startswith("test_")
    ]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    named = Counter(name for tree in trees.values() for name in _names_in(tree))
    return {
        qualname: f"{path.relative_to(SRC)}:{part.lineno}"
        for path, tree in trees.items() if SRC in path.parents
        for qualname, part in _parts(tree)
        if named[part.name] == Counter(_names_in(part))[part.name]  # named only inside its own definition
    }


def test_every_part_has_a_caller():
    # a part only tests name is code no command runs
    uncalled = _uncalled_parts(("src", "scripts", "perfbench"))
    assert not uncalled, "\n".join(f"{where}: {name}" for name, where in uncalled.items())


def test_parts_only_the_benchmark_names_are_listed():
    # these stay only because perfbench/ wraps or calls them; the benchmark
    # change that stops naming one takes it out of this set, and out of src/
    only_benchmark = _uncalled_parts(("src", "scripts")).keys() - _uncalled_parts(("src", "scripts", "perfbench"))
    assert only_benchmark == {"kkt_violation", "TreeModel.node_count", "train_tree"}


def _scoped_nodes(node, scope=""):
    """Every node under ``node``, with the dotted name of the classes and functions around it."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _scoped_nodes(child, f"{scope}.{child.name}".lstrip(".") if named else scope)


def _callee(call) -> str | None:
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


# the three places a matrix enters: a dataset, the rows a Preprocessor is fitted on and those it transforms
MATRIX_ENTRIES = {"Dataset.__post_init__", "Preprocessor.fit_resample", "Preprocessor.transform"}


def test_values_are_checked_where_they_enter():
    # a value is checked once, where it enters or is made: a construction kept only for its
    # check is a type's own rule, so it runs in a __post_init__, and no later step re-checks a matrix
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    misplaced = []
    for path, tree in trees.items():
        for scope, node in _scoped_nodes(tree):
            kept_for_its_check = (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and _callee(node.value) in classes
            )
            if kept_for_its_check and "__post_init__" not in scope.split("."):
                misplaced.append(f"{path.relative_to(SRC)}:{node.lineno}: {_callee(node.value)}(...) in {scope}")
            if isinstance(node, ast.Call) and _callee(node) == "as_matrix" and scope not in MATRIX_ENTRIES:
                misplaced.append(f"{path.relative_to(SRC)}:{node.lineno}: as_matrix(...) in {scope or 'the module'}")
    assert not misplaced, "\n".join(misplaced)
