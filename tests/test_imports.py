"""Static checks on the package's imports, with the standard-library `ast`."""

import ast
import re
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "ualgebra").glob("*.py"))


def _top_level_imports(tree: ast.Module):
    """(bound name, imported name) for each top-level import statement."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    assert [bound for bound, _ in _top_level_imports(tree) if bound not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_helper_imported_from_another_module(path):
    tree = ast.parse(path.read_text())
    assert [name for _, name in _top_level_imports(tree) if name.startswith("_")] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts; a cross-check calls `errors.crosscheck`
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_algebras_defines_packers(path):
    # the row-major layout of tables and fiber products lives in `algebras`
    tree = ast.parse(path.read_text())
    packers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "pack" in node.name
    ]
    assert path.name == "algebras.py" or packers == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_algebras_skips_comment_lines(path):
    # the line syntax of the text formats lives in `algebras.content_lines`
    tree = ast.parse(path.read_text())
    comment_tests = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "startswith"
        and any(isinstance(a, ast.Constant) and a.value == "#" for a in node.args)
    ]
    assert path.name == "algebras.py" or comment_tests == []


def _byte_views(tree: ast.Module):
    """The line of each `.translate(` call and of each read of TABLE_PAD, as
    a name or an attribute."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "translate"
            or isinstance(node, ast.Name) and node.id == "TABLE_PAD"
            or isinstance(node, ast.Attribute) and node.attr == "TABLE_PAD"
        ):
            yield node.lineno


def test_the_byte_view_lint_flags_a_translate_and_the_pad():
    tree = ast.parse(
        "out = lanes.translate(maps)\nrow = bytes(t).ljust(256, bytes((TABLE_PAD,)))\n"
        "pad = terms.TABLE_PAD\nname = name.strip()\n"
    )
    assert sorted(_byte_views(tree)) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_terms_reads_tables_as_bytes(path):
    # the byte view of the tables is `FiniteAlgebra.byte_tables`, which
    # `terms.translation_tables` builds and `terms.eval_block` reads: a second
    # one would be a second copy of every table to keep in step
    assert path.name == "terms.py" or list(_byte_views(ast.parse(path.read_text()))) == []


TEXT_FILE_CALLS = {"open", "read_text", "write_text"}


def _text_file_calls_without_encoding(tree: ast.Module):
    """The line of each `open`, `read_text` or `write_text` call, as a name
    or a method, that passes no `encoding=`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in TEXT_FILE_CALLS and all(k.arg != "encoding" for k in node.keywords):
                yield node.lineno


def test_the_encoding_lint_flags_a_locale_read():
    tree = ast.parse("Path(p).read_text()\nopen(p)\nPath(p).read_text(encoding='utf-8')\n")
    assert list(_text_file_calls_without_encoding(tree)) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_file_read_names_its_encoding(path):
    # a file decoded in the locale's encoding may parse under one locale and
    # fail under another
    assert list(_text_file_calls_without_encoding(ast.parse(path.read_text()))) == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    # every setting of the library is an argument, so no run depends on a
    # variable of the shell that started it
    tree = ast.parse(path.read_text())
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
        or isinstance(node, ast.ImportFrom) and any(a.name in ENVIRONMENT for a in node.names)
    ]
    assert reads == []


# A memo of a single int holds one entry per size asked for; any other
# unbounded memo grows with the algebras or files it is called on.
UNBOUNDED_INT_MEMOS = {"catalog.py:all_group_tables", "digroups.py:all_digroups"}


def _memos(tree: ast.Module):
    """(function, decorator name, decorator call or None) for every function
    under `@cache` or `@lru_cache`, bare, called or as a `functools`
    attribute, at any depth."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in ("cache", "lru_cache"):
                yield node, name, call


def _unbounded_memos(tree: ast.Module):
    """Every function under `@cache` or `@lru_cache(maxsize=None)`, at any
    depth; a bare `@lru_cache` holds 128 entries."""
    for node, name, call in _memos(tree):
        sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"] if call else []
        if name == "cache" or any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
            yield node


def test_every_lru_cache_is_bounded_but_the_memos_of_one_int():
    unbounded = {
        f"{path.name}:{fn.name}": fn
        for path in MODULES
        for fn in _unbounded_memos(ast.parse(path.read_text()))
    }
    assert set(unbounded) == UNBOUNDED_INT_MEMOS
    for fn in unbounded.values():
        (arg,) = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        assert ast.unparse(arg.annotation) == "int"
        assert fn.args.vararg is fn.args.kwarg is None


ROOT = MODULES[0].parents[2]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree: ast.Module):
    """The public top-level functions, classes and assigned names, and the
    public methods of the top-level classes, as `name` or `Class.name`."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _reads(node: ast.AST, scope: str):
    """(name, scope, is_attribute) for each name read as a variable or an
    attribute under `node`; a function or class opens the scope
    `<enclosing>.<its name>`. A name assigned to is not read."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, scope, False
    elif isinstance(node, ast.Attribute):
        yield node.attr, scope, True
    elif isinstance(node, DEFINITIONS):
        scope = f"{scope}.{node.name}" if scope else node.name
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, scope)


def test_the_memo_lint_finds_every_decorator_form():
    tree = ast.parse(
        "@cache\ndef a(): pass\n@lru_cache\ndef b(): pass\n@lru_cache(maxsize=8)\ndef c(): pass\n"
        "@functools.lru_cache(1)\ndef d(): pass\n"
        "class K:\n    @cached_property\n    def e(self): pass\n"
    )
    assert [node.name for node, _, _ in _memos(tree)] == ["a", "b", "c", "d"]


def test_every_memo_is_named_in_the_readme():
    # a memo holds answers across calls, so its key, size and what it keeps
    # are documented in one place: the README's "Memos:" paragraph
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("\nMemos:") :].partition("\n\n")[0]
    named = set(re.findall(r"\w+", paragraph))
    memos = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node, _, _ in _memos(ast.parse(path.read_text()))
    ]
    assert len(memos) >= 10
    assert [memo for memo in memos if memo.partition(".")[2] not in named] == []


def test_every_public_definition_is_referenced():
    """Each public function, class and top-level assigned name of the package
    is read, as a name or an attribute, somewhere outside its own definition
    in `src`, `tests` or `perfbench`, or is named in the README. A method
    `Class.name` is only ever called as `.name`, so it counts as referenced
    only where `.name` is read as an attribute outside its own definition.
    An import or an `__all__` entry names a definition without using it, so
    neither counts."""
    definitions = []
    reads: dict[str, list[str]] = {}
    attribute_reads: dict[str, list[str]] = {}
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        key = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text())
        if path in MODULES:
            definitions += [(f"{key}:{q}", q) for q in _public_definitions(tree)]
        for name, scope, is_attribute in _reads(tree, ""):
            reads.setdefault(name, []).append(f"{key}:{scope}")
            if is_attribute:
                attribute_reads.setdefault(name, []).append(f"{key}:{scope}")
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))

    def referenced(own: str, qualified: str) -> bool:
        _, dot, name = qualified.rpartition(".")
        if not dot and name in readme:
            return True
        at_reads = (attribute_reads if dot else reads).get(name, ())
        return any(at != own and not at.startswith(own + ".") for at in at_reads)

    assert [own for own, qualified in definitions if not referenced(own, qualified)] == []


BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _broad_handlers(node: ast.AST, scope: str = ""):
    """(enclosing function or class, line) of each `except` clause that
    catches Exception or BaseException, alone or in a tuple, and of each
    bare `except:`; the module level is the scope ''."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
            if any(getattr(c, "id", None) in BROAD_EXCEPTIONS or c is None for c in caught):
                yield scope, child.lineno
        yield from _broad_handlers(child, child.name if isinstance(child, DEFINITIONS) else scope)


def test_the_broad_handler_lint_finds_each_form():
    tree = ast.parse(
        "try: pass\nexcept Exception: pass\n"
        "def f():\n    try: pass\n    except BaseException as e: pass\n"
        "try: pass\nexcept: pass\n"
        "try: pass\nexcept (ValueError, Exception): pass\n"
        "try: pass\nexcept ValueError: pass\n"
    )
    assert list(_broad_handlers(tree)) == [("", 2), ("f", 5), ("", 7), ("", 9)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_main_catches_every_exception(path):
    # an input error is a UAError; any other exception is a bug, which the
    # exit-3 handler of `cli.main` reports, so no other handler may swallow it
    scopes = [scope for scope, _ in _broad_handlers(ast.parse(path.read_text()))]
    assert scopes == (["main"] if path.name == "cli.py" else [])


def _carrier_ranges(node: ast.AST, scope: str = ""):
    """(enclosing function or class, line) of each chained comparison
    `0 <= x < y` or `0 <= x <= y`; the module level is the scope ''."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Compare)
            and isinstance(child.left, ast.Constant)
            and child.left.value == 0
            and [type(op) for op in child.ops] in ([ast.LtE, ast.Lt], [ast.LtE, ast.LtE])
        ):
            yield scope, child.lineno
        yield from _carrier_ranges(child, child.name if isinstance(child, DEFINITIONS) else scope)


def test_the_carrier_range_lint_finds_each_form():
    tree = ast.parse(
        "ok = 0 <= x < n\n"
        "def f(r, a):\n    return all(0 <= r <= a for r in a)\n"
        "class K:\n    def g(self, b):\n        if not 0 <= b < self.size: pass\n"
        "y = 0 < x < n\nz = 0 <= x\nw = 1 <= x < n\nv = 0 <= x < n < m\n"
    )
    assert list(_carrier_ranges(tree)) == [("", 1), ("f", 3), ("g", 6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_in_carrier_tests_an_element_against_its_carrier(path):
    # "v is an element of an n-element carrier" is decided once, by
    # `errors.in_carrier`; a hand-written range test may forget the int test
    scopes = [scope for scope, _ in _carrier_ranges(ast.parse(path.read_text()))]
    assert scopes == (["in_carrier"] if path.name == "errors.py" else [])


ERRORS = {
    node.name
    for node in ast.parse((MODULES[0].parent / "errors.py").read_text()).body
    if isinstance(node, ast.ClassDef)
}


def _foreign_raises(tree: ast.Module):
    """The line of each `raise` of anything but a class of `ualgebra.errors`,
    called or bare; a bare `raise` re-raises and is not counted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
            if name not in ERRORS:
                yield node.lineno


def test_the_raise_lint_flags_a_builtin_exception():
    tree = ast.parse(
        "raise IndexError('tuple index out of range')\nraise ValueError\n"
        "raise SizeMismatch('x') from None\nraise errors.ParseError('y')\nraise\n"
    )
    assert list(_foreign_raises(tree)) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_src_raises_only_the_errors_of_the_package(path):
    # malformed input ends in a UAError, which `cli.main` reports with exit
    # 2, and a failed cross-check in InternalInconsistency; any other class
    # raised in `src` would end in exit 3 as if it were a bug
    assert list(_foreign_raises(ast.parse(path.read_text()))) == []
