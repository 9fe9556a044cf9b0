"""The package surface, read with ``ast``: exports and imports stay in step.

``psemigroups.__all__`` must list exactly the public names ``__init__.py``
binds, and no module may import a name it never uses, so that deleting a
type leaves no stale export or import behind.  Every export is used by
another module of the package or by the benchmark, so no library-only
wrapper comes back.  ``core`` alone knows the
membership-table format: no other module pads or translates a table itself,
defines a format routine, or imports one from anywhere but ``core``.
``apery_set`` alone reads the Apery tuple a ``PSemigroup`` was built with,
``apery`` alone imports ``fractions``, no module imports ``argparse``,
``dataclasses`` or ``inspect``, and a cold ``psg`` process loads none of the
heavier standard-library modules that these would pull in.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psemigroups

PACKAGE = Path(psemigroups.__file__).resolve().parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(encoding="utf-8"), filename=module)


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name an import statement binds, with the statement's line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return out


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def test_all_lists_exactly_the_public_names_init_binds():
    tree = _tree("__init__.py")
    bound = {name for name, _ in _imports(tree)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    public = {name for name in bound if _is_public(name)} - {"__all__"}
    exported = psemigroups.__all__
    assert len(exported) == len(set(exported))
    assert sorted(exported) == sorted(public)
    assert [name for name in exported if not hasattr(psemigroups, name)] == []


def _references(path: Path) -> set[str]:
    """The names, attribute names, imported names and non-docstring strings
    of one file; the benchmark's tracer resolves its targets from strings."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                out.add(node.value)
    return out


# The paper's predicates: exported for library use, though every command
# reads ``classify`` instead.
PAPER_PREDICATES = {"is_p_symmetric", "is_p_pseudo_symmetric", "is_p_completely_symmetric"}


def test_every_export_has_a_caller_outside_init():
    bench = Path(__file__).resolve().parents[1] / "bench"
    files = [PACKAGE / m for m in MODULES if m != "__init__.py"] + sorted(bench.glob("*.py"))
    referenced = set().union(*map(_references, files))
    unused = [
        name
        for name in psemigroups.__all__
        if not name.startswith("__") and name not in referenced | PAPER_PREDICATES
    ]
    assert unused == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if module == "__init__.py":
        used |= set(psemigroups.__all__)  # re-exported, not used in place
    assert [(name, line) for name, line in _imports(tree) if name not in used] == []


# The membership-table format: its translate tables and the routines that
# turn, pad or search a table.  Only ``core`` may define them.
FORMAT_NAMES = {
    "_FLIP",
    "_DIGITS",
    "_FROM_DIGITS",
    "_bits",
    "_table_of",
    "_window",
    "_least_per_class",
    "_least_positive",
}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "core.py"])
def test_only_core_pads_or_translates_tables(module):
    calls = [
        (node.func.attr, node.lineno)
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("ljust", "maketrans")
    ]
    assert calls == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "core.py"])
def test_only_core_defines_the_table_format(module):
    tree = _tree(module)
    defined = [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in FORMAT_NAMES
    ] + [
        (target.id, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in FORMAT_NAMES
    ]
    assert defined == []
    # every format name a module uses comes straight from core
    borrowed = [
        (node.module, alias.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "core"
        for alias in node.names
        if alias.name in FORMAT_NAMES
    ]
    assert borrowed == []


def test_hilbert_imports_nothing_from_symmetry():
    tree = _tree("hilbert.py")
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "symmetry" not in modules


@pytest.mark.parametrize("module", [m for m in MODULES if m != "apery.py"])
def test_only_apery_reads_the_built_apery_tuple(module):
    # the build's ``apery=`` keyword stores the tuple; it is not a read
    reads = [
        node.lineno
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Attribute) and node.attr == "apery"
    ]
    assert reads == []


def _importers(name: str) -> list[str]:
    """The package modules that import the module ``name``."""
    return [
        module
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom) and node.module == name
        or isinstance(node, ast.Import) and name in [alias.name for alias in node.names]
    ]


def test_only_apery_imports_fractions():
    """Every rational intermediate is a Bernoulli number of ``gap_power_sums``,
    so no scalar formula can come back beside it."""
    assert _importers("fractions") == ["apery.py"]


# Modules a cold ``psg`` process does without: argparse and the gettext it
# loads; dataclasses and inspect, which loads ast, dis and tokenize; and
# fractions with its decimal, which only a Bernoulli number needs.
COLD_START_UNLOADED = ("argparse", "gettext", "dataclasses", "inspect", "fractions", "decimal")


def _newly_loaded(code: str, names) -> list[str]:
    """The modules of ``names`` that a fresh interpreter loads while running ``code``,
    beyond those its start-up loaded."""
    probe = (
        f"import sys\nbefore = set(sys.modules)\n{code}\n"
        f"print(sorted(set({list(names)!r}) & (set(sys.modules) - before)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        check=True,
    )
    return ast.literal_eval(loaded.stdout.splitlines()[-1])


def test_no_module_imports_argparse():
    """The cold-import guard: no module imports argparse, dataclasses or inspect.

    argv is read through the flag table of ``cli``, the value types are
    NamedTuples, a command's parameters come off its code object, and
    ``apery`` imports ``fractions`` only for B_0.  So neither a fresh
    ``import psemigroups.cli`` nor a fresh ``psg membership`` job loads any
    of ``COLD_START_UNLOADED``.
    """
    assert [m for name in ("argparse", "dataclasses", "inspect") for m in _importers(name)] == []
    assert _newly_loaded("import psemigroups.cli", COLD_START_UNLOADED) == []
    job = "from psemigroups.cli import main\nassert main(['membership', '--gens=3,5', '-n7']) == 0"
    assert _newly_loaded(job, COLD_START_UNLOADED) == []


def test_import_loads_every_module_the_bench_tracer_wraps():
    """A fresh ``import psemigroups.cli``, which the bench worker runs before
    ``Tracer.install``, puts every module of ``bench/tracer.py`` ``TARGETS``
    into ``sys.modules``.

    ``Tracer.install`` looks each target module up there without importing
    it, so loading the modules lazily on first use would break the traced
    bench run.  A benchmark change that makes ``Tracer.install`` import its
    targets may drop this test.
    """
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TARGETS"]
    )
    modules = [f"psemigroups.{name}" for name in targets]
    assert len(modules) > 5
    assert _newly_loaded("import psemigroups.cli", modules) == sorted(modules)


def test_only_classify_reads_the_pairing():
    """The parity of total decides symmetric against pseudo-symmetric in one place."""
    callers = [
        function.name
        for function in ast.walk(_tree("symmetry.py"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_pairing"
    ]
    assert callers == ["classify"]


def test_verify_repeats_no_check_the_default_path_makes():
    """``--verify`` adds independent oracles, not second runs of production code.

    The report's pseudo-Frobenius set is ``pf_via_apery_maximals`` read once,
    and every decomposition checks its own pairing and meet as it is built.
    """
    report_callers = [
        function.name
        for function in ast.walk(_tree("report.py"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pf_via_apery_maximals"
    ]
    assert report_callers == ["build_invariant_report"]
    assert "verify_decomposition" not in {name for name, _ in _imports(_tree("cli.py"))}


def test_cli_borrows_no_private_name_but_from_core():
    """Every kernel ``--verify`` runs is called from ``report``, so ``cli``
    needs no private name of another module."""
    borrowed = [
        (node.module, alias.name)
        for node in ast.walk(_tree("cli.py"))
        if isinstance(node, ast.ImportFrom) and node.module not in ("core", "__future__")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert borrowed == []


def test_report_leaves_each_size_check_to_its_oracle():
    """The count oracles bound their own work; ``report`` checks only the
    estimates of the oracles it chooses between."""
    calls = [
        node.lineno
        for node in ast.walk(_tree("report.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_table_size"
    ]
    assert calls == []


def _reach(calls: dict[str, set[str]], roots: set[str]) -> set[str]:
    """The functions of one module that ``roots`` call, directly or through others."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += calls.get(name, set()) & calls.keys()
    return seen


def test_count_table_and_bit_planes_are_separate_kernels():
    """The count table shares the doubling shift schedule with the bit planes,
    but no code: neither reaches a function of the other."""
    calls = {
        function.name: {
            node.func.id
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        for function in _tree("enumeration.py").body
        if isinstance(function, ast.FunctionDef)
    }
    count_table = _reach(calls, {"denumerant_table", "denumerant", "membership_oracle"})
    assert "_packed_counts" in count_table
    assert count_table & {"_member_word", "_closed"} == set()
    assert _reach(calls, {"_member_word"}) & count_table == set()


# Two modules for ``tools/size.py``: docstrings, comments and layout tokens
# are left out, and every other string is one token.
SIZE_FIXTURE = {
    "a.py": (
        '"""Module docstring."""\n'
        "# a comment\n"
        "\n"
        "x = 1\n"
        "\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        '    y = """a string\n'
        '    over two lines"""\n'
        '    "a string statement, not a docstring"\n'
        "    return y\n"
    ),
    "b.py": "class C:\n    'Class docstring.'\n    z = 'one'  # trailing comment\n",
}


def test_size_tool_counts_code_tokens_per_module_and_in_total(tmp_path, capsys):
    import importlib.util

    tool = Path(__file__).resolve().parents[1] / "tools" / "size.py"
    spec = importlib.util.spec_from_file_location("size_tool", tool)
    size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(size)
    for name, text in SIZE_FIXTURE.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert size.main([str(tmp_path)]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "tokens"]
    # a.py: x = 1 (3), def f ( ) : (5), y = <string> (3), <string> (1), return y (2)
    # b.py: class C : (3), z = 'one' (3)
    assert rows == [["a.py", "12", "14"], ["b.py", "3", "6"], ["total", "15", "20"]]
    assert [sum(int(row[i]) for row in rows[:-1]) for i in (1, 2)] == [15, 20]
