"""Every module under ``src/repro`` earns its place: something runs it.

``src/`` carries what the figures, gates and command lines run (ROADMAP
item 12); a module that only its own tests and examples import belongs
in ``examples/`` or nowhere.  A module passes the census when at least
one of these holds:

* a ``src/`` module that is not a package ``__init__`` imports it,
  directly or through a name a package re-exports;
* ``[project.scripts]`` in ``pyproject.toml`` names it;
* the Makefile or a CI workflow runs it with ``python -m``;
* a ``docs/`` block that ``tests/test_docs_examples.py`` executes
  imports it.

A package counts as used when it is imported or any module inside it
is.  The scan reads import statements (lazy ones inside functions
included), never attribute chains, so ``import repro.ext`` alone makes
the package used, not every module its ``__init__`` re-exports.

The simulated machine's knobs take the same census: every field of
``Costs`` and ``MachineConfig`` has exactly one row, with a status, in
EXPERIMENTS.md's parameter census (``make census`` regenerates it), so
a new knob cannot land without saying what pins it.

So do the command lines: every long flag an ``add_argument`` call in
``src/`` declares is named in the Makefile, a CI workflow, ``docs/``,
the README or a verification skill (``SKILL.md``) — a flag nobody runs
or documents is a way in nobody knows about.
"""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path

from test_docs_examples import DOC_FILES, _python_blocks

from repro.core.costmodel import Costs
from repro.machine.balance import MachineConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _modules() -> dict[str, Path]:
    """Dotted name → file for every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _imports(tree: ast.AST, module: str | None) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every import in ``tree``; ``name`` is the
    imported attribute of a ``from`` import, ``None`` for a plain
    ``import``.  ``module`` (the importer's dotted name, ``None`` for a
    docs block) resolves relative imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module if _is_package(module) else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{base}" if base else package
            out += [(base, alias.name) for alias in node.names]
    return out


def _resolve(module: str, name: str | None, seen=frozenset()) -> set[str]:
    """The ``src/repro`` modules that importing ``name`` from ``module``
    uses: the module itself, a submodule called ``name``, and whatever
    module a package ``__init__`` re-exports ``name`` from."""
    if module not in MODULES:
        return set()
    used = {module}
    if name is None or not _is_package(module) or module in seen:
        return used
    if f"{module}.{name}" in MODULES:
        return used | _resolve(f"{module}.{name}", None)
    tree = ast.parse(MODULES[module].read_text())
    for source, imported in _imports(tree, module):
        if imported in (name, "*"):
            used |= _resolve(source, name if imported == "*" else imported,
                             seen | {module})
    return used


def _used_by(tree: ast.AST, module: str | None) -> set[str]:
    used = set()
    for source, name in _imports(tree, module):
        used |= _resolve(source, name)
    return used


def _by_src() -> set[str]:
    used = set()
    for module, path in MODULES.items():
        if not _is_package(module):
            used |= _used_by(ast.parse(path.read_text()), module) - {module}
    return used


def _by_scripts() -> set[str]:
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    return set(re.findall(r'=\s*"([\w.]+):', scripts))


def _by_python_m() -> set[str]:
    used = set()
    for path in [ROOT / "Makefile", *sorted((ROOT / ".github").rglob("*.yml"))]:
        for name in re.findall(r"-m\s+(repro[\w.]*)", path.read_text()):
            used |= {name, f"{name}.__main__"} & MODULES.keys()
    return used


def _by_docs() -> set[str]:
    used = set()
    for doc in DOC_FILES:
        for _, block in _python_blocks(doc):
            used |= _used_by(ast.parse(block), None)
    return used


def used_modules() -> set[str]:
    rules = (_by_src, _by_scripts, _by_python_m, _by_docs)
    used = set().union(*(rule() for rule in rules))
    for name in list(used):
        while "." in name:  # importing a module runs its packages
            name = name.rpartition(".")[0]
            used.add(name)
    return used


def test_every_src_module_is_run_by_something():
    idle = sorted(MODULES.keys() - used_modules())
    assert not idle, (
        f"modules nothing in src/, the scripts, the Makefile, CI or the "
        f"executed docs runs: {idle}")


def test_each_rule_sees_its_kind_of_use():
    """A witness per rule, so a rule that broke cannot pass vacuously."""
    assert "repro.ext.o2o" in _by_src()  # bench.figures imports it
    assert _by_scripts() == {"repro.bench.__main__", "repro.inspect_cli"}
    assert "repro.bench.compare" in _by_python_m()  # nothing imports it
    assert "repro.testing" in _by_docs()  # only docs and tests import it


def _census_rows() -> list[list[str]]:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    table = text.partition("<!-- census:begin -->")[2]
    table = table.partition("<!-- census:end -->")[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines() if line.startswith("| `")]


def test_every_machine_knob_has_one_census_row():
    rows = _census_rows()
    names = [row[0].strip("`") for row in rows]
    knobs = {f.name for cls in (Costs, MachineConfig) for f in fields(cls)}
    assert sorted(set(names)) == sorted(names), "a knob has two rows"
    assert set(names) == knobs, (
        f"knobs without a census row: {sorted(knobs - set(names))}; "
        f"rows for no knob: {sorted(set(names) - knobs)}")
    assert all(row[-1] for row in rows), "a census row has no status"


def cli_flags() -> set[str]:
    """Every long flag an ``add_argument`` call under ``src/`` declares."""
    flags = set()
    for path in MODULES.values():
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                flags |= {arg.value for arg in node.args
                          if isinstance(arg, ast.Constant)
                          and str(arg.value).startswith("--")}
    return flags


def _flag_texts() -> str:
    paths = [ROOT / "Makefile", ROOT / "README.md",
             *sorted((ROOT / ".github").rglob("*.yml")),
             *sorted((ROOT / "docs").rglob("*.md")),
             *sorted(ROOT.glob(".*/skills/*/SKILL.md"))]
    return "\n".join(path.read_text() for path in paths if path.exists())


def test_every_cli_flag_is_named_where_someone_runs_it():
    flags = cli_flags()
    assert "--scenario" in flags and "--jobs" in flags  # the scan sees some
    texts = _flag_texts()
    unnamed = sorted(flag for flag in flags if not re.search(
        rf"(?<![\w-]){re.escape(flag)}(?![\w-])", texts))
    assert not unnamed, (
        f"flags no Makefile, CI, docs, README or skill line names: "
        f"{unnamed}")
