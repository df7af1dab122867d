"""Every way out of ``repro.obs`` has a use, and ``import repro`` stays light.

A public name of ``repro.obs`` is kept only while something reads it:
the package itself outside ``repro/obs`` imports it, or an executed
block of ``docs/`` (tests/test_docs_examples.py runs every one) calls it
to answer the question its page asks.  A surface that loses its last
use fails here, and so does one that comes back without a use.

The package has no settable surface outside its call signatures either:
``src/`` reads no environment variable, so no process-wide switch can
select a second way to run it.
"""

import ast
import importlib.util
import pathlib
import subprocess
import sys

import repro.obs

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def _python_blocks(path: pathlib.Path) -> list[tuple[int, str]]:
    """The blocks tests/test_docs_examples.py executes, by its own reader."""
    spec = importlib.util.spec_from_file_location(
        "_docs_examples", ROOT / "tests" / "test_docs_examples.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._python_blocks(path)


def _imported_by_src() -> set[str]:
    """Names ``from ... import``-ed out of ``repro.obs`` by the package
    outside ``repro/obs``, relative or absolute."""
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path.parent.name == "obs":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "obs" or node.module.startswith("obs.")
                    or node.module.startswith("repro.obs")):
                names.update(alias.name for alias in node.names)
    return names


def _used_by_docs() -> set[str]:
    """Identifiers that appear in an executed block of ``docs/``."""
    names: set[str] = set()
    for path in sorted((ROOT / "docs").glob("*.md")):
        for _, src in _python_blocks(path):
            for node in ast.walk(ast.parse(src)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_name_has_a_use():
    used = _imported_by_src() | _used_by_docs()
    unused = sorted(set(repro.obs.__all__) - used)
    assert unused == [], (
        f"repro.obs exports {unused} but neither src/ outside repro/obs nor "
        "an executed docs/ block uses them: delete them, or show the "
        "question they alone answer")


def test_importing_repro_does_not_import_an_http_stack():
    """Every workload start pays ``import repro``; no part of the package
    serves or fetches over HTTP, and none may pull ``http.server`` /
    ``urllib.request`` in (~40 ms of ~350 when they were imported at
    package import)."""
    code = ("import sys, repro, repro.obs; "
            "assert 'http.server' not in sys.modules; "
            "assert 'urllib.request' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def _environment_reads(tree: ast.AST) -> list[int]:
    """Lines that read the environment: ``os.environ`` / ``os.getenv``
    (``environb`` too), or either imported out of ``os``."""
    names = {"environ", "environb", "getenv", "getenvb"}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in names for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_src_reads_no_environment():
    """A behaviour an environment variable selects is a second program
    nobody passes an argument for: what a run does is decided by its
    call, never by ``os.environ``."""
    reads = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in _environment_reads(ast.parse(path.read_text()))]
    assert reads == [], (
        f"src/ reads the environment at {reads}: take the value as an "
        "argument instead")
