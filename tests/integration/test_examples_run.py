"""Every example script must run to completion successfully.

Examples are executable documentation; this keeps them from rotting.
Each asserts its own correctness internally (solutions verified, totals
checked), so a zero exit code is a real guarantee.  A script is a file
with a ``__main__`` guard; the others (``dvars.py``, ``mini_mpi.py``)
are layers the scripts beside them import as local modules.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(p for p in EXAMPLES_DIR.glob("*.py")
                  if '__name__ == "__main__"' in p.read_text())


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "gauss_jordan_demo.py", "sor_demo.py",
            "dvars_demo.py", "mpi_style.py"} <= names
    assert (EXAMPLES_DIR / "dvars.py").is_file()
    assert (EXAMPLES_DIR / "mini_mpi.py").is_file()


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    if script.name == "independent_processes.py" and not sys.platform.startswith(
        "linux"
    ):
        pytest.skip("POSIX shared memory")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script.name} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"{script.name} printed nothing"
