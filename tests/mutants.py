"""Run the committed mutant list: ``make mutants`` (``python tests/mutants.py
[ID ...]`` runs the named entries only).

``tests/mutants.json`` lists mutants of the C the differential tests
hold to their Python references.  Each entry gives a ``file``, the exact
``text`` in it, its ``replacement``, the ``tests`` (pytest node ids) that
must fail on the mutant, and ``why`` it is wrong.  For each entry the
tree's ``src/`` and ``tests/`` are copied into a temporary directory, the
text — which must occur exactly once — is replaced there, and each
listed test runs on the copy in a pytest of its own (the copy builds its
mutated extension itself: the build cache is keyed by the source's
hash).  A mutant is killed when every listed test fails (pytest's exit
status 1) or hangs past ``TIMEOUT``: an entry that names an engine test
and a ``sync.c`` test of the shared section runner is killed under both
extensions, not under whichever runs first.  One listed test that passes
is a survivor, and any survivor or stale entry fails the run.  So does a
listed test that fails on an unmutated copy, which the run checks first:
a kill means something only where the test passes without the mutant.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = ROOT / "tests" / "mutants.json"
#: Seconds one listed test may take before it counts as killing its
#: mutant by a hang.
TIMEOUT = 600


def apply(copy: Path, entry: dict) -> None:
    """Replace the entry's text in ``copy``; ``ValueError`` when the text
    is not there exactly once (the list went stale)."""
    path = copy / entry["file"]
    source = path.read_text()
    count = source.count(entry["text"])
    if count != 1:
        raise ValueError(f"{entry['id']}: its text occurs {count} times in "
                         f"{entry['file']}")
    path.write_text(source.replace(entry["text"], entry["replacement"]))


def pytest(copy: Path, tests: list[str]) -> str:
    """``tests`` run in one pytest on ``copy``: ``"killed"``, ``"killed
    (hang)"``, ``"SURVIVED"`` (they passed) or an error."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed (hang)"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return (f"ERROR: pytest exited {done.returncode}\n"
            + done.stdout[-2000:] + done.stderr[-2000:])


def run(entry: dict, where: Path) -> str:
    """``"killed"``, ``"killed (hang)"``, ``"SURVIVED"`` or an error, the
    last two naming the listed test that did not fail.  An entry with no
    ``text`` runs its tests together on the copy as it is."""
    copy = where / entry["id"]
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache",
                                  ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", copy)
    try:
        if not entry.get("text"):
            return pytest(copy, entry["tests"])
        apply(copy, entry)
        verdicts = {test: pytest(copy, [test]) for test in entry["tests"]}
    except ValueError as exc:
        return f"STALE: {exc}"
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    for test, verdict in verdicts.items():
        if not verdict.startswith("killed"):
            return f"{verdict} ({test.rsplit('::', 1)[-1]})"
    return ("killed (hang)" if "killed (hang)" in verdicts.values()
            else "killed")


def main(ids: list[str]) -> int:
    entries = json.loads(LIST.read_text())
    unknown = set(ids) - {e["id"] for e in entries}
    if unknown:
        print(f"no such mutant: {sorted(unknown)}")
        return 2
    chosen = [e for e in entries if not ids or e["id"] in ids]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mpf-mutants.") as tmp:
        tests = sorted({t for e in chosen for t in e["tests"]})
        verdict = run({"id": "base", "tests": tests}, Path(tmp))
        print(f"the {len(tests)} listed tests on the unmutated tree: "
              f"{'pass' if verdict == 'SURVIVED' else verdict}", flush=True)
        if verdict != "SURVIVED":
            return 1
        for entry in chosen:
            t0 = time.perf_counter()
            verdict = run(entry, Path(tmp))
            bad += not verdict.startswith("killed")
            print(f"{entry['id']:<4} {verdict:<14} "
                  f"{time.perf_counter() - t0:5.1f} s  {entry['file']}: "
                  f"{entry['why']}", flush=True)
    total = len(chosen)
    print(f"mutants: {total - bad} of {total} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
