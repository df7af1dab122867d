"""``bench profile --top``: one recorder hears every simulation of a figure.

The label table and the heap-crossings line used to come from two module
globals under ``repro/machine/`` that the engine and ``collect_report``
fed.  They are read from one ``Recorder(limit=0)`` in
``SimRuntime.profile`` now — including the points fig5 already observes
with a recorder of its own — and print what they printed at 3b11bc4.
"""

import ast
import inspect
import pathlib
import re

import repro.machine
from repro.bench.__main__ import profile_main
from repro.bench.figures import reset_run_cache
from repro.machine.engine import Engine
from repro.runtime.sim import SimRuntime

#: label -> (charges, simulated seconds as printed) at 3b11bc4.
FIG5_TOP8 = {
    "recv-copy": (3180, "18.877421"), "recv-fixed": (3180, "9.540000"),
    "send-copy": (606, "2.811092"), "send-fixed": (606, "2.121000"),
    "open": (543, "0.514728"), "close_receive": (309, "0.297720"),
    "recv-retire": (3180, "0.254400"), "send-alloc": (606, "0.238980"),
}


def test_fig5_quick_top8_prints_the_parents_table(capsys):
    reset_run_cache()  # a point another test already measured is not re-run
    try:
        assert profile_main(["fig5", "--quick", "--top", "8", "--limit", "1"]) == 0
    finally:
        reset_run_cache()
    assert SimRuntime.profile is None
    out = capsys.readouterr().out
    table = out[out.index("hottest effect labels (fig5):"):]
    rows = re.findall(r"^  ([\w-]+) +(\d+) +[\d.]+% +([\d.]+) +[\d.]+%$",
                      table, re.M)
    assert {label: (int(n), secs) for label, n, secs in rows} == FIG5_TOP8
    assert [label for label, _, _ in rows] == list(FIG5_TOP8)  # by seconds
    assert "heap crossings (fig5, summed over 12 simulations):" in table
    assert "events 44,806  heap pushes 17,255  pops 17,255" in table


def test_the_engine_has_one_observer_and_the_machine_no_switches():
    for path in pathlib.Path(repro.machine.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.Global)], path
    for cls in (Engine, SimRuntime):
        params = inspect.signature(cls.__init__).parameters
        assert "trace" not in params and params["recorder"].default is None
