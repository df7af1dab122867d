"""Smoke tests for the benchmark ledger (``--quick``: one rep a workload).

Collected by the existing ``pytest benchmarks/ --benchmark-disable`` CI
step.  They check the shape of what the ledger prints and that its
guards work — not any timing.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import catalog  # noqa: E402
import compare  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("MPF_FUSION", "MPF_EPOCH")}
    env.update(extra)
    return env


@pytest.fixture(scope="module")
def quick_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = subprocess.run(RUN + ["--quick", "--json", str(out)],
                          capture_output=True, text=True, env=clean_env(),
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as fh:
        return json.load(fh), done.stdout


def test_benchmark_json_is_the_catalog():
    bench = load("BENCHMARK.json")
    assert bench == catalog.benchmark_json(bench["run_seconds"])
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 2 <= len(bench["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # 4 + 22 runs a workload, each with its set-ups, inside the cap.
    runs = 4 + 22 * len(bench["workloads"])
    assert runs * (bench["run_seconds"] + 10) <= 3420


def test_every_layer_metric_says_what_it_should_move():
    for row in catalog.PER_LAYER:
        assert set(row["recorded_on"]) <= set(catalog.WORKLOADS), row
        assert row["recorded_on"], row
        if row["moves"] == "none":
            continue
        for metric, workload in row["moves"]:
            assert metric in catalog.END_TO_END, row
            assert workload in catalog.WORKLOADS, row


def test_quick_document_schema(quick_doc):
    doc, stdout = quick_doc
    assert doc["schema"] == "mpf-ledger/1"
    assert doc["claim"] is None
    assert doc["seed"] == 1987 and doc["quick"] and not doc["traced"]
    assert {"nproc", "python", "commit", "MPF_FUSION", "MPF_EPOCH"} <= set(
        doc["host"])
    assert list(doc["workloads"]) == list(catalog.WORKLOADS)
    for name, rec in doc["workloads"].items():
        assert rec["correct"], (name, rec["errors"], rec["missing"])
        assert rec["attempted"] >= 1 and rec["failed"] == 0
        assert set(rec["metrics"]) == set(catalog.END_TO_END)
        for metric, m in rec["metrics"].items():
            assert m["unit"] == catalog.END_TO_END[metric][0]
            assert m["value"] > 0, (name, metric)
            assert f"   {metric}" in stdout
    # Seed 1987 is checked against the pinned digests, not against itself.
    ref = load(os.path.join("benchmarks", "ledger", "reference.json"))
    for name in catalog.SIM_WORKLOADS:
        assert doc["workloads"][name]["expected_digest"] == \
            ref["digests"][name]


def test_traced_contract_line(tmp_path):
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        RUN + ["--workload", "sim_gauss64", "--seed", "7", "--seconds", "1",
               "--trace", "1", "--quick", "--trace-out", str(trace)],
        capture_output=True, text=True, env=clean_env(), timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == catalog.PER_LAYER_NAMES
    assert result["metrics"]["machine.engine.events"]["value"] > 0
    assert result["metrics"][
        "patterns.select_receive.checks_per_receive"]["value"] > 1
    with open(trace) as fh:
        spans = json.load(fh)["spans"]["sim_gauss64/seed7"]
    names = {s[0] for s in spans}
    assert {"runtime.sim.run", "machine.engine.run",
            "core.layout.format_region"} <= names
    by_index = dict(enumerate(spans))
    for name, start, end, parent, rep_id in spans:
        assert end >= start
        assert parent == -1 or by_index[parent][1] <= start


def test_inputs_follow_the_seed():
    from workloads import make_workload

    for name in catalog.WORKLOADS:
        a, b, c = (make_workload(name, s).input_digest for s in (5, 5, 6))
        assert a == b, name
        assert a != c, name


@pytest.mark.parametrize("transport", ["freelist", "ring"])
def test_corrupted_payload_is_a_failed_operation(monkeypatch, transport):
    from repro.runtime.base import Env
    from workloads import ProcsPipe, guarded

    wl = ProcsPipe(3, transport, n_stream=300, n_ping=40)
    clean = guarded(wl.rep, 60)
    assert "error" not in clean and clean["failed"] == 0

    original, sent = Env.message_send, [0]

    def corrupting(self, lnvc_id, data, prelude=None):
        sent[0] += 1
        if len(data) >= 16 and sent[0] % 7 == 0:
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        return original(self, lnvc_id, data, prelude)

    monkeypatch.setattr(Env, "message_send", corrupting)
    dirty = guarded(wl.rep, 60)
    assert "error" not in dirty and dirty["failed"] > 0


def test_watchdog_kills_a_hung_repetition():
    from workloads import guarded

    t0 = time.perf_counter()
    got = guarded(lambda: time.sleep(60) or {}, 0.5)
    assert "timed out" in got["error"]
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("var", ["MPF_EPOCH", "MPF_FUSION"])
def test_refuses_to_run_with_a_hatch_off(var):
    done = subprocess.run(RUN + ["--workload", "sim_bcast16", "--quick"],
                          capture_output=True, text=True,
                          env=clean_env(**{var: "off"}), timeout=60)
    assert done.returncode != 0
    assert var in done.stderr
    assert '"metrics"' not in done.stdout


def test_reference_agrees_with_the_archives():
    ref = load(os.path.join("benchmarks", "ledger", "reference.json"))
    fig5 = next(f for f in load("figures_full.json")
                if f["figure"] == "Figure 5")
    series = next(s for s in fig5["series"] if s["label"] == "1024B")
    archived = next(p["y"] for p in series["points"] if p["x"] == 16)
    assert ref["sim_bcast16"]["throughput_16x1024"] == archived

    base = load("serve_slo.json")["configs"]["baseline"]
    point = next(p for p in base["points"] if p["offered_rps"] == 300.0)
    # The archive's knee point: saturated, and long enough to shed.
    assert base["knee_rps"] == 300.0 and point["shed"] > 0
    assert point["goodput_rps"] < point["offered_rps"]
    # The ledger's point is the same configuration over a tenth of the
    # schedule: the same plateau, not yet shedding.
    ours = ref["sim_serve_knee"]
    assert ours["goodput_rps"] < ours["offered_rps"] == 300.0
    assert abs(ours["goodput_rps"] / point["goodput_rps"] - 1) < 0.02


def _doc(value, failed=0):
    return {"workloads": {"w": {"attempted": 10, "failed": failed, "metrics": {
        "msgs_per_s": {"value": value, "unit": "1/s"}}}}}


def test_compare_applies_the_bounds(tmp_path, capsys):
    paths = {}
    for key, doc in {"base": _doc(1000.0), "same": _doc(990.0),
                     "slow": _doc(500.0), "lossy": _doc(1000.0, failed=1)
                     }.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(doc, fh)
    assert compare.main([paths["base"], paths["same"]]) == 0
    assert compare.main([paths["base"], paths["slow"]]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([paths["base"], paths["lossy"]]) == 1
    assert compare.verdict([100, 140, 180], [101, 141, 181], "higher",
                           0.15) == "unresolved"
