"""Controlled scheduling: determinism, policies, and clean scenarios."""

from __future__ import annotations

import pytest

from repro import FCFS, MPFConfig
from repro.check import (
    SCENARIOS,
    BoundedPolicy,
    Scenario,
    PrefixPolicy,
    RandomPolicy,
    explore,
    explore_dfs,
    run_schedule,
    run_real,
)


def test_same_seed_same_schedule():
    sc = SCENARIOS["fcfs-race"]
    a = run_schedule(sc, RandomPolicy(42))
    b = run_schedule(sc, RandomPolicy(42))
    assert a.status == b.status == "ok"
    assert a.decisions == b.decisions
    assert a.widths == b.widths
    assert a.events == b.events


def test_different_seeds_diverge():
    # Not guaranteed for any single pair, but over ten seeds at least
    # two must differ or the "random" policy is not randomizing.
    sc = SCENARIOS["fcfs-race"]
    runs = [tuple(run_schedule(sc, RandomPolicy(s)).decisions)
            for s in range(10)]
    assert len(set(runs)) > 1


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_clean_over_seeds(name):
    result = explore(SCENARIOS[name], seeds=range(15))
    assert result.failure is None, result.failure.detail
    assert result.by_status == {"ok": 15}


def test_steady_probes_actually_ran():
    out = run_schedule(SCENARIOS["fcfs-race"], RandomPolicy(0))
    assert out.status == "ok"
    assert out.steady_checks > 0


def test_decisions_match_widths():
    out = run_schedule(SCENARIOS["connect-churn"], RandomPolicy(1))
    assert out.status == "ok"
    assert len(out.decisions) == len(out.widths)
    assert all(0 <= d < w for d, w in zip(out.decisions, out.widths))
    assert all(w > 1 for w in out.widths)  # only real choices recorded


def test_prefix_policy_is_deterministic_replay():
    sc = SCENARIOS["mixed-protocol"]
    first = run_schedule(sc, RandomPolicy(7))
    again = run_schedule(sc, PrefixPolicy(first.decisions))
    assert again.status == first.status == "ok"
    assert again.decisions == first.decisions


def test_select_poll_offers_the_same_choices_fused_and_unfused():
    """The looping poll section parks at every step under the explorer.

    Same decision points, same widths, same event counts as the
    per-check loop — so a recorded trace replays either way, and the
    explorer covers every interleaving of the poll's acquire/walk/release
    with the sender's links.
    """
    from repro.core import ops

    sc = SCENARIOS["select-poll"]
    prev = ops.fusion_enabled()

    def walk(fused):
        ops.set_fusion(fused)
        outs = [run_schedule(sc, RandomPolicy(seed)) for seed in range(12)]
        assert all(o.status == "ok" for o in outs)
        return [(o.decisions, o.widths, o.events) for o in outs]

    try:
        assert walk(True) == walk(False)
    finally:
        ops.set_fusion(prev)


def test_bounded_policy_clean():
    result = explore(SCENARIOS["fcfs-race"], seeds=range(10),
                     policy="bounded", bound=2)
    assert result.failure is None
    assert result.by_status == {"ok": 10}


def test_dfs_explores_distinct_schedules():
    seen = []
    result = explore_dfs(SCENARIOS["fcfs-race"], max_runs=12,
                         on_run=lambda i, out: seen.append(tuple(out.decisions)))
    assert result.failure is None
    assert result.runs == len(seen) == 12
    assert len(set(seen)) == 12  # DFS never repeats a schedule


def test_bounded_policy_respects_bound():
    out = run_schedule(SCENARIOS["fcfs-race"], BoundedPolicy(3, bound=0))
    assert out.status == "ok"


def test_threads_cross_validation_clean():
    assert run_real(SCENARIOS["fcfs-race"], repeats=3,
                    join_timeout=30.0) == []


def test_procs_cross_validation_clean_and_catches_a_dropped_wake():
    """The same law on forked processes: the final invariants are
    collected inside ``ProcRuntime.run`` (``final_check``), before the
    segment is unlinked."""
    assert run_real(SCENARIOS["ring-wrap"], repeats=3, join_timeout=30.0,
                    runtime="procs") == []
    found = run_real(SCENARIOS["mixed-protocol"], fault="drop-wake",
                     repeats=3, join_timeout=2.0, runtime="procs")
    assert found and "suspected deadlock" in found[0]
    assert "blocked_on=('chan'" in found[0]


def _duplex_workers(bursts: int, burst: int):
    """Two peers, one circuit per direction, both sending at once."""

    def peer(out_name: str, in_name: str):
        def body(env):
            inbox = yield from env.open_receive(in_name, FCFS)
            outbox = yield from env.open_send(out_name)
            for b in range(bursts):
                for i in range(burst):
                    yield from env.message_send(outbox, b"%d.%d" % (b, i))
                for i in range(burst):
                    yield from env.message_receive(inbox)
            yield from env.close_receive(inbox)
            yield from env.close_send(outbox)

        return body

    return [peer("ab", "ba"), peer("ba", "ab")]


@pytest.mark.parametrize("runtime", ["threads", "procs"])
def test_header_counts_equal_delivered_counts_on_two_busy_circuits(runtime):
    """The delivery law under the shape that used to lose counter
    updates: two real workers counting on two circuits at the same
    moment, each under its own circuit's lock — header counts equal the
    logged traffic, and each circuit delivers exactly once, in order."""
    bursts, burst = 400, 8
    stress = Scenario(
        name="duplex-stress", doc="", faults=(),
        cfg=MPFConfig(max_lnvcs=4, max_processes=2, max_messages=64,
                      message_pool_bytes=1 << 12),
        build=lambda: _duplex_workers(bursts, burst),
    )
    assert run_real(stress, repeats=2, join_timeout=60.0,
                    runtime=runtime) == []
