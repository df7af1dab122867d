"""Tests for the simulated-machine runtime."""

import pytest

from repro.core.errors import RegionFormatError
from repro.core.inspect import inspect_segment
from repro.core.layout import MPFConfig
from repro.core.protocol import BROADCAST, FCFS, MsgFlags
from repro.core.structs import LNVC, MSG
from repro.machine.balance import BALANCE_21000, MachineConfig
from repro.machine.engine import DeadlockError
from repro.machine.stats import MachineReport
from repro.obs import Recorder
from repro.patterns import barrier
from repro.runtime.sim import SimRuntime


def ping(env):
    cid = yield from env.open_send("ping")
    yield from env.message_send(cid, b"ball")
    got = yield from env.message_receive(
        (yield from env.open_receive("pong", FCFS))
    )
    return got


def pong(env):
    rid = yield from env.open_receive("ping", FCFS)
    got = yield from env.message_receive(rid)
    cid = yield from env.open_send("pong")
    yield from env.message_send(cid, got[::-1])
    return got


def test_two_process_ping_pong():
    result = SimRuntime().run([ping, pong])
    assert result.results == {"p0": b"llab", "p1": b"ball"}
    assert result.kind == "sim"
    assert result.elapsed > 0


def test_elapsed_is_simulated_time_not_wall():
    # A gigantic compute finishes instantly in wall time.
    def cruncher(env):
        yield from env.compute(flops=10**9)
        return env.now()

    result = SimRuntime().run([cruncher])
    assert result.elapsed > 1000.0  # simulated seconds


def test_report_populated():
    result = SimRuntime().run([ping, pong])
    assert isinstance(result.report, MachineReport)
    assert result.report.sim_seconds == result.elapsed
    assert result.report.lock_acquires > 0
    assert result.report.copies >= 2


def test_header_snapshot():
    result = SimRuntime().run([ping, pong])
    assert result.header["total_sends"] == 2
    assert result.header["total_receives"] == 2
    assert result.header["live_msgs"] == 0


def test_deterministic_across_runs():
    a = SimRuntime().run([ping, pong])
    b = SimRuntime().run([ping, pong])
    assert a.elapsed == b.elapsed
    assert a.results == b.results
    assert a.report.events == b.report.events


def test_custom_machine_changes_timing():
    slow = MachineConfig(cpu_hz=1e6)  # 10x slower CPU
    fast = SimRuntime().run([ping, pong]).elapsed
    slower = SimRuntime(machine=slow).run([ping, pong]).elapsed
    assert slower > 5 * fast


def test_blocked_receive_raises_deadlock():
    def stuck(env):
        rid = yield from env.open_receive("nothing", FCFS)
        yield from env.message_receive(rid)

    with pytest.raises(DeadlockError):
        SimRuntime().run([stuck])


def test_post_mortem_state_is_the_failed_runs():
    """After a run that raised — a deadlock, a worker exception — a reused
    runtime points at *that* run's engine and segment, and its recorder
    has that run's event-queue counters (they were the previous run's)."""

    def lonely(env):
        rid = yield from env.open_receive("void", FCFS)
        yield from env.message_receive(rid)

    def bad(env):
        yield from env.open_send("half-open")
        raise ValueError("sim bug")

    for worker, error in ((lonely, DeadlockError), (bad, ValueError)):
        rec = Recorder()
        rt = SimRuntime(recorder=rec)
        rt.run([ping, pong])
        clean_view, clean = rt.last_view, dict(rec.machine)
        assert clean["runs"] == 1 and clean["events"] > 0
        with pytest.raises(error):
            rt.run([worker])
        assert rt.last_view is not clean_view
        assert rt.last_engine.processes[0].state != "done"
        names = {c.name for c in inspect_segment(rt.last_view).circuits}
        assert names == ({"void"} if worker is lonely else {"half-open"})
        assert rec.machine["runs"] == 2
        assert rec.machine["events"] == (
            clean["events"] + rt.last_engine.stats.events)

    rec = Recorder()
    with pytest.raises(DeadlockError):  # also on a fresh runtime
        SimRuntime(recorder=rec).run([lonely])
    assert rec.machine["events"] > 0


def test_lost_message_hazard_reproduced():
    """Paper §3.2: sender closes before receiver joins -> messages lost,
    receiver blocks forever.  The simulator diagnoses it as deadlock."""

    def early_sender(env):
        cid = yield from env.open_send("hazard")
        yield from env.message_send(cid, b"gone")
        yield from env.close_send(cid)

    def late_receiver(env):
        yield from env.compute(instrs=10**6)  # arrive after the close
        rid = yield from env.open_receive("hazard", FCFS)
        yield from env.message_receive(rid)

    with pytest.raises(DeadlockError):
        SimRuntime().run([early_sender, late_receiver])


def test_custom_names():
    def noop(env):
        yield from env.compute(instrs=1)
        return env.rank

    result = SimRuntime().run([noop, noop], names=["alice", "bob"])
    assert result.results == {"alice": 0, "bob": 1}


def test_duplicate_names_rejected():
    def noop(env):
        yield from env.compute(instrs=1)

    with pytest.raises(ValueError):
        SimRuntime().run([noop, noop], names=["x", "x"])


def test_worker_exception_propagates():
    def bad(env):
        yield from env.compute(instrs=1)
        raise RuntimeError("app bug")

    with pytest.raises(RuntimeError, match="app bug"):
        SimRuntime().run([bad])


def test_env_now_tracks_clock():
    stamps = []

    def proc(env):
        stamps.append(env.now())
        yield from env.compute(instrs=1000)
        stamps.append(env.now())

    SimRuntime().run([proc])
    assert stamps[1] - stamps[0] == pytest.approx(1e-3)


def test_env_rank_and_nprocs():
    def proc(env):
        yield from env.compute(instrs=1)
        return (env.rank, env.nprocs)

    result = SimRuntime().run([proc] * 3)
    assert result.result_list() == [(0, 3), (1, 3), (2, 3)]


def test_broadcast_fanout_on_sim():
    def sender(env):
        # Receivers join before the barrier-free send because the sim
        # starts everyone at t=0 and open_receive costs less than the
        # sender's open+compute path below.
        cid = yield from env.open_send("wave")
        yield from env.compute(instrs=100_000)
        yield from env.message_send(cid, b"all")

    def receiver(env):
        rid = yield from env.open_receive("wave", BROADCAST)
        return (yield from env.message_receive(rid))

    result = SimRuntime().run([sender, receiver, receiver, receiver])
    assert [result.results[f"p{i}"] for i in (1, 2, 3)] == [b"all"] * 3


def test_explicit_config_respected():
    def proc(env):
        cid = yield from env.open_send("c")
        yield from env.message_send(cid, b"x")
        return True

    cfg = MPFConfig(max_lnvcs=2, max_processes=1, max_messages=4,
                    message_pool_bytes=1 << 10)
    result = SimRuntime().run([proc], cfg=cfg)
    assert result.results["p0"] is True


@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "classic"])
def test_reap_refuses_a_cyclic_chain_instead_of_spinning(fusion):
    """p2 drains the short message while p1 still copies the long one at
    the FIFO head, so p1's completion reaps a message it never walked.
    Its chain is made cyclic meanwhile: the reap must raise (it used to
    walk "until NIL" forever, holding the allocator lock)."""
    def sender(env):
        sid = yield from env.open_send("c")
        yield from barrier(env, "go", 3)
        yield from env.message_send(sid, bytes(2000))
        yield from env.message_send(sid, bytes(10))
        r, base = env.view.region, env.view.layout.lnvc_off(0)
        tail = LNVC.get(r, base, "fifo_tail")
        while not MSG.get(r, tail, "flags") & MsgFlags.RETIRED:
            yield from env.compute(instrs=200)
        assert MSG.get(r, LNVC.get(r, base, "fifo_head"), "busy") == 1
        blk = MSG.get(r, tail, "first_blk")
        r.set_u32(blk, blk)

    def receiver(env):
        rid = yield from env.open_receive("c", FCFS)
        yield from barrier(env, "go", 3)
        if env.rank == 2:
            yield from env.compute(instrs=5000)  # p1 claims the long one
        yield from env.message_receive(rid)

    with pytest.raises(RegionFormatError, match="message header .* does not end"):
        SimRuntime(fusion=fusion).run(
            [sender, receiver, receiver],
            cfg=MPFConfig(max_lnvcs=8, max_processes=3))
