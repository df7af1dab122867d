"""Tests for the write-through cache model."""

from dataclasses import replace

import pytest

from repro.machine.balance import BALANCE_21000, MachineConfig
from repro.machine.cache import CacheModel
from repro.machine.cpu import BalanceTiming


def make(cache=1000, miss=0.001):
    return CacheModel(cache_bytes=cache, miss_seconds=miss)


def test_small_working_set_never_stalls():
    c = make()
    c.set_demand_source(lambda: 500)
    assert c.penalty(100) == 0.0
    assert c.stall_time == 0.0


def test_overflowing_working_set_stalls_proportionally():
    c = make(cache=1000)
    c.set_demand_source(lambda: 2000)  # miss fraction 0.5
    dt = c.penalty(10)
    assert dt == pytest.approx(5 * 0.001)
    assert c.stalled_blocks == pytest.approx(5.0)


def test_miss_fraction_clamped():
    c = make(cache=1)
    c.set_demand_source(lambda: 10**9)
    assert c.miss_fraction() == pytest.approx(1.0, abs=1e-6)


def test_disabled_model_free():
    # A free miss turns the model off: no demand is even read.
    c = make(miss=0)
    c.set_demand_source(lambda: 1 / 0)
    assert c.penalty(1000) == 0.0
    assert c.stalled_blocks == 0


def test_zero_blocks_free():
    c = make()
    c.set_demand_source(lambda: 10**9)
    assert c.penalty(0) == 0.0


def test_invalid_parameters():
    with pytest.raises(ValueError, match="cache_bytes"):
        MachineConfig(cache_bytes=0)
    with pytest.raises(ValueError, match="cache_miss_seconds"):
        MachineConfig(cache_miss_seconds=-1.0)


def test_machine_config_cache_switch():
    assert BALANCE_21000.cache_miss_seconds > 0
    off = replace(BALANCE_21000, cache_miss_seconds=0)
    assert BalanceTiming(off).cache.penalty(10**6) == 0.0


def test_cache_effect_is_second_order_on_base():
    """The base benchmark's hot block reuse means the cache model must
    barely move its throughput — the design intent of the model."""
    from repro.bench.workloads import base_throughput

    on = base_throughput(1024, messages=24).throughput
    off = base_throughput(
        1024, messages=24,
        machine=replace(BALANCE_21000, cache_miss_seconds=0),
    ).throughput
    assert abs(on - off) / off < 0.05


def test_cache_stalls_reported_for_deep_queues():
    """A queued burst larger than 8 KB of blocks stalls its drain."""
    from repro.core.layout import MPFConfig
    from repro.core.protocol import FCFS
    from repro.runtime.sim import SimRuntime

    def burster(env):
        sid = yield from env.open_send("burst")
        rid = yield from env.open_receive("burst", FCFS)
        for _ in range(12):  # 12 x 103 blocks x 14 B ~ 17 KB live
            yield from env.message_send(sid, b"x" * 1024)
        for _ in range(12):
            yield from env.message_receive(rid)

    cfg = MPFConfig(max_lnvcs=4, max_processes=1, max_messages=32,
                    message_pool_bytes=1 << 18)
    result = SimRuntime().run([burster], cfg=cfg)
    assert result.report.cache_stalled_blocks > 100
