"""Tests of the §4 synthetic benchmark programs themselves."""

from dataclasses import replace

import pytest

from repro.bench.workloads import (
    base_throughput,
    broadcast_throughput,
    fcfs_throughput,
    random_throughput,
)
from repro.machine.balance import BALANCE_21000


def test_base_counts_payload_once():
    m = base_throughput(100, messages=10)
    assert m.payload_bytes == 1000
    assert m.window > 0
    assert m.throughput == pytest.approx(1000 / m.window)


def test_base_deterministic():
    a = base_throughput(256, messages=8)
    b = base_throughput(256, messages=8)
    assert a.throughput == b.throughput


def test_base_leaves_clean_segment():
    m = base_throughput(64, messages=8)
    assert m.run.header["live_msgs"] == 0
    assert m.run.header["live_lnvcs"] == 0


def test_fcfs_total_traffic_accounted():
    n, L, msgs = 4, 64, 12
    m = fcfs_throughput(n, L, messages=msgs)
    # data messages + n sentinels, all of length L (sentinel same size).
    assert m.run.header["total_sends"] >= msgs + n
    assert m.payload_bytes == msgs * L


def test_fcfs_all_receivers_measured():
    m = fcfs_throughput(3, 128, messages=12)
    spans = [v for v in m.run.results.values() if isinstance(v, tuple)]
    assert len(spans) == 4  # sender + 3 receivers


def test_broadcast_counts_every_copy():
    n, L, msgs = 5, 64, 10
    m = broadcast_throughput(n, L, messages=msgs)
    assert m.payload_bytes == n * msgs * L
    # Every receiver copies every message; the two barriers add their
    # own bounded control traffic ((2n+2) receives each).
    receives = m.run.header["total_receives"]
    assert n * msgs <= receives <= n * msgs + 2 * (2 * n + 4)


def test_broadcast_faster_than_fcfs_at_same_shape():
    fc = fcfs_throughput(8, 1024, messages=24)
    bc = broadcast_throughput(8, 1024, messages=24)
    assert bc.throughput > 3 * fc.throughput


def test_random_needs_two_processes():
    with pytest.raises(ValueError):
        random_throughput(1, 64)


def test_random_deterministic_per_seed():
    a = random_throughput(4, 64, messages=8, seed=1)
    b = random_throughput(4, 64, messages=8, seed=1)
    c = random_throughput(4, 64, messages=8, seed=2)
    assert a.throughput == b.throughput
    assert a.throughput != c.throughput


def test_random_every_process_sends_quota():
    p, msgs = 5, 8
    m = random_throughput(p, 64, messages=msgs)
    # Quota data messages, the P*(P-1) done markers, and the two
    # barriers' control messages (P arrivals + 1 release each).
    expected = p * msgs + p * (p - 1) + 2 * (p + 1)
    assert m.run.header["total_sends"] == expected


def test_random_one_byte_messages():
    m = random_throughput(3, 1, messages=6)
    assert m.payload_bytes == 18
    assert m.throughput > 0


def test_machine_override_respected():
    fast_cpu = base_throughput(256, messages=8, machine=BALANCE_21000)
    slower_cpu = base_throughput(
        256, messages=8,
        machine=replace(BALANCE_21000, instr_seconds=1e-5),
    )
    assert slower_cpu.throughput < fast_cpu.throughput / 5
