"""Figure 6 — random benchmark: fully connected random traffic."""

from dataclasses import replace

import pytest

from repro.bench.workloads import random_throughput
from repro.machine.balance import BALANCE_21000


@pytest.mark.figure("fig6")
def test_fig6_point_10p_1024B(benchmark):
    m = benchmark.pedantic(
        random_throughput, args=(10, 1024), kwargs=dict(messages=24),
        rounds=3, iterations=1,
    )
    assert m.throughput > 80_000


@pytest.mark.figure("fig6")
def test_fig6_throughput_grows_with_processes():
    """"message throughput increases as additional processes are added
    ... MPF can support concurrent operation on multiple LNVC's"."""
    for length in (64, 256):
        t2 = random_throughput(2, length, messages=24).throughput
        t10 = random_throughput(10, length, messages=24).throughput
        assert t10 > 2.5 * t2


@pytest.mark.figure("fig6")
def test_fig6_decreasing_slope():
    """"We expect increasing overhead with more processes ... evident in
    the decreasing slope of the throughput curves"."""
    t2 = random_throughput(2, 256, messages=24).throughput
    t10 = random_throughput(10, 256, messages=24).throughput
    t20 = random_throughput(20, 256, messages=24).throughput
    slope_early = (t10 - t2) / 8
    slope_late = (t20 - t10) / 10
    assert slope_late < slope_early


@pytest.mark.figure("fig6")
def test_fig6_paging_bends_1024B_down():
    """"For 1024-byte messages, paging overhead increases rapidly for
    more than 10 processes; this is the reason for the decrease in
    observed throughput"."""
    m10 = random_throughput(10, 1024, messages=24)
    m20 = random_throughput(20, 1024, messages=24)
    assert m20.run.report.page_faults > 5 * max(1.0, m10.run.report.page_faults)
    # Without paging (free faults) the same sweep keeps growing.
    no_vm = replace(BALANCE_21000, page_fault_seconds=0)
    n10 = random_throughput(10, 1024, messages=24, machine=no_vm)
    n20 = random_throughput(20, 1024, messages=24, machine=no_vm)
    assert n20.throughput > n10.throughput
    # With paging, 20 processes lose a visible share vs the no-VM world.
    assert m20.throughput < 0.8 * n20.throughput


@pytest.mark.figure("fig6")
def test_fig6_small_messages_no_paging_at_10():
    """256-byte messages only begin to fault near 20 processes."""
    m10 = random_throughput(10, 256, messages=24)
    assert m10.run.report.page_faults == 0
