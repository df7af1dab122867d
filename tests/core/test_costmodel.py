"""Unit tests for the cost model and work descriptors."""

from repro.core import ops
from repro.core.costmodel import Costs, DEFAULT_COSTS, free_costs
from repro.core.protocol import FCFS
from repro.core.work import Work
from repro.testing import DirectRunner, make_view


def test_default_costs_nonzero():
    for f in Costs.__dataclass_fields__:
        assert getattr(DEFAULT_COSTS, f) > 0


def test_free_costs_all_zero():
    z = free_costs()
    for f in Costs.__dataclass_fields__:
        assert getattr(z, f) == 0


def test_work_addition():
    a = Work(instrs=1, copy_bytes=2, blocks=3)
    b = Work(instrs=10, flops=5, label="x")
    c = a + b
    assert (c.instrs, c.copy_bytes, c.blocks, c.flops) == (11, 2, 3, 5)
    assert c.label == "x"


def test_work_is_zero():
    assert Work().is_zero()
    assert not Work(instrs=1).is_zero()
    assert not Work(page_bytes=1).is_zero()


def test_ops_logic_independent_of_cost_constants():
    """The same op sequence must produce identical shared state under a
    zero-cost model — costs inform timing, never behaviour."""
    results = []
    for costs in (DEFAULT_COSTS, free_costs()):
        v = make_view(costs=costs)
        r = DirectRunner(v)
        cid = r.run(ops.open_send(v, 0, "c"))
        r.run(ops.open_receive(v, 1, "c", FCFS))
        r.run(ops.message_send(v, 0, cid, b"payload!"))
        results.append(r.run(ops.message_receive(v, 1, cid)))
    assert results[0] == results[1] == b"payload!"


def test_send_charge_scales_with_blocks():
    v = make_view()
    r = DirectRunner(v)
    cid = r.run(ops.open_send(v, 0, "c"))
    r.run(ops.open_receive(v, 0, "c", FCFS))

    def instrs_for(n):
        r.charged.clear()
        r.run(ops.message_send(v, 0, cid, b"x" * n))
        total = r.total_instrs()
        r.run(ops.message_receive(v, 0, cid))
        return total

    small, large = instrs_for(10), instrs_for(1000)
    assert large > small + 90 * DEFAULT_COSTS.blk_fill  # ~99 extra blocks
