"""Edge-case tests for identifiers, statistics and boundary payloads."""

import pytest

from repro.core import ops
from repro.core.errors import UnknownLNVCError
from repro.core.inspect import check_invariants, inspect_segment
from repro.core.protocol import FCFS
from repro.core.structs import LNVC
from repro.core.ops import SLOT_BITS, decode_lnvc_id, encode_lnvc_id
from repro.testing import DirectRunner, make_view


@pytest.fixture
def v():
    return make_view()


@pytest.fixture
def r(v):
    return DirectRunner(v)


class TestIdentifiers:
    @pytest.mark.parametrize("slot,gen", [(0, 0), (1023, 0), (0, 1),
                                          (7, 12345), (1023, 0x3FFFFF)])
    def test_encode_decode_roundtrip(self, slot, gen):
        assert decode_lnvc_id(encode_lnvc_id(slot, gen)) == (slot, gen)

    def test_slot_bits_cover_config_limit(self):
        from repro.core.layout import MPFConfig

        # The id encoding must address every legal slot.
        assert MPFConfig(max_lnvcs=1 << SLOT_BITS).max_lnvcs == 1024

    @pytest.mark.parametrize("transport", ["freelist", "ring"])
    def test_generation_bits_round_trip_through_both_transports(self, transport):
        # One SLOT_BITS (core/protocol.py): the generation each
        # transport's send/receive checks is the one the open encoded.
        v = make_view(transport=transport)
        r = DirectRunner(v)
        r.run(ops.close_send(v, 0, r.run(ops.open_send(v, 0, "c"))))
        cid = r.run(ops.open_send(v, 0, "c"))
        assert r.run(ops.open_receive(v, 0, "c", FCFS)) == cid
        assert cid >> SLOT_BITS == LNVC.get(v.region, v.layout.lnvc_off(0), "gen") == 1
        r.run(ops.message_send(v, 0, cid, b"x"))
        assert r.run(ops.message_receive(v, 0, cid)) == b"x"

    def test_generation_survives_multiple_recycles(self, v, r):
        ids = []
        for i in range(5):
            cid = r.run(ops.open_send(v, 0, "churn"))
            ids.append(cid)
            r.run(ops.close_send(v, 0, cid))
        assert len(set(ids)) == 5  # every incarnation distinct
        for stale in ids:
            with pytest.raises(UnknownLNVCError):
                r.run(ops.check_receive(v, 0, stale))

    def test_stale_id_does_not_alias_new_circuit(self, v, r):
        old = r.run(ops.open_send(v, 0, "x"))
        r.run(ops.close_send(v, 0, old))
        new = r.run(ops.open_send(v, 0, "x"))
        r.run(ops.message_send(v, 0, new, b"fresh"))
        with pytest.raises(UnknownLNVCError):
            r.run(ops.message_send(v, 0, old, b"stale"))
        r.run(ops.open_receive(v, 0, "x", FCFS))
        assert r.run(ops.message_receive(v, 0, new)) == b"fresh"


class TestQueueHighWaterMark:
    def test_hwm_tracks_deepest_point(self, v, r):
        cid = r.run(ops.open_send(v, 0, "q"))
        r.run(ops.open_receive(v, 0, "q", FCFS))
        for _ in range(5):
            r.run(ops.message_send(v, 0, cid, b"m"))
        for _ in range(5):
            r.run(ops.message_receive(v, 0, cid))
        r.run(ops.message_send(v, 0, cid, b"m"))
        info = inspect_segment(v).circuit("q")
        assert info.queued == 1
        assert info.peak_queued == 5

    def test_hwm_reset_with_circuit(self, v, r):
        cid = r.run(ops.open_send(v, 0, "q"))
        for _ in range(3):
            r.run(ops.message_send(v, 0, cid, b"m"))
        r.run(ops.close_send(v, 0, cid))  # deletes circuit
        r.run(ops.open_send(v, 0, "q"))
        assert inspect_segment(v).circuit("q").peak_queued == 0

    def test_render_mentions_peak(self, v, r):
        from repro.core.inspect import render_segment

        cid = r.run(ops.open_send(v, 0, "q"))
        r.run(ops.message_send(v, 0, cid, b"m"))
        assert "(peak 1)" in render_segment(inspect_segment(v))


class TestBoundaryPayloads:
    def test_empty_message_with_zero_max_len(self, v, r):
        cid = r.run(ops.open_send(v, 0, "q"))
        r.run(ops.open_receive(v, 0, "q", FCFS))
        r.run(ops.message_send(v, 0, cid, b""))
        assert r.run(ops.message_receive(v, 0, cid, max_len=0)) == b""

    def test_single_byte_block_size(self):
        v = make_view(block_size=1)
        r = DirectRunner(v)
        cid = r.run(ops.open_send(v, 0, "q"))
        r.run(ops.open_receive(v, 0, "q", FCFS))
        r.run(ops.message_send(v, 0, cid, b"abc"))
        assert r.run(ops.message_receive(v, 0, cid)) == b"abc"
        check_invariants(v)  # all three blocks back, accounting intact

    def test_message_exactly_filling_pool(self):
        v = make_view(block_size=10, message_pool_bytes=14 * 5)  # 5 blocks
        r = DirectRunner(v)
        cid = r.run(ops.open_send(v, 0, "q"))
        r.run(ops.open_receive(v, 0, "q", FCFS))
        r.run(ops.message_send(v, 0, cid, b"x" * 50))
        assert r.run(ops.message_receive(v, 0, cid)) == b"x" * 50


class TestSearchCosts:
    def test_open_charges_grow_with_table_position(self, v):
        """Name-table scans cost per slot examined — the model charges
        what the algorithm does."""
        r = DirectRunner(v)
        for i in range(6):
            r.run(ops.open_send(v, 0, f"c{i}"))
        r.charged.clear()
        r.run(ops.open_send(v, 1, "c0"))
        early = r.total_instrs()
        r.charged.clear()
        r.run(ops.open_send(v, 1, "c5"))
        late = r.total_instrs()
        assert late > early

    def test_recv_list_walk_charged(self, v):
        r = DirectRunner(v)
        cid = r.run(ops.open_send(v, 0, "q"))
        for pid in range(1, 6):
            r.run(ops.open_receive(v, pid, "q", FCFS))
        r.run(ops.message_send(v, 0, cid, b"m"))
        # Descriptors push at the list head, so the first-opened receiver
        # (pid 1) sits deepest and pays the longest walk.
        r.charged.clear()
        r.run(ops.check_receive(v, 1, cid))  # opened first -> deep in list
        deep = r.total_instrs()
        r.charged.clear()
        r.run(ops.check_receive(v, 5, cid))  # opened last -> list head
        shallow = r.total_instrs()
        assert deep > shallow
