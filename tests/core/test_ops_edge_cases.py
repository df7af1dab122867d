"""Edge-case tests for identifiers, statistics and boundary payloads."""

import pytest

from repro.core import ops
from repro.core.effects import Acquire, Release
from repro.core.errors import NotConnectedError, UnknownLNVCError
from repro.core.inspect import check_invariants, inspect_segment
from repro.core.protocol import ALLOC_LOCK, FCFS, NIL
from repro.core.structs import LNVC
from repro.core.work import Work
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

    def test_config_refuses_more_circuits_than_an_id_can_address(self):
        # Slot 1024's id would decode as slot 0, generation 1.
        from repro.core.errors import MPFConfigError
        from repro.core.layout import MPFConfig

        with pytest.raises(MPFConfigError, match="SLOT_BITS"):
            MPFConfig(max_lnvcs=(1 << SLOT_BITS) + 1)

    def test_generation_wraps_at_the_identifier_width(self, v, r):
        base = v.layout.lnvc_off(0)
        LNVC.set(v.region, base, "gen", (1 << (32 - SLOT_BITS)) - 1)
        last = r.run(ops.open_send(v, 0, "wrap"))
        assert last < 1 << 32 and decode_lnvc_id(last)[0] == 0
        r.run(ops.close_send(v, 0, last))
        assert LNVC.get(v.region, base, "gen") == 0
        assert r.run(ops.open_send(v, 0, "wrap")) == encode_lnvc_id(0, 0)

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


_HOT_OPS = {
    "send": lambda v, pid, cid: ops.message_send(v, pid, cid, b"x" * 25),
    "receive": ops.message_receive,
    "check": ops.check_receive,
    "poll": lambda v, pid, cid: ops.poll_receive(
        v, pid, (cid,), Work(instrs=400, label="app-compute")),
}


class TestIdsOutsideTheTable:
    """A garbage id costs nothing: no charge, no lock, no allocation."""

    @pytest.mark.parametrize("transport", ["freelist", "ring"])
    @pytest.mark.parametrize("op", ["send", "receive", "check", "poll"])
    def test_rejected_before_the_first_effect(self, op, transport):
        v = make_view(transport=transport)
        r = DirectRunner(v)
        live = r.run(ops.open_send(v, 0, "c"))
        r.run(ops.open_receive(v, 0, "c", FCFS))
        r.run(ops.message_send(v, 0, live, b"queued"))
        garbage = encode_lnvc_id(v.cfg.max_lnvcs, 0)
        before = v.region.read(0, v.layout.total_size)
        with pytest.raises(UnknownLNVCError, match="no such slot"):
            next(_HOT_OPS[op](v, 0, garbage))  # raises instead of yielding
        # live_msgs / live_blocks / live_bytes, both free lists, the lot.
        assert v.region.read(0, v.layout.total_size) == before
        assert not v._fs_poll_cache

    def test_poll_checks_the_whole_set_first(self, v, r):
        live = r.run(ops.open_receive(v, 0, "c", FCFS))
        gen = ops.poll_receive(v, 0, (live, 31337), Work(instrs=1))
        with pytest.raises(UnknownLNVCError, match="31337: no such slot"):
            next(gen)

    @pytest.mark.parametrize("op", ["send", "receive", "check", "poll"])
    @pytest.mark.parametrize("how,match", [
        ("deleted", "circuit deleted"), ("recycled", "stale generation")])
    def test_ids_inside_it_are_still_judged_under_the_circuit_lock(
            self, v, op, how, match):
        r = DirectRunner(v)
        stale = r.run(ops.open_send(v, 0, "c"))
        r.run(ops.close_send(v, 0, stale))
        if how == "recycled":
            r.run(ops.open_send(v, 0, "c"))
        lock = v.lnvc_lock(decode_lnvc_id(stale)[0])
        gen, seen = _HOT_OPS[op](v, 0, stale), []
        with pytest.raises(UnknownLNVCError, match=match):
            while True:
                seen.append(gen.send(None))
        locks = [(type(e), e.lock_id) for e in seen
                 if isinstance(e, (Acquire, Release))]
        assert (Acquire, lock) in locks
        assert locks[-1] == (Release, ALLOC_LOCK if op == "send" else lock)
        check_invariants(v, level="steady")


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

    def test_connection_lookup_is_the_walk_cached_or_not(self, v):
        """`recv_conn` / `send_conn` answer what the list walk answers;
        `cached_recv` only ever repeats them, and forgets on any list
        change (`conn_epoch`)."""
        r = DirectRunner(v)
        cid = r.run(ops.open_send(v, 0, "q"))
        for pid in (1, 2, 3):
            r.run(ops.open_receive(v, pid, "q", FCFS))
        base = v.layout.lnvc_off(decode_lnvc_id(cid)[0])
        assert v.cached_recv(1, cid) == NIL
        for _ in range(2):  # walked, then cached
            for pid in (1, 2, 3):
                desc, _, steps = ops._find_recv(v, base, pid)
                assert v.recv_conn(pid, cid) == (desc, steps)
                assert v.cached_recv(pid, cid) == desc
            assert v.send_conn(0, cid) == ops._find_send(v, base, 0)[2] == 1
        r.run(ops.open_receive(v, 4, "q", FCFS))  # pushes at the list head
        assert v.cached_recv(1, cid) == NIL
        assert v.recv_conn(1, cid)[1] == 4
        with pytest.raises(NotConnectedError, match="no receive connection"):
            v.recv_conn(0, cid)
        with pytest.raises(NotConnectedError, match="no send connection"):
            v.send_conn(1, cid)
