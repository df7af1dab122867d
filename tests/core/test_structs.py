"""Unit tests for record field layouts and accessors."""

import pytest

from repro.core.layout import HDR
from repro.core.protocol import NAME_MAX
from repro.core.region import SharedRegion
from repro.core.structs import LNVC, MSG, RECV, SEND, Record, block_stride


def test_record_field_offsets_sequential():
    rec = Record("T", ("a", "b", "c"))
    assert rec.offsets == {"a": 0, "b": 4, "c": 8}
    assert rec.size == 12


def test_record_tail_bytes_extend_size():
    rec = Record("T", ("a",), tail_bytes=10)
    assert rec.tail_off == 4
    assert rec.size == 14


def test_record_get_set_add():
    rec = Record("T", ("a", "b"))
    r = SharedRegion(bytearray(64))
    rec.set(r, 16, "b", 7)
    assert rec.get(r, 16, "b") == 7
    assert rec.add(r, 16, "b", -2) == 5


def test_record_clear_zeroes_fields_and_tail():
    rec = Record("T", ("a",), tail_bytes=4)
    r = SharedRegion(bytearray(64))
    rec.set(r, 0, "a", 9)
    r.write(4, b"abcd")
    rec.clear(r, 0)
    assert rec.get(r, 0, "a") == 0
    assert r.read(4, 4) == b"\x00" * 4


def test_record_dump_snapshots_fields():
    rec = Record("T", ("x", "y"))
    r = SharedRegion(bytearray(16))
    rec.set(r, 0, "x", 1)
    rec.set(r, 0, "y", 2)
    assert rec.dump(r, 0) == {"x": 1, "y": 2}


def test_records_independent_at_different_bases():
    rec = Record("T", ("a",))
    r = SharedRegion(bytearray(64))
    rec.set(r, 0, "a", 1)
    rec.set(r, rec.size, "a", 2)
    assert rec.get(r, 0, "a") == 1
    assert rec.get(r, rec.size, "a") == 2


def test_lnvc_record_has_paper_fields():
    # The descriptor contents enumerated in paper §3.1.
    for field in ("nmsgs", "fifo_head", "fifo_tail", "fcfs_head",
                  "send_list", "recv_list"):
        assert field in LNVC.offsets


def test_lnvc_name_capacity():
    assert LNVC.size - LNVC.tail_off == NAME_MAX + 1


def test_recv_descriptor_has_individual_head():
    # "BROADCAST receive processes have an additional descriptor field
    # used for individual FIFO head pointers."
    assert "head" in RECV.offsets


def test_msg_header_fields():
    for field in ("length", "first_blk", "next_msg", "bcast_pending",
                  "busy", "flags", "seqno"):
        assert field in MSG.offsets


def test_send_descriptor_minimal():
    assert set(SEND.offsets) == {"pid", "next"}


def test_block_stride():
    assert block_stride(10) == 14  # the paper's 10-byte blocks
    assert block_stride(1) == 5
    assert block_stride(1024) == 1028


def test_free_link_aliases_first_field():
    # Free lists reuse offset 0; every record must have its first field
    # at offset 0 so the aliasing is well defined.
    for rec in (SEND, RECV, MSG, LNVC):
        assert min(rec.offsets.values()) == 0


def test_run_is_the_struct_of_adjacent_fields():
    rec = Record("T", ("a", "b", "c", "d"))
    assert rec.run("b", "d").format == "<III"
    assert rec.run("c", "c").format == "<I"
    r = SharedRegion(bytearray(64))
    for i, f in enumerate("abcd"):
        rec.set(r, 16, f, 10 + i)
    assert r.reader(rec.run("b", "d"))(16 + rec.offsets["b"]) == (11, 12, 13)
    with pytest.raises(ValueError):
        rec.run("c", "b")


def test_run_reads_a_u64_pair_as_one_value_and_never_splits_it():
    assert LNVC.run("nrecvs", "bytes_received_hi").format == "<IQQ"
    assert LNVC.run("bytes_sent", "bytes_sent_hi").format == "<Q"
    for first, last in (("nrecvs", "bytes_sent"),
                        ("bytes_sent_hi", "bytes_received_hi")):
        with pytest.raises(ValueError, match="u64 pair"):
            LNVC.run(first, last)
    r = SharedRegion(bytearray(LNVC.size))
    r.set_u64(LNVC.offsets["bytes_sent"], (5 << 32) | 9)
    assert LNVC.get(r, 0, "bytes_sent_hi") == 5
    assert r.reader(LNVC.run("bytes_sent", "bytes_sent_hi"))(
        LNVC.offsets["bytes_sent"]) == ((5 << 32) | 9,)


def test_pick_pads_the_gaps_it_skips():
    peek = LNVC.pick("in_use", "gen", "fcfs_head", "conn_epoch")
    assert peek.size == LNVC.offsets["conn_epoch"] + 4
    r = SharedRegion(bytearray(2 * LNVC.size))
    for f, v in (("in_use", 1), ("gen", 7), ("fcfs_head", 99),
                 ("conn_epoch", 3), ("fifo_head", 55)):
        LNVC.set(r, LNVC.size, f, v)
    assert r.reader(peek)(LNVC.size) == (1, 7, 99, 3)
    with pytest.raises(ValueError, match="out of order"):
        LNVC.pick("gen", "in_use")


def test_header_runs():
    assert HDR.run("free_msg", "live_bytes").format == "<IIIII"
    assert HDR.run("hwm_live_bytes", "hwm_live_msgs").format == "<QQ"
    for first, last in (("live_bytes", "free_msg"),
                        ("live_bytes", "total_sends")):
        with pytest.raises(ValueError):
            HDR.run(first, last)
