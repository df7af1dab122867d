"""Unit tests for the shared byte region."""

import struct
from multiprocessing import shared_memory

import pytest

from repro.core import chains
from repro.core.protocol import NIL
from repro.core.region import SharedRegion


def test_u32_roundtrip():
    r = SharedRegion(bytearray(64))
    r.set_u32(8, 0xDEADBEEF)
    assert r.u32(8) == 0xDEADBEEF


def test_u32_is_little_endian():
    r = SharedRegion(bytearray(8))
    r.set_u32(0, 0x01020304)
    assert r.read(0, 4) == b"\x04\x03\x02\x01"


def test_u32_masks_to_32_bits():
    r = SharedRegion(bytearray(8))
    r.set_u32(0, 0x1_0000_0002)
    assert r.u32(0) == 2


def test_add_u32_wraps():
    r = SharedRegion(bytearray(8))
    r.set_u32(0, 0xFFFFFFFF)
    assert r.add_u32(0, 1) == 0


def test_add_u32_negative_delta():
    r = SharedRegion(bytearray(8))
    r.set_u32(0, 10)
    assert r.add_u32(0, -3) == 7
    assert r.u32(0) == 7


def test_u64_roundtrip():
    r = SharedRegion(bytearray(16))
    r.set_u64(8, 1 << 40)
    assert r.u64(8) == 1 << 40


def test_add_u64_accumulates():
    r = SharedRegion(bytearray(8))
    for _ in range(5):
        r.add_u64(0, 1 << 33)
    assert r.u64(0) == 5 << 33


def test_read_write_bytes():
    r = SharedRegion(bytearray(32))
    r.write(5, b"hello")
    assert r.read(5, 5) == b"hello"
    assert r.read(4, 1) == b"\x00"


def test_read_out_of_bounds_raises():
    r = SharedRegion(bytearray(16))
    with pytest.raises(IndexError):
        r.read(10, 10)
    with pytest.raises(IndexError):
        r.read(-1, 4)


def test_write_out_of_bounds_raises():
    r = SharedRegion(bytearray(16))
    with pytest.raises(IndexError):
        r.write(14, b"abcd")


def test_fill():
    r = SharedRegion(bytearray(16))
    r.write(0, b"\xff" * 16)
    r.fill(4, 8)
    assert r.read(0, 16) == b"\xff" * 4 + b"\x00" * 8 + b"\xff" * 4


def test_out_of_range_is_an_index_error_for_the_whole_byte_family():
    """``fill`` raised ``ValueError`` from the memoryview, ``read`` of a
    negative length returned ``b""``: both now refuse with ``write``'s
    ``IndexError`` and leave the region alone."""
    r = SharedRegion(bytearray(64))
    r.write(0, b"\xff" * 64)
    for off, n in ((60, 8), (-4, 4), (0, -1), (64, 1)):
        with pytest.raises(IndexError, match="outside region of 64"):
            r.fill(off, n)
    for off, n in ((60, 8), (60, -8), (-4, 4)):
        with pytest.raises(IndexError, match="outside region of 64"):
            r.read(off, n)
    assert r.read(0, 64) == b"\xff" * 64
    r.fill(56, 8)  # the last fill that fits
    assert r.read(56, 8) == bytes(8)


def test_follow_refuses_a_negative_start():
    r = SharedRegion(bytearray(64))
    r.set_u32(60, NIL)
    with pytest.raises(IndexError, match="outside region of 64"):
        r.follow(-4, 1)  # would have walked from the last word
    assert r.follow(60, 4) == ([60], NIL)


def test_word_accessors_are_unchecked_and_say_so():
    """The per-word closures keep their cost: no bounds check of their
    own, so a negative offset counts from the end, as it does for
    ``struct`` on any buffer.  Their docstrings say it."""
    r = SharedRegion(bytearray(64))
    r.set_u32(-4, 7)
    assert r.u32(60) == 7 and r.add_u32(-4, 1) == 8
    for accessor in (r.u32, r.set_u32, r.add_u32,
                     SharedRegion.reader, SharedRegion.writer):
        assert "negative" in accessor.__doc__
    with pytest.raises(struct.error):
        r.u32(64)


def test_reader_and_writer_move_a_record_per_call():
    r = SharedRegion(bytearray(64))
    record = struct.Struct("<IIQ")
    write, read = r.writer(record), r.reader(record)
    write(8, 1, 2, 3 << 32)
    assert read(8) == (1, 2, 3 << 32)
    assert (r.u32(8), r.u32(12), r.u64(16)) == (1, 2, 3 << 32)
    assert r.read(0, 8) == bytes(8) and r.read(24, 40) == bytes(40)
    with pytest.raises(struct.error):
        write(8, 1 << 32, 0, 0)  # unlike set_u32, no silent masking


def test_writer_refuses_a_padded_record():
    r = SharedRegion(bytearray(64))
    with pytest.raises(ValueError, match="padded"):
        r.writer(struct.Struct("<I4xI"))
    assert r.reader(struct.Struct("<I4xI"))(0) == (0, 0)


def test_fill_nonzero_byte():
    r = SharedRegion(bytearray(8))
    r.fill(0, 8, 0xAB)
    assert r.read(0, 8) == b"\xab" * 8


def test_len():
    assert len(SharedRegion(bytearray(100))) == 100


def test_readonly_buffer_rejected():
    with pytest.raises(ValueError):
        SharedRegion(b"immutable bytes!")


def test_memoryview_backing():
    backing = bytearray(32)
    r = SharedRegion(memoryview(backing))
    r.set_u32(0, 42)
    assert backing[0] == 42


def test_writes_visible_through_backing():
    backing = bytearray(8)
    r = SharedRegion(backing)
    r.write(0, b"xy")
    assert bytes(backing[:2]) == b"xy"


# -- bulk accessors (the block-chain kernels' way into the region) -------------


def test_follow_walks_links_and_stops_at_nil_or_n():
    r = SharedRegion(bytearray(64))
    for off, nxt in ((8, 30), (30, 17), (17, NIL)):
        r.set_u32(off, nxt)
    assert r.follow(8, 2) == ([8, 30], 17)
    assert r.follow(8, 5) == ([8, 30, 17], NIL)
    assert r.follow(NIL, 3) == ([], NIL)
    assert r.follow(8, 0) == ([], 8)


def test_follow_refuses_a_link_outside_the_region():
    r = SharedRegion(bytearray(64))
    r.set_u32(8, 62)
    with pytest.raises(IndexError, match="outside region of 64"):
        r.follow(8, 3)


def test_release_drops_array_views_before_the_memoryview():
    # SharedMemory.close() raises BufferError while any export is alive;
    # the C kernels export the buffer as a char[] array on their first
    # call (``cbuf``).
    k = chains.ACTIVE
    shm = shared_memory.SharedMemory(create=True, size=4096)
    try:
        r = SharedRegion(shm.buf)
        for off, nxt in ((0, 100), (100, NIL)):
            r.set_u32(off, nxt)
        assert k.pop(r, 0, 2) == (100, NIL)
        assert (r.cbuf is not None) == (k.name == "c")
        r.release()
        shm.close()
    finally:
        shm.unlink()
