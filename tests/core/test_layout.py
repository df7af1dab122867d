"""Unit tests for segment sizing, layout and formatting."""

import pytest

from repro.core.errors import MPFConfigError, RegionFormatError
from repro.core.freelist import fl_count
from repro.core.layout import HDR, MPFConfig, SegmentLayout, check_region, format_region
from repro.core.protocol import MAGIC, VERSION
from repro.core.region import SharedRegion
from repro.core.structs import LNVC, MSG, RECV, SEND, block_stride


def _fresh(cfg):
    region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
    layout = format_region(region, cfg)
    return region, layout


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = MPFConfig()
        assert cfg.block_size == 10  # the paper's experimental block size

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_lnvcs=0),
            dict(max_processes=0),
            dict(block_size=0),
            dict(max_messages=0),
            dict(send_descriptors=-1),
            dict(message_pool_bytes=4),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(MPFConfigError):
            MPFConfig(**kwargs)

    def test_transport_overrides_come_back_as_pairs(self):
        # A config read back from JSON carries lists; it must equal (and
        # hash like) the one that was written.
        cfg = MPFConfig(transports=[["f", "freelist"]])
        assert cfg == MPFConfig(transports=(("f", "freelist"),))
        assert hash(cfg) == hash(MPFConfig(transports=(("f", "freelist"),)))

    def test_derived_descriptor_pools(self):
        cfg = MPFConfig(max_lnvcs=4, max_processes=3)
        assert cfg.n_send == 12
        assert cfg.n_recv == 12

    def test_explicit_descriptor_pools(self):
        cfg = MPFConfig(send_descriptors=7, recv_descriptors=9)
        assert cfg.n_send == 7
        assert cfg.n_recv == 9

    def test_derived_pools_capped(self):
        cfg = MPFConfig(max_lnvcs=1000, max_processes=1000)
        assert cfg.n_send == 65536

    def test_n_blocks_from_pool_bytes(self):
        cfg = MPFConfig(block_size=10, message_pool_bytes=1400)
        assert cfg.n_blocks == 1400 // 14

    def test_lock_and_channel_counts(self):
        cfg = MPFConfig(max_lnvcs=5)
        assert cfg.n_locks == 7  # global + alloc + one per circuit
        assert cfg.n_channels == 5


class TestLayout:
    def test_pools_do_not_overlap(self):
        cfg = MPFConfig(max_lnvcs=4, max_processes=4, max_messages=16,
                        message_pool_bytes=1 << 12)
        lay = SegmentLayout(cfg)
        spans = [
            (0, HDR.size),
            (lay.lnvc_base, lay.lnvc_base + cfg.max_lnvcs * LNVC.size),
            (lay.send_base, lay.send_base + cfg.n_send * SEND.size),
            (lay.recv_base, lay.recv_base + cfg.n_recv * RECV.size),
            (lay.msg_base, lay.msg_base + cfg.max_messages * MSG.size),
            (lay.blk_base, lay.blk_base + cfg.n_blocks * lay.blk_stride),
        ]
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0, "pool overlap"
        assert spans[-1][1] <= lay.total_size

    def test_lnvc_slot_offset_roundtrip(self):
        lay = SegmentLayout(MPFConfig(max_lnvcs=8))
        for slot in range(8):
            assert lay.lnvc_slot(lay.lnvc_off(slot)) == slot

    def test_blk_stride_includes_link(self):
        assert SegmentLayout(MPFConfig(block_size=10)).blk_stride == 14
        assert block_stride(1) == 5


class TestFormat:
    def test_header_written(self):
        cfg = MPFConfig(max_lnvcs=4, max_processes=4)
        region, _ = _fresh(cfg)
        assert HDR.get(region, "magic") == MAGIC
        assert HDR.get(region, "version") == VERSION
        assert HDR.get(region, "max_lnvcs") == 4
        assert HDR.get(region, "block_size") == 10

    def test_free_lists_full_after_format(self):
        cfg = MPFConfig(max_lnvcs=4, max_processes=2, max_messages=10,
                        message_pool_bytes=1 << 12)
        region, _ = _fresh(cfg)
        assert fl_count(region, HDR.u32["free_msg"]) == 10
        assert fl_count(region, HDR.u32["free_blk"]) == cfg.n_blocks
        assert fl_count(region, HDR.u32["free_send"]) == cfg.n_send
        assert fl_count(region, HDR.u32["free_recv"]) == cfg.n_recv

    def test_counters_start_zero(self):
        region, _ = _fresh(MPFConfig())
        for f in ("live_msgs", "live_blocks", "live_bytes", "live_lnvcs",
                  "total_sends", "total_receives"):
            assert HDR.get(region, f) == 0

    def test_undersized_region_rejected(self):
        cfg = MPFConfig()
        with pytest.raises(MPFConfigError, match="too small"):
            format_region(SharedRegion(bytearray(128)), cfg)

    def test_reformat_clears_previous_state(self):
        cfg = MPFConfig(max_lnvcs=2, max_processes=2)
        region, _ = _fresh(cfg)
        HDR.set(region, "live_msgs", 99)
        format_region(region, cfg)
        assert HDR.get(region, "live_msgs") == 0


class TestCheckRegion:
    def test_accepts_matching_segment(self):
        cfg = MPFConfig(max_lnvcs=4)
        region, lay = _fresh(cfg)
        assert check_region(region, cfg).total_size == lay.total_size

    def test_rejects_unformatted(self):
        cfg = MPFConfig()
        region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
        with pytest.raises(RegionFormatError, match="magic"):
            check_region(region, cfg)

    def test_rejects_config_mismatch(self):
        region, _ = _fresh(MPFConfig(max_lnvcs=4))
        with pytest.raises(RegionFormatError, match="does not match"):
            check_region(region, MPFConfig(max_lnvcs=8))

    def test_rejects_tiny_region(self):
        with pytest.raises(RegionFormatError):
            check_region(SharedRegion(bytearray(4)), MPFConfig())

    @pytest.mark.parametrize("pool", ["send_descriptors", "recv_descriptors"])
    def test_rejects_descriptor_pool_mismatch(self, pool):
        # The header echoes both pool sizes; a layout built from the
        # wrong one puts every later pool at the wrong offset.
        region, _ = _fresh(MPFConfig(**{pool: 7}))
        with pytest.raises(RegionFormatError, match="n_(send|recv) does not match"):
            check_region(region, MPFConfig())

    def test_rejects_config_larger_than_region(self):
        # Ring geometry is not in the header: a config that claims more
        # slots than the segment was made with must not map past its end.
        region, _ = _fresh(MPFConfig(transport="ring", ring_slots=4,
                                     ring_slot_bytes=32))
        with pytest.raises(RegionFormatError, match="smaller than"):
            check_region(region, MPFConfig(transport="ring"))
