"""Topology builder end-to-end: shapes, configs, cross-runtime runs."""

import pytest

from repro.obs import CausalTracer, Recorder
from repro.serve import ServeShape, serve_config
from repro.serve.sweep import client_schedules, run_point
from repro.serve.topology import serve_machine

SMALL = ServeShape(clients=2, frontends=2, workers=3)


class TestShape:
    def test_counts_and_circuits(self):
        assert SMALL.nprocs == 2 + 2 + 3 + 1
        assert SMALL.circuits == 2 + 3 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeShape(clients=0)
        with pytest.raises(ValueError):
            ServeShape(batch=0)
        with pytest.raises(ValueError):
            ServeShape(policy="drop")
        with pytest.raises(ValueError):
            ServeShape(reply_bytes=8)  # smaller than the request record

    def test_with_load_features_clones(self):
        shape = SMALL.with_load_features(batch=8)
        assert shape.batch == 8
        assert SMALL.batch == 1  # original untouched
        assert shape.clients == SMALL.clients


class TestConfig:
    def test_headers_never_bind_before_blocks(self):
        cfg = serve_config(SMALL)
        # Worst case all-minimal messages: each holds >= 1 block, so
        # max_messages > n_blocks means header exhaustion is unreachable
        # and backpressure always comes from the block pool.
        assert cfg.max_messages > cfg.n_blocks

    def test_machine_scales_cpus_and_disables_paging(self):
        big = ServeShape(clients=16, frontends=16, workers=16)
        m = serve_machine(big)
        assert m.n_cpus >= big.nprocs
        assert m.page_fault_seconds == 0


class TestEndToEnd:
    def test_all_requests_complete_below_saturation(self):
        point, _ = run_point(SMALL, rate=100.0, n_requests=200)
        assert point["completed"] == point["offered"] == 200
        assert point["shed"] == 0
        assert 0 < point["p50_ms"] <= point["p99_ms"] <= point["p999_ms"]
        assert point["goodput_rps"] > 0

    def test_batching_completes_the_same_requests(self):
        batched = SMALL.with_load_features(batch=4)
        a, _ = run_point(SMALL, rate=100.0, n_requests=200)
        b, _ = run_point(batched, rate=100.0, n_requests=200)
        assert a["completed"] == b["completed"] == 200
        # Batching amortizes per-message overhead: fewer MPF messages
        # for the same logical work.
        assert b["mpf_messages"] < a["mpf_messages"]

    def test_poisson_schedule_reproducible_across_runtimes(self):
        # The seeded arrival schedule is generated identically for every
        # runtime: same digest, same offered count, and the service
        # completes the same logical requests on sim and real threads.
        shape = ServeShape(clients=2, frontends=2, workers=2)
        sim, _ = run_point(shape, rate=150.0, n_requests=60, seed=42,
                           runtime="sim")
        thr, _ = run_point(shape, rate=150.0, n_requests=60, seed=42,
                           runtime="threads")
        assert sim["schedule_digest"] == thr["schedule_digest"]
        assert sim["offered"] == thr["offered"] == 60
        assert sim["completed"] == thr["completed"] == 60

    def test_causal_tracing_attaches_bounded_tracer(self):
        point, rec = run_point(SMALL, rate=100.0, n_requests=100,
                               recorder=Recorder(causal=CausalTracer(256)))
        assert rec.causal.stride > 1
        assert len(rec.causal.events) <= 256
        assert point["completed"] == 100


class TestSchedules:
    def test_split_preserves_total_and_digest_determinism(self):
        a, da = client_schedules(200.0, 1000, seed=7, clients=4)
        b, db = client_schedules(200.0, 1000, seed=7, clients=4)
        assert sum(len(s) for s in a) == 1000
        assert da == db
        assert a == b
        _, dc = client_schedules(200.0, 1000, seed=8, clients=4)
        assert dc != da
