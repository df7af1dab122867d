"""Tests for the Gauss–Jordan application (Figure 7)."""

import time

import numpy as np
import pytest

from repro.apps.gauss_jordan import (
    _partition,
    gauss_jordan_parallel,
    gauss_jordan_sequential,
    gj_sequential_sim_time,
    gj_speedup,
    make_system,
)
from repro.runtime.threads import ThreadRuntime


def test_make_system_solvable():
    a, b = make_system(16)
    x = np.linalg.solve(a, b)
    assert np.all(np.isfinite(x))


def test_make_system_deterministic_per_seed():
    a1, b1 = make_system(8, seed=3)
    a2, b2 = make_system(8, seed=3)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_partition_covers_all_rows():
    for n, p in ((10, 3), (16, 4), (7, 7), (9, 2)):
        spans = [_partition(n, p, w) for w in range(p)]
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) - min(sizes) <= 1  # "equal sized groups"


def test_sequential_matches_numpy():
    a, b = make_system(24)
    assert np.allclose(gauss_jordan_sequential(a, b), np.linalg.solve(a, b))


def test_sequential_rejects_singular():
    a = np.zeros((4, 4))
    with pytest.raises(np.linalg.LinAlgError):
        gauss_jordan_sequential(a, np.ones(4))


def test_sequential_needs_pivoting():
    # Zero on the diagonal forces a row interchange.
    a = np.array([[0.0, 2.0], [3.0, 1.0]])
    b = np.array([4.0, 5.0])
    assert np.allclose(gauss_jordan_sequential(a, b), np.linalg.solve(a, b))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_parallel_matches_numpy(p):
    a, b = make_system(20, seed=p)
    r = gauss_jordan_parallel(a, b, p)
    assert np.allclose(r.x, np.linalg.solve(a, b))
    assert r.elapsed > 0


def test_parallel_uneven_partition():
    a, b = make_system(17)  # 17 rows over 4 workers
    r = gauss_jordan_parallel(a, b, 4)
    assert np.allclose(r.x, np.linalg.solve(a, b))


def test_parallel_on_threads_runtime():
    """A poll wait that ``sync.c``'s drive runs hands the GIL to the
    worker that computes: the run takes ~0.01 s.  A poller that gives
    the GIL up and takes it straight back starves that worker, and the
    run took 15-40 s (the join timeout ends it sooner)."""
    a, b = make_system(12)
    t0 = time.perf_counter()
    r = gauss_jordan_parallel(a, b, 2, runtime=ThreadRuntime(join_timeout=10))
    assert time.perf_counter() - t0 <= 2.0
    assert np.allclose(r.x, np.linalg.solve(a, b))


def test_parallel_rejects_bad_p():
    a, b = make_system(4)
    with pytest.raises(ValueError):
        gauss_jordan_parallel(a, b, 0)
    with pytest.raises(ValueError):
        gauss_jordan_parallel(a, b, 5)


def test_sequential_sim_time_scales_with_n():
    assert gj_sequential_sim_time(32) < gj_sequential_sim_time(64) / 4


def test_speedup_shape_matches_paper():
    """Figure 7's qualitative claims, as assertions."""
    # "Speedup is greater with larger matrices."
    s_small = gj_speedup(24, 4)
    s_large = gj_speedup(64, 4)
    assert s_large > s_small
    # "real speedups can be obtained in the MPF environment."
    assert gj_speedup(64, 4) > 1.0
    # "excessive parallelization yields insufficient computation per
    # iteration, and speedup declines."
    assert gj_speedup(24, 12) < gj_speedup(24, 3)


def test_speedup_deterministic():
    assert gj_speedup(24, 3) == gj_speedup(24, 3)
