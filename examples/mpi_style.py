#!/usr/bin/env python3
"""Porting an MPI-style program to MPF (the paper's §4/§5 claim, redone).

The paper ported a hypercube PDE solver to MPF and reported "Porting
the hypercube program to MPF was very simple."  This example makes the
same point for the interface modern message-passing programs actually
use: an MPI-style computation of pi by numerical integration, with a
textbook ring allreduce written in rank-addressed, tag-matched
point-to-point operations (`repro.ext.mini_mpi.Comm`) — nothing but
LNVC circuits underneath — run on the simulated Balance 21000, and
cross-checked against the collective `allreduce`.

Run:  python examples/mpi_style.py
"""

import math
import struct

from repro import SimRuntime
from mini_mpi import Comm  # examples/mini_mpi.py, beside this script

N_RANKS = 8
INTERVALS = 4096

_F8 = struct.Struct("<d")


def worker(env):
    comm = Comm(env)
    yield from comm.connect()
    yield from comm.barrier()

    # Each rank integrates its strided share of 4/(1+x^2) on [0, 1].
    h = 1.0 / INTERVALS
    local = 0.0
    for i in range(comm.rank, INTERVALS, comm.size):
        x = h * (i + 0.5)
        local += 4.0 / (1.0 + x * x)
    local *= h
    yield from env.compute(flops=4 * (INTERVALS // comm.size))

    # Textbook ring allreduce: pass partial sums around the ring,
    # accumulating each token as it arrives.  Tags sequence the steps.
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    token, total = local, local
    for step in range(comm.size - 1):
        yield from comm.send(_F8.pack(token), dest=right, tag=step)
        msg = yield from comm.recv(source=left, tag=step)
        token = _F8.unpack(msg.data)[0]
        total += token
    pi_ring = total

    # The same reduction as a one-line collective, for comparison.
    acc = yield from comm.allreduce(
        _F8.pack(local),
        lambda a, b: _F8.pack(_F8.unpack(a)[0] + _F8.unpack(b)[0]),
    )
    pi_coll = _F8.unpack(acc)[0]

    yield from comm.barrier()
    yield from comm.close()
    return pi_ring, pi_coll


def main() -> None:
    result = SimRuntime().run([worker] * N_RANKS)
    rings = [v[0] for v in result.results.values()]
    colls = [v[1] for v in result.results.values()]
    print(f"{N_RANKS} ranks, {INTERVALS} intervals, over MPF circuits")
    print(f"pi (ring allreduce):       {rings[0]:.12f}")
    print(f"pi (collective allreduce): {colls[0]:.12f}")
    print(f"error vs math.pi:          {abs(rings[0] - math.pi):.2e}")
    print(f"simulated time:            {result.elapsed:.3f} s on the Balance 21000")
    assert all(abs(v - rings[0]) < 1e-12 for v in rings)
    assert all(abs(v - colls[0]) < 1e-12 for v in colls)
    assert abs(rings[0] - math.pi) < 1e-5


if __name__ == "__main__":
    main()
