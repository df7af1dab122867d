#!/usr/bin/env python3
"""Distributed variables over LNVCs ([Debe86], cited in paper §1).

A shared counter and a shared blackboard, accessed only through the
message-passing read/write protocol — "a name space that is global to
the processes but accessible only by a message passing protocol".
Four workers bump the counter concurrently; `fetch_add` gives each a
unique ticket, proving the read-modify-write is atomic.

Run:  python examples/dvars_demo.py
"""

from repro import SimRuntime
from dvars import DVarClient, dvar_server  # examples/dvars.py, beside this script

N_WORKERS = 4
BUMPS = 3


def server(env):
    return (
        yield from dvar_server(
            env, "tickets", initial=(0).to_bytes(8, "little", signed=True)
        )
    )


def worker(env):
    dv = DVarClient(env, "tickets")
    yield from dv.connect()
    tickets = []
    for _ in range(BUMPS):
        tickets.append((yield from dv.fetch_add(1)))
    yield from dv.close()
    return tickets


def supervisor(env):
    dv = DVarClient(env, "tickets")
    yield from dv.connect()
    while True:
        version, raw = yield from dv.read()
        if version >= N_WORKERS * BUMPS:
            break
    total = int.from_bytes(raw, "little", signed=True)
    yield from dv.stop_server()
    yield from dv.close()
    return total


def main() -> None:
    result = SimRuntime().run(
        [server] + [worker] * N_WORKERS + [supervisor],
        names=["server"] + [f"w{i}" for i in range(N_WORKERS)] + ["super"],
    )
    tickets = sorted(
        t for i in range(N_WORKERS) for t in result.results[f"w{i}"]
    )
    print("tickets drawn per worker:")
    for i in range(N_WORKERS):
        print(f"  w{i}: {result.results[f'w{i}']}")
    print(f"all tickets unique: {tickets == list(range(N_WORKERS * BUMPS))}")
    print(f"final counter value: {result.results['super']}")
    assert tickets == list(range(N_WORKERS * BUMPS))


if __name__ == "__main__":
    main()
