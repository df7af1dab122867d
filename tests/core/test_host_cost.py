"""A jitter-free host cost for the message path.

What one send + receive pair costs the interpreter, as counts that
repeat exactly (the ``tests/obs/test_obs_cost.py`` technique): on a
one-thread loop-back under ``ThreadRuntime`` — an FCFS free-list
circuit and a BROADCAST ring circuit, a seeded mix of 16 / 256 / 2048 B
— the Python ``call`` events (function entries and generator resumes)
and the ``c_call`` events of ``sys.setprofile``, and with a counting
``SharedRegion`` the accessor calls: ``u32`` / ``set_u32`` / ``u64`` /
``set_u64`` / ``follow`` and every record ``reader`` / ``writer`` call
("words"; ``add_u32`` counts two, the read and the store it performs;
the drain's read of a whole block, link and payload, is one record
read), with the payload movers ``read`` / ``write`` / ``scatter`` kept
apart ("bulk"), and the stores that land on a block's link word
("links": two per message, however many blocks it has).  "Did the hot
path get heavier" is answered here, not by a host whose walls drift
1.7x (ROADMAP item 1(b)).

``PARENT`` was counted at 40d5717 — the parent of the commit that made
the message path touch each shared record once per lock section —
before the first edit, with this file's ``measure`` (``add_u32`` was a
method over ``u32`` / ``set_u32`` then, and was counted through them);
``PARENT_LINKS`` at cc8178e, the parent of the commit that stopped
storing a link per block.  The child of 8ab74ca lowered ``PINNED``'s
Python / C calls by 4-5 per pair on both transports when it put
``ThreadRuntime`` on ``ProcSync``: a ``Wake`` nobody waits for reads the
channel's wait bytes and takes no lock, where ``RealSync`` took the
circuit lock for a ``Condition.notify_all`` every time.
Lower ``PINNED`` when a change makes the path lighter; a change that
needs to raise it says why in its PR.  ``python
tests/core/test_host_cost.py`` (``make hostcost``) prints the table and
the loop-back microseconds.
"""

import collections
import random
import sys
import time

import pytest

import repro.runtime.threads as threads_module
from repro import BROADCAST, FCFS, ThreadRuntime
from repro.core.layout import MPFConfig
from repro.core.region import SharedRegion
from repro.core.work import Work

SIZES = (16, 256, 2048)
PAIRS = 60
MIX = tuple(random.Random(1987).choice(SIZES) for _ in range(PAIRS))

TRANSPORTS = {"freelist": FCFS, "ring": BROADCAST}

#: Word / record accessors and what a call of each counts.
WORDS = {"u32": 1, "set_u32": 1, "add_u32": 2, "u64": 1, "set_u64": 1,
         "follow": 1, "reader": 1, "writer": 1}
BULK = ("read", "write", "scatter")


class CountingRegion(SharedRegion):
    """A ``SharedRegion`` that counts every accessor call by name, and
    under ``"links"`` every block link word a ``set_u32`` / ``write`` /
    ``scatter`` stores over, once ``pool`` says where the blocks are."""

    __slots__ = ("counts", "pool")

    def __init__(self, buf) -> None:
        super().__init__(buf)
        self.counts = collections.Counter()
        #: ``(blk_base, blk_stride, n_blocks)`` of the formatted segment
        self.pool = None
        # (``add_u32`` went through ``u32`` / ``set_u32`` at the parent and
        # is a closure of its own now: two words either way.)
        for name in ("u32", "add_u32", "follow"):
            setattr(self, name, self._counted(name, getattr(self, name)))
        set_u32 = self.set_u32

        def counted_set_u32(off, value):
            self.counts["set_u32"] += 1
            self._stored(off, 4)
            set_u32(off, value)

        self.set_u32 = counted_set_u32

    def _stored(self, off, width):
        """Count the link words ``[off, off + width)`` overlaps."""
        if self.pool is None:
            return
        base, stride, n = self.pool
        first = max(0, -(-(off - base - 3) // stride))  # ceil
        last = min(n - 1, (off + width - 1 - base) // stride)
        if last >= first:
            self.counts["links"] += last - first + 1

    def _counted(self, name, fn):
        counts = self.counts

        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    def reader(self, record):
        return self._counted("reader", super().reader(record))

    def writer(self, record):
        return self._counted("writer", super().writer(record))

    def u64(self, off):
        self.counts["u64"] += 1
        return super().u64(off)

    def set_u64(self, off, value):
        self.counts["set_u64"] += 1
        super().set_u64(off, value)

    def read(self, off, n):
        self.counts["read"] += 1
        return super().read(off, n)

    def write(self, off, data):
        self.counts["write"] += 1
        self._stored(off, len(data))
        super().write(off, data)

    def scatter(self, offs, rows):
        self.counts["scatter"] += 1
        for off in offs:
            self._stored(int(off), rows.shape[1])
        super().scatter(offs, rows)


def measure(transport: str, sizes=MIX, count: str | None = "calls") -> dict:
    """``len(sizes)`` loop-back pairs after a warm-up pair of each size.

    ``count="calls"`` gives ``{"py", "c", "work_inits"}``, ``"region"``
    gives ``{"words", "bulk", "links"}`` (``links``: stores over block
    link words) and ``None`` counts nothing, so that
    ``"us"`` (wall microseconds per pair, always present) is the bare
    path's."""
    out: dict = {}
    payloads = {s: bytes(range(256)) * (s // 256) + bytes(s % 256)
                for s in SIZES}
    work_init = Work.__init__.__code__

    def worker(env):
        sid = yield from env.open_send("loop")
        rid = yield from env.open_receive("loop", TRANSPORTS[transport])
        for s in SIZES:
            yield from env.message_send(sid, payloads[s])
            yield from env.message_receive(rid)
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                calls["py"] += 1
                if frame.f_code is work_init:
                    calls["work_inits"] += 1
            elif event == "c_call":
                calls["c"] += 1

        if count == "region":
            lay = env.view.layout
            env.view.region.pool = (lay.blk_base, lay.blk_stride,
                                    env.view.cfg.n_blocks)
            before = +env.view.region.counts
        elif count == "calls":
            sys.setprofile(profile)
        t0 = time.perf_counter_ns()
        try:
            for s in sizes:
                yield from env.message_send(sid, payloads[s])
                got = yield from env.message_receive(rid)
                assert len(got) == s
        finally:
            sys.setprofile(None)
        out["us"] = (time.perf_counter_ns() - t0) / 1e3 / len(sizes)
        if count == "region":
            delta = env.view.region.counts - before
            out["words"] = sum(n * delta[k] for k, n in WORDS.items())
            out["bulk"] = sum(delta[k] for k in BULK)
            out["links"] = delta["links"]
        elif count == "calls":
            # the closing ``sys.setprofile(None)`` is the one C call of
            # the harness itself inside the window
            out.update(py=calls["py"], c=calls["c"] - 1,
                       work_inits=calls["work_inits"])
        yield from env.close_send(sid)
        yield from env.close_receive(rid)

    cfg = MPFConfig(max_lnvcs=4, max_processes=2, max_messages=16,
                    message_pool_bytes=1 << 18, transport=transport,
                    ring_slot_bytes=2048)
    real = threads_module.SharedRegion
    if count == "region":
        threads_module.SharedRegion = CountingRegion
    try:
        ThreadRuntime(join_timeout=60).run([worker], cfg=cfg)
    finally:
        threads_module.SharedRegion = real
    return out


def table() -> dict:
    """Every pinned count, per transport: calls over the seeded mix and
    accessor calls for ``PAIRS`` pairs of 16 B."""
    rows = {}
    for transport in TRANSPORTS:
        row = measure(transport)
        row.pop("us")
        small = measure(transport, (16,) * PAIRS, count="region")
        row["words16"], row["bulk16"] = small["words"], small["bulk"]
        rows[transport] = row
    return rows


#: Counted at 40d5717 over ``MIX`` (``words16`` / ``bulk16``: 60 pairs of
#: 16 B), before the first edit.
PARENT = {
    "freelist": {"py": 14280, "c": 20401, "work_inits": 300,
                 "words16": 5940, "bulk16": 240},
    "ring": {"py": 8700, "c": 6601, "work_inits": 120,
             "words16": 3360, "bulk16": 120},
}

#: What the path costs now: per pair 112 Python + 197 C calls and 36
#: accessor calls on the free list (238 + 340 and 99 at the parent), 70 +
#: 43 and 33 on the ring (145 + 110 and 56); 117 + 201 and 75 + 47 at
#: 8ab74ca (see the module docstring).
PINNED = {
    "freelist": {"py": 6720, "c": 11821, "work_inits": 0,
                 "words16": 2160, "bulk16": 120},
    "ring": {"py": 4200, "c": 2581, "work_inits": 0,
             "words16": 1980, "bulk16": 120},
}

#: Accessor calls a 16 B pair may make.  The ring's 33 are 14 for the
#: send (its one lock section reads four records and stores to three),
#: 10 for the lock-free claim and 9 for the completion section; what is
#: left apart are words that are apart in the segment (``nmsgs``, ``seq``
#: and the traffic counters of one LNVC record) or that may not share a
#: store (the commit word, the pending bitmap, the epoch word).
WORDS16_PER_PAIR = {"freelist": 36, "ring": 33}

#: Stores over block link words per free-list pair, by message size:
#: counted at cc8178e before the first edit (every link once by the
#: fill, once more by the reap's push: 2 x nblk), and the most a pair may
#: make now (the fill ends the chain, the reap splices it).
PARENT_LINKS = {16: 4, 256: 52, 2048: 410}
LINKS_PER_PAIR = 2


@pytest.fixture(scope="module")
def rows():
    return table()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_accessor_calls_per_pair(rows, transport):
    row = rows[transport]
    assert row["words16"] <= WORDS16_PER_PAIR[transport] * PAIRS
    assert row["words16"] <= PINNED[transport]["words16"]
    # payload movers: what the parent made, no more
    assert row["bulk16"] <= PARENT[transport]["bulk16"]


@pytest.mark.parametrize("size", SIZES)
def test_two_link_stores_per_message(size):
    got = measure("freelist", (size,) * PAIRS, count="region")["links"]
    assert 0 < got <= LINKS_PER_PAIR * PAIRS < PARENT_LINKS[size] * PAIRS


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="call events were counted on CPython 3.11")
@pytest.mark.parametrize("transport, drop", [("freelist", 0.15),
                                             ("ring", 0.20)])
def test_calls_per_pair(rows, transport, drop):
    row = rows[transport]
    assert 0 < row["py"] <= PINNED[transport]["py"], row
    assert 0 < row["c"] <= PINNED[transport]["c"], row
    assert row["py"] <= (1 - drop) * PARENT[transport]["py"]
    again = measure(transport)
    again.pop("us")
    assert again == {k: row[k] for k in again}  # it repeats


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_no_work_is_built_after_warm_up(rows, transport):
    """Every variable charge of the message path comes from the memo
    (``repro.core.effects.charge``): after one pair of each size, none
    constructs a ``Work``."""
    assert rows[transport]["work_inits"] == 0


if __name__ == "__main__":
    print(f"per loop-back send + receive pair ({PAIRS} pairs; calls over a "
          "seeded 16/256/2048 B mix,\naccessor calls at 16 B)"
          "            parent 40d5717   pinned      now")
    for transport, row in table().items():
        for key, what in (("py", "Python calls"), ("c", "C calls"),
                          ("work_inits", "Work() built"),
                          ("words16", "word/record accessor calls"),
                          ("bulk16", "payload mover calls")):
            print(f"  {transport:<9} {what:<28}"
                  f"{PARENT[transport][key] / PAIRS:>14.1f}"
                  f"{PINNED[transport][key] / PAIRS:>9.1f}"
                  f"{row[key] / PAIRS:>9.1f}")
    print("  per size:              us/pair   words    bulk   links"
          "   (ThreadRuntime; us: min of 5 x 200 pairs)")
    for transport in TRANSPORTS:
        for size in SIZES:
            us = min(measure(transport, (size,) * 200, count=None)["us"]
                     for _ in range(5))
            row = measure(transport, (size,) * PAIRS, count="region")
            print(f"  {transport:<9} {size:>5} B {us:>12.1f}"
                  + "".join(f"{row[k] / PAIRS:>8.1f}"
                            for k in ("words", "bulk", "links"))
                  + (f"   (links at cc8178e: {PARENT_LINKS[size]})"
                     if transport == "freelist" else ""))
