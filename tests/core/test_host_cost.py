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
read), with the payload movers ``read`` / ``write`` kept apart
("bulk"), and the stores that land on a block's link word ("links": two
per message, however many blocks it has).  The counts are pinned for
each kernel set (:mod:`repro.core.chains`): the Python one everywhere,
the C one where it was built.  The C kernels' loops and sections make
no accessor call: the region sees no link store at all, so the link
count is taken on the Python kernels.  "Did the hot
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
circuit lock for a ``Condition.notify_all`` every time.  The C chain
kernels lowered the free list's to 88 Python + 65 C calls per pair
(112 + 197 at 4eb23e1, counted before the first edit) and its accessor
calls at 16 B from 36 to 32, with no payload mover left; the C lock
sections (alloc, link, claim, completion, free: one kernel call each)
to 85 + 56 and 4 (88 + 65 and 32 at 5536dbc, counted before the first
edit) — what is left is each primitive's transport dispatch and its
connection check.  The C ring kernels (claim and fill, commit,
lock-free take, completion: one kernel call each) lowered the ring's to
56 + 33 and 3, with one payload mover, the receive's copy, left (70 + 43
and 33, two movers, at fb1699e, counted before the first edit).  The
compiled sync and effect loop (``runtime/sync.c``: ``drive``, lock words,
wait bytes) took the C set to 63 + 16 on the free list and 44 + 12 on the
ring (85 + 56 and 56 + 33 at d5caed8, counted before the first edit):
no ``gen.send``, sync method or held-list call is left in Python, and
the kernel wrappers read ``region.cbuf`` and the view's ``lnvc_base``
instead of calling for them (four Python calls fewer per pair on either
kernel set).  The free-list receive as one section on every runtime
took the C set's free list to 48 + 18 (63 + 16 at 1d093b6, counted
before the first edit): its generator is resumed twice per receive,
not twelve times, against five stage calls, and its connection stage
checks its memo with one record read; the two C calls more are the
``dict.pop`` that takes the section out of its cache while it runs (so
two threads of one view never share one) and the copy and reap tails'
``dict.get`` in their shape memos, where the connection check's lookup
went.  The Python set's counts rose, the free list's to 135 + 287 and
the ring's to 86 + 65 (119 + 243 and 73 + 46 at 1d093b6): the Python
``drive`` runs sections through ``effects.unfold`` — one generator
resume more per effect, an effect built per section step, the stage
calls of the receive in Python — and the Python sync now writes the
owner into a lock's word while it holds it (a ``struct`` read and
write per acquire, a write per release), which is how a dead owner of
a named segment's lock is caught.  One section runner in C for both
drives (``core/sections.c``) took the C set's free list to 34 + 11 and 3
(48 + 18 and 4 at 475ceb3, counted before the first edit): ``sync.c``'s
drive runs the five receive stages itself while their memos hold — the
FCFS drain included, into a ``bytes`` it builds — so no ``RecvStage``
call, stage body, kernel wrapper or wrapper's connection read is left.
The free-list send as one section on every runtime took the C set's
free list to 16 + 6 and 2 (34 + 11 and 3 at c462b33, counted before the
first edit): ``sync.c``'s drive runs its alloc, fill and link stages
with the kernels, and the link's connection memo is checked in C, so
the send's generator is resumed twice (the section's result, the
``Wake``) and reads one word, its transport's.  The Python set's free
list went to 115 + 273 (135 + 287): ``effects.unfold`` builds each
step's effect once (``_STEP_MEMO``, keyed by identity, so that no
``Work`` hash or equality runs) instead of per step.  The ring's send
and receive as sections on every runtime took the C set's ring to 16 +
5 and 2, with no payload mover (44 + 12 and 3, one mover, at f8a2aa3,
counted before the first edit): ``sync.c``'s drive runs their fill,
commit, take, claim, copy and completion stages with the ring kernels,
the copy into a ``bytes`` it builds, so a ring pair resumes its
generators as a free-list pair does.  Both transports' sends skip the
``isinstance`` of a payload that is exactly ``bytes`` (the free list's
C calls 6 → 5 per pair), and a ring send tests a payload against the
slot size by slicing it, not with ``len``.  The Python set's ring went
to 74 + 65 (86 + 65): the ring's stages through ``effects.unfold``
resume fewer generators than its classic effects did.
Lower ``PINNED`` when a change makes the path lighter; a change that
needs to raise it says why in its PR.  ``python
tests/core/test_host_cost.py`` (``make hostcost``) prints the table, the
per-size counts and the ``repro`` Python calls per simulated event of
``tests/machine/test_one_loop.py``'s pinned 32x32 Gauss-Jordan run —
counts only: two launches at one commit read 27.2 and 17.5 us for the
same loop-back pair, so no wall time here can compare two commits.
"""

import collections
import random
import sys
from pathlib import Path

import pytest

import repro.runtime.threads as threads_module
from repro import BROADCAST, FCFS, ThreadRuntime
from repro.core import chains
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
BULK = ("read", "write")


class CountingRegion(SharedRegion):
    """A ``SharedRegion`` that counts every accessor call by name, and
    under ``"links"`` every block link word a ``set_u32`` / ``write``
    stores over, once ``pool`` says where the blocks are."""

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


def measure(transport: str, sizes=MIX, count: str = "calls") -> dict:
    """``len(sizes)`` loop-back pairs after a warm-up pair of each size.

    ``count="calls"`` gives ``{"py", "c", "work_inits"}``, ``"region"``
    gives ``{"words", "bulk", "links"}`` (``links``: stores over block
    link words)."""
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
        else:
            sys.setprofile(profile)
        try:
            for s in sizes:
                yield from env.message_send(sid, payloads[s])
                got = yield from env.message_receive(rid)
                assert len(got) == s
        finally:
            sys.setprofile(None)
        if count == "region":
            delta = env.view.region.counts - before
            out["words"] = sum(n * delta[k] for k, n in WORDS.items())
            out["bulk"] = sum(delta[k] for k in BULK)
            out["links"] = delta["links"]
        else:
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

#: What the path costs now, per kernel set (``chains.ACTIVE.name``).  On
#: the C kernels, per pair 16 Python + 3 C calls and no accessor call on
#: the free list (238 + 340 and 99 at the parent), 16 + 3 and none on the
#: ring (145 + 110 and 56); 117 + 201 and 75 + 47 at 8ab74ca, 112 + 197
#: and 36 at 4eb23e1, 88 + 65 and 32 at 5536dbc, the ring's 70 + 43 and
#: 33 at fb1699e, 85 + 56 and 56 + 33 at d5caed8, 63 + 16 at 1d093b6,
#: 48 + 18 and 4 at 475ceb3, 34 + 11 and 3 at c462b33, 16 + 6 and 2 and
#: the ring's 44 + 12 and 3 at f8a2aa3 (see the module docstring).  On
#: the Python kernels, 115 + 270 and 36 on the free list (123 + 243 at
#: fb1699e, 119 + 243 at 1d093b6, 135 + 287 at c462b33, 115 + 273 at
#: f8a2aa3), and 74 + 63 (73 + 46 at 1d093b6, 86 + 65 at f8a2aa3) and 33
#: on the ring, where fb1699e's generators made 70 + 43 and 33: the
#: sections call one reference per stage (fill, commit, take and its
#: cursor take, claim, completion), and two words are read again across
#: a stage's boundary — the commit reads the pending bitmap the fill
#: stored, the completion the circuit's ring word the take read.
PINNED = {
    "c": {
        "freelist": {"py": 960, "c": 180, "work_inits": 0,
                     "words16": 0, "bulk16": 0},
        "ring": {"py": 960, "c": 180, "work_inits": 0,
                 "words16": 0, "bulk16": 0},
    },
    "python": {
        "freelist": {"py": 6900, "c": 16200, "work_inits": 0,
                     "words16": 2160, "bulk16": 120},
        "ring": {"py": 4440, "c": 3780, "work_inits": 0,
                 "words16": 1980, "bulk16": 120},
    },
}

#: Accessor calls a 16 B pair may make on the C kernels: none on either
#: transport (the lock sections are C kernels, whose loads and stores
#: the region does not see, both connection checks are the section
#: runner's, and a cached section reads no transport word).  Each was 2
#: before the sections were cached by id alone (the send's and the
#: receive's transport dispatch word); the ring's were 3 at f8a2aa3 (its
#: send's connection check read a word) and 33 at fb1699e (14 for the
#: send's section, 10 for the take, 9 for the completion).
WORDS16_PER_PAIR = {"freelist": 0, "ring": 0}

#: Stores over block link words per free-list pair, by message size:
#: counted at cc8178e before the first edit (every link once by the
#: fill, once more by the reap's push: 2 x nblk), and the most a pair may
#: make now (the fill ends the chain, the reap splices it).
PARENT_LINKS = {16: 4, 256: 52, 2048: 410}
LINKS_PER_PAIR = 2


#: The kernel sets pinned, by name; the C one is ``None`` where it could
#: not be built.
KERNEL_SETS = {"c": chains.C, "python": chains.PYTHON}


@pytest.fixture(scope="module")
def rows():
    """``table()`` on each kernel set this host has, by name: every pin
    below holds for the Python set everywhere, for the C set where it
    was built."""
    out = {}
    for name, kernels in KERNEL_SETS.items():
        if kernels is not None:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(chains, "ACTIVE", kernels)
                out[name] = table()
    return out


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_accessor_calls_per_pair(rows, transport):
    for kernels, by_transport in rows.items():
        row = by_transport[transport]
        assert row["words16"] <= PINNED[kernels][transport]["words16"], kernels
        if kernels == "c":
            assert row["words16"] <= WORDS16_PER_PAIR[transport] * PAIRS
        # payload movers: what the parent made, no more
        assert row["bulk16"] <= PARENT[transport]["bulk16"], kernels


@pytest.mark.usefixtures("python_chains")  # C stores are not counted
@pytest.mark.parametrize("size", SIZES)
def test_two_link_stores_per_message(size):
    got = measure("freelist", (size,) * PAIRS, count="region")["links"]
    assert 0 < got <= LINKS_PER_PAIR * PAIRS < PARENT_LINKS[size] * PAIRS


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="call events were counted on CPython 3.11")
@pytest.mark.parametrize("transport, drop", [("freelist", 0.15),
                                             ("ring", 0.20)])
def test_calls_per_pair(rows, transport, drop, monkeypatch):
    for kernels, by_transport in rows.items():
        row = by_transport[transport]
        pin = PINNED[kernels][transport]
        assert 0 < row["py"] <= pin["py"], (kernels, row)
        assert 0 < row["c"] <= pin["c"], (kernels, row)
        assert row["py"] <= (1 - drop) * PARENT[transport]["py"], kernels
        monkeypatch.setattr(chains, "ACTIVE", KERNEL_SETS[kernels])
        again = measure(transport)
        assert again == {k: row[k] for k in again}, kernels  # it repeats


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_no_work_is_built_after_warm_up(rows, transport):
    """Every variable charge of the message path comes from the memo
    (``repro.core.effects.charge``): after one pair of each size, none
    constructs a ``Work``, on either kernel set."""
    for kernels in rows:
        assert rows[kernels][transport]["work_inits"] == 0, kernels


if __name__ == "__main__":
    print(f"per loop-back send + receive pair ({PAIRS} pairs; calls over a "
          "seeded 16/256/2048 B mix,\naccessor calls at 16 B; "
          f"{chains.ACTIVE.name} kernels)"
          "    parent 40d5717   pinned      now")
    pinned = PINNED[chains.ACTIVE.name]
    for transport, row in table().items():
        for key, what in (("py", "Python calls"), ("c", "C calls"),
                          ("work_inits", "Work() built"),
                          ("words16", "word/record accessor calls"),
                          ("bulk16", "payload mover calls")):
            print(f"  {transport:<9} {what:<28}"
                  f"{PARENT[transport][key] / PAIRS:>14.1f}"
                  f"{pinned[transport][key] / PAIRS:>9.1f}"
                  f"{row[key] / PAIRS:>9.1f}")
    print(f"  {'per size':<17}{'words':>8}{'bulk':>8}{'links':>8}"
          "   (a C store is not counted)")
    for transport in TRANSPORTS:
        for size in SIZES:
            row = measure(transport, (size,) * PAIRS, count="region")
            print(f"  {transport:<9} {size:>5} B"
                  + "".join(f"{row[k] / PAIRS:>8.1f}"
                            for k in ("words", "bulk", "links"))
                  + (f"   (links at cc8178e: {PARENT_LINKS[size]})"
                     if transport == "freelist" else ""))
    sys.path.insert(0, str(Path(__file__).parents[1] / "machine"))
    from test_one_loop import PINNED_GJ32_CALLS, gj32_calls

    gj32_calls()  # warm the ``charge`` cache and first-use imports
    calls, events = gj32_calls()
    name = chains.ACTIVE.name
    print(f"32x32 Gauss-Jordan on p=4 ({name} kernels and engine loop): "
          f"{calls:,} repro Python calls for {events:,} events, "
          f"{calls / events:.3f} per event (pinned <= "
          f"{PINNED_GJ32_CALLS[name]:,})")
