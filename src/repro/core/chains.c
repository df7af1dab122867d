/* Block-chain kernels over a shared region (see chains.py).
 *
 * A message block is [u32 next | bs payload bytes], little-endian, at a
 * byte offset into the region; NIL ends a list.  Every kernel walks at
 * most n links, checks every record it touches against the region's
 * size, and returns a negative code for a chain it will not follow: the
 * caller then runs the Python reference on the same chain, which raises
 * the error the segment's readers know.  A kernel that refuses a chain
 * has written nothing.  No state outside the arguments: callers may run
 * them concurrently with the interpreter lock released.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NIL 0xFFFFFFFFu
#define BAD ((int64_t)-1)

static uint32_t link_at(const unsigned char *b, uint64_t off)
{
    const unsigned char *p = b + off;
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
           | (uint32_t)p[3] << 24;
}

static void store_link(unsigned char *b, uint64_t off, uint32_t v)
{
    unsigned char *p = b + off;
    p[0] = v & 0xFF;
    p[1] = v >> 8 & 0xFF;
    p[2] = v >> 16 & 0xFF;
    p[3] = v >> 24;
}

/* Walk n links from first: (last << 32 | next), where next is the link
 * after the n-th record.  UINT64_MAX for a list that reaches NIL first
 * or a link outside the region (no last is ever NIL, so no result has
 * NIL in its high word).  n >= 1. */
uint64_t chain_pop(char *base, uint64_t size, uint64_t first, uint64_t n)
{
    const unsigned char *b = (const unsigned char *)base;
    uint64_t blk = first, last = NIL;
    for (uint64_t i = 0; i < n; i++) {
        if (blk == NIL || blk + 4 > size)
            return UINT64_MAX;
        last = blk;
        blk = link_at(b, blk);
    }
    return last << 32 | blk;
}

/* The last of the n records of a chain that ends at NIL after exactly n
 * links: NIL when n is 0 and first is NIL. */
int64_t chain_last(char *base, uint64_t size, uint64_t first, uint64_t n)
{
    const unsigned char *b = (const unsigned char *)base;
    uint64_t blk = first, last = NIL;
    for (uint64_t i = 0; i < n; i++) {
        if (blk == NIL || blk + 4 > size)
            return BAD;
        last = blk;
        blk = link_at(b, blk);
    }
    return blk == NIL ? (int64_t)last : BAD;
}

/* Copy data (length bytes, bs per block) over the n popped records from
 * first and end the chain, in the reference's order: the offsets are
 * walked and checked first, then the n-th record's link becomes NIL,
 * then each record gets its share of data. */
int64_t chain_fill(char *base, uint64_t size, uint64_t first, uint64_t n,
                   const char *data, uint64_t length, uint64_t bs)
{
    unsigned char *b = (unsigned char *)base;
    uint32_t on_stack[256];
    uint32_t *offs = on_stack;
    uint64_t blk = first, at = 0;
    if (n == 0)
        return NIL;
    if (n > 256 && (offs = malloc(n * sizeof *offs)) == NULL)
        return BAD;
    for (uint64_t i = 0; i < n; i++, at += bs) {
        uint64_t share = at < length ? length - at : 0;
        if (share > bs)
            share = bs;
        if (blk == NIL || blk + 4 + share > size) {
            if (offs != on_stack)
                free(offs);
            return BAD;
        }
        offs[i] = (uint32_t)blk;
        blk = link_at(b, blk);
    }
    store_link(b, offs[n - 1], NIL);
    at = 0;
    for (uint64_t i = 0; i < n && at < length; i++, at += bs)
        memcpy(b + offs[i] + 4, data + at, length - at < bs ? length - at : bs);
    blk = offs[n - 1];
    if (offs != on_stack)
        free(offs);
    return (int64_t)blk;
}

/* Copy the first length bytes the n records from first carry into out;
 * the last record, or NIL for an empty chain.  Every record is read
 * whole (link and bs payload bytes), and the chain must end at NIL
 * after exactly n links. */
int64_t chain_drain(char *base, uint64_t size, uint64_t first, uint64_t n,
                    uint64_t length, uint64_t bs, char *out)
{
    const unsigned char *b = (const unsigned char *)base;
    uint64_t blk = first, last = NIL, at = 0;
    if (length > n * bs)
        return BAD;
    for (uint64_t i = 0; i < n; i++, at += bs) {
        if (blk == NIL || blk + 4 + bs > size)
            return BAD;
        if (at < length)
            memcpy(out + at, b + blk + 4, length - at < bs ? length - at : bs);
        last = blk;
        blk = link_at(b, blk);
    }
    return blk == NIL ? (int64_t)last : BAD;
}


/* ------------------------------------------------------------------------
 * Lock-section kernels: the body of each free-list critical section of
 * message_send / message_receive, the stretch between two effects of
 * its generator (core/ops.py; the Python reference is in chains.py).
 * Each reads and checks every record it will touch before it stores to
 * any, and is refused, having written nothing, on a dry pool, a record
 * or chain that leaves the region or does not end, a message longer
 * than the receive's buffer and an empty queue: the caller then runs
 * the reference, which waits, raises or does the work.  (Only records
 * that overlap each other, which no formatted segment has, can make
 * the stores move what the checks saw; the walks that follow them stay
 * inside the region.)  The caller holds the lock each kernel names.
 * ---------------------------------------------------------------------- */

/* Field offsets as core/structs.py and core/layout.py lay the records
 * out (tests/core/test_chains.py holds the two equal). */
enum {
    H_FREE_MSG = 44, H_FREE_BLK = 48, H_LIVE_MSGS = 52, H_LIVE_BLOCKS = 56,
    H_LIVE_BYTES = 60, H_HWM_LIVE_BYTES = 112, H_HWM_LIVE_MSGS = 120,
    H_SIZE = 128,
    L_NMSGS = 8, L_FIFO_HEAD = 12, L_FIFO_TAIL = 16, L_FCFS_HEAD = 20,
    L_RECV_LIST = 28, L_N_FCFS = 36, L_N_BCAST = 40, L_SEQ = 44,
    L_HWM_NMSGS = 48, L_NRECVS = 68, L_BYTES_SENT = 72, L_BYTES_RECEIVED = 80,
    L_SIZE = 88,
    M_LENGTH = 0, M_NBLOCKS = 4, M_FIRST_BLK = 8, M_NEXT_MSG = 12,
    M_BCAST_PENDING = 16, M_BUSY = 20, M_FLAGS = 24, M_SEQNO = 28,
    M_SENDER = 32, M_SIZE = 36,
    R_PROTO = 4, R_HEAD = 8, R_NEXT = 12, R_NREADS = 16, R_SIZE = 20,
    P_FCFS = 1,
    F_FCFS_EXPECTED = 1, F_FCFS_TAKEN = 2, F_HAD_RECEIVERS = 4, F_RETIRED = 8
};

static uint64_t load64(const unsigned char *b, uint64_t off)
{
    return (uint64_t)link_at(b, off) | (uint64_t)link_at(b, off + 4) << 32;
}

static void store64(unsigned char *b, uint64_t off, uint64_t v)
{
    store_link(b, off, (uint32_t)v);
    store_link(b, off + 4, (uint32_t)(v >> 32));
}

/* A record of width bytes at off lies inside the region. */
static int inside(uint64_t off, uint64_t width, uint64_t size)
{
    return off != NIL && off + width <= size;
}

/* The first message at or after msg not yet FCFS-taken (taken counting
 * as taken whatever its flags say), or NIL.  BAD for a header outside
 * the region, or a walk longer than the headers the region can hold. */
static int64_t first_untaken(const unsigned char *b, uint64_t size,
                             uint64_t msg, uint64_t taken)
{
    for (uint64_t i = 0; i <= size / M_SIZE; i++) {
        if (msg == NIL)
            return NIL;
        if (!inside(msg, M_SIZE, size))
            return BAD;
        if (msg != taken && !(link_at(b, msg + M_FLAGS) & F_FCFS_TAKEN))
            return (int64_t)msg;
        msg = link_at(b, msg + M_NEXT_MSG);
    }
    return BAD;
}

/* message_send's allocator section (ALLOC_LOCK): a header and the n
 * blocks of a length-byte message off the free lists, the pool counts
 * and their high-water marks.  (header << 32 | the chain's first block),
 * or UINT64_MAX when refused. */
uint64_t sec_alloc(char *base, uint64_t size, uint64_t n, uint64_t length)
{
    unsigned char *b = (unsigned char *)base;
    uint64_t hdr, first, next, hwm_bytes, hwm_msgs;
    uint32_t live_msgs, live_blocks, live_bytes;
    if (size < H_SIZE)
        return UINT64_MAX;
    hdr = link_at(b, H_FREE_MSG);
    first = next = link_at(b, H_FREE_BLK);
    if (!inside(hdr, 4, size))
        return UINT64_MAX;
    if (n) {
        uint64_t popped = chain_pop(base, size, first, n);
        if (popped == UINT64_MAX)
            return UINT64_MAX;
        next = popped & NIL;  /* the link after the chain's last block */
    }
    live_msgs = link_at(b, H_LIVE_MSGS) + 1;
    live_blocks = link_at(b, H_LIVE_BLOCKS) + (uint32_t)n;
    live_bytes = link_at(b, H_LIVE_BYTES) + (uint32_t)length;
    store_link(b, H_FREE_MSG, link_at(b, hdr));
    store_link(b, H_FREE_BLK, (uint32_t)next);
    store_link(b, H_LIVE_MSGS, live_msgs);
    store_link(b, H_LIVE_BLOCKS, live_blocks);
    store_link(b, H_LIVE_BYTES, live_bytes);
    hwm_bytes = load64(b, H_HWM_LIVE_BYTES);
    hwm_msgs = load64(b, H_HWM_LIVE_MSGS);
    if (live_bytes > hwm_bytes || live_msgs > hwm_msgs) {
        store64(b, H_HWM_LIVE_BYTES,
                live_bytes > hwm_bytes ? live_bytes : hwm_bytes);
        store64(b, H_HWM_LIVE_MSGS,
                live_msgs > hwm_msgs ? live_msgs : hwm_msgs);
    }
    return hdr << 32 | first;
}

typedef struct {
    uint32_t seqno, depth, rsteps, ok;
} link_t;

/* message_send's link section (the circuit lock of the LNVC record at
 * lnvc): fill the header hdr for the chain of n blocks from first, link
 * it at the FIFO tail as the circuit's next message, point every
 * caught-up BROADCAST receiver at it and count its bytes sent.  With
 * stale set, (stale_seq, stale_tail) stand in for the circuit's own
 * sequence number and tail: the torn-send fault's seam.  Its sequence
 * number, the queue depth it makes and the receive descriptors walked. */
link_t sec_link(char *base, uint64_t size, uint64_t lnvc, uint64_t hdr,
                uint64_t pid, uint64_t length, uint64_t first, uint64_t n,
                int stale, uint64_t stale_seq, uint64_t stale_tail)
{
    unsigned char *b = (unsigned char *)base;
    link_t out = {0, 0, 0, 0};
    uint64_t tail, desc, walked = 0;
    uint32_t head, fcfs, n_fcfs, n_bcast, seqno, hwm, flags = 0;
    if (!inside(lnvc, L_SIZE, size) || !inside(hdr, M_SIZE, size)
        || length > NIL || n > NIL)
        return out;
    head = link_at(b, lnvc + L_FIFO_HEAD);
    tail = link_at(b, lnvc + L_FIFO_TAIL);
    fcfs = link_at(b, lnvc + L_FCFS_HEAD);
    n_fcfs = link_at(b, lnvc + L_N_FCFS);
    n_bcast = link_at(b, lnvc + L_N_BCAST);
    seqno = link_at(b, lnvc + L_SEQ);
    hwm = link_at(b, lnvc + L_HWM_NMSGS);
    if (stale) {
        seqno = (uint32_t)stale_seq;
        tail = stale_tail;
    }
    if (tail != NIL && !inside(tail, M_SIZE, size))
        return out;
    for (desc = link_at(b, lnvc + L_RECV_LIST); desc != NIL;
         desc = link_at(b, desc + R_NEXT))
        if (!inside(desc, R_SIZE, size) || ++walked > size / R_SIZE)
            return out;
    if (n_fcfs)
        flags |= F_FCFS_EXPECTED;
    if (n_fcfs || n_bcast)
        flags |= F_HAD_RECEIVERS;
    store_link(b, hdr + M_LENGTH, (uint32_t)length);
    store_link(b, hdr + M_NBLOCKS, (uint32_t)n);
    store_link(b, hdr + M_FIRST_BLK, n ? (uint32_t)first : NIL);
    store_link(b, hdr + M_NEXT_MSG, NIL);
    store_link(b, hdr + M_BCAST_PENDING, n_bcast);
    store_link(b, hdr + M_BUSY, 0);
    store_link(b, hdr + M_FLAGS, flags);
    store_link(b, hdr + M_SEQNO, seqno);
    store_link(b, hdr + M_SENDER, (uint32_t)pid);
    if (tail == NIL)
        head = (uint32_t)hdr;
    else
        store_link(b, tail + M_NEXT_MSG, (uint32_t)hdr);
    out.depth = link_at(b, lnvc + L_NMSGS) + 1;
    store_link(b, lnvc + L_NMSGS, out.depth);
    store_link(b, lnvc + L_FIFO_HEAD, head);
    store_link(b, lnvc + L_FIFO_TAIL, (uint32_t)hdr);
    store_link(b, lnvc + L_FCFS_HEAD, fcfs == NIL ? (uint32_t)hdr : fcfs);
    store_link(b, lnvc + L_SEQ, seqno + 1);
    store_link(b, lnvc + L_HWM_NMSGS, out.depth > hwm ? out.depth : hwm);
    for (desc = link_at(b, lnvc + L_RECV_LIST);
         out.rsteps < walked && inside(desc, R_SIZE, size);
         desc = link_at(b, desc + R_NEXT)) {
        out.rsteps++;
        if (link_at(b, desc + R_PROTO) != P_FCFS
            && link_at(b, desc + R_HEAD) == NIL)
            store_link(b, desc + R_HEAD, (uint32_t)hdr);
    }
    store64(b, lnvc + L_BYTES_SENT, load64(b, lnvc + L_BYTES_SENT) + length);
    out.seqno = seqno;
    out.ok = 1;
    return out;
}

typedef struct {
    uint32_t msg, first, nblk, length, seqno;
    _Bool fcfs;
} claim_t;

/* message_receive's claim section (the circuit lock of the LNVC record
 * at lnvc): the next message for the receive descriptor desc, pinned
 * busy and counted as read; for FCFS, marked taken and the shared FCFS
 * head moved past it.  The message and its header's chain, length and
 * sequence number; msg is NIL when refused. */
claim_t sec_claim(char *base, uint64_t size, uint64_t lnvc, uint64_t desc,
                  int64_t max_len)
{
    unsigned char *b = (unsigned char *)base;
    claim_t out = {NIL, 0, 0, 0, 0, 0};
    uint64_t msg;
    int64_t fcfs_head = NIL;
    _Bool fcfs;
    if (!inside(lnvc, L_SIZE, size) || !inside(desc, R_SIZE, size))
        return out;
    fcfs = link_at(b, desc + R_PROTO) == P_FCFS;
    msg = link_at(b, fcfs ? lnvc + L_FCFS_HEAD : desc + R_HEAD);
    if (!inside(msg, M_SIZE, size)
        || (int64_t)link_at(b, msg + M_LENGTH) > max_len)
        return out;
    if (fcfs && (fcfs_head = first_untaken(b, size,
                                           link_at(b, msg + M_NEXT_MSG),
                                           msg)) < 0)
        return out;
    out.msg = (uint32_t)msg;
    out.length = link_at(b, msg + M_LENGTH);
    out.nblk = link_at(b, msg + M_NBLOCKS);
    out.first = link_at(b, msg + M_FIRST_BLK);
    out.seqno = link_at(b, msg + M_SEQNO);
    out.fcfs = fcfs;
    store_link(b, msg + M_BUSY, link_at(b, msg + M_BUSY) + 1);
    store_link(b, desc + R_NREADS, link_at(b, desc + R_NREADS) + 1);
    if (fcfs) {
        store_link(b, msg + M_FLAGS, link_at(b, msg + M_FLAGS) | F_FCFS_TAKEN);
        store_link(b, lnvc + L_FCFS_HEAD, (uint32_t)fcfs_head);
    } else {
        store_link(b, desc + R_HEAD, link_at(b, msg + M_NEXT_MSG));
    }
    return out;
}

typedef struct {
    uint64_t nblk, nbytes;
    uint32_t head, n, depth, first, last, ok;
} reap_t;

/* The last block of the chain of the message at msg: the drained
 * message's as given, any other's walked, bounded by its header's
 * count. */
static int64_t msg_last(const unsigned char *b, uint64_t size, uint64_t msg,
                        uint64_t drained, uint64_t drained_last)
{
    if (msg == drained)
        return (int64_t)drained_last;
    return chain_last((char *)b, size, link_at(b, msg + M_FIRST_BLK),
                      link_at(b, msg + M_NBLOCKS));
}

/* message_receive's completion section (the circuit lock of the LNVC
 * record at lnvc), for the length-byte message msg it drained, whose
 * chain ends at last: drop its busy pin (and with unread, a BROADCAST
 * receive, the read it owed) and apply the retirement rule; unlink the
 * retired messages at the FIFO head, splicing their chains into one,
 * newest first; count the receive.  The reap, for sec_free: the n
 * headers from head that were unlinked, the queue depth they leave and
 * the spliced chain (nblk blocks from first to last, nbytes of payload)
 * — n = 0 when the head has not retired. */
reap_t sec_complete(char *base, uint64_t size, uint64_t lnvc, uint64_t msg,
                    uint64_t unread, uint64_t last, uint64_t length)
{
    unsigned char *b = (unsigned char *)base;
    reap_t out = {0, 0, NIL, 0, 0, NIL, NIL, 0};
    uint32_t pending, busy, flags, fcfs;
    uint64_t h, cut, nblk;
    int64_t blk;
    int fcfs_doomed = 0;
    if (!inside(lnvc, L_SIZE, size) || !inside(msg, M_SIZE, size))
        return out;
    pending = link_at(b, msg + M_BCAST_PENDING) - (uint32_t)unread;
    busy = link_at(b, msg + M_BUSY) - 1;
    flags = link_at(b, msg + M_FLAGS);
    if (!(flags & F_RETIRED || pending || busy)
        && (flags & F_FCFS_TAKEN
            || (flags & F_HAD_RECEIVERS && !(flags & F_FCFS_EXPECTED))))
        flags |= F_RETIRED;
    out.head = link_at(b, lnvc + L_FIFO_HEAD);
    fcfs = link_at(b, lnvc + L_FCFS_HEAD);
    for (h = out.head; h != NIL; h = link_at(b, h + M_NEXT_MSG)) {
        if (!inside(h, M_SIZE, size) || out.n > size / M_SIZE)
            return out;
        if (!((h == msg ? flags : link_at(b, h + M_FLAGS)) & F_RETIRED))
            break;
        if (msg_last(b, size, h, msg, last) < 0)
            return out;
        fcfs_doomed |= h == fcfs;
        out.n++;
    }
    cut = h;
    if (fcfs_doomed) {
        if ((blk = first_untaken(b, size, cut, NIL)) < 0)
            return out;
        fcfs = (uint32_t)blk;
    }
    store_link(b, msg + M_BCAST_PENDING, pending);
    store_link(b, msg + M_BUSY, busy);
    store_link(b, msg + M_FLAGS, flags);
    h = out.head;
    for (uint32_t i = 0; i < out.n && inside(h, M_SIZE, size); i++) {
        out.nbytes += link_at(b, h + M_LENGTH);
        nblk = link_at(b, h + M_NBLOCKS);
        if (nblk && (blk = msg_last(b, size, h, msg, last)) >= 0) {
            if (out.first == NIL)
                out.last = (uint32_t)blk;
            else
                store_link(b, (uint64_t)blk, out.first);
            out.first = link_at(b, h + M_FIRST_BLK);
            out.nblk += nblk;
        }
        h = link_at(b, h + M_NEXT_MSG);
    }
    if (out.n) {
        out.depth = link_at(b, lnvc + L_NMSGS) - out.n;
        store_link(b, lnvc + L_NMSGS, out.depth);
        store_link(b, lnvc + L_FIFO_HEAD, (uint32_t)cut);
        if (cut == NIL)
            store_link(b, lnvc + L_FIFO_TAIL, NIL);
        store_link(b, lnvc + L_FCFS_HEAD, fcfs);
    }
    store_link(b, lnvc + L_NRECVS, link_at(b, lnvc + L_NRECVS) + 1);
    store64(b, lnvc + L_BYTES_RECEIVED,
            load64(b, lnvc + L_BYTES_RECEIVED) + length);
    out.ok = 1;
    return out;
}

/* The free of a reap, a discard or a refused send (ALLOC_LOCK): the n
 * headers from head, linked through next_msg, and the chain first ..
 * last of nblk blocks, nbytes of payload in all, back to the free lists
 * — the chain with one store, each header pushed in turn.  BAD, having
 * written nothing, for a header or chain end outside the region. */
int64_t sec_free(char *base, uint64_t size, uint64_t head, uint64_t n,
                 uint64_t first, uint64_t last, uint64_t nblk,
                 uint64_t nbytes)
{
    unsigned char *b = (unsigned char *)base;
    uint64_t h = head, i;
    uint32_t free_msg;
    if (size < H_SIZE || (nblk && !inside(last, 4, size)))
        return BAD;
    for (i = 0; i < n; i++, h = link_at(b, h + M_NEXT_MSG))
        if (!inside(h, M_SIZE, size))
            return BAD;
    if (nblk) {
        store_link(b, last, link_at(b, H_FREE_BLK));
        store_link(b, H_FREE_BLK, (uint32_t)first);
    }
    free_msg = link_at(b, H_FREE_MSG);
    for (i = 0, h = head; i < n && inside(h, M_SIZE, size); i++) {
        uint64_t next = link_at(b, h + M_NEXT_MSG);
        store_link(b, h, free_msg);
        free_msg = (uint32_t)h;
        h = next;
    }
    store_link(b, H_FREE_MSG, free_msg);
    store_link(b, H_LIVE_MSGS, link_at(b, H_LIVE_MSGS) - (uint32_t)n);
    store_link(b, H_LIVE_BLOCKS, link_at(b, H_LIVE_BLOCKS) - (uint32_t)nblk);
    store_link(b, H_LIVE_BYTES, link_at(b, H_LIVE_BYTES) - (uint32_t)nbytes);
    return 0;
}
