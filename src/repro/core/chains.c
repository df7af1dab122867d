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
