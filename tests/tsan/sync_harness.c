/* ThreadSanitizer harness for the lock words and wait bytes of
 * src/repro/runtime/sync.c (``make tsan``).
 *
 * CPython cannot load the TSan runtime on every host, so the C is held
 * here alone: sync.c compiled without Python (SYNC_NO_PYTHON), worked by
 * NTHREADS pthreads on one MAP_SHARED mapping laid out as ProcSync lays
 * it out, each thread with a handle of its own rank.
 *
 *  1. Mutual exclusion: every thread takes lock 0 ITERS times and bumps
 *     a plain counter under it; the count must come out exact, and TSan
 *     sees every counter access ordered by the lock's acquire/release.
 *  2. Lost wakes: a token goes round the threads ROUNDS times on one
 *     channel, each waiting (WaitOn) for its turn under the circuit lock
 *     and waking the channel (Wake) after passing it on.  A lost wake
 *     leaves a waiter parked for good: the alarm ends the run, failed.
 *
 * The budgets are a few microseconds, or zero for one rank each, so
 * both the spin and the futex paths run.  Built with -DSYNC_RELEASE_ORDER=__ATOMIC_RELAXED (a lock
 * release without release order), TSan must report a data race.
 */
#define SYNC_NO_PYTHON 1
#include "../../src/repro/runtime/sync.c"

#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>

#define NTHREADS 3
#define NCHAN 2
#define FIRST_CHAN_LOCK 2
#define NLOCKS (FIRST_CHAN_LOCK + NCHAN)
#define ITERS 20000
#define ROUNDS 3000

static unsigned char *mem;
static long counter;   /* guarded by lock 0 */
static int turn;       /* guarded by channel 0's circuit lock */
static core_t cores[NTHREADS];

static void *
exclusion(void *arg)
{
    core_t *c = arg;
    int i;
    for (i = 0; i < ITERS; i++) {
        core_acquire(c, 0);
        if (!lock_owned(c, 0))
            abort();
        counter++;
        lock_release(lock_word(c, 0));
    }
    return NULL;
}

static void *
token_ring(void *arg)
{
    core_t *c = arg;
    uint32_t lock = FIRST_CHAN_LOCK;
    int i;
    for (i = 0; i < ROUNDS; i++) {
        core_acquire(c, lock);
        while (turn != (int)c->rank)
            core_wait(c, 0, lock);
        turn = (turn + 1) % NTHREADS;
        lock_release(lock_word(c, lock));
        core_wake(c, 0);
    }
    return NULL;
}

static void
run(void *(*body)(void *))
{
    pthread_t t[NTHREADS];
    int i;
    for (i = 0; i < NTHREADS; i++)
        if (pthread_create(&t[i], NULL, body, &cores[i]) != 0) {
            perror("pthread_create");
            exit(2);
        }
    for (i = 0; i < NTHREADS; i++)
        pthread_join(t[i], NULL);
}

int
main(void)
{
    size_t status_off = NCHAN * NTHREADS;
    size_t lock_off = (status_off + NTHREADS * STATUS_ROW + LINE - 1)
                      / LINE * LINE;
    size_t futex_off = lock_off + NLOCKS * LINE;
    size_t size = futex_off + NTHREADS * LINE;
    long long waits = 0, woke = 0, parked = 0, posted = 0, blocked = 0;
    int i;

    mem = mmap(NULL, size, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
        perror("mmap");
        return 2;
    }
    for (i = 0; i < NTHREADS; i++) {
        core_t *c = &cores[i];
        c->mem = mem;
        c->rank = (uint32_t)i;
        c->nprocs = NTHREADS;
        c->nchan = NCHAN;
        c->nlocks = NLOCKS;
        c->first_chan_lock = FIRST_CHAN_LOCK;
        c->status_off = status_off;
        c->lock_off = lock_off;
        c->futex_off = futex_off;
        /* rank 0 sleeps on every contended lock, rank 1 parks on every
         * wait that does not find its turn: both futex paths run */
        c->lock_spin_ns = i == 0 ? 0 : 2000;
        c->wait_spin_ns = i == 1 ? 0 : 2000;
        c->owner_check_ns = 100000000;
    }
    alarm(120);  /* a lost wake hangs; SIGALRM fails the run */

    run(exclusion);
    if (counter != (long)NTHREADS * ITERS) {
        fprintf(stderr, "mutual exclusion broken: %ld of %ld\n", counter,
                (long)NTHREADS * ITERS);
        return 1;
    }
    run(token_ring);
    for (i = 0; i < NTHREADS; i++) {
        waits += cores[i].ctr[WAITS];
        woke += cores[i].ctr[WOKE_SPINNING];
        parked += cores[i].ctr[N_PARKED];
        posted += cores[i].ctr[WAKES_POSTED];
        blocked += cores[i].ctr[BY_BLOCK];
    }
    if (parked != posted || waits != woke + parked) {
        fprintf(stderr, "counters: waits %lld, woke spinning %lld, parked "
                "%lld, posted %lld\n", waits, woke, parked, posted);
        return 1;
    }
    printf("sync harness ok: %d threads, %ld guarded increments, %d token "
           "passes; %lld waits (%lld parked), %lld lock sleeps\n",
           NTHREADS, counter, NTHREADS * ROUNDS, waits, parked, blocked);
    return 0;
}
