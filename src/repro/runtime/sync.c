/* The real runtimes' synchronization and effect loop, compiled:
 * ProcSync's four methods (repro/runtime/sync.py) over words in one
 * MAP_SHARED mapping, and drive (repro/runtime/threads.py) over them.
 *
 * The mapping is the one ProcSync makes and a fork inherits, or the tail
 * of a named segment that every attacher maps:
 *
 *   [wait bytes]   one byte per (channel, rank), at chan * nprocs + rank:
 *                  idle, spinning or parked, written only under the
 *                  channel's circuit lock
 *   [status rows]  one "4i5i" row per rank (kind, id, nheld, pid,
 *                  held...), the deadlock dump's, written at bind and on
 *                  the slow paths only
 *   [lock words]   one u32 per lock, each on a cache line of its own:
 *                  0 when free, else the owner's rank + 1, plus WAITERS
 *   [futex words]  one u32 per rank, on a line of its own: the tokens
 *                  posted to a parked waiter (the reference's semaphore)
 *
 * A lock is taken by a CAS; a failed first attempt yield-spins for the
 * handle's lock budget, then sets WAITERS and sleeps in FUTEX_WAIT on
 * the word, the handle's owner-check period at a time, giving up when
 * the owner's process is gone (kill(pid, 0) says ESRCH, or procfs says
 * it exited and waits to be reaped).  A release exchanges the word to 0 and
 * calls FUTEX_WAKE only when WAITERS was set.  The futexes are not
 * FUTEX_PRIVATE: forked and attaching processes park on the same page.
 * The wait-byte rules are the Python reference's (mechanisms P, F and W
 * in sync.py): the waiter marks its byte spinning under the lock, spins
 * on it for the wait budget, and only then marks it parked and sleeps on
 * its futex word; a wake that finds no byte set takes no lock, and one
 * that does clears every set byte and posts one token per parked
 * sleeper.  Every spin and sleep runs with the GIL released.
 *
 * drive(gen, handle, process) is the Python drive's loop without a
 * recorder: it resumes the generator, dispatches on the exact effect
 * class, skips Charge / ChargeMany, and sends lock and channel effects
 * to the functions above.  A FusedSection runs step by step: S_CHARGE /
 * S_MANY are skipped, S_ACQ / S_REL run the code of Acquire / Release,
 * an S_CALL is the section runner's (core/sections.c, shared with the
 * engine's loop), any other opcode is refused.  The held list is the
 * handle's own Python list, which the Python drive keeps too.
 *
 * With SYNC_NO_PYTHON defined, only the lock-word and wait-byte code is
 * compiled (no Python.h): tests/tsan/sync_harness.c includes this file
 * that way.  SYNC_RELEASE_ORDER is the memory order of a lock release;
 * the harness plants __ATOMIC_RELAXED through it to show that it would
 * catch the race.
 */

#define _GNU_SOURCE 1

#ifndef SYNC_NO_PYTHON
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#endif

#include <errno.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#ifndef SYNC_RELEASE_ORDER
#define SYNC_RELEASE_ORDER __ATOMIC_RELEASE
#endif

/* Bytes between two lock words, and between two futex words. */
#define LINE 64
#define WAITERS 0x80000000u

enum { IDLE, SPINNING, PARKED };
enum { RUNNING, ON_LOCK, ON_CHAN, DONE };
#define MAX_HELD 5
/* Bytes of a status row: kind, id, nheld, pid, the held ids. */
#define STATUS_ROW (4 * (4 + MAX_HELD))

/* The per-handle counters, in sync.COUNTERS order: the locks and waits'
 * nine, and the S_CALLs drive ran in C and handed to Python. */
enum { ACQUIRES, BY_SPIN, BY_BLOCK, WAITS, WOKE_SPINNING, N_PARKED,
       WAKES_SKIPPED, WAKES_LOCKED, WAKES_POSTED, STAGES_C, STAGES_PY,
       N_COUNTERS };

typedef struct core {
    unsigned char *mem;
    uint32_t rank, nprocs, nchan, nlocks, first_chan_lock;
    size_t status_off, lock_off, futex_off;
    int64_t lock_spin_ns, wait_spin_ns, owner_check_ns;
    long long ctr[N_COUNTERS];
    /* What owner_gone read last: the lock, its owner's rank and pid. */
    uint32_t dead_lock, dead_rank;
    int32_t dead_pid;
} core_t;

/* Whatever the caller must give up around a spin or a sleep (the GIL),
 * and what it publishes for the deadlock dump before it sleeps. */
#ifdef SYNC_NO_PYTHON
#define UNLOCKED_BEGIN {
#define UNLOCKED_END }
static void publish(core_t *c, int kind, long ident)
{
    (void)c, (void)kind, (void)ident;
}
#else
#define UNLOCKED_BEGIN { PyThreadState *ts_ = PyEval_SaveThread();
#define UNLOCKED_END PyEval_RestoreThread(ts_); }
static void publish(core_t *c, int kind, long ident);
#endif

static int64_t
now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* 0, or the errno: ETIMEDOUT after ``timeout`` (NULL: none); EAGAIN (the
 * word moved) and EINTR send the caller round its loop again, which
 * re-reads the word. */
static int
futex_wait(uint32_t *word, uint32_t expected, const struct timespec *timeout)
{
    return syscall(SYS_futex, word, FUTEX_WAIT, expected, timeout, NULL, 0)
           < 0 ? errno : 0;
}

static void
futex_wake(uint32_t *word, int n)
{
    syscall(SYS_futex, word, FUTEX_WAKE, n, NULL, NULL, 0);
}

/* -- lock words -------------------------------------------------------- */

static uint32_t *
lock_word(const core_t *c, uint32_t id)
{
    return (uint32_t *)(c->mem + c->lock_off + (size_t)id * LINE);
}

static int
lock_try(uint32_t *w, uint32_t me)
{
    uint32_t expected = 0;
    return __atomic_compare_exchange_n(w, &expected, me, 0, __ATOMIC_ACQUIRE,
                                       __ATOMIC_RELAXED);
}

/* Whether process pid has exited and waits to be reaped: state Z in
 * /proc/<pid>/stat (after the command's closing parenthesis, since the
 * command may hold both).  kill(pid, 0) still succeeds on such a
 * process.  0 where procfs cannot say. */
static int
zombie(int32_t pid)
{
    char path[32], buf[512], *p;
    ssize_t n;
    int fd;
    snprintf(path, sizeof path, "/proc/%d/stat", (int)pid);
    if ((fd = open(path, O_RDONLY | O_CLOEXEC)) < 0)
        return 0;
    n = read(fd, buf, sizeof buf - 1);
    close(fd);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    p = strrchr(buf, ')');
    return p != NULL && p[1] == ' ' && p[2] == 'Z';
}

/* Whether the process of lock ``id``'s owner (its word without WAITERS)
 * is gone: the pid in the owner's status row answers kill(pid, 0) with
 * ESRCH, or names a zombie (a row with no pid yet counts as alive).
 * Keeps what it read for the error. */
static int
owner_gone(core_t *c, uint32_t id, uint32_t owner)
{
    if (owner - 1 >= c->nprocs)
        return 0;
    c->dead_lock = id;
    c->dead_rank = owner - 1;
    memcpy(&c->dead_pid, c->mem + c->status_off + (owner - 1) * STATUS_ROW
                             + 12, sizeof c->dead_pid);
    return c->dead_pid > 0
           && ((kill(c->dead_pid, 0) < 0 && errno == ESRCH)
               || zombie(c->dead_pid));
}

/* Sleep until lock ``id`` is ours; -1 when its owner's process is gone.
 * Taken after a sleep, the word keeps WAITERS: another sleeper may be
 * behind, and its wake is the release's job. */
static int
lock_block(core_t *c, uint32_t id, uint32_t me)
{
    const struct timespec check = {(time_t)(c->owner_check_ns / 1000000000),
                                   (long)(c->owner_check_ns % 1000000000)};
    uint32_t *w = lock_word(c, id);
    for (;;) {
        uint32_t v = __atomic_load_n(w, __ATOMIC_RELAXED);
        if (v == 0) {
            if (__atomic_compare_exchange_n(w, &v, me | WAITERS, 0,
                                            __ATOMIC_ACQUIRE,
                                            __ATOMIC_RELAXED))
                return 0;
            continue;
        }
        if (!(v & WAITERS)
            && !__atomic_compare_exchange_n(w, &v, v | WAITERS, 0,
                                            __ATOMIC_RELAXED,
                                            __ATOMIC_RELAXED))
            continue;
        if (futex_wait(w, v | WAITERS, &check) == ETIMEDOUT
            && owner_gone(c, id, v & ~WAITERS))
            return -1;
    }
}

static void
lock_release(uint32_t *w)
{
    uint32_t old = __atomic_exchange_n(w, 0, SYNC_RELEASE_ORDER);
    if (old & WAITERS)
        futex_wake(w, 1);
}

/* Whether this handle's rank holds lock ``id``. */
static int
lock_owned(const core_t *c, uint32_t id)
{
    return (__atomic_load_n(lock_word(c, id), __ATOMIC_RELAXED) & ~WAITERS)
           == c->rank + 1;
}

/* Take lock ``id`` (mechanism L); returns whether the first attempt
 * failed, or -1 when the owner's process is gone (owner_gone). */
static int
core_acquire(core_t *c, uint32_t id)
{
    uint32_t *w = lock_word(c, id), me = c->rank + 1;
    int64_t deadline;
    int got = 0;

    c->ctr[ACQUIRES]++;
    if (lock_try(w, me))
        return 0;
    deadline = now_ns() + c->lock_spin_ns;
    UNLOCKED_BEGIN
    while (now_ns() < deadline) {
        sched_yield();
        if (__atomic_load_n(w, __ATOMIC_RELAXED) == 0 && lock_try(w, me)) {
            got = 1;
            break;
        }
    }
    UNLOCKED_END
    if (got) {
        c->ctr[BY_SPIN]++;
        return 1;
    }
    c->ctr[BY_BLOCK]++;
    publish(c, ON_LOCK, (long)id);
    UNLOCKED_BEGIN
    got = lock_block(c, id, me);
    UNLOCKED_END
    publish(c, RUNNING, 0);
    return got < 0 ? -1 : 1;
}

/* -- wait bytes and the futex word per rank ------------------------------ */

static unsigned char *
wait_byte(const core_t *c, uint32_t chan, uint32_t rank)
{
    return c->mem + (size_t)chan * c->nprocs + rank;
}

static uint32_t *
futex_word(const core_t *c, uint32_t rank)
{
    return (uint32_t *)(c->mem + c->futex_off + (size_t)rank * LINE);
}

static void
post(core_t *c, uint32_t rank)
{
    uint32_t *f = futex_word(c, rank);
    __atomic_add_fetch(f, 1, __ATOMIC_RELEASE);
    futex_wake(f, 1);
}

/* Sleep until a token is posted to this rank, and take it. */
static void
take_token(core_t *c)
{
    uint32_t *f = futex_word(c, c->rank);
    for (;;) {
        uint32_t v = __atomic_load_n(f, __ATOMIC_ACQUIRE);
        if (v == 0)
            futex_wait(f, 0, NULL);
        else if (__atomic_compare_exchange_n(f, &v, v - 1, 0,
                                             __ATOMIC_ACQUIRE,
                                             __ATOMIC_RELAXED))
            return;
    }
}

static void
set_byte(unsigned char *b, unsigned char v)
{
    __atomic_store_n(b, v, __ATOMIC_RELAXED);
}

static unsigned char
get_byte(const unsigned char *b)
{
    return __atomic_load_n(b, __ATOMIC_RELAXED);
}

/* WaitOn (mechanisms P and W): called holding ``lock_id``, the circuit
 * lock of ``chan``; returns holding it again, or -1 as core_acquire. */
static int
core_wait(core_t *c, uint32_t chan, uint32_t lock_id)
{
    unsigned char *mine = wait_byte(c, chan, c->rank);
    uint32_t *w = lock_word(c, lock_id);
    int64_t deadline;

    c->ctr[WAITS]++;
    set_byte(mine, SPINNING);  /* under the circuit lock, like every write */
    lock_release(w);
    deadline = now_ns() + c->wait_spin_ns;
    UNLOCKED_BEGIN
    while (get_byte(mine) != IDLE && now_ns() < deadline)
        sched_yield();
    UNLOCKED_END
    if (core_acquire(c, lock_id) < 0)
        return -1;
    if (get_byte(mine) == IDLE) {
        c->ctr[WOKE_SPINNING]++;
        return 0;
    }
    set_byte(mine, PARKED);
    lock_release(w);
    c->ctr[N_PARKED]++;
    publish(c, ON_CHAN, (long)chan);
    UNLOCKED_BEGIN
    take_token(c);
    UNLOCKED_END
    publish(c, RUNNING, 0);
    return core_acquire(c, lock_id) < 0 ? -1 : 0;
}

/* Wake (mechanisms P and F): resume every sleeper of ``chan``; returns
 * how many, or -1 as core_acquire. */
static int
core_wake(core_t *c, uint32_t chan)
{
    uint32_t r, lock_id = c->first_chan_lock + chan;
    int woken = 0;

    for (r = 0; r < c->nprocs; r++)
        if (get_byte(wait_byte(c, chan, r)) != IDLE)
            break;
    if (r == c->nprocs) {
        c->ctr[WAKES_SKIPPED]++;
        return 0;
    }
    c->ctr[WAKES_LOCKED]++;
    if (core_acquire(c, lock_id) < 0)
        return -1;
    for (r = 0; r < c->nprocs; r++) {
        unsigned char *b = wait_byte(c, chan, r);
        unsigned char state = get_byte(b);
        if (state != IDLE) {
            set_byte(b, IDLE);
            woken++;
            if (state == PARKED) {
                post(c, r);
                c->ctr[WAKES_POSTED]++;
            }
        }
    }
    lock_release(lock_word(c, lock_id));
    return woken;
}

#ifndef SYNC_NO_PYTHON

#ifndef Py_T_UINT
#define Py_T_UINT T_UINT
#define Py_READONLY READONLY
#endif

/* -- the classes classes() hands over ------------------------------------ */

/* The section runner's classes and slots are all this file reads. */
#define HOST_TYPES(X)
#define HOST_FIELDS(X)
#include "sections.c"

static uint32_t FIRST_CHAN_LOCK;
/* LockOwnerDiedError, raised by owner_died. */
static PyObject *OWNER_DIED;

static const char *const COUNTER_NAMES[N_COUNTERS] = {
    "acquires", "acquired_by_spin", "acquired_by_block",
    "waits", "woke_spinning", "parked",
    "wakes_skipped", "wakes_locked", "wakes_posted", "stages_c", "stages_py",
};

/* -- the handle ----------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    core_t c;
    Py_buffer view;
    /* Lock ids the worker holds, in acquisition order; kept by drive
     * (this file's or the Python one) for the deadlock dump. */
    PyObject *held;
} handle_t;

static PyTypeObject HandleType;

static void
publish(core_t *c, int kind, long ident)
{
    handle_t *h = (handle_t *)((char *)c - offsetof(handle_t, c));
    Py_ssize_t n = PyList_GET_SIZE(h->held), first = n - MAX_HELD, i;
    int32_t row[STATUS_ROW / 4] = {0};

    if (first < 0)
        first = 0;
    row[0] = kind;
    row[1] = (int32_t)ident;
    row[2] = (int32_t)(n - first);
    row[3] = (int32_t)getpid();
    for (i = first; i < n; i++)
        row[4 + i - first] =
            (int32_t)PyLong_AsLong(PyList_GET_ITEM(h->held, i));
    PyErr_Clear();  /* an id that is no int reads -1: the dump goes on */
    memcpy(c->mem + c->status_off + (size_t)c->rank * sizeof row, row,
           sizeof row);
}

static PyObject *
handle_new(PyTypeObject *type, PyObject *args, PyObject *kw)
{
    static char *names[] = {"mem", "rank", "nprocs", "nchan", "nlocks",
                            "status_off", "lock_off", "futex_off",
                            "lock_spin_ns", "wait_spin_ns",
                            "owner_check_ns", NULL};
    PyObject *mem;
    unsigned int rank, nprocs, nchan, nlocks;
    Py_ssize_t status_off, lock_off, futex_off;
    long long lock_spin, wait_spin, owner_check;
    handle_t *h;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "OIIIInnnLLL", names, &mem,
                                     &rank, &nprocs, &nchan, &nlocks,
                                     &status_off, &lock_off, &futex_off,
                                     &lock_spin, &wait_spin, &owner_check))
        return NULL;
    h = (handle_t *)type->tp_alloc(type, 0);
    if (h == NULL)
        return NULL;
    if (PyObject_GetBuffer(mem, &h->view, PyBUF_WRITABLE) < 0) {
        Py_DECREF(h);
        return NULL;
    }
    if (rank >= nprocs || FIRST_CHAN_LOCK + nchan > nlocks
        || status_off < (Py_ssize_t)nchan * nprocs
        || lock_off % LINE || futex_off < lock_off + (Py_ssize_t)nlocks * LINE
        || futex_off % LINE || h->view.len < futex_off + nprocs * LINE
        || status_off + (Py_ssize_t)nprocs * STATUS_ROW > lock_off
        || ((uintptr_t)h->view.buf) % LINE) {
        PyBuffer_Release(&h->view);
        Py_DECREF(h);
        PyErr_SetString(PyExc_ValueError, "sync mapping geometry mismatch");
        return NULL;
    }
    h->held = PyList_New(0);
    if (h->held == NULL) {
        Py_DECREF(h);
        return NULL;
    }
    h->c.mem = h->view.buf;
    h->c.rank = rank;
    h->c.nprocs = nprocs;
    h->c.nchan = nchan;
    h->c.nlocks = nlocks;
    h->c.first_chan_lock = FIRST_CHAN_LOCK;
    h->c.status_off = (size_t)status_off;
    h->c.lock_off = (size_t)lock_off;
    h->c.futex_off = (size_t)futex_off;
    h->c.lock_spin_ns = lock_spin;
    h->c.wait_spin_ns = wait_spin;
    h->c.owner_check_ns = owner_check;
    publish(&h->c, RUNNING, 0);
    return (PyObject *)h;
}

static void
handle_dealloc(handle_t *h)
{
    if (h->view.obj != NULL)
        PyBuffer_Release(&h->view);
    Py_XDECREF(h->held);
    Py_TYPE(h)->tp_free((PyObject *)h);
}

/* A lock id or channel id off a Python int, checked against its table. */
static int
id_of(PyObject *o, uint32_t n, const char *what, uint32_t *out)
{
    long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0 || (unsigned long)v >= n) {
        PyErr_Format(PyExc_IndexError, "%s id %ld outside [0, %u)", what, v,
                     n);
        return -1;
    }
    *out = (uint32_t)v;
    return 0;
}

/* Raise what owner_gone found; -1. */
static int
owner_died(const core_t *c)
{
    PyErr_Format(OWNER_DIED, "lock %u is held by rank %u, whose process "
                 "%d is gone", c->dead_lock, c->dead_rank, (int)c->dead_pid);
    return -1;
}

/* WaitOn must name the channel's own circuit lock: wake takes exactly
 * that lock to find the sleepers. */
static int
check_wait(const core_t *c, uint32_t chan, uint32_t lock_id)
{
    if (lock_id != c->first_chan_lock + chan) {
        PyErr_Format(PyExc_RuntimeError,
                     "WaitOn(chan=%u) under lock %u; expected circuit lock %u",
                     chan, lock_id, c->first_chan_lock + chan);
        return -1;
    }
    return 0;
}

static PyObject *
h_acquire(handle_t *h, PyObject *arg)
{
    uint32_t id;
    int rc;
    if (id_of(arg, h->c.nlocks, "lock", &id) < 0)
        return NULL;
    if ((rc = core_acquire(&h->c, id)) < 0)
        return owner_died(&h->c), NULL;
    return PyBool_FromLong(rc);
}

static PyObject *
h_release(handle_t *h, PyObject *arg)
{
    uint32_t id;
    if (id_of(arg, h->c.nlocks, "lock", &id) < 0)
        return NULL;
    if (!lock_owned(&h->c, id)) {
        PyErr_Format(PyExc_RuntimeError, "rank %u released lock %u it does "
                     "not own", h->c.rank, id);
        return NULL;
    }
    lock_release(lock_word(&h->c, id));
    Py_RETURN_NONE;
}

static PyObject *
h_wait(handle_t *h, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t chan, id;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "wait(chan, lock_id)");
        return NULL;
    }
    if (id_of(args[0], h->c.nchan, "channel", &chan) < 0
        || id_of(args[1], h->c.nlocks, "lock", &id) < 0
        || check_wait(&h->c, chan, id) < 0)
        return NULL;
    if (core_wait(&h->c, chan, id) < 0)
        return owner_died(&h->c), NULL;
    Py_RETURN_NONE;
}

static PyObject *
h_wake(handle_t *h, PyObject *arg)
{
    uint32_t chan;
    int n;
    if (id_of(arg, h->c.nchan, "channel", &chan) < 0)
        return NULL;
    if ((n = core_wake(&h->c, chan)) < 0)
        return owner_died(&h->c), NULL;
    return PyLong_FromLong(n);
}

static PyObject *
h_finish(handle_t *h, PyObject *Py_UNUSED(ignored))
{
    publish(&h->c, DONE, 0);
    Py_RETURN_NONE;
}

static PyObject *
h_counters(handle_t *h, PyObject *Py_UNUSED(ignored))
{
    PyObject *d = PyDict_New();
    int i;
    if (d == NULL)
        return NULL;
    for (i = 0; i < N_COUNTERS; i++) {
        PyObject *v = PyLong_FromLongLong(h->c.ctr[i]);
        if (v == NULL || PyDict_SetItemString(d, COUNTER_NAMES[i], v) < 0) {
            Py_XDECREF(v);
            Py_DECREF(d);
            return NULL;
        }
        Py_DECREF(v);
    }
    return d;
}

static PyMethodDef handle_methods[] = {
    {"acquire", (PyCFunction)h_acquire, METH_O,
     "acquire(lock_id): take the lock; whether the first attempt failed."},
    {"release", (PyCFunction)h_release, METH_O, "release(lock_id)"},
    {"wait", (PyCFunction)(void (*)(void))h_wait, METH_FASTCALL,
     "wait(chan, lock_id): WaitOn, called holding the circuit lock."},
    {"wake", (PyCFunction)h_wake, METH_O,
     "wake(chan): resume every sleeper; how many it resumed."},
    {"finish", (PyCFunction)h_finish, METH_NOARGS,
     "Mark this worker done in its status row."},
    {"counters", (PyCFunction)h_counters, METH_NOARGS,
     "The counters, in sync.COUNTERS order."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef handle_members[] = {
    {"held", Py_T_OBJECT_EX, offsetof(handle_t, held), Py_READONLY,
     "Lock ids held, in acquisition order."},
    {"rank", Py_T_UINT, offsetof(handle_t, c) + offsetof(core_t, rank),
     Py_READONLY, "The worker's rank."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject HandleType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_sync.Handle",
    .tp_basicsize = sizeof(handle_t),
    .tp_dealloc = (destructor)handle_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One worker's handle on a ProcSync mapping "
              "(repro/runtime/sync.c).",
    .tp_methods = handle_methods,
    .tp_members = handle_members,
    .tp_new = handle_new,
};

/* -- drive ----------------------------------------------------------------- */

/* An effect's slot (borrowed: the effect holds it); classes() checked
 * that each field read here is a slot. */
static PyObject *
field(PyObject *effect, int f)
{
    return *(PyObject **)((char *)effect + F[f].off);
}

/* Take ``lock_id`` off the held list (its first entry, as list.remove);
 * 0 when it was not there. */
static int
held_remove(PyObject *held, uint32_t lock_id)
{
    Py_ssize_t i, n = PyList_GET_SIZE(held);
    for (i = 0; i < n; i++) {
        long v = PyLong_AsLong(PyList_GET_ITEM(held, i));
        if (v == (long)lock_id)
            return PySequence_DelItem(held, i) < 0 ? -1 : 1;
    }
    PyErr_Clear();
    return 0;
}

/* Whether lock ``o`` is an id of the table that this handle's rank
 * holds; -1 when ``o`` is no int. */
static int
owns(const core_t *c, PyObject *o, uint32_t *id)
{
    long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *id = (uint32_t)v;
    return v >= 0 && (unsigned long)v < c->nlocks && lock_owned(c, *id);
}

/* An S_ACQ or S_REL of lock ``o``, the code of an Acquire or a Release
 * too (an effect is a one-step section); -1 with an exception set when
 * the worker must fail. */
static int
lock_step(handle_t *h, long op, PyObject *o, PyObject *process)
{
    core_t *c = &h->c;
    uint32_t id;
    int rc;

    if (op == S_ACQ) {
        if (id_of(o, c->nlocks, "lock", &id) < 0)
            return -1;
        if (core_acquire(c, id) < 0)
            return owner_died(c);
        return PyList_Append(h->held, o);
    }
    if ((rc = owns(c, o, &id)) <= 0) {
        if (rc == 0)
            PyErr_Format(PyExc_RuntimeError,
                         "process %R released lock %S it does not own",
                         process, o);
        return -1;
    }
    if (held_remove(h->held, id) < 0)
        return -1;
    lock_release(lock_word(c, id));
    return 0;
}

/* One effect; -1 with an exception set when the worker must fail. */
static int
step(handle_t *h, PyObject *effect, PyObject *process)
{
    PyTypeObject *tp = Py_TYPE(effect);
    core_t *c = &h->c;
    uint32_t id, chan;
    PyObject *o;
    int rc;

    if (tp == TYPES[T_ACQ])
        return lock_step(h, S_ACQ, field(effect, A_LOCK), process);
    if (tp == TYPES[T_REL])
        return lock_step(h, S_REL, field(effect, R_LOCK), process);
    if (tp == TYPES[T_WAIT]) {
        o = field(effect, O_LOCK);
        if ((rc = owns(c, o, &id)) <= 0) {
            if (rc == 0)
                PyErr_Format(PyExc_RuntimeError,
                             "process %R waits on channel %S without "
                             "holding lock %S", process,
                             field(effect, O_CHAN), o);
            return -1;
        }
        /* A held lock that is the channel's circuit lock names a
         * channel of the table. */
        chan = (uint32_t)PyLong_AsUnsignedLong(field(effect, O_CHAN));
        if ((chan == (uint32_t)-1 && PyErr_Occurred())
            || held_remove(h->held, id) < 0 || check_wait(c, chan, id) < 0)
            return -1;
        if (core_wait(c, chan, id) < 0)
            return owner_died(c);
        return PyList_Append(h->held, o);
    }
    if (tp == TYPES[T_WAKE]) {
        if (id_of(field(effect, WK_CHAN), c->nchan, "channel", &chan) < 0)
            return -1;
        return core_wake(c, chan) < 0 ? owner_died(c) : 0;
    }
    PyErr_Format(PyExc_RuntimeError, "non-effect %R yielded to real runtime",
                 effect);
    return -1;
}

/* How long a looping section gives the GIL up for (see drive). */
static const struct timespec HANDOFF = {0, 1000};

static PyObject *
drive(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *gen, *process, *out, *op = NULL, *arg = NULL, *result = NULL;
    flight_t S = {NULL, NULL, NULL, 0, 0, 0, 0};
    seg_t G;
    handle_t *h;
    unsigned steps = 0;

    if (nargs != 3 || !Py_IS_TYPE(args[1], &HandleType)) {
        PyErr_SetString(PyExc_TypeError,
                        "drive(gen, handle: Handle, process)");
        return NULL;
    }
    if (TYPES[T_ACQ] == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "classes() was never called");
        return NULL;
    }
    gen = args[0];
    h = (handle_t *)args[1];
    process = args[2];
    memset(&G, 0, sizeof G);
    S.value = Py_NewRef(Py_None);
    for (;;) {
        PyTypeObject *tp;
        int rc;
        if (S.idx < S.n) {
            long code = sec_fetch(&S, &op, &arg);
            rc = code == S_CALL ? sec_call(&S, &G, arg, NULL, NULL)
                 : code == S_ACQ || code == S_REL
                 ? lock_step(h, code, arg, process)
                 : code == S_CHARGE || code == S_MANY ? 0 : -1;
            if (code == S_BAD)
                PyErr_Format(PyExc_RuntimeError, "bad fused step opcode %R",
                             op);
            if (rc < 0)
                break;
            /* A looping section (a poll wait whose walks run here) hands
             * the GIL round and takes signals, as the eval loop would.
             * The release signals a thread waiting for the GIL, but a
             * re-take at once wins the race to it, and bumps the GIL's
             * switch count, so the waiter's interval never ends in a
             * drop request: the pause lets the signalled waiter in. */
            if (++steps % 1024 == 0) {
                UNLOCKED_BEGIN
                nanosleep(&HANDOFF, NULL);
                UNLOCKED_END
                if (PyErr_CheckSignals() < 0)
                    break;
            }
            continue;
        }
        steps = 0;  /* only a looping section reaches the handoff */
        rc = send(gen, S.value, &out);
        if (rc == PYGEN_RETURN)
            result = out;
        if (rc != PYGEN_NEXT)
            break;
        Py_SETREF(S.value, Py_NewRef(Py_None));
        /* Effects are final classes: the exact class, most frequent
         * first, as the Python drive and Engine.run dispatch. */
        tp = Py_TYPE(out);
        rc = tp == TYPES[T_CHARGE] || tp == TYPES[T_MANY]
                 ? 0 : tp == TYPES[T_SECTION]
                 ? sec_jump(&S, NULL, field(out, S_STEPS))
                 : step(h, out, process);
        Py_DECREF(out);
        if (rc < 0)
            break;
    }
    h->c.ctr[STAGES_C] += S.ran_c;
    h->c.ctr[STAGES_PY] += S.ran_py;
    seg_release(&G);
    Py_XDECREF(op);
    Py_XDECREF(arg);
    Py_XDECREF(S.steps);
    Py_DECREF(S.value);
    return result;
}

/* classes(Charge, ChargeMany, Acquire, Release, FusedSection, WaitOn,
 * Wake, PollWalk, RecvStage, RecvSection, MPFView, FIRST_LNVC_LOCK,
 * LockOwnerDiedError, kernel addresses or None): what drive dispatches
 * on and reads, what a dead lock owner raises, and the kernels the
 * section runner calls. */
static PyObject *
classes(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    long first;
    int i;

    if (nargs != N_TYPES + 3) {
        PyErr_SetString(PyExc_TypeError, "classes(11 classes, first lock, "
                        "error class, kernel addresses or None)");
        return NULL;
    }
    first = PyLong_AsLong(args[N_TYPES]);
    if ((first == -1 && PyErr_Occurred()) || bind_classes(args,
                                                          args[N_TYPES + 2]))
        return NULL;
    for (i = 0; i <= WK_CHAN; i++)  /* the effects' slots field() reads */
        if (F[i].off < 0) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not a slot",
                         TYPES[F[i].owner]->tp_name, F[i].name);
            Py_CLEAR(TYPES[T_ACQ]);
            return NULL;
        }
    FIRST_CHAN_LOCK = (uint32_t)first;
    Py_XSETREF(OWNER_DIED, Py_NewRef(args[N_TYPES + 1]));
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"classes", (PyCFunction)(void (*)(void))classes, METH_FASTCALL,
     "classes(Charge, ChargeMany, Acquire, Release, FusedSection, WaitOn, "
     "Wake, PollWalk, RecvStage, RecvSection, MPFView, FIRST_LNVC_LOCK, "
     "LockOwnerDiedError, kernels): what drive() dispatches on and calls."},
    {"drive", (PyCFunction)(void (*)(void))drive, METH_FASTCALL,
     "drive(gen, handle, process): the effect loop; returns the "
     "generator's return value."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sync",
    .m_doc = "Lock words, wait bytes and the effect loop of the real "
             "runtimes (repro/runtime/sync.c).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__sync(void)
{
    PyObject *m;
    if (PyType_Ready(&HandleType) < 0)
        return NULL;
    m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&HandleType);
    if (PyModule_AddObject(m, "Handle", (PyObject *)&HandleType) < 0) {
        Py_DECREF(&HandleType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

#endif /* SYNC_NO_PYTHON */
