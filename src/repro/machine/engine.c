/* The engine's step interpreter, compiled: Engine.run's loop
 * (repro/machine/engine.py) as one C function over the same Python
 * objects.
 *
 * The Python loop is the reference; this file is that loop statement
 * for statement.  It takes the earliest (-time, -seq, process) entry of
 * the engine's sorted list, runs that process step after step for as
 * long as its next resume time stays strictly before every queued entry
 * (and at or before the run's bound), then parks it behind a fresh seq.
 * A yielded Charge / ChargeMany / Acquire / Release and the section
 * steps S_CHARGE / S_MANY / S_ACQ / S_REL are executed here, and so are
 * the lock and channel handlers (grant-next, WaitOn, Wake) and, under
 * BalanceTiming's closed form, the pricing of copy, block and page
 * work, copy_started / copy_finished and wake_cost.  An S_CALL is the
 * section runner's (core/sections.c, shared with runtime/sync.c): a
 * poll walk or a receive stage whose memo holds runs there.  What stays
 * Python is called from here with the arguments the reference passes:
 * the generator's send, the S_CALLs the runner hands back,
 * TimingModel.price and the model methods for a timing model without
 * the closed form or work it does not cover, the Recorder hooks, the
 * scheduler's attach / choose, and the engine's _over_budget /
 * _raise_if_stalled.
 *
 * The state is the engine's own: the queue list, engine.now (written
 * before each resume, closure call, handler and scheduler call, as the
 * reference writes it), engine._seq and engine._runnable (which a body
 * that spawns moves), the lock and channel objects, the SimProcess
 * fields.  The additive EngineStats counters live in locals while the
 * loop runs and are written back before the scheduler is asked and on
 * every way out.  Slotted fields (the effect and Work classes, _SimLock,
 * _WaitChannel, SimProcess) are read and stored at the offsets their
 * member descriptors name, after an exact type check; anything else goes
 * through getattr / setattr.
 *
 * Float expressions are the reference's, operation for operation:
 * instrs * t_instr [+ flops * t_flop] [* (running / n_cpus)], a
 * ChargeMany's parts added to the clock one after another, never summed
 * first.  The build passes -ffp-contract=off so that no multiply-add is
 * fused.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

/* -- the classes and strings bind() hands over ---------------------------
 *
 * The engine's own classes and slots follow the section runner's
 * (core/sections.c: the effects, the poll walk and the receive section). */

#define HOST_TYPES(X) X(T_WORK) X(T_PROC) X(T_LOCK) X(T_CHAN) X(T_BUS) \
    X(T_CACHE) X(T_VM)
#define HOST_FIELDS(X) X(W_INSTRS, T_WORK, "instrs")                        \
    X(W_COPY, T_WORK, "copy_bytes") X(W_BLOCKS, T_WORK, "blocks")           \
    X(W_FLOPS, T_WORK, "flops") X(W_PAGES, T_WORK, "page_bytes")            \
    X(W_LABEL, T_WORK, "label") X(C_WORK, T_CHARGE, "work")                 \
    X(M_WORKS, T_MANY, "works") X(L_OWNER, T_LOCK, "owner")                 \
    X(L_WAITERS, T_LOCK, "waiters") X(L_AT, T_LOCK, "acquired_at")          \
    X(CH_SLEEPERS, T_CHAN, "sleepers") X(P_NAME, T_PROC, "name")            \
    X(P_GEN, T_PROC, "gen") X(P_STATE, T_PROC, "state")                     \
    X(P_INBOX, T_PROC, "_inbox") X(P_RESULT, T_PROC, "result")              \
    X(P_ERROR, T_PROC, "error") X(P_WAIT_LOCK, T_PROC, "_wait_lock")        \
    X(P_IMPLICIT, T_PROC, "_implicit_reacquire")                            \
    X(P_WAITED, T_PROC, "lock_wait_time")                                   \
    X(P_SINCE, T_PROC, "_blocked_since") X(P_COPYING, T_PROC, "_copying")   \
    X(P_FUSED, T_PROC, "_fused") X(BU_ALPHA, T_BUS, "alpha")                \
    X(BU_ACTIVE, T_BUS, "active") X(BU_PEAK, T_BUS, "peak")                 \
    X(BU_TOTAL, T_BUS, "total_copies") X(CA_BYTES, T_CACHE, "cache_bytes")  \
    X(CA_MISS, T_CACHE, "miss_seconds") X(CA_STALL, T_CACHE, "stall_time")  \
    X(CA_STALLED, T_CACHE, "stalled_blocks")                                \
    X(VM_RESIDENT, T_VM, "resident_bytes") X(VM_PAGE, T_VM, "page_bytes")   \
    X(VM_FAULT_S, T_VM, "fault_seconds") X(VM_FAULTS, T_VM, "faults")       \
    X(VM_FAULT_TIME, T_VM, "fault_time") X(VM_CARRY, T_VM, "_carry")

#include "sections.c"

static PyObject *SIM_ERROR;
static PyObject *S_RUNNABLE, *S_WAIT_LOCK, *S_WAIT_CHAN, *S_DONE, *S_FAILED;

/* Attribute and method names, interned once. */
static PyObject *K_NOW, *K_QUEUE, *K_SEQ, *K_RUNNABLE, *K_STATS, *K_TIMING,
    *K_PRICE, *K_RECORDER, *K_MAX_EVENTS, *K_SCHEDULER, *K_ATTACH, *K_CHOOSE,
    *K_LOCKS, *K_CHANNELS, *K_N_LOCKS, *K_N_CHANNELS, *K_T_ACQUIRE,
    *K_T_RELEASE, *K_ANALYTIC, *K_CLOSED_FORM, *K_COPY_STARTED,
    *K_COPY_FINISHED, *K_WAKE_COST, *K_OVER_BUDGET, *K_STALLED, *K_APPEND,
    *K_POPLEFT, *K_ON_CHARGE, *K_ON_ACQUIRE, *K_ON_RELEASE, *K_ON_WAKE,
    *K_ON_CHAN_WAIT,
    *KW_CONTENDED, *KW_CONTENDED_COUNTED, *KW_COUNTED;

/* The EngineStats counters, in the order of STAT_NAMES. */
enum { ST_EVENTS, ST_CHARGES, ST_SECONDS, ST_ACQUIRES, ST_CONTENDED,
       ST_WAKES, ST_WOKEN, N_STATS };
static const char *STAT_NAMES[N_STATS] = {
    "events", "charges", "charged_seconds", "lock_acquires",
    "lock_contended", "wakes", "woken"};
static PyObject *K_STAT[N_STATS], *K_PUSHES, *K_POPS;

static int
set_double(PyObject *o, int f, double x)
{
    return set_new(o, f, PyFloat_FromDouble(x));
}

/* float(x) as Python's arithmetic converts an operand: exactly for a
 * float, correctly rounded for an int. */
static int
as_double(PyObject *x, double *out)
{
    if (PyFloat_CheckExact(x))
        *out = PyFloat_AS_DOUBLE(x);
    else if (PyLong_Check(x))
        *out = PyLong_AsDouble(x);
    else
        *out = PyFloat_AsDouble(x);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static int
get_double(PyObject *o, int f, double *out)
{
    int rc;
    PyObject *v = get(o, f);
    if (v == NULL)
        return -1;
    rc = as_double(v, out);
    Py_DECREF(v);
    return rc;
}

/* o.<f> when it is a float: 1; 0 when it is anything else; -1 on error. */
static int
get_float(PyObject *o, int f, double *out)
{
    int rc = 0;
    PyObject *v = get(o, f);
    if (v == NULL)
        return -1;
    if (PyFloat_CheckExact(v)) {
        *out = PyFloat_AS_DOUBLE(v);
        rc = 1;
    }
    Py_DECREF(v);
    return rc;
}

static int
attr_ll(PyObject *o, PyObject *key, long long *out)
{
    PyObject *v = PyObject_GetAttr(o, key);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
set_attr_ll(PyObject *o, PyObject *key, long long x)
{
    PyObject *v = PyLong_FromLongLong(x);
    int rc = v == NULL ? -1 : PyObject_SetAttr(o, key, v);
    Py_XDECREF(v);
    return rc;
}

static PyObject *
call_method0(PyObject *o, PyObject *name)
{
    PyObject *args[1] = {o};
    return PyObject_VectorcallMethod(
        name, args, 1 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

static int
call_method0_void(PyObject *o, PyObject *name)
{
    PyObject *r = call_method0(o, name);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

static int
call_method1_void(PyObject *o, PyObject *name, PyObject *arg)
{
    PyObject *args[2] = {o, arg};
    PyObject *r = PyObject_VectorcallMethod(
        name, args, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* Raise the exception ``exc`` (steals it). */
static void
raise_obj(PyObject *exc)
{
    PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
    Py_DECREF(exc);
}

/* Raise ``exc`` again, as taken by take_exc (steals it). */
static void
restore_exc(PyObject *exc)
{
#if PY_VERSION_HEX >= 0x030C0000
    PyErr_SetRaisedException(exc);
#else
    PyErr_Restore(Py_NewRef((PyObject *)Py_TYPE(exc)), exc,
                  PyException_GetTraceback(exc));
#endif
}

static void
sim_error(PyObject *msg)  /* steals msg */
{
    if (msg != NULL) {
        PyErr_SetObject(SIM_ERROR, msg);
        Py_DECREF(msg);
    }
}

/* -- one run ---------------------------------------------------------- */

/* The engine's attributes a body moves by spawning (``_seq``,
 * ``_runnable``) or observes (``now``) are kept in locals and stored in
 * the engine's instance dict (Engine defines no descriptor for them) by
 * flush() before every call into Python code that might read them; the
 * two counters are read back after a generator resume or an S_CALL, the
 * calls that may spawn.  ``now`` is stored with the value the reference
 * last wrote — where it writes ``self.now = now`` this loop notes the
 * value (note_now) — so every callee sees the clock the reference's
 * callee saw. */
/* A queue entry (-time, -seq, process); see "the queue" below. */
typedef struct {
    double k0;
    long long k1;
    PyObject *proc;
} ent_t;

/* BalanceTiming's analytic contract (machine/cpu.py, analytic_charge). */
typedef struct {
    int on;
    double t_instr, t_flop, n_cpus;
    long long cpus;
} analytic_t;

/* BalanceTiming's closed form (machine/cpu.py, closed_form), read once
 * per run: its constants, and the bus, cache and VM models whose
 * statistics the pricing reads and writes as it goes (borrowed from the
 * form tuple the run holds). */
typedef struct {
    int on;
    double bus_byte, alpha, miss, fault_s, t_instr;
    long long wake, cache_bytes, resident, page, blocks_off, stride,
        bytes_off;
    PyObject *bus, *cache, *vm, *seg;
} balance_t;

typedef struct {
    PyObject *engine, *dict, *queue, *timing, *rec, *locks, *chans;
    ent_t *q;  /* the queue while the loop runs */
    Py_ssize_t qn, qcap;
    Py_ssize_t n_locks, n_chans;
    double t_acquire, t_release;
    double now;
    double noted;     /* the engine.now the reference has written */
    double written;   /* the engine.now in the dict, when `fresh` */
    int fresh, seq_dirty, run_dirty;
    long long seq, runnable;
    long long stat[N_STATS];
    double t_ch;
    balance_t B;
    PyObject *form;   /* the closed form tuple, when B.on */
    seg_t G;          /* the segment the walks, stages and demands read */
} run_t;

static void
note_now(run_t *R)
{
    R->noted = R->now;
}

static int
dict_ll(run_t *R, PyObject *key, long long *out)
{
    PyObject *v = PyDict_GetItemWithError(R->dict, key);
    if (v == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_AttributeError, key);
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
dict_set(run_t *R, PyObject *key, PyObject *v)  /* steals v */
{
    int rc;
    if (v == NULL)
        return -1;
    rc = PyDict_SetItem(R->dict, key, v);
    Py_DECREF(v);
    return rc;
}

static int
flush(run_t *R)
{
    if (!R->fresh || memcmp(&R->written, &R->noted, sizeof(double)) != 0) {
        if (dict_set(R, K_NOW, PyFloat_FromDouble(R->noted)) < 0)
            return -1;
        R->written = R->noted;
        R->fresh = 1;
    }
    if (R->seq_dirty) {
        if (dict_set(R, K_SEQ, PyLong_FromLongLong(R->seq)) < 0)
            return -1;
        R->seq_dirty = 0;
    }
    if (R->run_dirty) {
        if (dict_set(R, K_RUNNABLE, PyLong_FromLongLong(R->runnable)) < 0)
            return -1;
        R->run_dirty = 0;
    }
    return 0;
}

static int absorb(run_t *R);

/* After a call that may have spawned: the counters, and the entries the
 * spawns queued. */
static int
reload(run_t *R)
{
    return dict_ll(R, K_SEQ, &R->seq) < 0
           || dict_ll(R, K_RUNNABLE, &R->runnable) < 0
           || (PyList_GET_SIZE(R->queue) > 0 && absorb(R) < 0) ? -1 : 0;
}

static int
add_runnable(run_t *R, long long d)
{
    R->runnable += d;
    R->run_dirty = 1;
    return 0;
}

static int
flush_stats(run_t *R, PyObject *stats)
{
    int i, rc;
    PyObject *v;
    for (i = 0; i < N_STATS; i++) {
        v = i == ST_SECONDS ? PyFloat_FromDouble(R->t_ch)
                            : PyLong_FromLongLong(R->stat[i]);
        if (v == NULL)
            return -1;
        rc = PyObject_SetAttr(stats, K_STAT[i], v);
        Py_DECREF(v);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* -- the queue ------------------------------------------------------------
 *
 * While the loop runs, the engine's queue is a C array of the same
 * (-time, -seq, process) entries in the same ascending order (the
 * earliest (time, seq) last), so a park is a bisect and a move of
 * pointers and a take is a pop, with no tuple built or read.  What a
 * body spawns lands in the Python list (Engine._schedule): absorb()
 * moves it over after every resume and S_CALL, and every way out of the
 * loop writes the array back into the list as tuples. */

static int
q_insert(run_t *R, double k0, long long k1, PyObject *proc)
{
    Py_ssize_t lo = 0, hi = R->qn, mid;
    while (lo < hi) {  /* bisect.insort_right on (k0, k1) */
        mid = (lo + hi) / 2;
        if (k0 < R->q[mid].k0 || (k0 == R->q[mid].k0 && k1 < R->q[mid].k1))
            hi = mid;
        else
            lo = mid + 1;
    }
    if (R->qn == R->qcap) {
        Py_ssize_t cap = R->qcap ? 2 * R->qcap : 16;
        ent_t *q = PyMem_Realloc(R->q, cap * sizeof(ent_t));
        if (q == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        R->q = q;
        R->qcap = cap;
    }
    memmove(R->q + lo + 1, R->q + lo, (R->qn - lo) * sizeof(ent_t));
    R->q[lo].k0 = k0;
    R->q[lo].k1 = k1;
    R->q[lo].proc = Py_NewRef(proc);
    R->qn++;
    return 0;
}

/* Move the entries of the engine's list into the array (on an error,
 * those moved leave the list and the rest stay). */
static int
absorb(run_t *R)
{
    Py_ssize_t i, n = PyList_GET_SIZE(R->queue);
    int rc = 0;
    for (i = 0; i < n && rc == 0; i++) {
        PyObject *e = PyList_GET_ITEM(R->queue, i), *t;
        double k0;
        long long k1;
        rc = -1;
        if (!PyTuple_CheckExact(e) || PyTuple_GET_SIZE(e) != 3) {
            PyErr_SetString(PyExc_TypeError, "engine queue entry is not a "
                            "(-time, -seq, process) tuple");
            break;
        }
        t = PyTuple_GET_ITEM(e, 0);
        k0 = PyFloat_CheckExact(t) ? PyFloat_AS_DOUBLE(t) : PyFloat_AsDouble(t);
        if (k0 == -1.0 && PyErr_Occurred())
            break;
        k1 = PyLong_AsLongLong(PyTuple_GET_ITEM(e, 1));
        if (k1 == -1 && PyErr_Occurred())
            break;
        rc = q_insert(R, k0, k1, PyTuple_GET_ITEM(e, 2));
    }
    if (rc < 0) {
        PyObject *exc = take_exc();
        i--;  /* the entry that failed stays */
        if (i > 0 && PyList_SetSlice(R->queue, 0, i, NULL) < 0)
            PyErr_Clear();
        restore_exc(exc);
        return -1;
    }
    return n ? PyList_SetSlice(R->queue, 0, n, NULL) : 0;
}

/* The array back into the engine's list, emptied and freed. */
static int
write_back(run_t *R)
{
    Py_ssize_t i;
    int rc = absorb(R);  /* a body's last spawn, if it raised after */
    PyObject *list = rc < 0 ? NULL : PyList_New(R->qn);
    for (i = 0; i < R->qn; i++) {
        if (list != NULL) {
            PyObject *e = Py_BuildValue("(dLO)", R->q[i].k0, R->q[i].k1,
                                        R->q[i].proc);
            if (e == NULL)
                Py_CLEAR(list);
            else
                PyList_SET_ITEM(list, i, e);
        }
        Py_DECREF(R->q[i].proc);
    }
    PyMem_Free(R->q);
    R->q = NULL;
    R->qn = R->qcap = 0;
    if (list == NULL)
        return -1;
    rc = PyList_SetSlice(R->queue, 0, PyList_GET_SIZE(R->queue), list);
    Py_DECREF(list);
    return rc;
}

/* -queue[-1][0]: the earliest time anything is pending, inf if nothing. */
static inline double
earliest(run_t *R)
{
    return R->qn == 0 ? HUGE_VAL : -R->q[R->qn - 1].k0;
}

/* Engine._schedule's park: (-t, -seq, proc) behind a fresh seq. */
static int
park(run_t *R, PyObject *proc, double t)
{
    R->seq += 1;
    R->seq_dirty = 1;
    return q_insert(R, -t, -R->seq, proc);
}

/* Engine._lock / _chan and the handlers' range tests: `0 <= id < n`, or
 * SimulationError("<what> <id> out of range"). */
static int
index_of(PyObject *id, Py_ssize_t n, const char *what, Py_ssize_t *out)
{
    Py_ssize_t i;
    if (PyIndex_Check(id)) {  /* an int, or a numpy integer */
        i = PyNumber_AsSsize_t(id, PyExc_OverflowError);
        if (i == -1 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError))
                return -1;
            PyErr_Clear();  /* no table is that long */
        }
        if (0 <= i && i < n) {
            *out = i;
            return 0;
        }
    }
    else {
        PyObject *zero = PyLong_FromLong(0), *top = PyLong_FromSsize_t(n);
        int lo, hi = 0;
        if (zero == NULL || top == NULL) {
            Py_XDECREF(zero);
            Py_XDECREF(top);
            return -1;
        }
        lo = PyObject_RichCompareBool(zero, id, Py_LE);
        if (lo > 0)
            hi = PyObject_RichCompareBool(id, top, Py_LT);
        Py_DECREF(zero);
        Py_DECREF(top);
        if (lo < 0 || hi < 0)
            return -1;
        if (lo && hi) {  /* in range, but a list refuses it */
            PyErr_Format(PyExc_TypeError,
                         "list indices must be integers or slices, not %.200s",
                         Py_TYPE(id)->tp_name);
            return -1;
        }
    }
    sim_error(PyUnicode_FromFormat("%s %S out of range", what, id));
    return -1;
}

static PyObject *
lock_at(run_t *R, PyObject *lock_id)  /* borrowed */
{
    Py_ssize_t i;
    if (index_of(lock_id, R->n_locks, "lock id", &i) < 0)
        return NULL;
    return PyList_GET_ITEM(R->locks, i);
}

static PyObject *
chan_at(run_t *R, PyObject *chan)  /* borrowed */
{
    Py_ssize_t i;
    if (index_of(chan, R->n_chans, "wait channel", &i) < 0)
        return NULL;
    return PyList_GET_ITEM(R->chans, i);
}

/* rec.<method>(now, proc.name, a, x, **kw) — x is stolen; kwnames names
 * the keyword values kw1[, kw2] (NULL: none). */
static int
hook(run_t *R, PyObject *method, PyObject *proc, PyObject *a, PyObject *x,
     PyObject *kwnames, PyObject *kw1, PyObject *kw2)
{
    PyObject *now = NULL, *name = NULL, *r = NULL;
    if (x != NULL && flush(R) == 0 && (name = get(proc, P_NAME)) != NULL)
        now = PyFloat_FromDouble(R->now);
    if (now != NULL) {
        PyObject *args[7] = {R->rec, now, name, a, x, kw1, kw2};
        r = PyObject_VectorcallMethod(
            method, args, 5 | PY_VECTORCALL_ARGUMENTS_OFFSET, kwnames);
    }
    Py_XDECREF(now);
    Py_XDECREF(name);
    Py_XDECREF(x);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* SimulationError(fmt with proc.name, a, b) */
static void
proc_error(PyObject *proc, const char *fmt, PyObject *a, PyObject *b)
{
    PyObject *name = get(proc, P_NAME);
    if (name != NULL) {
        sim_error(PyUnicode_FromFormat(fmt, name, a, b));
        Py_DECREF(name);
    }
}

/* Block ``proc`` in ``state`` behind ``queue`` (a lock's waiters or a
 * channel's sleepers) until a grant or a wake. */
static double
block(run_t *R, PyObject *proc, PyObject *state, PyObject *lock_id,
      PyObject *queue)
{
    if (queue == NULL || set(proc, P_STATE, state) < 0
        || add_runnable(R, -1) < 0 || set(proc, P_WAIT_LOCK, lock_id) < 0
        || set_double(proc, P_SINCE, R->now) < 0
        || call_method1_void(queue, K_APPEND, proc) < 0) {
        Py_XDECREF(queue);
        return NAN;
    }
    Py_DECREF(queue);
    return -1.0;
}

/* Engine._grant_next: hand the lock to its next FIFO waiter, or free it. */
static int
grant_next(run_t *R, PyObject *lock_id, PyObject *lock)
{
    PyObject *waiters = get(lock, L_WAITERS), *nxt = NULL;
    double since, waited;
    int has, implicit, rc = -1;

    if (waiters == NULL)
        return -1;
    has = PyObject_IsTrue(waiters);
    if (has <= 0) {
        rc = has < 0 ? -1 : set(lock, L_OWNER, Py_None);
        goto out;
    }
    nxt = call_method0(waiters, K_POPLEFT);
    if (nxt == NULL || set(lock, L_OWNER, nxt) < 0
        || set_double(lock, L_AT, R->now) < 0
        || set(nxt, P_STATE, S_RUNNABLE) < 0 || add_runnable(R, 1) < 0
        || set(nxt, P_WAIT_LOCK, Py_None) < 0
        || get_double(nxt, P_SINCE, &since) < 0
        || get_double(nxt, P_WAITED, &waited) < 0
        || set_double(nxt, P_WAITED, waited + (R->now - since)) < 0
        || (implicit = truth(nxt, P_IMPLICIT)) < 0)
        goto out;
    if (R->rec != Py_None
        && hook(R, K_ON_ACQUIRE, nxt, lock_id,
                PyFloat_FromDouble(R->now - since), KW_CONTENDED_COUNTED,
                Py_True, implicit ? Py_False : Py_True) < 0)
        goto out;
    if (set(nxt, P_IMPLICIT, Py_False) < 0
        || park(R, nxt, R->now + R->t_acquire) < 0)
        goto out;
    rc = 0;
out:
    Py_DECREF(waiters);
    Py_XDECREF(nxt);
    return rc;
}

/* The lock ``lock_id`` names if ``proc`` holds it (borrowed), else NULL
 * with SimulationError(fmt with proc.name, a, lock_id). */
static PyObject *
held(run_t *R, PyObject *proc, PyObject *lock_id, const char *fmt,
     PyObject *a)
{
    PyObject *lock = lock_at(R, lock_id), *owner;
    if (lock == NULL || (owner = get(lock, L_OWNER)) == NULL)
        return NULL;
    Py_DECREF(owner);
    if (owner != proc) {
        proc_error(proc, fmt, a, lock_id);
        return NULL;
    }
    return lock;
}

/* Engine._do_acquire: the resume time, -1.0 when blocked, NAN on error. */
static double
do_acquire(run_t *R, PyObject *proc, PyObject *lock_id)
{
    PyObject *lock = lock_at(R, lock_id), *owner;
    if (lock == NULL)
        return NAN;
    R->stat[ST_ACQUIRES] += 1;
    owner = get(lock, L_OWNER);
    if (owner == NULL)
        return NAN;
    Py_DECREF(owner);  /* compared by identity only */
    if (owner == Py_None) {
        if (set(lock, L_OWNER, proc) < 0
            || set_double(lock, L_AT, R->now) < 0
            || (R->rec != Py_None
                && hook(R, K_ON_ACQUIRE, proc, lock_id, PyFloat_FromDouble(0.0),
                        KW_CONTENDED, Py_False, NULL) < 0))
            return NAN;
        return R->now + R->t_acquire;
    }
    if (owner == proc) {
        proc_error(proc, "process %R re-acquired lock %S (self-deadlock)",
                   lock_id, NULL);
        return NAN;
    }
    R->stat[ST_CONTENDED] += 1;
    return block(R, proc, S_WAIT_LOCK, lock_id, get(lock, L_WAITERS));
}

/* Engine._do_release */
static double
do_release(run_t *R, PyObject *proc, PyObject *lock_id)
{
    double at;
    PyObject *lock = held(R, proc, lock_id,
                          "process %R released lock %S it does not own",
                          lock_id);
    if (lock == NULL
        || (R->rec != Py_None
            && (get_double(lock, L_AT, &at) < 0
                || hook(R, K_ON_RELEASE, proc, lock_id,
                        PyFloat_FromDouble(R->now - at), NULL, NULL,
                        NULL) < 0))
        || grant_next(R, lock_id, lock) < 0)
        return NAN;
    return R->now + R->t_release;
}

/* Engine._do_wait */
static double
do_wait(run_t *R, PyObject *proc, PyObject *chan, PyObject *lock_id)
{
    double at;
    PyObject *channel, *lock = held(
        R, proc, lock_id,
        "process %R waits on channel %S without holding lock %S", chan);
    if (lock == NULL || (channel = chan_at(R, chan)) == NULL)
        return NAN;
    /* WaitOn releases the lock on the caller's behalf: the hold span
     * ends without counting a Release effect */
    if ((R->rec != Py_None
         && (get_double(lock, L_AT, &at) < 0
             || hook(R, K_ON_RELEASE, proc, lock_id,
                     PyFloat_FromDouble(R->now - at), KW_COUNTED, Py_False,
                     NULL) < 0))
        || grant_next(R, lock_id, lock) < 0)
        return NAN;
    return block(R, proc, S_WAIT_CHAN, lock_id, get(channel, CH_SLEEPERS));
}

/* One sleeper of a Wake: its sleep ends (what elapsed was channel
 * sleep, what follows lock wait; lock_wait_time takes both), then it
 * takes its lock or queues for it. */
static int
wake_one(run_t *R, PyObject *sleeper, PyObject *chan)
{
    PyObject *lock_id = get(sleeper, P_WAIT_LOCK), *lock, *owner = NULL;
    PyObject *waiters = NULL;
    double since, waited, slept;
    int rc = -1;

    if (lock_id == NULL)
        return -1;
    lock = lock_at(R, lock_id);
    if (lock == NULL || get_double(sleeper, P_SINCE, &since) < 0
        || get_double(sleeper, P_WAITED, &waited) < 0)
        goto out;
    slept = R->now - since;
    if (set_double(sleeper, P_WAITED, waited + slept) < 0
        || set_double(sleeper, P_SINCE, R->now) < 0
        || (R->rec != Py_None
            && hook(R, K_ON_CHAN_WAIT, sleeper, chan,
                    PyFloat_FromDouble(slept), NULL, NULL, NULL) < 0)
        || (owner = get(lock, L_OWNER)) == NULL)
        goto out;
    if (owner == Py_None) {
        if (set(lock, L_OWNER, sleeper) < 0
            || set_double(lock, L_AT, R->now) < 0
            || set(sleeper, P_STATE, S_RUNNABLE) < 0
            || add_runnable(R, 1) < 0
            || set(sleeper, P_WAIT_LOCK, Py_None) < 0
            || (R->rec != Py_None
                && hook(R, K_ON_ACQUIRE, sleeper, lock_id,
                        PyFloat_FromDouble(0.0), KW_CONTENDED_COUNTED,
                        Py_False, Py_False) < 0)
            || park(R, sleeper, R->now + R->t_acquire) < 0)
            goto out;
    }
    else if ((waiters = get(lock, L_WAITERS)) == NULL
             || set(sleeper, P_STATE, S_WAIT_LOCK) < 0
             || set(sleeper, P_IMPLICIT, Py_True) < 0
             || call_method1_void(waiters, K_APPEND, sleeper) < 0)
        goto out;
    rc = 0;
out:
    Py_DECREF(lock_id);
    Py_XDECREF(owner);
    Py_XDECREF(waiters);
    return rc;
}

/* The little-endian u32 at off of the segment mv into *out: 1; 0 when
 * it cannot be read here. */
static int
seg_u32(run_t *R, PyObject *mv, long long off, long long *out)
{
    uint64_t len;
    const char *b = seg_bytes(&R->G, mv, &len);
    unsigned char w[4];
    if (b == NULL || off < 0 || (uint64_t)off + 4 > len)
        return 0;
    memcpy(w, b + off, 4);
    *out = (long long)((uint32_t)w[0] | (uint32_t)w[1] << 8
                       | (uint32_t)w[2] << 16 | (uint32_t)w[3] << 24);
    return 1;
}

/* -- BalanceTiming, evaluated here ----------------------------------------
 *
 * machine/cpu.py's price(), BusModel.started / finished and wake_cost,
 * operation for operation over the same values: an int operand of a
 * float operation is converted first (every int here is within 2**53, so
 * exactly), an int / int is divided as doubles (correctly rounded, as
 * Python's true division), and each statistic is read off its model and
 * stored back where the model stores it.  Work or state outside what
 * that covers — a field that is not an int, a statistic of another
 * type, a demand word the segment does not hold — is priced by calling
 * the model, having written nothing. */

/* The closed form, or B->on = 0 where there is none or it holds what
 * this loop does not evaluate. */
static int
load_balance(run_t *R, const double t_instr)
{
    balance_t *B = &R->B;
    PyObject *form = PyObject_GetAttr(R->timing, K_CLOSED_FORM), *it[9];
    int i, ok;

    memset(B, 0, sizeof *B);
    if (form == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
        return 0;
    }
    if (!PyTuple_CheckExact(form) || PyTuple_GET_SIZE(form) != 9) {
        Py_DECREF(form);
        return 0;
    }
    for (i = 0; i < 9; i++)
        it[i] = PyTuple_GET_ITEM(form, i);
    B->bus = it[2];
    B->cache = it[3];
    B->vm = it[4];
    B->seg = it[5];
    B->t_instr = t_instr;
    ok = PyFloat_CheckExact(it[0]) && PyLong_CheckExact(it[1])
         && PyLong_CheckExact(it[6]) && PyLong_CheckExact(it[7])
         && PyLong_CheckExact(it[8]);
    if (ok) {
        B->bus_byte = PyFloat_AS_DOUBLE(it[0]);
        B->wake = PyLong_AsLongLong(it[1]);
        B->blocks_off = PyLong_AsLongLong(it[6]);
        B->stride = PyLong_AsLongLong(it[7]);
        B->bytes_off = PyLong_AsLongLong(it[8]);
        if (PyErr_Occurred()) {
            PyErr_Clear();
            ok = 0;
        }
    }
    /* the constants a model reads off itself, each once */
    if (ok && ((ok = get_exact(B->cache, CA_BYTES, &B->cache_bytes)) == 1)
        && ((ok = get_exact(B->vm, VM_RESIDENT, &B->resident)) == 1))
        ok = get_exact(B->vm, VM_PAGE, &B->page);
    if (ok < 0 || (ok && (get_double(B->bus, BU_ALPHA, &B->alpha) < 0
                          || get_double(B->cache, CA_MISS, &B->miss) < 0
                          || get_double(B->vm, VM_FAULT_S,
                                        &B->fault_s) < 0))) {
        Py_DECREF(form);
        return -1;
    }
    /* wake + 20 * n stays exact for any n a wake sees */
    B->on = ok && B->page > 0 && 0 <= B->stride && B->stride <= (1 << 20)
            && -EXACT / 2 < B->wake && B->wake < EXACT / 2;
    if (B->on)
        R->form = form;
    else
        Py_DECREF(form);
    return 0;
}

/* One of the two demand sources: the u32 at off times scale. */
static int
demand(run_t *R, long long off, long long scale, long long *out)
{
    if (!seg_u32(R, R->B.seg, off, out))
        return 0;
    *out *= scale;
    return 1;
}

/* (demand - size) / demand, or 0.0 at or below size (CacheModel's miss
 * fraction, VmModel's fault fraction). */
static double
over(long long demand, long long size)
{
    if (demand <= size || demand <= 0)
        return 0.0;
    return (double)(demand - size) / (double)demand;
}

/* price(work, r): 0 with *dt (and *copying: the work opens a copy
 * phase), 1 when the model must be called, -1 on error. */
static int
price_balance(run_t *R, const analytic_t *A, PyObject *work, long long r,
              double *dt, int *copying)
{
    balance_t *B = &R->B;
    long long instrs, copy, blocks, flops, pages, active = 0, dem;
    double d, cfrac = 0.0, vfrac = 0.0, stalled_blocks = 0.0,
        stall_time = 0.0, carry = 0.0, faults = 0.0, fault_time = 0.0;
    int rc;

    if ((rc = get_exact(work, W_INSTRS, &instrs)) <= 0
        || (rc = get_exact(work, W_COPY, &copy)) <= 0
        || (rc = get_exact(work, W_BLOCKS, &blocks)) <= 0
        || (rc = get_exact(work, W_FLOPS, &flops)) <= 0
        || (rc = get_exact(work, W_PAGES, &pages)) <= 0)
        return rc < 0 ? -1 : 1;
    /* everything read, and checked, before anything is written */
    if (copy && (rc = get_exact(B->bus, BU_ACTIVE, &active)) <= 0)
        return rc < 0 ? -1 : 1;
    if (blocks > 0 && B->miss != 0.0) {
        if (!demand(R, B->blocks_off, B->stride, &dem))
            return 1;
        cfrac = over(dem, B->cache_bytes);
        if (cfrac > 0.0
            && ((rc = get_float(B->cache, CA_STALLED, &stalled_blocks)) <= 0
                || (rc = get_float(B->cache, CA_STALL, &stall_time)) <= 0))
            return rc < 0 ? -1 : 1;
    }
    if (pages > 0 && B->fault_s != 0.0) {
        if (!demand(R, B->bytes_off, 1, &dem))
            return 1;
        vfrac = over(dem, B->resident);
        if (vfrac > 0.0
            && ((rc = get_float(B->vm, VM_CARRY, &carry)) <= 0
                || (rc = get_float(B->vm, VM_FAULTS, &faults)) <= 0
                || (rc = get_float(B->vm, VM_FAULT_TIME, &fault_time)) <= 0))
            return rc < 0 ? -1 : 1;
        if (vfrac > 0.0 && !(0.0 <= carry && carry < 1.0))
            return 1;
    }

    d = (double)instrs * A->t_instr;
    if (flops)
        d += (double)flops * A->t_flop;
    if (copy) {
        d += (double)copy * B->bus_byte;
        d *= 1.0 + B->alpha * (double)active;  /* bus.slowdown() */
    }
    if (r > A->cpus)
        d *= (double)r / A->n_cpus;
    if (blocks) {  /* cache.penalty(blocks) */
        double pen = 0.0;
        if (cfrac > 0.0) {
            double stalled = (double)blocks * cfrac;
            pen = stalled * B->miss;
            if (set_double(B->cache, CA_STALLED, stalled_blocks + stalled) < 0
                || set_double(B->cache, CA_STALL, stall_time + pen) < 0)
                return -1;
        }
        d += pen;
    }
    if (pages) {  /* vm.touch(pages) */
        double t = 0.0;
        if (vfrac > 0.0) {
            long long np = (pages + B->page - 1) / B->page;
            double expected = (double)np * vfrac + carry;
            long long whole = (long long)expected;  /* int(): toward 0 */
            if (set_double(B->vm, VM_CARRY, expected - (double)whole) < 0)
                return -1;
            if (whole != 0) {
                t = (double)whole * B->fault_s;
                if (set_double(B->vm, VM_FAULTS, faults + (double)whole) < 0
                    || set_double(B->vm, VM_FAULT_TIME, fault_time + t) < 0)
                    return -1;
            }
        }
        d += t;
    }
    *dt = d;
    *copying = copy > 0;
    return 0;
}

/* timing.copy_started() / copy_finished(): BusModel.started / finished
 * here, else the method. */
static int
copy_phase(run_t *R, int start)
{
    balance_t *B = &R->B;
    long long active = 0, total = 0, peak = 0;
    int rc = 0;
    if (B->on) {
        rc = get_exact(B->bus, BU_ACTIVE, &active);
        if (rc > 0 && start)
            rc = get_exact(B->bus, BU_TOTAL, &total);
        if (rc > 0 && start)
            rc = get_exact(B->bus, BU_PEAK, &peak);
        if (rc < 0)
            return -1;
    }
    if (rc > 0 && start)
        return set_ll(B->bus, BU_ACTIVE, active + 1) < 0
               || set_ll(B->bus, BU_TOTAL, total + 1) < 0
               || (active + 1 > peak
                   && set_ll(B->bus, BU_PEAK, active + 1) < 0) ? -1 : 0;
    if (rc > 0 && active > 0)
        return set_ll(B->bus, BU_ACTIVE, active - 1);
    /* no closed form, or a finish without a start, which raises there */
    if (flush(R) < 0)
        return -1;
    return call_method0_void(R->timing,
                             start ? K_COPY_STARTED : K_COPY_FINISHED);
}

/* Engine._do_wake */
static double
do_wake(run_t *R, PyObject *proc, PyObject *chan)
{
    PyObject *channel = chan_at(R, chan), *sleepers, *sleeper, *nn = NULL;
    PyObject *cost = NULL;
    Py_ssize_t n;
    double t = NAN, c;
    int more;

    if (channel == NULL || (sleepers = get(channel, CH_SLEEPERS)) == NULL)
        return NAN;
    n = PyObject_Length(sleepers);
    if (n < 0)
        goto out;
    R->stat[ST_WAKES] += 1;
    R->stat[ST_WOKEN] += n;
    if (R->rec != Py_None
        && hook(R, K_ON_WAKE, proc, chan, PyLong_FromSsize_t(n), NULL, NULL,
                NULL) < 0)
        goto out;
    while ((more = PyObject_IsTrue(sleepers)) > 0) {
        sleeper = call_method0(sleepers, K_POPLEFT);
        if (sleeper == NULL)
            goto out;
        if (wake_one(R, sleeper, chan) < 0) {
            Py_DECREF(sleeper);
            goto out;
        }
        Py_DECREF(sleeper);
    }
    if (more < 0)
        goto out;
    if (R->B.on && n < (1LL << 40)) {  /* wake_cost(n), evaluated here */
        t = R->now + (double)(R->B.wake + 20 * (long long)n) * R->B.t_instr;
        goto out;
    }
    if ((nn = PyLong_FromSsize_t(n)) == NULL || flush(R) < 0)
        goto out;
    {
        PyObject *args[2] = {R->timing, nn};
        cost = PyObject_VectorcallMethod(
            K_WAKE_COST, args, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    }
    if (cost != NULL && as_double(cost, &c) == 0)
        t = R->now + c;
out:
    Py_XDECREF(nn);
    Py_XDECREF(cost);
    Py_DECREF(sleepers);
    return t;
}

/* -- the loop ----------------------------------------------------------- */

/* Price one part: the analytic contract inline, else the closed form
 * inline, else timing.price(work, r).  *dt_obj, when asked for, is the
 * price as the recorder hears it (new reference). */
static int
price_part(run_t *R, PyObject *price, const analytic_t *A, PyObject *work,
           long long r, double *dt, PyObject **dt_obj, int *copying)
{
    int c, b, p, f;
    double x;
    PyObject *v, *rr, *args[2];

    *copying = 0;
    if (A->on) {
        c = truth(work, W_COPY);
        if (c < 0)
            return -1;
        b = c ? 1 : truth(work, W_BLOCKS);
        if (b < 0)
            return -1;
        p = b ? 1 : truth(work, W_PAGES);
        if (p < 0)
            return -1;
        if (!p) {
            if (get_double(work, W_INSTRS, &x) < 0)
                return -1;
            *dt = x * A->t_instr;
            f = truth(work, W_FLOPS);
            if (f < 0)
                return -1;
            if (f) {
                if (get_double(work, W_FLOPS, &x) < 0)
                    return -1;
                *dt += x * A->t_flop;
            }
            if (r > A->cpus)
                *dt *= (double)r / A->n_cpus;
            if (dt_obj == NULL)
                return 0;
            *dt_obj = PyFloat_FromDouble(*dt);
            return *dt_obj == NULL ? -1 : 0;
        }
    }
    if (R->B.on && (f = price_balance(R, A, work, r, dt, copying)) <= 0) {
        if (f < 0 || dt_obj == NULL)
            return f;
        *dt_obj = PyFloat_FromDouble(*dt);
        return *dt_obj == NULL ? -1 : 0;
    }
    if (flush(R) < 0 || (rr = PyLong_FromLongLong(r)) == NULL)
        return -1;
    args[0] = work;
    args[1] = rr;
    v = PyObject_Vectorcall(price, args, 2, NULL);
    Py_DECREF(rr);
    if (v == NULL)
        return -1;
    if (as_double(v, dt) < 0) {
        Py_DECREF(v);
        return -1;
    }
    if (dt_obj != NULL)
        *dt_obj = v;
    else
        Py_DECREF(v);
    /* `arg.copy_bytes > 0`: only a single charge opens a copy phase */
    if (get_double(work, W_COPY, &x) < 0)
        return -1;
    *copying = x > 0;
    return 0;
}

/* rec.on_charge(t2, name, work.label, dt, work.instrs, work.flops) */
static int
hook_charge(run_t *R, double t2, PyObject *name, PyObject *work,
            PyObject *dt)
{
    PyObject *args[7], *r = NULL;
    PyObject *t = PyFloat_FromDouble(t2), *label = get(work, W_LABEL);
    PyObject *instrs = get(work, W_INSTRS), *flops = get(work, W_FLOPS);
    if (t != NULL && label != NULL && instrs != NULL && flops != NULL
        && flush(R) == 0) {
        args[0] = R->rec;
        args[1] = t;
        args[2] = name;
        args[3] = label;
        args[4] = dt;
        args[5] = instrs;
        args[6] = flops;
        r = PyObject_VectorcallMethod(
            K_ON_CHARGE, args, 7 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    }
    Py_XDECREF(t);
    Py_XDECREF(label);
    Py_XDECREF(instrs);
    Py_XDECREF(flops);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int
over_budget(run_t *R)
{
    PyObject *exc = call_method0(R->engine, K_OVER_BUDGET);
    if (exc != NULL)
        raise_obj(exc);
    return -1;
}

/* state[1] = idx */
static int
store_idx(PyObject *state, Py_ssize_t idx)
{
    PyObject *v = PyLong_FromSsize_t(idx);
    if (v == NULL)
        return -1;
    return PyList_SetItem(state, 1, v);
}

/* An effect with no step form, dispatched on its class. */
#define OP_NONE (-1)

/* Everything Engine.run holds between taking an entry and parking it:
 * the section in flight keeps its state cell, proc._fused. */
typedef struct {
    PyObject *proc, *op_obj, *arg, *yielded;
    flight_t f;
} step_t;

static void
step_clear(step_t *S)
{
    Py_CLEAR(S->proc);
    Py_CLEAR(S->f.state);
    Py_CLEAR(S->f.steps);
    Py_CLEAR(S->op_obj);
    Py_CLEAR(S->arg);
    Py_CLEAR(S->yielded);
}

/* Load a FusedSection state list [steps, idx, result] into S. */
static int
load_state(flight_t *S)
{
    PyObject *steps;
    Py_ssize_t n;
    if (!PyList_CheckExact(S->state) || PyList_GET_SIZE(S->state) != 3) {
        PyErr_SetString(PyExc_TypeError, "corrupt section state");
        return -1;
    }
    steps = PyList_GET_ITEM(S->state, 0);
    n = PyObject_Length(steps);
    if (n < 0)
        return -1;
    Py_XSETREF(S->steps, Py_NewRef(steps));
    S->n = n;
    S->idx = PyLong_AsSsize_t(PyList_GET_ITEM(S->state, 1));
    return S->idx == -1 && PyErr_Occurred() ? -1 : 0;
}

/* An S_CALL's Python body, called as the reference calls it: the
 * engine's attributes written first, what a spawn moved read back. */
static PyObject *
call_body(void *ctx, PyObject *fn)
{
    run_t *R = ctx;
    PyObject *d;
    if (flush(R) < 0)
        return NULL;
    d = PyObject_CallNoArgs(fn);
    if (d != NULL && reload(R) < 0)
        Py_CLEAR(d);
    return d;
}

static PyObject *
run(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *engine, *until, *now0 = NULL, *sched = NULL, *stats = NULL;
    PyObject *price = NULL, *ana = NULL, *result = NULL, *tmp;
    run_t R;
    analytic_t A;
    step_t S;
    double until_f, lim, cross, t2, dt, e0;
    long long max_events, r;
    int took = 0, stopped = 0, failed = 0, copying, rc;
    long op;
    Py_ssize_t i;

    (void)mod;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "run(engine, until)");
        return NULL;
    }
    engine = args[0];
    until = args[1];
    memset(&R, 0, sizeof R);
    memset(&S, 0, sizeof S);
    R.engine = engine;

    R.dict = PyObject_GenericGetDict(engine, NULL);
    if (R.dict == NULL)
        return NULL;
    now0 = PyObject_GetAttr(engine, K_NOW);
    if (now0 == NULL) {
        Py_DECREF(R.dict);
        return NULL;
    }
    if (until != Py_None) {  /* a bound at or before now is a no-op */
        rc = PyObject_RichCompareBool(until, now0, Py_LE);
        if (rc != 0) {
            Py_DECREF(R.dict);
            if (rc > 0)
                return now0;
            Py_DECREF(now0);
            return NULL;
        }
    }
    sched = PyObject_GetAttr(engine, K_SCHEDULER);
    if (sched == NULL)
        goto fail_early;
    if (sched != Py_None) {
        tmp = PyObject_GetAttr(sched, K_ATTACH);
        if (tmp == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                goto fail_early;
            PyErr_Clear();
        }
        else {
            PyObject *r1 = PyObject_CallOneArg(tmp, engine);
            Py_DECREF(tmp);
            if (r1 == NULL)
                goto fail_early;
            Py_DECREF(r1);
        }
    }
    if ((R.queue = PyObject_GetAttr(engine, K_QUEUE)) == NULL
        || (stats = PyObject_GetAttr(engine, K_STATS)) == NULL
        || (R.timing = PyObject_GetAttr(engine, K_TIMING)) == NULL
        || (price = PyObject_GetAttr(R.timing, K_PRICE)) == NULL
        || (R.rec = PyObject_GetAttr(engine, K_RECORDER)) == NULL
        || (R.locks = PyObject_GetAttr(engine, K_LOCKS)) == NULL
        || (R.chans = PyObject_GetAttr(engine, K_CHANNELS)) == NULL)
        goto fail_early;
    if (!PyList_CheckExact(R.queue) || !PyList_CheckExact(R.locks)
        || !PyList_CheckExact(R.chans)) {
        PyErr_SetString(PyExc_TypeError,
                        "the engine's queue, locks and channels are lists");
        goto fail_early;
    }
    {
        long long nl, nc;
        if (attr_ll(engine, K_N_LOCKS, &nl) < 0
            || attr_ll(engine, K_N_CHANNELS, &nc) < 0
            || attr_ll(engine, K_MAX_EVENTS, &max_events) < 0)
            goto fail_early;
        /* the id tests use the sizes; the lists are indexed under them */
        R.n_locks = nl < PyList_GET_SIZE(R.locks) ? (Py_ssize_t)nl
                                                  : PyList_GET_SIZE(R.locks);
        R.n_chans = nc < PyList_GET_SIZE(R.chans) ? (Py_ssize_t)nc
                                                  : PyList_GET_SIZE(R.chans);
    }
    if ((tmp = PyObject_GetAttr(engine, K_T_ACQUIRE)) == NULL)
        goto fail_early;
    rc = as_double(tmp, &R.t_acquire);
    Py_DECREF(tmp);
    if (rc < 0 || (tmp = PyObject_GetAttr(engine, K_T_RELEASE)) == NULL)
        goto fail_early;
    rc = as_double(tmp, &R.t_release);
    Py_DECREF(tmp);
    if (rc < 0)
        goto fail_early;

    /* Contract with BalanceTiming (machine/cpu.py): pure-compute work
     * prices as instrs*t_instr [+ flops*t_flop] [* running/n_cpus]. */
    memset(&A, 0, sizeof A);
    ana = PyObject_GetAttr(R.timing, K_ANALYTIC);
    if (ana == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            goto fail_early;
        PyErr_Clear();
    }
    else if (ana != Py_None) {
        PyObject *fast = PySequence_Fast(ana, "analytic_charge is a triple");
        if (fast == NULL)
            goto fail_early;
        if (PySequence_Fast_GET_SIZE(fast) != 3) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_ValueError, "analytic_charge is a triple");
            goto fail_early;
        }
        rc = as_double(PySequence_Fast_GET_ITEM(fast, 0), &A.t_instr);
        if (rc == 0)
            rc = as_double(PySequence_Fast_GET_ITEM(fast, 1), &A.t_flop);
        if (rc == 0) {
            A.cpus = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, 2));
            rc = A.cpus == -1 && PyErr_Occurred() ? -1 : 0;
            A.n_cpus = (double)A.cpus;
        }
        Py_DECREF(fast);
        if (rc < 0)
            goto fail_early;
        A.on = 1;
        if (load_balance(&R, A.t_instr) < 0)
            goto fail_early;
    }
    if (until == Py_None)
        until_f = HUGE_VAL;
    else if (as_double(until, &until_f) < 0)
        goto fail_early;
    /* Inline bound: under a scheduler every step parks. */
    lim = sched == Py_None ? until_f : -1.0;
    for (i = 0; i < N_STATS; i++) {
        tmp = PyObject_GetAttr(stats, K_STAT[i]);
        if (tmp == NULL)
            goto fail_early;
        if (i == ST_SECONDS)
            rc = as_double(tmp, &R.t_ch);
        else {
            R.stat[i] = PyLong_AsLongLong(tmp);
            rc = R.stat[i] == -1 && PyErr_Occurred() ? -1 : 0;
        }
        Py_DECREF(tmp);
        if (rc < 0)
            goto fail_early;
    }
    if (as_double(now0, &R.now) < 0)
        goto fail_early;
    R.written = R.noted = R.now;
    R.fresh = PyFloat_CheckExact(now0);
    if (dict_ll(&R, K_SEQ, &R.seq) < 0
        || dict_ll(&R, K_RUNNABLE, &R.runnable) < 0)
        goto fail_early;

    /* ==== from here on every way out passes `done` ==================== */
    if (absorb(&R) < 0)
        goto fail;
    while (R.qn > 0) {
        Py_ssize_t w = 1, pick = 0;
        ent_t *q = R.q;

        /* ---- take the earliest pending entry ------------------------- */
        e0 = q[R.qn - 1].k0;
        if (-e0 > until_f) {
            stopped = 1;
            break;
        }
        if (sched != Py_None) {
            /* entries that tie on the earliest time are contiguous at the
             * tail, seq ascending from the end */
            while (w < R.qn && q[R.qn - 1 - w].k0 == e0)
                w++;
            if (w > 1) {
                PyObject *cands, *when, *got, *cargs[3];
                note_now(&R);
                if (flush(&R) < 0 || flush_stats(&R, stats) < 0)
                    goto fail;
                cands = PyList_New(w);
                if (cands == NULL)
                    goto fail;
                for (i = 0; i < w; i++)
                    PyList_SET_ITEM(cands, i,
                                    Py_NewRef(q[R.qn - 1 - i].proc));
                when = PyFloat_FromDouble(-e0);
                if (when == NULL) {
                    Py_DECREF(cands);
                    goto fail;
                }
                cargs[0] = sched;
                cargs[1] = when;
                cargs[2] = cands;
                got = PyObject_VectorcallMethod(
                    K_CHOOSE, cargs, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET,
                    NULL);
                Py_DECREF(when);
                Py_DECREF(cands);
                if (got == NULL)
                    goto fail;
                pick = PyNumber_AsSsize_t(got, NULL);
                Py_DECREF(got);
                if (pick == -1 && PyErr_Occurred())
                    goto fail;
            }
            if (!(0 < pick && pick < w))
                pick = 0;
        }
        i = R.qn - 1 - pick;
        S.proc = q[i].proc;  /* the array's reference, taken over */
        memmove(q + i, q + i + 1, pick * sizeof(ent_t));
        R.qn--;
        R.now = -e0;
        took = 1;
        if (++R.stat[ST_EVENTS] > max_events) {
            over_budget(&R);
            goto fail;
        }
        if ((R.stat[ST_EVENTS] & 0xfff) == 0 && PyErr_CheckSignals() < 0)
            goto fail;
        /* `cross`: the earliest time anything else is pending; the queue
         * changes only at handlers, resumes and parks */
        cross = earliest(&R);
        rc = truth(S.proc, P_COPYING);
        if (rc < 0)
            goto fail;
        if (rc) {  /* the charge that just completed was a copy phase */
            if (set(S.proc, P_COPYING, Py_False) < 0
                || copy_phase(&R, 0) < 0)
                goto fail;
        }
        r = R.runnable;
        S.f.state = get(S.proc, P_FUSED);
        if (S.f.state == NULL)
            goto fail;
        if (S.f.state == Py_None)
            Py_CLEAR(S.f.state);
        else if (load_state(&S.f) < 0)
            goto fail;

        for (;;) {  /* one step of `proc` per iteration, at `now` */
            /* ---- fetch: the section in flight, else the generator ---- */
            op = OP_NONE;
            if (S.f.state != NULL) {
                if (S.f.idx < S.f.n) {
                    if ((op = sec_fetch(&S.f, &S.op_obj, &S.arg)) == -1)
                        goto fail;
                    if (op == S_CALL) {  /* generator-body code, free */
                        note_now(&R);
                        if (sec_call(&S.f, &R.G, S.arg, call_body, &R) < 0)
                            goto fail;
                        continue;
                    }
                }
                else {
                    /* Section complete: the generator resumes in this
                     * same event with the section's result. */
                    if (set(S.proc, P_INBOX,
                            PyList_GET_ITEM(S.f.state, 2)) < 0
                        || set(S.proc, P_FUSED, Py_None) < 0)
                        goto fail;
                    Py_CLEAR(S.f.state);
                }
            }
            if (S.f.state == NULL) {
                PyObject *gen, *value, *out = NULL;
                PySendResult sent;
                PyTypeObject *cls;

                note_now(&R);  /* bodies may observe the clock */
                if (flush(&R) < 0)
                    goto fail;
                value = get(S.proc, P_INBOX);
                if (value == NULL || set(S.proc, P_INBOX, Py_None) < 0) {
                    Py_XDECREF(value);
                    goto fail;
                }
                gen = get(S.proc, P_GEN);
                if (gen == NULL) {
                    Py_DECREF(value);
                    goto fail;
                }
                sent = send(gen, value, &out);
                Py_DECREF(gen);
                Py_DECREF(value);
                if (sent != PYGEN_ERROR && reload(&R) < 0) {
                    Py_DECREF(out);
                    goto fail;
                }
                if (sent == PYGEN_RETURN) {
                    rc = set(S.proc, P_STATE, S_DONE);
                    if (rc == 0)
                        rc = set(S.proc, P_RESULT, out);
                    Py_DECREF(out);
                    if (rc < 0 || add_runnable(&R, -1) < 0)
                        goto fail;
                    break;
                }
                if (sent == PYGEN_ERROR) {
                    PyObject *exc = take_exc();
                    if (reload(&R) < 0 || set(S.proc, P_STATE, S_FAILED) < 0
                        || set(S.proc, P_ERROR, exc) < 0
                        || add_runnable(&R, -1) < 0) {
                        Py_DECREF(exc);
                        goto fail;
                    }
                    restore_exc(exc);
                    goto fail;
                }
                Py_XSETREF(S.yielded, out);
                r = R.runnable;
                cross = earliest(&R);
                /* Effects are final classes (core/effects.py):
                 * exact-class dispatch, most frequent first. */
                cls = Py_TYPE(out);
                Py_CLEAR(S.arg);
                if (cls == TYPES[T_CHARGE]) {
                    op = S_CHARGE;
                    S.arg = get(out, C_WORK);
                }
                else if (cls == TYPES[T_ACQ]) {
                    op = S_ACQ;
                    S.arg = get(out, A_LOCK);
                }
                else if (cls == TYPES[T_REL]) {
                    op = S_REL;
                    S.arg = get(out, R_LOCK);
                }
                else if (cls == TYPES[T_MANY]) {
                    op = S_MANY;
                    S.arg = get(out, M_WORKS);
                }
                else if (cls == TYPES[T_SECTION]) {
                    PyObject *steps = get(out, S_STEPS);
                    Py_ssize_t n;
                    if (steps == NULL)
                        goto fail;
                    n = PyObject_Length(steps);
                    if (n < 0 || (S.f.state = PyList_New(3)) == NULL) {
                        Py_DECREF(steps);
                        goto fail;
                    }
                    PyList_SET_ITEM(S.f.state, 0, steps);
                    PyList_SET_ITEM(S.f.state, 1, PyLong_FromLong(0));
                    PyList_SET_ITEM(S.f.state, 2, Py_NewRef(Py_None));
                    if (PyList_GET_ITEM(S.f.state, 1) == NULL
                        || set(S.proc, P_FUSED, S.f.state) < 0)
                        goto fail;
                    Py_XSETREF(S.f.steps, Py_NewRef(steps));
                    S.f.n = n;
                    S.f.idx = 0;
                    continue;
                }
                else {
                    op = OP_NONE;  /* no step form: dispatched on `cls` */
                    S.arg = Py_NewRef(out);
                }
                if (S.arg == NULL)
                    goto fail;
            }
            /* ---- execute one time-advancing step, ending at t2 -------- */
            if (op == S_CHARGE) {
                PyObject *dt_obj = NULL;
                if (price_part(&R, price, &A, S.arg, r, &dt,
                               R.rec != Py_None ? &dt_obj : NULL,
                               &copying) < 0)
                    goto fail;
                if (copying) {
                    if (set(S.proc, P_COPYING, Py_True) < 0
                        || copy_phase(&R, 1) < 0) {
                        Py_XDECREF(dt_obj);
                        goto fail;
                    }
                }
                R.stat[ST_CHARGES] += 1;
                R.t_ch += dt;
                t2 = R.now + dt;
                if (R.rec != Py_None) {
                    /* stamped at its end: the span is [t2 - dt, t2] */
                    PyObject *name = get(S.proc, P_NAME);
                    rc = name == NULL ? -1
                                      : hook_charge(&R, t2, name, S.arg,
                                                    dt_obj);
                    Py_XDECREF(name);
                    if (rc < 0) {
                        Py_DECREF(dt_obj);
                        goto fail;
                    }
                }
                Py_XDECREF(dt_obj);
            }
            else if (op == S_MANY) {
                /* each part priced on its own and the clock advanced by
                 * ((now + dt1) + dt2) ..., never by the sum */
                PyObject *fast = PySequence_Fast(S.arg, "ChargeMany.works "
                                                        "is not iterable");
                PyObject *name = NULL;
                Py_ssize_t k, parts;
                if (fast == NULL)
                    goto fail;
                parts = PySequence_Fast_GET_SIZE(fast);
                t2 = R.now;
                for (k = 0; k < parts; k++) {
                    PyObject *work = PySequence_Fast_GET_ITEM(fast, k);
                    PyObject *dt_obj = NULL;
                    if (price_part(&R, price, &A, work, r, &dt,
                                   R.rec != Py_None ? &dt_obj : NULL,
                                   &copying) < 0) {
                        Py_DECREF(fast);
                        Py_XDECREF(name);
                        goto fail;
                    }
                    R.stat[ST_CHARGES] += 1;
                    R.t_ch += dt;
                    t2 = t2 + dt;
                    if (R.rec != Py_None) {
                        if (name == NULL)
                            name = get(S.proc, P_NAME);
                        rc = name == NULL ? -1
                                          : hook_charge(&R, t2, name,
                                                        work, dt_obj);
                        if (rc < 0) {
                            Py_DECREF(dt_obj);
                            Py_DECREF(fast);
                            Py_XDECREF(name);
                            goto fail;
                        }
                    }
                    Py_XDECREF(dt_obj);
                }
                Py_DECREF(fast);
                Py_XDECREF(name);
                R.stat[ST_EVENTS] += parts - 1;
                if (R.stat[ST_EVENTS] > max_events) {
                    over_budget(&R);
                    goto fail;
                }
            }
            else {
                if (S.f.state != NULL && store_idx(S.f.state, S.f.idx) < 0)
                    goto fail;  /* an acquire may block mid-section */
                note_now(&R);
                if (op == S_ACQ)
                    t2 = do_acquire(&R, S.proc, S.arg);
                else if (op == S_REL)
                    t2 = do_release(&R, S.proc, S.arg);
                else if (S.f.state == NULL) {
                    PyTypeObject *cls = Py_TYPE(S.arg);
                    if (cls == TYPES[T_WAKE]) {
                        PyObject *chan = get(S.arg, WK_CHAN);
                        if (chan == NULL)
                            goto fail;
                        t2 = do_wake(&R, S.proc, chan);
                        Py_DECREF(chan);
                    }
                    else if (cls == TYPES[T_WAIT]) {
                        PyObject *chan = get(S.arg, O_CHAN), *lid;
                        if (chan == NULL)
                            goto fail;
                        lid = get(S.arg, O_LOCK);
                        if (lid == NULL) {
                            Py_DECREF(chan);
                            goto fail;
                        }
                        t2 = do_wait(&R, S.proc, chan, lid);
                        Py_DECREF(chan);
                        Py_DECREF(lid);
                    }
                    else {
                        PyObject *name, *exc;
                        if (set(S.proc, P_STATE, S_FAILED) < 0
                            || add_runnable(&R, -1) < 0)
                            goto fail;
                        name = get(S.proc, P_NAME);
                        if (name == NULL)
                            goto fail;
                        exc = PyObject_CallFunction(
                            SIM_ERROR, "N", PyUnicode_FromFormat(
                                "process %R yielded non-effect %R", name,
                                S.arg));
                        Py_DECREF(name);
                        if (exc == NULL)
                            goto fail;
                        if (set(S.proc, P_ERROR, exc) < 0) {
                            Py_DECREF(exc);
                            goto fail;
                        }
                        raise_obj(exc);
                        goto fail;
                    }
                }
                else {
                    sim_error(PyUnicode_FromFormat(
                        "bad fused step opcode %R", S.op_obj));
                    goto fail;
                }
                if (isnan(t2))
                    goto fail;
                if (t2 < 0.0)
                    break;  /* blocked: a grant or a wake re-queues it */
                /* the handler may have granted or woken others */
                r = R.runnable;
                cross = earliest(&R);
            }
            /* ---- continue inline while strictly earliest, else park --- */
            if (t2 < cross && t2 <= lim) {
                R.now = t2;
                if (++R.stat[ST_EVENTS] > max_events) {
                    over_budget(&R);
                    goto fail;
                }
                rc = truth(S.proc, P_COPYING);
                if (rc < 0)
                    goto fail;
                if (rc && (set(S.proc, P_COPYING, Py_False) < 0
                           || copy_phase(&R, 0) < 0))
                    goto fail;
                continue;
            }
            if (S.f.state != NULL && store_idx(S.f.state, S.f.idx) < 0)
                goto fail;
            if (park(&R, S.proc, t2) < 0)
                goto fail;
            break;
        }
        step_clear(&S);
    }
    goto done;

fail:
    failed = 1;
done:
    step_clear(&S);
    {
        /* the reference's `finally`: written back on every way out */
        PyObject *exc = failed ? take_exc() : NULL;
        PyObject *now_obj;
        int ok = 1;
        if (stopped)
            now_obj = Py_NewRef(until);
        else if (took)
            now_obj = PyFloat_FromDouble(R.now);
        else
            now_obj = Py_NewRef(now0);
        if (write_back(&R) < 0 || now_obj == NULL || flush(&R) < 0
            || PyObject_SetAttr(engine, K_NOW, now_obj) < 0
            || flush_stats(&R, stats) < 0
            || set_attr_ll(stats, K_PUSHES, R.seq) < 0
            || set_attr_ll(stats, K_POPS,
                           R.seq - PyList_GET_SIZE(R.queue)) < 0)
            ok = 0;
        if (exc != NULL) {
            /* the run's own error wins over one in the write-back */
            if (!ok)
                PyErr_Clear();
            restore_exc(exc);
            Py_XDECREF(now_obj);
        }
        else if (!ok)
            Py_XDECREF(now_obj);
        else if (!stopped) {
            tmp = call_method0(engine, K_STALLED);
            if (tmp == NULL)
                Py_DECREF(now_obj);
            else {
                Py_DECREF(tmp);
                result = now_obj;
            }
        }
        else
            result = now_obj;
    }
fail_early:
    seg_release(&R.G);
    Py_XDECREF(R.form);
    Py_XDECREF(now0);
    Py_XDECREF(sched);
    Py_XDECREF(stats);
    Py_XDECREF(price);
    Py_XDECREF(ana);
    Py_XDECREF(R.dict);
    Py_XDECREF(R.queue);
    Py_XDECREF(R.timing);
    Py_XDECREF(R.rec);
    Py_XDECREF(R.locks);
    Py_XDECREF(R.chans);
    return result;
}

/* -- binding -------------------------------------------------------------- */

static PyObject *
bind(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (nargs != N_TYPES + 7) {
        PyErr_SetString(PyExc_TypeError, "bind(classes..., SimulationError, "
                        "states..., kernel addresses or None)");
        return NULL;
    }
    if (bind_classes(args, args[N_TYPES + 6]) < 0)
        return NULL;
    Py_XSETREF(SIM_ERROR, Py_NewRef(args[N_TYPES]));
    Py_XSETREF(S_RUNNABLE, Py_NewRef(args[N_TYPES + 1]));
    Py_XSETREF(S_WAIT_LOCK, Py_NewRef(args[N_TYPES + 2]));
    Py_XSETREF(S_WAIT_CHAN, Py_NewRef(args[N_TYPES + 3]));
    Py_XSETREF(S_DONE, Py_NewRef(args[N_TYPES + 4]));
    Py_XSETREF(S_FAILED, Py_NewRef(args[N_TYPES + 5]));
    Py_RETURN_NONE;
}

/* drains(): FCFS_DRAINS, the chains the section runner drained itself. */
static PyObject *
drains(PyObject *Py_UNUSED(mod), PyObject *Py_UNUSED(arg))
{
    return PyLong_FromLongLong(FCFS_DRAINS);
}

static PyMethodDef methods[] = {
    {"bind", (PyCFunction)(void (*)(void))bind, METH_FASTCALL,
     "bind(classes..., SimulationError, states..., kernels): what run() "
     "dispatches on and stores, and the kernels it calls."},
    {"run", (PyCFunction)(void (*)(void))run, METH_FASTCALL,
     "run(engine, until): Engine.run's loop; returns the final time."},
    {"drains", drains, METH_NOARGS,
     "drains(): the FCFS chains the section runner drained in C."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_engine",
    .m_doc = "The engine's step interpreter (repro/machine/engine.c).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__engine(void)
{
    static const struct { PyObject **slot; const char *s; } names[] = {
        {&K_NOW, "now"}, {&K_QUEUE, "_queue"}, {&K_SEQ, "_seq"},
        {&K_RUNNABLE, "_runnable"}, {&K_STATS, "stats"},
        {&K_TIMING, "timing"}, {&K_PRICE, "price"},
        {&K_RECORDER, "_recorder"}, {&K_MAX_EVENTS, "_max_events"},
        {&K_SCHEDULER, "_scheduler"}, {&K_ATTACH, "attach"},
        {&K_CHOOSE, "choose"}, {&K_LOCKS, "locks"},
        {&K_CHANNELS, "channels"}, {&K_N_LOCKS, "_n_locks"},
        {&K_N_CHANNELS, "_n_channels"}, {&K_T_ACQUIRE, "_t_acquire"},
        {&K_T_RELEASE, "_t_release"}, {&K_ANALYTIC, "analytic_charge"},
        {&K_CLOSED_FORM, "closed_form"},
        {&K_COPY_STARTED, "copy_started"},
        {&K_COPY_FINISHED, "copy_finished"}, {&K_WAKE_COST, "wake_cost"},
        {&K_OVER_BUDGET, "_over_budget"},
        {&K_STALLED, "_raise_if_stalled"}, {&K_APPEND, "append"},
        {&K_POPLEFT, "popleft"},
        {&K_ON_CHARGE, "on_charge"},
        {&K_ON_ACQUIRE, "on_acquire"}, {&K_ON_RELEASE, "on_release"},
        {&K_ON_WAKE, "on_wake"}, {&K_ON_CHAN_WAIT, "on_chan_wait"},
        {&K_PUSHES, "heap_pushes"}, {&K_POPS, "heap_pops"},
    };
    size_t i;
    for (i = 0; i < sizeof names / sizeof names[0]; i++)
        if (intern(names[i].slot, names[i].s) < 0)
            return NULL;
    for (i = 0; i < N_STATS; i++)
        if (intern(&K_STAT[i], STAT_NAMES[i]) < 0)
            return NULL;
    if (KW_CONTENDED == NULL
        && (KW_CONTENDED = Py_BuildValue("(s)", "contended")) == NULL)
        return NULL;
    if (KW_CONTENDED_COUNTED == NULL
        && (KW_CONTENDED_COUNTED = Py_BuildValue(
                "(ss)", "contended", "counted")) == NULL)
        return NULL;
    if (KW_COUNTED == NULL
        && (KW_COUNTED = Py_BuildValue("(s)", "counted")) == NULL)
        return NULL;
    return PyModule_Create(&module);
}
