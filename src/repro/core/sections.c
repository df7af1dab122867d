/* The section runner both C drives share: included by the engine's step
 * interpreter (repro/machine/engine.c) and by the real runtimes' effect
 * loop (repro/runtime/sync.c), which each compile it into their own
 * extension and bind it to the same classes and kernel addresses.
 *
 * It holds what a FusedSection (core/effects.py) is made of in C: the
 * slot-offset binding of the classes both drives read, the step fetch,
 * the directive an S_CALL returns applied (apply_directive, sec_jump,
 * sec_bail), and the S_CALLs that run here while their memo holds — a
 * poll walk (core/ops.py PollWalk, counted by the kernel poll_walk), the
 * five stages of a free-list receive (core/ops.py Stage over a
 * RecvSection: the connection check, claim, drain, completion and free,
 * with the kernels conn_holds, sec_claim, chain_drain, sec_complete and
 * sec_free of core/chains.c) and the three of a free-list send (a Stage
 * over a SendSection: the alloc, fill and link, with sec_alloc,
 * chain_fill, conn_holds and sec_link).  Every other S_CALL, a memo miss, a
 * kernel refusal and a probe's stage is handed back to the includer's
 * `body`, which calls the Python body: the reference, run before the C
 * stage writes anything.  The includer runs the other steps itself:
 * S_ACQ / S_REL on the engine's lock queues or on sync.c's lock words,
 * S_CHARGE / S_MANY priced by the engine or skipped by sync.c.
 *
 * Before including it, an extension defines HOST_TYPES(X) and
 * HOST_FIELDS(X): its own classes and slots, which follow this file's in
 * TYPES and F.
 */

#ifndef Py_T_OBJECT_EX
#define Py_T_OBJECT_EX T_OBJECT_EX
#endif

/* -- the classes and slots bind_classes() hands over --------------------- */

#define SEC_TYPES(X) X(T_CHARGE) X(T_MANY) X(T_ACQ) X(T_REL) X(T_SECTION) \
    X(T_WAIT) X(T_WAKE) X(T_WALK) X(T_STAGE) X(T_RSEC) X(T_SSEC)            \
    X(T_GSEC) X(T_GREC) X(T_SEC) X(T_VIEW)
#define SEC_FIELDS(X) X(A_LOCK, T_ACQ, "lock_id")                           \
    X(R_LOCK, T_REL, "lock_id") X(S_STEPS, T_SECTION, "steps")              \
    X(O_CHAN, T_WAIT, "chan") X(O_LOCK, T_WAIT, "lock_id")                  \
    X(WK_CHAN, T_WAKE, "chan") X(PW_BASE, T_WALK, "base")                   \
    X(PW_GEN, T_WALK, "gen") X(PW_EPOCH, T_WALK, "epoch")                   \
    X(PW_DESC, T_WALK, "desc") X(PW_FCFS, T_WALK, "fcfs")                   \
    X(PW_EMPTY, T_WALK, "empty") X(PW_TAILS, T_WALK, "tails")               \
    X(PW_SEG, T_WALK, "seg") X(RS_SEC, T_STAGE, "sec")                      \
    X(RS_KIND, T_STAGE, "kind") X(V_DRAIN_MEMO, T_VIEW, "_drain_memo")      \
    SB_FIELDS(X) RC_FIELDS(X) SC_FIELDS(X) GS_FIELDS(X) GR_FIELDS(X)
/* The slots every section has (core/ops.py Section): field SB_<NAME> is
 * slot <name>, read off any direct subclass.  RecvSection's own are
 * RC_<NAME>, SendSection's SC_<NAME>, RingSendSection's GS_<NAME> and
 * RingRecvSection's GR_<NAME>. */
#define SB_FIELDS(X) SB(X, VIEW, view) SB(X, PID, pid)                      \
    SB(X, LNVC_ID, lnvc_id) SB(X, GEN, gen) SB(X, BASE, base)               \
    SB(X, SEG, seg) SB(X, EPOCH, epoch) SB(X, FOUND, found)               \
    SB(X, WAKE, wake)
#define SB(X, f, s) X(SB_##f, T_SEC, #s)
#define RC_FIELDS(X) RC(X, BS, bs) RC(X, MAX_LEN, max_len) RC(X, DESC, desc) \
    RC(X, MSG, msg) RC(X, FIRST, first) RC(X, NBLK, nblk)                   \
    RC(X, LENGTH, length) RC(X, SEQNO, seqno) RC(X, FCFS, fcfs)             \
    RC(X, LAST, last) RC(X, PAYLOAD, payload) RC(X, REAP, reap)             \
    RC(X, CLAIMED, claimed) RC(X, COPIES, copies) RC(X, RETIRED, retired)   \
    RC(X, REAPING, reaping) RC(X, REAPS, reaps)
#define RC(X, f, s) X(RC_##f, T_RSEC, #s)
#define SC_FIELDS(X) SC(X, BS, bs) SC(X, DATA, data) SC(X, HDR, hdr)       \
    SC(X, FIRST, first) SC(X, NBLK, nblk) SC(X, LENGTH, length)             \
    SC(X, SEQNO, seqno) SC(X, DEPTH, depth) SC(X, LINKED, linked)           \
    SC(X, ALLOCS, allocs)
#define SC(X, f, s) X(SC_##f, T_SSEC, #s)
#define GS_FIELDS(X) GS(X, GEOM, geom) GS(X, DATA, data) GS(X, SEQ, seq)   \
    GS(X, SL, sl) GS(X, SEQNO, seqno) GS(X, DEPTH, depth)                   \
    GS(X, FILLS, fills)
#define GS(X, f, s) X(GS_##f, T_GSEC, #s)
#define GR_FIELDS(X) GR(X, GEOM, geom) GR(X, MAX_LEN, max_len)             \
    GR(X, DESC, desc) GR(X, SL, sl) GR(X, LENGTH, length)                   \
    GR(X, SEQNO, seqno) GR(X, UNREAD, unread) GR(X, IDX, idx)               \
    GR(X, PAYLOAD, payload) GR(X, HIT, hit)                                 \
    GR(X, MISSED, missed) GR(X, CLAIMED, claimed) GR(X, COPIES, copies)     \
    GR(X, CONSUMED, consumed)
#define GR(X, f, s) X(GR_##f, T_GREC, #s)

#define TYPE_ENUM(t) t,
#define FIELD_ENUM(f, t, s) f,
#define FIELD_ROW(f, t, s) {t, s, NULL, -1},
enum { SEC_TYPES(TYPE_ENUM) HOST_TYPES(TYPE_ENUM) N_TYPES };
enum { SEC_FIELDS(FIELD_ENUM) HOST_FIELDS(FIELD_ENUM) N_FIELDS };
static PyTypeObject *TYPES[N_TYPES];

/* A field of one of those classes: its slot offset when it is a plain
 * object slot of exactly that class, else -1 (getattr / setattr). */
typedef struct {
    int owner;
    const char *name;
    PyObject *key;
    Py_ssize_t off;
} field_t;

static field_t F[N_FIELDS] = {SEC_FIELDS(FIELD_ROW) HOST_FIELDS(FIELD_ROW)};

/* Section step opcodes and the jump directive tag (core/effects.py);
 * every other directive tag is a bail.  S_BAD: no step. */
enum { S_CHARGE = 0, S_MANY = 1, S_ACQ = 2, S_REL = 3, D_JUMP = 4,
       S_CALL = 5, S_BAD = -2 };

/* The kernels the C kernels export that the runner calls itself
 * (core/chains.c; chains.ENGINE_KERNELS names them in bind order): the
 * poll walk, the connection memo check, the claim, completion and free
 * of a free-list receive, the chain drain, the alloc, chain fill and
 * link of a free-list send, and the five ring kernels: the send's fill
 * and commit, the receive's take, claim and completion.  NULL where they
 * were not built.  claim_t, reap_t, link_t, rfill_t and rtake_t are
 * chains.c's. */
typedef int64_t (*walk_fn)(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                           uint64_t, int);
typedef int64_t (*holds_fn)(char *, uint64_t, uint64_t, uint64_t, uint64_t);
typedef struct {
    uint32_t msg, first, nblk, length, seqno;
    _Bool fcfs;
    int got;
} claim_t;
typedef claim_t (*claim_fn)(char *, uint64_t, uint64_t, uint64_t, int64_t);
typedef struct {
    uint64_t nblk, nbytes;
    uint32_t head, n, depth, first, last, ok;
} reap_t;
typedef reap_t (*complete_fn)(char *, uint64_t, uint64_t, uint64_t,
                              uint64_t, uint64_t, uint64_t);
typedef int64_t (*free_fn)(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                           uint64_t, uint64_t, uint64_t);
typedef int64_t (*drain_fn)(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                            uint64_t, char *);
typedef uint64_t (*alloc_fn)(char *, uint64_t, uint64_t, uint64_t);
typedef int64_t (*fill_fn)(char *, uint64_t, uint64_t, uint64_t,
                           const char *, uint64_t, uint64_t);
typedef struct {
    uint32_t seqno, depth, rsteps, ok;
} link_t;
typedef link_t (*link_fn)(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                          uint64_t, uint64_t, uint64_t, int, uint64_t,
                          uint64_t);
typedef struct {
    uint32_t seq, sl, seqno, depth;
    int ok;
} rfill_t;
typedef rfill_t (*rfill_fn)(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                            uint64_t, uint64_t, uint64_t, uint64_t,
                            const char *, uint64_t);
typedef int64_t (*rcommit_fn)(char *, uint64_t, uint64_t, uint64_t,
                              uint64_t);
typedef struct {
    uint32_t sl, length, seqno, unread, idx;
    int got;
} rtake_t;
typedef rtake_t (*rtake_fn)(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                            uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                            uint64_t, int64_t);
typedef rtake_t (*rclaim_fn)(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                             uint64_t, uint64_t, uint64_t, uint64_t, int64_t);
typedef int64_t (*rcomplete_fn)(char *, uint64_t, uint64_t, uint64_t,
                                uint64_t, uint64_t, uint64_t, uint64_t);
enum { K_WALK, K_HOLDS, K_CLAIM, K_COMPLETE, K_FREE, K_DRAIN, K_ALLOC,
       K_FILL, K_LINK, K_RFILL, K_RCOMMIT, K_RTAKE, K_RCLAIM, K_RCOMPLETE,
       N_KERNELS };
static void *KERNEL[N_KERNELS];
#define WALK ((walk_fn)KERNEL[K_WALK])

static PyObject *K_SEND;

/* o is of the class that owns field d, or of a direct subclass of it:
 * the owner's slots lie at the same offsets in both. */
#define OWNS(d, o) (Py_TYPE(o) == TYPES[(d)->owner]                          \
                    || Py_TYPE(o)->tp_base == TYPES[(d)->owner])

static PyObject *
get(PyObject *o, int f)  /* new reference */
{
    const field_t *d = &F[f];
    if (d->off >= 0 && OWNS(d, o)) {
        PyObject *v = *(PyObject **)((char *)o + d->off);
        if (v != NULL) {
            Py_INCREF(v);
            return v;
        }
    }
    return PyObject_GetAttr(o, d->key);
}

static int
set(PyObject *o, int f, PyObject *v)  /* v borrowed */
{
    const field_t *d = &F[f];
    if (d->off >= 0 && OWNS(d, o)) {
        PyObject **slot = (PyObject **)((char *)o + d->off);
        PyObject *old = *slot;
        Py_INCREF(v);
        *slot = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(o, d->key, v);
}

static int
set_new(PyObject *o, int f, PyObject *v)  /* steals v */
{
    int rc;
    if (v == NULL)
        return -1;
    rc = set(o, f, v);
    Py_DECREF(v);
    return rc;
}

static int
set_ll(PyObject *o, int f, long long x)
{
    return set_new(o, f, PyLong_FromLongLong(x));
}

static int
truth(PyObject *o, int f)  /* bool(o.<f>), -1 on error */
{
    int rc;
    PyObject *v = get(o, f);
    if (v == NULL)
        return -1;
    rc = PyObject_IsTrue(v);
    Py_DECREF(v);
    return rc;
}

/* 2**53: the ints a double holds exactly, so that float(n) is n. */
#define EXACT (1LL << 53)

/* o.<f> as a long long when it is an int of magnitude at most 2**53: 1;
 * 0 when it is anything else (the caller takes the Python way); -1 on
 * error. */
static int
get_exact(PyObject *o, int f, long long *out)
{
    int overflow, rc = 0;
    PyObject *v = get(o, f);
    if (v == NULL)
        return -1;
    if (PyLong_CheckExact(v)) {
        *out = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (*out == -1 && PyErr_Occurred())
            rc = -1;
        else
            rc = !overflow && -EXACT <= *out && *out <= EXACT;
    }
    Py_DECREF(v);
    return rc;
}

/* The exception being raised, taken off the indicator (new reference). */
static PyObject *
take_exc(void)
{
#if PY_VERSION_HEX >= 0x030C0000
    return PyErr_GetRaisedException();
#else
    PyObject *t, *v, *tb;
    PyErr_Fetch(&t, &v, &tb);
    PyErr_NormalizeException(&t, &v, &tb);
    if (tb != NULL)
        PyException_SetTraceback(v, tb);
    Py_XDECREF(t);
    Py_XDECREF(tb);
    return v;
#endif
}

/* gen.send(value): a generator's own send, else the object's ``send``
 * method, whose StopIteration carries the return value. */
static PySendResult
send(PyObject *gen, PyObject *value, PyObject **out)
{
    PyObject *exc;
    if (PyGen_CheckExact(gen))
        return PyIter_Send(gen, value, out);
    *out = PyObject_CallMethodOneArg(gen, K_SEND, value);
    if (*out != NULL)
        return PYGEN_NEXT;
    if (!PyErr_ExceptionMatches(PyExc_StopIteration))
        return PYGEN_ERROR;
    exc = take_exc();
    *out = PyObject_GetAttrString(exc, "value");
    Py_DECREF(exc);
    return *out == NULL ? PYGEN_ERROR : PYGEN_RETURN;
}

/* -- the segment ---------------------------------------------------------
 *
 * The poll walks and the receive stages read a segment's bytes through
 * its memoryview.  The first one a drive needs is exported once and
 * released on the way out (seg_release); a walk or a stage over another
 * segment takes the Python way. */

typedef struct {
    PyObject *mv;
    Py_buffer buf;
} seg_t;

static const char *
seg_bytes(seg_t *G, PyObject *mv, uint64_t *len)
{
    if (G->mv == NULL) {
        if (!PyMemoryView_Check(mv))
            return NULL;
        if (PyObject_GetBuffer(mv, &G->buf, PyBUF_SIMPLE) < 0) {
            PyErr_Clear();  /* released: the Python way raises */
            return NULL;
        }
        G->mv = Py_NewRef(mv);
    }
    if (mv != G->mv)
        return NULL;
    *len = (uint64_t)G->buf.len;
    return (const char *)G->buf.buf;
}

static void
seg_release(seg_t *G)
{
    if (G->mv != NULL) {
        PyBuffer_Release(&G->buf);
        Py_CLEAR(G->mv);
    }
}

/* -- a section in flight -------------------------------------------------- */

/* Its steps (NULL when none), the next one's index and their count, and
 * its result: in the engine's [steps, idx, result] cell when ``state``
 * is one, else ``value``.  ``ran_c`` and ``ran_py`` count the S_CALLs
 * run here and those handed to Python. */
typedef struct {
    PyObject *state, *steps, *value;
    Py_ssize_t n, idx;
    long long ran_c, ran_py;
} flight_t;

/* The int value of a step opcode or directive tag, -1 for anything else. */
static long
small_int(PyObject *o)
{
    long v;
    if (!PyLong_Check(o))
        return -1;
    v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return v;
}

/* Unpack `op, arg = step` (new references; a tuple is its own fast
 * sequence). */
static int
unpack_step(PyObject *step, PyObject **op, PyObject **arg)
{
    PyObject *fast = PySequence_Fast(step, "cannot unpack non-iterable step");
    Py_ssize_t n;
    if (fast == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(fast);
    if (n == 2) {
        *op = Py_NewRef(PySequence_Fast_GET_ITEM(fast, 0));
        *arg = Py_NewRef(PySequence_Fast_GET_ITEM(fast, 1));
    }
    else
        PyErr_Format(PyExc_ValueError,
                     n < 2 ? "not enough values to unpack (expected 2, got "
                             "%zd)" : "too many values to unpack (expected 2)",
                     n);
    Py_DECREF(fast);
    return n == 2 ? 0 : -1;
}

/* The next step, taken: its opcode (S_BAD for one that is no int of a
 * step or no int at all), with *op and *arg its two halves (new
 * references, replacing theirs); -1 on error. */
static long
sec_fetch(flight_t *S, PyObject **op, PyObject **arg)
{
    PyObject *step = PySequence_GetItem(S->steps, S->idx);
    long code;
    int rc;
    if (step == NULL)
        return -1;
    Py_CLEAR(*op);
    Py_CLEAR(*arg);
    rc = unpack_step(step, op, arg);
    Py_DECREF(step);
    if (rc < 0)
        return -1;
    S->idx++;
    code = small_int(*op);
    return code < 0 || code == D_JUMP || code > S_CALL ? S_BAD : code;
}

/* The section's result becomes value (stolen). */
static int
sec_result(flight_t *S, PyObject *value)
{
    if (S->state != NULL)
        return PyList_SetItem(S->state, 2, value);
    Py_XSETREF(S->value, value);
    return 0;
}

/* The section in flight jumps: its result becomes value (stolen; NULL
 * keeps the result) and steps (borrowed) its remaining steps. */
static int
sec_jump(flight_t *S, PyObject *value, PyObject *steps)
{
    Py_ssize_t n = PyObject_Length(steps);
    if (n < 0) {
        Py_XDECREF(value);
        return -1;
    }
    if (value != NULL && sec_result(S, value) < 0)
        return -1;
    if (S->state != NULL
        && PyList_SetItem(S->state, 0, Py_NewRef(steps)) < 0)
        return -1;
    Py_XSETREF(S->steps, Py_NewRef(steps));
    S->n = n;
    S->idx = 0;
    return 0;
}

/* The section in flight ends here with the result value (stolen). */
static int
sec_bail(flight_t *S, PyObject *value)
{
    if (sec_result(S, value) < 0)
        return -1;
    S->n = S->idx;
    return 0;
}

/* What an S_CALL returned, applied: None goes on; (D_JUMP, value, steps)
 * or (D_BAIL, value). */
static int
apply_directive(flight_t *S, PyObject *d)
{
    PyObject *tag, *val, *steps;
    int rc;
    if (d == Py_None)
        return 0;
    if ((tag = PySequence_GetItem(d, 0)) == NULL)
        return -1;
    if ((val = PySequence_GetItem(d, 1)) == NULL) {
        Py_DECREF(tag);
        return -1;
    }
    if (small_int(tag) == D_JUMP) {
        steps = PySequence_GetItem(d, 2);
        rc = steps == NULL ? -1 : sec_jump(S, val, steps);
        if (steps == NULL)
            Py_DECREF(val);
        Py_XDECREF(steps);
    }
    else  /* D_BAIL: the section ends here */
        rc = sec_bail(S, val);
    Py_DECREF(tag);
    return rc;
}

/* A PollWalk's call (core/ops.py) made by the C kernel: the memoized
 * jump for an empty queue or for its message count (a new reference),
 * or NULL — with an error set on failure, without one when the walk's
 * Python body must run (nothing memoized, the memo no longer holds, the
 * count not memoized yet, the kernel refused). */
static PyObject *
walk(seg_t *G, PyObject *w)
{
    long long base, gen, epoch, desc = 0;
    uint64_t len;
    int64_t n;
    int fcfs, rc;
    const char *b;
    PyObject *seg, *tails, *key, *d;

    if (WALK == NULL)
        return NULL;
    if ((rc = get_exact(w, PW_EPOCH, &epoch)) <= 0
        || (rc = get_exact(w, PW_BASE, &base)) <= 0
        || (rc = get_exact(w, PW_GEN, &gen)) <= 0
        || (fcfs = rc = truth(w, PW_FCFS)) < 0
        || (!fcfs && (rc = get_exact(w, PW_DESC, &desc)) <= 0))
        return NULL;  /* an error stays set */
    if (base < 0 || gen < 0 || epoch < 0 || desc < 0
        || (seg = get(w, PW_SEG)) == NULL)
        return NULL;
    b = seg_bytes(G, seg, &len);
    Py_DECREF(seg);
    if (b == NULL)
        return NULL;
    n = WALK((char *)b, len, (uint64_t)base, (uint64_t)gen,
             (uint64_t)epoch, (uint64_t)desc, fcfs);
    if (n < 0)
        return NULL;
    if (n == 0)
        return get(w, PW_EMPTY);
    if ((tails = get(w, PW_TAILS)) == NULL)
        return NULL;
    d = NULL;
    if (PyDict_CheckExact(tails) && (key = PyLong_FromLongLong(n)) != NULL) {
        d = Py_XNewRef(PyDict_GetItemWithError(tails, key));
        Py_DECREF(key);
    }
    Py_DECREF(tails);
    return d;
}

/* -- a free-list receive's stages (core/ops.py, RecvSection) -------------
 *
 * A Stage's call made here, with the kernels: the stage's memo is
 * read off its RecvSection at slot offsets, checked, and the section
 * moved exactly as the stage's Python body moves it; what one stage
 * hands the next (the claimed message, the drain, the reap) is stored
 * back on the section, where the Python bodies keep it.  Each returns 1
 * when it ran, 0 when the Python body must run instead (a memo not
 * filled or that no longer holds, a value of a type the body reads some
 * other way, a kernel refusal: nothing is written before the refusals a
 * kernel may answer), -1 on error. */

/* sec.<f> as an offset or a 32-bit word: 1 when it is an int in
 * [0, 2**32), 0 when it is anything else, -1 on error. */
static int
get_u32(PyObject *sec, int f, uint64_t *out)
{
    long long v;
    int rc = get_exact(sec, f, &v);
    if (rc <= 0)
        return rc;
    if (v < 0 || v > 0xFFFFFFFFLL)
        return 0;
    *out = (uint64_t)v;
    return 1;
}

/* sec.<f> when it is a tuple (a new reference), else NULL, with an error
 * set only on failure. */
static PyObject *
get_tuple(PyObject *sec, int f)
{
    PyObject *t = get(sec, f);
    if (t != NULL && !PyTuple_CheckExact(t))
        Py_CLEAR(t);
    return t;
}

/* memo[key], where memo is sec.<f>, a dict of step tuples keyed by
 * a << 32 | b (a new reference), else NULL, with an error set only on
 * failure. */
static PyObject *
shape_memo(PyObject *sec, int f, uint64_t a, uint64_t b)
{
    PyObject *memo = get(sec, f), *key, *steps = NULL;
    if (memo == NULL)
        return NULL;
    if (PyDict_CheckExact(memo)
        && (key = PyLong_FromUnsignedLongLong(a << 32 | b)) != NULL) {
        steps = Py_XNewRef(PyDict_GetItemWithError(memo, key));
        Py_DECREF(key);
    }
    Py_DECREF(memo);
    if (steps != NULL && !PyTuple_CheckExact(steps))
        Py_CLEAR(steps);
    return steps;
}

/* sec.<f> as a receive's length limit (INT64_MAX for None): 1, or 0 when
 * it is no int (the Python way), -1 on error. */
static int
get_limit(PyObject *sec, int f, int64_t *limit)
{
    long long v;
    int rc = 1, overflow;
    PyObject *max_len = get(sec, f);
    if (max_len == NULL)
        return -1;
    *limit = INT64_MAX;  /* None: any length */
    if (PyLong_CheckExact(max_len)) {
        v = PyLong_AsLongLongAndOverflow(max_len, &overflow);
        rc = v == -1 && PyErr_Occurred() ? -1 : !overflow;
        *limit = v;
    }
    else if (max_len != Py_None)
        rc = 0;  /* not an int: the Python way */
    Py_DECREF(max_len);
    return rc;
}

/* Either receive's connection: while the memo holds, recv-find and the
 * claim. */
static int
sec_conn(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t base, gen, epoch;
    PyObject *found;
    int rc;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, SB_GEN, &gen)) <= 0
        || (rc = get_u32(sec, SB_EPOCH, &epoch)) <= 0)
        return rc;
    if (((holds_fn)KERNEL[K_HOLDS])(b, len, base, gen, epoch) != 1)
        return 0;
    if ((found = get_tuple(sec, SB_FOUND)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    rc = sec_jump(S, Py_NewRef(Py_None), found);
    Py_DECREF(found);
    return rc < 0 ? -1 : 1;
}

/* The claim: the release and the drain; an empty queue ends the section
 * with the lock held and None. */
static int
recv_claim(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t base, desc;
    int64_t limit;
    int rc;
    PyObject *claimed;
    claim_t got;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, RC_DESC, &desc)) <= 0
        || (rc = get_limit(sec, RC_MAX_LEN, &limit)) <= 0)
        return rc;
    if ((claimed = get_tuple(sec, RC_CLAIMED)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    got = ((claim_fn)KERNEL[K_CLAIM])(b, len, base, desc, limit);
    if (got.got < 0)
        rc = 0;
    else if (got.got == 0)
        rc = sec_bail(S, Py_NewRef(Py_None)) < 0 ? -1 : 1;
    else if (set_ll(sec, RC_MSG, got.msg) < 0
             || set_ll(sec, RC_FIRST, got.first) < 0
             || set_ll(sec, RC_NBLK, got.nblk) < 0
             || set_ll(sec, RC_LENGTH, got.length) < 0
             || set_ll(sec, RC_SEQNO, got.seqno) < 0
             || set(sec, RC_FCFS, got.fcfs ? Py_True : Py_False) < 0
             || sec_jump(S, Py_NewRef(Py_None), claimed) < 0)
        rc = -1;
    Py_DECREF(claimed);
    return rc;
}

/* memo[i] equals v, memo being a tuple of ints. */
static int
memo_is(PyObject *memo, Py_ssize_t i, uint64_t v)
{
    PyObject *x = PyTuple_GET_ITEM(memo, i);
    int overflow;
    long long got;
    if (!PyLong_CheckExact(x))
        return 0;
    got = PyLong_AsLongLongAndOverflow(x, &overflow);
    return !overflow && got == (long long)v;
}

/* A BROADCAST message this view drained already: its (last block,
 * payload) from the view's drain memo (new references); 0 on a miss. */
static int
drain_memo(PyObject *sec, uint64_t msg, uint64_t first, uint64_t nblk,
           uint64_t length, PyObject **last, PyObject **payload)
{
    uint64_t lnvc_id, seqno;
    PyObject *view, *memo = NULL, *key;
    int rc;
    if ((rc = get_u32(sec, SB_LNVC_ID, &lnvc_id)) <= 0
        || (rc = get_u32(sec, RC_SEQNO, &seqno)) <= 0)
        return rc;
    if ((view = get(sec, SB_VIEW)) == NULL)
        return -1;
    if (Py_TYPE(view) == TYPES[T_VIEW])
        memo = get(view, V_DRAIN_MEMO);
    Py_DECREF(view);
    if (memo == NULL)
        return PyErr_Occurred() ? -1 : 0;
    rc = 0;
    if (PyTuple_CheckExact(memo) && PyTuple_GET_SIZE(memo) == 3
        && PyTuple_CheckExact(key = PyTuple_GET_ITEM(memo, 0))
        && PyTuple_GET_SIZE(key) == 6
        && memo_is(key, 0, lnvc_id) && memo_is(key, 1, seqno)
        && memo_is(key, 2, msg) && memo_is(key, 3, first)
        && memo_is(key, 4, nblk) && memo_is(key, 5, length)) {
        *last = Py_NewRef(PyTuple_GET_ITEM(memo, 1));
        *payload = Py_NewRef(PyTuple_GET_ITEM(memo, 2));
        rc = 1;
    }
    Py_DECREF(memo);
    return rc;
}

/* The FCFS chains drained here since the load (the engine's drains()). */
static long long FCFS_DRAINS;

/* An FCFS message's chain drained straight into a new bytes object: its
 * (last block, payload) (new references); 0 when the kernel refuses. */
static int
drain_fcfs(PyObject *sec, char *b, uint64_t len, uint64_t first,
           uint64_t nblk, uint64_t length, PyObject **last,
           PyObject **payload)
{
    uint64_t bs;
    int64_t got;
    int rc;
    if ((rc = get_u32(sec, RC_BS, &bs)) <= 0)
        return rc;
    if (length > len)
        return 0;
    if ((*payload = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)length))
        == NULL)
        return -1;
    got = ((drain_fn)KERNEL[K_DRAIN])(b, len, first, nblk, length, bs,
                                      PyBytes_AS_STRING(*payload));
    if (got >= 0 && (*last = PyLong_FromLongLong(got)) != NULL) {
        FCFS_DRAINS++;
        return 1;
    }
    Py_CLEAR(*payload);
    return got < 0 ? 0 : -1;
}

/* The drain: an FCFS message's chain drained here, a BROADCAST message's
 * (last block, payload) taken from the view's drain memo, then
 * recv-copy, the acquire and the completion.  Every other BROADCAST
 * drain is the Python body's, through the kernel set's drain, which
 * fills the memo: a message's chain is drained once per view. */
static int
recv_drain(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t msg, first, nblk, length;
    PyObject *fcfs, *steps, *last = NULL, *payload = NULL;
    int rc;
    if ((rc = get_u32(sec, RC_MSG, &msg)) <= 0
        || (rc = get_u32(sec, RC_FIRST, &first)) <= 0
        || (rc = get_u32(sec, RC_NBLK, &nblk)) <= 0
        || (rc = get_u32(sec, RC_LENGTH, &length)) <= 0)
        return rc;
    if ((fcfs = get(sec, RC_FCFS)) == NULL)
        return -1;
    Py_DECREF(fcfs);  /* compared by identity only */
    if (fcfs != Py_True && fcfs != Py_False)
        return 0;
    if ((steps = shape_memo(sec, RC_COPIES, length, nblk)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    rc = fcfs == Py_True
             ? drain_fcfs(sec, b, len, first, nblk, length, &last, &payload)
             : drain_memo(sec, msg, first, nblk, length, &last, &payload);
    if (rc > 0)
        rc = set(sec, RC_LAST, last) < 0 || set(sec, RC_PAYLOAD, payload) < 0
             || sec_jump(S, Py_NewRef(payload), steps) < 0 ? -1 : 1;
    Py_XDECREF(last);
    Py_XDECREF(payload);
    Py_DECREF(steps);
    return rc;
}

/* The completion: recv-retire and the release, or on a reap recv-retire,
 * the allocator lock and the free.  The result stays the payload. */
static int
recv_complete(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t base, msg, last, length;
    PyObject *fcfs, *retired, *reaping = NULL, *reap;
    reap_t got;
    int rc;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, RC_MSG, &msg)) <= 0
        || (rc = get_u32(sec, RC_LAST, &last)) <= 0
        || (rc = get_u32(sec, RC_LENGTH, &length)) <= 0)
        return rc;
    if ((fcfs = get(sec, RC_FCFS)) == NULL)
        return -1;
    Py_DECREF(fcfs);  /* compared by identity only */
    if (fcfs != Py_True && fcfs != Py_False)
        return 0;
    if ((retired = get_tuple(sec, RC_RETIRED)) == NULL
        || (reaping = get_tuple(sec, RC_REAPING)) == NULL) {
        Py_XDECREF(retired);
        return PyErr_Occurred() ? -1 : 0;
    }
    got = ((complete_fn)KERNEL[K_COMPLETE])(b, len, base, msg,
                                            fcfs == Py_True ? 0 : 1, last,
                                            length);
    if (!got.ok)
        rc = 0;
    else if (got.n == 0)
        rc = sec_jump(S, NULL, retired) < 0 ? -1 : 1;
    else {
        reap = Py_BuildValue("(IIIIIKK)", got.head, got.n, got.depth,
                             got.first, got.last,
                             (unsigned long long)got.nblk,
                             (unsigned long long)got.nbytes);
        rc = set_new(sec, RC_REAP, reap) < 0
             || sec_jump(S, NULL, reaping) < 0 ? -1 : 1;
    }
    Py_DECREF(retired);
    Py_DECREF(reaping);
    return rc;
}

/* The free of a reap: the allocator lock's release, reap and the
 * circuit's release.  The result stays the payload. */
static int
recv_free(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    unsigned long long head, n, depth, first, last, nblk, nbytes;
    PyObject *reap, *steps;
    int rc;
    if ((reap = get_tuple(sec, RC_REAP)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    rc = PyTuple_GET_SIZE(reap) == 7;
    if (rc)
        rc = PyArg_ParseTuple(reap, "KKKKKKK", &head, &n, &depth, &first,
                              &last, &nblk, &nbytes);
    Py_DECREF(reap);
    if (!rc) {
        PyErr_Clear();  /* not seven ints: the Python way */
        return 0;
    }
    if (n > 0xFFFFFFFFULL || nblk > 0xFFFFFFFFULL)
        return 0;
    if ((steps = shape_memo(sec, RC_REAPS, n, nblk)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (((free_fn)KERNEL[K_FREE])(b, len, head, n, first, last, nblk,
                                  nbytes) < 0)
        rc = 0;
    else
        rc = sec_jump(S, NULL, steps) < 0 ? -1 : 1;
    Py_DECREF(steps);
    return rc;
}

/* -- a free-list send's stages (core/ops.py, SendSection) ----------------
 *
 * The same for a send: each stage reads what it needs off its
 * SendSection and stores back what the next one reads, as the Python
 * bodies do. */

/* The alloc: while the tail of the payload's shape is memoized, the
 * header and chain off the free lists, then that tail (send-alloc, the
 * release, the fill, send-copy, the acquire and the link).  A dry pool
 * is the Python body's: it reports and bails. */
static int
send_alloc(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t bs, length, nblk, got;
    PyObject *data, *steps;
    int rc;
    if ((rc = get_u32(sec, SC_BS, &bs)) <= 0)
        return rc;
    if ((data = get(sec, SC_DATA)) == NULL)
        return -1;
    rc = PyBytes_CheckExact(data) && bs > 0;
    length = rc ? (uint64_t)PyBytes_GET_SIZE(data) : 0;
    Py_DECREF(data);
    if (!rc || length > 0xFFFFFFFFULL)
        return 0;
    nblk = (length + bs - 1) / bs;
    if ((steps = shape_memo(sec, SC_ALLOCS, length, nblk)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    got = ((alloc_fn)KERNEL[K_ALLOC])(b, len, nblk, length);
    if (got == UINT64_MAX)
        rc = 0;
    else
        rc = set_ll(sec, SC_HDR, (long long)(got >> 32)) < 0
             || set_ll(sec, SC_FIRST, (long long)(got & 0xFFFFFFFFULL)) < 0
             || set_ll(sec, SC_NBLK, (long long)nblk) < 0
             || set_ll(sec, SC_LENGTH, (long long)length) < 0
             || sec_jump(S, Py_NewRef(Py_None), steps) < 0 ? -1 : 1;
    Py_DECREF(steps);
    return rc;
}

/* The fill: the payload copied over the popped chain, which it ends.  No
 * directive: the section goes on to send-copy. */
static int
send_fill(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t first, nblk, bs;
    PyObject *data;
    int rc;
    (void)S;
    if ((rc = get_u32(sec, SC_FIRST, &first)) <= 0
        || (rc = get_u32(sec, SC_NBLK, &nblk)) <= 0
        || (rc = get_u32(sec, SC_BS, &bs)) <= 0)
        return rc;
    if ((data = get(sec, SC_DATA)) == NULL)
        return -1;
    rc = PyBytes_CheckExact(data)
         && ((fill_fn)KERNEL[K_FILL])(b, len, first, nblk,
                                      PyBytes_AS_STRING(data),
                                      (uint64_t)PyBytes_GET_SIZE(data),
                                      bs) >= 0;
    Py_DECREF(data);
    return rc;
}

/* The link: while the connection memo holds, the message linked at the
 * FIFO tail, its sequence number and queue depth stored, then the memoized
 * tail (send-link and the release) with the sequence number as the
 * result.  A stale or unconnected id is the Python body's: it bails. */
static int
send_link(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t base, gen, epoch, pid, hdr, first, nblk, length;
    PyObject *linked, *seqno;
    link_t got;
    int rc;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, SB_GEN, &gen)) <= 0
        || (rc = get_u32(sec, SB_EPOCH, &epoch)) <= 0
        || (rc = get_u32(sec, SB_PID, &pid)) <= 0
        || (rc = get_u32(sec, SC_HDR, &hdr)) <= 0
        || (rc = get_u32(sec, SC_FIRST, &first)) <= 0
        || (rc = get_u32(sec, SC_NBLK, &nblk)) <= 0
        || (rc = get_u32(sec, SC_LENGTH, &length)) <= 0)
        return rc;
    if (((holds_fn)KERNEL[K_HOLDS])(b, len, base, gen, epoch) != 1
        || (linked = get_tuple(sec, SC_LINKED)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    got = ((link_fn)KERNEL[K_LINK])(b, len, base, hdr, pid, length, first,
                                    nblk, 0, 0, 0);
    rc = 0;
    if (got.ok) {
        seqno = PyLong_FromUnsignedLong(got.seqno);
        rc = seqno == NULL || set(sec, SC_SEQNO, seqno) < 0
             || set_ll(sec, SC_DEPTH, got.depth) < 0 ? -1 : 1;
        if (rc > 0)
            rc = sec_jump(S, seqno, linked) < 0 ? -1 : 1;  /* steals it */
        else
            Py_XDECREF(seqno);
    }
    Py_DECREF(linked);
    return rc;
}

/* -- the ring's stages (core/ops.py, RingSendSection, RingRecvSection) ----
 *
 * The same for the ring's send and receive, with the five ring kernels.
 * A ring section's geom slot says where they find the rings (the
 * layout's ring control, cursor and slot bases, the slot stride and the
 * slots per ring), and a slot's payload lies RING_DATA bytes into it. */

enum { RING_DATA = 128 };  /* core/structs.py, RSLOT_DATA_OFF */

typedef struct {
    uint64_t ctrl, curs, data, stride, nslots;
} ring_t;

/* sec.<f> as the ring geometry: 1 when it is a tuple of five ints in
 * [0, 2**32), 0 when it is anything else, -1 on error. */
static int
get_ring(PyObject *sec, int f, ring_t *g)
{
    uint64_t v[5];
    long long n;
    int i, overflow, rc;
    PyObject *t = get_tuple(sec, f);
    if (t == NULL)
        return PyErr_Occurred() ? -1 : 0;
    rc = PyTuple_GET_SIZE(t) == 5;
    for (i = 0; rc > 0 && i < 5; i++) {
        PyObject *x = PyTuple_GET_ITEM(t, i);
        if (!PyLong_CheckExact(x)) {
            rc = 0;
            break;
        }
        n = PyLong_AsLongLongAndOverflow(x, &overflow);
        if (n == -1 && PyErr_Occurred())
            rc = -1;
        else if (overflow || n < 0 || n > 0xFFFFFFFFLL)
            rc = 0;
        else
            v[i] = (uint64_t)n;
    }
    Py_DECREF(t);
    if (rc > 0) {
        g->ctrl = v[0];
        g->curs = v[1];
        g->data = v[2];
        g->stride = v[3];
        g->nslots = v[4];
    }
    return rc;
}

/* The fill (the lock held): while the tail of the payload's length is
 * memoized and — unless the section just slept (resolved: the classic
 * send resolved the connection once) — the connection memo holds, the
 * next index claimed and its slot filled, then that tail (ring-claim,
 * ring-fill, the commit, ring-commit and the release) with the sequence
 * number as the result; a full ring ends the section with the lock held
 * and None.  A stale or unconnected id is the Python body's: it bails. */
static int
rsend_fill_at(flight_t *S, PyObject *sec, char *b, uint64_t len,
              int resolved)
{
    uint64_t base, pid, gen, epoch, length;
    PyObject *data, *steps, *seqno;
    ring_t g;
    rfill_t got;
    int rc;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, SB_PID, &pid)) <= 0
        || (rc = get_ring(sec, GS_GEOM, &g)) <= 0)
        return rc;
    if (!resolved
        && ((rc = get_u32(sec, SB_GEN, &gen)) <= 0
            || (rc = get_u32(sec, SB_EPOCH, &epoch)) <= 0
            || (rc = ((holds_fn)KERNEL[K_HOLDS])(b, len, base, gen, epoch))
               != 1))
        return rc < 0 ? -1 : 0;
    if ((data = get(sec, GS_DATA)) == NULL)
        return -1;
    rc = 0;
    if (PyBytes_CheckExact(data)) {
        length = (uint64_t)PyBytes_GET_SIZE(data);
        if ((steps = shape_memo(sec, GS_FILLS, 0, length)) == NULL)
            rc = PyErr_Occurred() ? -1 : 0;
        else {
            got = ((rfill_fn)KERNEL[K_RFILL])(b, len, g.ctrl, g.curs, g.data,
                                              g.stride, g.nslots, base, pid,
                                              PyBytes_AS_STRING(data),
                                              length);
            if (got.ok == 0)  /* a full ring: the lock stays held */
                rc = sec_bail(S, Py_NewRef(Py_None)) < 0 ? -1 : 1;
            else if (got.ok > 0) {
                seqno = PyLong_FromUnsignedLong(got.seqno);
                rc = seqno == NULL || set(sec, GS_SEQNO, seqno) < 0
                     || set_ll(sec, GS_SEQ, got.seq) < 0
                     || set_ll(sec, GS_SL, got.sl) < 0
                     || set_ll(sec, GS_DEPTH, got.depth) < 0 ? -1 : 1;
                if (rc > 0)
                    rc = sec_jump(S, seqno, steps) < 0 ? -1 : 1;  /* steals */
                else
                    Py_XDECREF(seqno);
            }
            Py_DECREF(steps);
        }
    }
    Py_DECREF(data);
    return rc;
}

static int
rsend_fill(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    return rsend_fill_at(S, sec, b, len, 0);
}

/* The fill again, after a sleep on a full ring. */
static int
rsend_refill(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    return rsend_fill_at(S, sec, b, len, 1);
}

/* The commit: the commit word stored, a message nobody is owed retired.
 * No directive: the section goes on to ring-commit. */
static int
rsend_commit(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t base, sl, seq;
    int rc;
    (void)S;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, GS_SL, &sl)) <= 0
        || (rc = get_u32(sec, GS_SEQ, &seq)) <= 0)
        return rc;
    return ((rcommit_fn)KERNEL[K_RCOMMIT])(b, len, base, sl, seq) >= 0;
}

/* What a take or a claim took, stored on the section: the slot, the
 * message's length and sequence number, the pending bit it owes and its
 * index. */
static int
set_taken(PyObject *sec, rtake_t got)
{
    return set_ll(sec, GR_SL, got.sl) < 0
           || set_ll(sec, GR_LENGTH, got.length) < 0
           || set_ll(sec, GR_SEQNO, got.seqno) < 0
           || set_ll(sec, GR_UNREAD, got.unread) < 0
           || set_ll(sec, GR_IDX, got.idx) < 0 ? -1 : 0;
}

/* The lock-free take: while the connection memo holds (the view's
 * connection cache, which the Python body reads, then holds the same
 * descriptor), the message at the reader's BROADCAST cursor if it is
 * committed, then ring-cursor and the copy; for an FCFS reader or a
 * slot not committed yet, the acquire and the connection. */
static int
rrecv_take(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t base, gen, epoch, desc;
    int64_t limit;
    PyObject *hit, *missed;
    ring_t g;
    rtake_t got;
    int rc;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, SB_GEN, &gen)) <= 0
        || (rc = get_u32(sec, SB_EPOCH, &epoch)) <= 0
        || (rc = get_u32(sec, GR_DESC, &desc)) <= 0
        || (rc = get_limit(sec, GR_MAX_LEN, &limit)) <= 0
        || (rc = get_ring(sec, GR_GEOM, &g)) <= 0)
        return rc;
    if (((holds_fn)KERNEL[K_HOLDS])(b, len, base, gen, epoch) != 1)
        return 0;
    if ((hit = get_tuple(sec, GR_HIT)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if ((missed = get_tuple(sec, GR_MISSED)) == NULL) {
        Py_DECREF(hit);
        return PyErr_Occurred() ? -1 : 0;
    }
    got = ((rtake_fn)KERNEL[K_RTAKE])(b, len, g.ctrl, g.curs, g.data,
                                      g.stride, g.nslots, base, desc, gen,
                                      epoch, limit);
    if (got.got < 0)
        rc = 0;
    else if (got.got == 0)
        rc = sec_jump(S, Py_NewRef(Py_None), missed) < 0 ? -1 : 1;
    else
        rc = set_taken(sec, got) < 0
             || sec_jump(S, Py_NewRef(Py_None), hit) < 0 ? -1 : 1;
    Py_DECREF(hit);
    Py_DECREF(missed);
    return rc;
}

/* The claim (the lock held): a BROADCAST take or the FCFS scan, then
 * ring-cursor or ring-claim, the release and the copy; nothing to claim
 * yet ends the section with the lock held and None. */
static int
rrecv_claim(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t base, desc;
    int64_t limit;
    PyObject *claimed, *tail;
    ring_t g;
    rtake_t got;
    int rc;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, GR_DESC, &desc)) <= 0
        || (rc = get_limit(sec, GR_MAX_LEN, &limit)) <= 0
        || (rc = get_ring(sec, GR_GEOM, &g)) <= 0)
        return rc;
    if ((claimed = get_tuple(sec, GR_CLAIMED)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    rc = 0;
    if (PyTuple_GET_SIZE(claimed) == 2) {
        got = ((rclaim_fn)KERNEL[K_RCLAIM])(b, len, g.ctrl, g.curs, g.data,
                                            g.stride, g.nslots, base, desc,
                                            limit);
        tail = PyTuple_GET_ITEM(claimed, got.unread != 0);
        if (got.got == 0)
            rc = sec_bail(S, Py_NewRef(Py_None)) < 0 ? -1 : 1;
        else if (got.got > 0)
            rc = set_taken(sec, got) < 0
                 || sec_jump(S, Py_NewRef(Py_None), tail) < 0 ? -1 : 1;
    }
    Py_DECREF(claimed);
    return rc;
}

/* The copy (no lock held: the pin keeps the slot): the payload built
 * from the slot, then the memoized tail of its length (ring-copy, the
 * acquire and the completion) with the payload as the result. */
static int
rrecv_copy(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t sl, length;
    PyObject *steps, *payload;
    int rc;
    if ((rc = get_u32(sec, GR_SL, &sl)) <= 0
        || (rc = get_u32(sec, GR_LENGTH, &length)) <= 0)
        return rc;
    if (sl + RING_DATA + length > len)
        return 0;
    if ((steps = shape_memo(sec, GR_COPIES, 0, length)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    payload = PyBytes_FromStringAndSize(b + sl + RING_DATA,
                                        (Py_ssize_t)length);
    rc = payload == NULL || set(sec, GR_PAYLOAD, payload) < 0
         || sec_jump(S, Py_NewRef(payload), steps) < 0 ? -1 : 1;
    Py_XDECREF(payload);
    Py_DECREF(steps);
    return rc;
}

/* The completion (the lock held): the pin dropped, the retirement rule
 * applied, the receive counted and whether a blocked sender waits for
 * this very slot stored (wake), then ring-consume and the release.  The
 * result stays the payload. */
static int
rrecv_complete(flight_t *S, PyObject *sec, char *b, uint64_t len)
{
    uint64_t base, sl, unread, idx, length;
    PyObject *consumed;
    ring_t g;
    int64_t wake;
    int rc;
    if ((rc = get_u32(sec, SB_BASE, &base)) <= 0
        || (rc = get_u32(sec, GR_SL, &sl)) <= 0
        || (rc = get_u32(sec, GR_UNREAD, &unread)) <= 0
        || (rc = get_u32(sec, GR_IDX, &idx)) <= 0
        || (rc = get_u32(sec, GR_LENGTH, &length)) <= 0
        || (rc = get_ring(sec, GR_GEOM, &g)) <= 0)
        return rc;
    if ((consumed = get_tuple(sec, GR_CONSUMED)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    wake = ((rcomplete_fn)KERNEL[K_RCOMPLETE])(b, len, g.nslots, base, sl,
                                               unread, idx, length);
    rc = 0;
    if (wake >= 0)
        rc = set(sec, SB_WAKE, wake ? Py_True : Py_False) < 0
             || sec_jump(S, NULL, consumed) < 0 ? -1 : 1;
    Py_DECREF(consumed);
    return rc;
}

/* A Stage's call (core/ops.py): 1 when the stage ran here, 0 when its
 * Python body must run, -1 on error.  The table is indexed by the stage's
 * kind, each row naming the section class it runs over (a row of
 * Section's runs over any section); a probe's stages lie past it. */
static int
run_stage(flight_t *S, seg_t *G, PyObject *stage)
{
    typedef int (*stage_fn)(flight_t *, PyObject *, char *, uint64_t);
    static const struct {
        stage_fn run;
        int type;
    } STAGE[] = {
        {sec_conn, T_SEC}, {recv_claim, T_RSEC}, {recv_drain, T_RSEC},
        {recv_complete, T_RSEC}, {recv_free, T_RSEC}, {send_alloc, T_SSEC},
        {send_fill, T_SSEC}, {send_link, T_SSEC}, {rsend_fill, T_GSEC},
        {rsend_refill, T_GSEC}, {rsend_commit, T_GSEC},
        {rrecv_take, T_GREC}, {rrecv_claim, T_GREC}, {rrecv_copy, T_GREC},
        {rrecv_complete, T_GREC}};
    long long kind;
    uint64_t len;
    const char *b;
    PyTypeObject *type;
    PyObject *sec, *seg;
    int rc;
    if (KERNEL[K_CLAIM] == NULL)
        return 0;
    if ((rc = get_exact(stage, RS_KIND, &kind)) <= 0)
        return rc;
    if (kind < 0 || kind >= (long long)(sizeof STAGE / sizeof STAGE[0]))
        return 0;
    if ((sec = get(stage, RS_SEC)) == NULL)
        return -1;
    rc = 0;
    type = TYPES[STAGE[kind].type];
    if (Py_TYPE(sec) == type || Py_TYPE(sec)->tp_base == type) {
        if ((seg = get(sec, SB_SEG)) == NULL)
            rc = -1;
        else {
            b = seg_bytes(G, seg, &len);
            Py_DECREF(seg);
            if (b != NULL && !G->buf.readonly)
                rc = STAGE[kind].run(S, sec, (char *)b, len);
        }
    }
    Py_DECREF(sec);
    return rc;
}

/* An S_CALL of ``fn``: a poll walk or a section's stage whose memo holds
 * runs here; any other call is ``body(ctx, fn)``'s (the includer calls
 * the Python body, writing back what it must around it; NULL: a plain
 * call), and the directive it returns is applied. */
static int
sec_call(flight_t *S, seg_t *G, PyObject *fn,
         PyObject *(*body)(void *, PyObject *), void *ctx)
{
    PyObject *d = NULL;
    int rc;
    /* a poll walk whose memo holds: the kernel */
    if (Py_TYPE(fn) == TYPES[T_WALK] && (d = walk(G, fn)) == NULL
        && PyErr_Occurred())
        return -1;
    /* a stage whose memo holds: the kernels */
    if (Py_TYPE(fn) == TYPES[T_STAGE] && (rc = run_stage(S, G, fn)) != 0) {
        S->ran_c += rc > 0;
        return rc < 0 ? -1 : 0;
    }
    if (d != NULL)
        S->ran_c++;
    else {
        S->ran_py++;
        if ((d = body ? body(ctx, fn) : PyObject_CallNoArgs(fn)) == NULL)
            return -1;
    }
    rc = apply_directive(S, d);
    Py_DECREF(d);
    return rc;
}

/* -- binding -------------------------------------------------------------- */

static int
intern(PyObject **slot, const char *s)
{
    if (*slot == NULL)
        *slot = PyUnicode_InternFromString(s);
    return *slot == NULL ? -1 : 0;
}

/* The N_TYPES classes (in TYPES order), their slot offsets, and the
 * kernel addresses (chains.ENGINE_KERNELS' order; None: no kernels). */
static int
bind_classes(PyObject *const *classes, PyObject *addresses)
{
    int i;
    memset(KERNEL, 0, sizeof KERNEL);
    if (addresses != Py_None) {
        PyObject *fast = PySequence_Fast(addresses, "the kernel addresses");
        if (fast == NULL)
            return -1;
        if (PySequence_Fast_GET_SIZE(fast) != N_KERNELS) {
            Py_DECREF(fast);
            PyErr_Format(PyExc_ValueError, "%d kernel addresses expected",
                         N_KERNELS);
            return -1;
        }
        for (i = 0; i < N_KERNELS; i++) {
            unsigned long long a = PyLong_AsUnsignedLongLong(
                PySequence_Fast_GET_ITEM(fast, i));
            if (a == (unsigned long long)-1 && PyErr_Occurred()) {
                Py_DECREF(fast);
                memset(KERNEL, 0, sizeof KERNEL);
                return -1;
            }
            KERNEL[i] = (void *)(uintptr_t)a;
        }
        Py_DECREF(fast);
    }
    for (i = 0; i < N_TYPES; i++) {
        if (!PyType_Check(classes[i])) {
            PyErr_SetString(PyExc_TypeError, "not a class");
            return -1;
        }
        Py_XSETREF(TYPES[i], (PyTypeObject *)Py_NewRef(classes[i]));
    }
    if (intern(&K_SEND, "send") < 0)
        return -1;
    for (i = 0; i < N_FIELDS; i++) {
        PyObject *d;
        F[i].off = -1;
        if (intern(&F[i].key, F[i].name) < 0)
            return -1;
        d = PyObject_GetAttr((PyObject *)TYPES[F[i].owner], F[i].key);
        if (d == NULL) {
            PyErr_Clear();  /* not a class attribute: getattr per access */
            continue;
        }
        if (Py_IS_TYPE(d, &PyMemberDescr_Type)) {
            PyMemberDescrObject *m = (PyMemberDescrObject *)d;
            if (m->d_common.d_type == TYPES[F[i].owner]
                && m->d_member->type == Py_T_OBJECT_EX)
                F[i].off = m->d_member->offset;
        }
        Py_DECREF(d);
    }
    return 0;
}
