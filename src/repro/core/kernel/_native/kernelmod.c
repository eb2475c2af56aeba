/* Compiled rank-kernel: the candidate-selection sweep of
 * repro.core.kernel.reference, re-implemented over the same memory
 * layout (the ranker's parallel head columns) in C.
 *
 * The contract is strict byte-identity with the reference kernel: the
 * packed decision codes, the scan order, every tie-break and every
 * ceiling comparison mirror reference.select() exactly.  The golden
 * digest matrices are generated from the reference implementation;
 * tests/test_kernel.py re-runs them under this backend and asserts the
 * digests match.
 *
 * A Selector object is bound once per ranker (and re-bound when a
 * streaming ingest grows the columns): it holds buffer views into the
 * array.array columns plus references to the two dicts, so a call is
 * two flat C loops over machine ints with at most one dict probe per
 * RECEIVE head per loop.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Decision codes -- must match repro.core.kernel.reference. */
#define K_RULE1 0
#define K_RULE2 1
#define K_EMPTY 2
#define K_DISCARD 3
#define K_BLOCKED 4
#define K_STALL 5

typedef struct {
    PyObject_HEAD
    Py_ssize_t n;      /* slot count, fixed at binding time           */
    Py_buffer ts;      /* array('d'): head timestamps, +inf = empty   */
    Py_buffer pri;     /* array('q'): head priorities (type values)   */
    Py_buffer seq;     /* array('q'): head sequence numbers           */
    Py_buffer blocked; /* array('q'): scratch, blocked slot list      */
    Py_buffer discard; /* array('q'): scratch, noise slot list        */
    PyObject *keys;    /* list: boxed message key per RECEIVE head    */
    PyObject *mmap;    /* dict: message key -> pending-SEND deque     */
    PyObject *undelivered; /* Counter: message key -> SENDs buffered
                            * or awaiting fetch, on any node          */
    int bound;         /* buffers acquired (guards dealloc)           */
} Selector;

static void
Selector_dealloc(Selector *self)
{
    if (self->bound) {
        PyBuffer_Release(&self->ts);
        PyBuffer_Release(&self->pri);
        PyBuffer_Release(&self->seq);
        PyBuffer_Release(&self->blocked);
        PyBuffer_Release(&self->discard);
    }
    Py_XDECREF(self->keys);
    Py_XDECREF(self->mmap);
    Py_XDECREF(self->undelivered);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Selector_call(Selector *self, PyObject *args, PyObject *kwargs)
{
    double ceiling;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) != 0) {
        PyErr_SetString(PyExc_TypeError, "selector takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "d", &ceiling))
        return NULL;
    const Py_ssize_t n = self->n;

    const double *ts = (const double *)self->ts.buf;
    const long long *pri = (const long long *)self->pri.buf;
    const long long *seq = (const long long *)self->seq.buf;
    long long *blocked = (long long *)self->blocked.buf;
    long long *discard = (long long *)self->discard.buf;
    PyObject *keys = self->keys;

    /* Sweep 1: emptiness, earliest head, Rule 1 (earliest RECEIVE head
     * whose matching SEND is pending in the mmap; strict < tie-break =
     * first slot in scan order). */
    int empty = 1;
    double earliest = INFINITY;
    Py_ssize_t cand_slot = -1;
    double cand_ts = INFINITY;
    for (Py_ssize_t slot = 0; slot < n; slot++) {
        double t = ts[slot];
        if (t == INFINITY)
            continue;
        empty = 0;
        if (t < earliest)
            earliest = t;
        if (pri[slot] == 3) {
            PyObject *pending = PyDict_GetItemWithError(
                self->mmap, PyList_GET_ITEM(keys, slot));
            if (pending != NULL) {
                int truth = PyObject_IsTrue(pending);
                if (truth < 0)
                    return NULL;
                if (truth && t < cand_ts) {
                    cand_ts = t;
                    cand_slot = slot;
                }
            }
            else if (PyErr_Occurred())
                return NULL;
        }
    }
    if (empty)
        return PyLong_FromLong(K_EMPTY);
    if (earliest > ceiling)
        return PyLong_FromLong(K_STALL);
    if (cand_slot >= 0) {
        if (cand_ts > ceiling)
            return PyLong_FromLong(K_STALL);
        return PyLong_FromLongLong(K_RULE1 | (long long)cand_slot << 3);
    }

    /* Sweep 2: classify heads (noise / blocked / eligible) and track
     * the Rule-2 minimum (priority, timestamp, seq; strict comparisons,
     * scan-order tie-break). */
    long long n_discard = 0;
    long long n_blocked = 0;
    Py_ssize_t best_slot = -1;
    long long best_pri = 0, best_seq = 0;
    double best_ts = 0.0;
    for (Py_ssize_t slot = 0; slot < n; slot++) {
        double t = ts[slot];
        if (t == INFINITY)
            continue;
        long long p = pri[slot];
        if (p == 3) {
            PyObject *key = PyList_GET_ITEM(keys, slot);
            int has = 0;
            PyObject *count = PyDict_GetItemWithError(self->undelivered, key);
            if (count != NULL) {
                long long value = PyLong_AsLongLong(count);
                if (value == -1 && PyErr_Occurred())
                    return NULL;
                has = value > 0;
            }
            else if (PyErr_Occurred())
                return NULL;
            if (has) {
                if (t <= ceiling)
                    blocked[n_blocked++] = (long long)slot;
                continue;
            }
            if (t <= ceiling) {
                discard[n_discard++] = (long long)slot;
                continue;
            }
            /* above the ceiling: noise verdict not final, stays
             * eligible (and stalls below, never delivers) */
        }
        if (best_slot < 0 || p < best_pri
            || (p == best_pri
                && (t < best_ts || (t == best_ts && seq[slot] < best_seq)))) {
            best_slot = slot;
            best_pri = p;
            best_ts = t;
            best_seq = seq[slot];
        }
    }
    if (n_discard)
        return PyLong_FromLongLong(K_DISCARD | n_discard << 3);
    if (best_slot >= 0) {
        if (best_ts > ceiling)
            return PyLong_FromLong(K_STALL);
        return PyLong_FromLongLong(K_RULE2 | (long long)best_slot << 3);
    }
    return PyLong_FromLongLong(K_BLOCKED | n_blocked << 3);
}

static PyTypeObject SelectorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.kernel._native.Selector",
    .tp_basicsize = sizeof(Selector),
    .tp_dealloc = (destructor)Selector_dealloc,
    .tp_call = (ternaryfunc)Selector_call,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Bound candidate-selection sweep over the ranker's head columns.",
};

static int
acquire_column(PyObject *obj, Py_buffer *view, const char *expect_format,
               const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        return -1;
    if (view->format == NULL || strcmp(view->format, expect_format) != 0
        || view->ndim != 1) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a one-dimensional array('%s')", name,
                     expect_format);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
make_selector(PyObject *module, PyObject *args)
{
    /* Positional signature is identical to reference.make_selector. */
    PyObject *ts, *pri, *seq, *keys, *mmap, *undelivered;
    PyObject *blocked, *discard;
    if (!PyArg_ParseTuple(args, "OOOOOOOO", &ts, &pri, &seq, &keys, &mmap,
                          &undelivered, &blocked, &discard))
        return NULL;
    if (!PyList_Check(keys)) {
        PyErr_SetString(PyExc_TypeError, "head_keys must be a list");
        return NULL;
    }
    /* undelivered is a collections.Counter: a dict subclass whose
     * entries live in the plain dict storage, so raw dict probes see
     * them. */
    if (!PyDict_Check(mmap) || !PyDict_Check(undelivered)) {
        PyErr_SetString(PyExc_TypeError,
                        "mmap_pending and undelivered must be dicts");
        return NULL;
    }

    Selector *self = PyObject_New(Selector, &SelectorType);
    if (self == NULL)
        return NULL;
    self->bound = 0;
    self->keys = NULL;
    self->mmap = NULL;
    self->undelivered = NULL;
    memset(&self->ts, 0, sizeof(Py_buffer));
    memset(&self->pri, 0, sizeof(Py_buffer));
    memset(&self->seq, 0, sizeof(Py_buffer));
    memset(&self->blocked, 0, sizeof(Py_buffer));
    memset(&self->discard, 0, sizeof(Py_buffer));

    if (acquire_column(ts, &self->ts, "d", "head_ts") < 0)
        goto fail_ts;
    if (acquire_column(pri, &self->pri, "q", "head_pri") < 0)
        goto fail_pri;
    if (acquire_column(seq, &self->seq, "q", "head_seq") < 0)
        goto fail_seq;
    if (acquire_column(blocked, &self->blocked, "q", "blocked_out") < 0)
        goto fail_blocked;
    if (acquire_column(discard, &self->discard, "q", "discard_out") < 0)
        goto fail_discard;
    self->bound = 1;
    self->n = self->ts.len / (Py_ssize_t)sizeof(double);
    if (PyList_GET_SIZE(keys) < self->n
        || self->pri.len / (Py_ssize_t)sizeof(long long) < self->n
        || self->seq.len / (Py_ssize_t)sizeof(long long) < self->n
        || self->blocked.len / (Py_ssize_t)sizeof(long long) < self->n
        || self->discard.len / (Py_ssize_t)sizeof(long long) < self->n) {
        PyErr_SetString(PyExc_ValueError,
                        "head columns disagree on the slot count");
        Py_DECREF(self);
        return NULL;
    }

    Py_INCREF(keys);
    self->keys = keys;
    Py_INCREF(mmap);
    self->mmap = mmap;
    Py_INCREF(undelivered);
    self->undelivered = undelivered;
    return (PyObject *)self;

fail_discard:
    PyBuffer_Release(&self->blocked);
fail_blocked:
    PyBuffer_Release(&self->seq);
fail_seq:
    PyBuffer_Release(&self->pri);
fail_pri:
    PyBuffer_Release(&self->ts);
fail_ts:
    Py_TYPE(self)->tp_free((PyObject *)self);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"make_selector", make_selector, METH_VARARGS,
     "make_selector(head_ts, head_pri, head_seq, head_keys, mmap_pending,\n"
     "              undelivered, blocked_out, discard_out)\n"
     "Bind a compiled selector over the ranker's head columns."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernelmodule = {
    PyModuleDef_HEAD_INIT,
    "_kernel",
    "Compiled candidate-selection kernel (see kernel/reference.py).",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    if (PyType_Ready(&SelectorType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&kernelmodule);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "RULE1", K_RULE1) < 0
        || PyModule_AddIntConstant(module, "RULE2", K_RULE2) < 0
        || PyModule_AddIntConstant(module, "EMPTY", K_EMPTY) < 0
        || PyModule_AddIntConstant(module, "DISCARD", K_DISCARD) < 0
        || PyModule_AddIntConstant(module, "BLOCKED", K_BLOCKED) < 0
        || PyModule_AddIntConstant(module, "STALL", K_STALL) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
