/* Compiled rank-kernel: the candidate-selection sweep of
 * repro.core.kernel.reference, re-implemented in C over the same plain
 * lists (the ranker's parallel head columns).
 *
 * The contract is strict byte-identity with the reference kernel: the
 * packed decision codes, the scan order, every tie-break and every
 * ceiling comparison mirror reference.select() exactly.  The golden
 * digest matrices are generated from the reference implementation;
 * tests/test_kernel.py re-runs them under this backend and asserts the
 * digests match.
 *
 * A Selector object is bound once per ranker: it holds references to
 * the head-column lists and the two dicts, so a streaming ingest that
 * appends a slot needs no re-binding.  Each call reads the slot count
 * from head_ts, refuses lists shorter than it, and bounds-checks every
 * read besides: a dict probe or a truth test may run Python code, so
 * nothing else keeps a list from shrinking under the sweep.
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
    PyObject *args;    /* the make_selector arguments, held: the fields
                        * below are borrowed from this tuple           */
    PyObject *ts;      /* list: head timestamps (floats), +inf = empty */
    PyObject *pri;     /* list: head priorities (type values)          */
    PyObject *seq;     /* list: head sequence numbers                  */
    PyObject *keys;    /* list: message key per RECEIVE head           */
    PyObject *mmap;    /* dict: message key -> pending-SEND deque      */
    PyObject *undelivered; /* Counter: message key -> SENDs buffered
                            * or awaiting fetch, on any node           */
    PyObject *blocked; /* list: scratch, blocked slot list             */
    PyObject *discard; /* list: scratch, noise slot list               */
} Selector;

static const char SLOT_COUNT[] = "head columns disagree on the slot count";

static void
Selector_dealloc(Selector *self)
{
    Py_XDECREF(self->args);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Item `slot` of `list`, or NULL with a ValueError when the list is
 * too short.  Every read goes through here: a dict probe or a number
 * conversion may run Python code that shrinks a list under the sweep. */
static PyObject *
item(PyObject *list, Py_ssize_t slot)
{
    if (slot < PyList_GET_SIZE(list))
        return PyList_GET_ITEM(list, slot);
    PyErr_SetString(PyExc_ValueError, SLOT_COUNT);
    return NULL;
}

static int
item_double(PyObject *list, Py_ssize_t slot, double *out)
{
    PyObject *value = item(list, slot);
    if (value == NULL)
        return -1;
    if (PyFloat_CheckExact(value)) {
        *out = PyFloat_AS_DOUBLE(value);
        return 0;
    }
    *out = PyFloat_AsDouble(value);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static int
item_long(PyObject *list, Py_ssize_t slot, long long *out)
{
    PyObject *value = item(list, slot);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLongLong(value);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
store_slot(PyObject *list, long long position, Py_ssize_t slot)
{
    PyObject *value = PyLong_FromSsize_t(slot);
    if (value == NULL)
        return -1;
    return PyList_SetItem(list, (Py_ssize_t)position, value);
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
    /* The slot count is head_ts's; every other list must cover it. */
    const Py_ssize_t n = PyList_GET_SIZE(self->ts);
    if (PyList_GET_SIZE(self->pri) < n || PyList_GET_SIZE(self->seq) < n
        || PyList_GET_SIZE(self->keys) < n
        || PyList_GET_SIZE(self->blocked) < n
        || PyList_GET_SIZE(self->discard) < n) {
        PyErr_SetString(PyExc_ValueError, SLOT_COUNT);
        return NULL;
    }

    /* Sweep 1: emptiness, earliest head, Rule 1 (earliest RECEIVE head
     * whose matching SEND is pending in the mmap; strict < tie-break =
     * first slot in scan order). */
    int empty = 1;
    double earliest = INFINITY;
    Py_ssize_t cand_slot = -1;
    double cand_ts = INFINITY;
    for (Py_ssize_t slot = 0; slot < n; slot++) {
        double t;
        long long p;
        if (item_double(self->ts, slot, &t) < 0)
            return NULL;
        if (t == INFINITY)
            continue;
        empty = 0;
        if (t < earliest)
            earliest = t;
        if (item_long(self->pri, slot, &p) < 0)
            return NULL;
        if (p == 3) {
            PyObject *key = item(self->keys, slot);
            if (key == NULL)
                return NULL;
            PyObject *pending = PyDict_GetItemWithError(self->mmap, key);
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
        double t;
        long long p, s;
        if (item_double(self->ts, slot, &t) < 0)
            return NULL;
        if (t == INFINITY)
            continue;
        if (item_long(self->pri, slot, &p) < 0)
            return NULL;
        if (p == 3) {
            int has = 0;
            PyObject *key = item(self->keys, slot);
            if (key == NULL)
                return NULL;
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
                if (t <= ceiling
                    && store_slot(self->blocked, n_blocked++, slot) < 0)
                    return NULL;
                continue;
            }
            if (t <= ceiling) {
                if (store_slot(self->discard, n_discard++, slot) < 0)
                    return NULL;
                continue;
            }
            /* above the ceiling: noise verdict not final, stays
             * eligible (and stalls below, never delivers) */
        }
        if (item_long(self->seq, slot, &s) < 0)
            return NULL;
        if (best_slot < 0 || p < best_pri
            || (p == best_pri
                && (t < best_ts || (t == best_ts && s < best_seq)))) {
            best_slot = slot;
            best_pri = p;
            best_ts = t;
            best_seq = s;
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

static PyObject *
make_selector(PyObject *module, PyObject *args)
{
    /* Positional signature is identical to reference.make_selector.
     * undelivered is a collections.Counter: a dict subclass whose
     * entries live in the plain dict storage, so raw dict probes see
     * them. */
    Selector *self = PyObject_New(Selector, &SelectorType);
    if (self == NULL)
        return NULL;
    self->args = NULL;
    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!O!", &PyList_Type, &self->ts,
                          &PyList_Type, &self->pri, &PyList_Type, &self->seq,
                          &PyList_Type, &self->keys, &PyDict_Type, &self->mmap,
                          &PyDict_Type, &self->undelivered, &PyList_Type,
                          &self->blocked, &PyList_Type, &self->discard)) {
        Py_DECREF(self);
        return NULL;
    }
    Py_INCREF(args);
    self->args = args;
    return (PyObject *)self;
}

static PyMethodDef kernel_methods[] = {
    {"make_selector", make_selector, METH_VARARGS,
     "make_selector(head_ts, head_pri, head_seq, head_keys, mmap_pending,\n"
     "              undelivered, blocked_out, discard_out)\n"
     "Bind a compiled selector over the ranker's head-column lists."},
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
