/* Compiled discrete-event engine: the hot path of repro/utils/simcore.py
 * rewritten as a CPython extension.
 *
 * The contract is bit-identity with the pure-Python reference engine:
 *  - event ordering is the exact (time, seq) order of the reference —
 *    a binary heap keyed on (double time, int64 seq) merged with a FIFO
 *    now-queue for zero-delay schedules, drained with the same
 *    comparison the Python run loop uses;
 *  - every float operation (reserve arithmetic, timeout sums) happens
 *    in the same order on IEEE doubles (the build forbids FP
 *    contraction so a+b*c never fuses into an FMA);
 *  - request dispatch recognises the *Python* request dataclasses from
 *    repro.utils.simcore (registered once via _register), so simulator
 *    code yields the same objects to either backend.
 *
 * Mixed-backend objects (a Python-backend SlotPool driven by a
 * compiled Process, etc.) work through generic attribute/method
 * fallbacks, but the supported configuration is one backend per
 * engine, which is what NDPSystem builds.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include "structmember.h"

#if PY_VERSION_HEX < 0x030A0000
static int
PyModule_AddObjectRef(PyObject *module, const char *name, PyObject *value)
{
    Py_INCREF(value);
    if (PyModule_AddObject(module, name, value) < 0) {
        Py_DECREF(value);
        return -1;
    }
    return 0;
}
#endif

/* ---------------------------------------------------------------- *
 * Globals registered from repro.accel (the shared Python API)      *
 * ---------------------------------------------------------------- */

static PyObject *g_simulation_error = NULL; /* repro.errors.SimulationError */
static PyObject *g_req_timeout = NULL;
static PyObject *g_req_acquire = NULL;
static PyObject *g_req_get = NULL;
static PyObject *g_req_put = NULL;
static PyObject *g_req_wait = NULL;
static PyObject *g_req_allof = NULL;
static PyObject *g_dispatch_cache = NULL; /* type -> int kind (subclasses) */

static PyObject *s_delay, *s_resource, *s_amount, *s_pool, *s_event,
    *s_items, *s_done_event, *s_reserve, *s__get, *s_put, *s_add_callback,
    *s__on_event, *s_send;

/* Request kinds (dispatch results). */
enum {
    REQ_TIMEOUT = 0,
    REQ_ACQUIRE,
    REQ_GET,
    REQ_PUT,
    REQ_WAIT,
    REQ_ALLOF,
    REQ_UNKNOWN = -1,
};

/* Scheduled-item kinds. */
enum {
    K_PLAIN = 0,      /* a() */
    K_RESUME,         /* step(a, None) */
    K_RESUME_VALUE,   /* step(a, a->value) */
    K_EVENT_CB,       /* a(b) */
    K_PROC_EVENT,     /* step(a, ((Event*)b)->value) */
};

typedef struct {
    double time;     /* unused for now-queue entries */
    long long seq;
    int kind;
    PyObject *a;     /* strong */
    PyObject *b;     /* strong or NULL */
} Item;

/* ---------------------------------------------------------------- *
 * Object structs                                                   *
 * ---------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    double now;
    long long seq;
    long long event_count;
    Item *heap;
    Py_ssize_t heap_len, heap_cap;
    Item *q;                      /* ring buffer */
    Py_ssize_t q_head, q_len, q_cap;
} EngineObject;

typedef struct {
    PyObject_HEAD
    PyObject *engine;    /* strong (EngineObject*) */
    PyObject *value;     /* strong or NULL (=None) */
    PyObject *callbacks; /* PyList or NULL (lazy) */
    int triggered;
} EventObject;

typedef struct {
    PyObject_HEAD
    PyObject *engine;     /* strong */
    PyObject *generator;  /* strong */
    PyObject *done_event; /* strong (EventObject*) */
    PyObject *result;     /* strong or NULL (=None) */
    PyObject *value;      /* strong or NULL; pending Acquire completion */
    int finished;
} ProcessObject;

typedef struct {
    PyObject_HEAD
    PyObject *waiter;     /* strong (ProcessObject*) */
    long long pending;
} JoinObject;

typedef struct {
    PyObject_HEAD
    PyObject *engine; /* strong */
    PyObject *name;   /* strong */
    double rate;
    double latency;
    double next_free;
    double busy_time;
    double units_moved;
    long long transfers;
} BWObject;

typedef struct {
    PyObject_HEAD
    PyObject *engine; /* strong */
    PyObject *name;   /* strong */
    long long capacity;
    long long in_use;
    long long peak_in_use;
    long long total_gets;
    PyObject **waiters; /* ring buffer of strong ProcessObject* (or any) */
    Py_ssize_t w_head, w_len, w_cap;
} PoolObject;

static PyTypeObject Engine_Type;
static PyTypeObject Event_Type;
static PyTypeObject Process_Type;
static PyTypeObject Join_Type;
static PyTypeObject BW_Type;
static PyTypeObject Pool_Type;

static int process_step(ProcessObject *proc, PyObject *send_value);
static int event_succeed_internal(EventObject *ev, PyObject *value);

static int
sim_error(const char *fmt, ...)
{
    va_list va;
    va_start(va, fmt);
    PyObject *msg = PyUnicode_FromFormatV(fmt, va);
    va_end(va);
    if (msg != NULL) {
        PyErr_SetObject(g_simulation_error, msg);
        Py_DECREF(msg);
    }
    return -1;
}

/* ---------------------------------------------------------------- *
 * Generator send (StopIteration-free on 3.10+)                     *
 * ---------------------------------------------------------------- */

#if PY_VERSION_HEX >= 0x030A0000
#define GEN_NEXT PYGEN_NEXT
#define GEN_RETURN PYGEN_RETURN
#define GEN_ERROR PYGEN_ERROR
typedef PySendResult SendResult;

static inline SendResult
gen_send(PyObject *gen, PyObject *arg, PyObject **result)
{
    return PyIter_Send(gen, arg, result);
}
#else
typedef int SendResult;
enum { GEN_RETURN = 0, GEN_ERROR = -1, GEN_NEXT = 1 };

static SendResult
gen_send(PyObject *gen, PyObject *arg, PyObject **result)
{
    PyObject *res = PyObject_CallMethodOneArg(gen, s_send, arg);
    if (res != NULL) {
        *result = res;
        return GEN_NEXT;
    }
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        PyObject *type, *value, *tb;
        PyErr_Fetch(&type, &value, &tb);
        PyErr_NormalizeException(&type, &value, &tb);
        PyObject *retval = NULL;
        if (value != NULL) {
            retval = PyObject_GetAttrString(value, "value");
        }
        Py_XDECREF(type);
        Py_XDECREF(value);
        Py_XDECREF(tb);
        if (retval == NULL) {
            PyErr_Clear();
            retval = Py_None;
            Py_INCREF(retval);
        }
        *result = retval;
        return GEN_RETURN;
    }
    *result = NULL;
    return GEN_ERROR;
}
#endif

/* ---------------------------------------------------------------- *
 * Engine internals: heap + now-queue                               *
 * ---------------------------------------------------------------- */

static int
heap_reserve(EngineObject *self)
{
    if (self->heap_len < self->heap_cap)
        return 0;
    Py_ssize_t cap = self->heap_cap ? self->heap_cap * 2 : 64;
    Item *buf = PyMem_Realloc(self->heap, (size_t)cap * sizeof(Item));
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = buf;
    self->heap_cap = cap;
    return 0;
}

static inline int
item_lt(const Item *x, const Item *y)
{
    if (x->time < y->time)
        return 1;
    if (x->time > y->time)
        return 0;
    return x->seq < y->seq;
}

/* Push a fully-initialised item (refs already owned by the item). */
static int
heap_push(EngineObject *self, Item it)
{
    if (heap_reserve(self) < 0) {
        Py_DECREF(it.a);
        Py_XDECREF(it.b);
        return -1;
    }
    Py_ssize_t pos = self->heap_len++;
    Item *heap = self->heap;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!item_lt(&it, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = it;
    return 0;
}

static Item
heap_pop(EngineObject *self)
{
    Item *heap = self->heap;
    Item top = heap[0];
    Py_ssize_t len = --self->heap_len;
    if (len > 0) {
        Item last = heap[len];
        Py_ssize_t pos = 0;
        Py_ssize_t child;
        while ((child = 2 * pos + 1) < len) {
            if (child + 1 < len && item_lt(&heap[child + 1], &heap[child]))
                child += 1;
            if (!item_lt(&heap[child], &last))
                break;
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = last;
    }
    return top;
}

static int
q_reserve(EngineObject *self)
{
    if (self->q_len < self->q_cap)
        return 0;
    Py_ssize_t cap = self->q_cap ? self->q_cap * 2 : 64;
    Item *buf = PyMem_Malloc((size_t)cap * sizeof(Item));
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < self->q_len; i++)
        buf[i] = self->q[(self->q_head + i) % (self->q_cap ? self->q_cap : 1)];
    PyMem_Free(self->q);
    self->q = buf;
    self->q_cap = cap;
    self->q_head = 0;
    return 0;
}

static Item
q_pop(EngineObject *self)
{
    Item it = self->q[self->q_head];
    self->q_head = (self->q_head + 1) % self->q_cap;
    self->q_len--;
    return it;
}

/* Schedule helpers: a/b are borrowed; refs are taken here. */
static int
push_now(EngineObject *self, int kind, PyObject *a, PyObject *b)
{
    if (q_reserve(self) < 0)
        return -1;
    Item *it = &self->q[(self->q_head + self->q_len) % self->q_cap];
    it->time = self->now;
    it->seq = self->seq++;
    it->kind = kind;
    Py_INCREF(a);
    it->a = a;
    Py_XINCREF(b);
    it->b = b;
    self->q_len++;
    return 0;
}

static int
push_at(EngineObject *self, double time, int kind, PyObject *a, PyObject *b)
{
    Item it;
    it.time = time;
    it.seq = self->seq++;
    it.kind = kind;
    Py_INCREF(a);
    it.a = a;
    Py_XINCREF(b);
    it.b = b;
    return heap_push(self, it);
}

/* schedule(delay, ...) semantics of the reference engine. */
static int
schedule_kind(EngineObject *self, double delay, int kind, PyObject *a, PyObject *b)
{
    if (delay == 0.0)
        return push_now(self, kind, a, b);
    if (delay < 0) {
        PyObject *d = PyFloat_FromDouble(delay);
        sim_error("cannot schedule into the past (delay=%S)",
                  d ? d : Py_None);
        Py_XDECREF(d);
        return -1;
    }
    return push_at(self, self->now + delay, kind, a, b);
}

/* schedule_at(time, ...) semantics of the reference engine. */
static int
schedule_at_kind(EngineObject *self, double time, int kind, PyObject *a, PyObject *b)
{
    if (time == self->now)
        return push_now(self, kind, a, b);
    if (time < self->now) {
        PyObject *t = PyFloat_FromDouble(time);
        PyObject *n = PyFloat_FromDouble(self->now);
        sim_error("cannot schedule at %S before current time %S",
                  t ? t : Py_None, n ? n : Py_None);
        Py_XDECREF(t);
        Py_XDECREF(n);
        return -1;
    }
    return push_at(self, time, kind, a, b);
}

static void
item_clear(Item *it)
{
    Py_CLEAR(it->a);
    Py_XDECREF(it->b);
    it->b = NULL;
}

/* Execute one scheduled item; consumes the item's references. */
static int
exec_item(EngineObject *self, Item *it)
{
    int rc = 0;
    PyObject *res;
    switch (it->kind) {
    case K_PLAIN:
        res = PyObject_CallNoArgs(it->a);
        if (res == NULL)
            rc = -1;
        else
            Py_DECREF(res);
        break;
    case K_RESUME:
        rc = process_step((ProcessObject *)it->a, Py_None);
        break;
    case K_RESUME_VALUE: {
        ProcessObject *p = (ProcessObject *)it->a;
        PyObject *v = p->value ? p->value : Py_None;
        Py_INCREF(v);
        rc = process_step(p, v);
        Py_DECREF(v);
        break;
    }
    case K_EVENT_CB:
        res = PyObject_CallOneArg(it->a, it->b);
        if (res == NULL)
            rc = -1;
        else
            Py_DECREF(res);
        break;
    case K_PROC_EVENT: {
        EventObject *ev = (EventObject *)it->b;
        PyObject *v = ev->value ? ev->value : Py_None;
        Py_INCREF(v);
        rc = process_step((ProcessObject *)it->a, v);
        Py_DECREF(v);
        break;
    }
    default:
        rc = sim_error("corrupt scheduled item kind %d", it->kind);
    }
    item_clear(it);
    return rc;
}

/* ---------------------------------------------------------------- *
 * Engine type                                                      *
 * ---------------------------------------------------------------- */

static PyObject *
engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EngineObject *self = (EngineObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = 0.0;
    self->seq = 0;
    self->event_count = 0;
    self->heap = NULL;
    self->heap_len = self->heap_cap = 0;
    self->q = NULL;
    self->q_head = self->q_len = self->q_cap = 0;
    return (PyObject *)self;
}

static int
engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        Py_VISIT(self->heap[i].a);
        Py_VISIT(self->heap[i].b);
    }
    for (Py_ssize_t i = 0; i < self->q_len; i++) {
        Item *it = &self->q[(self->q_head + i) % self->q_cap];
        Py_VISIT(it->a);
        Py_VISIT(it->b);
    }
    return 0;
}

static int
engine_clear(EngineObject *self)
{
    Py_ssize_t n = self->heap_len;
    self->heap_len = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        item_clear(&self->heap[i]);
    n = self->q_len;
    while (n-- > 0) {
        Item *it = &self->q[self->q_head];
        self->q_head = (self->q_head + 1) % self->q_cap;
        self->q_len--;
        item_clear(it);
    }
    return 0;
}

static void
engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    engine_clear(self);
    PyMem_Free(self->heap);
    PyMem_Free(self->q);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
engine_schedule(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "schedule(delay, callback)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (schedule_kind(self, delay, K_PLAIN, args[1], NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
engine_schedule_at(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "schedule_at(time, callback)");
        return NULL;
    }
    double time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (schedule_at_kind(self, time, K_PLAIN, args[1], NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *process_new_internal(EngineObject *engine, PyObject *generator);

static PyObject *
engine_process(EngineObject *self, PyObject *generator)
{
    PyObject *proc = process_new_internal(self, generator);
    if (proc == NULL)
        return NULL;
    if (push_now(self, K_RESUME, proc, NULL) < 0) {
        Py_DECREF(proc);
        return NULL;
    }
    return proc;
}

static PyObject *
engine_run(EngineObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist, &until_obj,
                                     &max_obj))
        return NULL;
    int has_until = until_obj != Py_None;
    int has_max = max_obj != Py_None;
    double until = 0.0;
    long long max_events = 0;
    if (has_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (has_max) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }

    if (!has_until && !has_max) {
        /* Hot path: mirrors the reference engine's unbounded loop. */
        for (;;) {
            if (self->q_len) {
                if (self->heap_len) {
                    Item *top = &self->heap[0];
                    if (top->time == self->now &&
                        top->seq < self->q[self->q_head].seq) {
                        self->event_count++;
                        Item it = heap_pop(self);
                        if (exec_item(self, &it) < 0)
                            return NULL;
                        continue;
                    }
                }
                self->event_count++;
                Item it = q_pop(self);
                if (exec_item(self, &it) < 0)
                    return NULL;
            }
            else if (self->heap_len) {
                Item it = heap_pop(self);
                self->now = it.time;
                self->event_count++;
                if (exec_item(self, &it) < 0)
                    return NULL;
            }
            else {
                return PyFloat_FromDouble(self->now);
            }
        }
    }

    while (self->heap_len || self->q_len) {
        int use_heap = 1;
        if (self->q_len) {
            use_heap = self->heap_len && self->heap[0].time == self->now &&
                       self->heap[0].seq < self->q[self->q_head].seq;
        }
        else if (has_until && self->heap[0].time > until) {
            self->now = until;
            return PyFloat_FromDouble(self->now);
        }
        Item it;
        if (use_heap) {
            it = heap_pop(self);
            self->now = it.time;
        }
        else {
            it = q_pop(self);
        }
        self->event_count++;
        if (has_max && self->event_count > max_events) {
            item_clear(&it);
            sim_error("exceeded max_events=%lld", max_events);
            return NULL;
        }
        if (exec_item(self, &it) < 0)
            return NULL;
    }
    return PyFloat_FromDouble(self->now);
}

static PyObject *
engine_get_events_processed(EngineObject *self, void *closure)
{
    return PyLong_FromLongLong(self->event_count);
}

static PyObject *engine_event(EngineObject *self, PyObject *noarg);
static PyObject *engine_bandwidth_resource(EngineObject *self, PyObject *args,
                                           PyObject *kwds);
static PyObject *engine_slot_pool(EngineObject *self, PyObject *args,
                                  PyObject *kwds);

static PyMethodDef engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))engine_schedule, METH_FASTCALL,
     "Run callback `delay` cycles from now."},
    {"schedule_at", (PyCFunction)(void (*)(void))engine_schedule_at,
     METH_FASTCALL, "Run callback at an absolute time."},
    {"process", (PyCFunction)engine_process, METH_O,
     "Register a coroutine process and start it at the current time."},
    {"run", (PyCFunction)(void (*)(void))engine_run,
     METH_VARARGS | METH_KEYWORDS,
     "Drain the event heap; returns the final simulation time."},
    {"event", (PyCFunction)engine_event, METH_NOARGS,
     "Create an Event bound to this engine (backend factory)."},
    {"bandwidth_resource", (PyCFunction)(void (*)(void))engine_bandwidth_resource,
     METH_VARARGS | METH_KEYWORDS,
     "Create a BandwidthResource bound to this engine (backend factory)."},
    {"slot_pool", (PyCFunction)(void (*)(void))engine_slot_pool,
     METH_VARARGS | METH_KEYWORDS,
     "Create a SlotPool bound to this engine (backend factory)."},
    {NULL},
};

static PyMemberDef engine_members[] = {
    {"now", T_DOUBLE, offsetof(EngineObject, now), READONLY,
     "Current simulation time (cycles)."},
    {NULL},
};

static PyGetSetDef engine_getset[] = {
    {"events_processed", (getter)engine_get_events_processed, NULL,
     "Total events executed by run().", NULL},
    {NULL},
};

static PyTypeObject Engine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._core.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled event heap + clock (bit-identical to the pure-Python "
              "reference in repro.utils.simcore).",
    .tp_new = engine_new,
    .tp_dealloc = (destructor)engine_dealloc,
    .tp_traverse = (traverseproc)engine_traverse,
    .tp_clear = (inquiry)engine_clear,
    .tp_methods = engine_methods,
    .tp_members = engine_members,
    .tp_getset = engine_getset,
};

/* ---------------------------------------------------------------- *
 * Event                                                            *
 * ---------------------------------------------------------------- */

static PyObject *
event_new_internal(EngineObject *engine)
{
    EventObject *self = PyObject_GC_New(EventObject, &Event_Type);
    if (self == NULL)
        return NULL;
    Py_INCREF(engine);
    self->engine = (PyObject *)engine;
    self->value = NULL;
    self->callbacks = NULL;
    self->triggered = 0;
    PyObject_GC_Track(self);
    return (PyObject *)self;
}

static PyObject *
event_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *engine;
    static char *kwlist[] = {"engine", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!", kwlist, &Engine_Type,
                                     &engine))
        return NULL;
    return event_new_internal((EngineObject *)engine);
}

static int
event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->value);
    Py_VISIT(self->callbacks);
    return 0;
}

static int
event_clear_gc(EventObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->value);
    Py_CLEAR(self->callbacks);
    return 0;
}

static void
event_dealloc(EventObject *self)
{
    PyObject_GC_UnTrack(self);
    event_clear_gc(self);
    PyObject_GC_Del(self);
}

static int
event_succeed_internal(EventObject *self, PyObject *value)
{
    if (self->triggered)
        return sim_error("event succeeded twice");
    self->triggered = 1;
    Py_INCREF(value);
    Py_XSETREF(self->value, value);
    if (self->callbacks == NULL)
        return 0;
    PyObject *callbacks = self->callbacks;
    self->callbacks = NULL;
    EngineObject *engine = (EngineObject *)self->engine;
    Py_ssize_t n = PyList_GET_SIZE(callbacks);
    int rc = 0;
    for (Py_ssize_t i = 0; i < n && rc == 0; i++) {
        PyObject *cb = PyList_GET_ITEM(callbacks, i); /* borrowed */
        if (Py_TYPE(cb) == &Join_Type) {
            /* Synchronous join decrement: identical to the reference
             * engine's callback-per-child elision. */
            JoinObject *join = (JoinObject *)cb;
            join->pending -= 1;
            if (join->pending == 0)
                rc = push_now(engine, K_RESUME, join->waiter, NULL);
        }
        else if (Py_TYPE(cb) == &Process_Type) {
            rc = push_now(engine, K_PROC_EVENT, cb, (PyObject *)self);
        }
        else {
            rc = push_now(engine, K_EVENT_CB, cb, (PyObject *)self);
        }
    }
    Py_DECREF(callbacks);
    return rc;
}

static PyObject *
event_succeed(EventObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "succeed() takes at most one argument");
        return NULL;
    }
    PyObject *value = nargs == 1 ? args[0] : Py_None;
    if (event_succeed_internal(self, value) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
event_append_callback(EventObject *self, PyObject *cb)
{
    if (self->callbacks == NULL) {
        self->callbacks = PyList_New(0);
        if (self->callbacks == NULL)
            return -1;
    }
    return PyList_Append(self->callbacks, cb);
}

static PyObject *
event_add_callback(EventObject *self, PyObject *cb)
{
    if (self->triggered) {
        if (push_now((EngineObject *)self->engine, K_EVENT_CB, cb,
                     (PyObject *)self) < 0)
            return NULL;
    }
    else if (event_append_callback(self, cb) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static int
event_add_join(EventObject *self, JoinObject *join)
{
    if (self->triggered) {
        join->pending -= 1;
        if (join->pending == 0)
            return push_now((EngineObject *)self->engine, K_RESUME,
                            join->waiter, NULL);
        return 0;
    }
    return event_append_callback(self, (PyObject *)join);
}

static PyObject *
event_get_value(EventObject *self, void *closure)
{
    PyObject *v = self->value ? self->value : Py_None;
    Py_INCREF(v);
    return v;
}

static PyObject *
event_get_triggered(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->triggered);
}

static PyMethodDef event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))event_succeed, METH_FASTCALL,
     "Trigger the event, optionally with a value."},
    {"add_callback", (PyCFunction)event_add_callback, METH_O,
     "Run callback(event) when the event succeeds."},
    {NULL},
};

static PyMemberDef event_members[] = {
    {"_engine", T_OBJECT_EX, offsetof(EventObject, engine), READONLY, NULL},
    {NULL},
};

static PyGetSetDef event_getset[] = {
    {"value", (getter)event_get_value, NULL, "Value passed to succeed().", NULL},
    {"triggered", (getter)event_get_triggered, NULL, "Has succeed() run?", NULL},
    {NULL},
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._core.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled one-shot event.",
    .tp_new = event_new,
    .tp_dealloc = (destructor)event_dealloc,
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear_gc,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
};

/* ---------------------------------------------------------------- *
 * Join                                                             *
 * ---------------------------------------------------------------- */

static int
join_traverse(JoinObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->waiter);
    return 0;
}

static int
join_clear(JoinObject *self)
{
    Py_CLEAR(self->waiter);
    return 0;
}

static void
join_dealloc(JoinObject *self)
{
    PyObject_GC_UnTrack(self);
    join_clear(self);
    PyObject_GC_Del(self);
}

static PyTypeObject Join_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._core._Join",
    .tp_basicsize = sizeof(JoinObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Countdown shared by the children of one AllOf request.",
    .tp_dealloc = (destructor)join_dealloc,
    .tp_traverse = (traverseproc)join_traverse,
    .tp_clear = (inquiry)join_clear,
};

/* ---------------------------------------------------------------- *
 * BandwidthResource                                                *
 * ---------------------------------------------------------------- */

static PyObject *
bw_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *engine, *name;
    double rate, latency = 0.0;
    static char *kwlist[] = {"engine", "name", "rate", "latency", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!Od|d", kwlist,
                                     &Engine_Type, &engine, &name, &rate,
                                     &latency))
        return NULL;
    if (rate <= 0) {
        PyObject *r = PyFloat_FromDouble(rate);
        sim_error("resource %R needs positive rate, got %S", name,
                  r ? r : Py_None);
        Py_XDECREF(r);
        return NULL;
    }
    BWObject *self = (BWObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    Py_INCREF(engine);
    self->engine = engine;
    Py_INCREF(name);
    self->name = name;
    self->rate = rate;
    self->latency = latency;
    self->next_free = 0.0;
    self->busy_time = 0.0;
    self->units_moved = 0.0;
    self->transfers = 0;
    return (PyObject *)self;
}

static int
bw_traverse(BWObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->name);
    return 0;
}

static int
bw_clear(BWObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->name);
    return 0;
}

static void
bw_dealloc(BWObject *self)
{
    PyObject_GC_UnTrack(self);
    bw_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* The reserve arithmetic, in the reference engine's exact float-op
 * order. Returns 0 and the completion time, or -1 on negative amount. */
static int
bw_reserve_c(BWObject *self, double amount, double *completion)
{
    if (amount < 0) {
        PyObject *a = PyFloat_FromDouble(amount);
        sim_error("negative transfer of %S on %R", a ? a : Py_None,
                  self->name);
        Py_XDECREF(a);
        return -1;
    }
    double now = ((EngineObject *)self->engine)->now;
    double next_free = self->next_free;
    double start = now > next_free ? now : next_free;
    double duration = amount / self->rate;
    self->next_free = start + duration;
    self->busy_time += duration;
    self->units_moved += amount;
    self->transfers += 1;
    *completion = start + duration + self->latency;
    return 0;
}

static PyObject *
bw_reserve(BWObject *self, PyObject *amount_obj)
{
    double amount = PyFloat_AsDouble(amount_obj);
    if (amount == -1.0 && PyErr_Occurred())
        return NULL;
    double completion;
    if (bw_reserve_c(self, amount, &completion) < 0)
        return NULL;
    return PyFloat_FromDouble(completion);
}

static PyObject *
bw_queue_delay(BWObject *self, PyObject *noarg)
{
    double d = self->next_free - ((EngineObject *)self->engine)->now;
    return PyFloat_FromDouble(d > 0.0 ? d : 0.0);
}

static PyObject *
bw_utilization_snapshot(BWObject *self, PyObject *noarg)
{
    return Py_BuildValue("(dd)", ((EngineObject *)self->engine)->now,
                         self->busy_time);
}

static PyMethodDef bw_methods[] = {
    {"reserve", (PyCFunction)bw_reserve, METH_O,
     "Book `amount` units; returns the completion time."},
    {"queue_delay", (PyCFunction)bw_queue_delay, METH_NOARGS,
     "How far the server is booked past the current time."},
    {"utilization_snapshot", (PyCFunction)bw_utilization_snapshot, METH_NOARGS,
     "(current time, cumulative busy time)."},
    {NULL},
};

static PyMemberDef bw_members[] = {
    {"_engine", T_OBJECT_EX, offsetof(BWObject, engine), READONLY, NULL},
    {"name", T_OBJECT_EX, offsetof(BWObject, name), READONLY, NULL},
    {"rate", T_DOUBLE, offsetof(BWObject, rate), 0, NULL},
    {"latency", T_DOUBLE, offsetof(BWObject, latency), 0, NULL},
    /* The batched DRAM paths write these directly (memory/dram.py). */
    {"_next_free", T_DOUBLE, offsetof(BWObject, next_free), 0, NULL},
    {"busy_time", T_DOUBLE, offsetof(BWObject, busy_time), 0, NULL},
    {"units_moved", T_DOUBLE, offsetof(BWObject, units_moved), 0, NULL},
    {"transfers", T_LONGLONG, offsetof(BWObject, transfers), 0, NULL},
    {NULL},
};

static PyTypeObject BW_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._core.BandwidthResource",
    .tp_basicsize = sizeof(BWObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled serial bandwidth server (FIFO, pipelined latency).",
    .tp_new = bw_new,
    .tp_dealloc = (destructor)bw_dealloc,
    .tp_traverse = (traverseproc)bw_traverse,
    .tp_clear = (inquiry)bw_clear,
    .tp_methods = bw_methods,
    .tp_members = bw_members,
};

/* ---------------------------------------------------------------- *
 * SlotPool                                                         *
 * ---------------------------------------------------------------- */

static PyObject *
pool_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *engine, *name;
    long long capacity;
    static char *kwlist[] = {"engine", "name", "capacity", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!OL", kwlist, &Engine_Type,
                                     &engine, &name, &capacity))
        return NULL;
    if (capacity < 1) {
        sim_error("pool %R needs capacity >= 1, got %lld", name, capacity);
        return NULL;
    }
    PoolObject *self = (PoolObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    Py_INCREF(engine);
    self->engine = engine;
    Py_INCREF(name);
    self->name = name;
    self->capacity = capacity;
    self->in_use = 0;
    self->peak_in_use = 0;
    self->total_gets = 0;
    self->waiters = NULL;
    self->w_head = self->w_len = self->w_cap = 0;
    return (PyObject *)self;
}

static int
pool_traverse(PoolObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->name);
    for (Py_ssize_t i = 0; i < self->w_len; i++)
        Py_VISIT(self->waiters[(self->w_head + i) % self->w_cap]);
    return 0;
}

static int
pool_clear(PoolObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->name);
    while (self->w_len > 0) {
        PyObject *p = self->waiters[self->w_head];
        self->w_head = (self->w_head + 1) % self->w_cap;
        self->w_len--;
        Py_DECREF(p);
    }
    return 0;
}

static void
pool_dealloc(PoolObject *self)
{
    PyObject_GC_UnTrack(self);
    pool_clear(self);
    PyMem_Free(self->waiters);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Resume a process that just received a slot (reference: _grant). */
static int
pool_schedule_resume(PoolObject *self, PyObject *process)
{
    EngineObject *engine = (EngineObject *)self->engine;
    if (Py_TYPE(process) == &Process_Type)
        return push_now(engine, K_RESUME, process, NULL);
    /* Foreign process object: schedule its bound `_resume`. */
    PyObject *resume = PyObject_GetAttrString(process, "_resume");
    if (resume == NULL)
        return -1;
    int rc = push_now(engine, K_PLAIN, resume, NULL);
    Py_DECREF(resume);
    return rc;
}

static int
pool_grant(PoolObject *self, PyObject *process)
{
    long long in_use = self->in_use + 1;
    self->in_use = in_use;
    self->total_gets += 1;
    if (in_use > self->peak_in_use)
        self->peak_in_use = in_use;
    return pool_schedule_resume(self, process);
}

static int
pool_get_c(PoolObject *self, PyObject *process)
{
    if (self->in_use < self->capacity)
        return pool_grant(self, process);
    if (self->w_len >= self->w_cap) {
        Py_ssize_t cap = self->w_cap ? self->w_cap * 2 : 16;
        PyObject **buf = PyMem_Malloc((size_t)cap * sizeof(PyObject *));
        if (buf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < self->w_len; i++)
            buf[i] = self->waiters[(self->w_head + i) %
                                   (self->w_cap ? self->w_cap : 1)];
        PyMem_Free(self->waiters);
        self->waiters = buf;
        self->w_cap = cap;
        self->w_head = 0;
    }
    Py_INCREF(process);
    self->waiters[(self->w_head + self->w_len) % self->w_cap] = process;
    self->w_len++;
    return 0;
}

static int
pool_put_c(PoolObject *self)
{
    if (self->in_use <= 0)
        return sim_error("pool %R released below zero", self->name);
    self->in_use -= 1;
    if (self->w_len > 0) {
        PyObject *process = self->waiters[self->w_head];
        self->w_head = (self->w_head + 1) % self->w_cap;
        self->w_len--;
        int rc = pool_grant(self, process);
        Py_DECREF(process);
        return rc;
    }
    return 0;
}

static PyObject *
pool_get_method(PoolObject *self, PyObject *process)
{
    if (pool_get_c(self, process) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
pool_put_method(PoolObject *self, PyObject *noarg)
{
    if (pool_put_c(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
pool_try_get_nowait(PoolObject *self, PyObject *noarg)
{
    if (self->in_use < self->capacity) {
        long long in_use = self->in_use + 1;
        self->in_use = in_use;
        self->total_gets += 1;
        if (in_use > self->peak_in_use)
            self->peak_in_use = in_use;
        Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

static PyObject *
pool_get_available(PoolObject *self, void *closure)
{
    return PyLong_FromLongLong(self->capacity - self->in_use);
}

static PyMethodDef pool_methods[] = {
    {"_get", (PyCFunction)pool_get_method, METH_O,
     "Take a slot for `process`, or queue it FIFO."},
    {"put", (PyCFunction)pool_put_method, METH_NOARGS,
     "Return one slot; wakes the next FIFO waiter."},
    {"try_get_nowait", (PyCFunction)pool_try_get_nowait, METH_NOARGS,
     "Non-blocking take; returns False instead of queueing."},
    {NULL},
};

static PyMemberDef pool_members[] = {
    {"_engine", T_OBJECT_EX, offsetof(PoolObject, engine), READONLY, NULL},
    {"name", T_OBJECT_EX, offsetof(PoolObject, name), READONLY, NULL},
    {"capacity", T_LONGLONG, offsetof(PoolObject, capacity), 0, NULL},
    {"in_use", T_LONGLONG, offsetof(PoolObject, in_use), 0, NULL},
    {"peak_in_use", T_LONGLONG, offsetof(PoolObject, peak_in_use), 0, NULL},
    {"total_gets", T_LONGLONG, offsetof(PoolObject, total_gets), 0, NULL},
    {NULL},
};

static PyGetSetDef pool_getset[] = {
    {"available", (getter)pool_get_available, NULL, "capacity - in_use", NULL},
    {NULL},
};

static PyTypeObject Pool_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._core.SlotPool",
    .tp_basicsize = sizeof(PoolObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled counted resource with FIFO blocking Get.",
    .tp_new = pool_new,
    .tp_dealloc = (destructor)pool_dealloc,
    .tp_traverse = (traverseproc)pool_traverse,
    .tp_clear = (inquiry)pool_clear,
    .tp_methods = pool_methods,
    .tp_members = pool_members,
    .tp_getset = pool_getset,
};

/* ---------------------------------------------------------------- *
 * Process                                                          *
 * ---------------------------------------------------------------- */

static PyObject *
process_new_internal(EngineObject *engine, PyObject *generator)
{
    ProcessObject *self = PyObject_GC_New(ProcessObject, &Process_Type);
    if (self == NULL)
        return NULL;
    Py_INCREF(engine);
    self->engine = (PyObject *)engine;
    Py_INCREF(generator);
    self->generator = generator;
    self->result = NULL;
    self->value = NULL;
    self->finished = 0;
    self->done_event = NULL;
    PyObject_GC_Track(self);
    PyObject *done = event_new_internal(engine);
    if (done == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->done_event = done;
    return (PyObject *)self;
}

static PyObject *
process_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *engine, *generator;
    static char *kwlist[] = {"engine", "generator", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O", kwlist, &Engine_Type,
                                     &engine, &generator))
        return NULL;
    return process_new_internal((EngineObject *)engine, generator);
}

static int
process_traverse(ProcessObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->generator);
    Py_VISIT(self->done_event);
    Py_VISIT(self->result);
    Py_VISIT(self->value);
    return 0;
}

static int
process_clear(ProcessObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->generator);
    Py_CLEAR(self->done_event);
    Py_CLEAR(self->result);
    Py_CLEAR(self->value);
    return 0;
}

static void
process_dealloc(ProcessObject *self)
{
    PyObject_GC_UnTrack(self);
    process_clear(self);
    PyObject_GC_Del(self);
}

/* Request-class -> REQ_* kind, with subclass resolution via the MRO
 * (cached), mirroring the reference engine's dispatch table. */
static int
request_kind(PyTypeObject *t)
{
    PyObject *ty = (PyObject *)t;
    if (ty == g_req_timeout)
        return REQ_TIMEOUT;
    if (ty == g_req_acquire)
        return REQ_ACQUIRE;
    if (ty == g_req_get)
        return REQ_GET;
    if (ty == g_req_put)
        return REQ_PUT;
    if (ty == g_req_wait)
        return REQ_WAIT;
    if (ty == g_req_allof)
        return REQ_ALLOF;
    PyObject *cached = PyDict_GetItem(g_dispatch_cache, ty); /* borrowed */
    if (cached != NULL)
        return (int)PyLong_AsLong(cached);
    PyObject *mro = t->tp_mro;
    if (mro != NULL) {
        for (Py_ssize_t i = 1; i < PyTuple_GET_SIZE(mro); i++) {
            PyObject *base = PyTuple_GET_ITEM(mro, i);
            int kind = REQ_UNKNOWN;
            if (base == g_req_timeout)
                kind = REQ_TIMEOUT;
            else if (base == g_req_acquire)
                kind = REQ_ACQUIRE;
            else if (base == g_req_get)
                kind = REQ_GET;
            else if (base == g_req_put)
                kind = REQ_PUT;
            else if (base == g_req_wait)
                kind = REQ_WAIT;
            else if (base == g_req_allof)
                kind = REQ_ALLOF;
            if (kind != REQ_UNKNOWN) {
                PyObject *k = PyLong_FromLong(kind);
                if (k != NULL) {
                    PyDict_SetItem(g_dispatch_cache, ty, k);
                    Py_DECREF(k);
                }
                return kind;
            }
        }
    }
    return REQ_UNKNOWN;
}

static double
attr_as_double(PyObject *obj, PyObject *attr, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, attr);
    if (v == NULL) {
        *err = 1;
        return 0.0;
    }
    double d = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (d == -1.0 && PyErr_Occurred()) {
        *err = 1;
        return 0.0;
    }
    *err = 0;
    return d;
}

static int
handle_allof(ProcessObject *proc, PyObject *request)
{
    EngineObject *engine = (EngineObject *)proc->engine;
    PyObject *items = PyObject_GetAttr(request, s_items);
    if (items == NULL)
        return -1;
    PyObject *seq = PySequence_Fast(items, "AllOf items must be a sequence");
    Py_DECREF(items);
    if (seq == NULL)
        return -1;
    Py_ssize_t pending = PySequence_Fast_GET_SIZE(seq);
    if (pending == 0) {
        Py_DECREF(seq);
        return push_now(engine, K_RESUME, (PyObject *)proc, NULL);
    }
    JoinObject *join = PyObject_GC_New(JoinObject, &Join_Type);
    if (join == NULL) {
        Py_DECREF(seq);
        return -1;
    }
    Py_INCREF(proc);
    join->waiter = (PyObject *)proc;
    join->pending = pending;
    PyObject_GC_Track(join);
    PyObject **arr = PySequence_Fast_ITEMS(seq);
    int rc = 0;
    for (Py_ssize_t i = 0; i < pending && rc == 0; i++) {
        PyObject *item = arr[i];
        EventObject *ev = NULL;
        if (Py_TYPE(item) == &Process_Type)
            ev = (EventObject *)((ProcessObject *)item)->done_event;
        else if (Py_TYPE(item) == &Event_Type)
            ev = (EventObject *)item;
        if (ev != NULL) {
            rc = event_add_join(ev, join);
        }
        else {
            rc = sim_error(
                "AllOf item %R is not from the compiled engine backend", item);
        }
    }
    Py_DECREF(seq);
    Py_DECREF(join);
    return rc;
}

static int
process_step(ProcessObject *proc, PyObject *send_value)
{
    PyObject *request;
    SendResult sr = gen_send(proc->generator, send_value, &request);
    if (sr == GEN_ERROR)
        return -1;
    if (sr == GEN_RETURN) {
        proc->finished = 1;
        Py_XSETREF(proc->result, request); /* owns the new ref */
        return event_succeed_internal((EventObject *)proc->done_event,
                                      proc->result);
    }

    EngineObject *engine = (EngineObject *)proc->engine;
    int err = 0, rc = 0;
    switch (request_kind(Py_TYPE(request))) {
    case REQ_TIMEOUT: {
        double delay = attr_as_double(request, s_delay, &err);
        if (err) {
            rc = -1;
            break;
        }
        rc = schedule_kind(engine, delay, K_RESUME, (PyObject *)proc, NULL);
        break;
    }
    case REQ_ACQUIRE: {
        PyObject *resource = PyObject_GetAttr(request, s_resource);
        if (resource == NULL) {
            rc = -1;
            break;
        }
        double completion;
        if (Py_TYPE(resource) == &BW_Type) {
            double amount = attr_as_double(request, s_amount, &err);
            if (err || bw_reserve_c((BWObject *)resource, amount,
                                    &completion) < 0) {
                Py_DECREF(resource);
                rc = -1;
                break;
            }
        }
        else {
            /* Foreign resource (e.g. the pure-Python reference class):
             * go through its reserve() method. */
            PyObject *amount = PyObject_GetAttr(request, s_amount);
            if (amount == NULL) {
                Py_DECREF(resource);
                rc = -1;
                break;
            }
            PyObject *c = PyObject_CallMethodOneArg(resource, s_reserve, amount);
            Py_DECREF(amount);
            if (c == NULL) {
                Py_DECREF(resource);
                rc = -1;
                break;
            }
            completion = PyFloat_AsDouble(c);
            Py_DECREF(c);
            if (completion == -1.0 && PyErr_Occurred()) {
                Py_DECREF(resource);
                rc = -1;
                break;
            }
        }
        Py_DECREF(resource);
        PyObject *cv = PyFloat_FromDouble(completion);
        if (cv == NULL) {
            rc = -1;
            break;
        }
        Py_XSETREF(proc->value, cv);
        rc = schedule_at_kind(engine, completion, K_RESUME_VALUE,
                              (PyObject *)proc, NULL);
        break;
    }
    case REQ_GET: {
        PyObject *pool = PyObject_GetAttr(request, s_pool);
        if (pool == NULL) {
            rc = -1;
            break;
        }
        if (Py_TYPE(pool) == &Pool_Type) {
            rc = pool_get_c((PoolObject *)pool, (PyObject *)proc);
        }
        else {
            PyObject *r =
                PyObject_CallMethodOneArg(pool, s__get, (PyObject *)proc);
            if (r == NULL)
                rc = -1;
            else
                Py_DECREF(r);
        }
        Py_DECREF(pool);
        break;
    }
    case REQ_PUT: {
        PyObject *pool = PyObject_GetAttr(request, s_pool);
        if (pool == NULL) {
            rc = -1;
            break;
        }
        if (Py_TYPE(pool) == &Pool_Type) {
            rc = pool_put_c((PoolObject *)pool);
        }
        else {
            PyObject *r = PyObject_CallMethodNoArgs(pool, s_put);
            if (r == NULL)
                rc = -1;
            else
                Py_DECREF(r);
        }
        Py_DECREF(pool);
        if (rc == 0)
            rc = push_now(engine, K_RESUME, (PyObject *)proc, NULL);
        break;
    }
    case REQ_WAIT: {
        PyObject *ev = PyObject_GetAttr(request, s_event);
        if (ev == NULL) {
            rc = -1;
            break;
        }
        if (Py_TYPE(ev) == &Event_Type) {
            EventObject *event = (EventObject *)ev;
            if (event->triggered)
                rc = push_now(engine, K_PROC_EVENT, (PyObject *)proc, ev);
            else
                rc = event_append_callback(event, (PyObject *)proc);
        }
        else {
            /* Foreign event: register our _on_event bound method. */
            PyObject *on_event = PyObject_GetAttr((PyObject *)proc, s__on_event);
            if (on_event == NULL) {
                rc = -1;
            }
            else {
                PyObject *r =
                    PyObject_CallMethodOneArg(ev, s_add_callback, on_event);
                Py_DECREF(on_event);
                if (r == NULL)
                    rc = -1;
                else
                    Py_DECREF(r);
            }
        }
        Py_DECREF(ev);
        break;
    }
    case REQ_ALLOF:
        rc = handle_allof(proc, request);
        break;
    default:
        rc = sim_error("process yielded unknown request %R", request);
    }
    Py_DECREF(request);
    return rc;
}

static PyObject *
process_resume(ProcessObject *self, PyObject *noarg)
{
    if (process_step(self, Py_None) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
process_step_method(ProcessObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "_step() takes at most one argument");
        return NULL;
    }
    if (process_step(self, nargs == 1 ? args[0] : Py_None) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
process_on_event(ProcessObject *self, PyObject *event)
{
    PyObject *value = PyObject_GetAttrString(event, "value");
    if (value == NULL)
        return NULL;
    int rc = process_step(self, value);
    Py_DECREF(value);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
process_get_result(ProcessObject *self, void *closure)
{
    PyObject *v = self->result ? self->result : Py_None;
    Py_INCREF(v);
    return v;
}

static PyObject *
process_get_finished(ProcessObject *self, void *closure)
{
    return PyBool_FromLong(self->finished);
}

static PyMethodDef process_methods[] = {
    {"_resume", (PyCFunction)process_resume, METH_NOARGS,
     "Resume the generator with None (engine callback seam)."},
    {"_step", (PyCFunction)(void (*)(void))process_step_method, METH_FASTCALL,
     "Resume the generator with a value (test seam)."},
    {"_on_event", (PyCFunction)process_on_event, METH_O,
     "Resume the generator with event.value (Wait interop seam)."},
    {NULL},
};

static PyMemberDef process_members[] = {
    {"_engine", T_OBJECT_EX, offsetof(ProcessObject, engine), READONLY, NULL},
    {"done_event", T_OBJECT_EX, offsetof(ProcessObject, done_event), READONLY,
     NULL},
    {NULL},
};

static PyGetSetDef process_getset[] = {
    {"result", (getter)process_get_result, NULL,
     "The generator's return value.", NULL},
    {"finished", (getter)process_get_finished, NULL,
     "Has the generator returned?", NULL},
    {NULL},
};

static PyTypeObject Process_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._core.Process",
    .tp_basicsize = sizeof(ProcessObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled coroutine-process wrapper.",
    .tp_new = process_new,
    .tp_dealloc = (destructor)process_dealloc,
    .tp_traverse = (traverseproc)process_traverse,
    .tp_clear = (inquiry)process_clear,
    .tp_methods = process_methods,
    .tp_members = process_members,
    .tp_getset = process_getset,
};

/* ---------------------------------------------------------------- *
 * Engine factory methods (defined after the component types)       *
 * ---------------------------------------------------------------- */

static PyObject *
engine_event(EngineObject *self, PyObject *noarg)
{
    return event_new_internal(self);
}

static PyObject *
engine_bandwidth_resource(EngineObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *name;
    double rate, latency = 0.0;
    static char *kwlist[] = {"name", "rate", "latency", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Od|d", kwlist, &name, &rate,
                                     &latency))
        return NULL;
    PyObject *call_args =
        Py_BuildValue("(OOdd)", (PyObject *)self, name, rate, latency);
    if (call_args == NULL)
        return NULL;
    PyObject *bw = PyObject_Call((PyObject *)&BW_Type, call_args, NULL);
    Py_DECREF(call_args);
    return bw;
}

static PyObject *
engine_slot_pool(EngineObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *name;
    long long capacity;
    static char *kwlist[] = {"name", "capacity", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OL", kwlist, &name,
                                     &capacity))
        return NULL;
    PyObject *call_args =
        Py_BuildValue("(OOL)", (PyObject *)self, name, capacity);
    if (call_args == NULL)
        return NULL;
    PyObject *pool = PyObject_Call((PyObject *)&Pool_Type, call_args, NULL);
    Py_DECREF(call_args);
    return pool;
}

/* ---------------------------------------------------------------- *
 * Module                                                           *
 * ---------------------------------------------------------------- */

static PyObject *
core_register(PyObject *module, PyObject *args)
{
    PyObject *error, *timeout, *acquire, *get, *put, *wait, *allof;
    if (!PyArg_ParseTuple(args, "OOOOOOO", &error, &timeout, &acquire, &get,
                          &put, &wait, &allof))
        return NULL;
    Py_INCREF(error);
    Py_XSETREF(g_simulation_error, error);
    Py_INCREF(timeout);
    Py_XSETREF(g_req_timeout, timeout);
    Py_INCREF(acquire);
    Py_XSETREF(g_req_acquire, acquire);
    Py_INCREF(get);
    Py_XSETREF(g_req_get, get);
    Py_INCREF(put);
    Py_XSETREF(g_req_put, put);
    Py_INCREF(wait);
    Py_XSETREF(g_req_wait, wait);
    Py_INCREF(allof);
    Py_XSETREF(g_req_allof, allof);
    PyDict_Clear(g_dispatch_cache);
    Py_RETURN_NONE;
}

static PyMethodDef core_methods[] = {
    {"_register", core_register, METH_VARARGS,
     "Register (SimulationError, Timeout, Acquire, Get, Put, Wait, AllOf) "
     "from repro.utils.simcore; called once by repro.accel."},
    {NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.accel._core",
    .m_doc = "Compiled simcore engine backend (see repro.accel).",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    if (PyType_Ready(&Engine_Type) < 0 || PyType_Ready(&Event_Type) < 0 ||
        PyType_Ready(&Process_Type) < 0 || PyType_Ready(&Join_Type) < 0 ||
        PyType_Ready(&BW_Type) < 0 || PyType_Ready(&Pool_Type) < 0)
        return NULL;

    /* `backend` class attribute mirrors the pure-Python Engine. */
    PyObject *backend = PyUnicode_FromString("compiled");
    if (backend == NULL)
        return NULL;
    int rc = PyDict_SetItemString(Engine_Type.tp_dict, "backend", backend);
    Py_DECREF(backend);
    if (rc < 0)
        return NULL;

    g_dispatch_cache = PyDict_New();
    if (g_dispatch_cache == NULL)
        return NULL;

#define INTERN(var, text)                                                     \
    do {                                                                      \
        var = PyUnicode_InternFromString(text);                               \
        if (var == NULL)                                                      \
            return NULL;                                                      \
    } while (0)
    INTERN(s_delay, "delay");
    INTERN(s_resource, "resource");
    INTERN(s_amount, "amount");
    INTERN(s_pool, "pool");
    INTERN(s_event, "event");
    INTERN(s_items, "items");
    INTERN(s_done_event, "done_event");
    INTERN(s_reserve, "reserve");
    INTERN(s__get, "_get");
    INTERN(s_put, "put");
    INTERN(s_add_callback, "add_callback");
    INTERN(s__on_event, "_on_event");
    INTERN(s_send, "send");
#undef INTERN

    PyObject *module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Engine", (PyObject *)&Engine_Type) < 0 ||
        PyModule_AddObjectRef(module, "Event", (PyObject *)&Event_Type) < 0 ||
        PyModule_AddObjectRef(module, "Process", (PyObject *)&Process_Type) < 0 ||
        PyModule_AddObjectRef(module, "BandwidthResource",
                              (PyObject *)&BW_Type) < 0 ||
        PyModule_AddObjectRef(module, "SlotPool", (PyObject *)&Pool_Type) < 0) {
        Py_DECREF(module);
        return NULL;
    }

    PyObject *build_info = Py_BuildValue(
        "{s:s, s:s, s:i}",
        "compiler",
#ifdef __VERSION__
        "gcc " __VERSION__,
#else
        "unknown",
#endif
        "python_abi", PY_VERSION, "engine_abi", 1);
    if (build_info == NULL || PyModule_AddObject(module, "BUILD_INFO",
                                                 build_info) < 0) {
        Py_XDECREF(build_info);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
