/* Native sealed loop: SealedSimulator's opcode interpreter in C.
 *
 * repro.pulsesim.kernel compiles every (cell, input port) of a circuit
 * into a small opcode program (a Python list, kinds 0-7) and runs them
 * from a time-ordered event queue.  This module runs the same programs,
 * unchanged, from a binary heap of (time, packed key, program) entries
 * that it owns; heap order is exactly the bucket queue's
 * (time, priority, sequence) order, because packed keys are unique.
 *
 * A stimulus train (Queue.schedule, from SealedSimulator.schedule_train)
 * sits in the heap as one cursor entry standing on its earliest pending
 * pulse, so pre-scheduled stimulus does not deepen the heap.  Python
 * keeps scheduling single pulses into the simulator's bucket queue
 * (_buckets and _times): schedule_input, emit and the emit closures of
 * generic cells.  Queue.run drains that inbox into its heap on entry and
 * after every CALL opcode.  Cell state, counters, taps, emission order,
 * sequence numbers, queue-depth samples and error messages follow the
 * Python loop (SealedSimulator._drain) exactly.  The one divergence: times,
 * delays and packed keys are int64 here, and a value outside that range
 * raises SimulationError where the Python loop would carry a big int.
 *
 * Built on first use by repro.pulsesim.native; no build step is needed.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Opcode kinds, as numbered by repro.pulsesim.kernel. */
enum {
    OP_DELAY1 = 0, /* [0, kb, dly, nop] */
    OP_GUARD = 1,  /* [1, cell, fire, fire_next, other_next, dq, taps, rows] */
    OP_TIMED = 2,  /* [2, cell, ((bound, offset), ...), rows, counter] */
    OP_WINDOW = 3, /* [3, cell, bound, counter, dq, taps, rows] */
    OP_MULTI = 4,  /* [4, emissions] */
    OP_STORE = 5,  /* [5, cell, state] */
    OP_TABLE = 6,  /* [6, cell, ((next_state, emissions), ...)] */
    OP_CALL = 7,   /* [7, handle, port] */
};

/* Signals (Ctrl-C, a SIGTERM handler) are checked every 2**16 events. */
#define SIGNAL_MASK 0xFFFF

static PyObject *SimulationError; /* repro.errors.SimulationError */
static PyObject *one;
static PyObject *s_state, *s_last_emit, *s_now, *s_sequence, *s_pulses,
    *s_stats, *s_events_processed, *s_pulses_emitted, *s_max_queue_depth,
    *s_max_events, *s_buckets, *s_times;

/* -- int64 arithmetic -------------------------------------------------------- */

static int
range_error(void)
{
    PyErr_SetString(SimulationError,
                    "time, delay or sort key outside the native sealed "
                    "loop's int64 range");
    return -1;
}

/* The int64 value of a Python int (or any object with __index__). */
static int
as_i64(PyObject *obj, int64_t *out)
{
    int overflow;
    long long value;
    if (PyLong_Check(obj)) {
        value = PyLong_AsLongLongAndOverflow(obj, &overflow);
    }
    else {
        PyObject *index = PyNumber_Index(obj);
        if (index == NULL)
            return -1;
        value = PyLong_AsLongLongAndOverflow(index, &overflow);
        Py_DECREF(index);
    }
    if (overflow)
        return range_error();
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)value;
    return 0;
}

static inline int
add_i64(int64_t a, int64_t b, int64_t *out)
{
    if (__builtin_add_overflow(a, b, out))
        return range_error();
    return 0;
}

static int
set_i64(PyObject *obj, PyObject *name, int64_t value)
{
    PyObject *number = PyLong_FromLongLong(value);
    if (number == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, number);
    Py_DECREF(number);
    return rc;
}

static int
get_i64(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int rc = as_i64(value, out);
    Py_DECREF(value);
    return rc;
}

static int
corrupt(PyObject *kind)
{
    PyErr_Format(SimulationError, "corrupt compiled program (kind %R)", kind);
    return -1;
}

/* Set aside the pending exception (NULL when none) while counters are
 * written back; restore_error() reinstates it over any newer error. */
static PyObject *
take_error(void)
{
#if PY_VERSION_HEX >= 0x030C0000
    return PyErr_GetRaisedException();
#else
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    if (type == NULL)
        return NULL;
    PyErr_NormalizeException(&type, &value, &traceback);
    if (traceback != NULL && value != NULL)
        PyException_SetTraceback(value, traceback);
    Py_DECREF(type);
    Py_XDECREF(traceback);
    return value;
#endif
}

static void
restore_error(PyObject *error)
{
    if (error == NULL)
        return;
    PyErr_Clear();
#if PY_VERSION_HEX >= 0x030C0000
    PyErr_SetRaisedException(error);
#else
    PyObject *type = (PyObject *)Py_TYPE(error);
    Py_INCREF(type);
    PyErr_Restore(type, error, PyException_GetTraceback(error));
#endif
}

/* -- the event heap ---------------------------------------------------------- */

typedef struct {
    int64_t time;
    int64_t key; /* priority * 2**48 + sequence: unique per simulator */
    /* A strong reference to the program list itself, or a Train tagged
     * in bit 0 (the entry is then a cursor on that train's next pulse). */
    PyObject *op;
} Entry;

/* The pulses of one stimulus train: (time, key) pairs in heap order. */
typedef struct {
    PyObject *op; /* strong reference to the port's program */
    Py_ssize_t next, size;
    int64_t pulses[][2];
} Train;

#define IS_TRAIN(entry) (((uintptr_t)(entry)->op) & 1)
#define TRAIN_OF(entry) ((Train *)(((uintptr_t)(entry)->op) & ~(uintptr_t)1))

typedef struct {
    PyObject_HEAD
    Entry *heap;
    Py_ssize_t size;     /* heap entries */
    Py_ssize_t capacity;
    Py_ssize_t pending;  /* queued events, every pulse of a train counted */
} QueueObject;

static void
free_train(Train *train)
{
    Py_DECREF(train->op);
    PyMem_Free(train);
}

static inline int
earlier(const Entry *a, const Entry *b)
{
    return a->time < b->time || (a->time == b->time && a->key < b->key);
}

static int
reserve(QueueObject *q, Py_ssize_t need)
{
    if (need <= q->capacity)
        return 0;
    Py_ssize_t capacity = q->capacity ? q->capacity : 64;
    while (capacity < need) {
        if (capacity > PY_SSIZE_T_MAX / 2 / (Py_ssize_t)sizeof(Entry)) {
            PyErr_NoMemory();
            return -1;
        }
        capacity *= 2;
    }
    Entry *heap = PyMem_Realloc(q->heap, (size_t)capacity * sizeof(Entry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    q->heap = heap;
    q->capacity = capacity;
    return 0;
}

static inline void
sift_up(Entry *heap, Py_ssize_t pos)
{
    Entry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!earlier(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* Restore heap order after the root entry changed: the hole sinks to a
 * leaf and the root entry sifts up from there (heapq's comparisons). */
static inline void
sift_root(Entry *heap, Py_ssize_t n)
{
    Entry item = heap[0];
    Py_ssize_t pos = 0, child = 1;
    while (child < n) {
        if (child + 1 < n && !earlier(&heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
    sift_up(heap, pos);
}

/* Queue one event; the heap takes a new reference to ``op``. */
static inline int
push(QueueObject *q, int64_t time, int64_t key, PyObject *op)
{
    if (q->size == q->capacity && reserve(q, q->size + 1) < 0)
        return -1;
    Entry *entry = &q->heap[q->size];
    entry->time = time;
    entry->key = key;
    Py_INCREF(op);
    entry->op = op;
    sift_up(q->heap, q->size++);
    q->pending++;
    return 0;
}

/* Take the earliest event off the queue and return its program (a new
 * reference).  A cursor moves on to its train's next pulse. */
static inline PyObject *
pop(QueueObject *q)
{
    Entry *top = &q->heap[0];
    PyObject *op;
    q->pending--;
    if (IS_TRAIN(top)) {
        Train *train = TRAIN_OF(top);
        op = train->op;
        Py_INCREF(op);
        if (++train->next < train->size) {
            top->time = train->pulses[train->next][0];
            top->key = train->pulses[train->next][1];
            sift_root(q->heap, q->size);
            return op;
        }
        free_train(train);
    }
    else {
        op = top->op;
    }
    if (--q->size > 0) {
        q->heap[0] = q->heap[q->size];
        sift_root(q->heap, q->size);
    }
    return op;
}

static void
queue_clear_entries(QueueObject *q)
{
    while (q->size > 0) {
        Entry *entry = &q->heap[--q->size];
        if (IS_TRAIN(entry))
            free_train(TRAIN_OF(entry));
        else
            Py_DECREF(entry->op);
    }
    q->pending = 0;
}

/* Stage one bucket entry ``(packed_key, program)`` at ``tail[*n]``. */
static int
stage(Entry *tail, Py_ssize_t *n, Py_ssize_t room, int64_t time,
      PyObject *entry)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2 || *n >= room) {
        PyErr_SetString(SimulationError, "corrupt bucket queue entry");
        return -1;
    }
    Entry *slot = &tail[*n];
    if (as_i64(PyTuple_GET_ITEM(entry, 0), &slot->key) < 0)
        return -1;
    slot->time = time;
    slot->op = PyTuple_GET_ITEM(entry, 1);
    (*n)++;
    return 0;
}

/* Move every event Python scheduled into the bucket queue onto the heap.
 * All or nothing: on a conversion error the inbox is left as it was. */
static int
drain_inbox(QueueObject *q, PyObject *buckets, PyObject *times)
{
    if (PyDict_GET_SIZE(buckets) == 0)
        return 0;
    Py_ssize_t pos = 0, count = 0;
    PyObject *time_obj, *bucket;
    while (PyDict_Next(buckets, &pos, &time_obj, &bucket))
        count += PyList_Check(bucket) ? PyList_GET_SIZE(bucket) : 1;
    if (reserve(q, q->size + count) < 0)
        return -1;
    Entry *tail = q->heap + q->size;
    Py_ssize_t n = 0;
    pos = 0;
    while (PyDict_Next(buckets, &pos, &time_obj, &bucket)) {
        int64_t time;
        if (as_i64(time_obj, &time) < 0)
            return -1;
        if (PyList_Check(bucket)) {
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(bucket); i++) {
                if (stage(tail, &n, count, time, PyList_GET_ITEM(bucket, i)) < 0)
                    return -1;
            }
        }
        else if (stage(tail, &n, count, time, bucket) < 0) {
            return -1;
        }
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_INCREF(q->heap[q->size].op);
        sift_up(q->heap, q->size);
        q->size++;
    }
    q->pending += n;
    PyDict_Clear(buckets);
    return PyList_SetSlice(times, 0, PyList_GET_SIZE(times), NULL);
}

/* -- the run loop ------------------------------------------------------------ */

typedef struct {
    QueueObject *q;
    PyObject *sim, *stats, *buckets, *times;
    int64_t now, seq, pulses, events;
} Loop;

/* Schedule fanout rows ``((packed_priority_base, delay, program), ...)``. */
static int
push_rows(Loop *L, PyObject *rows, int64_t t)
{
    if (!PyTuple_Check(rows)) {
        PyErr_SetString(SimulationError, "corrupt fanout rows");
        return -1;
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(rows); i++) {
        PyObject *row = PyTuple_GET_ITEM(rows, i);
        int64_t kb, delay, arrival, key;
        if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 3) {
            PyErr_SetString(SimulationError, "corrupt fanout rows");
            return -1;
        }
        if (as_i64(PyTuple_GET_ITEM(row, 0), &kb) < 0
            || as_i64(PyTuple_GET_ITEM(row, 1), &delay) < 0
            || add_i64(t, delay, &arrival) < 0
            || add_i64(kb, L->seq, &key) < 0)
            return -1;
        L->seq++;
        if (push(L->q, arrival, key, PyTuple_GET_ITEM(row, 2)) < 0)
            return -1;
    }
    return 0;
}

/* Call each probe tap with ``t + dq``. */
static int
call_taps(PyObject *taps, PyObject *dq, int64_t t)
{
    if (!PyTuple_Check(taps)) {
        PyErr_SetString(SimulationError, "corrupt probe taps");
        return -1;
    }
    if (PyTuple_GET_SIZE(taps) == 0)
        return 0;
    int64_t delay, out;
    if (as_i64(dq, &delay) < 0 || add_i64(t, delay, &out) < 0)
        return -1;
    PyObject *time = PyLong_FromLongLong(out);
    if (time == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(taps); i++) {
        PyObject *result = PyObject_CallOneArg(PyTuple_GET_ITEM(taps, i), time);
        if (result == NULL) {
            Py_DECREF(time);
            return -1;
        }
        Py_DECREF(result);
    }
    Py_DECREF(time);
    return 0;
}

/* One output pulse: ``(dq, taps, rows)``. */
static int
emit_block(Loop *L, PyObject *emission, int64_t t)
{
    if (!PyTuple_Check(emission) || PyTuple_GET_SIZE(emission) != 3) {
        PyErr_SetString(SimulationError, "corrupt emission block");
        return -1;
    }
    L->pulses++;
    if (call_taps(PyTuple_GET_ITEM(emission, 1),
                  PyTuple_GET_ITEM(emission, 0), t) < 0)
        return -1;
    return push_rows(L, PyTuple_GET_ITEM(emission, 2), t);
}

static int
emit_blocks(Loop *L, PyObject *emissions, int64_t t)
{
    if (!PyTuple_Check(emissions)) {
        PyErr_SetString(SimulationError, "corrupt emission block");
        return -1;
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(emissions); i++) {
        if (emit_block(L, PyTuple_GET_ITEM(emissions, i), t) < 0)
            return -1;
    }
    return 0;
}

/* ``cell.<name> += 1`` */
static int
bump(PyObject *cell, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(cell, name);
    if (value == NULL)
        return -1;
    PyObject *bumped = PyNumber_Add(value, one);
    Py_DECREF(value);
    if (bumped == NULL)
        return -1;
    int rc = PyObject_SetAttr(cell, name, bumped);
    Py_DECREF(bumped);
    return rc;
}

/* ``rows[cell.state]`` as a borrowed item of the tuple ``rows``. */
static PyObject *
row_of(PyObject *rows, Py_ssize_t code)
{
    if (!PyTuple_Check(rows)) {
        PyErr_SetString(SimulationError, "corrupt transition rows");
        return NULL;
    }
    if (code < 0 || code >= PyTuple_GET_SIZE(rows)) {
        PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        return NULL;
    }
    return PyTuple_GET_ITEM(rows, code);
}

static int
state_of(PyObject *cell, Py_ssize_t *out)
{
    PyObject *state = PyObject_GetAttr(cell, s_state);
    if (state == NULL)
        return -1;
    Py_ssize_t code = PyNumber_AsSsize_t(state, PyExc_IndexError);
    Py_DECREF(state);
    if (code == -1 && PyErr_Occurred())
        return -1;
    *out = code;
    return 0;
}

static int
op_guard(Loop *L, PyObject **item, int64_t t)
{
    PyObject *state = PyObject_GetAttr(item[1], s_state);
    if (state == NULL)
        return -1;
    int fires = PyObject_RichCompareBool(state, item[2], Py_EQ);
    Py_DECREF(state);
    if (fires < 0)
        return -1;
    PyObject *next = fires ? item[3] : item[4];
    if (next != Py_None && PyObject_SetAttr(item[1], s_state, next) < 0)
        return -1;
    if (!fires)
        return 0;
    L->pulses++;
    if (call_taps(item[6], item[5], t) < 0)
        return -1;
    return push_rows(L, item[7], t);
}

static int
op_timed(Loop *L, PyObject **item, int64_t t)
{
    PyObject *cell = item[1], *guards = item[2];
    Py_ssize_t code;
    if (state_of(cell, &code) < 0)
        return -1;
    PyObject *last = PyObject_GetAttr(cell, s_last_emit);
    if (last == NULL)
        return -1;
    if (last != Py_None) {
        int64_t stamp, gap;
        int rc = as_i64(last, &stamp);
        Py_DECREF(last);
        if (rc < 0)
            return -1;
        if (__builtin_sub_overflow(t, stamp, &gap))
            return range_error();
        if (!PyTuple_Check(guards)) {
            PyErr_SetString(SimulationError, "corrupt guard bounds");
            return -1;
        }
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(guards); i++) {
            PyObject *guard = PyTuple_GET_ITEM(guards, i);
            int64_t bound, offset;
            if (!PyTuple_Check(guard) || PyTuple_GET_SIZE(guard) != 2) {
                PyErr_SetString(SimulationError, "corrupt guard bounds");
                return -1;
            }
            if (as_i64(PyTuple_GET_ITEM(guard, 0), &bound) < 0
                || as_i64(PyTuple_GET_ITEM(guard, 1), &offset) < 0)
                return -1;
            if (gap < bound)
                code += (Py_ssize_t)offset;
        }
    }
    else {
        Py_DECREF(last);
    }
    PyObject *row = row_of(item[3], code);
    if (row == NULL)
        return -1;
    if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 3) {
        PyErr_SetString(SimulationError, "corrupt transition rows");
        return -1;
    }
    PyObject *emissions = PyTuple_GET_ITEM(row, 1);
    if (PyObject_SetAttr(cell, s_state, PyTuple_GET_ITEM(row, 0)) < 0)
        return -1;
    int counted = PyObject_IsTrue(PyTuple_GET_ITEM(row, 2));
    if (counted < 0 || (counted && bump(cell, item[4]) < 0))
        return -1;
    if (PyTuple_Check(emissions) && PyTuple_GET_SIZE(emissions) > 0
        && set_i64(cell, s_last_emit, t) < 0)
        return -1;
    return emit_blocks(L, emissions, t);
}

static int
op_window(Loop *L, PyObject **item, int64_t t)
{
    PyObject *cell = item[1];
    PyObject *last = PyObject_GetAttr(cell, s_last_emit);
    if (last == NULL)
        return -1;
    int absorbed = 0;
    if (last != Py_None) {
        int64_t stamp, gap, bound;
        int rc = as_i64(last, &stamp);
        Py_DECREF(last);
        if (rc < 0 || as_i64(item[2], &bound) < 0)
            return -1;
        if (__builtin_sub_overflow(t, stamp, &gap))
            return range_error();
        absorbed = gap < bound;
    }
    else {
        Py_DECREF(last);
    }
    if (absorbed)
        return item[3] == Py_None ? 0 : bump(cell, item[3]);
    if (set_i64(cell, s_last_emit, t) < 0)
        return -1;
    L->pulses++;
    if (call_taps(item[5], item[4], t) < 0)
        return -1;
    return push_rows(L, item[6], t);
}

static int
op_table(Loop *L, PyObject **item, int64_t t)
{
    Py_ssize_t code;
    if (state_of(item[1], &code) < 0)
        return -1;
    PyObject *row = row_of(item[2], code);
    if (row == NULL)
        return -1;
    if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 2) {
        PyErr_SetString(SimulationError, "corrupt transition rows");
        return -1;
    }
    if (PyObject_SetAttr(item[1], s_state, PyTuple_GET_ITEM(row, 0)) < 0)
        return -1;
    return emit_blocks(L, PyTuple_GET_ITEM(row, 1), t);
}

/* Hand the pulse to a generic cell's ``handle``, with the simulator's
 * counters current, as the Python loop does; the cell's emissions land
 * in the inbox, which is drained once it returns. */
static int
op_call(Loop *L, PyObject **item, int64_t t)
{
    if (set_i64(L->sim, s_now, L->now) < 0
        || set_i64(L->sim, s_sequence, L->seq) < 0
        || set_i64(L->sim, s_pulses, L->pulses) < 0
        || set_i64(L->stats, s_events_processed, L->events) < 0
        || set_i64(L->stats, s_pulses_emitted, L->pulses) < 0)
        return -1;
    PyObject *time = PyLong_FromLongLong(t);
    if (time == NULL)
        return -1;
    PyObject *args[3] = {L->sim, item[2], time};
    PyObject *result = PyObject_Vectorcall(item[1], args, 3, NULL);
    Py_DECREF(time);
    if (result == NULL) {
        /* Counters first (the handle's own error wins), as the Python
         * loop's ``finally`` does; its emissions stay in the inbox. */
        PyObject *error = take_error();
        if (get_i64(L->sim, s_sequence, &L->seq) == 0)
            get_i64(L->sim, s_pulses, &L->pulses);
        restore_error(error);
        return -1;
    }
    Py_DECREF(result);
    if (get_i64(L->sim, s_sequence, &L->seq) < 0
        || get_i64(L->sim, s_pulses, &L->pulses) < 0)
        return -1;
    return drain_inbox(L->q, L->buckets, L->times);
}

static const Py_ssize_t op_sizes[] = {4, 8, 5, 7, 2, 3, 3, 3};

/* Execute one popped program at time ``t``. */
static int
step(Loop *L, PyObject *op, int64_t t)
{
    if (!PyList_Check(op) || PyList_GET_SIZE(op) == 0) {
        PyErr_SetString(SimulationError, "corrupt compiled program");
        return -1;
    }
    PyObject *kind_obj = PyList_GET_ITEM(op, 0);
    long kind = PyLong_Check(kind_obj) ? PyLong_AsLong(kind_obj) : -1;
    if (kind == -1 && PyErr_Occurred())
        PyErr_Clear();
    if (kind < 0 || kind > OP_CALL || PyList_GET_SIZE(op) != op_sizes[kind])
        return corrupt(kind_obj);
    if (kind == OP_DELAY1) {
        int64_t kb, delay, arrival, key;
        L->pulses++;
        if (as_i64(PyList_GET_ITEM(op, 1), &kb) < 0
            || as_i64(PyList_GET_ITEM(op, 2), &delay) < 0
            || add_i64(t, delay, &arrival) < 0
            || add_i64(kb, L->seq, &key) < 0)
            return -1;
        L->seq++;
        return push(L->q, arrival, key, PyList_GET_ITEM(op, 3));
    }
    if (kind == OP_STORE)
        return PyObject_SetAttr(PyList_GET_ITEM(op, 1), s_state,
                                PyList_GET_ITEM(op, 2));
    /* The remaining kinds call back into Python (taps, attribute access,
     * handles).  A recompile there patches the list in place, so hold
     * this event's own references to every item it uses. */
    PyObject *item[8];
    Py_ssize_t size = PyList_GET_SIZE(op);
    for (Py_ssize_t i = 0; i < size; i++) {
        item[i] = PyList_GET_ITEM(op, i);
        Py_INCREF(item[i]);
    }
    int rc;
    switch (kind) {
    case OP_GUARD:
        rc = op_guard(L, item, t);
        break;
    case OP_TIMED:
        rc = op_timed(L, item, t);
        break;
    case OP_WINDOW:
        rc = op_window(L, item, t);
        break;
    case OP_MULTI:
        rc = emit_blocks(L, item[1], t);
        break;
    case OP_TABLE:
        rc = op_table(L, item, t);
        break;
    default:
        rc = op_call(L, item, t);
        break;
    }
    for (Py_ssize_t i = 0; i < size; i++)
        Py_DECREF(item[i]);
    return rc;
}

/* Write the loop's counters back to the simulator and its stats, keeping
 * any pending exception. */
static int
write_back(Loop *L, int64_t maxq)
{
    PyObject *error = take_error();
    int rc = 0;
    if (set_i64(L->sim, s_now, L->now) < 0
        || set_i64(L->sim, s_sequence, L->seq) < 0
        || set_i64(L->sim, s_pulses, L->pulses) < 0
        || set_i64(L->stats, s_events_processed, L->events) < 0
        || set_i64(L->stats, s_pulses_emitted, L->pulses) < 0
        || set_i64(L->stats, s_max_queue_depth, maxq) < 0)
        rc = -1;
    if (error != NULL) {
        restore_error(error);
        return -1;
    }
    return rc;
}

PyDoc_STRVAR(queue_run_doc,
"run(sim, until)\n--\n\n"
"Drain the queue up to ``until`` (None: to the end), exactly as\n"
"SealedSimulator._drain does, and write the counters back to ``sim``.");

static PyObject *
queue_run(QueueObject *q, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "run() takes (sim, until)");
        return NULL;
    }
    PyObject *sim = args[0], *until = args[1];
    int64_t horizon = INT64_MAX;
    if (until != Py_None) {
        int overflow;
        PyObject *index = PyNumber_Index(until);
        if (index == NULL)
            return NULL;
        long long value = PyLong_AsLongLongAndOverflow(index, &overflow);
        Py_DECREF(index);
        if (value == -1 && PyErr_Occurred())
            return NULL;
        horizon = overflow > 0 ? INT64_MAX : overflow < 0 ? INT64_MIN : value;
    }
    Loop L = {q, sim, NULL, NULL, NULL, 0, 0, 0, 0};
    PyObject *max_events = NULL;
    int64_t maxq = 0, budget = 0, limit = 0;
    int ok = 0;
    L.stats = PyObject_GetAttr(sim, s_stats);
    L.buckets = L.stats ? PyObject_GetAttr(sim, s_buckets) : NULL;
    L.times = L.buckets ? PyObject_GetAttr(sim, s_times) : NULL;
    max_events = L.times ? PyObject_GetAttr(sim, s_max_events) : NULL;
    if (max_events == NULL)
        goto cleanup;
    if (!PyDict_Check(L.buckets) || !PyList_Check(L.times)) {
        PyErr_SetString(PyExc_TypeError, "corrupt bucket queue");
        goto cleanup;
    }
    if (get_i64(sim, s_now, &L.now) < 0
        || get_i64(sim, s_sequence, &L.seq) < 0
        || get_i64(sim, s_pulses, &L.pulses) < 0
        || get_i64(L.stats, s_events_processed, &L.events) < 0
        || get_i64(L.stats, s_max_queue_depth, &maxq) < 0
        || as_i64(max_events, &limit) < 0)
        goto cleanup;
    if (__builtin_add_overflow(L.events, limit, &budget))
        budget = limit < 0 ? INT64_MIN : INT64_MAX;
    if (drain_inbox(q, L.buckets, L.times) < 0)
        goto cleanup;
    ok = 1;
    while (q->size > 0) {
        int64_t t = q->heap[0].time;
        if (t > horizon)
            break;
        if (t < L.now) {
            PyErr_Format(SimulationError,
                         "causality violation: event at %lld fs before "
                         "now=%lld fs", (long long)t, (long long)L.now);
            ok = 0;
            break;
        }
        if (t > L.now) {
            /* Queue-depth high-water mark, sampled once per strict time
             * advance: scheduled minus processed events. */
            int64_t depth = L.seq - L.events;
            if (depth > maxq)
                maxq = depth;
            L.now = t;
        }
        PyObject *op = pop(q);
        if (++L.events > budget) {
            Py_DECREF(op);
            PyErr_Format(SimulationError,
                         "exceeded max_events=%S; likely an oscillating "
                         "netlist", max_events);
            ok = 0;
            break;
        }
        int rc = step(&L, op, t);
        Py_DECREF(op);
        if (rc < 0 || ((L.events & SIGNAL_MASK) == 0
                       && PyErr_CheckSignals() < 0)) {
            ok = 0;
            break;
        }
    }
    if (write_back(&L, maxq) < 0)
        ok = 0;
cleanup:
    Py_XDECREF(max_events);
    Py_XDECREF(L.times);
    Py_XDECREF(L.buckets);
    Py_XDECREF(L.stats);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

PyDoc_STRVAR(queue_schedule_doc,
"schedule(sim, times, kb, op)\n--\n\n"
"Queue one stimulus pulse per entry of the list ``times`` on program\n"
"``op`` with packed keys ``kb + sim._sequence``, ``kb + sim._sequence +\n"
"1``, ..., as SealedSimulator.schedule_train does into the bucket queue;\n"
"the train enters the heap as one cursor.  A negative time raises\n"
"SimulationError after queueing the pulses before it.");

static int
by_time_then_key(const void *a, const void *b)
{
    const int64_t *x = a, *y = b;
    if (x[0] != y[0])
        return x[0] < y[0] ? -1 : 1;
    return x[1] < y[1] ? -1 : x[1] > y[1];
}

static PyObject *
queue_schedule(QueueObject *q, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4 || !PyList_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() takes (sim, times: list, kb, op)");
        return NULL;
    }
    PyObject *sim = args[0], *times = args[1], *op = args[3];
    Py_ssize_t n = PyList_GET_SIZE(times), count = 0;
    int64_t kb, seq, last_key;
    if (n == 0)
        Py_RETURN_NONE;
    if (as_i64(args[2], &kb) < 0 || get_i64(sim, s_sequence, &seq) < 0
        || add_i64(kb, seq, &last_key) < 0
        || add_i64(last_key, (int64_t)n - 1, &last_key) < 0
        || reserve(q, q->size + 1) < 0)
        return NULL;
    if ((size_t)n > (PY_SSIZE_T_MAX - sizeof(Train)) / (2 * sizeof(int64_t)))
        return PyErr_NoMemory();
    Train *train = PyMem_Malloc(sizeof(Train) + 2 * (size_t)n * sizeof(int64_t));
    if (train == NULL)
        return PyErr_NoMemory();
    int64_t (*pulses)[2] = train->pulses;
    int sorted = 1;
    /* A time's __index__ may run Python code: re-read the list's size,
     * and hold the item while it converts. */
    for (; count < n && count < PyList_GET_SIZE(times); count++) {
        PyObject *time = PyList_GET_ITEM(times, count);
        int64_t t;
        Py_INCREF(time);
        int rc = as_i64(time, &t);
        if (rc == 0 && t < 0) {
            PyErr_Format(SimulationError,
                         "cannot schedule pulse at negative time %S", time);
            rc = -1;
        }
        Py_DECREF(time);
        if (rc < 0)
            break;
        if (count > 0 && t < pulses[count - 1][0])
            sorted = 0;
        pulses[count][0] = t;
        pulses[count][1] = kb + seq + count;
    }
    PyObject *error = take_error();
    if (count > 0) {
        if (!sorted)
            qsort(pulses, (size_t)count, sizeof(pulses[0]), by_time_then_key);
        Py_INCREF(op);
        train->op = op;
        train->next = 0;
        train->size = count;
        Entry *entry = &q->heap[q->size];
        entry->time = pulses[0][0];
        entry->key = pulses[0][1];
        entry->op = (PyObject *)((uintptr_t)train | 1);
        sift_up(q->heap, q->size++);
        q->pending += count;
    }
    else {
        PyMem_Free(train);
    }
    int ok = set_i64(sim, s_sequence, seq + count) == 0 && error == NULL;
    restore_error(error);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
queue_peek(QueueObject *q, PyObject *Py_UNUSED(ignored))
{
    if (q->size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(q->heap[0].time);
}

static PyObject *
queue_clear_method(QueueObject *q, PyObject *Py_UNUSED(ignored))
{
    queue_clear_entries(q);
    Py_RETURN_NONE;
}

static Py_ssize_t
queue_len(QueueObject *q)
{
    return q->pending;
}

static int
queue_traverse(QueueObject *q, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < q->size; i++) {
        Entry *entry = &q->heap[i];
        Py_VISIT(IS_TRAIN(entry) ? TRAIN_OF(entry)->op : entry->op);
    }
    return 0;
}

static int
queue_tp_clear(QueueObject *q)
{
    queue_clear_entries(q);
    return 0;
}

static void
queue_dealloc(QueueObject *q)
{
    PyObject_GC_UnTrack(q);
    queue_clear_entries(q);
    PyMem_Free(q->heap);
    PyObject_GC_Del(q);
}

static PyObject *
queue_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    if (PyTuple_GET_SIZE(args) || (kwargs && PyDict_GET_SIZE(kwargs))) {
        PyErr_SetString(PyExc_TypeError, "Queue() takes no arguments");
        return NULL;
    }
    QueueObject *q = PyObject_GC_New(QueueObject, type);
    if (q == NULL)
        return NULL;
    q->heap = NULL;
    q->size = 0;
    q->capacity = 0;
    q->pending = 0;
    PyObject_GC_Track(q);
    return (PyObject *)q;
}

static PyMethodDef queue_methods[] = {
    {"run", (PyCFunction)(void (*)(void))queue_run, METH_FASTCALL,
     queue_run_doc},
    {"schedule", (PyCFunction)(void (*)(void))queue_schedule, METH_FASTCALL,
     queue_schedule_doc},
    {"peek", (PyCFunction)queue_peek, METH_NOARGS,
     "Time of the earliest queued event, or None."},
    {"clear", (PyCFunction)queue_clear_method, METH_NOARGS,
     "Drop every queued event."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods queue_as_sequence = {
    .sq_length = (lenfunc)queue_len,
};

static PyTypeObject QueueType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pulsesim._sealed.Queue",
    .tp_basicsize = sizeof(QueueObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The native loop's event heap for one SealedSimulator.",
    .tp_new = queue_new,
    .tp_dealloc = (destructor)queue_dealloc,
    .tp_traverse = (traverseproc)queue_traverse,
    .tp_clear = (inquiry)queue_tp_clear,
    .tp_methods = queue_methods,
    .tp_as_sequence = &queue_as_sequence,
};

static struct PyModuleDef sealed_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sealed",
    .m_doc = "Native sealed loop: the sealed kernel's opcode interpreter.",
    .m_size = -1,
};

#define INTERN(var, text)                                                  \
    do {                                                                   \
        if ((var = PyUnicode_InternFromString(text)) == NULL)              \
            return NULL;                                                   \
    } while (0)

PyMODINIT_FUNC
PyInit__sealed(void)
{
    INTERN(s_state, "state");
    INTERN(s_last_emit, "_last_emit");
    INTERN(s_now, "now");
    INTERN(s_sequence, "_sequence");
    INTERN(s_pulses, "_pulses");
    INTERN(s_stats, "stats");
    INTERN(s_events_processed, "events_processed");
    INTERN(s_pulses_emitted, "pulses_emitted");
    INTERN(s_max_queue_depth, "max_queue_depth");
    INTERN(s_max_events, "max_events");
    INTERN(s_buckets, "_buckets");
    INTERN(s_times, "_times");
    if ((one = PyLong_FromLong(1)) == NULL)
        return NULL;
    PyObject *errors = PyImport_ImportModule("repro.errors");
    if (errors == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(errors, "SimulationError");
    Py_DECREF(errors);
    if (SimulationError == NULL || PyType_Ready(&QueueType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&sealed_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&QueueType);
    if (PyModule_AddObject(module, "Queue", (PyObject *)&QueueType) < 0) {
        Py_DECREF(&QueueType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
