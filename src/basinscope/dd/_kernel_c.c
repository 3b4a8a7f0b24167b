/* Compiled reduced ordered BDD kernel; same API and node ids as _kernel_py.
 *
 * Nodes live in one array of (level, low, high, next) records; `next` chains
 * the unique table, whose bucket array doubles whenever it holds as many
 * nodes as buckets.  All operations share one direct-mapped computed table
 * (as in CUDD): a colliding store overwrites the old entry.  Recomputing an
 * evicted entry only revisits nodes that already exist, so node ids are the
 * same as with the unbounded caches of the pure-Python kernel.  The computed
 * table grows with the unique table up to CACHE_MAX_SLOTS entries.  A
 * parallel byte array of flags records, per node, whether a primed slot
 * occurs at or below it, so that the state-level walks reject primed
 * diagrams in O(1).  The variable order[p] occupies levels 2p (unprimed)
 * and 2p + 1 (primed), and the order defaults to the declaration order.
 * Quantification has one recursion, the relational product and_exists
 * (after CUDD's Cudd_bddAndAbstract); quantifying a single diagram is its
 * product with TRUE.
 *
 * Every recursive routine returns a node id, or -1 with a Python exception
 * set.  No pointer into the node array or the computed table is held across
 * a call that can create nodes, because both arrays may be reallocated.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OP_AND, OP_OR, OP_XOR, OP_DIFF };

/* computed-table tags; the parity or direction is added to the base */
enum { TAG_AND_EXISTS = 4, TAG_SHIFT = 6 };

#define INITIAL_SLOTS (1u << 12)
#define CACHE_MAX_SLOTS (1u << 22)
#define MAX_NODES 0x7FFFFFFELL

/* the per-node flags */
enum { PRIMED = 1 };

typedef struct {
    int32_t level, low, high, next;
} Node;

typedef struct {
    int32_t f, g, res;
    uint32_t tag;
} CacheEntry;

typedef struct {
    PyObject_HEAD
    int n;
    int num_levels;
    long long node_limit;
    int32_t *order; /* the variable at each position, from the top level */
    Node *nodes;
    uint8_t *flags;
    int32_t size, capacity;
    int32_t *buckets;
    uint32_t bucket_mask;
    CacheEntry *cache;
    uint32_t cache_mask;
} Kernel;

static PyObject *NodeLimitError;

static inline uint32_t hash3(uint32_t a, uint32_t b, uint32_t c)
{
    uint64_t h = (((uint64_t)a << 32) | b) * 0x9E3779B97F4A7C15ULL;
    h = (h ^ (h >> 29) ^ c) * 0xBF58476D1CE4E5B9ULL;
    return (uint32_t)(h >> 32);
}

/* -- computed table ------------------------------------------------------ */

static inline CacheEntry *cache_slot(Kernel *k, uint32_t tag, int32_t f,
                                     int32_t g)
{
    return &k->cache[hash3(tag, (uint32_t)f, (uint32_t)g) & k->cache_mask];
}

static inline int32_t cache_lookup(Kernel *k, uint32_t tag, int32_t f,
                                   int32_t g)
{
    CacheEntry *e = cache_slot(k, tag, f, g);
    if (e->tag == tag && e->f == f && e->g == g)
        return e->res;
    return -1;
}

static inline void cache_store(Kernel *k, uint32_t tag, int32_t f, int32_t g,
                               int32_t res)
{
    CacheEntry *e = cache_slot(k, tag, f, g);
    e->tag = tag;
    e->f = f;
    e->g = g;
    e->res = res;
}

static void cache_clear(Kernel *k)
{
    memset(k->cache, 0xFF, (size_t)(k->cache_mask + 1) * sizeof(CacheEntry));
}

/* -- unique table -------------------------------------------------------- */

static inline uint32_t node_hash(int32_t level, int32_t low, int32_t high)
{
    return hash3((uint32_t)level, (uint32_t)low, (uint32_t)high);
}

/* Double the bucket array and, below its cap, the computed table.  On
 * allocation failure the old tables stay in use: longer chains and more
 * evictions cost time, not correctness. */
static void grow_tables(Kernel *k)
{
    uint32_t slots = (k->bucket_mask + 1) * 2;
    int32_t *buckets = calloc(slots, sizeof(int32_t));
    if (buckets != NULL) {
        free(k->buckets);
        k->buckets = buckets;
        k->bucket_mask = slots - 1;
        for (int32_t i = 2; i < k->size; i++) {
            Node *nd = &k->nodes[i];
            uint32_t h = node_hash(nd->level, nd->low, nd->high) & k->bucket_mask;
            nd->next = buckets[h];
            buckets[h] = i;
        }
    }
    if (slots <= CACHE_MAX_SLOTS && slots > k->cache_mask + 1) {
        CacheEntry *cache = malloc((size_t)slots * sizeof(CacheEntry));
        if (cache != NULL) {
            free(k->cache);
            k->cache = cache;
            k->cache_mask = slots - 1;
            cache_clear(k);
        }
    }
}

static int32_t mk(Kernel *k, int32_t level, int32_t low, int32_t high)
{
    if (low == high)
        return low;
    uint32_t h = node_hash(level, low, high) & k->bucket_mask;
    for (int32_t i = k->buckets[h]; i != 0; i = k->nodes[i].next) {
        Node *nd = &k->nodes[i];
        if (nd->level == level && nd->low == low && nd->high == high)
            return i;
    }
    int32_t id = k->size;
    if (id > k->node_limit || id >= MAX_NODES) {
        PyErr_Format(NodeLimitError,
                     "decision diagram exceeds node limit %lld", k->node_limit);
        return -1;
    }
    if (id == k->capacity) {
        int32_t cap = k->capacity > MAX_NODES / 2 ? (int32_t)MAX_NODES
                                                  : k->capacity * 2;
        Node *nodes = realloc(k->nodes, (size_t)cap * sizeof(Node));
        if (nodes == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->nodes = nodes;
        uint8_t *flags = realloc(k->flags, (size_t)cap);
        if (flags == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->flags = flags;
        k->capacity = cap;
    }
    Node *nd = &k->nodes[id];
    nd->level = level;
    nd->low = low;
    nd->high = high;
    nd->next = k->buckets[h];
    k->buckets[h] = id;
    k->flags[id] = k->flags[low] | k->flags[high] | (level & 1);
    k->size = id + 1;
    if ((uint32_t)k->size > k->bucket_mask + 1)
        grow_tables(k);
    return id;
}

/* -- operations (same recursion order as _kernel_py) --------------------- */

static int32_t apply(Kernel *k, int op, int32_t f, int32_t g)
{
    switch (op) {
    case OP_AND:
        if (f == 0 || g == 0) return 0;
        if (f == 1) return g;
        if (g == 1 || f == g) return f;
        break;
    case OP_OR:
        if (f == 1 || g == 1) return 1;
        if (f == 0) return g;
        if (g == 0 || f == g) return f;
        break;
    case OP_XOR:
        if (f == g) return 0;
        if (f == 0) return g;
        if (g == 0) return f;
        break;
    default: /* OP_DIFF */
        if (f == 0 || g == 1 || f == g) return 0;
        if (g == 0) return f;
        break;
    }
    if (op != OP_DIFF && f > g) {
        int32_t t = f;
        f = g;
        g = t;
    }
    int32_t res = cache_lookup(k, (uint32_t)op, f, g);
    if (res >= 0)
        return res;
    Node nf = k->nodes[f], ng = k->nodes[g];
    int32_t top = nf.level <= ng.level ? nf.level : ng.level;
    int32_t f0 = f, f1 = f, g0 = g, g1 = g;
    if (nf.level == top) { f0 = nf.low; f1 = nf.high; }
    if (ng.level == top) { g0 = ng.low; g1 = ng.high; }
    int32_t r0 = apply(k, op, f0, g0);
    if (r0 < 0) return -1;
    int32_t r1 = apply(k, op, f1, g1);
    if (r1 < 0) return -1;
    res = mk(k, top, r0, r1);
    if (res < 0) return -1;
    cache_store(k, (uint32_t)op, f, g, res);
    return res;
}

/* quantify the levels of the given parity from f & g without building it */
static int32_t and_exists(Kernel *k, int parity, int32_t f, int32_t g)
{
    if (f == 0 || g == 0)
        return 0;
    if (f == g || f == 1) { /* one operand: it goes first, TRUE second */
        f = g;
        g = 1;
    }
    if (f == 1)
        return 1;
    if (g != 1 && f > g) {
        int32_t t = f;
        f = g;
        g = t;
    }
    uint32_t tag = TAG_AND_EXISTS + parity;
    int32_t res = cache_lookup(k, tag, f, g);
    if (res >= 0)
        return res;
    Node nf = k->nodes[f], ng = k->nodes[g];
    int32_t top = nf.level <= ng.level ? nf.level : ng.level;
    int32_t f0 = f, f1 = f, g0 = g, g1 = g;
    if (nf.level == top) { f0 = nf.low; f1 = nf.high; }
    if (ng.level == top) { g0 = ng.low; g1 = ng.high; }
    int32_t r0 = and_exists(k, parity, f0, g0);
    if (r0 < 0) return -1;
    if ((top & 1) != parity) {
        int32_t r1 = and_exists(k, parity, f1, g1);
        if (r1 < 0) return -1;
        res = mk(k, top, r0, r1);
    } else if (r0 == 1) {
        res = 1; /* the disjunction is already TRUE: skip the high branch */
    } else {
        int32_t r1 = and_exists(k, parity, f1, g1);
        if (r1 < 0) return -1;
        res = apply(k, OP_OR, r0, r1);
    }
    if (res < 0) return -1;
    cache_store(k, tag, f, g, res);
    return res;
}

static int32_t shift(Kernel *k, int delta, int32_t f)
{
    if (f < 2)
        return f;
    uint32_t tag = TAG_SHIFT + (delta > 0);
    int32_t res = cache_lookup(k, tag, f, 0);
    if (res >= 0)
        return res;
    Node nf = k->nodes[f];
    if ((nf.level & 1) != (delta == 1 ? 0 : 1)) {
        PyErr_SetString(PyExc_ValueError,
                        "rename applied to a mixed-polarity diagram");
        return -1;
    }
    int32_t r0 = shift(k, delta, nf.low);
    if (r0 < 0) return -1;
    int32_t r1 = shift(k, delta, nf.high);
    if (r1 < 0) return -1;
    res = mk(k, nf.level + delta, r0, r1);
    if (res < 0) return -1;
    cache_store(k, tag, f, 0, res);
    return res;
}

/* -- state-level walks over unprimed diagrams ----------------------------- *
 * A state of the n unprimed variables crosses the API packed into an int
 * (see state_words) whose bit i holds variable i under any order; the
 * terminals' sentinel level 2n stands for position n. */

static int check_unprimed(Kernel *k, int32_t f)
{
    if (!(k->flags[f] & PRIMED))
        return 0;
    PyErr_SetString(PyExc_ValueError, "diagram references primed slots");
    return -1;
}

/* count of g over the variables from its own index on, as a new
 * reference; memo maps node ids to their counts, as in _kernel_py */
static PyObject *count(Kernel *k, PyObject *memo, int32_t g)
{
    if (g < 2)
        return PyLong_FromLong(g);
    PyObject *key = PyLong_FromLong(g);
    if (key == NULL)
        return NULL;
    PyObject *sum = PyDict_GetItemWithError(memo, key);
    if (sum != NULL || PyErr_Occurred()) {
        Py_XINCREF(sum);
        Py_DECREF(key);
        return sum;
    }
    Node nd = k->nodes[g];
    int32_t kids[2] = {nd.low, nd.high};
    sum = PyLong_FromLong(0);
    for (int b = 0; b < 2 && sum != NULL; b++) {
        /* shift the child's count into g's variable range */
        long gap = (k->nodes[kids[b]].level >> 1) - (nd.level >> 1) - 1;
        PyObject *sub = count(k, memo, kids[b]);
        PyObject *by = sub == NULL ? NULL : PyLong_FromLong(gap);
        PyObject *part = by == NULL ? NULL : PyNumber_Lshift(sub, by);
        Py_XDECREF(sub);
        Py_XDECREF(by);
        PyObject *next = part == NULL ? NULL : PyNumber_Add(sum, part);
        Py_XDECREF(part);
        Py_DECREF(sum);
        sum = next;
    }
    if (sum != NULL && PyDict_SetItem(memo, key, sum) < 0)
        Py_CLEAR(sum);
    Py_DECREF(key);
    return sum;
}

static PyObject *count_states(Kernel *k, int32_t f)
{
    PyObject *memo = PyDict_New();
    PyObject *c = memo == NULL ? NULL : count(k, memo, f);
    PyObject *by = c == NULL ? NULL : PyLong_FromLong(k->nodes[f].level >> 1);
    PyObject *res = by == NULL ? NULL : PyNumber_Lshift(c, by);
    Py_XDECREF(memo);
    Py_XDECREF(c);
    Py_XDECREF(by);
    return res;
}

/* whether the state y comes before x in the lexicographic order of their
 * bit strings: x has 1 at the first variable where they differ; -1 with an
 * exception set */
static int precedes(PyObject *y, PyObject *x)
{
    PyObject *d = PyNumber_Xor(x, y);
    PyObject *neg = d == NULL ? NULL : PyNumber_Negative(d);
    PyObject *first = neg == NULL ? NULL : PyNumber_And(d, neg);
    PyObject *at = first == NULL ? NULL : PyNumber_And(x, first);
    int r = at == NULL ? -1 : PyObject_IsTrue(at);
    Py_XDECREF(d);
    Py_XDECREF(neg);
    Py_XDECREF(first);
    Py_XDECREF(at);
    return r;
}

/* the smallest state of g, with the variables that g skips at 0, as a new
 * reference (None for FALSE): the smaller of the picks of its low and high
 * child, the latter with g's variable set; memo maps node ids to their
 * picks, as in _kernel_py */
static PyObject *pick(Kernel *k, PyObject *memo, int32_t g)
{
    if (g == 0)
        Py_RETURN_NONE;
    if (g == 1)
        return PyLong_FromLong(0);
    PyObject *key = PyLong_FromLong(g);
    if (key == NULL)
        return NULL;
    PyObject *x = PyDict_GetItemWithError(memo, key);
    if (x != NULL || PyErr_Occurred()) {
        Py_XINCREF(x);
        Py_DECREF(key);
        return x;
    }
    Node nd = k->nodes[g];
    x = pick(k, memo, nd.low);
    PyObject *y = x == NULL ? NULL : pick(k, memo, nd.high);
    if (y == NULL) {
        Py_CLEAR(x);
    } else if (y != Py_None) {
        PyObject *one = PyLong_FromLong(1);
        PyObject *v = one == NULL ? NULL
                                  : PyLong_FromLong(k->order[nd.level >> 1]);
        PyObject *bit = v == NULL ? NULL : PyNumber_Lshift(one, v);
        PyObject *high = bit == NULL ? NULL : PyNumber_Or(y, bit);
        Py_XDECREF(one);
        Py_XDECREF(v);
        Py_XDECREF(bit);
        Py_DECREF(y);
        y = high;
        int wins = y == NULL ? -1 : x == Py_None ? 1 : precedes(y, x);
        if (wins == 1) {
            Py_DECREF(x);
            x = y;
            y = NULL;
        } else if (wins < 0) {
            Py_CLEAR(x);
        }
    }
    Py_XDECREF(y);
    if (x != NULL && PyDict_SetItem(memo, key, x) < 0)
        Py_CLEAR(x);
    Py_DECREF(key);
    return x;
}

/* -- Python argument conversion ------------------------------------------ */

static int arg_int(PyObject *o, long *out)
{
    long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int arg_node(Kernel *k, PyObject *o, int32_t *out)
{
    long v;
    if (arg_int(o, &v) < 0)
        return -1;
    if (v < 0 || v >= k->size) {
        PyErr_Format(PyExc_IndexError, "node id %ld out of range", v);
        return -1;
    }
    *out = (int32_t)v;
    return 0;
}

static int arg_parity(PyObject *o, int *out)
{
    long v;
    if (arg_int(o, &v) < 0)
        return -1;
    if (v != 0 && v != 1) {
        PyErr_SetString(PyExc_ValueError, "parity must be 0 or 1");
        return -1;
    }
    *out = (int)v;
    return 0;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

static PyObject *node_result(int32_t r)
{
    return r < 0 ? NULL : PyLong_FromLong(r);
}

/* A packed state is a Python int whose bit i holds variable i; the walks
 * read and write it as (n + 63) / 64 little-endian 64-bit words. */
static size_t state_words(const Kernel *k)
{
    return ((size_t)k->n + 63) / 64;
}

/* the words of the packed state o into w; ValueError unless 0 <= o < 2^n */
static int arg_state(Kernel *k, PyObject *o, uint64_t *w)
{
    PyObject *x = PyNumber_Index(o);
    if (x == NULL)
        return -1;
    size_t words = state_words(k);
    PyObject *rest = x, *by = PyLong_FromLong(64);
    Py_INCREF(rest);
    for (size_t i = 0; i < words && rest != NULL && by != NULL; i++) {
        w[i] = PyLong_AsUnsignedLongLongMask(rest);
        PyObject *next = PyErr_Occurred() ? NULL : PyNumber_Rshift(rest, by);
        Py_DECREF(rest);
        rest = next;
    }
    Py_XDECREF(by);
    /* a negative state keeps -1 in its rest */
    int beyond = rest == NULL || by == NULL ? -1 : PyObject_IsTrue(rest);
    Py_XDECREF(rest);
    if (beyond == 0 && k->n % 64 != 0 && (w[words - 1] >> (k->n % 64)) != 0)
        beyond = 1;
    if (beyond == 1)
        PyErr_Format(PyExc_ValueError, "state %R out of range for %d variables",
                     x, k->n);
    Py_DECREF(x);
    return beyond == 0 ? 0 : -1;
}

/* the packed state of the words w, as a new reference */
static PyObject *pack_state(const uint64_t *w, size_t words)
{
    PyObject *x = PyLong_FromUnsignedLongLong(words > 0 ? w[words - 1] : 0);
    for (size_t i = words; i > 1 && x != NULL; i--) {
        PyObject *by = PyLong_FromLong(64);
        PyObject *high = by == NULL ? NULL : PyNumber_Lshift(x, by);
        PyObject *low = high == NULL ? NULL
                                     : PyLong_FromUnsignedLongLong(w[i - 2]);
        Py_DECREF(x);
        x = low == NULL ? NULL : PyNumber_Or(high, low);
        Py_XDECREF(by);
        Py_XDECREF(high);
        Py_XDECREF(low);
    }
    return x;
}

/* -- Kernel type --------------------------------------------------------- */

static void Kernel_free_tables(Kernel *self)
{
    free(self->order);
    free(self->nodes);
    free(self->flags);
    free(self->buckets);
    free(self->cache);
    self->order = NULL;
    self->nodes = NULL;
    self->flags = NULL;
    self->buckets = NULL;
    self->cache = NULL;
}

/* out[p] = the variable at position p: the identity for None, else the
 * entries of order, a permutation of range(n) */
static int read_order(int32_t *out, int n, PyObject *order)
{
    if (order == Py_None) {
        for (int p = 0; p < n; p++)
            out[p] = p;
        return 0;
    }
    PyObject *seq = PySequence_Fast(order, "order must be a sequence");
    uint8_t *seen = seq == NULL ? NULL : calloc((size_t)n + 1, 1);
    if (seen == NULL) {
        if (seq != NULL)
            PyErr_NoMemory();
        Py_XDECREF(seq);
        return -1;
    }
    int ok = PySequence_Fast_GET_SIZE(seq) == n;
    for (int p = 0; ok == 1 && p < n; p++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, p));
        if (v == -1 && PyErr_Occurred())
            ok = -1;
        else if (v < 0 || v >= n || seen[v])
            ok = 0;
        else {
            seen[v] = 1;
            out[p] = (int32_t)v;
        }
    }
    if (ok == 0)
        PyErr_SetString(PyExc_ValueError,
                        "order must be a permutation of range(n_vars)");
    free(seen);
    Py_DECREF(seq);
    return ok == 1 ? 0 : -1;
}

static int Kernel_init(Kernel *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n_vars", "node_limit", "order", NULL};
    int n_vars;
    long long node_limit = 1LL << 24;
    PyObject *order = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "i|LO", kwlist, &n_vars,
                                     &node_limit, &order))
        return -1;
    if (n_vars < 0 || n_vars > (1 << 28)) {
        PyErr_SetString(PyExc_ValueError, "n_vars out of range");
        return -1;
    }
    Kernel_free_tables(self);
    self->order = malloc(((size_t)n_vars + 1) * sizeof(int32_t));
    if (self->order == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (read_order(self->order, n_vars, order) < 0) {
        Kernel_free_tables(self);
        return -1;
    }
    self->n = n_vars;
    self->num_levels = 2 * n_vars;
    self->node_limit = node_limit;
    self->capacity = INITIAL_SLOTS;
    self->nodes = malloc(INITIAL_SLOTS * sizeof(Node));
    self->flags = malloc(INITIAL_SLOTS);
    self->buckets = calloc(INITIAL_SLOTS, sizeof(int32_t));
    self->cache = malloc(INITIAL_SLOTS * sizeof(CacheEntry));
    if (self->nodes == NULL || self->flags == NULL || self->buckets == NULL
        || self->cache == NULL) {
        Kernel_free_tables(self);
        PyErr_NoMemory();
        return -1;
    }
    self->bucket_mask = INITIAL_SLOTS - 1;
    self->cache_mask = INITIAL_SLOTS - 1;
    cache_clear(self);
    for (int32_t t = 0; t < 2; t++) {
        self->nodes[t].level = self->num_levels;
        self->nodes[t].low = t;
        self->nodes[t].high = t;
        self->nodes[t].next = 0;
        self->flags[t] = 0;
    }
    self->size = 2;
    return 0;
}

static void Kernel_dealloc(Kernel *self)
{
    Kernel_free_tables(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int Kernel_ready(Kernel *self)
{
    if (self->nodes != NULL)
        return 0;
    PyErr_SetString(PyExc_RuntimeError, "Kernel.__init__ was not called");
    return -1;
}

static PyObject *Kernel_mk(Kernel *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    long level;
    int32_t low, high;
    if (Kernel_ready(self) < 0 || check_nargs("mk", nargs, 3) < 0
        || arg_int(args[0], &level) < 0 || arg_node(self, args[1], &low) < 0
        || arg_node(self, args[2], &high) < 0)
        return NULL;
    if (level < 0 || level >= self->num_levels) {
        PyErr_Format(PyExc_ValueError, "level %ld out of range", level);
        return NULL;
    }
    return node_result(mk(self, (int32_t)level, low, high));
}

static PyObject *Kernel_level_of(Kernel *self, PyObject *arg)
{
    int32_t f;
    if (Kernel_ready(self) < 0 || arg_node(self, arg, &f) < 0)
        return NULL;
    return PyLong_FromLong(self->nodes[f].level);
}

static PyObject *Kernel_low_of(Kernel *self, PyObject *arg)
{
    int32_t f;
    if (Kernel_ready(self) < 0 || arg_node(self, arg, &f) < 0)
        return NULL;
    return PyLong_FromLong(self->nodes[f].low);
}

static PyObject *Kernel_high_of(Kernel *self, PyObject *arg)
{
    int32_t f;
    if (Kernel_ready(self) < 0 || arg_node(self, arg, &f) < 0)
        return NULL;
    return PyLong_FromLong(self->nodes[f].high);
}

static PyObject *Kernel_num_nodes(Kernel *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLong(self->size);
}

static PyObject *Kernel_apply(Kernel *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    long op;
    int32_t f, g;
    if (Kernel_ready(self) < 0 || check_nargs("apply", nargs, 3) < 0
        || arg_int(args[0], &op) < 0)
        return NULL;
    if (op < OP_AND || op > OP_DIFF) {
        PyErr_Format(PyExc_ValueError, "unknown operation code %ld", op);
        return NULL;
    }
    if (arg_node(self, args[1], &f) < 0 || arg_node(self, args[2], &g) < 0)
        return NULL;
    return node_result(apply(self, (int)op, f, g));
}

static PyObject *Kernel_and_exists(Kernel *self, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    int parity;
    int32_t f, g;
    if (Kernel_ready(self) < 0 || check_nargs("and_exists", nargs, 3) < 0
        || arg_parity(args[0], &parity) < 0 || arg_node(self, args[1], &f) < 0
        || arg_node(self, args[2], &g) < 0)
        return NULL;
    return node_result(and_exists(self, parity, f, g));
}

static PyObject *Kernel_shift(Kernel *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    long delta;
    int32_t f;
    if (Kernel_ready(self) < 0 || check_nargs("shift", nargs, 2) < 0
        || arg_int(args[0], &delta) < 0)
        return NULL;
    if (delta != 1 && delta != -1) {
        PyErr_SetString(PyExc_ValueError, "shift delta must be +1 or -1");
        return NULL;
    }
    if (arg_node(self, args[1], &f) < 0)
        return NULL;
    return node_result(shift(self, (int)delta, f));
}

static PyObject *Kernel_has_primed(Kernel *self, PyObject *arg)
{
    int32_t f;
    if (Kernel_ready(self) < 0 || arg_node(self, arg, &f) < 0)
        return NULL;
    return PyBool_FromLong(self->flags[f] & PRIMED);
}

static PyObject *Kernel_count_states(Kernel *self, PyObject *arg)
{
    int32_t f;
    if (Kernel_ready(self) < 0 || arg_node(self, arg, &f) < 0
        || check_unprimed(self, f) < 0)
        return NULL;
    return count_states(self, f);
}

static PyObject *Kernel_pick_min_state(Kernel *self, PyObject *arg)
{
    int32_t f;
    if (Kernel_ready(self) < 0 || arg_node(self, arg, &f) < 0)
        return NULL;
    if (f == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "cannot pick a state from the empty set");
        return NULL;
    }
    if (check_unprimed(self, f) < 0)
        return NULL;
    PyObject *memo = PyDict_New();
    PyObject *x = memo == NULL ? NULL : pick(self, memo, f);
    Py_XDECREF(memo);
    return x;
}

/* the terminal that the packed state x reaches in the unprimed diagram f */
static int32_t descend(const Kernel *k, int32_t f, const uint64_t *x)
{
    while (f >= 2) {
        Node nd = k->nodes[f];
        int32_t v = k->order[nd.level >> 1];
        f = (x[v >> 6] >> (v & 63)) & 1 ? nd.high : nd.low;
    }
    return f;
}

static PyObject *Kernel_contains(Kernel *self, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    int32_t f;
    if (Kernel_ready(self) < 0 || check_nargs("contains", nargs, 2) < 0
        || arg_node(self, args[0], &f) < 0 || check_unprimed(self, f) < 0)
        return NULL;
    uint64_t *x = malloc((state_words(self) + 1) * sizeof(uint64_t));
    if (x == NULL)
        return PyErr_NoMemory();
    if (arg_state(self, args[1], x) < 0) {
        free(x);
        return NULL;
    }
    f = descend(self, f, x);
    free(x);
    return PyBool_FromLong(f);
}

/* an entry of the state walk: the node for the slots from 2i on, reached
 * with the variable at position i - 1 set to c */
typedef struct {
    int32_t g, i;
    int c;
} Visit;

/* The states that one walk lists: their packed words, `words` per state,
 * and the scratch of the walk, the state y being built and a stack of at
 * most one pending entry per variable plus two fresh ones. */
typedef struct {
    uint64_t *w;
    size_t words, len, cap;
    uint64_t *y;
    Visit *stack;
} Succ;

static int succ_init(const Kernel *k, Succ *s)
{
    *s = (Succ){NULL, state_words(k), 0, 0, NULL, NULL};
    s->y = calloc(s->words + 1, sizeof(uint64_t));
    s->stack = malloc(((size_t)k->n + 2) * sizeof(Visit));
    if (s->y != NULL && s->stack != NULL)
        return 0;
    PyErr_NoMemory();
    return -1;
}

static void succ_free(Succ *s)
{
    free(s->w);
    free(s->y);
    free(s->stack);
}

static int succ_push(Succ *s)
{
    if (s->len == s->cap) {
        size_t cap = s->cap ? 2 * s->cap : 16;
        uint64_t *w = realloc(s->w, cap * (s->words + 1) * sizeof(uint64_t));
        if (w == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        s->w = w;
        s->cap = cap;
    }
    memcpy(s->w + s->len++ * s->words, s->y, s->words * sizeof(uint64_t));
    return 0;
}

/* The packed states y of r, into s, depth-first over the levels, as
 * _kernel_py.Kernel._walk.  With x == NULL the unprimed slot of each
 * position branches.  Otherwise it follows x and the primed slot branches,
 * so the walk lists the successors of x.  A slot that branches does so also
 * where r skips it. */
static int successors_of(const Kernel *k, int32_t r, const uint64_t *x,
                         Succ *s)
{
    int n = k->n;
    uint64_t *y = s->y;
    Visit *stack = s->stack;
    s->len = 0;
    size_t top = 0;
    if (r != 0)
        stack[top++] = (Visit){r, 0, 0};
    while (top > 0) {
        Visit v = stack[--top];
        if (v.i > 0) {
            int32_t b = k->order[v.i - 1];
            uint64_t bit = 1ULL << (b & 63);
            y[b >> 6] = v.c ? y[b >> 6] | bit : y[b >> 6] & ~bit;
        }
        if (v.i == n) {
            if (succ_push(s) < 0)
                return -1;
            continue;
        }
        int32_t g = v.g, slot = 2 * v.i;
        if (x != NULL) {
            if (k->nodes[g].level == slot) {
                Node nd = k->nodes[g];
                int32_t b = k->order[v.i];
                g = (x[b >> 6] >> (b & 63)) & 1 ? nd.high : nd.low;
                if (g == 0)
                    continue;
            }
            slot++;
        }
        int32_t lo = g, hi = g;
        if (k->nodes[g].level == slot) {
            lo = k->nodes[g].low;
            hi = k->nodes[g].high;
        }
        if (hi != 0)
            stack[top++] = (Visit){hi, v.i + 1, 1};
        if (lo != 0)
            stack[top++] = (Visit){lo, v.i + 1, 0};
    }
    return 0;
}

/* the words per state that by_bits compares; the GIL serialises the
 * sorts */
static size_t sort_words;

/* the lexicographic order of the bit strings of two packed states: the
 * first variable where they differ decides, 0 first */
static int by_bits(const void *a, const void *b)
{
    const uint64_t *x = a, *y = b;
    for (size_t t = 0; t < sort_words; t++) {
        uint64_t d = x[t] ^ y[t];
        if (d != 0)
            return x[t] & d & (~d + 1) ? 1 : -1;
    }
    return 0;
}

/* the packed states that successors_of lists for r and x, as a list in
 * lexicographic order of their bit strings */
static PyObject *walk_list(const Kernel *k, int32_t r, const uint64_t *x)
{
    PyObject *out = NULL;
    Succ s;
    if (succ_init(k, &s) == 0 && successors_of(k, r, x, &s) == 0) {
        if (s.len > 1) {
            sort_words = s.words;
            qsort(s.w, s.len, s.words * sizeof(uint64_t), by_bits);
        }
        out = PyList_New((Py_ssize_t)s.len);
    }
    for (size_t i = 0; out != NULL && i < s.len; i++) {
        PyObject *state = pack_state(s.w + i * s.words, s.words);
        if (state == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, (Py_ssize_t)i, state);
    }
    succ_free(&s);
    return out;
}

static PyObject *Kernel_successors(Kernel *self, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    int32_t r;
    if (Kernel_ready(self) < 0 || check_nargs("successors", nargs, 2) < 0
        || arg_node(self, args[0], &r) < 0)
        return NULL;
    uint64_t *x = malloc((state_words(self) + 1) * sizeof(uint64_t));
    if (x == NULL)
        return PyErr_NoMemory();
    PyObject *out = arg_state(self, args[1], x) < 0 ? NULL
                                                    : walk_list(self, r, x);
    free(x);
    return out;
}

static PyObject *Kernel_states(Kernel *self, PyObject *arg)
{
    int32_t f;
    if (Kernel_ready(self) < 0 || arg_node(self, arg, &f) < 0
        || check_unprimed(self, f) < 0)
        return NULL;
    return walk_list(self, f, NULL);
}

/* -- random walks --------------------------------------------------------- *
 * The draws are the 32-bit outputs of MT19937 (Matsumoto & Nishimura, ACM
 * TOMACS 1998), seeded with init_by_array from the little-endian 32-bit
 * words of a key, as random.Random(int.from_bytes(key, "little")) seeds
 * itself, so that the walks of both kernels draw the same numbers. */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int index; /* the next output; from it on the words await their twist */
    uint32_t base[MT_N]; /* init_genrand(19650218), init_by_array's start */
    uint32_t *key;
    size_t key_cap;
} Mt;

static void mt_init(Mt *g)
{
    g->base[0] = 19650218u;
    for (int i = 1; i < MT_N; i++)
        g->base[i] = 1812433253u * (g->base[i - 1] ^ (g->base[i - 1] >> 30))
                     + (uint32_t)i;
}

/* init_by_array from the 32-bit words of the little-endian key b[0 .. len)
 * up to the highest nonzero one, or from one zero word for 0 */
static int mt_seed(Mt *g, const unsigned char *b, size_t len)
{
    while (len > 0 && b[len - 1] == 0)
        len--;
    size_t words = len > 0 ? (len + 3) / 4 : 1;
    if (words > g->key_cap) {
        uint32_t *key = realloc(g->key, words * sizeof(uint32_t));
        if (key == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        g->key = key;
        g->key_cap = words;
    }
    for (size_t j = 0; j < words; j++) {
        uint32_t w = 0;
        for (size_t i = 4 * j + 4; i > 4 * j; i--)
            w = w << 8 | (i - 1 < len ? b[i - 1] : 0u);
        g->key[j] = w;
    }
    uint32_t *mt = g->mt;
    memcpy(mt, g->base, sizeof g->mt);
    size_t i = 1, j = 0;
    for (size_t k = MT_N > words ? MT_N : words; k > 0; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525u))
                + g->key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= words)
            j = 0;
    }
    for (size_t k = MT_N - 1; k > 0; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941u))
                - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000u;
    g->index = 0;
    return 0;
}

/* The twist of word k reads word k + 1, not yet twisted, and word k + M
 * mod N, twisted iff it lies below k; so twisting each word just before
 * its output gives the words of twisting all N at once, and a walk that
 * draws a few outputs twists a few words. */
static uint32_t mt_next(Mt *g)
{
    uint32_t *mt = g->mt;
    int k = g->index;
    uint32_t y = (mt[k] & 0x80000000u)
                 | (mt[k + 1 < MT_N ? k + 1 : 0] & 0x7fffffffu);
    mt[k] = mt[k < MT_N - MT_M ? k + MT_M : k + MT_M - MT_N] ^ (y >> 1)
            ^ (y & 1u ? 0x9908b0dfu : 0u);
    g->index = k + 1 < MT_N ? k + 1 : 0;
    y = mt[k];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

/* randrange(m) for 0 < m < 2^32 as CPython draws it: the first output
 * whose top m.bit_length() bits are below m, shifted down to those bits */
static uint32_t mt_below(Mt *g, uint32_t m)
{
    int bits = 0;
    while (bits < 32 && m >> bits != 0)
        bits++;
    for (;;) {
        uint32_t v = mt_next(g) >> (32 - bits);
        if (v < m)
            return v;
    }
}

/* whether the flip a, a multiword integer, is below the flip b */
static int flip_below(const uint64_t *a, const uint64_t *b, size_t words)
{
    for (size_t i = words; i > 0; i--)
        if (a[i - 1] != b[i - 1])
            return a[i - 1] < b[i - 1];
    return 0;
}

/* The successors of x in r other than x, as flips d = x ^ y in ascending
 * order, in place of the successors in out.  Insertion sort: an async
 * state has at most n successors and a sync state one. */
static void order_flips(const uint64_t *x, Succ *out)
{
    size_t words = out->words, m = 0;
    for (size_t i = 0; i < out->len; i++) {
        uint64_t *d = out->w + m * words, any = 0;
        const uint64_t *y = out->w + i * words;
        for (size_t t = 0; t < words; t++)
            any |= d[t] = x[t] ^ y[t];
        if (any == 0)
            continue;
        uint64_t *at = d;
        while (at > out->w && flip_below(at, at - words, words)) {
            for (size_t t = 0; t < words; t++) {
                uint64_t tmp = at[t];
                at[t] = at[t - words];
                at[t - words] = tmp;
            }
            at -= words;
        }
        m++;
    }
    out->len = m;
}

/* ends[x] += 1 */
static int count_end(PyObject *ends, const uint64_t *x, size_t words)
{
    PyObject *state = pack_state(x, words);
    if (state == NULL)
        return -1;
    PyObject *old = PyDict_GetItemWithError(ends, state);
    long long c = old == NULL ? 0 : PyLong_AsLongLong(old);
    PyObject *cnt = PyErr_Occurred() ? NULL : PyLong_FromLongLong(c + 1);
    int err = cnt == NULL || PyDict_SetItem(ends, state, cnt) < 0;
    Py_DECREF(state);
    Py_XDECREF(cnt);
    return err ? -1 : 0;
}

static PyObject *Kernel_walks(Kernel *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    int32_t r, space, reach, stop;
    if (Kernel_ready(self) < 0 || check_nargs("walks", nargs, 6) < 0
        || arg_node(self, args[0], &r) < 0
        || arg_node(self, args[1], &space) < 0
        || check_unprimed(self, space) < 0
        || arg_node(self, args[2], &reach) < 0
        || check_unprimed(self, reach) < 0
        || arg_node(self, args[3], &stop) < 0
        || check_unprimed(self, stop) < 0)
        return NULL;
    if (space == 0) {
        PyErr_SetString(PyExc_ValueError, "no admissible state to start from");
        return NULL;
    }
    long long cap = PyLong_AsLongLong(args[5]);
    if (cap == -1 && PyErr_Occurred())
        return NULL;
    PyObject *keys = PyObject_GetIter(args[4]);
    if (keys == NULL)
        return NULL;
    int n = self->n;
    size_t words = state_words(self);
    unsigned long long capped = 0, steps = 0;
    PyObject *ends = PyDict_New(), *key = NULL, *result = NULL;
    Succ succ;
    uint64_t *x = calloc(words + 1, sizeof(uint64_t));
    Mt *g = calloc(1, sizeof(Mt));
    if (succ_init(self, &succ) < 0)
        goto done;
    if (ends == NULL || x == NULL || g == NULL) {
        if (ends != NULL)
            PyErr_NoMemory();
        goto done;
    }
    mt_init(g);
    while ((key = PyIter_Next(keys)) != NULL) {
        if (!PyBytes_Check(key)) {
            PyErr_Format(PyExc_TypeError, "walk key must be bytes, not %.100s",
                         Py_TYPE(key)->tp_name);
            goto done;
        }
        if (mt_seed(g, (const unsigned char *)PyBytes_AS_STRING(key),
                    (size_t)PyBytes_GET_SIZE(key)) < 0)
            goto done;
        Py_CLEAR(key);
        /* a uniform admissible start state, by rejection */
        do {
            memset(x, 0, words * sizeof(uint64_t));
            for (int i = 0; i < n; i++)
                x[i >> 6] |= (uint64_t)mt_below(g, 2) << (i & 63);
        } while (descend(self, space, x) == 0);
        long long walked = 0;
        for (;;) {
            if (descend(self, stop, x)) {
                if (count_end(ends, x, words) < 0)
                    goto done;
                break;
            }
            succ.len = 0;
            if (walked < cap && descend(self, reach, x)) {
                if (successors_of(self, r, x, &succ) < 0)
                    goto done;
                order_flips(x, &succ);
            }
            if (succ.len == 0) {
                capped++;
                break;
            }
            if (succ.len > UINT32_MAX) {
                PyErr_SetString(PyExc_OverflowError,
                                "more than 2^32 - 1 successors");
                goto done;
            }
            const uint64_t *d =
                succ.w + (size_t)mt_below(g, (uint32_t)succ.len) * words;
            for (size_t t = 0; t < words; t++)
                x[t] ^= d[t];
            walked++;
            if ((walked & 0xffff) == 0 && PyErr_CheckSignals() < 0)
                goto done;
        }
        steps += (unsigned long long)walked;
        if (PyErr_CheckSignals() < 0)
            goto done;
    }
    if (!PyErr_Occurred())
        result = Py_BuildValue("(OKK)", ends, capped, steps);
done:
    Py_XDECREF(key);
    Py_DECREF(keys);
    Py_XDECREF(ends);
    free(x);
    if (g != NULL)
        free(g->key);
    free(g);
    succ_free(&succ);
    return result;
}

static PyMethodDef Kernel_methods[] = {
    {"mk", (PyCFunction)(void (*)(void))Kernel_mk, METH_FASTCALL,
     "mk(level, low, high): the node (level, low, high), reduced."},
    {"level_of", (PyCFunction)Kernel_level_of, METH_O, NULL},
    {"low_of", (PyCFunction)Kernel_low_of, METH_O, NULL},
    {"high_of", (PyCFunction)Kernel_high_of, METH_O, NULL},
    {"num_nodes", (PyCFunction)Kernel_num_nodes, METH_NOARGS, NULL},
    {"has_primed", (PyCFunction)Kernel_has_primed, METH_O,
     "has_primed(f): whether a primed slot occurs in f."},
    {"apply", (PyCFunction)(void (*)(void))Kernel_apply, METH_FASTCALL,
     "apply(op, f, g): binary Boolean operation."},
    {"and_exists", (PyCFunction)(void (*)(void))Kernel_and_exists,
     METH_FASTCALL,
     "and_exists(parity, f, g): quantify every level of the given parity "
     "(0 = unprimed, 1 = primed) from apply(OP_AND, f, g) without building "
     "the conjunction; and_exists(parity, f, 1) quantifies f alone."},
    {"shift", (PyCFunction)(void (*)(void))Kernel_shift, METH_FASTCALL,
     "shift(delta, f): rename unprimed to primed slots (+1) or back (-1)."},
    {"count_states", (PyCFunction)Kernel_count_states, METH_O,
     "count_states(f): number of satisfying states of an unprimed diagram."},
    {"pick_min_state", (PyCFunction)Kernel_pick_min_state, METH_O,
     "pick_min_state(f): the packed state of f whose bit string is "
     "lexicographically smallest."},
    {"states", (PyCFunction)Kernel_states, METH_O,
     "states(f): the packed states of f, in lexicographic order of their "
     "bit strings."},
    {"contains", (PyCFunction)(void (*)(void))Kernel_contains, METH_FASTCALL,
     "contains(f, x): whether the packed state x (bit i = variable i) is in "
     "the unprimed diagram f."},
    {"successors", (PyCFunction)(void (*)(void))Kernel_successors,
     METH_FASTCALL,
     "successors(r, x): the packed states y with (x, y') in r, in "
     "lexicographic order of their bit strings."},
    {"walks", (PyCFunction)(void (*)(void))Kernel_walks, METH_FASTCALL,
     "walks(r, space, reach, stop, keys, cap): one random walk over r per "
     "key (bytes), as _kernel_py.Kernel.walks; returns (ends, capped, "
     "steps)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Kernel_members[] = {
    {"n", T_INT, offsetof(Kernel, n), READONLY, NULL},
    {"num_levels", T_INT, offsetof(Kernel, num_levels), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "basinscope.dd._kernel_c.Kernel",
    .tp_doc = "Kernel(n_vars, node_limit=2**24, order=None): BDD node store "
              "over 2n interleaved slots; the variable order[p] occupies "
              "levels 2p and 2p + 1.",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Kernel_init,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel_c",
    .m_doc = "Compiled reduced ordered BDD kernel; same API as _kernel_py.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    /* the exception class both kernels share */
    PyObject *errors = PyImport_ImportModule("basinscope.dd._errors");
    if (errors == NULL)
        return NULL;
    NodeLimitError = PyObject_GetAttrString(errors, "NodeLimitError");
    Py_DECREF(errors);
    if (NodeLimitError == NULL)
        return NULL;
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&KernelType);
    Py_INCREF(NodeLimitError);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0
        || PyModule_AddObject(m, "NodeLimitError", NodeLimitError) < 0
        || PyModule_AddStringConstant(m, "BACKEND", "c") < 0
        || PyModule_AddIntConstant(m, "OP_AND", OP_AND) < 0
        || PyModule_AddIntConstant(m, "OP_OR", OP_OR) < 0
        || PyModule_AddIntConstant(m, "OP_XOR", OP_XOR) < 0
        || PyModule_AddIntConstant(m, "OP_DIFF", OP_DIFF) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
