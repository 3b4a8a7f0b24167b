/* Compiled reduced ordered BDD kernel; same API and node ids as _kernel_py.
 *
 * Nodes live in one array of (level, low, high, next) records; `next` chains
 * the unique table, whose bucket array doubles whenever it holds as many
 * nodes as buckets.  All operations share one direct-mapped computed table
 * (as in CUDD): a colliding store overwrites the old entry.  Recomputing an
 * evicted entry only revisits nodes that already exist, so node ids are the
 * same as with the unbounded caches of the pure-Python kernel.  The computed
 * table grows with the unique table up to CACHE_MAX_SLOTS entries, keeping
 * its entries.  A parallel byte array of flags records, per node, whether a
 * primed slot occurs at or below it, so that the state-level walks reject
 * primed diagrams in O(1).  The variable order[p] occupies levels 2p
 * (unprimed) and 2p + 1 (primed); the order defaults to declaration order.
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

/* -- unique table -------------------------------------------------------- */

static inline uint32_t node_hash(int32_t level, int32_t low, int32_t high)
{
    return hash3((uint32_t)level, (uint32_t)low, (uint32_t)high);
}

/* Double the bucket array and, below its cap, the computed table, which
 * keeps its entries: node ids are stable, so each stays valid in its old slot
 * or that plus the old size.  On allocation failure the old tables stay in
 * use: longer chains and more evictions cost time, not correctness. */
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
        CacheEntry *cache = realloc(k->cache,
                                    (size_t)slots * sizeof(CacheEntry));
        if (cache != NULL) {
            uint32_t old = k->cache_mask + 1;
            memset(cache + old, 0xFF,
                   (size_t)(slots - old) * sizeof(CacheEntry));
            k->cache = cache;
            k->cache_mask = slots - 1;
            for (uint32_t i = 0; i < old; i++) {
                CacheEntry *e = &cache[i];
                if (e->f >= 0 && hash3(e->tag, (uint32_t)e->f,
                                       (uint32_t)e->g) & old) {
                    cache[i + old] = *e;
                    e->f = -1;
                }
            }
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

/* -- folds over machine words --------------------------------------------- *
 * count_states and pick_min_state fold a value of a few 64-bit words
 * bottom-up over an unprimed diagram, as _kernel_py.Kernel._fold folds
 * Python ints: each node's value combines its children's.  A per-call memo,
 * open-addressed and keyed by node id, keeps every value, so each node is
 * folded once, and an explicit stack keeps deep diagrams off the C stack. */

enum { FOLD_COUNT, FOLD_PICK };

typedef struct {
    const Kernel *k;
    int kind;
    size_t words;    /* per value */
    uint64_t *term;  /* the values of FALSE and TRUE */
    int32_t *ids;    /* the node in each bucket, -1 for none */
    uint64_t *val;   /* the value of bucket b at val + b * words */
    size_t mask, len;
    int32_t *stack;
    size_t top, stack_cap;
} Fold;

/* the bucket of node g: where it is, or the free one where it goes */
static size_t fold_bucket(const Fold *m, int32_t g)
{
    size_t b = ((uint32_t)g * 2654435761u) & m->mask;
    while (m->ids[b] != g && m->ids[b] >= 0)
        b = (b + 1) & m->mask;
    return b;
}

/* the value of node g, or NULL while it is not folded */
static const uint64_t *fold_value(const Fold *m, int32_t g)
{
    if (g < 2)
        return m->term + (size_t)g * m->words;
    size_t b = fold_bucket(m, g);
    return m->ids[b] == g ? m->val + b * m->words : NULL;
}

/* empty buckets for `slots` nodes, their values moved over from m's */
static int fold_rehash(Fold *m, size_t slots)
{
    int32_t *ids = malloc(slots * sizeof(int32_t));
    uint64_t *val = malloc(slots * m->words * sizeof(uint64_t));
    if (ids == NULL || val == NULL) {
        free(ids);
        free(val);
        PyErr_NoMemory();
        return -1;
    }
    memset(ids, 0xFF, slots * sizeof(int32_t));
    Fold old = *m;
    m->ids = ids;
    m->val = val;
    m->mask = slots - 1;
    for (size_t b = 0; old.ids != NULL && b <= old.mask; b++) {
        if (old.ids[b] < 0)
            continue;
        size_t to = fold_bucket(m, old.ids[b]);
        ids[to] = old.ids[b];
        memcpy(val + to * m->words, old.val + b * m->words,
               m->words * sizeof(uint64_t));
    }
    free(old.ids);
    free(old.val);
    return 0;
}

/* the value of node g into out from those of its children */
static void fold_node(const Fold *m, int32_t g, const uint64_t *lo,
                      const uint64_t *hi, uint64_t *out)
{
    size_t words = m->words;
    if (m->kind == FOLD_COUNT) {
        /* g's variable is 0 in half of low's states and 1 in half of
         * high's: (lo + hi) >> 1, carried across the words.  Neither count
         * reaches 2^n unless both are TRUE, so the sum fits n + 1 bits. */
        uint64_t carry = 0;
        for (size_t t = 0; t < words; t++) {
            uint64_t s = lo[t] + carry;
            carry = s < carry;
            s += hi[t];
            carry += s < hi[t];
            out[t] = s;
        }
        for (size_t t = 0; t < words; t++)
            out[t] = out[t] >> 1 | (t + 1 < words ? out[t + 1] << 63 : 0);
        return;
    }
    /* the smaller of low's pick and high's with g's variable set: the first
     * variable at which the two differ decides, 0 first */
    Node nd = m->k->nodes[g];
    if (nd.high == 0) {
        memcpy(out, lo, words * sizeof(uint64_t));
        return;
    }
    int32_t v = m->k->order[nd.level >> 1];
    memcpy(out, hi, words * sizeof(uint64_t));
    out[v >> 6] |= 1ULL << (v & 63);
    for (size_t t = 0; nd.low != 0 && t < words; t++) {
        uint64_t d = lo[t] ^ out[t];
        if (d != 0) {
            if ((lo[t] & d & (~d + 1)) == 0)
                memcpy(out, lo, words * sizeof(uint64_t));
            return;
        }
    }
}

/* The value of f as a new reference: its number of states over the n
 * variables, in (n + 64) / 64 words, or its smallest state, in
 * state_words(k) words (at least one). */
static PyObject *fold(const Kernel *k, int kind, int32_t f)
{
    size_t words = kind == FOLD_COUNT ? ((size_t)k->n + 64) / 64
                                      : state_words(k) + (k->n == 0);
    Fold m = {k, kind, words, NULL, NULL, NULL, 0, 0, NULL, 0, 64};
    PyObject *res = NULL;
    m.term = calloc(2 * words, sizeof(uint64_t));
    m.stack = malloc(m.stack_cap * sizeof(int32_t));
    if (m.term == NULL || m.stack == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (fold_rehash(&m, 64) < 0)
        goto done;
    /* TRUE has all 2^n states and picks the state 0 */
    if (kind == FOLD_COUNT)
        m.term[words + (size_t)k->n / 64] = 1ULL << (k->n % 64);
    if (f >= 2)
        m.stack[m.top++] = f;
    while (m.top > 0) {
        /* at most half full, so that probes stay short */
        if (2 * (m.len + 1) > m.mask + 1
            && fold_rehash(&m, 2 * (m.mask + 1)) < 0)
            goto done;
        int32_t g = m.stack[m.top - 1];
        size_t b = fold_bucket(&m, g);
        if (m.ids[b] == g) {
            m.top--;
            continue;
        }
        Node nd = k->nodes[g];
        const uint64_t *lo = fold_value(&m, nd.low);
        const uint64_t *hi = fold_value(&m, nd.high);
        if (lo != NULL && hi != NULL) {
            fold_node(&m, g, lo, hi, m.val + b * words);
            m.ids[b] = g;
            m.len++;
            m.top--;
            continue;
        }
        if (m.top + 2 > m.stack_cap) {
            int32_t *stack =
                realloc(m.stack, 2 * m.stack_cap * sizeof(int32_t));
            if (stack == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            m.stack = stack;
            m.stack_cap *= 2;
        }
        if (lo == NULL)
            m.stack[m.top++] = nd.low;
        if (hi == NULL)
            m.stack[m.top++] = nd.high;
    }
    res = pack_state(fold_value(&m, f), words);
done:
    free(m.term);
    free(m.ids);
    free(m.val);
    free(m.stack);
    return res;
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
    memset(self->cache, 0xFF, INITIAL_SLOTS * sizeof(CacheEntry));
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
    return fold(self, FOLD_COUNT, f);
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
    return fold(self, FOLD_PICK, f);
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

/* the diagram of the packed state x alone, built bottom-up */
static PyObject *Kernel_cube(Kernel *self, PyObject *arg)
{
    if (Kernel_ready(self) < 0)
        return NULL;
    uint64_t *x = malloc((state_words(self) + 1) * sizeof(uint64_t));
    if (x == NULL)
        return PyErr_NoMemory();
    int32_t acc = arg_state(self, arg, x) < 0 ? -1 : 1;
    for (int p = self->n - 1; p >= 0 && acc >= 0; p--) {
        int32_t v = self->order[p];
        acc = (x[v >> 6] >> (v & 63)) & 1 ? mk(self, 2 * p, 0, acc)
                                          : mk(self, 2 * p, acc, 0);
    }
    free(x);
    return node_result(acc);
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
 * itself, so that the walks of both kernels draw the same numbers.  The
 * keys of LANES walks are seeded together (mt_seed_lanes); a key of more
 * than MT_N words is seeded on its own (mt_seed). */

#define MT_N 624
#define MT_M 397
#define LANES 8

typedef struct {
    uint32_t mt[MT_N];
    int index; /* the next output; from it on the words await their twist */
    uint32_t base[MT_N]; /* init_genrand(19650218), init_by_array's start */
    uint32_t *key; /* scratch for the words of a key */
    size_t key_cap;
    uint32_t lane[MT_N][LANES]; /* the words of LANES generators */
    uint32_t add[MT_N][LANES]; /* what each step of the first loop adds */
} Mt;

static void mt_init(Mt *g)
{
    g->base[0] = 19650218u;
    for (int i = 1; i < MT_N; i++)
        g->base[i] = 1812433253u * (g->base[i - 1] ^ (g->base[i - 1] >> 30))
                     + (uint32_t)i;
}

/* the 32-bit words of the little-endian key b[0 .. len) up to the highest
 * nonzero one, or one zero word for 0, into g->key; returns their number,
 * or 0 with an exception set */
static size_t mt_key(Mt *g, PyObject *key)
{
    const unsigned char *b = (const unsigned char *)PyBytes_AS_STRING(key);
    size_t len = (size_t)PyBytes_GET_SIZE(key);
    while (len > 0 && b[len - 1] == 0)
        len--;
    size_t words = len > 0 ? (len + 3) / 4 : 1;
    if (words > g->key_cap) {
        uint32_t *w = realloc(g->key, words * sizeof(uint32_t));
        if (w == NULL) {
            PyErr_NoMemory();
            return 0;
        }
        g->key = w;
        g->key_cap = words;
    }
    for (size_t j = 0; j < words; j++) {
        uint32_t w = 0;
        for (size_t i = 4 * j + 4; i > 4 * j; i--)
            w = w << 8 | (i - 1 < len ? b[i - 1] : 0u);
        g->key[j] = w;
    }
    return words;
}

/* init_by_array from the first `words` words of g->key */
static void mt_seed(Mt *g, size_t words)
{
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
}

/* one step of init_by_array's loops on every lane */
static inline void mt_lanes_step(uint32_t *restrict cur,
                                 const uint32_t *restrict prev, uint32_t mul,
                                 const uint32_t *restrict add, uint32_t sub)
{
    for (int l = 0; l < LANES; l++)
        cur[l] = ((cur[l] ^ ((prev[l] ^ (prev[l] >> 30)) * mul)) + add[l])
                 - sub;
}

/* init_by_array for the keys[0 .. m), m <= LANES, into g->lane.  For a key
 * of at most MT_N words both loops take the same steps, MT_N and MT_N - 1;
 * only the first adds the key's words, cycled, each plus its index.  So
 * with those sums laid out per step in g->add, every step is the same for
 * all lanes, and the compiler can run the lanes side by side.  Returns the
 * mask of the lanes whose keys are longer, left to mt_seed, or -1 with an
 * exception set. */
static int mt_seed_lanes(Mt *g, PyObject *const *keys, int m)
{
    int longer = 0;
    for (int l = 0; l < LANES; l++) {
        size_t words = 0;
        if (l < m && (words = mt_key(g, keys[l])) == 0)
            return -1;
        if (words > MT_N)
            longer |= 1 << l;
        if (words == 0 || words > MT_N) {
            /* a spare lane, or a longer key's, adds zeros */
            for (int k = 0; k < MT_N; k++)
                g->add[k][l] = 0;
            continue;
        }
        for (size_t j = 0; j < words; j++)
            g->key[j] += (uint32_t)j; /* what step j adds */
        for (size_t k = 0; k < MT_N; k += words)
            for (size_t j = 0; j < words && k + j < MT_N; j++)
                g->add[k + j][l] = g->key[j];
    }
    uint32_t (*mt)[LANES] = g->lane;
    for (int i = 0; i < MT_N; i++)
        for (int l = 0; l < LANES; l++)
            mt[i][l] = g->base[i];
    int i = 1;
    for (int k = 0; k < MT_N; k++) {
        mt_lanes_step(mt[i], mt[i - 1], 1664525u, g->add[k], 0);
        if (++i >= MT_N) {
            memcpy(mt[0], mt[MT_N - 1], sizeof mt[0]);
            i = 1;
        }
    }
    static const uint32_t none[LANES];
    for (int k = MT_N - 1; k > 0; k--) {
        mt_lanes_step(mt[i], mt[i - 1], 1566083941u, none, (uint32_t)i);
        if (++i >= MT_N) {
            memcpy(mt[0], mt[MT_N - 1], sizeof mt[0]);
            i = 1;
        }
    }
    for (int l = 0; l < LANES; l++)
        mt[0][l] = 0x80000000u;
    return longer;
}

/* draw from here on with the generator of lane l */
static void mt_take_lane(Mt *g, int l)
{
    for (int i = 0; i < MT_N; i++)
        g->mt[i] = g->lane[i][l];
    g->index = 0;
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

/* -- the walks' step memo ------------------------------------------------- *
 * Within one walks call, the memo keeps for each state that a walk visits
 * whether it lies in stop, and its flips in ascending order (none outside
 * reach), so that a later visit takes its step without walking the
 * relation again.  It adds no state whose words would take it past
 * WALK_MEMO_WORDS words of states and flips, nor one it has no memory
 * for; such a state's step is computed at every visit. */

#ifndef WALK_MEMO_WORDS
#define WALK_MEMO_WORDS (1 << 18)
#endif

typedef struct {
    uint32_t at; /* the state and then its flips, from arena + at */
    uint32_t flips;
    int stop; /* -1 in a free bucket */
} Step;

typedef struct {
    size_t words; /* per state, at least one */
    Step *table;
    size_t mask, len;
    uint64_t *arena;
    size_t used, cap;
} Steps;

static int steps_init(Steps *m, size_t words)
{
    size_t slots = 256;
    *m = (Steps){words > 0 ? words : 1, malloc(slots * sizeof(Step)),
                 slots - 1, 0, NULL, 0, 0};
    if (m->table == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t b = 0; b < slots; b++)
        m->table[b].stop = -1;
    return 0;
}

static void steps_free(Steps *m)
{
    free(m->table);
    free(m->arena);
}

/* the bucket of state x: its entry, or the free bucket where it goes */
static size_t steps_bucket(const Steps *m, const uint64_t *x)
{
    uint64_t h = 0;
    for (size_t t = 0; t < m->words; t++)
        h = (h ^ x[t]) * 0x9E3779B97F4A7C15ULL;
    size_t b = (size_t)(h >> 32) & m->mask;
    while (m->table[b].stop >= 0
           && memcmp(m->arena + m->table[b].at, x,
                     m->words * sizeof(uint64_t)) != 0)
        b = (b + 1) & m->mask;
    return b;
}

/* the state x, in stop or not, with its n flips, unless it does not fit */
static void steps_add(Steps *m, const uint64_t *x, int stop,
                      const uint64_t *flips, size_t n)
{
    size_t words = m->words, need = (1 + n) * words;
    if (need > WALK_MEMO_WORDS - m->used)
        return;
    if (m->used + need > m->cap) {
        size_t cap = m->used + need > 2 * m->cap ? m->used + need : 2 * m->cap;
        cap = cap < WALK_MEMO_WORDS ? cap : WALK_MEMO_WORDS;
        uint64_t *arena = realloc(m->arena, cap * sizeof(uint64_t));
        if (arena == NULL)
            return;
        m->arena = arena;
        m->cap = cap;
    }
    /* at most half full, so that probes stay short */
    if (2 * (m->len + 1) > m->mask + 1) {
        size_t slots = 2 * (m->mask + 1);
        Step *table = malloc(slots * sizeof(Step));
        if (table == NULL)
            return;
        Steps old = *m;
        m->table = table;
        m->mask = slots - 1;
        for (size_t b = 0; b < slots; b++)
            table[b].stop = -1;
        for (size_t b = 0; b <= old.mask; b++)
            if (old.table[b].stop >= 0)
                table[steps_bucket(m, m->arena + old.table[b].at)] =
                    old.table[b];
        free(old.table);
    }
    uint64_t *at = m->arena + m->used;
    memcpy(at, x, words * sizeof(uint64_t));
    if (n > 0)
        memcpy(at + words, flips, n * words * sizeof(uint64_t));
    m->table[steps_bucket(m, x)] =
        (Step){(uint32_t)m->used, (uint32_t)n, stop};
    m->used += need;
    m->len++;
}

/* what one walks call shares between its walks */
typedef struct {
    int32_t r, space, reach, stop;
    long long cap;
    size_t words; /* per state */
    uint64_t *x;
    Mt *g;
    Succ succ;
    Steps memo;
    PyObject *ends;
    unsigned long long capped, steps;
} Walks;

/* one walk, drawing from w->g */
static int walk(const Kernel *k, Walks *w)
{
    size_t words = w->words;
    uint64_t *x = w->x;
    /* a uniform admissible start state, by rejection */
    do {
        memset(x, 0, words * sizeof(uint64_t));
        for (int i = 0; i < k->n; i++)
            x[i >> 6] |= (uint64_t)mt_below(w->g, 2) << (i & 63);
    } while (descend(k, w->space, x) == 0);
    long long walked = 0;
    for (;;) {
        Step e = w->memo.table[steps_bucket(&w->memo, x)];
        const uint64_t *flips;
        size_t n = e.flips;
        if (e.stop >= 0) {
            flips = w->memo.arena + e.at + w->memo.words;
        } else {
            e.stop = descend(k, w->stop, x) != 0;
            w->succ.len = 0;
            if (!e.stop && descend(k, w->reach, x)) {
                if (successors_of(k, w->r, x, &w->succ) < 0)
                    return -1;
                order_flips(x, &w->succ);
            }
            flips = w->succ.w;
            n = w->succ.len;
            steps_add(&w->memo, x, e.stop, flips, n);
        }
        if (e.stop) {
            if (count_end(w->ends, x, words) < 0)
                return -1;
            break;
        }
        if (walked >= w->cap || n == 0) {
            w->capped++;
            break;
        }
        if (n > UINT32_MAX) {
            PyErr_SetString(PyExc_OverflowError,
                            "more than 2^32 - 1 successors");
            return -1;
        }
        const uint64_t *d =
            flips + (size_t)mt_below(w->g, (uint32_t)n) * words;
        for (size_t t = 0; t < words; t++)
            x[t] ^= d[t];
        walked++;
        if ((walked & 0xffff) == 0 && PyErr_CheckSignals() < 0)
            return -1;
    }
    w->steps += (unsigned long long)walked;
    return PyErr_CheckSignals();
}

static PyObject *Kernel_walks(Kernel *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    Walks w = {0};
    if (Kernel_ready(self) < 0 || check_nargs("walks", nargs, 6) < 0
        || arg_node(self, args[0], &w.r) < 0
        || arg_node(self, args[1], &w.space) < 0
        || check_unprimed(self, w.space) < 0
        || arg_node(self, args[2], &w.reach) < 0
        || check_unprimed(self, w.reach) < 0
        || arg_node(self, args[3], &w.stop) < 0
        || check_unprimed(self, w.stop) < 0)
        return NULL;
    if (w.space == 0) {
        PyErr_SetString(PyExc_ValueError, "no admissible state to start from");
        return NULL;
    }
    w.cap = PyLong_AsLongLong(args[5]);
    if (w.cap == -1 && PyErr_Occurred())
        return NULL;
    PyObject *keys = PyObject_GetIter(args[4]);
    if (keys == NULL)
        return NULL;
    PyObject *batch[LANES], *result = NULL;
    int m = 0;
    w.words = state_words(self);
    w.ends = PyDict_New();
    w.x = calloc(w.words + 1, sizeof(uint64_t));
    w.g = calloc(1, sizeof(Mt));
    if (succ_init(self, &w.succ) < 0 || steps_init(&w.memo, w.words) < 0)
        goto done;
    if (w.ends == NULL || w.x == NULL || w.g == NULL) {
        if (w.ends != NULL)
            PyErr_NoMemory();
        goto done;
    }
    mt_init(w.g);
    for (;;) {
        while (m < LANES && (batch[m] = PyIter_Next(keys)) != NULL) {
            if (!PyBytes_Check(batch[m++])) {
                PyErr_Format(PyExc_TypeError,
                             "walk key must be bytes, not %.100s",
                             Py_TYPE(batch[m - 1])->tp_name);
                goto done;
            }
        }
        if (m == 0 || PyErr_Occurred())
            break;
        int longer = mt_seed_lanes(w.g, batch, m);
        if (longer < 0)
            goto done;
        for (int l = 0; l < m; l++) {
            if (longer >> l & 1) {
                size_t words = mt_key(w.g, batch[l]);
                if (words == 0)
                    goto done;
                mt_seed(w.g, words);
            } else {
                mt_take_lane(w.g, l);
            }
            if (walk(self, &w) < 0)
                goto done;
        }
        while (m > 0)
            Py_DECREF(batch[--m]);
    }
    if (!PyErr_Occurred())
        result = Py_BuildValue("(OKK)", w.ends, w.capped, w.steps);
done:
    while (m > 0)
        Py_DECREF(batch[--m]);
    Py_DECREF(keys);
    Py_XDECREF(w.ends);
    free(w.x);
    if (w.g != NULL)
        free(w.g->key);
    free(w.g);
    succ_free(&w.succ);
    steps_free(&w.memo);
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
    {"cube", (PyCFunction)Kernel_cube, METH_O,
     "cube(x): the diagram of the packed state x alone."},
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
