/* Compiled enumeration kernel.
 *
 * Same walk, visit order and results as _mis_fallback.py.  That module's
 * docstring describes the walk once: the pivot rule, the step that adds
 * every vertex isolated in G[P] to S, the summary's skip test, the walk per
 * component of G[within], the decision, the degree bounds and the table of
 * finished states with the rules that keep it where it pays.  This file
 * says only what is particular to C.
 *
 * Graphs arrive as sequences of per-vertex adjacency masks and must fit in
 * 64 bits, so every row and every vertex set is one uint64_t.  One loop,
 * walk(), serves every entry point, and the mode says what happens to each
 * emitted set.
 *
 * The table is an open-addressing hash table keyed by P.  Its slots start
 * at TABLE_SLOTS and double to stay at most half full, so a walk holds at
 * most 2 * TABLE_CAP slots of 32 bytes.  TABLE_MIN_ORDER, TABLE_MIN_FREE,
 * TABLE_CAP and TABLE_MIN_HITS can be set with -D: the parity tests build
 * the kernel with no table, a one-state table, a table at every node, and
 * the degree bounds in every walk with no table.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#if defined(__GNUC__) || defined(__clang__)
#define POPCNT(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)
#else
static int POPCNT(uint64_t x) { int c = 0; for (; x; x &= x - 1) ++c; return c; }
static int CTZ(uint64_t x) { int c = 0; for (; !(x & 1); x >>= 1) ++c; return c; }
#endif

enum { COLLECT, SUMMARY, DECIDE };

/* The table's constants.  All but TABLE_SLOTS default to the constants of
 * the same names in _mis_fallback, which a test checks. */
#ifndef TABLE_MIN_ORDER
#define TABLE_MIN_ORDER 24
#endif
#ifndef TABLE_MIN_FREE
#define TABLE_MIN_FREE 8
#endif
#ifndef TABLE_CAP
#define TABLE_CAP 4096
#endif
#ifndef TABLE_MIN_HITS
#define TABLE_MIN_HITS 8
#endif
#define TABLE_WINDOW 64
#define TABLE_SLOTS 64

/* S built so far, P free to join it, X excluded, candidates still to try;
 * an exit marker has no candidates and keeps lo and hi from its entry and,
 * for a state new to the table, its degree bounds */
typedef struct {
    uint64_t s, p, x, branch;
    short lo, hi, c_lo, c_hi;
} Frame;

/* A finished state (P, {}): the least and the greatest size of a
 * completion, a set T inside P with S | T emitted below the state, each
 * exact with its first witness T when w is nonzero, else a bound.  A free
 * slot has p == 0. */
typedef struct {
    uint64_t p, w_lo, w_hi;
    int c_lo, c_hi;
} Entry;

typedef struct {
    int mode;
    PyObject *out;             /* COLLECT: the emitted masks */
    int lo, hi;                /* SUMMARY, DECIDE: extreme sizes seen */
    uint64_t min_wit, max_wit; /* first set of each extreme size */
    int bounded;               /* apply the degree bounds */
    int min_free;              /* least |P| of a remembered state */
    int room;                  /* states the table may still take */
    int window, hits;          /* lookups left in this window, hits in it */
    Entry *slots;              /* the table, NULL until its first state */
    size_t mask;               /* slot count - 1 */
    int shift;                 /* 64 - log2(slot count) */
} Search;

/* 1 to stop the walk, -1 on a Python error, else 0. */
static int emit(Search *st, uint64_t s)
{
    int size = POPCNT(s);
    if (st->mode == COLLECT) {
        PyObject *v = PyLong_FromUnsignedLongLong(s);
        int err = v == NULL || PyList_Append(st->out, v) < 0;
        Py_XDECREF(v);
        return -err;
    }
    if (size < st->lo) {
        st->lo = size;
        st->min_wit = s;
    }
    if (size > st->hi) {
        st->hi = size;
        st->max_wit = s;
    }
    /* the decision stops at the second size */
    return st->mode == DECIDE && st->lo != st->hi;
}

/* The slot of state (p, {}), or the free slot where it would go. */
static Entry *slot(const Search *st, uint64_t p)
{
    /* Fibonacci hashing: the top bits of the product depend on every bit of p */
    size_t i = (size_t)((p * 0x9E3779B97F4A7C15ull) >> st->shift);
    for (;; i++) {
        Entry *e = &st->slots[i & st->mask];
        if (!e->p || e->p == p)
            return e;
    }
}

/* The entry of state (p, {}), made with bounds c_lo and c_hi if it is
 * new.  Without memory for a larger table it returns NULL and the state is
 * dropped, which only costs a later walk of its subtree. */
static Entry *store(Search *st, uint64_t p, int c_lo, int c_hi)
{
    size_t n = st->mask + 1, i;
    Entry *e, *old = st->slots;
    /* the states taken, this one included, fill at most half the slots */
    if (old == NULL || n < 2 * (size_t)(TABLE_CAP - st->room)) {
        n = old == NULL ? TABLE_SLOTS : 2 * n;
        if ((st->slots = PyMem_Calloc(n, sizeof(Entry))) == NULL) {
            st->slots = old;
            return NULL;
        }
        st->mask = n - 1;
        st->shift = 64 - CTZ(n);
        for (i = 0; old != NULL && i < n / 2; i++)
            if (old[i].p)
                *slot(st, old[i].p) = old[i];
        PyMem_Free(old);
    }
    e = slot(st, p);
    if (!e->p)
        *e = (Entry){.p = p, .c_lo = c_lo, .c_hi = c_hi};
    return e;
}

/* Stores a finished state from its exit marker. */
static void remember(Search *st, const Frame *f)
{
    int k = POPCNT(f->s);
    Entry *e = store(st, f->p, f->c_lo, f->c_hi);
    if (e == NULL)
        return;
    /* a side is exact if the subtree moved its extreme, else a bound that
     * only tightens: an exact side stays exact */
    if (st->lo < f->lo) {
        e->c_lo = st->lo - k;
        e->w_lo = st->min_wit ^ f->s;
    } else if (e->c_lo < st->lo - k) {
        e->c_lo = st->lo - k;
        e->w_lo = 0;
    }
    if (st->hi > f->hi) {
        e->c_hi = st->hi - k;
        e->w_hi = st->max_wit ^ f->s;
    } else if (e->c_hi > st->hi - k) {
        e->c_hi = st->hi - k;
        e->w_hi = 0;
    }
}

enum { SKIP, EXPAND, NEW_STATE, KNOWN_STATE };

/* Whether the summary's skip test settles a node with k vertices in S and
 * nfree in P: none of its sets is below lo or above hi.  Enumeration
 * settles none. */
static int settled(const Search *st, int k, int nfree)
{
    return st->mode != COLLECT && k + nfree <= st->hi && k + 1 >= st->lo;
}

/* Whether to expand a node with P nonempty: SKIP, EXPAND, or expand it and
 * push an exit marker that remembers it, for a NEW_STATE or a KNOWN_STATE.
 * A remembered state first applies its exact sides like emitted sets and
 * then tightens both bounds.  The summary and the decision share this;
 * enumeration expands every node. */
static int expand(Search *st, uint64_t s, uint64_t p, uint64_t x)
{
    int k, nfree, go;
    const Entry *e;
    if (st->mode == COLLECT)
        return EXPAND;
    k = POPCNT(s);
    nfree = POPCNT(p);
    if (settled(st, k, nfree))
        return SKIP;
    if (nfree < st->min_free || x)
        return EXPAND;
    e = st->slots == NULL ? NULL : slot(st, p);
    if (e == NULL || !e->p) {
        go = st->room ? NEW_STATE : EXPAND;
        st->room -= go == NEW_STATE;
    } else {
        st->hits++;
        if (e->w_lo && k + e->c_lo < st->lo) {
            st->lo = k + e->c_lo;
            st->min_wit = s | e->w_lo;
        }
        if (e->w_hi && k + e->c_hi > st->hi) {
            st->hi = k + e->c_hi;
            st->max_wit = s | e->w_hi;
        }
        go = k + e->c_hi > st->hi || k + e->c_lo < st->lo ? KNOWN_STATE : SKIP;
    }
    if (!--st->window) {
        if (st->hits < TABLE_MIN_HITS)
            st->min_free = 65;
        st->window = TABLE_WINDOW;
        st->hits = 0;
    }
    return go;
}

/* The search from P = start, X = {}.  A node pushes at most one exit marker
 * and one frame of further candidates, and its child holds at least one
 * more vertex in S, the candidate taken, after any absorbed ones.  So each
 * vertex of S accounts for at most two live frames, at most 128 in all.
 *
 * The pivot loop follows _mis_fallback's scan rule.  With X nonempty it
 * stops at the first count of 0.  With X empty, unless it gathers the
 * bounds below, it reads all of P, adds every vertex of count 1, isolated
 * in G[P], to S, and takes the first vertex of least count among the rest
 * as the pivot; the absorbed node meets the skip test again.  With X
 * nonempty absorbing could drop an excluded pivot from X and change the
 * visit order, and in the gathering loop it was measured slower.
 *
 * In a bounded walk that has seen two sizes, the pivot loop also gathers
 * the counts of _mis_fallback's degree bounds: the sum total and the
 * maximum most of c_v over P and, while the i side is open with X
 * nonempty, the maximum wide of |N[v] & (P | X)| over P. */
static int walk(const uint64_t *closed, uint64_t start, Search *st)
{
    Frame stack[128], f = {.p = start};
    int top = 0, best, pivot, c, v, go, k, most, total, wide, b_lo, b_hi, gather;
    uint64_t bu, m, cover, lone;
    for (;;) {
        f.branch = 0;
        if (f.p && (go = expand(st, f.s, f.p, f.x)) != SKIP) {
            k = POPCNT(f.s);
            gather = st->bounded && go != KNOWN_STATE && st->lo < st->hi;
            cover = gather && f.x && k + 1 < st->lo ? f.p | f.x : 0;
            most = total = wide = 0;
            best = 65;
            pivot = 0;
            lone = 0;
            if (!gather && !f.x) {
                for (m = f.p; m; m &= m - 1) {
                    v = CTZ(m);
                    c = POPCNT(closed[v] & f.p);
                    if (c == 1) {
                        lone |= m & -m;
                    } else if (c < best) {
                        best = c;
                        pivot = v;
                    }
                }
            } else {
                for (m = f.p | f.x; m && best; m &= m - 1) {
                    v = CTZ(m);
                    c = POPCNT(closed[v] & f.p);
                    if (c < best) {
                        best = c;
                        pivot = v;
                    }
                    if (gather && f.p >> v & 1) {
                        total += c;
                        if (c > most)
                            most = c;
                        if (cover && (c = POPCNT(closed[v] & cover)) > wide)
                            wide = c;
                    }
                }
            }
            /* best == 0: some excluded vertex can still join any completion */
            b_lo = 1;
            b_hi = POPCNT(f.p);
            if (gather && best) {
                total = (total - b_hi) / 2; /* the edges of G[P] */
                if (total)
                    b_hi -= (total + most - 2) / (most - 1);
                if (cover)
                    b_lo = (POPCNT(cover) + wide - 1) / wide;
                else if (!f.x)
                    b_lo = (POPCNT(f.p) + most - 1) / most;
                if (k + b_hi <= st->hi && k + b_lo >= st->lo) {
                    if (go == NEW_STATE)
                        store(st, f.p, b_lo, b_hi);
                    best = 0;
                }
            }
            if (best) {
                if (go >= NEW_STATE)
                    stack[top++] = (Frame){.s = f.s, .p = f.p, .x = f.x, .lo = st->lo,
                                           .hi = st->hi, .c_lo = b_lo, .c_hi = b_hi};
                if (lone) {
                    f.s |= lone;
                    f.p &= ~lone;
                    /* the skip test again, on the absorbed node */
                    if (!f.p || settled(st, POPCNT(f.s), POPCNT(f.p)))
                        best = 0;
                }
                if (best)
                    f.branch = closed[pivot] & f.p;
            }
        }
        /* an emitted set, with P empty from the start or after absorbing */
        if (!f.p && !f.x && (c = emit(st, f.s)) != 0)
            return c;
        while (!f.branch) {
            if (!top)
                return 0;
            f = stack[--top];
            if (!f.branch)
                remember(st, &f);
        }
        v = CTZ(f.branch);
        bu = (uint64_t)1 << v;
        f.branch ^= bu;
        if (f.branch)
            stack[top++] = (Frame){.s = f.s, .p = f.p & ~bu, .x = f.x | bu, .branch = f.branch};
        f.s |= bu;
        f.p &= ~closed[v];
        f.x &= ~closed[v];
    }
}

/* A sequence of at most 64 Python ints into rows[]: its length, or -1 with
 * an exception set. */
static Py_ssize_t load_rows(PyObject *adj, uint64_t *rows)
{
    Py_ssize_t n, v;
    PyObject *seq = PySequence_Fast(adj, "adjacency must be a sequence");
    if (seq == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n > 64) {
        PyErr_SetString(PyExc_ValueError, "kernel limited to 64 vertices");
        n = -1;
    }
    for (v = 0; v < n; v++) {
        rows[v] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, v));
        if (rows[v] == (uint64_t)-1 && PyErr_Occurred())
            n = -1; /* ends the loop */
    }
    Py_DECREF(seq);
    return n;
}

/* The closed rows of a graph: its order, or -1 with an exception set. */
static Py_ssize_t load_closed(PyObject *adj, uint64_t *closed)
{
    Py_ssize_t v, n = load_rows(adj, closed);
    for (v = 0; v < n; v++)
        closed[v] |= (uint64_t)1 << v;
    return n;
}

static uint64_t all_vertices(Py_ssize_t n)
{
    return n == 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
}

static PyObject *maximal_independent_sets(PyObject *Py_UNUSED(self), PyObject *adj)
{
    uint64_t closed[64];
    Py_ssize_t n = load_closed(adj, closed);
    Search st = {.mode = COLLECT};
    if (n < 0 || (st.out = PyList_New(0)) == NULL)
        return NULL;
    if (walk(closed, all_vertices(n), &st) < 0)
        Py_CLEAR(st.out);
    return st.out;
}

/* The length of the COLLECT list, the rule of _mis_fallback. */
static PyObject *count_maximal_independent_sets(PyObject *self, PyObject *adj)
{
    PyObject *count, *sets = maximal_independent_sets(self, adj);
    if (sets == NULL)
        return NULL;
    count = PyLong_FromSsize_t(PyList_GET_SIZE(sets));
    Py_DECREF(sets);
    return count;
}

/* Parses (adj, within=None, /) and sums the bounded walk of each connected
 * component of G[within]: the summary tuple, or for DECIDE the common size
 * or -1, which the sums give by stopping at the first component with two
 * sizes. */
static PyObject *summarize(const char *name, PyObject *const *args, Py_ssize_t nargs, int mode)
{
    uint64_t closed[64], within, comp, frontier, reach, m, min_wit = 0, max_wit = 0;
    int lo = 0, hi = 0, overflow;
    Py_ssize_t n;
    Search st = {.mode = mode};
    if (nargs < 1 || nargs > 2)
        return PyErr_Format(PyExc_TypeError, "%s() takes 1 or 2 positional arguments (%zd given)",
                            name, nargs);
    if ((n = load_closed(args[0], closed)) < 0)
        return NULL;
    within = all_vertices(n);
    if (nargs == 2 && args[1] != Py_None) {
        m = PyLong_AsUnsignedLongLong(args[1]);
        /* an int that is negative or wider than 64 bits has a bit >= n */
        overflow = m == (uint64_t)-1 && PyErr_Occurred();
        if (overflow && !PyErr_ExceptionMatches(PyExc_OverflowError))
            return NULL;
        PyErr_Clear();
        if (overflow || m & ~within)
            return PyErr_Format(PyExc_ValueError, "within mask mentions vertices >= %zd", n);
        within = m;
    }
    while (within) {
        comp = frontier = within & -within;
        while (frontier) {
            reach = 0;
            for (m = frontier; m; m &= m - 1)
                reach |= closed[CTZ(m)];
            frontier = reach & within & ~comp;
            comp |= frontier;
        }
        within &= ~comp;
        if (comp & (comp - 1)) {
            st.lo = 65;
            st.hi = -1;
            st.bounded = POPCNT(comp) >= TABLE_MIN_ORDER;
            st.min_free = st.bounded ? TABLE_MIN_FREE : 65;
            st.room = TABLE_CAP;
            st.window = TABLE_WINDOW;
            st.hits = 0;
            walk(closed, comp, &st);
            PyMem_Free(st.slots);
            st.slots = NULL;
        } else {
            /* its only maximal set */
            st.lo = st.hi = 1;
            st.min_wit = st.max_wit = comp;
        }
        lo += st.lo;
        hi += st.hi;
        min_wit |= st.min_wit;
        max_wit |= st.max_wit;
        if (mode == DECIDE && st.lo < st.hi)
            break;
    }
    if (mode == DECIDE)
        return PyLong_FromLong(lo == hi ? lo : -1);
    return Py_BuildValue("(iiKK)", lo, hi, (unsigned long long)min_wit,
                         (unsigned long long)max_wit);
}

static PyObject *independence_summary(PyObject *Py_UNUSED(self), PyObject *const *args,
                                      Py_ssize_t nargs)
{
    return summarize("independence_summary", args, nargs, SUMMARY);
}

static PyObject *well_covered_size(PyObject *Py_UNUSED(self), PyObject *const *args,
                                   Py_ssize_t nargs)
{
    return summarize("well_covered_size", args, nargs, DECIDE);
}

static PyObject *direct_product_adj(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *adj_g, *adj_h, *out, *row;
    uint64_t rows_g[64], rows_h[64], layers, m;
    Py_ssize_t ng, nh, g, h;
    if (!PyArg_ParseTuple(args, "OO:direct_product_adj", &adj_g, &adj_h))
        return NULL;
    if ((ng = PyObject_Size(adj_g)) < 0 || (nh = PyObject_Size(adj_h)) < 0)
        return NULL;
    if (ng && nh > 64 / ng) {
        PyErr_SetString(PyExc_ValueError, "product exceeds 64 vertices");
        return NULL;
    }
    if (ng * nh == 0)
        return PyList_New(0);
    if (load_rows(adj_g, rows_g) < 0 || load_rows(adj_h, rows_h) < 0)
        return NULL;
    if ((out = PyList_New(ng * nh)) == NULL)
        return NULL;
    for (g = 0; g < ng; g++) {
        layers = 0;
        for (m = rows_g[g]; m; m &= m - 1)
            layers |= (uint64_t)1 << (CTZ(m) * nh);
        for (h = 0; h < nh; h++) {
            /* each copy of rows_h[h] < 2^nh lands in its own layer block:
               no carries, and the product is exact below 2^64 */
            if ((row = PyLong_FromUnsignedLongLong(layers * rows_h[h])) == NULL) {
                Py_DECREF(out);
                return NULL;
            }
            PyList_SET_ITEM(out, g * nh + h, row);
        }
    }
    return out;
}

static PyMethodDef methods[] = {
    {"maximal_independent_sets", maximal_independent_sets, METH_O,
     "All maximal independent sets as masks, in deterministic visit order."},
    {"count_maximal_independent_sets", count_maximal_independent_sets, METH_O, NULL},
    {"independence_summary", (PyCFunction)(void (*)(void))independence_summary, METH_FASTCALL,
     "independence_summary(adj, within=None, /)\n--\n\n"
     "(i, alpha, min witness, max witness) of G[within], in G's own labels:\n"
     "the smallest and largest sizes of a maximal independent set and the\n"
     "first set of each size in visit order.  within defaults to every vertex."},
    {"well_covered_size", (PyCFunction)(void (*)(void))well_covered_size, METH_FASTCALL,
     "well_covered_size(adj, within=None, /)\n--\n\n"
     "Common maximal-set size of G[within] if well-covered, else -1; stops at\n"
     "the first component with two sizes."},
    {"direct_product_adj", direct_product_adj, METH_VARARGS,
     "Adjacency of the direct product under index (g, h) -> g*nH + h."},
    {NULL, NULL, 0, NULL},
};

/* multi-phase init: the importer names the module, it registers nothing */
static PyModuleDef_Slot slots[] = {{0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_mis_core",
    .m_doc = "Compiled enumeration kernel.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__mis_core(void)
{
    return PyModuleDef_Init(&module);
}
