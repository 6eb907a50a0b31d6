"""Pure-Python enumeration kernel.

Mirror of the compiled kernel in ``_mis_core.c``: same algorithm, same
visit order, same results.  Kept dependency-free so the package works on
interpreters without a C toolchain; the compiled twin is preferred at import
time by ``kernel``.

Maximal independent sets are enumerated by branch and bound on the triple
(S, P, X): S the independent set built so far, P the vertices still free to
join it, X the vertices excluded because an earlier branch already covered
them.  A set is emitted when P and X are both empty.  Branching picks the
first vertex of P | X with the fewest candidates in P (a branch is dead
when that count is 0) and tries each candidate in its closed neighborhood in
increasing order, shrinking P twice per level, which is the classic pivot
rule and keeps the tree near the number of emitted sets.

Both kernels walk the tree in one loop over an explicit stack of
(S, P, X, remaining candidates) frames.  The stack is last in, first out and
a node's next candidate is taken only after the previous candidate's subtree
is done, so the visit order is the recursive one.  One walk, ``_walk`` like
the C kernel's ``walk``, serves every entry point.  Enumeration runs it in
collect mode: it appends every emitted set to a list, and it never skips,
tables or bounds a node, whatever the ``TABLE_*`` constants say, so it
visits the whole tree.  It does not count S or P either, since only the
summary's tests read those counts.  The count is the length of that list.
The plain walk without skips, tables or bounds, kept as the reference for
the visit order, is ``reference_maximal_sets`` in ``tests/brute.py``.

``independence_summary`` runs the same walk and skips a node with
P nonempty when |S| + |P| <= alpha-so-far and |S| + 1 >= i-so-far.  Every set
emitted below such a node strictly contains S and lies inside S | P, so none
is strictly smaller or strictly larger than a set already seen.  The
witnesses are the first strict improvements in visit order, and skipped
subtrees hold none, so (i, alpha, min witness, max witness) equal those of
the full enumeration.

A node that this test does not skip gets two tighter bounds from its pivot
loop, which counts c_v = |N[v] & P| for each v in P anyway.  A completion
of the node (S, P, X), a set T with S | T emitted below it, is a maximal
independent set of G[P] that also dominates X: an excluded vertex is
neither in S | T nor adjacent to S, since it would have left X then.

* alpha side: the vertices of P - T cover every edge of G[P], and each
  covers at most max c_v - 1 of them.  So |T| <= b_hi = |P| -
  ceil(|E(P)| / (max c_v - 1)), with |E(P)| = sum (c_v - 1) / 2.
* i side: T dominates P | X, and a vertex of T dominates at most the
  maximum over v in P of |N[v] & (P | X)| of those vertices.  So |T| >=
  b_lo = ceil(|P | X| / that maximum).  With X empty the maximum is
  max c_v.  With X nonempty it costs one more popcount per vertex of P, so
  the loop takes it only while |S| + 1 < i-so-far; otherwise b_lo = 1,
  which already closes that side.

The node is skipped when |S| + b_hi <= alpha-so-far and |S| + b_lo >=
i-so-far.  Every set below it then has a size between those two, so as
above the skipped subtree holds no strict improvement.  The bounds only
read the counts: the pivot, the candidates and the visit order stay those
of the walk without them, and so does the output.  Only walks over
components of at least ``TABLE_MIN_ORDER`` vertices, the rule the table
below follows, compute the bounds.  The summaries of the claim suite and
the CLI are almost all of fewer than 8 vertices, and there the counts cost
more than the nodes they save.  A walk also computes them only once it has
seen two sizes, i-so-far < alpha-so-far.  Before its first set nothing can
be skipped, and while every set seen has one size k a skip needs b_lo =
b_hi = k - |S|, which the counts seldom give: on a well-covered graph, and
in a decision, the walk never counts them.

The summary covers G[within], in G's own labels, and walks each connected
component of G[within] on its own, from P = that component and X = {}; a
one-vertex component is its own only maximal set.  i and alpha add up over
the components, and the witnesses are the unions of the components' ones.
Those unions are the witnesses one walk over all of G[within] finds, so the
output is the same.  Every maximal set of G[within] is a union of one
maximal set per component, and the smallest (largest) ones are the unions of
smallest (largest) ones.  Where that walk separates two unions, it branches
at a pivot of a component in which they differ, in the order the
component's own walk uses: the pivot is the first vertex of P | X with the
fewest candidates, and a candidate count only sees the pivot's own
component.  So the first smallest and first largest unions in visit order
are the unions of each component's first ones.  One walk over a product of
two connected bipartite graphs, which has two components, visits about the
product of their two trees; one walk per component visits their sum.  The
enumerating entry points keep the single walk over all of G, so their output
order does not change.

``well_covered_size`` is the same walk, stopped early.  A skipped subtree
holds no set of a size outside [i-so-far, alpha-so-far], so G[within] is
well-covered exactly when every component's walk ends with one size, and
the common size is then the sum of theirs.  Each walk stops at the first
emitted set of a second size, and the sums stop at that component.

The summary walk also remembers finished states in a table, because the
paper's products revisit them: without a table, the walk over P14 x K3
expands 2,136 nodes in only 149 distinct (P, X) states.  The completions of a node (S, P, X), the sets T
with S | T emitted below it, and their visit order depend only on (P, X),
since the pivot and the candidates read only P and X.  When a node is
expanded, an exit marker goes on the stack under its children, holding lo
and hi as they were.  When it pops, every set below the node was emitted or
lies in a skipped subtree, and a skipped subtree holds no set smaller than
the lo of its time, which is at least the current lo.  So if lo dropped
below its value at entry, lo - |S| is the least completion size and
min witness ^ S is the first completion of that size in visit order: the
side is exact.  Otherwise every completion has at least lo - |S| vertices,
and the side holds that bound.  The max side is symmetric.  A later node
(S', P, X) applies an exact side as if it emitted S' | witness, which is the
first set below it that could move lo, and only when it does.  A bound side
joins the skip test: the node is skipped when |S'| + max bound <= hi and
|S'| + min bound >= lo.  A node that is still expanded walks its subtree
again, and its marker tightens the entry; an exact side stays exact.  A
new state's entry starts from its degree bounds (b_lo, b_hi) where the walk
counts them, and from (1, |P|) otherwise; both hold for every completion.
A new state whose degree bounds skip it is stored at once as that
bound-only entry, so a revisit is settled by the table without a pivot
loop.  So (i, alpha, witnesses) stay those of the walk without a table.

The table only changes how fast the walk ends, and these rules keep it
where it pays:

* Only states with X empty are remembered, keyed by P.  Other states
  rarely repeat: on C14 x K3, 30 of 514 hits had X nonempty.
* Only in a walk over a component of at least ``TABLE_MIN_ORDER`` vertices,
  and only for states with at least ``TABLE_MIN_FREE`` free vertices.  On
  the small searches of G x Kn for graphs G of 5 and 6 vertices, a table
  costs more than the few repeats it saves.
* At most ``TABLE_CAP`` states a walk.  A full table still answers lookups.
  The largest table among the products measured (Cm x K3 and Pm x K3 up to
  63 vertices, two-cycle products up to C7 x C9) holds 1,170 states, for
  C21 x K3.  Each state costs a dict slot, a tuple and its ints, at most
  about 250 bytes, so a table stays under 1 MiB.
* The walk stops looking up states after a window of ``TABLE_WINDOW``
  lookups with fewer than ``TABLE_MIN_HITS`` hits.  On products of two
  cycles and on random graphs few states repeat, and the lookups would cost
  more than the repeats save.
"""

from __future__ import annotations

from typing import Sequence

# the table rules of the summary walk; the module docstring explains them
TABLE_MIN_ORDER = 24
TABLE_MIN_FREE = 8
TABLE_CAP = 4096
TABLE_WINDOW = 64
TABLE_MIN_HITS = 8


def _closed_rows(adj: Sequence[int]) -> list[int]:
    if len(adj) > 64:
        raise ValueError("kernel limited to 64 vertices")
    return [row | 1 << v for v, row in enumerate(adj)]


def maximal_independent_sets(adj: Sequence[int]) -> list[int]:
    """All maximal independent sets as masks, in deterministic visit order."""
    out: list[int] = []
    _walk(_closed_rows(adj), (1 << len(adj)) - 1, {}, out=out)
    return out


def count_maximal_independent_sets(adj: Sequence[int]) -> int:
    return len(maximal_independent_sets(adj))


def independence_summary(adj: Sequence[int], within: int | None = None, /) -> tuple[int, int, int, int]:
    """(i, alpha, min witness, max witness) of G[within], in G's own labels:
    the smallest and largest sizes of a maximal independent set and the first
    set of each size in visit order.  ``within`` defaults to every vertex."""
    return _summarize(adj, within, False)


def well_covered_size(adj: Sequence[int], within: int | None = None, /) -> int:
    """Common maximal-set size of G[within] if well-covered, else -1; stops
    at the first component with two sizes."""
    lo, hi, _, _ = _summarize(adj, within, True)
    return lo if lo == hi else -1


def _summarize(adj: Sequence[int], within: int | None, decide: bool) -> tuple[int, int, int, int]:
    """Sums the bounded walk of each connected component of G[within].  With
    ``decide`` a walk stops at its second size, and the sums stop at that
    component, so they then have i < alpha."""
    closed = _closed_rows(adj)
    if within is None:
        within = (1 << len(adj)) - 1
    elif within >> len(adj):
        raise ValueError(f"within mask mentions vertices >= {len(adj)}")
    lo = hi = min_wit = max_wit = 0
    while within:
        comp = frontier = within & -within
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= closed[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & within & ~comp
            comp |= frontier
        within ^= comp
        if comp & comp - 1:
            c_lo, c_hi, c_min, c_max = _walk(closed, comp, {}, decide)
        else:
            c_lo = c_hi = 1
            c_min = c_max = comp
        lo += c_lo
        hi += c_hi
        min_wit |= c_min
        max_wit |= c_max
        if decide and c_lo < c_hi:
            break
    return lo, hi, min_wit, max_wit


def _walk(
    closed: list[int],
    start: int,
    table: dict[int, tuple[int, int, int, int]],
    decide: bool = False,
    out: list[int] | None = None,
) -> tuple[int, int, int, int]:
    """The search from P = ``start``, X = {}, the one walk of every entry
    point.  Given an ``out`` list it collects: it appends every emitted set
    to ``out`` and expands every node, with no skip, table or bound.
    Otherwise it returns the summary (lo, hi, min witness, max witness),
    skipping every subtree whose sets can be neither smaller than ``lo`` nor
    larger than ``hi``.  ``table`` starts empty and ends holding the finished
    states: P -> (c_lo, w_lo, c_hi, w_hi), the least and the greatest size of
    a completion, each exact with its first witness when w is nonzero, else a
    bound.  A state first met at a node its degree bounds skip is stored at
    once as a bound-only entry, (b_lo, 0, b_hi, 0), so a revisit skips it
    without a pivot loop.  With ``decide`` the walk stops at the first
    emitted set that leaves lo < hi."""
    lo, hi = 65, -1
    min_wit = max_wit = 0
    # no state has 65 free vertices, so a small component never reads the rest
    min_free = 65
    collect = out is not None
    bounded = not collect and start.bit_count() >= TABLE_MIN_ORDER
    if bounded:
        min_free = TABLE_MIN_FREE
        get = table.get
        room = TABLE_CAP
        window, hits = TABLE_WINDOW, 0
    stack: list[tuple] = []
    push = stack.append
    pop = stack.pop
    s, p, x = 0, start, 0
    # collect mode never counts P: free keeps this value, nonzero and below
    # min_free, so every node is expanded and none is tabled
    free = 1
    while True:
        branch = 0
        if p:
            # collect expands every node without counting S and P; a summary
            # skips a node none of whose sets is below lo or above hi
            if collect or (k := s.bit_count()) + (free := p.bit_count()) > hi or k + 1 < lo:
                entry = None
                tabled = False
                if free >= min_free and not x:
                    entry = get(p)
                    if entry is not None:
                        hits += 1
                        c_lo, w_lo, c_hi, w_hi = entry
                        if w_lo and k + c_lo < lo:
                            lo, min_wit = k + c_lo, s | w_lo
                        if w_hi and k + c_hi > hi:
                            hi, max_wit = k + c_hi, s | w_hi
                        if k + c_hi <= hi and k + c_lo >= lo:
                            free = 0  # settled by the table: skip the node
                        tabled = True
                    elif room:
                        room -= 1
                        tabled = True
                        # 1 <= |T| <= |P|, unless the degree bounds are counted
                        c_lo, w_lo, c_hi, w_hi = 1, 0, free, 0
                    window -= 1
                    if not window:
                        if hits < TABLE_MIN_HITS:
                            min_free = 65
                        window, hits = TABLE_WINDOW, 0
                if free:
                    best = 65
                    pivot = -1
                    if bounded and entry is None and lo < hi:
                        # the pivot loop over P also gathers c_v = |N[v] & P|:
                        # their sum, their maximum and, while the i side is
                        # open with X nonempty, the maximum of |N[v] & (P | X)|
                        cover = p | x if x and k + 1 < lo else 0
                        total = top = wide = 0
                        m = p
                        while m:
                            v = (m & -m).bit_length() - 1
                            c = (closed[v] & p).bit_count()
                            total += c
                            if c > top:
                                top = c
                            if c < best:
                                best = c
                                pivot = v
                            if cover:
                                c = (closed[v] & cover).bit_count()
                                if c > wide:
                                    wide = c
                            m &= m - 1
                        # an excluded vertex is the pivot only if it has fewer
                        # candidates, or as many and a lower label
                        m = x
                        while m:
                            v = (m & -m).bit_length() - 1
                            c = (closed[v] & p).bit_count()
                            if c < best or c == best and v < pivot:
                                best = c
                                pivot = v
                                if c == 0:
                                    break
                            m &= m - 1
                        if best:
                            # alpha side: the |P| - |T| vertices outside a
                            # completion T cover every edge of G[P], each at
                            # most top - 1 of them
                            edges = (total - free) >> 1
                            b_hi = free
                            if edges:
                                b_hi -= (edges + top - 2) // (top - 1)
                            # i side: a completion dominates P | X
                            if cover:
                                b_lo = (cover.bit_count() + wide - 1) // wide
                            elif x:
                                b_lo = 1
                            else:
                                b_lo = (free + top - 1) // top
                            if k + b_hi <= hi and k + b_lo >= lo:
                                best = 0  # settled by the bounds: skip the node
                                if tabled:
                                    table[p] = b_lo, 0, b_hi, 0
                            elif tabled:
                                # the exit marker, under the children
                                push((s, p, (lo, hi, b_lo, 0, b_hi, 0), 0))
                    else:
                        m = p | x
                        while m:
                            v = (m & -m).bit_length() - 1
                            c = (closed[v] & p).bit_count()
                            if c < best:
                                best = c
                                pivot = v
                                if c == 0:
                                    break
                            m &= m - 1
                        if tabled:
                            push((s, p, (lo, hi, c_lo, w_lo, c_hi, w_hi), 0))
                    # best == 0: some excluded vertex can still join any
                    # completion, or the bounds settled the node
                    if best:
                        branch = closed[pivot] & p
        elif collect:
            if not x:
                out.append(s)
        elif not x:
            size = s.bit_count()
            if size < lo:
                lo, min_wit = size, s
            if size > hi:
                hi, max_wit = size, s
            if decide and lo < hi:
                return lo, hi, min_wit, max_wit
        while not branch:
            if not stack:
                return lo, hi, min_wit, max_wit
            s, p, x, branch = pop()
            if not branch:
                # an exit marker: the subtree of (P, {}) is done, and x holds
                # lo and hi on entry and the state's entry or degree bounds
                k = s.bit_count()
                lo0, hi0, c_lo, w_lo, c_hi, w_hi = x
                if lo < lo0:
                    c_lo, w_lo = lo - k, min_wit ^ s
                elif c_lo < lo - k:
                    c_lo, w_lo = lo - k, 0
                if hi > hi0:
                    c_hi, w_hi = hi - k, max_wit ^ s
                elif c_hi > hi - k:
                    c_hi, w_hi = hi - k, 0
                table[p] = c_lo, w_lo, c_hi, w_hi
        bu = branch & -branch
        cu = closed[bu.bit_length() - 1]
        branch ^= bu
        if branch:
            push((s, p & ~bu, x | bu, branch))
        s, p, x = s | bu, p & ~cu, x & ~cu


def direct_product_adj(adj_g: Sequence[int], adj_h: Sequence[int]) -> list[int]:
    """Adjacency of the direct product under index (g, h) -> g*nH + h.

    Row (g, h) is ``layers * adj_h[h]``, where ``layers`` has one bit at the
    start g'*nH of each G-layer with g' adjacent to g: each copy of
    adj_h[h] < 2**nH lands in its own layer block, so no carries occur."""
    nh = len(adj_h)
    if len(adj_g) * nh > 64:
        raise ValueError("product exceeds 64 vertices")
    out: list[int] = []
    for m in adj_g:
        layers = 0
        while m:
            low = m & -m
            layers |= 1 << (low.bit_length() - 1) * nh
            m ^= low
        out += [layers * row_h for row_h in adj_h]
    return out
