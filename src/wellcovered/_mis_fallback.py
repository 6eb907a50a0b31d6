"""Pure-Python enumeration kernel.

Mirror of the compiled kernel in ``_mis_core.pyx``: same algorithm, same
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

The compiled kernel recurses; here the tree is walked in one loop over an
explicit stack of (S, P, X, remaining candidates) tuples, so an emitted set
costs one ``yield`` instead of one generator frame per tree level.  The stack
is last in, first out and a node's next candidate is taken only after the
previous candidate's subtree is done, so the visit order is the recursive
one.

``independence_summary`` runs the same walk inline and skips a node with
P nonempty when |S| + |P| <= alpha-so-far and |S| + 1 >= i-so-far.  Every set
emitted below such a node strictly contains S and lies inside S | P, so none
is strictly smaller or strictly larger than a set already seen.  The
witnesses are the first strict improvements in visit order, and skipped
subtrees hold none, so (i, alpha, min witness, max witness) equal those of
the full enumeration that the compiled kernel still runs.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def _maximal_sets(closed: list[int], full: int) -> Iterator[int]:
    stack: list[tuple[int, int, int, int]] = []
    push = stack.append
    pop = stack.pop
    s, p, x = 0, full, 0
    while True:
        branch = 0
        if p:
            best = 65
            pivot = -1
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
            # best == 0: some excluded vertex can still join any completion
            if best:
                branch = closed[pivot] & p
        elif not x:
            yield s
        if not branch:
            if not stack:
                return
            s, p, x, branch = pop()
        bu = branch & -branch
        cu = closed[bu.bit_length() - 1]
        branch ^= bu
        if branch:
            push((s, p & ~bu, x | bu, branch))
        s, p, x = s | bu, p & ~cu, x & ~cu


def _closed_rows(adj: Sequence[int]) -> list[int]:
    if len(adj) > 64:
        raise ValueError("kernel limited to 64 vertices")
    return [row | 1 << v for v, row in enumerate(adj)]


def maximal_independent_sets(adj: Sequence[int]) -> list[int]:
    """All maximal independent sets as masks, in deterministic visit order."""
    full = (1 << len(adj)) - 1
    return list(_maximal_sets(_closed_rows(adj), full))


def count_maximal_independent_sets(adj: Sequence[int]) -> int:
    full = (1 << len(adj)) - 1
    return sum(1 for _ in _maximal_sets(_closed_rows(adj), full))


def independence_summary(adj: Sequence[int]) -> tuple[int, int, int, int]:
    """(i, alpha, min witness, max witness): the smallest and largest sizes of
    a maximal independent set and the first set of each size in visit order.

    Walks the tree of ``_maximal_sets`` but skips every subtree whose sets can
    be neither smaller than ``lo`` nor larger than ``hi``."""
    closed = _closed_rows(adj)
    lo, hi = 65, -1
    min_wit = max_wit = 0
    stack: list[tuple[int, int, int, int]] = []
    push = stack.append
    pop = stack.pop
    s, p, x = 0, (1 << len(adj)) - 1, 0
    while True:
        branch = 0
        if p:
            k = s.bit_count()
            if k + p.bit_count() > hi or k + 1 < lo:
                best = 65
                pivot = -1
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
                if best:
                    branch = closed[pivot] & p
        elif not x:
            size = s.bit_count()
            if size < lo:
                lo, min_wit = size, s
            if size > hi:
                hi, max_wit = size, s
        if not branch:
            if not stack:
                return lo, hi, min_wit, max_wit
            s, p, x, branch = pop()
        bu = branch & -branch
        cu = closed[bu.bit_length() - 1]
        branch ^= bu
        if branch:
            push((s, p & ~bu, x | bu, branch))
        s, p, x = s | bu, p & ~cu, x & ~cu


def well_covered_size(adj: Sequence[int]) -> int:
    """Common maximal-set size if well-covered, else -1; stops at the second size."""
    full = (1 << len(adj)) - 1
    first = -1
    for s in _maximal_sets(_closed_rows(adj), full):
        size = s.bit_count()
        if first < 0:
            first = size
        elif size != first:
            return -1
    return first


def direct_product_adj(adj_g: Sequence[int], adj_h: Sequence[int]) -> list[int]:
    """Adjacency of the direct product under index (g, h) -> g*nH + h."""
    nh = len(adj_h)
    if len(adj_g) * nh > 64:
        raise ValueError("product exceeds 64 vertices")
    out = []
    for g in range(len(adj_g)):
        row_g = adj_g[g]
        neighbor_layers = 0
        m = row_g
        while m:
            gp = (m & -m).bit_length() - 1
            neighbor_layers |= 1 << gp * nh
            m &= m - 1
        for h in range(nh):
            row = 0
            m = adj_h[h]
            while m:
                hp = (m & -m).bit_length() - 1
                row |= neighbor_layers << hp
                m &= m - 1
            out.append(row)
    return out
