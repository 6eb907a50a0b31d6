"""Pure-Python enumeration kernel.

Mirror of the compiled kernel in ``_mis_core.pyx``: same algorithm, same
visit order, same results.  Kept dependency-free so the package works on
interpreters without a C toolchain; the compiled twin is preferred at import
time by ``kernel``.

Maximal independent sets are enumerated by branch and bound on the triple
(S, P, X): S the independent set built so far, P the vertices still free to
join it, X the vertices excluded because an earlier branch already covered
them.  A set is emitted when P and X are both empty.  Branching picks an
uncovered vertex with the fewest candidates in P and tries each candidate in
its closed neighborhood, shrinking P twice per level, which is the classic
pivot rule and keeps the tree near the number of emitted sets.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def _maximal_sets(closed: list[int], s: int, p: int, x: int) -> Iterator[int]:
    if p == 0:
        if x == 0:
            yield s
        return
    cand = p | x
    best = 65
    pivot = -1
    m = cand
    while m:
        v = (m & -m).bit_length() - 1
        c = (closed[v] & p).bit_count()
        if c < best:
            best = c
            pivot = v
            if c == 0:
                break
        m &= m - 1
    if best == 0:
        # some excluded vertex can still join any completion: dead branch
        return
    branch = closed[pivot] & p
    while branch:
        u = (branch & -branch).bit_length() - 1
        bu = 1 << u
        cu = closed[u]
        yield from _maximal_sets(closed, s | bu, p & ~cu, x & ~cu)
        p &= ~bu
        x |= bu
        branch &= branch - 1


def _closed_rows(adj: Sequence[int]) -> list[int]:
    if len(adj) > 64:
        raise ValueError("kernel limited to 64 vertices")
    return [row | 1 << v for v, row in enumerate(adj)]


def maximal_independent_sets(adj: Sequence[int]) -> list[int]:
    """All maximal independent sets as masks, in deterministic visit order."""
    full = (1 << len(adj)) - 1
    return list(_maximal_sets(_closed_rows(adj), 0, full, 0))


def count_maximal_independent_sets(adj: Sequence[int]) -> int:
    full = (1 << len(adj)) - 1
    return sum(1 for _ in _maximal_sets(_closed_rows(adj), 0, full, 0))


def independence_summary(adj: Sequence[int]) -> tuple[int, int, int, int]:
    """(i, alpha, min witness, max witness) from a full enumeration."""
    full = (1 << len(adj)) - 1
    min_size, max_size = 65, -1
    min_wit = max_wit = 0
    for s in _maximal_sets(_closed_rows(adj), 0, full, 0):
        size = s.bit_count()
        if size < min_size:
            min_size, min_wit = size, s
        if size > max_size:
            max_size, max_wit = size, s
    return min_size, max_size, min_wit, max_wit


def well_covered_size(adj: Sequence[int]) -> int:
    """Common maximal-set size if well-covered, else -1; stops at the second size."""
    full = (1 << len(adj)) - 1
    first = -1
    for s in _maximal_sets(_closed_rows(adj), 0, full, 0):
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
