"""Independent brute-force oracles.

Everything here answers independence questions by filtering all 2^n vertex
subsets, so it shares no code path with the branch-and-bound kernels it is
used to cross-check.  Only usable for small n.  ``brute_violations`` checks
the weak-partition conditions vertex by vertex, apart from the mask algebra
of ``WeakPartition.violations``, and ``brute_min_mask`` tries all n!
relabelings where ``families`` searches for the lowest edge mask.
``recursive_independent_sets`` is a nested-generator recursion, the
reference for the order in which the package's one-loop enumeration yields
independent sets.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterator

from wellcovered.graphs import Graph


def is_independent(adj: tuple[int, ...], mask: int) -> bool:
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        if adj[v] & mask:
            return False
        m &= m - 1
    return True


def is_maximal_independent(adj: tuple[int, ...], n: int, mask: int) -> bool:
    if not is_independent(adj, mask):
        return False
    for v in range(n):
        if not mask >> v & 1 and not adj[v] & mask:
            return False
    return True


def brute_maximal_independent_sets(adj: tuple[int, ...], n: int) -> list[int]:
    return [m for m in range(1 << n) if is_maximal_independent(adj, n, m)]


def brute_summary(adj: tuple[int, ...], n: int) -> tuple[int, int]:
    sizes = [m.bit_count() for m in brute_maximal_independent_sets(adj, n)]
    return min(sizes), max(sizes)


def recursive_independent_sets(g: Graph) -> Iterator[int]:
    """The reference order of ``enumerate_independent_sets``: a set, then
    recursively each extension by one higher vertex that keeps it
    independent, lowest vertex first."""

    def rec(s: int, cands: int) -> Iterator[int]:
        yield s
        m = cands
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            yield from rec(s | 1 << v, m & ~g.adj[v])

    return rec(0, g.vertex_mask)


def brute_min_mask(g: Graph) -> int:
    """The lowest edge mask of G over all n! relabelings, with pair (i, j),
    i < j, numbered in lexicographic order as bit i*n - i*(i+1)/2 + j - i - 1."""
    n = g.n
    bit = {}
    for i in range(n):
        for j in range(i + 1, n):
            bit[i, j] = bit[j, i] = 1 << i * n - i * (i + 1) // 2 + j - i - 1
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.adj[u] >> v & 1]
    return min(sum(bit[p[u], p[v]] for u, v in edges) for p in permutations(range(n)))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def brute_violations(
    g: Graph, n: int, v0: int, classes: tuple[int, ...], bracket: int
) -> list[str]:
    """The requirements a weak partition (V0, classes, bracket) of G breaks,
    checked vertex by vertex from the four conditions of ``kn_partitions``,
    reported in the order and wording of ``WeakPartition.violations``."""
    out = []
    if n < 2:
        out.append("clique order below 2")
    if len(classes) != n:
        out.append(f"expected {n} classes, got {len(classes)}")
        return out
    parts = [v0, *classes, bracket]
    top = max(g.n, *(p.bit_length() for p in parts))
    if any(sum(p >> v & 1 for p in parts) > 1 for v in range(top)):
        out.append("disjointness")
    missing = any(not any(p >> v & 1 for p in parts) for v in range(g.n))
    stray = any(p >> v & 1 for p in parts for v in range(g.n, top))
    if missing or stray:
        out.append("cover")
    if stray:
        return out

    def members(mask: int) -> list[int]:
        return [v for v in range(g.n) if mask >> v & 1]

    def adjacent(u: int, w: int) -> bool:
        return bool(g.adj[u] >> w & 1)

    if any(
        adjacent(u, w) and not v0 >> w & 1 and not vk >> w & 1
        for vk in classes
        for u in members(vk)
        for w in range(g.n)
    ):
        out.append("condition 1")
    if any(
        not any(adjacent(u, w) for w in members(vk)) for vk in classes for u in members(vk)
    ):
        out.append("condition 2")
    if any(adjacent(u, w) for u in members(bracket) for w in members(bracket)):
        out.append("condition 3")
    for u in members(v0):
        if any(adjacent(u, w) for w in members(bracket)):
            continue
        if sum(1 for vk in classes if any(adjacent(u, w) for w in members(vk))) < 2:
            out.append("condition 4")
            break
    return out
