"""Independent brute-force oracles.

Everything here answers independence questions by filtering all 2^n vertex
subsets, so it shares no code path with the branch-and-bound kernels it is
used to cross-check.  Only usable for small n.  ``brute_violations`` checks
the weak-partition conditions vertex by vertex, apart from the mask algebra
of ``WeakPartition.violations``, and ``brute_min_mask`` tries all n!
relabelings where ``families`` searches for the lowest edge mask.
``brute_decode`` and ``brute_encode`` are the weak-partition codec of
G x K_n rebuilt from (g, k) pairs: decoding lists the product indices of a
set and counts them per layer, encoding lists the pairs of a partition and
checks the set in the product built from its definition.  Both raise with
the exception messages of ``kn_partitions`` and share no code with it.
``recursive_independent_sets`` is a nested-generator recursion, the
reference for the order in which the package's one-loop enumeration yields
independent sets.  ``reference_maximal_sets`` is the plain pivot walk over
maximal independent sets, with no skip, table or bound, the reference for
the order in which the kernels' one walk emits them.
``brute_perfect_matchings`` lists the fixed-point-free involutions of the
vertices, from ``itertools.permutations``, whose pairs are all edges: the
reference for the order in which ``perfect_matchings`` yields matchings.
``brute_layers_h`` and ``brute_layers_g`` lift a factor mask to the product
one (g, h) pair at a time, from the row-major index g * n_h + h.

The hypothesis strategy ``graphs`` and the networkx converter
``to_networkx`` are the test modules' shared ways to draw a graph and to
hand one to networkx.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import permutations
from typing import Iterator

import networkx as nx
from hypothesis import strategies as st

from wellcovered.graphs import Graph, from_edge_list


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


def reference_maximal_sets(closed: list[int], full: int) -> Iterator[int]:
    """The maximal independent sets of G[full], G given by its closed rows,
    in the kernels' visit order: branch on the candidates in P of the first
    vertex of P | X with the fewest, lowest candidate first."""
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


@st.composite
def graphs(draw, max_n: int, min_n: int = 0) -> Graph:
    """A graph on min_n..max_n vertices with any set of edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return from_edge_list(n, chosen)


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


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


def brute_decode(g: Graph, n: int, mask: int) -> tuple[int, tuple[int, ...], int]:
    """(V0, classes, bracket) of a set of G x K_n, from its product indices
    g*n + k counted per layer g.  Raises ValueError, with the message of
    ``partition_from_mis``, for a clique order below 2, an index outside
    the product or a layer met in a size outside {0, 1, n}."""
    if n < 2:
        raise ValueError("clique order must be at least 2")
    size = g.n * n
    if not 0 <= mask < 1 << size:
        raise ValueError(f"set has bits outside the {size} vertices of G x K_{n}")
    hits: list[list[int]] = [[] for _ in range(g.n)]
    for idx in range(size):
        if mask >> idx & 1:
            v, k = divmod(idx, n)
            hits[v].append(k)
    v0 = bracket = 0
    classes = [0] * n
    for v, ks in enumerate(hits):
        if not ks:
            v0 |= 1 << v
        elif len(ks) == n:
            bracket |= 1 << v
        elif len(ks) == 1:
            classes[ks[0]] |= 1 << v
        else:
            raise ValueError(
                f"layer over vertex {v} meets the set in {len(ks)} vertices, outside {{0, 1, {n}}}"
            )
    return v0, tuple(classes), bracket


def kn_product_adj(g: Graph, n: int) -> tuple[int, ...]:
    """Rows of G x K_n from the definition: (u, k) ~ (w, l) exactly when
    u ~ w in G and k != l, with (u, k) at index u*n + k."""
    adj = [0] * (g.n * n)
    for u in range(g.n):
        for w in range(g.n):
            if g.adj[u] >> w & 1:
                for k in range(n):
                    for l in range(n):
                        if k != l:
                            adj[u * n + k] |= 1 << w * n + l
    return tuple(adj)


def brute_encode(g: Graph, n: int, v0: int, classes: tuple[int, ...], bracket: int) -> int:
    """The set of G x K_n that a weak partition encodes, from its (g, k)
    pairs: every (g, k) for g in the bracket and (g, k - 1) for g in V_k.
    Raises ValueError with the first requirement ``brute_violations``
    reports, in the message of ``mis_from_partition``; a valid partition
    whose set is not maximal independent in the product raises
    RuntimeError."""
    bad = brute_violations(g, n, v0, classes, bracket)
    if bad:
        raise ValueError(f"invalid weak partition: {bad[0]}")
    pairs = [(v, k) for v in range(g.n) if bracket >> v & 1 for k in range(n)]
    pairs += [(v, k) for k, vk in enumerate(classes) for v in range(g.n) if vk >> v & 1]
    mask = 0
    for v, k in pairs:
        mask |= 1 << v * n + k
    if not is_maximal_independent(kn_product_adj(g, n), g.n * n, mask):
        raise RuntimeError("valid partition produced a set that is not maximal independent")
    return mask


@cache
def _involutions(n: int) -> tuple[tuple[int, ...], ...]:
    """Every fixed-point-free involution of range(n) as a partner tuple, in
    lexicographic order."""
    return tuple(
        p for p in permutations(range(n)) if all(p[v] != v and p[p[v]] == v for v in range(n))
    )


def brute_perfect_matchings(g: Graph) -> list[tuple[int, ...]]:
    """The perfect matchings of g as partner tuples, in lexicographic order:
    the fixed-point-free involutions of its vertices that pair only
    neighbors."""
    return [m for m in _involutions(g.n) if all(g.adj[v] >> u & 1 for v, u in enumerate(m))]


def brute_layers_h(n_g: int, n_h: int, i_mask: int) -> int:
    """I x V(H) as a product mask, pair by pair."""
    out = 0
    for g in range(n_g):
        if i_mask >> g & 1:
            for h in range(n_h):
                out |= 1 << g * n_h + h
    return out


def brute_layers_g(n_g: int, n_h: int, j_mask: int) -> int:
    """V(G) x J as a product mask, pair by pair."""
    out = 0
    for h in range(n_h):
        if j_mask >> h & 1:
            for g in range(n_g):
                out |= 1 << g * n_h + h
    return out
