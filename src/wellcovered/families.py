"""Named graph families and exhaustive small-graph corpora.

Family generators are deterministic, including vertex order.  The corpus
streams every labeled simple graph up to a vertex bound in (n, edge-mask)
order; a companion generator yields one representative per isomorphism
class, which keeps pair scans tractable while deciding exactly the same
isomorphism-invariant questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    complement,
    components,
    from_edge_list,
    is_complete,
    is_connected,
)

MAX_EXHAUSTIVE_N = 7


def _check_order(n: int) -> None:
    """Reject an order beyond the 64-vertex cap before anything is built."""
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceed the {MAX_VERTICES}-vertex limit")


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be nonnegative")
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    _check_order(n)
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("paths need at least 1 vertex")
    _check_order(n)
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def complete_multipartite(sizes: list[int]) -> Graph:
    """Complete multipartite graph; parts in the given order, vertices grouped."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    _check_order(n)
    part_of = []
    for idx, s in enumerate(sizes):
        part_of.extend([idx] * s)
    adj = []
    for v in range(n):
        row = 0
        for u in range(n):
            if part_of[u] != part_of[v]:
                row |= 1 << u
        adj.append(row)
    return Graph(n, tuple(adj))


def h_family(k: int, n: int) -> Graph:
    """The split graph on a clique of k blocks of size n plus one z-vertex
    per block: z_i's open neighborhood is exactly block A_i.

    Vertices 0..k*n-1 are the clique in block order, then z_1..z_k.
    """
    if k < 1 or n < 1:
        raise ValueError("both parameters must be positive")
    order = k * (n + 1)
    _check_order(order)
    kn = k * n
    edges = [(u, v) for u in range(kn) for v in range(u + 1, kn)]
    for i in range(k):
        z = kn + i
        edges.extend((z, i * n + j) for j in range(n))
    return from_edge_list(order, edges)


def corona_with_k1(k: int) -> Graph:
    """Complete graph K_k with one pendant leaf per vertex."""
    return h_family(k, 1)


def h_family_params(g: Graph) -> tuple[int, int] | None:
    """Recover (k, n) if the graph is an H-family member, else None.

    Label-independent: complete graphs of order >= 2 are the k=1 case; for
    k >= 2 the z-vertices are the minimum-degree vertices and their
    neighborhoods must partition the remaining clique into equal blocks.
    """
    if g.n < 2:
        return None
    if is_complete(g):
        return 1, g.n - 1
    degs = [g.degree(v) for v in range(g.n)]
    n = min(degs)
    if n < 1:
        return None
    z = [v for v in range(g.n) if degs[v] == n]
    k = len(z)
    if k < 2 or g.n != k * (n + 1):
        return None
    z_mask = sum(1 << v for v in z)
    if any(g.adj[v] & z_mask for v in z):
        return None
    clique = g.vertex_mask & ~z_mask
    for v in range(g.n):
        if not z_mask >> v & 1 and (g.adj[v] | 1 << v) & clique != clique:
            return None
    covered = 0
    for v in z:
        block = g.adj[v]
        if block & z_mask or block & covered:
            return None
        covered |= block
    if covered != clique:
        return None
    return k, n


def multipartite_params(g: Graph) -> tuple[int, int] | None:
    """Recover (m, r) if the graph is complete m-partite with equal parts of
    size r, else None.  Checked on the complement: m disjoint cliques K_r."""
    if g.n == 0:
        return None
    comp = complement(g)
    parts = components(comp)
    r = parts[0].bit_count()
    for p in parts:
        if p.bit_count() != r:
            return None
        for v in range(g.n):
            if p >> v & 1 and (comp.adj[v] | 1 << v) != p:
                return None
    return len(parts), r


def _pair_positions(n: int) -> dict[tuple[int, int], int]:
    pos = {}
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            pos[(i, j)] = p
            p += 1
    return pos


def _graph_from_mask(n: int, mask: int, pairs: list[tuple[int, int]]) -> Graph:
    adj = [0] * n
    m = mask
    while m:
        p = (m & -m).bit_length() - 1
        i, j = pairs[p]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        m &= m - 1
    return Graph(n, tuple(adj))


def corpus(max_n: int, connected_only: bool = True) -> Iterator[Graph]:
    """Every labeled simple graph with 1..max_n vertices, in (n, edge-mask)
    order.  Exhaustive only up to 7 vertices; beyond that the labeled count
    is out of desk range."""
    if max_n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"exhaustive corpus capped at {MAX_EXHAUSTIVE_N} vertices")
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            g = _graph_from_mask(n, mask, pairs)
            if connected_only and not is_connected(g):
                continue
            yield g


def corpus_representatives(max_n: int, connected_only: bool = True) -> Iterator[Graph]:
    """One representative per isomorphism class, lowest edge-mask first.

    Dedupes by expanding each newly seen graph's relabeling orbit into a
    seen-set, so the per-class cost is orbit size, not a canonical form per
    candidate.
    """
    if max_n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"exhaustive corpus capped at {MAX_EXHAUSTIVE_N} vertices")
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pos = _pair_positions(n)
        perms = list(permutations(range(n)))
        seen: set[int] = set()
        for mask in range(1 << len(pairs)):
            if mask in seen:
                continue
            for perm in perms:
                relabeled = 0
                m = mask
                while m:
                    p = (m & -m).bit_length() - 1
                    i, j = pairs[p]
                    a, b = perm[i], perm[j]
                    relabeled |= 1 << pos[(a, b) if a < b else (b, a)]
                    m &= m - 1
                seen.add(relabeled)
            g = _graph_from_mask(n, mask, pairs)
            if connected_only and not is_connected(g):
                continue
            yield g


@dataclass(frozen=True)
class FamilySpec:
    """A parsed family description such as h:4,2 or kpartite:2,2,2."""

    kind: str
    params: tuple[int, ...]

    _KINDS = ("complete", "cycle", "path", "kpartite", "h", "corona")

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        kind, sep, rest = text.partition(":")
        if not sep or kind not in cls._KINDS:
            raise ValueError(
                f"unknown family spec {text!r}; expected one of "
                + ", ".join(f"{k}:..." for k in cls._KINDS)
            )
        try:
            params = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise ValueError(f"non-integer parameter in family spec {text!r}") from None
        if not params or any(p < 1 for p in params):
            raise ValueError(f"family spec {text!r} needs positive parameters")
        arity = {"complete": 1, "cycle": 1, "path": 1, "h": 2, "corona": 1}
        if kind in arity and len(params) != arity[kind]:
            raise ValueError(f"{kind} takes {arity[kind]} parameter(s), got {len(params)}")
        return cls(kind, params)

    def build(self) -> Graph:
        if self.kind == "complete":
            return complete(self.params[0])
        if self.kind == "cycle":
            return cycle(self.params[0])
        if self.kind == "path":
            return path(self.params[0])
        if self.kind == "kpartite":
            return complete_multipartite(list(self.params))
        if self.kind == "h":
            return h_family(*self.params)
        return corona_with_k1(self.params[0])

    def __str__(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"
