"""Immutable bitmask graphs on at most 64 vertices.

Every graph is simple and undirected, with vertices 0..n-1 and adjacency
stored as one integer mask per vertex (bit u of ``adj[v]`` set iff uv is an
edge); a ``Graph`` is exactly ``(n, adj)``.  Vertex subsets travel as plain
ints under the same convention, which keeps set algebra down to machine
operations and lets the enumeration kernel work on raw words.  A residual
G - N[S] stays a mask of G's own vertices (``residual``, ``isolated_in``);
``induced_subgraph`` renumbers it into a new ``Graph`` only where a caller
needs one.  Graphs are frozen after construction and safe to share or use
as dict keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64

#: Girth value for acyclic graphs: compares correctly against any cycle length.
INFINITE = math.inf


class CapacityError(ValueError):
    """A construction would exceed the 64-vertex core limit."""


def to_mask(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a subset mask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def to_vertices(mask: int) -> list[int]:
    """Unpack a subset mask into a sorted vertex list."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with bitmask adjacency."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is negative")
        if self.n > MAX_VERTICES:
            raise CapacityError(f"{self.n} vertices exceed the {MAX_VERTICES}-vertex limit")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for {self.n} vertices")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row of vertex {v} mentions vertices >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
                m &= m - 1

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def closed(self, v: int) -> int:
        return self.adj[v] | 1 << v

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            row = self.adj[v] >> v + 1 << v + 1
            while row:
                u = (row & -row).bit_length() - 1
                yield (v, u)
                row &= row - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, rejecting loops and out-of-range ids."""
    if n > MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) mentions a vertex outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"edge ({u}, {v}) is a loop")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_adjacency(n: int, adj: Iterable[int]) -> Graph:
    return Graph(n, tuple(adj))


def neighborhood(g: Graph, s: int) -> int:
    """Open neighborhood N(S) as a mask; members of S appear only via edges."""
    adj = g.adj
    out = 0
    while s:
        low = s & -s
        out |= adj[low.bit_length() - 1]
        s ^= low
    return out


def closed_neighborhood(g: Graph, s: int) -> int:
    return neighborhood(g, s) | s


def residual(g: Graph, s: int) -> int:
    """The vertices of G - N[S] as a mask of G's own vertices."""
    return g.vertex_mask & ~closed_neighborhood(g, s)


def isolated_in(g: Graph, mask: int) -> int:
    """The vertices of ``mask`` with no neighbor inside ``mask``, as a mask."""
    adj = g.adj
    out = 0
    m = mask
    while m:
        low = m & -m
        if not adj[low.bit_length() - 1] & mask:
            out |= low
        m ^= low
    return out


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph induced on the vertices of ``mask``, renumbered to 0..k-1:
    new vertex j is ``to_vertices(mask)[j]``."""
    kept = to_vertices(mask)
    index = {old: new for new, old in enumerate(kept)}
    adj = []
    for old in kept:
        row = g.adj[old] & mask
        new_row = 0
        while row:
            u = (row & -row).bit_length() - 1
            new_row |= 1 << index[u]
            row &= row - 1
        adj.append(new_row)
    return Graph(len(kept), tuple(adj))


def _reach(g: Graph, v: int) -> int:
    """The vertices reachable from v, as a mask."""
    adj = g.adj
    comp = frontier = 1 << v
    while frontier:
        nxt = 0
        while frontier:
            u = (frontier & -frontier).bit_length() - 1
            nxt |= adj[u]
            frontier &= frontier - 1
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def components(g: Graph) -> list[int]:
    """Connected components as masks, ordered by smallest contained vertex."""
    seen = 0
    out = []
    for v in range(g.n):
        if not seen >> v & 1:
            comp = _reach(g, v)
            seen |= comp
            out.append(comp)
    return out


def is_connected(g: Graph) -> bool:
    """One search from vertex 0; the empty graph counts as connected."""
    return g.n == 0 or _reach(g, 0) == g.vertex_mask


def is_complete(g: Graph) -> bool:
    return all(g.degree(v) == g.n - 1 for v in range(g.n))


def min_degree(g: Graph) -> int | float:
    return min((g.degree(v) for v in range(g.n)), default=INFINITE)


def is_regular(g: Graph) -> int | None:
    """Common degree if the graph is regular, else None."""
    if g.n == 0:
        return 0
    d = g.degree(0)
    return d if all(g.degree(v) == d for v in range(1, g.n)) else None


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or INFINITE when the graph is acyclic.

    For each edge uv the shortest u-v path avoiding that edge closes a
    shortest cycle through uv; the minimum over edges is the girth.
    """
    best: int | float = INFINITE
    for u, v in g.edges():
        dist = _bfs_distance(g, u, v, skip_edge=(u, v))
        if dist is not None and dist + 1 < best:
            best = dist + 1
            if best == 3:
                return 3
    return best


def _bfs_distance(g: Graph, src: int, dst: int, skip_edge: tuple[int, int]) -> int | None:
    su, sv = skip_edge
    seen = 1 << src
    frontier = 1 << src
    d = 0
    while frontier:
        d += 1
        nxt = 0
        while frontier:
            w = (frontier & -frontier).bit_length() - 1
            row = g.adj[w]
            if w == su:
                row &= ~(1 << sv)
            elif w == sv:
                row &= ~(1 << su)
            nxt |= row
            frontier &= frontier - 1
        nxt &= ~seen
        if nxt >> dst & 1:
            return d
        seen |= nxt
        frontier = nxt
    return None


def is_bipartite(g: Graph) -> tuple[int, int] | None:
    """A 2-coloring (side0, side1) as masks, or None if an odd cycle exists."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            row = g.adj[v]
            while row:
                u = (row & -row).bit_length() - 1
                row &= row - 1
                if color[u] == -1:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    side0 = to_mask(v for v in range(g.n) if color[v] == 0)
    return side0, g.vertex_mask & ~side0


def every_edge_in_triangle(g: Graph) -> bool:
    return all(g.adj[u] & g.adj[v] for u, v in g.edges())


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.n, tuple(full & ~(g.adj[v] | 1 << v) for v in range(g.n)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union with g2's vertices shifted above g1's."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise CapacityError(f"union on {n} vertices exceeds the {MAX_VERTICES}-vertex limit")
    return Graph(n, g1.adj + tuple(row << g1.n for row in g2.adj))
