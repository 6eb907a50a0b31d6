"""Immutable bitmask graphs on at most 64 vertices.

Every graph is simple and undirected, with vertices 0..n-1 and adjacency
stored as one integer mask per vertex (bit u of ``adj[v]`` set iff uv is an
edge); a ``Graph`` is exactly ``(n, adj)``.  Vertex subsets travel as plain
ints under the same convention, which keeps set algebra down to machine
operations and lets the enumeration kernel work on raw words.  A residual
G - N[S] stays a mask of G's own vertices (``residual``, ``isolated_in``,
``components``).  One layered search of masks answers connectivity, odd
cycles (``components``) and, from every root, ``girth``; ``is_independent``
and ``is_maximal_independent`` are the one test of a vertex set that every
module uses.  No module of the package calls ``induced_subgraph``,
which renumbers a mask into a new ``Graph``: it stays for the tests and the
benchmark's traced functions until it moves into the tests' oracles.
Graphs are frozen after construction and safe to share or use as dict keys.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

MAX_VERTICES = 64

#: Girth value for acyclic graphs: compares correctly against any cycle length.
INFINITE = math.inf


def json_girth(value: int | float) -> int | str:
    """A girth as JSON holds it: ``"infinite"`` for INFINITE."""
    return "infinite" if value == INFINITE else int(value)


class CapacityError(ValueError):
    """A construction would exceed the 64-vertex core limit."""


def to_mask(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a subset mask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_vertices(mask: int) -> list[int]:
    """Unpack a subset mask into a sorted vertex list."""
    return list(bits(mask))


def _spaced(count: int, gap: int) -> int:
    """``count`` one bits, ``gap`` positions apart from bit 0 up."""
    return ((1 << count * gap) - 1) // ((1 << gap) - 1)


def _transpose_steps(stride: int) -> list[tuple[int, int]]:
    """(shift, mask) per step j = 1, 2, 4, ... of a stride x stride bit
    matrix with row r at bit r * stride.  Step j swaps bit (r, c) with bit
    (r + j, c - j) wherever bit j of r is 0 and of c is 1, which exchanges
    bit j of the row and column index; all steps map (r, c) to (c, r)."""
    steps = []
    j = 1
    while j < stride:
        periods = stride // (2 * j)
        columns = ((1 << j) - 1 << j) * _spaced(periods, 2 * j)
        rows = _spaced(j, stride) * _spaced(periods, 2 * j * stride)
        steps.append((j * (stride - 1), columns * rows))
        j *= 2
    return steps


def _bit_matrix_layout(n: int) -> tuple[Callable[..., bytes], int, tuple[tuple[int, int], ...]]:
    """How ``Graph`` packs n >= 2 rows into one int: row v at bit v * stride,
    with the stride the least of 8, 16, 32 and 64 that holds n bits.  Returns
    the packer, the mask of the diagonal and of the bits at or above n in
    each row, and the transpose steps with j < n, the only ones that move a
    bit of an n x n matrix."""
    stride = max(8, 1 << (n - 1).bit_length())
    rows, diagonal, steps = _STRIDES[stride]
    pack = struct.Struct(f"<{n}{'BHIQ'[(stride // 8).bit_length() - 1]}").pack
    outside = (((1 << stride) - (1 << n)) * rows | diagonal) & (1 << n * stride) - 1
    return pack, outside, tuple(steps[: (n - 1).bit_length()])


# per stride: bit 0 of every row, the diagonal and the transpose steps
_STRIDES = {
    stride: (_spaced(stride, stride), _spaced(stride, stride + 1), _transpose_steps(stride))
    for stride in (8, 16, 32, 64)
}
_LAYOUTS = {n: _bit_matrix_layout(n) for n in range(2, MAX_VERTICES + 1)}


def _first_defect(n: int, adj: tuple[int, ...]) -> str:
    """The message for the first row, in vertex order, that is out of range,
    has a loop or has an edge its endpoint's row lacks."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            return f"adjacency row of vertex {v} mentions vertices >= {n}"
        if row >> v & 1:
            return f"self-loop at vertex {v}"
        for u in bits(row):
            if not adj[u] >> v & 1:
                return f"asymmetric adjacency between {v} and {u}"
    raise AssertionError("no defect in rows the bulk check rejected")


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with bitmask adjacency."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        if type(adj) is not tuple:
            adj = tuple(adj)
            object.__setattr__(self, "adj", adj)
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        if n > MAX_VERTICES:
            raise CapacityError(f"{n} vertices exceed the {MAX_VERTICES}-vertex limit")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for {n} vertices")
        if n < 2:
            valid = not any(adj)  # the zero row is the only valid one
        else:
            # rows in range, no loops and a symmetric matrix: the packed
            # rows miss ``outside`` and equal their transpose
            pack, outside, steps = _LAYOUTS[n]
            try:
                packed = int.from_bytes(pack(*adj), "little")
            except struct.error:  # a row is negative or wider than the stride
                packed = outside
            t = packed
            for shift, mask in steps:
                x = (t ^ t >> shift) & mask
                t ^= x ^ x << shift
            valid = not packed & outside and t == packed
        if not valid:
            raise ValueError(_first_defect(n, adj))

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
            for u in bits(self.adj[v] >> v + 1 << v + 1):
                yield (v, u)

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


def is_independent(g: Graph, s: int) -> bool:
    """Whether no edge joins two members of ``s``."""
    return not neighborhood(g, s) & s


def is_maximal_independent(g: Graph, s: int) -> bool:
    """Whether ``s`` is independent and every other vertex has a neighbor in it."""
    reach = neighborhood(g, s)
    return not reach & s and reach | s == g.vertex_mask


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
    adj = tuple(to_mask(index[u] for u in bits(g.adj[old] & mask)) for old in kept)
    return Graph(len(kept), adj)


def components(g: Graph, mask: int) -> list[tuple[int, bool]]:
    """The connected components of G[mask] as (vertex mask, has_odd_cycle)
    pairs, ordered by least vertex.  A breadth-first search by layers finds
    each component, and the component has an odd cycle exactly when an edge
    joins two vertices of one layer."""
    adj = g.adj
    out = []
    left = mask
    while left:
        comp = frontier = left & -left
        odd = False
        while frontier:
            reach = 0
            m = frontier
            while m:
                low = m & -m
                reach |= adj[low.bit_length() - 1]
                m ^= low
            if reach & frontier:
                odd = True
            frontier = reach & mask & ~comp
            comp |= frontier
        left &= ~comp
        out.append((comp, odd))
    return out


def is_connected(g: Graph) -> bool:
    """At most one component; the empty graph counts as connected."""
    return len(components(g, g.vertex_mask)) <= 1


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

    The layered search of ``components``, started from each root: an edge
    inside layer d closes a walk of length 2d + 1, and a vertex of layer
    d + 1 reached from two vertices of layer d closes one of length 2d + 2.
    Each walk contains a cycle no longer than itself, and a root on a
    shortest cycle finds exactly its length, so the least length over all
    roots is the girth.
    """
    adj = g.adj
    best: int | float = INFINITE
    for root in range(g.n):
        seen = frontier = 1 << root
        length = 1  # 2d + 1 for the layer d of ``frontier``
        while frontier and length < best:
            once = twice = 0
            m = frontier
            while m:
                low = m & -m
                row = adj[low.bit_length() - 1]
                twice |= once & row
                once |= row
                m ^= low
            if once & frontier:
                best = length
            elif twice & ~seen:
                best = length + 1
            frontier = once & ~seen
            seen |= frontier
            length += 2
        if best == 3:
            return 3
    return best


def is_bipartite(g: Graph) -> bool:
    """Whether no component has an odd cycle."""
    return not any(odd for _, odd in components(g, g.vertex_mask))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union with g2's vertices shifted above g1's."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise CapacityError(f"union on {n} vertices exceeds the {MAX_VERTICES}-vertex limit")
    return Graph(n, g1.adj + tuple(row << g1.n for row in g2.adj))
