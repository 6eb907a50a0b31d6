"""Named graph families and exhaustive small-graph corpora.

Family generators are deterministic, including vertex order.  The corpus
streams every labeled simple graph up to a vertex bound in (n, edge-mask)
order; pair (i, j), i < j, is bit p of the mask when it is the p-th pair in
lexicographic order, so (n - 2, n - 1) is the most significant bit.

A companion generator yields one connected graph per isomorphism class,
which keeps pair scans tractable while deciding exactly the same
isomorphism-invariant questions.  A class is represented by its canonical
form, the lowest edge mask over all relabelings.  The classes on n vertices
grow from those on n - 1: every connected graph has a vertex that is not a
cut vertex (a leaf of a spanning tree), and deleting it leaves a connected
graph on n - 1 vertices, so joining a new vertex to each nonempty vertex
set of each class on n - 1 vertices reaches every class on n, and
deduplicating by canonical form keeps one graph per class.

The canonical search places labels from n - 1 downward.  Read from the most
significant bit, a mask gives for label n - 2, n - 3, ..., 0 in turn its
adjacency to the labels above it, from n - 1 down, so each placed label
appends one row and the lowest mask takes the lowest next row at every
step.  A partial labeling is cut as soon as its next row exceeds the lowest
next row of any partial labeling on the same level.  Ties are narrowed by
twins (two vertices with the same neighbours apart from each other): when
both are candidates for the next label, swapping them is an automorphism
that fixes every placed label, so trying one keeps the minimum.  Degree
refinement gives no such guarantee here, because the lowest mask does not
order vertices by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import or_
from typing import Callable, Iterator

from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    bits,
    from_edge_list,
    is_complete,
    is_connected,
    to_mask,
)

MAX_EXHAUSTIVE_N = 7


def _check_order(n: int) -> None:
    """Reject an order beyond the 64-vertex cap before anything is built."""
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceed the {MAX_VERTICES}-vertex limit")


@cache
def complete(n: int) -> Graph:
    """K_n, one object per order and process: every G x K_n and every
    ``claims.complete_facts(n)`` reads the same graph.  A rejected order
    raises on every call, since ``cache`` keeps only returned values."""
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
    full = (1 << n) - 1
    adj: list[int] = []
    for s in sizes:
        # every vertex of a part sees everything but its own part
        part = (1 << len(adj) + s) - (1 << len(adj))
        adj += [full & ~part] * s
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
    # clique vertex v sees the rest of the clique and z of its block v // n
    clique = [(1 << kn) - 1 ^ 1 << v | 1 << kn + v // n for v in range(kn)]
    blocks = [(1 << n) - 1 << i * n for i in range(k)]
    return Graph(order, tuple(clique + blocks))


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
    z_mask = to_mask(v for v, d in enumerate(degs) if d == n)
    k = z_mask.bit_count()
    if k < 2 or g.n != k * (n + 1):
        return None
    clique = g.vertex_mask & ~z_mask
    if any(clique & ~g.closed(v) for v in bits(clique)):
        return None
    # k disjoint blocks of n clique vertices each cover the k * n of them
    covered = 0
    for v in bits(z_mask):
        block = g.adj[v]
        if block & z_mask or block & covered:
            return None
        covered |= block
    return k, n


def multipartite_params(g: Graph) -> tuple[int, int] | None:
    """Recover (m, r) if the graph is complete m-partite with equal parts of
    size r, else None.  The graph is one exactly when the sets V - N(v)
    partition V, each then the part of its vertices.  They cover V, as each
    holds its own vertex, so m distinct sets of n // m vertices each do."""
    parts = {g.vertex_mask & ~row for row in g.adj}
    r = g.n // max(len(parts), 1)
    if not parts or any(p.bit_count() != r for p in parts):
        return None
    return len(parts), r


def _row_tables(n: int) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The adjacency rows of every edge mask on n vertices, as two tables.

    The pairs (i, j), i < j, are numbered in lexicographic order and pair p
    is bit p of a mask.  ``low[mask & (1 << half) - 1]`` holds the rows of
    the low ``half`` pair bits, ``high[mask >> half]`` those of the others,
    and the mask's rows are the two entries ORed together.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    half = len(pairs) // 2
    tables = []
    for part in (pairs[:half], pairs[half:]):
        table = [(0,) * n]
        for i, j in part:
            edge = [0] * n
            edge[i], edge[j] = 1 << j, 1 << i
            table += [tuple(map(or_, rows, edge)) for rows in table]
        tables.append(table)
    return half, tables[0], tables[1]


def corpus(max_n: int, connected_only: bool = True) -> Iterator[Graph]:
    """Every labeled simple graph with 1..max_n vertices, in (n, edge-mask)
    order.  Exhaustive only up to 7 vertices; beyond that the labeled count
    is out of desk range."""
    if max_n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"exhaustive corpus capped at {MAX_EXHAUSTIVE_N} vertices")
    for n in range(1, max_n + 1):
        _, low, high = _row_tables(n)
        for upper in high:
            for lower in low:
                g = Graph(n, tuple(map(or_, lower, upper)))
                if connected_only and not is_connected(g):
                    continue
                yield g


def _canonical_mask(adj: list[int]) -> int:
    """The lowest edge mask over all relabelings of the graph with rows adj,
    by the search the module docstring describes.

    A partial labeling keeps its unplaced vertices as (row, cell) pairs,
    cells ordered by their row to the labels placed so far, so its
    candidates for the next label are its first cell.  Placing vertex v
    splits each cell into non-neighbours and neighbours of v, in that order.
    """
    n = len(adj)
    lower_twins = [0] * n
    for v in range(n):
        for u in range(v):
            if not (adj[u] ^ adj[v]) & ~(1 << u | 1 << v):
                lower_twins[v] |= 1 << u
    states = [[(0, (1 << n) - 1)]]
    mask = 0
    for label in range(n - 1, -1, -1):
        row = min(cells[0][0] for cells in states)
        mask |= row << label * (2 * n - label - 1) // 2
        grown = []
        for cells in states:
            first_row, first = cells[0]
            if first_row != row:
                continue
            todo = first
            while todo:
                bit = todo & -todo
                todo ^= bit
                v = bit.bit_length() - 1
                if lower_twins[v] & first:
                    continue
                nbrs = adj[v]
                split = []
                for r, cell in [(row, first ^ bit), *cells[1:]]:
                    if cell & ~nbrs:
                        split.append((r << 1, cell & ~nbrs))
                    if cell & nbrs:
                        split.append((r << 1 | 1, cell & nbrs))
                grown.append(split)
        states = grown
    return mask


def corpus_representatives(max_n: int) -> Iterator[Graph]:
    """Connected graphs on 1..max_n vertices, one per isomorphism class, in
    (n, mask) order; each class is its canonical form, the lowest edge mask
    over all relabelings.  The module docstring gives the growth from one
    order to the next and the canonical search."""
    if max_n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"exhaustive corpus capped at {MAX_EXHAUSTIVE_N} vertices")
    classes: list[tuple[int, ...]] = []
    for n in range(1, max_n + 1):
        masks = {0} if n == 1 else set()
        new = 1 << n - 1
        for rows in classes:
            for nbrs in range(1, new):
                grown = [row | new if nbrs >> v & 1 else row for v, row in enumerate(rows)]
                grown.append(nbrs)
                masks.add(_canonical_mask(grown))
        half, low, high = _row_tables(n)
        classes = [
            tuple(map(or_, low[m & (1 << half) - 1], high[m >> half])) for m in sorted(masks)
        ]
        for rows in classes:
            yield Graph(n, rows)


# each kind's builder and parameter count (None: any count), in the order
# the "unknown family spec" message lists them
FAMILIES: dict[str, tuple[Callable[..., Graph], int | None]] = {
    "complete": (complete, 1),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "kpartite": (lambda *sizes: complete_multipartite(list(sizes)), None),
    "h": (h_family, 2),
    "corona": (corona_with_k1, 1),
}


@dataclass(frozen=True)
class FamilySpec:
    """A parsed family description such as h:4,2 or kpartite:2,2,2."""

    kind: str
    params: tuple[int, ...]

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        kind, sep, rest = text.partition(":")
        if not sep or kind not in FAMILIES:
            raise ValueError(
                f"unknown family spec {text!r}; expected one of "
                + ", ".join(f"{k}:..." for k in FAMILIES)
            )
        try:
            params = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise ValueError(f"non-integer parameter in family spec {text!r}") from None
        if not params or any(p < 1 for p in params):
            raise ValueError(f"family spec {text!r} needs positive parameters")
        arity = FAMILIES[kind][1]
        if arity is not None and len(params) != arity:
            raise ValueError(f"{kind} takes {arity} parameter(s), got {len(params)}")
        return cls(kind, params)

    def build(self) -> Graph:
        return FAMILIES[self.kind][0](*self.params)

    def __str__(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"
