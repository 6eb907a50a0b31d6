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
from operator import or_
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
    parts = [p for p, _ in components(comp, comp.vertex_mask)]
    r = parts[0].bit_count()
    for p in parts:
        if p.bit_count() != r:
            return None
        for v in range(g.n):
            if p >> v & 1 and (comp.adj[v] | 1 << v) != p:
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
    over all relabelings.

    The classes on n vertices grow from those on n - 1: every connected
    graph has a vertex that is not a cut vertex (a leaf of a spanning tree),
    so joining a new vertex to each nonempty vertex set of each class on
    n - 1 vertices reaches every class on n.  Each candidate is reduced to
    its canonical form, and equal forms are kept once.  The canonical search
    places labels from n - 1 downward, cuts a partial labeling as soon as
    its rows exceed the lowest ones on its level, and tries only one of two
    twin candidates for a label.
    """
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
