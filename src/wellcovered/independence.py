"""Independence-based predicates: alpha, i, well-covered, isolatable vertices,
the neighborhood bound for independent sets, and the perfect-matching
characterization of very well-covered graphs.

Enumeration itself lives in the kernel (compiled or pure Python); this module
interprets the results.  Vertex sets are masks throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import kernel
from .graphs import Graph, bits, neighborhood, to_vertices
from .verdicts import COUNTEREXAMPLE, HOLDS, ClaimVerdict


def enumerate_maximal_independent_sets(g: Graph) -> Iterator[int]:
    """Every inclusion-maximal independent set exactly once, as masks."""
    return iter(kernel.maximal_independent_sets(g.adj))


def count_maximal_independent_sets(g: Graph) -> int:
    return kernel.count_maximal_independent_sets(g.adj)


def alpha(g: Graph) -> int:
    return kernel.independence_summary(g.adj)[1]


def i_number(g: Graph) -> int:
    return kernel.independence_summary(g.adj)[0]


def is_well_covered(g: Graph) -> bool:
    """True iff all maximal independent sets share one size; stops early when not."""
    return kernel.well_covered_size(g.adj) >= 0


@dataclass(frozen=True)
class WellCoveredReport:
    """Independence summary of one graph.

    ``witness_min`` and ``witness_max`` are maximal independent sets of sizes
    ``i_number`` and ``alpha``; they coincide exactly when more than being
    well-covered forces them to (a unique maximal set), not in general.
    """

    n: int
    alpha: int
    i_number: int
    well_covered: bool
    very_well_covered: bool
    witness_min: int
    witness_max: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "i": self.i_number,
            "well_covered": self.well_covered,
            "very_well_covered": self.very_well_covered,
            "witness_min": to_vertices(self.witness_min),
            "witness_max": to_vertices(self.witness_max),
        }


def is_very_well_covered(g: Graph, wc_size: int) -> bool:
    """Very well-covered: every maximal independent set has size n/2 and no
    vertex is isolated.  ``wc_size`` is the common size of the maximal
    independent sets, or -1 when they differ, as ``kernel.well_covered_size``
    returns it."""
    return wc_size >= 0 and 2 * wc_size == g.n and all(g.adj)


def well_covered_report(g: Graph) -> WellCoveredReport:
    i, a, wit_min, wit_max = kernel.independence_summary(g.adj)
    return WellCoveredReport(
        n=g.n,
        alpha=a,
        i_number=i,
        well_covered=i == a,
        very_well_covered=is_very_well_covered(g, a if i == a else -1),
        witness_min=wit_min,
        witness_max=wit_max,
    )


def enumerate_independent_sets(g: Graph) -> Iterator[int]:
    """All independent sets (the empty set included), each exactly once."""

    def rec(s: int, cands: int) -> Iterator[int]:
        yield s
        m = cands
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            yield from rec(s | 1 << v, m & ~g.adj[v])

    return rec(0, g.vertex_mask)


def berge_violation(g: Graph) -> int | None:
    """An independent S with |S| > |N(S)|, or None if the bound holds."""
    for s in enumerate_independent_sets(g):
        if s.bit_count() > neighborhood(g, s).bit_count():
            return s
    return None


def is_isolatable(g: Graph, x: int) -> bool:
    """Whether some independent I avoiding N[x] leaves x isolated in G-N[I].

    Equivalently: an independent I inside V minus N[x] with N(x) contained in
    N(I).  A degree-0 vertex qualifies via I = empty set.
    """
    target = g.adj[x]
    if target == 0:
        return True
    return _cover_search(g, g.vertex_mask & ~g.closed(x), target)


def _cover_search(g: Graph, allowed: int, target: int) -> bool:
    if target == 0:
        return True
    t = (target & -target).bit_length() - 1
    cands = g.adj[t] & allowed
    while cands:
        c = (cands & -cands).bit_length() - 1
        cands &= cands - 1
        if _cover_search(g, allowed & ~g.closed(c), target & ~g.adj[c]):
            return True
    return False


def isolatable_vertices(g: Graph) -> int:
    return sum(1 << x for x in range(g.n) if is_isolatable(g, x))


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, each stored as (low, high)."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = 0
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"matching edge ({u}, {v}) is a loop")
            e = 1 << u | 1 << v
            if seen & e:
                raise ValueError("matching edges are not disjoint")
            seen |= e

    def covered(self) -> int:
        out = 0
        for u, v in self.edges:
            out |= 1 << u | 1 << v
        return out

    def partner(self, u: int) -> int | None:
        for a, b in self.edges:
            if a == u:
                return b
            if b == u:
                return a
        return None

    def is_perfect(self, g: Graph) -> bool:
        return self.covered() == g.vertex_mask

    def to_json(self) -> list[list[int]]:
        return [[u, v] for u, v in self.edges]


def perfect_matchings(g: Graph) -> Iterator[Matching]:
    """All perfect matchings, generated by pairing the lowest uncovered vertex."""
    if g.n % 2:
        return

    def rec(covered: int, acc: list[tuple[int, int]]) -> Iterator[Matching]:
        if covered == g.vertex_mask:
            yield Matching(tuple(acc))
            return
        free = g.vertex_mask & ~covered
        v = (free & -free).bit_length() - 1
        for u in bits(g.adj[v] & ~covered):
            acc.append((v, u))
            yield from rec(covered | 1 << v | 1 << u, acc)
            acc.pop()

    yield from rec(0, [])


def has_pairing_property(g: Graph, m: Matching) -> bool:
    """Whether a perfect matching M satisfies: for every vertex x and every
    neighbor y of x other than M(x), y is not adjacent to M(x) and y is
    adjacent to every neighbor of M(x)."""
    if not m.is_perfect(g):
        raise ValueError("matching is not perfect")
    for u, v in m.edges:
        if not g.has_edge(u, v):
            raise ValueError(f"matching pair ({u}, {v}) is not an edge")
    for x in range(g.n):
        mate = m.partner(x)
        assert mate is not None
        mate_nbrs = g.adj[mate]
        ys = g.adj[x] & ~(1 << mate)
        while ys:
            y = (ys & -ys).bit_length() - 1
            ys &= ys - 1
            if mate_nbrs >> y & 1:
                return False
            if mate_nbrs & ~g.adj[y]:
                return False
    return True


def favaron_equivalence_verdict(
    g: Graph, very_well_covered: bool, instance: dict | None = None
) -> ClaimVerdict:
    """Check that these three agree: very well-covered (passed in, as
    ``well_covered_report`` gives it); some perfect matching has the pairing
    property; a perfect matching exists and all of them have the pairing
    property."""
    matchings = list(perfect_matchings(g))
    good = [m for m in matchings if has_pairing_property(g, m)]
    stmt_i = very_well_covered
    stmt_ii = bool(good)
    stmt_iii = bool(matchings) and len(good) == len(matchings)
    inst = instance if instance is not None else {"n": g.n, "edges": sorted(g.edges())}
    if stmt_i == stmt_ii == stmt_iii:
        return ClaimVerdict("favaron", inst, HOLDS)
    witness = {
        "very_well_covered": stmt_i,
        "some_matching_has_property": stmt_ii,
        "all_matchings_have_property": stmt_iii,
        "perfect_matching_count": len(matchings),
        "matching_with_property": good[0].to_json() if good else None,
    }
    return ClaimVerdict("favaron", inst, COUNTEREXAMPLE, witness)
