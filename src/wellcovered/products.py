"""Direct products: materialized product graphs with layer and projection
structure, plus the independence bounds that lift factor data to the product.

The product of G and H lives on index(g, h) = g*nH + h, row-major, fixed
everywhere so witnesses and serialized reports decode the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .graphs import CapacityError, Graph, MAX_VERTICES, bits, is_independent, is_maximal_independent
from .independence import WellCoveredReport


@dataclass(frozen=True)
class ProductGraph:
    """A direct product materialized as an ordinary Graph.

    Vertex (g, h) of the product is index g*n_h + h of ``graph``.  The
    factors are kept so product-level operations can validate their
    factor-level preconditions.
    """

    graph: Graph
    n_g: int
    n_h: int
    factor_g: Graph
    factor_h: Graph

    def index(self, g: int, h: int) -> int:
        if not (0 <= g < self.n_g and 0 <= h < self.n_h):
            raise ValueError(f"({g}, {h}) outside factor ranges {self.n_g}x{self.n_h}")
        return g * self.n_h + h

    def layer_h(self, g: int) -> int:
        """The H-layer over g: all (g, h), always independent."""
        if not 0 <= g < self.n_g:
            raise ValueError(f"vertex {g} outside first factor")
        return ((1 << self.n_h) - 1) << g * self.n_h

    def layer_g(self, h: int) -> int:
        """The G-layer over h: all (g, h), always independent."""
        if not 0 <= h < self.n_h:
            raise ValueError(f"vertex {h} outside second factor")
        return self._column() << h

    def _column(self) -> int:
        """The G-layer over h = 0: bit g * n_h for every g."""
        stride = self.n_h
        return ((1 << self.n_g * stride) - 1) // ((1 << stride) - 1) if stride else 0

    def layers_h(self, mask: int) -> int:
        """I x V(H) for a mask I of the first factor: the union of the
        H-layers over its members.  Bit g of I is spread to g * n_h, and one
        multiply fills each spread bit's layer."""
        if mask >> self.n_g:  # a negative mask shifts to -1
            raise ValueError(f"mask {mask:#x} has a vertex outside the first factor")
        stride = self.n_h
        spread = 0
        while mask:
            low = mask & -mask
            spread |= 1 << (low.bit_length() - 1) * stride
            mask ^= low
        return spread * ((1 << stride) - 1)

    def layers_g(self, mask: int) -> int:
        """V(G) x J for a mask J of the second factor: the union of the
        G-layers over its members, one multiply by the column."""
        if mask >> self.n_h:
            raise ValueError(f"mask {mask:#x} has a vertex outside the second factor")
        return mask * self._column()

    def pairs(self, s: int) -> list[tuple[int, int]]:
        """Decode a product mask into sorted (g, h) pairs, for reports."""
        return [divmod(idx, self.n_h) for idx in bits(s)]

    def swapped(self, s: int) -> int:
        """A product mask as the same set of H x G: (g, h) becomes (h, g)."""
        return sum(1 << h * self.n_g + g for g, h in self.pairs(s))

    def to_json_sidecar(self) -> dict:
        return {"nG": self.n_g, "nH": self.n_h}


def direct_product(g: Graph, h: Graph) -> ProductGraph:
    """Materialize G x H; rejects products beyond the 64-vertex core cap."""
    n = g.n * h.n
    if n > MAX_VERTICES:
        raise CapacityError(
            f"product on {g.n}*{h.n} = {n} vertices exceeds the {MAX_VERTICES}-vertex limit"
        )
    adj = kernel.direct_product_adj(g.adj, h.adj)
    return ProductGraph(Graph(n, tuple(adj)), g.n, h.n, g, h)


def lift_independent(p: ProductGraph, i_mask: int) -> int:
    """I x V(H) as a product mask, for I independent in the first factor."""
    if not is_independent(p.factor_g, i_mask):
        raise ValueError("set is not independent in the first factor")
    return p.layers_h(i_mask)


def lifted_witnesses(
    p: ProductGraph, rep_g: WellCoveredReport, rep_h: WellCoveredReport
) -> tuple[int, int] | None:
    """The factors' witnesses lifted to G x H and checked there, or None.

    ``p`` is G x H carrying its factors; the reports are
    ``well_covered_report`` of G and H.  For isolate-free factors, ``big`` is
    the maximum-set witness of the factor that gives
    max(alpha(G)n(H), alpha(H)n(G)), lifted to I x V(H) or V(G) x I, and
    ``small`` is the minimum-maximal witness of the factor that gives
    min(i(G)n(H), i(H)n(G)), lifted the same way.  The pair is returned only
    if, in ``p.graph``, ``big`` is independent and reaches the first bound
    and ``small`` is independent, dominating (so a maximal independent set)
    and within the second bound.  A factor with an isolated vertex, or any
    check that fails, gives None.  When ``big`` has more vertices than
    ``small``, G x H is not well-covered: some maximal independent set
    contains ``big``."""
    g, h = p.factor_g, p.factor_h
    if 0 in g.adj or 0 in h.adj:
        return None
    lower_g, lower_h = rep_g.alpha * h.n, rep_h.alpha * g.n
    upper_g, upper_h = rep_g.i_number * h.n, rep_h.i_number * g.n
    if lower_g >= lower_h:
        big = p.layers_h(rep_g.witness_max)
    else:
        big = p.layers_g(rep_h.witness_max)
    if upper_g <= upper_h:
        small = p.layers_h(rep_g.witness_min)
    else:
        small = p.layers_g(rep_h.witness_min)
    if (
        big.bit_count() >= max(lower_g, lower_h)
        and small.bit_count() <= min(upper_g, upper_h)
        and is_independent(p.graph, big)
        and is_maximal_independent(p.graph, small)
    ):
        return big, small
    return None


def product_bounds_check(
    p: ProductGraph,
    rep_g: WellCoveredReport,
    rep_h: WellCoveredReport,
    rep_p: WellCoveredReport,
) -> dict | None:
    """alpha(GxH) >= max(alpha(G)n(H), alpha(H)n(G)) and
    i(GxH) <= min(i(G)n(H), i(H)n(G)), on exact values.  ``p`` is G x H
    carrying its factors; the reports are ``well_covered_report`` of G, H
    and ``p.graph``.  Returns the witness of a failed bound, or None."""
    g, h = p.factor_g, p.factor_h
    lower = max(rep_g.alpha * h.n, rep_h.alpha * g.n)
    upper = min(rep_g.i_number * h.n, rep_h.i_number * g.n)
    if rep_p.alpha >= lower and rep_p.i_number <= upper:
        return None
    return {
        "alpha_product": rep_p.alpha,
        "alpha_lower_bound": lower,
        "i_product": rep_p.i_number,
        "i_upper_bound": upper,
    }
