"""Direct products: materialized product graphs with layer and projection
structure, plus the independence bounds that lift factor data to the product.

The product of G and H lives on index(g, h) = g*nH + h, row-major, fixed
everywhere so witnesses and serialized reports decode the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .graphs import CapacityError, Graph, MAX_VERTICES, bits, neighborhood
from .independence import WellCoveredReport, well_covered_report
from .verdicts import COUNTEREXAMPLE, HOLDS, VACUOUS, ClaimVerdict


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
        return sum(1 << g * self.n_h + h for g in range(self.n_g))

    def pairs(self, s: int) -> list[tuple[int, int]]:
        """Decode a product mask into sorted (g, h) pairs, for reports."""
        return [divmod(idx, self.n_h) for idx in bits(s)]

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


def lift_layers(layer, mask: int) -> int:
    """The union of ``layer(v)`` over the members v of a factor mask, for a
    layer map such as ``ProductGraph.layer_h``."""
    out = 0
    for v in bits(mask):
        out |= layer(v)
    return out


def lift_independent(p: ProductGraph, i_mask: int) -> int:
    """I x V(H) as a product mask, for I independent in the first factor."""
    members = list(bits(i_mask))
    for a in members:
        for b in members:
            if b > a and p.factor_g.has_edge(a, b):
                raise ValueError(f"set is not independent: factor edge ({a}, {b})")
    return lift_layers(p.layer_h, i_mask)


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
        big = lift_layers(p.layer_h, rep_g.witness_max)
    else:
        big = lift_layers(p.layer_g, rep_h.witness_max)
    if upper_g <= upper_h:
        small = lift_layers(p.layer_h, rep_g.witness_min)
    else:
        small = lift_layers(p.layer_g, rep_h.witness_min)
    prod = p.graph
    around_small = neighborhood(prod, small)
    if (
        big.bit_count() >= max(lower_g, lower_h)
        and not neighborhood(prod, big) & big
        and small.bit_count() <= min(upper_g, upper_h)
        and not around_small & small
        and around_small | small == prod.vertex_mask
    ):
        return big, small
    return None


_UNSET = object()


def product_bounds_check(
    p: ProductGraph,
    rep_g: WellCoveredReport,
    rep_h: WellCoveredReport,
    instance: dict,
    witnesses=_UNSET,
) -> ClaimVerdict:
    """alpha(GxH) >= max(alpha(G)n(H), alpha(H)n(G)) and
    i(GxH) <= min(i(G)n(H), i(H)n(G)), for isolate-free factors.  ``p`` is
    G x H carrying its factors; the reports are ``well_covered_report`` of G
    and H.

    Both bounds are certified in the materialized product by
    ``lifted_witnesses``: an independent set of the lower bound's size, so
    alpha(GxH) >= lower, and a maximal independent set within the upper
    bound, so i(GxH) <= upper.  ``witnesses`` is that function's result when
    the caller already holds it.  For isolate-free factors the certificate
    always passes; only when it fails does the exact summary of G x H run,
    and the verdict and witness then follow its alpha and i."""
    g, h = p.factor_g, p.factor_h
    if 0 in g.adj or 0 in h.adj:
        return ClaimVerdict("trivial_bounds", instance, VACUOUS)
    if witnesses is _UNSET:
        witnesses = lifted_witnesses(p, rep_g, rep_h)
    if witnesses is not None:
        return ClaimVerdict("trivial_bounds", instance, HOLDS)
    lower = max(rep_g.alpha * h.n, rep_h.alpha * g.n)
    upper = min(rep_g.i_number * h.n, rep_h.i_number * g.n)
    rep_p = well_covered_report(p.graph)
    if rep_p.alpha >= lower and rep_p.i_number <= upper:
        return ClaimVerdict("trivial_bounds", instance, HOLDS)
    witness = {
        "alpha_product": rep_p.alpha,
        "alpha_lower_bound": lower,
        "i_product": rep_p.i_number,
        "i_upper_bound": upper,
    }
    return ClaimVerdict("trivial_bounds", instance, COUNTEREXAMPLE, witness)
