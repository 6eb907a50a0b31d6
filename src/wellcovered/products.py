"""Direct products: materialized product graphs with layer and projection
structure, plus the independence bounds that lift factor data to the product.

The product of G and H lives on index(g, h) = g*nH + h, row-major, fixed
everywhere so witnesses and serialized reports decode the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .graphs import CapacityError, Graph, MAX_VERTICES, bits
from .independence import WellCoveredReport
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
    factor_g: Graph | None = None
    factor_h: Graph | None = None

    def index(self, g: int, h: int) -> int:
        if not (0 <= g < self.n_g and 0 <= h < self.n_h):
            raise ValueError(f"({g}, {h}) outside factor ranges {self.n_g}x{self.n_h}")
        return g * self.n_h + h

    def factor_pair(self, idx: int) -> tuple[int, int]:
        if not 0 <= idx < self.graph.n:
            raise ValueError(f"index {idx} outside product range")
        return divmod(idx, self.n_h)

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

    def project_g(self, s: int) -> int:
        out = 0
        for idx in bits(s):
            out |= 1 << idx // self.n_h
        return out

    def project_h(self, s: int) -> int:
        out = 0
        for idx in bits(s):
            out |= 1 << idx % self.n_h
        return out

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


def lift_independent(p: ProductGraph, i_mask: int) -> int:
    """I x V(H) as a product mask, for I independent in the first factor."""
    if p.factor_g is None:
        raise ValueError("product does not carry its factors")
    members = list(bits(i_mask))
    for a in members:
        for b in members:
            if b > a and p.factor_g.has_edge(a, b):
                raise ValueError(f"set is not independent: factor edge ({a}, {b})")
    out = 0
    for g1 in members:
        out |= p.layer_h(g1)
    return out


def product_bounds_check(
    g: Graph,
    h: Graph,
    rep_g: WellCoveredReport,
    rep_h: WellCoveredReport,
    rep_p: WellCoveredReport,
    instance: dict | None = None,
) -> ClaimVerdict:
    """alpha(GxH) >= max(alpha(G)n(H), alpha(H)n(G)) and
    i(GxH) <= min(i(G)n(H), i(H)n(G)), for isolate-free factors.  The
    reports are ``well_covered_report`` of G, H and G x H."""
    inst = instance if instance is not None else {"nG": g.n, "nH": h.n}
    if any(g.adj[v] == 0 for v in range(g.n)) or any(h.adj[v] == 0 for v in range(h.n)):
        return ClaimVerdict("trivial_bounds", inst, VACUOUS)
    lower = max(rep_g.alpha * h.n, rep_h.alpha * g.n)
    upper = min(rep_g.i_number * h.n, rep_h.i_number * g.n)
    if rep_p.alpha >= lower and rep_p.i_number <= upper:
        return ClaimVerdict("trivial_bounds", inst, HOLDS)
    witness = {
        "alpha_product": rep_p.alpha,
        "alpha_lower_bound": lower,
        "i_product": rep_p.i_number,
        "i_upper_bound": upper,
    }
    return ClaimVerdict("trivial_bounds", inst, COUNTEREXAMPLE, witness)
