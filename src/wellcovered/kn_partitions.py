"""Products with complete graphs, analyzed through weak partitions.

Every maximal independent set I of G x K_n meets each K_n-layer in 0, 1, or
n vertices, so I induces a weak partition of V(G) into V0 (layers missed),
V1..Vn (layers hit once, indexed by which clique vertex was used, 1-based),
and a bracket class (layers contained in I).  Such a partition arises from a
maximal independent set exactly when four conditions hold:

1. no edge joins V_k to anything outside V0 and V_k;
2. in a nonempty V_k, no vertex is isolated inside G[V_k];
3. the bracket class is independent;
4. every V0 vertex has a neighbor in the bracket class or neighbors in at
   least two distinct classes V_k.

The weight n*|bracket| + sum |V_k| of a valid partition is the size of its
maximal independent set, so i(G x K_n) and alpha(G x K_n) are the extreme
weights over valid partitions.  ``kn_alpha_i`` reads both extremes from the
kernel summary of the materialized product and decodes the extreme maximal
independent sets into their partitions (``kn_report``), so it shares the
64-vertex cap of ``direct_product``.  ``enumerate_valid_partitions`` checks
the conditions directly on every labeling of V(G) and serves as an
independent oracle at small orders.

The codec works on the row-major index g*n + k of ``products``: the layer
over g is the n bits (mask >> g*n) & (2^n - 1), and (g, k) is bit g*n + k.
Decoding (``partition_from_mis``) reads each layer with one shift and takes
the class of a single hit from its bit position; it stops at the last
non-empty layer and puts every vertex above it into V0 with one mask.  It
rejects a clique order below 2, bits at or above n(G)*n and a layer met in
a size outside {0, 1, n}.  Encoding (``mis_from_partition``) first requires
``WeakPartition.violations`` to be empty.  It then builds the set a byte of
G at a time, by the 256-entry tables of ``products.spread``, which move bit
g of a mask of G to bit g*n: the bracket gives ``ProductGraph.layers_h``,
its spread times the full layer 2^n - 1, and V_k gives spread(V_k, n)
shifted up by k - 1.  Last it checks that the result is a maximal
independent set of the materialized product.  The cover test of
``violations`` keeps every vertex of a valid partition below n(G) and its
class-count test keeps every class index below n, so each index is a
vertex of G x K_n: the per-bit range checks of ``ProductGraph.index`` and
``layer_h`` could never fail there and are not made.

``kn_alpha_i`` and ``mis_from_partition`` build G x K_n once per (G, n) and
keep the last 16 in a memo, so a run of round trips over one graph shares
one product.  The memo stays because a caller may decode from (G, n, set)
alone, with no product to hand over, and a round trip would then build
the product again.

A ``WeakPartition`` is a slotted dataclass: cheap to build, compared by
value, mutable and so not hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from . import kernel
from .families import complete
from .graphs import (
    Graph,
    bits,
    is_independent,
    is_maximal_independent,
    isolated_in,
    residual,
    to_vertices,
)
from .products import ProductGraph, direct_product, spread

ENGINE_PRODUCT = "product-enumeration"


class InvalidPartition(ValueError):
    """A weak partition violating disjointness, cover, or a numbered condition."""


@dataclass(slots=True)
class WeakPartition:
    """A weak partition (V0, V1..Vn, bracket) of the vertices of ``graph``.

    ``classes[k-1]`` holds V_k.  Parts may be empty; validity against the
    four conditions is checked by ``violations``, not at construction, so
    enumeration code can build candidates freely.  The record is a slotted
    dataclass, since a decode builds one per set: two records are equal
    when their fields are, and a record cannot be hashed.
    """

    graph: Graph
    n: int
    v0: int
    classes: tuple[int, ...]
    vbracket: int

    def violations(self) -> list[str]:
        g = self.graph
        n = self.n
        classes = self.classes
        out = []
        if n < 2:
            out.append("clique order below 2")
        if len(classes) != n:
            out.append(f"expected {n} classes, got {len(classes)}")
            return out
        v0, vb = self.v0, self.vbracket
        # overlap collects every pairwise intersection of the parts
        union = v0 | vb
        overlap = v0 & vb
        for vk in classes:
            if vk:
                overlap |= union & vk
                union |= vk
        if overlap:
            out.append("disjointness")
        full = (1 << g.n) - 1
        if union != full:
            out.append("cover")
            if union & ~full:
                return out
        adj = g.adj
        # once/twice: the vertices in at least one/two of the N(V_k)
        once = twice = 0
        cond1 = cond2 = False
        for vk in classes:
            if not vk:
                continue  # an empty class reaches nothing
            reach = 0
            m = vk
            while m:
                low = m & -m
                row = adj[low.bit_length() - 1]
                if not row & vk:
                    cond2 = True
                reach |= row
                m ^= low
            if reach & ~(v0 | vk):
                cond1 = True
            twice |= once & reach
            once |= reach
        reach_b = 0
        m = vb
        while m:
            low = m & -m
            reach_b |= adj[low.bit_length() - 1]
            m ^= low
        if cond1:
            out.append("condition 1")
        if cond2:
            out.append("condition 2")
        if reach_b & vb:
            out.append("condition 3")
        if v0 & ~reach_b & ~twice:
            out.append("condition 4")
        return out

    def weight(self) -> int:
        return self.n * self.vbracket.bit_count() + sum(map(int.bit_count, self.classes))

    def to_json(self) -> dict:
        return {
            "V0": to_vertices(self.v0),
            "classes": [to_vertices(vk) for vk in self.classes],
            "bracket": to_vertices(self.vbracket),
        }


# A process-wide memo, kept because callers decode from (G, n, set) alone:
# ``partition_from_mis`` hands ``mis_from_partition`` no product, and the
# benchmark's ``kn_roundtrip`` decodes that way, so without it every decode
# would rebuild G x K_n.  It goes once a partition can carry the product
# that ``kn_alpha_i`` already built, which needs a benchmark change first.
@lru_cache(maxsize=16)
def _kn_product(g: Graph, n: int) -> ProductGraph:
    return direct_product(g, complete(n))


def mis_from_partition(p: WeakPartition) -> int:
    """The maximal independent set of G x K_n encoded by a valid partition.

    Takes the full layer over every bracket vertex g, bits g*n..g*n + n - 1,
    and the single product vertex (g, k - 1), bit g*n + k - 1, for g in
    V_k: ``layers_h`` of the bracket and ``spread(V_k, n) << k - 1``, a
    byte of each part per table lookup.  ``violations`` runs first and must
    be empty: its cover and class-count tests put every g below n(G) and
    every k at most n, so these indices need no range check.  The result is checked to be
    maximal independent in the materialized product, which is built once
    per (G, n) and kept in a bounded memo; a failure raises rather than
    repairs, since it would contradict the partition correspondence.
    """
    bad = p.violations()
    if bad:
        raise InvalidPartition(f"invalid weak partition: {bad[0]}")
    n = p.n
    prod = _kn_product(p.graph, n)
    out = prod.layers_h(p.vbracket)
    for k, vk in enumerate(p.classes):
        if vk:
            out |= spread(vk, n) << k
    if not is_maximal_independent(prod.graph, out):
        fault = "non-maximal" if is_independent(prod.graph, out) else "non-independent"
        raise RuntimeError(f"valid partition produced a {fault} set")
    return out


def partition_from_mis(g: Graph, n: int, i_mask: int) -> WeakPartition:
    """Decode a maximal independent set of G x K_n into its weak partition.

    Reads the layer over vertex g as (i_mask >> g*n) & (2^n - 1): an empty
    layer puts g in V0, a full one in the bracket, and a single bit at
    position k in V_(k+1).  Reading stops at the last non-empty layer, and
    the vertices above it join V0 in one mask; a running one-bit mask of G
    names the vertex of the layer in hand.  Rejects any set whose
    intersection with some layer has size outside {0, 1, n}: no maximal
    independent set can do that.  Bits at or above g.n * n name no product
    vertex and are rejected too.
    """
    if n < 2:
        raise ValueError("clique order must be at least 2")
    if i_mask >> g.n * n:
        raise ValueError(f"set has bits outside the {g.n * n} vertices of G x K_{n}")
    layer = (1 << n) - 1
    v0 = 0
    vb = 0
    classes = [0] * n
    m = i_mask
    bit = 1  # the vertex of the layer m & layer, as a mask of G
    while m:  # the layers above the set's highest bit are empty
        hit = m & layer
        m >>= n
        if not hit:
            v0 |= bit
        elif hit == layer:
            vb |= bit
        elif not hit & hit - 1:
            classes[hit.bit_length() - 1] |= bit
        else:
            raise ValueError(
                f"layer over vertex {bit.bit_length() - 1} meets the set in "
                f"{hit.bit_count()} vertices, outside {{0, 1, {n}}}"
            )
        bit <<= 1
    v0 |= (1 << g.n) - bit
    return WeakPartition(g, n, v0, tuple(classes), vb)


@dataclass(frozen=True)
class KnReport:
    """Exact i and alpha of G x K_n with extreme partitions as witnesses."""

    n_g: int
    n: int
    i_value: int
    alpha_value: int
    argmin: WeakPartition
    argmax: WeakPartition
    engine: ClassVar[str] = ENGINE_PRODUCT

    def to_json(self) -> dict:
        return {
            "nG": self.n_g,
            "n": self.n,
            "i": self.i_value,
            "alpha": self.alpha_value,
            "engine": self.engine,
            "argmin": self.argmin.to_json(),
            "argmax": self.argmax.to_json(),
        }


def kn_report(g: Graph, n: int, summary: tuple[int, int, int, int]) -> KnReport:
    """The report of G x K_n, n >= 2, read off the kernel summary
    (i, alpha, min witness, max witness) of the product ``direct_product(g,
    complete(n))``: both witnesses are decoded into their weak partitions."""
    i, a, wit_min, wit_max = summary
    return KnReport(
        g.n, n, i, a, partition_from_mis(g, n, wit_min), partition_from_mis(g, n, wit_max)
    )


def kn_alpha_i(g: Graph, n: int) -> KnReport:
    """Exact i(G x K_n) and alpha(G x K_n), n >= 2.

    Builds the product (or reuses the memoized one), takes its independence
    summary from the kernel, and decodes it with ``kn_report``.  Products
    over 64 vertices raise ``CapacityError`` as ``direct_product`` does.
    """
    if n < 2:
        raise ValueError("clique order must be at least 2")
    return kn_report(g, n, kernel.independence_summary(_kn_product(g, n).graph.adj))


def enumerate_valid_partitions(g: Graph, n: int) -> list[WeakPartition]:
    """All valid weak partitions, every class labeling included.

    The correspondence with maximal independent sets distinguishes class
    labels (V_k picks clique vertex k), so no symmetry reduction here.
    Exhaustive and only meant for cross-validation at small orders: the
    candidate count is (n+2)^n(G).  A candidate gives vertex v a label, 0
    for V_0, k for V_k and n + 1 for the bracket, and the labelings run in
    lexicographic order, vertex 0 slowest.
    """
    if n < 2:
        raise ValueError("clique order must be at least 2")
    out: list[WeakPartition] = []
    for labels in itertools.product(range(n + 2), repeat=g.n):
        parts = [0] * (n + 2)
        for v, label in enumerate(labels):
            parts[label] |= 1 << v
        p = WeakPartition(g, n, parts[0], tuple(parts[1:-1]), parts[-1])
        if not p.violations():
            out.append(p)
    return out


def layer_cardinality_check(prod: ProductGraph, sets: list[int]) -> dict | None:
    """Every maximal independent set of G x K_n meets each layer in 0, 1, or n.

    ``prod`` is G x K_n and ``sets`` its maximal independent sets; the layer
    over g is read as (s >> g*n) & (2^n - 1), as in ``partition_from_mis``.
    Returns the witness of the first set and vertex that fail, or None."""
    n = prod.n_h
    if n < 2:
        raise ValueError("clique order must be at least 2")
    layer = (1 << n) - 1
    for s in sets:
        m = s
        for gv in range(prod.n_g):
            size = (m & layer).bit_count()
            m >>= n
            if size not in (0, 1, n):
                return {
                    "mis": prod.pairs(s),
                    "vertex": gv,
                    "layer_intersection_size": size,
                }
    return None


def necessary_condition_check(g: Graph, n: int) -> dict | None:
    """What a well-covered G x K_n forces: every vertex of degree >= n
    leaves an isolated vertex behind when its closed neighborhood is
    deleted.  Returns the witness of a vertex that does not, or None."""
    if n < 2:
        raise ValueError("clique order must be at least 2")
    for x in range(g.n):
        if g.degree(x) < n:
            continue
        rest = residual(g, 1 << x)
        if not isolated_in(g, rest):
            return {
                "vertex": x,
                "degree": g.degree(x),
                "residual_vertices": to_vertices(rest),
                "residual_min_degree": min(
                    ((g.adj[v] & rest).bit_count() for v in bits(rest)), default=None
                ),
            }
    return None
