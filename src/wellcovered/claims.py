"""Executable registry of structural claims about well-covered graphs and
direct products.

Every claim pairs a hypothesis with a conclusion over one of three instance
shapes: a single graph, an ordered pair of graphs, or a graph together with
a clique order n.  Each check is registered where it is defined, by
``@_claim(claim_id, shape, summary)``, and ``REGISTRY`` and ``CLAIM_IDS``
keep the order of definition.  Verdicts are "holds", "vacuous" (the
hypothesis failed, so the instance says nothing), or "counterexample"
carrying a witness that can be re-checked by hand with the basic
primitives.  Universally quantified inner objects (independent sets, maximal
independent sets, perfect matchings) are enumerated exhaustively; nothing is
sampled.  A check returns only an ``Outcome``, its status and witness; the
shared ``HOLDS_OUTCOME`` and ``VACUOUS_OUTCOME`` cover every instance
without a counterexample.  ``Claim.outcome`` runs a check and holds the one
skip rule: a check that needs a product past the 64-vertex cap is
"skipped".  A full ``ClaimVerdict`` adds the claim id and the instance JSON,
which ``instance_json`` alone spells from the claim's shape.  It is built in
``Claim.verdict`` for ``verify`` and ``cli product --check``, and in
``run_suite`` only for counterexamples.  Only this module builds verdicts:
the checks it calls elsewhere return a witness dict or None.

Graphs and products are built once, in the two facts classes, and every
claim reads them from there; ``facts_for`` gives the facts of one instance.
``run_suite`` keeps one ``GraphFacts`` per distinct graph for the whole
call, through one ``facts_cache`` of at most ``FACTS_CACHE_SIZE`` graphs, so
a graph in many instances is summarized, enumerated and walked once while
the stream has at most that many distinct graphs.  ``GraphFacts``
summarizes a graph once and lists its independent sets in one walk, which
every claim about the residuals G - N[S] reads.  ``PairFacts`` is the one
object that decides whether a product is well-covered: the pair claims,
``cli product`` and ``cli scan`` ask it, and so do the G x K_n claims.
``GraphFacts.clique(n)`` is G paired with the facts of K_n that the
facts function which built G gives, so in a ``facts_cache`` it is the
run's one K_n, and nothing decided in one run is kept for the next.  It
is the facts of a (G, n) instance and of a (G, K_n) pair, and
``k3_dichotomy`` reads the same ``clique(3)``, so the three share one
product, one lifted certificate and one decision.  ``multipartite_square``
reads the ``square`` G x G, which is also the facts of any other pair of
equal graphs.  ``PairFacts`` shares its factors' ``GraphFacts`` and so their
summaries.
``products.lifted_witnesses`` first lifts the factors' maximum and minimum
witnesses and checks them in the product; ``trivial_bounds`` reads the same
certificate for its bounds.  When the certified independent set is larger
than the certified maximal one, the product is not well-covered and no
search runs.  Otherwise the kernel's decision runs the summary walk per
component and stops at the first component with two maximal-set sizes.
``trivial_bounds`` needs the product's exact alpha and i only if the
certificate fails.

A claim pays only for the facts its verdict reads.  Every fact is a
``lazy`` attribute, computed on first read and stored in the instance
without a lock (on Python 3.11 ``functools.cached_property`` takes one on
every first read, which costs more than many facts).  The pair hypotheses
that ask for a well-covered product read ``PairFacts.decided_not_wc``
before their factor-only facts, the isolatable vertices and connectivity:
``wc_direct`` and ``trivial_bounds`` have already decided the product, and
it is almost never well-covered.  That read comes first only when the
product fits the 64-vertex cap.  Past the cap the factor facts still come
first, so a hypothesis that fails on them stays vacuous rather than
becoming skipped.  ``bipartite_isolation`` and ``support_leaf_unique`` read
the graph's well-coveredness before anything else.  The suite runner
groups the requested claims by shape when it meets the first instance of
that shape, tallies verdicts per claim and merges partial reports
associatively, so instance streams can be partitioned across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import kernel
from .families import (
    complete,
    complete_multipartite,
    corpus,
    corpus_representatives,
    cycle,
    h_family,
    h_family_params,
    multipartite_params,
)
from .formats import to_graph6
from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    bits,
    closed_neighborhood,
    components,
    disjoint_union,
    girth,
    is_bipartite,
    is_complete,
    is_connected,
    is_maximal_independent,
    is_regular,
    isolated_in,
    json_girth,
    min_degree,
    neighborhood,
    residual,
    to_mask,
    to_vertices,
)
from .independence import (
    WellCoveredReport,
    berge_violation,
    enumerate_independent_sets,
    favaron_equivalence_verdict,
    is_very_well_covered,
    isolatable_vertices,
    well_covered_report,
)
from .kn_partitions import kn_report, layer_cardinality_check, necessary_condition_check
from .products import (
    ProductGraph,
    direct_product,
    lifted_witnesses,
    product_bounds_check,
)

SHAPE_GRAPH = "single-graph"
SHAPE_PAIR = "graph-pair"
SHAPE_GRAPH_N = "graph-plus-n"

HOLDS = "holds"
VACUOUS = "vacuous"
COUNTEREXAMPLE = "counterexample"
SKIPPED = "skipped"


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome of checking one claim on one instance.

    ``status`` is "holds" when hypothesis and conclusion both held,
    "vacuous" when the hypothesis failed, "counterexample" when the
    hypothesis held but the conclusion did not, and "skipped" when the check
    needs a product past the 64-vertex cap.  A counterexample carries a
    ``witness`` dict with enough concrete data to re-verify the violation
    without rerunning the search.
    """

    claim_id: str
    instance: dict[str, Any]
    status: str
    witness: dict[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "claim": self.claim_id,
            "instance": self.instance,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Outcome(NamedTuple):
    """What a check returns: a status and, for a counterexample, its witness.
    ``Claim.verdict`` adds the claim id and the instance."""

    status: str
    witness: dict[str, Any] | None = None


HOLDS_OUTCOME = Outcome(HOLDS)
VACUOUS_OUTCOME = Outcome(VACUOUS)
SKIPPED_OUTCOME = Outcome(SKIPPED)


def _outcome(witness: dict | None) -> Outcome:
    """Holds without a witness; a counterexample with one."""
    if witness is None:
        return HOLDS_OUTCOME
    return Outcome(COUNTEREXAMPLE, witness)


class lazy:
    """A fact computed on first read and stored in the instance ``__dict__``,
    where it shadows this descriptor, so later reads are plain attribute
    reads.  ``functools.cached_property`` does the same but on Python 3.11
    takes a lock on every first read, which costs more than many of the
    facts it stores; a facts object is never shared between threads.  Read
    on the class, it returns itself."""

    def __init__(self, compute: Callable[[Any], Any]) -> None:
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class GraphFacts:
    """Lazily computed facts about a single graph, shared across claims.
    ``facts_of`` is the facts function that built it, such as a
    ``facts_cache``, which ``clique`` asks for K_n; without one, each order
    gets fresh facts of K_n."""

    def __init__(
        self, graph: Graph, facts_of: Callable[[Graph], GraphFacts] | None = None
    ) -> None:
        self.graph = graph
        self.facts_of = GraphFacts if facts_of is None else facts_of
        self._cliques: dict[int, PairFacts] = {}

    @lazy
    def graph6(self) -> str:
        return to_graph6(self.graph)

    @lazy
    def report(self) -> WellCoveredReport:
        return well_covered_report(self.graph)

    @lazy
    def has_isolated(self) -> bool:
        return 0 in self.graph.adj

    @lazy
    def nontrivial_connected(self) -> bool:
        return self.graph.n >= 2 and is_connected(self.graph)

    @lazy
    def isolatable_mask(self) -> int:
        return isolatable_vertices(self.graph)

    @lazy
    def mis_list(self) -> list[int]:
        return kernel.maximal_independent_sets(self.graph.adj)

    @lazy
    def independent_sets(self) -> list[int]:
        """Every independent set in ``enumerate_independent_sets`` order, for
        ``residual_wc``, ``clique_leftover``, ``berge`` and, as first factor,
        ``closed_nbhd_size`` and ``no_bipartite_residual``."""
        return list(enumerate_independent_sets(self.graph))

    def clique(self, n: int) -> PairFacts:
        """G x K_n, one per order: the facts of a (G, n) instance and of a
        (G, K_n) pair, and for n = 3 the product ``k3_dichotomy`` asks about,
        so all three share one product and one decision.  When ``facts_of``
        gives G itself for K_n, it is the ``square``."""
        found = self._cliques.get(n)
        if found is None:
            kn = self.facts_of(complete(n))
            found = self._cliques[n] = self.square if kn is self else PairFacts(self, kn)
        return found

    @lazy
    def square(self) -> PairFacts:
        """G x G, the product ``multipartite_square`` asks about and the
        facts of a pair of equal graphs."""
        return PairFacts(self, self)


class PairFacts:
    """Facts about an ordered pair of graphs and their direct product.  The
    factors' facts are passed in, so pairs with a common factor share its
    summary."""

    def __init__(self, g: GraphFacts, h: GraphFacts) -> None:
        self.g = g
        self.h = h

    @lazy
    def product(self) -> ProductGraph:
        return direct_product(self.g.graph, self.h.graph)

    @lazy
    def product_report(self) -> WellCoveredReport:
        """The full summary of the product, for ``cli product``, the
        witnesses of ``multipartite_square`` and ``h_family_product`` and a
        failed ``trivial_bounds`` certificate; decisions read
        ``product_wc_size`` instead."""
        return well_covered_report(self.product.graph)

    @lazy
    def product_mis_list(self) -> list[int]:
        """The product's maximal independent sets, for ``layer_sizes``."""
        return kernel.maximal_independent_sets(self.product.graph.adj)

    @lazy
    def lifted(self) -> tuple[int, int] | None:
        """``lifted_witnesses`` of the product: the certificate that
        ``trivial_bounds`` and ``product_wc_size`` share."""
        return lifted_witnesses(self.product, self.g.report, self.h.report)

    @lazy
    def product_wc_size(self) -> int:
        """The common size of the product's maximal independent sets, or -1.

        It has two sources.  When the ``lifted`` independent set ``big`` is
        larger than the ``lifted`` maximal independent set ``small``, some
        maximal set contains ``big`` and so is larger than ``small``: both
        were checked in the product, so the answer is -1 without a search.
        In every other case ``kernel.well_covered_size`` decides, even when
        ``product_report`` is already computed."""
        lifted = self.lifted
        if lifted is not None and lifted[0].bit_count() > lifted[1].bit_count():
            return -1
        return kernel.well_covered_size(self.product.graph.adj)

    @property
    def product_wc(self) -> bool:
        return self.product_wc_size >= 0

    @property
    def decided_not_wc(self) -> bool:
        """The product fits the 64-vertex cap and is not well-covered.

        A hypothesis that asks for a well-covered product reads this before
        its factor-only facts: ``wc_direct`` and ``trivial_bounds`` have
        already decided the product, and the answer almost always refutes
        the hypothesis.  Past the cap it is False and builds nothing, so the
        hypothesis reads its factor facts first, as it always did, and one
        that fails them stays vacuous rather than becoming skipped."""
        return self.g.graph.n * self.h.graph.n <= MAX_VERTICES and not self.product_wc

    @property
    def product_vwc(self) -> bool:
        return is_very_well_covered(self.product.graph, self.product_wc_size)

    @property
    def connected_factors(self) -> bool:
        """Both factors nontrivial and connected: the hypothesis the paper's
        product theorems share."""
        return self.g.nontrivial_connected and self.h.nontrivial_connected

    @property
    def wc_not_vwc(self) -> bool:
        return self.product_wc and not self.product_vwc


def instance_json(shape: str, facts: GraphFacts | PairFacts) -> dict:
    """The instance a verdict or scan row names, spelled from its shape: a
    (G, K_n) pair and a (G, n) instance share their facts but not this."""
    if shape == SHAPE_GRAPH:
        return {"graph6": facts.graph6}
    if shape == SHAPE_PAIR:
        return {"g": facts.g.graph6, "h": facts.h.graph6}
    return {"graph6": facts.g.graph6, "n": facts.h.graph.n}


@dataclass(frozen=True)
class Claim:
    """One registered claim: stable id, instance shape, and checker.
    ``check`` maps the instance's facts to an ``Outcome``."""

    claim_id: str
    shape: str
    check: Callable[[Any], Outcome]
    summary: str

    def outcome(self, facts: GraphFacts | PairFacts) -> Outcome:
        """The check's outcome, or skipped when it needs a product past the
        64-vertex cap."""
        try:
            return self.check(facts)
        except CapacityError:
            return SKIPPED_OUTCOME

    def verdict(self, facts: GraphFacts | PairFacts) -> ClaimVerdict:
        status, witness = self.outcome(facts)
        return ClaimVerdict(self.claim_id, instance_json(self.shape, facts), status, witness)


REGISTRY: dict[str, Claim] = {}


def _claim(claim_id: str, shape: str, summary: str) -> Callable:
    """Register the decorated check as claim ``claim_id``, in the order of
    definition."""

    def register(check: Callable[[Any], Outcome]) -> Callable[[Any], Outcome]:
        REGISTRY[claim_id] = Claim(claim_id, shape, check, summary)
        return check

    return register


@_claim(
    "inverse_image",
    SHAPE_PAIR,
    "maximal independent sets of G lift to maximal sets of G x H when H has no isolated vertices",
)
def _check_inverse_image(f: PairFacts) -> Outcome:
    if f.h.has_isolated:
        return VACUOUS_OUTCOME
    prod = f.product
    for mis in f.g.mis_list:
        lifted = prod.layers_h(mis)
        if not is_maximal_independent(prod.graph, lifted):
            witness = {
                "factor_mis": to_vertices(mis),
                "lifted": prod.pairs(lifted),
            }
            return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "trivial_bounds",
    SHAPE_PAIR,
    "alpha(G x H) >= max(alpha(G) n(H), alpha(H) n(G)) and i(G x H) <= min(i(G) n(H), i(H) n(G))",
)
def _check_trivial_bounds(f: PairFacts) -> Outcome:
    """Both bounds are certified in the product by ``lifted``: an independent
    set of the lower bound's size, and a maximal independent set within the
    upper bound.  For isolate-free factors the certificate always passes;
    only when it fails does the exact summary of G x H run, and the verdict
    and witness then follow its alpha and i."""
    if f.g.has_isolated or f.h.has_isolated:
        return VACUOUS_OUTCOME
    if f.lifted is not None:
        return HOLDS_OUTCOME
    witness = product_bounds_check(f.product, f.g.report, f.h.report, f.product_report)
    return _outcome(witness)


@_claim(
    "residual_wc",
    SHAPE_GRAPH,
    "removing N[I] from a well-covered graph leaves a well-covered graph",
)
def _check_residual_wc(f: GraphFacts) -> Outcome:
    if not f.report.well_covered:
        return VACUOUS_OUTCOME
    g = f.graph
    for s in f.independent_sets:
        rest = residual(g, s)
        if kernel.well_covered_size(g.adj, rest) < 0:
            # only the witness needs the residual's i and alpha
            low, high, _, _ = kernel.independence_summary(g.adj, rest)
            witness = {
                "independent_set": to_vertices(s),
                "residual_vertices": to_vertices(rest),
                "residual_i": low,
                "residual_alpha": high,
            }
            return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "clique_leftover",
    SHAPE_GRAPH,
    "an independent set of size alpha - 1 is maximal or leaves a clique",
)
def _check_clique_leftover(f: GraphFacts) -> Outcome:
    g = f.graph
    adj = g.adj
    size = f.report.alpha - 1
    for s in f.independent_sets:
        if s.bit_count() != size:
            continue
        rest = residual(g, s)
        # G - N[S] is a clique exactly when every vertex left sees the rest
        if any(rest & ~adj[v] != 1 << v for v in bits(rest)):
            witness = {
                "independent_set": to_vertices(s),
                "residual_vertices": to_vertices(rest),
            }
            return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "wc_direct",
    SHAPE_PAIR,
    "well-covered products have well-covered factors with equal isolate-free independence ratios",
)
def _check_wc_direct(f: PairFacts) -> Outcome:
    """Pairs with an edgeless factor are treated as out of hypothesis: the
    isolate-free part is then empty and the ratio is undefined.

    Isolated vertices lie in every maximal independent set, so the
    isolate-free part G+ has alpha(G+) = alpha(G) - #isolated."""
    if not f.product_wc:
        return VACUOUS_OUTCOME
    g, h = f.g.graph, f.h.graph
    if g.m == 0 or h.m == 0:
        return VACUOUS_OUTCOME
    if not f.g.report.well_covered or not f.h.report.well_covered:
        witness = {
            "g_well_covered": f.g.report.well_covered,
            "h_well_covered": f.h.report.well_covered,
        }
        return Outcome(COUNTEREXAMPLE, witness)
    iso_g = g.adj.count(0)
    iso_h = h.adj.count(0)
    a_g, n_g = f.g.report.alpha - iso_g, g.n - iso_g
    a_h, n_h = f.h.report.alpha - iso_h, h.n - iso_h
    if a_g * n_h != a_h * n_g:
        witness = {
            "alpha_g_positive": a_g,
            "n_g_positive": n_g,
            "alpha_h_positive": a_h,
            "n_h_positive": n_h,
        }
        return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "berge",
    SHAPE_GRAPH,
    "independent sets of well-covered isolate-free graphs satisfy |S| <= |N(S)|",
)
def _check_berge(f: GraphFacts) -> Outcome:
    if not f.report.well_covered or f.has_isolated:
        return VACUOUS_OUTCOME
    bad = berge_violation(f.graph, f.independent_sets)
    if bad is not None:
        witness = {
            "independent_set": to_vertices(bad),
            "open_neighborhood": to_vertices(neighborhood(f.graph, bad)),
        }
        return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "favaron",
    SHAPE_GRAPH,
    "very well-covered is equivalent to the perfect-matching pairing property",
)
def _check_favaron(f: GraphFacts) -> Outcome:
    witness = favaron_equivalence_verdict(f.graph, f.report.very_well_covered)
    return _outcome(witness)


@_claim(
    "vwc_product",
    SHAPE_PAIR,
    "with a very well-covered factor, product well-coveredness collapses to both factors very well-covered",
)
def _check_vwc_product(f: PairFacts) -> Outcome:
    """With isolate-free factors at least one of which is very well-covered,
    the product being well-covered, the product being very well-covered, and
    both factors being very well-covered are all equivalent."""
    if f.g.has_isolated or f.h.has_isolated:
        return VACUOUS_OUTCOME
    if not (f.g.report.very_well_covered or f.h.report.very_well_covered):
        return VACUOUS_OUTCOME
    a = f.product_wc
    b = f.product_vwc
    c = f.g.report.very_well_covered and f.h.report.very_well_covered
    if a == b == c:
        return HOLDS_OUTCOME
    witness = {
        "product_well_covered": a,
        "product_very_well_covered": b,
        "both_factors_very_well_covered": c,
    }
    return Outcome(COUNTEREXAMPLE, witness)


@_claim(
    "layer_sizes",
    SHAPE_GRAPH_N,
    "maximal independent sets of G x K_n meet every layer in 0, 1, or n vertices",
)
def _check_layer_sizes(f: PairFacts) -> Outcome:
    if f.h.graph.n < 2:
        return VACUOUS_OUTCOME
    witness = layer_cardinality_check(f.product, f.product_mis_list)
    return _outcome(witness)


@_claim(
    "kn_necessary",
    SHAPE_GRAPH_N,
    "well-covered G x K_n forces isolated vertices in G - N[x] for every x of degree >= n",
)
def _check_kn_necessary(f: PairFacts) -> Outcome:
    n = f.h.graph.n
    if n < 2 or not f.product_wc:
        return VACUOUS_OUTCOME
    return _outcome(necessary_condition_check(f.g.graph, n))


@_claim(
    "bipartite_isolation",
    SHAPE_GRAPH,
    "bipartite well-covered graphs with minimum degree 2 have isolatable vertices everywhere",
)
def _check_bipartite_isolation(f: GraphFacts) -> Outcome:
    """Deleting any closed neighborhood N[x] leaves an isolated vertex."""
    if not f.report.well_covered:
        return VACUOUS_OUTCOME
    b = f.graph
    # K0 has minimum degree infinity but no vertex to isolate
    if b.n == 0 or not is_bipartite(b) or min_degree(b) < 2:
        return VACUOUS_OUTCOME
    # a vertex left isolated by deleting N[x] is isolatable through {x}, so
    # without isolatable vertices this loop already fails at x = 0
    for x in range(b.n):
        rest = residual(b, 1 << x)
        if not isolated_in(b, rest):
            witness = {"vertex": x, "residual_vertices": to_vertices(rest)}
            return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "closed_nbhd_size",
    SHAPE_PAIR,
    "without isolatable vertices, independent k-sets have closed neighborhoods of size k n / alpha",
)
def _check_closed_nbhd_size(f: PairFacts) -> Outcome:
    """With H nontrivial connected, G free of isolatable vertices, and the
    product well-covered, every independent k-set of G has closed
    neighborhood of size exactly k * n(G) / alpha(G)."""
    if f.decided_not_wc:
        return VACUOUS_OUTCOME
    hyp = f.h.nontrivial_connected and f.g.isolatable_mask == 0 and f.product_wc
    if not hyp:
        return VACUOUS_OUTCOME
    g = f.g.graph
    a = f.g.report.alpha
    for s in f.g.independent_sets:
        k = s.bit_count()
        if k == 0:
            continue
        closed = closed_neighborhood(g, s)
        if closed.bit_count() * a != k * g.n:
            witness = {
                "independent_set": to_vertices(s),
                "closed_neighborhood": to_vertices(closed),
                "alpha": a,
                "order": g.n,
            }
            return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "regularity",
    SHAPE_PAIR,
    "without isolatable vertices, a well-covered product forces an (n/alpha - 1)-regular factor",
)
def _check_regularity(f: PairFacts) -> Outcome:
    """Same hypothesis as closed_nbhd_size but with both factors nontrivial
    connected; the first factor must be (n/alpha - 1)-regular."""
    if f.decided_not_wc:
        return VACUOUS_OUTCOME
    hyp = f.connected_factors and f.g.isolatable_mask == 0 and f.product_wc
    if not hyp:
        return VACUOUS_OUTCOME
    g = f.g.graph
    a = f.g.report.alpha
    degree = is_regular(g)
    if degree is None or (degree + 1) * a != g.n:
        witness = {
            "regular_degree": degree,
            "alpha": a,
            "order": g.n,
        }
        return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "k3_dichotomy", SHAPE_GRAPH, "well-covered G x K3 forces G = K3 or an isolatable vertex in G"
)
def _check_k3_dichotomy(f: GraphFacts) -> Outcome:
    if not f.nontrivial_connected or not f.clique(3).product_wc:
        return VACUOUS_OUTCOME
    if (f.graph.n == 3 and is_complete(f.graph)) or f.isolatable_mask:
        return HOLDS_OUTCOME
    witness = {"complete_of_order_3": False, "isolatable_vertices": []}
    return Outcome(COUNTEREXAMPLE, witness)


@_claim(
    "no_isolatable_complete",
    SHAPE_PAIR,
    "a factor without isolatable vertices in a well-covered product is complete",
)
def _check_no_isolatable_complete(f: PairFacts) -> Outcome:
    if f.decided_not_wc:
        return VACUOUS_OUTCOME
    hyp = f.connected_factors and f.product_wc and f.g.isolatable_mask == 0
    if not hyp:
        return VACUOUS_OUTCOME
    g = f.g.graph
    if is_complete(g):
        return HOLDS_OUTCOME
    pair = next(
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    )
    return Outcome(COUNTEREXAMPLE, {"nonadjacent_pair": list(pair)})


@_claim(
    "both_complete",
    SHAPE_PAIR,
    "two factors without isolatable vertices force equal complete graphs",
)
def _check_both_complete(f: PairFacts) -> Outcome:
    if f.decided_not_wc:
        return VACUOUS_OUTCOME
    hyp = (
        f.connected_factors
        and f.g.isolatable_mask == 0
        and f.h.isolatable_mask == 0
        and f.product_wc
    )
    if not hyp:
        return VACUOUS_OUTCOME
    g, h = f.g.graph, f.h.graph
    if is_complete(g) and is_complete(h) and g.n == h.n:
        return HOLDS_OUTCOME
    witness = {
        "g_complete": is_complete(g),
        "h_complete": is_complete(h),
        "orders": [g.n, h.n],
    }
    return Outcome(COUNTEREXAMPLE, witness)


@_claim(
    "no_bipartite_residual",
    SHAPE_PAIR,
    "well-covered but not very well-covered products leave no bipartite residual component above K1",
)
def _check_no_bipartite_residual(f: PairFacts) -> Outcome:
    if f.decided_not_wc:
        return VACUOUS_OUTCOME
    hyp = f.connected_factors and f.wc_not_vwc
    if not hyp:
        return VACUOUS_OUTCOME
    g = f.g.graph
    for s in f.g.independent_sets:
        # the first component above K1 without an odd cycle, by least vertex
        comp = next((c for c, odd in components(g, residual(g, s)) if not odd and c & c - 1), 0)
        if comp:
            witness = {
                "independent_set": to_vertices(s),
                "component_vertices": to_vertices(comp),
            }
            return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


def _in_triangle(g: Graph, w: int) -> bool:
    return any(g.adj[w] & g.adj[a] for a in to_vertices(g.adj[w]))


@_claim(
    "edge_triangle",
    SHAPE_PAIR,
    "well-covered but not very well-covered products leave every factor edge incident with a triangle",
)
def _check_edge_triangle(f: PairFacts) -> Outcome:
    """An edge is incident with a triangle when at least one endpoint lies
    in one; the edge itself need not span a triangle."""
    if f.decided_not_wc:
        return VACUOUS_OUTCOME
    hyp = f.connected_factors and f.wc_not_vwc
    if not hyp:
        return VACUOUS_OUTCOME
    for name, facts in (("g", f.g), ("h", f.h)):
        graph = facts.graph
        for u, v in graph.edges():
            if not _in_triangle(graph, u) and not _in_triangle(graph, v):
                return Outcome(COUNTEREXAMPLE, {"factor": name, "edge": [u, v]})
    return HOLDS_OUTCOME


@_claim(
    "girth_three",
    SHAPE_PAIR,
    "well-covered but not very well-covered products force girth 3 in both factors",
)
def _check_girth_three(f: PairFacts) -> Outcome:
    if f.decided_not_wc:
        return VACUOUS_OUTCOME
    hyp = f.connected_factors and f.wc_not_vwc
    if not hyp:
        return VACUOUS_OUTCOME
    gg = girth(f.g.graph)
    gh = girth(f.h.graph)
    if gg == 3 and gh == 3:
        return HOLDS_OUTCOME
    witness = {"girth_g": json_girth(gg), "girth_h": json_girth(gh)}
    return Outcome(COUNTEREXAMPLE, witness)


@_claim(
    "twins",
    SHAPE_GRAPH,
    "a maximal independent set meets the common neighborhood of twins or contains both",
)
def _check_twins(f: GraphFacts) -> Outcome:
    """Twins are vertices with identical open neighborhoods; vacuous when
    the graph has no such pair."""
    g = f.graph
    twins = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u] == g.adj[v]
    ]
    if not twins:
        return VACUOUS_OUTCOME
    for mis in f.mis_list:
        for u, v in twins:
            if g.adj[u] & mis:
                continue
            if mis >> u & 1 and mis >> v & 1:
                continue
            witness = {"mis": to_vertices(mis), "twin_pair": [u, v]}
            return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME


@_claim(
    "h_family_product",
    SHAPE_GRAPH_N,
    "split graphs H(k, n-1) have well-covered direct product with K_n",
)
def _check_h_family_product(f: PairFacts) -> Outcome:
    """The hypothesis is recognized structurally, so relabeled instances
    work."""
    params = h_family_params(f.g.graph)
    n = f.h.graph.n
    if params is None or n != params[1] + 1:
        return VACUOUS_OUTCOME
    if f.product_wc:
        return HOLDS_OUTCOME
    # only the witness needs the product's i, alpha and extreme sets
    rep = f.product_report
    kn = kn_report(f.g.graph, n, (rep.i_number, rep.alpha, rep.witness_min, rep.witness_max))
    witness = {
        "i": rep.i_number,
        "alpha": rep.alpha,
        "argmin": kn.argmin.to_json(),
        "argmax": kn.argmax.to_json(),
    }
    return Outcome(COUNTEREXAMPLE, witness)


@_claim(
    "multipartite_square",
    SHAPE_GRAPH,
    "balanced complete multipartite graphs have well-covered direct product squares",
)
def _check_multipartite_square(f: GraphFacts) -> Outcome:
    if multipartite_params(f.graph) is None:
        return VACUOUS_OUTCOME
    if f.square.product_wc:
        return HOLDS_OUTCOME
    # only the witness needs the square's i and alpha
    report = f.square.product_report
    witness = {"square_i": report.i_number, "square_alpha": report.alpha}
    return Outcome(COUNTEREXAMPLE, witness)


@_claim(
    "support_leaf_unique",
    SHAPE_GRAPH,
    "support vertices of well-covered graphs carry exactly one leaf",
)
def _check_support_leaf_unique(f: GraphFacts) -> Outcome:
    if not f.report.well_covered:
        return VACUOUS_OUTCOME
    g = f.graph
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    supports = sorted({g.adj[v].bit_length() - 1 for v in leaves})
    if not supports:
        return VACUOUS_OUTCOME
    leaf_mask = to_mask(leaves)
    for x in supports:
        attached = g.adj[x] & leaf_mask
        if attached.bit_count() != 1:
            witness = {"support": x, "adjacent_leaves": to_vertices(attached)}
            return Outcome(COUNTEREXAMPLE, witness)
    return HOLDS_OUTCOME



CLAIM_IDS: tuple[str, ...] = tuple(REGISTRY)

Instance = Graph | tuple


def instance_shape(instance: Instance) -> str:
    if isinstance(instance, Graph):
        return SHAPE_GRAPH
    if isinstance(instance, tuple) and len(instance) == 2 and isinstance(instance[0], Graph):
        if isinstance(instance[1], Graph):
            return SHAPE_PAIR
        if isinstance(instance[1], int):
            return SHAPE_GRAPH_N
    raise TypeError(f"unrecognized instance {instance!r}")


FACTS_CACHE_SIZE = 1024  # distinct graphs a bounded facts_cache holds before it starts afresh


def facts_cache(bounded: bool = True) -> Callable[[Graph], GraphFacts]:
    """A function that returns one ``GraphFacts`` per distinct graph (equal
    by value) for as long as it is kept, so a graph that appears in many
    instances is summarized, enumerated and walked once.  Each facts it
    builds asks it for K_n in ``clique``, so K_n, as an instance and as the
    second factor of every G x K_n, is summarized once per cache too.

    A bounded cache holds at most ``FACTS_CACHE_SIZE`` graphs and is emptied
    when it reaches that many, so a stream of any length keeps a bounded
    memory.  That covers every pair pool of at most 1,024 graphs: the 996
    classes of ``corpus_representatives(7)`` or the 772 labeled graphs of
    ``corpus(5)``.  Past it, as with the 27,476 labeled graphs of
    ``corpus(6)`` under a small ``--cap``, a graph may be summarized again
    after the cache is emptied, though never more than once per instance.
    An unbounded cache keeps every graph it is given, for a caller that
    holds the whole pool in memory anyway."""
    held: dict[Graph, GraphFacts] = {}
    limit = FACTS_CACHE_SIZE if bounded else None

    def facts(g: Graph) -> GraphFacts:
        found = held.get(g)
        if found is None:
            if len(held) == limit:
                held.clear()
            found = held[g] = GraphFacts(g, facts)
        return found

    return facts


def facts_for(
    shape: str, instance: Instance, facts: Callable[[Graph], GraphFacts]
) -> GraphFacts | PairFacts:
    """The facts of one instance, with each graph's ``GraphFacts`` from
    ``facts``, such as a ``facts_cache``.  A pair whose second factor is
    complete, K_n, is its first factor's ``clique(n)``, and another pair of
    equal graphs is its first factor's ``square``."""
    if shape == SHAPE_GRAPH:
        return facts(instance)
    if shape == SHAPE_PAIR:
        g, h = facts(instance[0]), facts(instance[1])
        if is_complete(h.graph):
            return g.clique(h.graph.n)
        return g.square if g is h else PairFacts(g, h)
    return facts(instance[0]).clique(instance[1])


def verify(claim_id: str, instance: Instance) -> ClaimVerdict:
    """Check one claim on one instance and return its ``ClaimVerdict``.  The
    instance must match the claim's shape: a Graph, a (Graph, Graph) pair, or
    a (Graph, n) pair."""
    claim = REGISTRY.get(claim_id)
    if claim is None:
        raise KeyError(f"unknown claim id: {claim_id}")
    shape = instance_shape(instance)
    if shape != claim.shape:
        raise TypeError(f"claim {claim_id} expects a {claim.shape} instance, got {shape}")
    return claim.verdict(facts_for(shape, instance, facts_cache()))


@dataclass(slots=True)
class ClaimTally:
    holds: int = 0
    vacuous: int = 0
    counterexamples: list[ClaimVerdict] = field(default_factory=list)
    skipped: int = 0  # checks that need a product past the 64-vertex cap

    def merge(self, other: "ClaimTally") -> "ClaimTally":
        return ClaimTally(
            self.holds + other.holds,
            self.vacuous + other.vacuous,
            self.counterexamples + other.counterexamples,
            self.skipped + other.skipped,
        )

    def to_json(self) -> dict:
        out: dict[str, Any] = {"holds": self.holds, "vacuous": self.vacuous}
        if self.skipped:  # absent when zero, so reports without skips keep their bytes
            out["skipped"] = self.skipped
        out["counterexamples"] = [v.to_json() for v in self.counterexamples]
        return out


@dataclass
class SuiteReport:
    tallies: dict[str, ClaimTally]

    @property
    def passed(self) -> bool:
        return all(not t.counterexamples for t in self.tallies.values())

    @property
    def counterexample_count(self) -> int:
        return sum(len(t.counterexamples) for t in self.tallies.values())

    def merge(self, other: "SuiteReport") -> "SuiteReport":
        merged = dict(self.tallies)
        for claim_id, tally in other.tallies.items():
            if claim_id in merged:
                merged[claim_id] = merged[claim_id].merge(tally)
            else:
                merged[claim_id] = tally
        return SuiteReport(merged)

    def to_json(self) -> dict:
        return {claim_id: tally.to_json() for claim_id, tally in self.tallies.items()}


def run_suite(claim_ids: Iterable[str], instances: Iterable[Instance]) -> SuiteReport:
    """Apply every named claim to every instance of its shape.

    Facts are computed once per distinct graph per call, through one
    ``facts_cache`` (at most ``FACTS_CACHE_SIZE`` graphs at a time), and
    shared by every claim on every instance that graph is in.  The claims
    of a shape are looked up in ``REGISTRY`` when the first instance of
    that shape arrives; instances whose shape matches no requested claim
    are passed over.
    Holds, vacuous and skipped outcomes are only counted; a ``ClaimVerdict``,
    and with it the instance's graph6 encoding, is built for counterexamples
    alone.
    """
    report = SuiteReport({c: ClaimTally() for c in claim_ids})
    by_shape: dict[str, list[tuple[Claim, ClaimTally]]] = {}
    facts_of = facts_cache()
    for inst in instances:
        shape = instance_shape(inst)
        group = by_shape.get(shape)
        if group is None:  # the first instance of this shape
            group = by_shape[shape] = [
                (claim, tally)
                for claim_id, tally in report.tallies.items()  # each id once
                if (claim := REGISTRY[claim_id]).shape == shape
            ]
        if not group:
            continue
        facts = facts_for(shape, inst, facts_of)
        for claim, tally in group:
            status, witness = claim.outcome(facts)
            if status == HOLDS:
                tally.holds += 1
            elif status == VACUOUS:
                tally.vacuous += 1
            elif status == SKIPPED:
                tally.skipped += 1
            else:
                tally.counterexamples.append(
                    ClaimVerdict(claim.claim_id, instance_json(shape, facts), status, witness)
                )
    return report


CHUNK_SIZE = 512  # instances per worker task in run_suite_parallel


def run_suite_parallel(
    claim_ids: Iterable[str], instances: Iterable[Instance], jobs: int = 1
) -> SuiteReport:
    """Partition the instance stream across worker processes and merge the
    partial reports in stream order, so output is independent of timing."""
    ids = tuple(claim_ids)
    if jobs <= 1:
        return run_suite(ids, instances)
    import multiprocessing

    stream = iter(instances)
    chunks = iter(lambda: list(islice(stream, CHUNK_SIZE)), [])
    report = SuiteReport({c: ClaimTally() for c in ids})
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(jobs) as pool:
        for part in pool.imap(partial(run_suite, ids), chunks):
            report = report.merge(part)
    return report


def corpus_single_instances(max_n: int, representatives: bool = False) -> Iterator[Graph]:
    """Connected graphs up to max_n vertices, labeled or one per class."""
    stream = corpus_representatives if representatives else corpus
    yield from stream(max_n)


def corpus_pair_instances(
    max_n: int, cap: int = 36, representatives: bool = False
) -> Iterator[tuple[Graph, Graph]]:
    """Ordered pairs of connected graphs whose product stays within cap."""
    pool = list(corpus_single_instances(max_n, representatives))
    for g in pool:
        for h in pool:
            if g.n * h.n <= cap:
                yield g, h


def corpus_graph_n_instances(
    max_n: int, orders: tuple[int, ...] = (2, 3), representatives: bool = False
) -> Iterator[tuple[Graph, int]]:
    """Connected graphs paired with each requested clique order, each order
    once and in the order first given."""
    orders = tuple(dict.fromkeys(orders))
    for g in corpus_single_instances(max_n, representatives):
        for n in orders:
            if g.n * n <= MAX_VERTICES:
                yield g, n


def targeted_instances() -> list[Instance]:
    """Hand-picked instances that exercise hypotheses too rare to appear in
    tiny corpora, so no claim passes the suite by vacuity alone."""
    k2 = complete(2)
    k3 = complete(3)
    return [
        complete(1),
        k2,
        k3,
        cycle(4),
        cycle(5),
        complete_multipartite([2, 2, 2]),
        h_family(3, 1),
        h_family(2, 2),
        (k2, k2),
        (k3, k3),
        (complete(4), complete(4)),
        (disjoint_union(k2, complete(1)), k2),
        (cycle(5), cycle(5)),
        (k3, complete_multipartite([2, 2])),
        (h_family(2, 2), k3),
        (h_family(3, 1), k2),
        (k2, 2),
        (k3, 2),
        (k3, 3),
        (cycle(4), 2),
        (cycle(7), 2),
        (h_family(3, 1), 2),
        (h_family(2, 2), 3),
        (h_family(1, 2), 3),
    ]
