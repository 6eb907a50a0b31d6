"""Named constructions, parameter recognition, and the exhaustive corpus."""

import hashlib
import random
from collections import Counter, defaultdict
from itertools import combinations

import networkx as nx
import pytest

from brute import brute_min_mask, to_networkx
from wellcovered import __version__, claims
from wellcovered.cli import main
from wellcovered.families import (
    MAX_EXHAUSTIVE_N,
    FAMILIES,
    FamilySpec,
    complete,
    complete_multipartite,
    corona_with_k1,
    corpus,
    corpus_representatives,
    cycle,
    h_family,
    h_family_params,
    multipartite_params,
    path,
    _canonical_mask,
)
from wellcovered.formats import to_graph6
from wellcovered.graphs import CapacityError, from_edge_list
from wellcovered.independence import alpha, i_number, is_well_covered

# labeled connected graphs and all labeled graphs on n = 1..5 vertices, then
# connected isomorphism classes on n = 1..7
CONNECTED_COUNTS = [1, 1, 4, 38, 728]
ALL_COUNTS = [1, 2, 8, 64, 1024]
REP_COUNTS = [1, 1, 2, 6, 21, 112, 853]

# sha256 of the newline-terminated graph6 lines of each stream; they pin the
# order and labels that criterion 5 and the CLI's corpus passes rely on
STREAM_DIGESTS = {
    "corpus_representatives(6)": (
        lambda: corpus_representatives(6),
        "b5077de621fa44499bd503f5e103c0e5793ad6ed99e846f63daeb9963c1c9870",
    ),
    "corpus(6)": (
        lambda: corpus(6),
        "bae49d5680ff50f2dc02224d5259c35b662b159b6a614f24b734927d1db0d1bf",
    ),
    "corpus(6, connected_only=False)": (
        lambda: corpus(6, connected_only=False),
        "e0adb93bcfb30301a29421fcc09ada4eb09ef1242e09ac9148c0656e9e162900",
    ),
}


@pytest.fixture(scope="module")
def reps7():
    """corpus_representatives(7), generated once for every test that reads it."""
    return list(corpus_representatives(7))


def edge_mask(g) -> int:
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    return sum(1 << p for p, (i, j) in enumerate(pairs) if g.has_edge(i, j))


def h_parameters(max_order=64):
    """Every (k, n) with H(k, n) on at most ``max_order`` vertices."""
    return [(k, n) for k in range(1, max_order) for n in range(1, max_order) if k * (n + 1) <= max_order]


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def stream_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(to_graph6(g).encode() + b"\n")
    return h.hexdigest()


class TestNamed:
    def test_complete(self):
        g = complete(4)
        assert (g.n, g.m) == (4, 6)
        assert complete(0).n == 0
        assert complete(1).m == 0

    def test_complete_one_object_per_order(self):
        for n in (0, 1, 2, 3, 7, 64):
            g = complete(n)
            assert complete(n) is g
            assert g == from_edge_list(n, list(combinations(range(n), 2)))

    def test_rejected_complete_order_raises_every_call(self):
        """The cache keeps no exception: a bad order raises each time."""
        for _ in range(3):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                complete(-1)
            with pytest.raises(CapacityError, match="65 vertices exceed the 64-vertex limit"):
                complete(65)

    def test_complete_facts_reads_the_cached_graph(self):
        for n in (1, 2, 3, 5):
            assert claims.complete_facts(n).graph is complete(n)

    def test_cycle(self):
        g = cycle(6)
        assert (g.n, g.m) == (6, 6)
        assert all(g.degree(v) == 2 for v in range(6))
        with pytest.raises(ValueError, match="at least 3"):
            cycle(2)

    def test_path(self):
        assert path(1).m == 0
        g = path(5)
        assert (g.n, g.m) == (5, 4)
        assert not g.has_edge(0, 4)
        with pytest.raises(ValueError):
            path(0)

    @pytest.mark.parametrize("build", [complete, cycle, path])
    def test_order_capped_before_building(self, build):
        with pytest.raises(CapacityError, match="64-vertex limit"):
            build(10**12)

    def test_multipartite(self):
        g = complete_multipartite([2, 2, 2])
        assert (g.n, g.m) == (6, 12)
        assert complete_multipartite([3]).m == 0
        assert complete_multipartite([1, 1, 1]).adj == complete(3).adj
        with pytest.raises(ValueError, match="positive"):
            complete_multipartite([2, 0])

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (2, 3)])
    def test_h_family_invariants(self, k, n):
        g = h_family(k, n)
        assert g.n == k * (n + 1)
        assert alpha(g) == i_number(g) == k
        assert is_well_covered(g)
        # block i forms a clique together with its private vertex
        first_block = list(range(n)) + [k * n]
        for a in first_block:
            for b in first_block:
                if a != b:
                    assert g.has_edge(a, b)

    @pytest.mark.parametrize("k,n", [(0, 2), (2, 0)])
    def test_h_family_rejects_nonpositive(self, k, n):
        with pytest.raises(ValueError, match="both parameters must be positive"):
            h_family(k, n)

    def test_corona_is_h_with_single_blocks(self):
        assert corona_with_k1(3) == h_family(3, 1)

    def test_h_family_matches_definition(self):
        """Every H(k, n) up to 64 vertices equals its edge list: the clique
        on the k * n block vertices, and z_i joined to block i."""
        for k, n in h_parameters():
            kn = k * n
            edges = list(combinations(range(kn), 2))
            edges += [(kn + v // n, v) for v in range(kn)]
            assert h_family(k, n) == from_edge_list(k * (n + 1), edges), (k, n)

    def test_multipartite_matches_definition(self):
        """complete_multipartite equals the edge list of its definition,
        every pair of vertices in different parts, on every list of part
        sizes up to 8 vertices, every balanced list up to 64 and seeded
        lists up to 64."""
        rng = random.Random(26)
        lists = [[1] * n for n in range(1, 9)]
        for n in range(1, 9):
            for cuts in range(1 << n - 1):
                sizes, run = [], 1
                for i in range(n - 1):
                    if cuts >> i & 1:
                        sizes.append(run)
                        run = 0
                    run += 1
                lists.append(sizes + [run])
        lists += [[r] * m for r in range(1, 65) for m in range(1, 65 // r + 1) if r * m <= 64]
        for _ in range(200):
            sizes, left = [], rng.randint(1, 64)
            while left:
                sizes.append(min(left, rng.randint(1, 4) if rng.random() < 0.8 else 64))
                left -= sizes[-1]
            lists.append(sizes)
        for sizes in lists:
            part = [i for i, size in enumerate(sizes) for _ in range(size)]
            edges = [(u, v) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]]
            assert complete_multipartite(sizes) == from_edge_list(len(part), edges), sizes


class TestRecognition:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
    def test_h_params_round_trip(self, k, n):
        assert h_family_params(h_family(k, n)) == (k, n)

    def test_h_params_match_canonical_forms(self, reps7):
        """On every connected class up to 7 vertices, h_family_params names
        (k, n) exactly when the class has the canonical form of H(k, n)."""
        forms = {}
        for k, n in h_parameters(7):
            h = h_family(k, n)
            forms[h.n, _canonical_mask(list(h.adj))] = k, n
        hits = 0
        for g in reps7:
            expected = forms.get((g.n, _canonical_mask(list(g.adj))))
            assert h_family_params(g) == expected, to_graph6(g)
            hits += expected is not None
        assert hits == len(forms)

    def test_h_params_of_relabeled_members(self):
        rng = random.Random(64)
        for k, n in h_parameters():
            assert h_family_params(relabeled(h_family(k, n), rng)) == (k, n)

    def test_h_params_ignores_labeling(self):
        g = h_family(2, 2)
        perm = list(reversed(range(g.n)))
        shuffled = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert h_family_params(shuffled) == (2, 2)

    @pytest.mark.parametrize(
        "g",
        [cycle(4), path(3), complete(1), complete_multipartite([1, 3]), from_edge_list(3, [(0, 1)])],
    )
    def test_h_params_rejections(self, g):
        assert h_family_params(g) is None

    def test_multipartite_params_match_complement(self, reps7):
        """On every connected class up to 7 vertices, multipartite_params
        names (m, r) exactly when networkx finds the complement to be m
        disjoint copies of K_r; relabeled balanced graphs up to 64 vertices
        give their parameters."""
        for g in reps7:
            comp = nx.complement(to_networkx(g))
            parts = [comp.subgraph(c) for c in nx.connected_components(comp)]
            sizes = {len(p) for p in parts}
            cliques = all(2 * p.number_of_edges() == len(p) * (len(p) - 1) for p in parts)
            expected = (len(parts), sizes.pop()) if cliques and len(sizes) == 1 else None
            assert multipartite_params(g) == expected, to_graph6(g)
        rng = random.Random(8)
        for m in range(1, 65):
            for r in range(1, 64 // m + 1):
                g = relabeled(complete_multipartite([r] * m), rng)
                assert multipartite_params(g) == (m, r)

    def test_multipartite_params(self):
        assert multipartite_params(complete_multipartite([2, 2, 2])) == (3, 2)
        assert multipartite_params(cycle(4)) == (2, 2)
        assert multipartite_params(complete(5)) == (5, 1)
        assert multipartite_params(complete_multipartite([4])) == (1, 4)
        assert multipartite_params(path(3)) is None
        assert multipartite_params(cycle(5)) is None


class TestCorpus:
    def test_counts_by_order(self):
        for n, want in enumerate(CONNECTED_COUNTS, start=1):
            assert sum(1 for g in corpus(n) if g.n == n) == want

    def test_counts_without_connectivity_filter(self):
        for n, want in enumerate(ALL_COUNTS, start=1):
            got = sum(1 for g in corpus(n, connected_only=False) if g.n == n)
            assert got == want

    def test_representative_counts(self, reps7):
        counts = Counter(g.n for g in reps7)
        assert [counts[n] for n in range(1, 8)] == REP_COUNTS
        seven = [to_graph6(g) for g in reps7]
        for max_n in range(7):
            reps = [to_graph6(g) for g in corpus_representatives(max_n)]
            assert reps == seven[: sum(REP_COUNTS[:max_n])]

    def test_representatives_have_lowest_mask(self, reps7):
        """Each class is represented by its lowest edge mask, found here by
        trying all n! relabelings rather than by the canonical search."""
        for g in reps7:
            if g.n <= 6:
                assert edge_mask(g) == brute_min_mask(g)

    # networkx 3.5+ warns that its unattributed hashes changed; they only group
    @pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
    def test_representatives_match_atlas(self, reps7):
        """Every connected 7-vertex graph of the networkx atlas is
        isomorphic to exactly one representative, and no two are isomorphic;
        graphs are compared within groups of equal Weisfeiler-Lehman hash."""
        groups = defaultdict(list)
        for g in reps7:
            if g.n == 7:
                h = to_networkx(g)
                groups[nx.weisfeiler_lehman_graph_hash(h)].append(h)
        for group in groups.values():
            assert not any(nx.is_isomorphic(a, b) for a, b in combinations(group, 2))
        atlas = [h for h in nx.graph_atlas_g() if len(h) == 7 and nx.is_connected(h)]
        assert len(atlas) == 853
        for h in atlas:
            group = groups[nx.weisfeiler_lehman_graph_hash(h)]
            assert sum(nx.is_isomorphic(h, r) for r in group) == 1

    def test_generate_reps_seven(self, reps7, monkeypatch, capsys):
        """``generate --max-n 7 --reps`` prints the version line and one
        graph6 line per class.  The CLI reads the fixture's stream, so the
        suite generates the 7-vertex classes once."""

        def replay(max_n):
            assert max_n == 7
            return iter(reps7)

        monkeypatch.setattr(claims, "corpus_representatives", replay)
        assert main(["generate", "--max-n", "7", "--reps"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 996
        assert lines == [f"version: {__version__}", *map(to_graph6, reps7)]

    def test_representatives_embed_in_corpus(self):
        reps = {to_graph6(g) for g in corpus_representatives(4)}
        full = {to_graph6(g) for g in corpus(4)}
        assert reps <= full

    def test_deterministic_order(self):
        first = [to_graph6(g) for g in corpus(4)]
        second = [to_graph6(g) for g in corpus(4)]
        assert first == second
        orders = [g.n for g in corpus(4)]
        assert orders == sorted(orders)

    @pytest.mark.parametrize("name", list(STREAM_DIGESTS))
    def test_stream_digest(self, name):
        stream, want = STREAM_DIGESTS[name]
        assert stream_digest(stream()) == want

    def test_capped(self):
        assert MAX_EXHAUSTIVE_N == 7
        with pytest.raises(ValueError, match="capped"):
            list(corpus(MAX_EXHAUSTIVE_N + 1))


class TestSpec:
    @pytest.mark.parametrize(
        "text,order",
        [
            ("complete:5", 5),
            ("cycle:6", 6),
            ("path:3", 3),
            ("kpartite:2,2,2", 6),
            ("h:4,2", 12),
            ("corona:3", 6),
        ],
    )
    def test_parse_build_str(self, text, order):
        spec = FamilySpec.parse(text)
        assert spec.build().n == order
        assert str(spec) == text

    def test_kpartite_matches_constructor(self):
        built = FamilySpec.parse("kpartite:1,3").build()
        assert built.adj == complete_multipartite([1, 3]).adj

    def test_kinds_in_message_order(self):
        assert list(FAMILIES) == ["complete", "cycle", "path", "kpartite", "h", "corona"]
        with pytest.raises(ValueError) as info:
            FamilySpec.parse("blob:3")
        assert str(info.value) == (
            "unknown family spec 'blob:3'; expected one of complete:..., cycle:..., "
            "path:..., kpartite:..., h:..., corona:..."
        )

    @pytest.mark.parametrize(
        "text,built",
        [
            ("complete:1", complete(1)),
            ("complete:4", complete(4)),
            ("cycle:3", cycle(3)),
            ("cycle:8", cycle(8)),
            ("path:1", path(1)),
            ("path:5", path(5)),
            ("kpartite:3", complete_multipartite([3])),
            ("kpartite:2,1,3", complete_multipartite([2, 1, 3])),
            ("h:1,3", h_family(1, 3)),
            ("h:3,2", h_family(3, 2)),
            ("corona:1", corona_with_k1(1)),
            ("corona:4", corona_with_k1(4)),
        ],
    )
    def test_each_kind_builds_its_family(self, text, built):
        assert FamilySpec.parse(text).build() == built

    @pytest.mark.parametrize(
        "text,message",
        [
            ("complete:1,2", "complete takes 1 parameter(s), got 2"),
            ("cycle:3,4", "cycle takes 1 parameter(s), got 2"),
            ("path:1,2,3", "path takes 1 parameter(s), got 3"),
            ("h:4", "h takes 2 parameter(s), got 1"),
            ("h:1,2,3", "h takes 2 parameter(s), got 3"),
            ("corona:2,2", "corona takes 1 parameter(s), got 2"),
        ],
    )
    def test_fixed_arity_kinds_reject_wrong_counts(self, text, message):
        with pytest.raises(ValueError) as info:
            FamilySpec.parse(text)
        assert str(info.value) == message

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilySpec.parse("blob:3")
        with pytest.raises(ValueError, match="parameter"):
            FamilySpec.parse("h:4")
        with pytest.raises(ValueError):
            FamilySpec.parse("cycle:x")
        with pytest.raises(ValueError):
            FamilySpec.parse("cycle:")
