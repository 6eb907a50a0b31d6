"""Serialization round trips, cross-checked against networkx's graph6
codec on random graphs."""

import random

import networkx as nx
import pytest

from brute import random_graph
from wellcovered.families import complete, cycle, h_family
from wellcovered.formats import (
    from_graph6,
    load_graph_text,
    to_graph6,
)
from wellcovered.graphs import Graph


def test_known_encodings():
    assert to_graph6(complete(3)) == "Bw"
    assert from_graph6("Bw") == complete(3)
    assert to_graph6(Graph(0, ())) == "?"
    assert from_graph6("?").n == 0


def test_header_tolerated():
    assert from_graph6(">>graph6<<Bw") == complete(3)


@pytest.mark.parametrize("bad", ["", "B", "Bw@", "\x01"])
def test_malformed_graph6_rejected(bad):
    with pytest.raises(ValueError):
        from_graph6(bad)


def test_round_trip_families():
    for g in [cycle(5), complete(7), h_family(4, 2), Graph(1, (0,))]:
        assert from_graph6(to_graph6(g)) == Graph(g.n, g.adj)


def test_against_networkx_both_directions():
    rng = random.Random(8872)
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        ours = to_graph6(g)
        nxg = nx.from_graph6_bytes(ours.encode())
        assert sorted(tuple(sorted(e)) for e in nxg.edges()) == sorted(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert from_graph6(theirs) == Graph(g.n, g.adj)
        assert ours == theirs


def test_long_form_orders():
    for n in (63, 64):
        g = complete(n)
        assert from_graph6(to_graph6(g)) == g


def test_edge_list_round_trip():
    text = "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
    assert load_graph_text(text) == cycle(6)


def test_load_autodetect():
    assert load_graph_text("3 1\n0 2\n") == Graph(3, (0b100, 0, 0b001))
    assert load_graph_text("Bw\n") == complete(3)


def test_graph6_header_line_with_space_is_graph6():
    # the whitespace test for edge-list headers skips the graph6 header
    assert load_graph_text(">>graph6<< Bw\n") == complete(3)
