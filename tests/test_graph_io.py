"""graph6 codec, edge-list format, and the named catalog."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclekit.graphs import make_graph, turan_graph
from cyclekit.graph_io import (
    GraphFormatError,
    graph_from_edge_list,
    graph_from_graph6,
    graph_to_edge_list,
    graph_to_graph6,
    named_graph,
    parse_graph_argument,
)
from cyclekit.morphisms import is_isomorphic

from _oracles import graph_texts, random_graph


class TestGraph6:
    def test_known_encodings(self):
        # standard encodings, cross-checked against independent tooling
        c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert graph_to_graph6(c5) == "Dhc"
        k4 = turan_graph(4, 4)
        assert graph_to_graph6(k4) == "C~"
        assert graph_to_graph6(make_graph(1, [])) == "@"

    def test_decode_known(self):
        g = graph_from_graph6("Dhc")
        assert g.n == 5
        assert g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))
        assert graph_from_graph6("C~").edge_count == 6

    def test_header_accepted(self):
        assert graph_from_graph6(">>graph6<<C~").edge_count == 6

    def test_roundtrip_random(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.random())
            assert graph_from_graph6(graph_to_graph6(g)).adj == g.adj

    def test_roundtrip_large_n_form(self):
        # n >= 63 uses the 4-byte count form
        for n in (63, 64):
            rng = random.Random(n)
            g = random_graph(rng, n, 0.12)
            encoded = graph_to_graph6(g)
            assert encoded.startswith("~")
            assert graph_from_graph6(encoded).adj == g.adj

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0))
    def test_roundtrip_hypothesis(self, n, seed):
        g = random_graph(random.Random(seed), n, 0.5)
        assert graph_from_graph6(graph_to_graph6(g)).adj == g.adj

    def test_malformed_inputs_rejected(self):
        for bad in ["", "C", "C~~~~", "D\x1f", "C~extra", "~~AAAA"]:
            with pytest.raises(GraphFormatError):
                graph_from_graph6(bad)

    def test_nonzero_padding_rejected(self):
        # K_4 body with a padding bit forced on
        good = graph_to_graph6(turan_graph(4, 4))
        bad = good[0] + chr(ord(good[1]) | 1)
        with pytest.raises(GraphFormatError):
            graph_from_graph6(bad)


class TestEdgeList:
    def test_roundtrip(self):
        g = turan_graph(5, 2)
        text = graph_to_edge_list(g)
        assert text.splitlines()[0] == "5"
        assert graph_from_edge_list(text).adj == g.adj

    def test_parse_errors(self):
        with pytest.raises(GraphFormatError):
            graph_from_edge_list("")
        with pytest.raises(GraphFormatError):
            graph_from_edge_list("abc\n0 1\n")
        with pytest.raises(GraphFormatError):
            graph_from_edge_list("3\n0 1 2\n")
        with pytest.raises(GraphFormatError):
            graph_from_edge_list("3\n0 x\n")
        with pytest.raises(GraphFormatError):
            graph_from_edge_list("3\n0 5\n")


class TestCatalog:
    def test_names(self):
        assert named_graph("K3").edge_count == 3
        assert named_graph("k5").edge_count == 10
        assert named_graph("C7").edge_count == 7
        assert named_graph("P4").edge_count == 3

    def test_catalog_isomorphism(self):
        assert is_isomorphic(named_graph("C4"), turan_graph(4, 2))
        assert is_isomorphic(named_graph("K4"), turan_graph(4, 4))

    def test_unknown_rejected(self):
        for bad in ("K1", "C2", "Q5", "K99", ""):
            with pytest.raises(GraphFormatError):
                named_graph(bad)

    def test_parse_graph_argument(self):
        assert parse_graph_argument("K3").n == 3
        assert parse_graph_argument("DqK").n == 5
        with pytest.raises(GraphFormatError):
            parse_graph_argument("totally bogus")

    def test_non_decimal_digits_are_not_a_name(self):
        # "K\u00b2" passed str.isdigit but made int() raise a bare ValueError,
        # so the graph6 fallback was never tried
        for bad in ("K\u00b2", "C3\u00b2"):
            with pytest.raises(GraphFormatError):
                named_graph(bad)
            with pytest.raises(GraphFormatError):
                parse_graph_argument(bad)


class TestFuzz:
    """Arbitrary text either parses to a graph or raises GraphFormatError."""

    @settings(max_examples=400, deadline=None)
    @given(graph_texts())
    def test_graph6(self, text):
        try:
            g = graph_from_graph6(text)
        except GraphFormatError:
            return
        assert graph_from_graph6(graph_to_graph6(g)).adj == g.adj

    @settings(max_examples=300, deadline=None)
    @given(graph_texts())
    def test_parse_graph_argument(self, text):
        try:
            g = parse_graph_argument(text)
        except GraphFormatError:
            return
        assert graph_from_graph6(graph_to_graph6(g)).adj == g.adj

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.text(max_size=12),
        st.integers(-3, 12).map(str),
        st.tuples(st.integers(-2, 12), st.integers(-2, 12)).map(lambda e: f"{e[0]} {e[1]}"),
    ), max_size=8))
    def test_edge_list(self, lines):
        try:
            g = graph_from_edge_list("\n".join(lines))
        except GraphFormatError:
            return
        assert graph_from_edge_list(graph_to_edge_list(g)).adj == g.adj
