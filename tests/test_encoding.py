import hashlib
import random

import networkx as nx
import pytest

from hamconn.encoding import (
    EncodingError,
    decode_edgelist,
    decode_graph6,
    decode_sparse6,
    encode_edgelist,
    encode_graph6,
    encode_sparse6,
)
from hamconn.constructions import wagner_counterexample
from hamconn.corpus import graph_classes
from hamconn.multigraph import Multigraph, SimpleGraph, complete_graph

#: Vertex counts on both sides of the one-byte and four-byte vertex-count
#: headers (n <= 62 and 63 <= n <= 258047), added to the reference checks.
HEADER_SIZES = (62, 63, 64, 129, 300)


def random_simple(rng, max_n=16, n=None):
    if n is None:
        n = rng.randint(1, max_n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return SimpleGraph(n, edges)


def random_multi(rng, max_n=14, max_m=24, n=None):
    if n is None:
        n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    return Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])


class TestGraph6:
    def test_shortest_codes(self):
        assert encode_graph6(SimpleGraph(1, [])) == "@"
        assert decode_graph6("@") == SimpleGraph(1, [])

    def test_k2_roundtrip(self):
        k2 = complete_graph(2)
        assert decode_graph6(encode_graph6(k2)) == k2

    def test_five_vertex_sample_against_reference_decoder(self):
        # independent reference: networkx
        for line in ("D?{", "DQo", "D~{"):
            g = decode_graph6(line)
            ref = nx.from_graph6_bytes(line.encode())
            assert g.n == ref.number_of_nodes()
            assert {tuple(sorted(e)) for e in g.endpoints} == {
                tuple(sorted(e)) for e in ref.edges()
            }

    def test_roundtrip_identity_random(self):
        rng = random.Random(41)
        for _ in range(1000):
            g = random_simple(rng)
            assert decode_graph6(encode_graph6(g)) == g

    def test_cross_decoding_with_networkx(self):
        rng = random.Random(42)
        graphs = [random_simple(rng) for _ in range(200)]
        graphs += [random_simple(rng, n=n) for n in HEADER_SIZES]
        for g in graphs:
            line = encode_graph6(g)
            ref = nx.from_graph6_bytes(line.encode())
            assert ref.number_of_nodes() == g.n
            assert {tuple(sorted(e)) for e in ref.edges()} == {
                tuple(sorted(e)) for e in g.endpoints
            }
            ng = nx.Graph()
            ng.add_nodes_from(range(g.n))
            ng.add_edges_from(g.endpoints)
            theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
            assert decode_graph6(theirs) == g

    def test_malformed_inputs(self):
        with pytest.raises(EncodingError):
            decode_graph6("@@@@")  # length mismatch
        with pytest.raises(EncodingError):
            decode_graph6("C~~")  # extra word
        with pytest.raises(EncodingError):
            decode_graph6("C!")  # character below offset
        with pytest.raises(EncodingError):
            decode_graph6("BF")  # nonzero padding bits (n=3 pads 3 bits)
        with pytest.raises(EncodingError):
            decode_graph6(":A_")  # sparse6 payload

    def test_header_tolerated(self):
        k2 = complete_graph(2)
        assert decode_graph6(">>graph6<<" + encode_graph6(k2)) == k2


class TestSparse6:
    def test_documented_triple_edge(self):
        h = decode_sparse6(":A_")
        assert h.n == 2 and h.endpoints.count((0, 1)) == 3

    def test_double_edge_and_loop_roundtrips(self):
        for h in (Multigraph(2, [(0, 1), (0, 1)]), Multigraph(1, [(0, 0)])):
            assert decode_sparse6(encode_sparse6(h)) == h

    def test_roundtrip_identity_random(self):
        rng = random.Random(43)
        for _ in range(1000):
            h = random_multi(rng)
            assert decode_sparse6(encode_sparse6(h)) == h

    def test_cross_decoding_with_networkx(self):
        rng = random.Random(44)
        graphs = [random_multi(rng) for _ in range(200)]
        graphs += [random_multi(rng, max_m=2 * n, n=n) for n in HEADER_SIZES]
        for h in graphs:
            line = encode_sparse6(h)
            ref = nx.from_sparse6_bytes(line.encode())
            assert ref.number_of_nodes() == h.n
            mine = sorted(tuple(sorted(e)) for e in h.endpoints)
            theirs = sorted(tuple(sorted((u, v))) for u, v, _ in nx.MultiGraph(ref).edges(keys=True))
            assert mine == theirs
            ng = nx.MultiGraph()
            ng.add_nodes_from(range(h.n))
            ng.add_edges_from(h.endpoints)
            encoded = nx.to_sparse6_bytes(ng, header=False).decode().strip()
            assert decode_sparse6(encoded) == h

    def test_malformed_inputs(self):
        with pytest.raises(EncodingError):
            decode_sparse6("A_")  # missing colon

    def test_group_past_n_ends_decoding(self):
        # n = 3, k = 2: the group (1, 00) reads edge (0, 1), then (0, 11)
        # names vertex 3, so decoding stops with the edges read so far
        assert decode_sparse6(":Bb") == Multigraph(3, [(0, 1)])
        # n = 2, k = 1: (1, 0) reads edge (0, 1), then (1, 0) moves v to 2
        assert decode_sparse6(":Ag") == Multigraph(2, [(0, 1)])


class TestPinnedStrings:
    def test_six_bit_strings_are_pinned(self):
        # sha256 over the graph6 of every claw-free class on up to 6
        # vertices (the strings violations and witness files carry), of
        # L(H_1..H_6), and the sparse6 of H_1..H_6; each decodes back
        digest = hashlib.sha256()

        def record(line, decode, graph):
            digest.update(line.encode() + b"\n")
            assert decode(line) == graph

        for g, _ in graph_classes(6, claw_free=True):
            record(encode_graph6(g), decode_graph6, g)
        family = [wagner_counterexample(p) for p in range(1, 7)]
        for g, _ in family:
            record(encode_graph6(g), decode_graph6, g)
        for _, h in family:
            record(encode_sparse6(h), decode_sparse6, h)
        assert digest.hexdigest() == (
            "2f7d3700969d4d147ccf75fbc8820b500b1946b1e8a7ec561697dc0eb105ee94"
        )


class TestEdgeList:
    def test_k4_file(self, k4):
        text = encode_edgelist(k4)
        assert decode_edgelist(text) == k4

    def test_comments_and_multiedges(self):
        text = "# fixture\n3 3\n0 1\n0 1\n2 2\n"
        h = decode_edgelist(text)
        assert h.endpoints.count((0, 1)) == 2 and h.endpoints.count((2, 2)) == 1

    def test_roundtrip_random(self):
        rng = random.Random(45)
        for _ in range(1000):
            h = random_multi(rng)
            assert decode_edgelist(encode_edgelist(h)) == h

    def test_out_of_range_vertex(self):
        with pytest.raises(EncodingError):
            decode_edgelist("2 1\n0 5\n")

    def test_wrong_edge_count(self):
        with pytest.raises(EncodingError):
            decode_edgelist("2 2\n0 1\n")

    def test_negative_vertex_count(self):
        with pytest.raises(EncodingError, match="vertex count cannot be negative"):
            decode_edgelist("-1 0\n")
