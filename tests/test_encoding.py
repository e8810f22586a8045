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
from hamconn.multigraph import Multigraph, SimpleGraph, complete_graph


def random_simple(rng, max_n=16):
    n = rng.randint(1, max_n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return SimpleGraph(n, edges)


def random_multi(rng, max_n=14, max_m=24):
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
        for _ in range(200):
            g = random_simple(rng)
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
        assert h.n == 2 and h.multiplicity(0, 1) == 3

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
        for _ in range(200):
            h = random_multi(rng)
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


class TestEdgeList:
    def test_k4_file(self, k4):
        text = encode_edgelist(k4)
        assert decode_edgelist(text) == k4

    def test_comments_and_multiedges(self):
        text = "# fixture\n3 3\n0 1\n0 1\n2 2\n"
        h = decode_edgelist(text)
        assert h.multiplicity(0, 1) == 2 and h.multiplicity(2, 2) == 1

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

