import random

import pytest

from hamconn.corpus import random_connected_multigraph_with_loops
from hamconn.errors import DisconnectedGraphError, NotALineGraphOfMultigraphError
from hamconn.invariants import simplicial_vertices
from hamconn.linegraph import is_line_graph_of_multigraph, line_graph, preimage
from hamconn.multigraph import (
    Multigraph,
    SimpleGraph,
    complete_graph,
    isomorphic,
    path_graph,
    relabel,
    star_graph,
)

from oracles import nx_isomorphic, pairwise_line_graph_edges


def pendant_edges(h: Multigraph) -> set[int]:
    deg = h.degrees()
    return {
        e for e, (u, v) in enumerate(h.endpoints) if deg[u] == 1 or deg[v] == 1
    }


class TestLineGraph:
    def test_claw_gives_triangle(self, claw):
        g = line_graph(claw)
        assert list(g.endpoints) == pairwise_line_graph_edges(claw)
        assert isomorphic(g, complete_graph(3))

    def test_path4_gives_path3(self, p4):
        assert isomorphic(line_graph(p4), path_graph(3))

    def test_double_edge_plus_edge_gives_triangle(self):
        h = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        assert isomorphic(line_graph(h), complete_graph(3))

    def test_vertex_count_is_edge_count(self):
        rng = random.Random(23)
        for _ in range(40):
            h = random_connected_multigraph_with_loops(rng)
            g = line_graph(h)
            assert g.n == h.edge_count
            assert list(g.endpoints) == pairwise_line_graph_edges(h), h

    def test_edges_in_pairwise_order(self):
        # the edge ids of L(H) follow the (i, j) order of the definition
        rng = random.Random(31)
        for _ in range(300):
            h = random_connected_multigraph_with_loops(rng)
            assert list(line_graph(h).endpoints) == pairwise_line_graph_edges(h), h

    def test_loop_adjacent_to_every_edge_at_its_vertex(self):
        h = Multigraph(3, [(0, 0), (0, 1), (0, 2), (1, 2)])
        g = line_graph(h)
        assert g.has_edge(0, 1) and g.has_edge(0, 2)
        assert not g.has_edge(0, 3)


class TestPreimage:
    def test_k3_is_line_graph_of_claw(self):
        assert isomorphic(preimage(complete_graph(3)), star_graph(3))

    def test_k4_is_line_graph_of_star(self):
        # all K4 vertices are simplicial, so all preimage edges are pendant
        assert isomorphic(preimage(complete_graph(4)), star_graph(4))

    def test_claw_rejected_with_witness(self, claw):
        with pytest.raises(NotALineGraphOfMultigraphError) as err:
            preimage(claw)
        assert err.value.witness is not None

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            preimage(SimpleGraph(3, [(0, 1)]))

    def test_petersen_roundtrip(self):
        from hamconn.constructions import petersen

        p = petersen()
        lp = line_graph(p)
        assert isomorphic(preimage(lp), p)

    def test_preimage_edges_align_with_vertices(self):
        # edge i of the preimage corresponds to vertex i of the input, so
        # the roundtrip is exact equality, not just isomorphism
        lp = line_graph(complete_graph(4))
        assert line_graph(preimage(lp)) == lp

    def test_k4_minus_edge_gives_parallel_pair(self):
        g = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        h = preimage(g)
        assert isomorphic(h, Multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3)]))

    def test_recognition(self, claw):
        assert is_line_graph_of_multigraph(complete_graph(3))
        assert not is_line_graph_of_multigraph(claw)
        from hamconn.constructions import wagner_counterexample

        g, _ = wagner_counterexample(1)
        assert is_line_graph_of_multigraph(g)


class TestPreimageProperties:
    def test_roundtrip_and_pendant_bijection_on_random_multigraphs(self):
        rng = random.Random(24)
        done = 0
        while done < 150:
            h = random_connected_multigraph_with_loops(rng, max_vertices=6, max_edges=12)
            g = line_graph(h)
            if g.n == 0 or not g.is_connected():
                continue
            done += 1
            back = preimage(g)
            assert line_graph(back) == g
            simp = simplicial_vertices(g)
            assert pendant_edges(back) == set(simp), (h.endpoints,)

    def test_normalized_simple_inputs_roundtrip_to_themselves(self):
        # On simple supports the normalized preimage is unambiguous, so the
        # roundtrip returns an isomorphic copy of the input itself.
        rng = random.Random(25)
        done = 0
        while done < 80:
            n = rng.randint(2, 7)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
            ]
            h = SimpleGraph(n, edges)
            if not h.is_connected() or not h.edge_count:
                continue
            g = line_graph(h)
            if not g.is_connected():
                continue
            if pendant_edges(h) != set(simplicial_vertices(g)):
                continue  # h itself is not in normal form
            done += 1
            back = preimage(g)
            assert isomorphic(back, h), (h.endpoints, back.endpoints)
            assert nx_isomorphic(back, h)

    def test_normalization_is_not_unique_for_multigraphs(self):
        # Witness pair: two non-isomorphic loopless pendant-free multigraphs
        # with the same labeled line graph, which also has no simplicial
        # vertices.  The preimage must still roundtrip and be deterministic,
        # but it cannot match both inputs.
        h1 = Multigraph(4, [(0, 1), (2, 3), (0, 2), (1, 2), (2, 3), (0, 2), (1, 2), (0, 3)])
        h2 = Multigraph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (2, 3), (0, 2), (0, 3), (1, 2)])
        g = line_graph(h1)
        assert line_graph(h2) == g
        assert not isomorphic(h1, h2)
        assert simplicial_vertices(g) == frozenset()
        back = preimage(g)
        assert line_graph(back) == g
        assert pendant_edges(back) == set()

    def test_determinism_under_relabeling(self):
        # The preimage may depend on neither the vertex labels nor the edge
        # order of the input.  ``order_sensitive`` in colex edge order once
        # gave a preimage not isomorphic to the one for its own edge order.
        rng = random.Random(26)
        ambiguous = line_graph(
            Multigraph(4, [(0, 1), (2, 3), (0, 2), (1, 2), (2, 3), (0, 2), (1, 2), (0, 3)])
        )
        order_sensitive = line_graph(
            Multigraph(4, [(0, 1), (2, 3), (2, 3), (0, 3), (1, 3), (0, 3), (1, 2)])
        )
        colex = SimpleGraph(
            order_sensitive.n, sorted(order_sensitive.endpoints, key=lambda e: (e[1], e[0]))
        )
        assert colex == order_sensitive
        assert isomorphic(preimage(colex), preimage(order_sensitive))
        for base in (line_graph(complete_graph(4)), ambiguous, order_sensitive):
            h0 = preimage(base)
            for _ in range(6):
                perm = list(range(base.n))
                rng.shuffle(perm)
                edges = list(relabel(base, perm).endpoints)
                rng.shuffle(edges)
                assert isomorphic(preimage(SimpleGraph(base.n, edges)), h0)

    def test_small_uniqueness_cases(self):
        # K1 / K2 / P3 / K3 resolve per the pendant rule
        assert isomorphic(preimage(SimpleGraph(1, [])), complete_graph(2))
        assert isomorphic(preimage(complete_graph(2)), path_graph(3))
        assert isomorphic(preimage(path_graph(3)), path_graph(4))
        assert isomorphic(preimage(complete_graph(3)), star_graph(3))


def test_recognition_over_all_connected_classes(graph_classes_8):
    # Exhaustive over the 12,113 connected classes on n <= 8: the number of
    # line graphs of multigraphs per n, an exact roundtrip for each, and
    # pendant edges exactly at the simplicial vertices.
    found = {n: 0 for n in range(1, 9)}
    for g, _ in graph_classes_8:
        if not g.is_connected():
            continue
        try:
            h = preimage(g)
        except NotALineGraphOfMultigraphError:
            continue
        found[g.n] += 1
        assert line_graph(h) == g, g
        assert pendant_edges(h) == set(simplicial_vertices(g)), g
    assert found == {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 46, 7: 153, 8: 562}
