import itertools
import random

import pytest

from hamconn.corpus import (
    random_connected_multigraph_with_loops,
    random_multigraph,
)
from hamconn.errors import DisconnectedGraphError, GraphError
from hamconn.invariants import (
    dominating_set,
    domination_number,
    edge_connectivity,
    edges_dominate,
    find_claw,
    find_essential_cut,
    is_claw_free,
    is_essentially_k_edge_connected,
    is_k_connected,
    simplicial_vertices,
    vertex_connectivity,
)
from hamconn.linegraph import line_graph
from hamconn.multigraph import (
    Multigraph,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from oracles import (
    brute_dominating_sets,
    brute_domination_number,
    enumerate_labeled,
    nx_essential_cut,
    to_nx,
)

import networkx as nx


class TestClawFree:
    def test_claw_itself(self, claw):
        assert find_claw(claw) == (0, 1, 2, 3)

    def test_line_graphs_are_claw_free(self):
        rng = random.Random(2)
        for _ in range(60):
            h = random_connected_multigraph_with_loops(rng)
            assert is_claw_free(line_graph(h).target)

    def test_petersen_has_claws(self):
        from hamconn.constructions import petersen

        assert not is_claw_free(petersen())

    def test_witness_is_an_induced_claw(self, c7):
        g = star_graph(5)
        w = find_claw(g)
        assert w is not None
        center, a, b, c = w
        for leaf in (a, b, c):
            assert g.has_edge(center, leaf)
        for x, y in itertools.combinations((a, b, c), 2):
            assert not g.has_edge(x, y)


class TestVertexConnectivity:
    def test_k4(self, k4):
        assert vertex_connectivity(k4) == 3

    def test_path(self):
        assert vertex_connectivity(path_graph(3)) == 1

    def test_petersen(self):
        from hamconn.constructions import petersen

        assert vertex_connectivity(petersen()) == 3

    def test_disconnected_and_tiny(self):
        assert vertex_connectivity(Multigraph(0) if False else SimpleGraph(2, [])) == 0
        assert vertex_connectivity(SimpleGraph(1, [])) == 0
        assert vertex_connectivity(complete_graph(5)) == 4

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(120):
            n = rng.randint(2, 8)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            g = SimpleGraph(n, edges)
            assert vertex_connectivity(g) == nx.node_connectivity(to_nx(g))

    def test_is_k_connected_consistent(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(2, 7)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            g = SimpleGraph(n, edges)
            kappa = vertex_connectivity(g)
            for k in range(0, n + 1):
                assert is_k_connected(g, k) == (kappa >= k)

    def test_is_k_connected_exhaustive(self):
        for n in range(6):
            for g in enumerate_labeled(n):
                kappa = vertex_connectivity(g)
                for k in range(1, 5):
                    assert is_k_connected(g, k) == (kappa >= k), (g.endpoints, k)


class TestDomination:
    def test_complete_graph_single_vertex(self):
        d = dominating_set(complete_graph(6), 1)
        assert d is not None and len(d.vertices) == 1 and d.validate()

    def test_c7_needs_three(self, c7):
        assert dominating_set(c7, 2) is None
        d = dominating_set(c7, 3)
        assert d is not None and d.validate()
        assert domination_number(c7) == 3

    def test_star(self):
        assert domination_number(star_graph(9)) == 1

    def test_petersen(self):
        from hamconn.constructions import petersen

        p = petersen()
        assert dominating_set(p, 2) is None
        assert dominating_set(p, 3) is not None
        assert domination_number(p) == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            domination_number(SimpleGraph(0, []))

    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(120):
            n = rng.randint(1, 8)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
            g = SimpleGraph(n, edges)
            gamma = domination_number(g)
            assert gamma == brute_domination_number(g)
            # minimality: no smaller set dominates
            if gamma > 1:
                assert not brute_dominating_sets(g, gamma - 1)


class TestSimplicial:
    def test_k3_all(self):
        assert simplicial_vertices(complete_graph(3)) == frozenset({0, 1, 2})

    def test_c4_none(self):
        assert simplicial_vertices(cycle_graph(4)) == frozenset()

    def test_path_leaves(self):
        assert simplicial_vertices(path_graph(4)) == frozenset({0, 3})

    def test_isolated_vertices_count(self):
        assert simplicial_vertices(SimpleGraph(2, [])) == frozenset({0, 1})


class TestEssentialEdgeConnectivity:
    def test_star_has_no_essential_cut(self, claw):
        assert is_essentially_k_edge_connected(claw, 3)
        assert is_essentially_k_edge_connected(claw, 17)

    def test_c4_with_pendants_fails(self):
        h = Multigraph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5), (2, 6), (3, 7)])
        cut = find_essential_cut(h, 3)
        assert cut is not None and len(cut) == 2

    def test_k4(self, k4):
        assert is_essentially_k_edge_connected(k4, 3)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            is_essentially_k_edge_connected(Multigraph(2, []), 3)

    def test_cut_matches_the_oracle_on_the_corpus(self, equivalence_corpus):
        for h in equivalence_corpus:
            assert find_essential_cut(h, 3) == nx_essential_cut(h, 3), h

    def test_cut_matches_the_oracle_with_loops(self):
        rng = random.Random(41)
        for _ in range(300):
            h = random_connected_multigraph_with_loops(rng)
            assert find_essential_cut(h, 3) == nx_essential_cut(h, 3), h

    def test_line_graph_connectivity_correspondence(self):
        # A line graph is 3-connected exactly when its preimage is
        # essentially 3-edge-connected; complete line graphs are the
        # classical exceptions and are skipped.
        rng = random.Random(6)
        checked = 0
        for _ in range(200):
            h = random_multigraph(rng, max_vertices=6, max_edges=9)
            if h.edge_count < 3 or not h.is_connected():
                continue
            g = line_graph(h).target
            if g.is_complete():
                continue
            checked += 1
            assert (vertex_connectivity(g) >= 3) == is_essentially_k_edge_connected(h, 3)
        assert checked > 50


class TestHamiltonianConnectedNeedsConnectivity3:
    def test_over_small_corpus(self):
        # hamiltonian-connected graphs on >= 4 vertices are 3-connected
        from hamconn.trails import is_hamiltonian_connected

        for g in enumerate_labeled(5):
            if g.n >= 4 and g.is_connected() and is_hamiltonian_connected(g):
                assert vertex_connectivity(g) >= 3, g.endpoints


class TestEdgeDomination:
    def test_all_edges_dominate(self, k4):
        assert edges_dominate(k4, range(k4.edge_count))

    def test_star_single_edge(self):
        assert edges_dominate(star_graph(5), [0])

    def test_c6_single_edge_fails(self):
        assert not edges_dominate(cycle_graph(6), [0])


class TestEdgeConnectivity:
    def test_k4(self, k4):
        assert edge_connectivity(k4) == 3

    def test_multiplicities_count(self):
        h = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
        assert edge_connectivity(h) == 3

    def test_loops_ignored(self):
        h = Multigraph(2, [(0, 1), (0, 0), (1, 1)])
        assert edge_connectivity(h) == 1

    def test_matches_weighted_min_cut_oracle(self):
        # networkx edge_connectivity collapses MultiGraph parallels, so the
        # oracle is a weighted global min cut on the simple support.
        rng = random.Random(8)
        for _ in range(80):
            h = random_multigraph(rng, max_vertices=6, max_edges=10)
            if h.n < 2 or not h.is_connected():
                continue
            weighted = nx.Graph()
            weighted.add_nodes_from(range(h.n))
            for u, v in h.endpoints:
                if u == v:
                    continue
                w = weighted.get_edge_data(u, v, {"weight": 0})["weight"]
                weighted.add_edge(u, v, weight=w + 1)
            cut, _ = nx.stoer_wagner(weighted)
            assert edge_connectivity(h) == cut
