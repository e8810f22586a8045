import itertools
import random

import pytest

from hamconn.errors import GraphError, UnknownEdgeError, UnknownVertexError
from hamconn.multigraph import (
    ISOMORPHISM_SIZE_GUARD,
    Multigraph,
    SimpleGraph,
    canonical_labeling,
    complete_graph,
    cycle_graph,
    find_isomorphism,
    isomorphic,
    path_graph,
    relabel,
    star_graph,
    _edge_component,
)

from oracles import (
    nx_component_of,
    nx_isomorphic,
    permutation_isomorphic,
)


def random_multigraph_with_loops(rng: random.Random) -> Multigraph:
    """Up to 8 vertices and 14 edges, loops and parallel edges allowed,
    possibly disconnected."""
    n = rng.randint(1, 8)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 14))]
    return Multigraph(n, edges)


class TestBasics:
    def test_degree_isolated_vertex(self):
        assert Multigraph(1).degree(0) == 0

    def test_degree_loop_counts_twice(self):
        assert Multigraph(1, [(0, 0)]).degree(0) == 2

    def test_degree_claw_center(self, claw):
        assert claw.degree(0) == 3

    def test_unknown_ids(self, k4):
        with pytest.raises(UnknownVertexError):
            k4.degree(9)
        with pytest.raises(UnknownEdgeError):
            k4.is_loop(99)

    def test_simple_graph_rejects_loops_and_parallels(self):
        with pytest.raises(GraphError):
            SimpleGraph(2, [(0, 0)])
        with pytest.raises(GraphError):
            SimpleGraph(2, [(0, 1), (1, 0)])

    def test_degree_sum_is_twice_edge_count(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_multigraph_with_loops(rng)
            assert sum(g.degrees()) == 2 * g.edge_count


class TestSubdivide:
    def test_k2_becomes_p3(self):
        res = complete_graph(2).subdivide(0)
        assert isomorphic(res.graph, path_graph(3))
        assert res.graph.degree(res.new_vertex) == 2

    def test_triangle_becomes_c4(self):
        res = cycle_graph(3).subdivide(1)
        assert isomorphic(res.graph, cycle_graph(4))

    def test_loop_subdivision_gives_parallel_pair(self):
        res = Multigraph(1, [(0, 0)]).subdivide(0)
        # degree accounting: both vertices end with degree 2
        assert res.graph.degrees() == (2, 2)
        assert res.graph.multiplicity(0, 1) == 2

    def test_edge_map_tracks_survivors(self, k4):
        res = k4.subdivide(2)
        assert set(res.edge_map) == {0, 1, 3, 4, 5}
        for old, new in res.edge_map.items():
            assert res.graph.endpoints[new] == k4.endpoints[old]

    def test_random_multigraphs(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 7)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 10))]
            g = Multigraph(n, edges)
            e = rng.randrange(g.edge_count)
            res = g.subdivide(e)
            h, w = res.graph, res.new_vertex
            assert (h.n, w) == (g.n + 1, g.n)
            assert h.degree(w) == 2
            assert h.edge_count == g.edge_count + 1
            assert sorted(res.edge_map) == [f for f in range(g.edge_count) if f != e]
            for old, new in res.edge_map.items():
                assert h.endpoints[new] == g.endpoints[old]
            u, v = g.endpoints[e]
            assert h.endpoints[res.first_edge] == (u, w)
            assert h.endpoints[res.second_edge] == (v, w)


class TestIsomorphism:
    def test_relabeled_c5(self, c5):
        assert isomorphic(c5, relabel(c5, [2, 3, 4, 0, 1]))

    def test_same_degree_sum_not_isomorphic(self, claw):
        assert not isomorphic(claw, cycle_graph(3))

    def test_petersen_relabelings(self):
        from hamconn.constructions import petersen

        rng = random.Random(11)
        p = petersen()
        for _ in range(5):
            perm = list(range(10))
            rng.shuffle(perm)
            q = relabel(p, perm)
            mapping = find_isomorphism(p, q)
            assert mapping is not None

    def test_multiplicity_preserved(self):
        a = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        b = Multigraph(3, [(0, 1), (1, 2), (1, 2)])
        assert isomorphic(a, b)
        c = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
        assert not isomorphic(a, c)

    def test_agrees_with_oracles_on_random_pairs(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(1, 5)
            ea = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
            eb = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
            a, b = Multigraph(n, ea), Multigraph(n, eb)
            assert isomorphic(a, b) == permutation_isomorphic(a, b)
            assert isomorphic(a, b) == nx_isomorphic(a, b)

    def test_agrees_with_networkx_on_relabelings_and_edge_swaps(self):
        # Half the pairs are relabelings; the other half swap the ends of two
        # edges of a relabeling, which keeps the degree sequence, so the
        # canonical forms decide.
        rng = random.Random(23)
        for i in range(400):
            n = rng.randint(2, 8)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(2, 12))]
            perm = list(range(n))
            rng.shuffle(perm)
            moved = [(perm[u], perm[v]) for u, v in edges]
            rng.shuffle(moved)
            if i % 2:
                (a, b), (c, d) = moved[0], moved[1]
                moved[0], moved[1] = (a, d), (c, b)
            g, h = Multigraph(n, edges), Multigraph(n, moved)
            assert isomorphic(g, h) == nx_isomorphic(g, h), (g, h)

    def test_equivalence_relation_on_sample(self):
        graphs = [
            complete_graph(4),
            relabel(complete_graph(4), [3, 2, 1, 0]),
            cycle_graph(4),
            star_graph(3),
            path_graph(4),
        ]
        for g in graphs:
            assert isomorphic(g, g)
        for a, b in itertools.combinations(graphs, 2):
            assert isomorphic(a, b) == isomorphic(b, a)
        for a, b, c in itertools.permutations(graphs, 3):
            if isomorphic(a, b) and isomorphic(b, c):
                assert isomorphic(a, c)


class TestCanonicalLabeling:
    @staticmethod
    def cases():
        from hamconn.constructions import petersen, wagner_counterexample
        from hamconn.linegraph import line_graph

        graphs = [petersen(), line_graph(complete_graph(6)).target, line_graph(petersen()).target]
        graphs += [wagner_counterexample(p)[1] for p in (1, 2, 3)]
        graphs += [wagner_counterexample(p)[0] for p in (1, 2)]
        graphs.append(complete_graph(12))
        # K3 + C5 + C6: an automorphism found inside one component must not
        # end the search in another.
        union, offset = [], 0
        for k in (3, 5, 6):
            union += [(offset + i, offset + (i + 1) % k) for i in range(k)]
            offset += k
        graphs.append(Multigraph(offset, union))
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 9)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 16))]
            graphs.append(Multigraph(n, edges))
        return [(g, 32) for g in graphs] + [(Multigraph(40), 64)]

    def test_invariant_under_relabeling(self):
        rng = random.Random(31)
        for g, guard in self.cases():
            canon = relabel(g, canonical_labeling(g, size_guard=guard))
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                edges = [(perm[u], perm[v]) for u, v in g.endpoints]
                rng.shuffle(edges)
                h = Multigraph(g.n, edges)
                assert relabel(h, canonical_labeling(h, size_guard=guard)) == canon, g


class TestSizeGuard:
    def test_isomorphism_guard(self):
        big = Multigraph(ISOMORPHISM_SIZE_GUARD + 1, [])
        with pytest.raises(GraphError):
            find_isomorphism(big, big)
        assert find_isomorphism(big, big, size_guard=ISOMORPHISM_SIZE_GUARD + 1) is not None


class TestConnectivityQueries:
    def test_k1_connected(self):
        assert Multigraph(1).is_connected()

    def test_two_disjoint_edges(self):
        assert not Multigraph(4, [(0, 1), (2, 3)]).is_connected()

    def test_petersen_connected(self):
        from hamconn.constructions import petersen

        assert petersen().is_connected()

    def test_matches_component_of_with_loops(self):
        rng = random.Random(3)
        for _ in range(300):
            g = random_multigraph_with_loops(rng)
            assert g.is_connected() == (len(nx_component_of(g, 0, ())) == g.n), g

    def test_edge_component_matches_the_oracle(self):
        # the one edge-avoiding walk, with a random set of blocked edge ids
        rng = random.Random(29)
        for _ in range(300):
            g = random_multigraph_with_loops(rng)
            m = g.edge_count
            forbidden = frozenset(rng.sample(range(m), rng.randint(0, m)))
            blocked = sum(1 << e for e in forbidden)
            for v in range(g.n):
                comp = _edge_component(g.incidence(), v, blocked)
                vertices = frozenset(x for x in range(g.n) if comp >> x & 1)
                assert vertices == nx_component_of(g, v, forbidden), g
