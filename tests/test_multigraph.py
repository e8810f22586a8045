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
    _is_isomorphism,
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
        with pytest.raises(GraphError, match="loop at vertex 0 not allowed"):
            SimpleGraph(2, [(0, 0)])
        with pytest.raises(GraphError, match=r"parallel edge \(0, 1\) not allowed"):
            SimpleGraph(2, [(0, 1), (1, 0)])
        # the first offending edge is reported
        with pytest.raises(GraphError, match=r"parallel edge \(1, 2\)"):
            SimpleGraph(3, [(1, 2), (2, 1), (0, 0)])

    def test_normalized_input_tuples_are_kept(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        g = Multigraph(3, edges)
        assert all(g.endpoints[i] is edges[i] for i in range(3))

    def test_other_inputs_become_normalized_tuples(self):
        g = Multigraph(3, [(1, 0), [1, 2], [2, 0]])
        assert g.endpoints == ((0, 1), (1, 2), (0, 2))
        assert all(type(pair) is tuple for pair in g.endpoints)
        assert hash(g) == hash(Multigraph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_a_graph_built_from_endpoints_shares_the_tuples(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        child = SimpleGraph(4, g.endpoints + ((2, 3),))
        assert all(a is b for a, b in zip(child.endpoints, g.endpoints))
        sub = g.subdivide(0)
        assert sub.endpoints[1] is g.endpoints[1]

    def test_simple_graph_masks_match_the_multigraph_ones(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(0, 9)
            pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4]
            edges = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
            assert SimpleGraph(n, edges).adjacency_masks() == Multigraph(n, edges).adjacency_masks()

    def test_parallel_and_loop_tables(self):
        g = Multigraph(3, [(0, 1), (1, 1), (1, 0), (1, 2), (0, 1), (2, 2)])
        assert g.parallel_masks() == (0b10101, 0, 0b10101, 0b1000, 0b10101, 0)
        assert g.loop_mask() == 0b100010
        assert g.parallel_masks() is g.parallel_masks()
        assert Multigraph(2).parallel_masks() == () and Multigraph(2).loop_mask() == 0

    def test_degree_sum_is_twice_edge_count(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_multigraph_with_loops(rng)
            assert sum(g.degrees()) == 2 * g.edge_count


class TestSubdivide:
    def test_k2_becomes_p3(self):
        h = complete_graph(2).subdivide(0)
        assert isomorphic(h, path_graph(3))
        assert h.degree(2) == 2

    def test_triangle_becomes_c4(self):
        assert isomorphic(cycle_graph(3).subdivide(1), cycle_graph(4))

    def test_loop_subdivision_gives_parallel_pair(self):
        h = Multigraph(1, [(0, 0)]).subdivide(0)
        # degree accounting: both vertices end with degree 2
        assert h.degrees() == (2, 2)
        assert h.endpoints.count((0, 1)) == 2

    def test_edge_map_tracks_survivors(self, k4):
        # K4's edge 2 is (0, 3): its id goes to (0, 4), and (3, 4) is appended
        h = k4.subdivide(2)
        assert h.endpoints == ((0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4))

    def test_random_multigraphs(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 7)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 10))]
            g = Multigraph(n, edges)
            e = rng.randrange(g.edge_count)
            h = g.subdivide(e)
            m = g.edge_count
            assert (h.n, h.edge_count) == (n + 1, m + 1)
            assert h.degree(n) == 2
            for f in range(m):
                if f != e:
                    assert h.endpoints[f] == g.endpoints[f]
            u, v = g.endpoints[e]
            assert (h.endpoints[e], h.endpoints[m]) == ((u, n), (v, n))


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

        graphs = [petersen(), line_graph(complete_graph(6)), line_graph(petersen())]
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
        return graphs + [Multigraph(40)]

    def test_invariant_under_relabeling(self):
        rng = random.Random(31)
        for g in self.cases():
            canon = relabel(g, canonical_labeling(g))
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                edges = [(perm[u], perm[v]) for u, v in g.endpoints]
                rng.shuffle(edges)
                h = Multigraph(g.n, edges)
                assert relabel(h, canonical_labeling(h)) == canon, g


class TestBitmaskEngine:
    """The labeling engine on many small graphs: canonical forms, the
    isomorphism test and every automorphism it hands out."""

    @staticmethod
    def shuffled(g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.endpoints]
        rng.shuffle(edges)
        return type(g)(g.n, edges)

    def check_canonical_form(self, g, rng):
        automorphisms: list = []
        canon = relabel(g, canonical_labeling(g, automorphisms=automorphisms))
        for aut in automorphisms:
            assert _is_isomorphism(g, g, aut), (g, aut)
        for _ in range(3):
            h = self.shuffled(g, rng)
            assert relabel(h, canonical_labeling(h)) == canon, g

    def test_simple_graphs_up_to_10_vertices(self):
        rng = random.Random(41)
        for _ in range(4000):
            n = rng.randint(1, 10)
            pairs = list(itertools.combinations(range(n), 2))
            density = rng.random()
            g = SimpleGraph(n, [p for p in pairs if rng.random() < density])
            self.check_canonical_form(g, rng)

    def test_multigraphs_with_loops_and_parallel_edges(self):
        rng = random.Random(43)
        for _ in range(600):
            self.check_canonical_form(random_multigraph_with_loops(rng), rng)

    def test_isomorphic_agrees_with_networkx(self):
        # relabelings, and relabelings with the ends of two edges swapped,
        # which keeps the degree sequence
        rng = random.Random(47)
        for i in range(600):
            g = random_multigraph_with_loops(rng) if i % 3 else None
            if g is None:
                n = rng.randint(2, 9)
                g = SimpleGraph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5])
            h = self.shuffled(g, rng)
            if i % 2 and h.edge_count >= 2:
                edges = list(h.endpoints)
                (a, b), (c, d) = edges[0], edges[1]
                edges[0], edges[1] = (a, d), (c, b)
                h = Multigraph(h.n, edges)
            assert isomorphic(g, h) == nx_isomorphic(g, h), (g, h)

    def test_graphs_without_vertices(self):
        assert find_isomorphism(Multigraph(0), Multigraph(0)) == ()
        assert find_isomorphism(SimpleGraph(0), SimpleGraph(0)) == ()
        assert canonical_labeling(Multigraph(0)) == ()

    def test_equal_degree_sequences_told_apart(self):
        # P6 and K3 + P3 share the degree sequence (1, 1, 2, 2, 2, 2)
        p6 = path_graph(6)
        k3_p3 = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        assert sorted(p6.degrees()) == sorted(k3_p3.degrees())
        assert find_isomorphism(p6, k3_p3) is None
        assert find_isomorphism(p6, relabel(p6, [5, 4, 3, 2, 1, 0])) is not None


class TestSizeGuard:
    def test_isomorphism_guard(self):
        big = Multigraph(ISOMORPHISM_SIZE_GUARD + 1, [])
        with pytest.raises(GraphError):
            find_isomorphism(big, big)
        with pytest.raises(GraphError):
            canonical_labeling(big)
        at_guard = Multigraph(ISOMORPHISM_SIZE_GUARD, [])
        assert find_isomorphism(at_guard, at_guard) is not None


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
