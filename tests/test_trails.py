import hashlib
import itertools
import random
import sys

import pytest

from hamconn import trails
from hamconn.constructions import wagner_counterexample
from hamconn.corpus import random_3_edge_connected_multigraph, random_multigraph
from hamconn.errors import GraphError, LiftFailedError, UnknownEdgeError, UnknownVertexError
from hamconn.linegraph import line_graph
from hamconn.multigraph import Multigraph, SimpleGraph, complete_graph, cycle_graph, path_graph
from hamconn.trails import (
    Trail,
    find_closed_trail_through,
    find_dct,
    find_hamiltonian_cycle,
    find_idt,
    find_spanning_closed_trail,
    hamiltonian_path,
    is_hamiltonian,
    is_hamiltonian_connected,
    missing_hamiltonian_pair,
)

from oracles import (
    brute_closed_trail_through,
    brute_dct,
    brute_hamiltonian_cycle,
    brute_hamiltonian_path,
    brute_idt,
    enumerate_labeled,
    enumerate_multigraph_corpus,
    spanning_connected_even_subgraph_exists,
)


class TestTrailType:
    def test_validation_catches_broken_incidence(self, k4):
        with pytest.raises(GraphError):
            Trail(k4, (0, 1, 2), (0, 0)).validate()
        with pytest.raises(GraphError):
            Trail(k4, (0, 2), (0,)).validate()

    def test_trivial_trail_is_closed(self, k4):
        t = Trail(k4, (2,), ())
        t.validate()
        assert t.is_closed

    @pytest.mark.parametrize(
        "vertices, edges, error",
        [
            ((0, 1), (), GraphError),  # shape mismatch
            ((), (), GraphError),  # no vertex at all
            ((0, 1, 0), (0, 0), GraphError),  # repeated edge
            ((0, 2), (0,), GraphError),  # edge 0 joins 0 and 1, not 0 and 2
            ((0, 4), (0,), UnknownVertexError),
            ((0, 1), (6,), UnknownEdgeError),
        ],
    )
    def test_a_malformed_trail_cannot_be_built(self, k4, vertices, edges, error):
        # the check runs at construction, so no malformed Trail exists to be
        # checked later
        with pytest.raises(error) as caught:
            Trail(k4, vertices, edges)
        assert isinstance(caught.value, GraphError)


# 0 =e0,e5= 1 =e1,e2= 2 =e3,e4= 3 -e6- 4: three parallel pairs on a path
# and a pendant edge.
_BACKTRACK_TWINS = [(0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (0, 1), (3, 4)]


class TestClosedTrailThrough:
    def test_k4_supereulerian_through_any_edge(self, k4):
        for e in range(k4.edge_count):
            t = find_closed_trail_through(k4, range(4), e)
            assert t is not None and e in t.edges and t.is_spanning()

    def test_c5_with_empty_requirement(self, c5):
        t = find_closed_trail_through(c5, [], 0)
        assert t is not None and len(t.edges) == 5

    def test_petersen_eight_vertices_absent(self):
        from hamconn.constructions import petersen

        p = petersen()
        x, y = p.endpoints[0]
        a = [v for v in range(10) if v not in (x, y)]
        assert find_closed_trail_through(p, a, 0) is None

    def test_agrees_with_unpruned_oracle(self):
        rng = random.Random(13)
        for _ in range(80):
            h = random_multigraph(rng, max_vertices=5, max_edges=7)
            if not h.edge_count:
                continue
            e = rng.randrange(h.edge_count)
            if h.is_loop(e):
                continue
            a = [v for v in range(h.n) if rng.random() < 0.4]
            mine = find_closed_trail_through(h, a, e)
            assert (mine is not None) == brute_closed_trail_through(h, a, e)
            if mine is not None:
                mine.validate()
                assert set(a) <= mine.vertex_set() and e in mine.edges

    def test_prescribed_loop_is_traversable(self):
        h = Multigraph(2, [(0, 0), (0, 1), (0, 1)])
        t = find_closed_trail_through(h, [1], 0)
        assert t is not None and 0 in t.edges

    def test_way_back_along_the_second_parallel_edge(self):
        # the search first walks 1 -e1- 2 -e2- 1, a dead end because 3 is
        # required; it backtracks, goes 2 -e3- 3 -e4- 2 and returns to 1
        # along e2, the twin of e1: 1 and 2 must stay joined after e1 is
        # used and again after e2 is given back
        h = Multigraph(5, _BACKTRACK_TWINS)
        assert brute_closed_trail_through(h, [3], 0)
        t = find_closed_trail_through(h, [3], 0)
        assert t is not None
        assert (t.vertices, t.edges) == ((0, 1, 2, 3, 2, 1, 0), (0, 1, 3, 4, 2, 5))


class TestSpanningClosedTrail:
    def test_c4(self):
        t = find_spanning_closed_trail(cycle_graph(4))
        assert t is not None and t.is_spanning()

    def test_claw_absent(self, claw):
        assert find_spanning_closed_trail(claw) is None

    def test_k4_present(self, k4):
        assert find_spanning_closed_trail(k4) is not None

    def test_single_vertex(self):
        t = find_spanning_closed_trail(Multigraph(1, [(0, 0)]))
        assert t is not None and t.vertices == (0,)

    def test_agrees_with_even_subgraph_oracle(self):
        rng = random.Random(14)
        for _ in range(60):
            h = random_multigraph(rng, max_vertices=5, max_edges=8)
            mine = find_spanning_closed_trail(h)
            assert (mine is not None) == spanning_connected_even_subgraph_exists(h)


class TestDct:
    def test_triangle_with_pendants(self):
        h = Multigraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
        t = find_dct(h)
        assert t is not None and t.dominates_host_edges()
        assert len(t.edges) == 3

    def test_p4_absent(self, p4):
        assert find_dct(p4) is None

    def test_star_trivial_trail(self, claw):
        t = find_dct(claw)
        assert t is not None and t.vertices == (0,)

    def test_spanning_implies_dominating(self):
        rng = random.Random(15)
        for _ in range(60):
            h = random_multigraph(rng, max_vertices=6, max_edges=9)
            if find_spanning_closed_trail(h) is not None:
                assert find_dct(h) is not None

    def test_agrees_with_unpruned_oracle(self):
        rng = random.Random(16)
        for _ in range(80):
            h = random_multigraph(rng, max_vertices=5, max_edges=7)
            assert (find_dct(h) is not None) == brute_dct(h)


class TestIdt:
    def test_triangle_plus_pendant(self, triangle_with_pendant):
        # e1 = pendant (0,3), e2 = far triangle edge (1,2)
        w = find_idt(triangle_with_pendant, 3, 1)
        assert w is not None
        assert w.trail.edges[0] == 3 and w.trail.edges[-1] == 1

    def test_path_terminal_edges(self, p4):
        assert find_idt(p4, 0, 2) is not None
        assert find_idt(p4, 0, 1) is None

    def test_same_edge_rejected(self, p4):
        with pytest.raises(GraphError):
            find_idt(p4, 1, 1)

    def test_bowtie_far_edge_undominated(self):
        # two triangles sharing vertex 0; terminals inside one triangle
        # cannot internally dominate the far triangle's opposite edge
        h = Multigraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert find_idt(h, 1, 4) is not None
        systems = find_idt(h, 0, 1)
        # edge (3,4) needs 3 or 4 interior; check against oracle instead of guessing
        assert (systems is not None) == brute_idt(h, 0, 1)

    def test_agrees_with_unpruned_oracle(self):
        rng = random.Random(18)
        checked = loop_terminals = 0
        for _ in range(50):
            h = random_multigraph(rng, max_vertices=5, max_edges=6)
            if rng.random() < 0.5:
                v = rng.randrange(h.n)
                h = Multigraph(h.n, [*h.endpoints, (v, v)])
            if h.edge_count < 3:
                continue
            for e1, e2 in itertools.permutations(range(h.edge_count), 2):
                checked += 1
                loop_terminals += h.is_loop(e1) or h.is_loop(e2)
                mine = find_idt(h, e1, e2)
                assert (mine is not None) == brute_idt(h, e1, e2), (h.endpoints, e1, e2)
        assert checked > 200 and loop_terminals > 50

    def test_way_back_along_the_second_parallel_edge(self):
        # the interior must reach 3 to dominate e6; see TestClosedTrailThrough
        h = Multigraph(5, _BACKTRACK_TWINS)
        for e1, e2 in ((0, 5), (5, 0)):
            assert brute_idt(h, e1, e2)
            w = find_idt(h, e1, e2)
            assert w is not None
            assert w.trail.vertices == (0, 1, 2, 3, 2, 1, 0)
            assert w.trail.edges == (e1, 1, 3, 4, 2, e2)


class TestTrailEngineOutput:
    def test_trails_found_are_pinned(self):
        # sha256 over every trail (or None) the edge-trail engine returns on
        # a seeded corpus with loops and parallel edges, and on H_1: the
        # search order decides which trail is returned, and so the
        # certificates built from it
        digest = hashlib.sha256()

        def record(trail):
            digest.update(repr(None if trail is None else (trail.vertices, trail.edges)).encode())

        rng = random.Random(23)
        corpus = []
        for _ in range(400):
            n = rng.randint(1, 6)
            m = rng.randint(1, 9)
            corpus.append(Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]))
        corpus.append(wagner_counterexample(1)[1])
        for h in corpus:
            for e1, e2 in itertools.permutations(range(h.edge_count), 2):
                witness = find_idt(h, e1, e2)
                record(None if witness is None else witness.trail)
            for e in range(h.edge_count):
                required = [v for v in range(h.n) if rng.random() < 0.5]
                record(find_closed_trail_through(h, required, e))
            record(find_dct(h))
            record(find_spanning_closed_trail(h))
        assert digest.hexdigest() == (
            "a7dd0a0ebbd492b486af5c731bd1aaaa2dbc84681dc52f17137c10abbd6f75e2"
        )


class TestHamiltonianEngineOutput:
    def test_orders_found_are_pinned(self):
        # sha256 over the hamiltonian path of every ordered vertex pair, the
        # hamiltonian cycle and the first missing pair (or None) on a seeded
        # set of simple graphs: the visiting order decides which order is
        # returned, and the first missing pair is what verify reports
        digest = hashlib.sha256()

        def record(value):
            digest.update(repr(value).encode())

        rng = random.Random(29)
        for _ in range(400):
            n = rng.randint(3, 10)
            p = rng.uniform(0.3, 0.9)
            g = SimpleGraph(
                n, [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
            )
            for a, b in itertools.permutations(range(n), 2):
                path = hamiltonian_path(g, a, b)
                record(None if path is None else path.vertices)
            cycle = find_hamiltonian_cycle(g)
            record(None if cycle is None else cycle.vertices)
            record(missing_hamiltonian_pair(g))
        assert digest.hexdigest() == (
            "8a768d3b4df36d5ad036a385f46357660bd73598d3dc03a57ef18c7eb47f7c6a"
        )


class TestSharpnessCensusOutput:
    def test_idt_census_of_h1_to_h3_is_pinned(self):
        # sha256 over find_idt on every ordered edge pair of H_1..H_3, the
        # searches behind the sharpness census
        digest = hashlib.sha256()
        for p in (1, 2, 3):
            h = wagner_counterexample(p)[1]
            for e1, e2 in itertools.permutations(range(h.edge_count), 2):
                witness = find_idt(h, e1, e2)
                trail = None if witness is None else witness.trail
                digest.update(repr(None if trail is None else (trail.vertices, trail.edges)).encode())
        assert digest.hexdigest() == (
            "ab83f91fa83c7f558760328b605211c26a32f3196f9a35eb9ce6f37490e40bb9"
        )


class TestDeepTrails:
    # A 1,100-vertex cycle with a second edge 0-1: every trail the searches
    # below can return runs round the whole cycle, one search step per edge.
    # The hamiltonian searches run on the plain 1,100-vertex path and cycle,
    # one search step per vertex.
    N = 1100

    @pytest.fixture(scope="class")
    def doubled_cycle(self):
        return Multigraph(self.N, [(i, (i + 1) % self.N) for i in range(self.N)] + [(0, 1)])

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        assert sys.getrecursionlimit() < self.N

    def check(self, trail):
        assert trail is not None
        trail.validate()
        assert len(trail.edges) >= self.N

    def test_dct(self, doubled_cycle):
        trail = find_dct(doubled_cycle)
        self.check(trail)
        assert trail.is_closed and trail.dominates_host_edges()

    def test_spanning_closed_trail(self, doubled_cycle):
        trail = find_spanning_closed_trail(doubled_cycle)
        self.check(trail)
        assert trail.is_closed and trail.is_spanning()

    def test_closed_trail_through(self, doubled_cycle):
        trail = find_closed_trail_through(doubled_cycle, [self.N // 2], 0)
        self.check(trail)
        assert trail.is_closed and self.N // 2 in trail.vertex_set()

    def test_idt(self, doubled_cycle):
        witness = find_idt(doubled_cycle, 0, self.N)
        assert witness is not None
        witness.validate()
        self.check(witness.trail)

    def test_hamiltonian_path(self):
        path = hamiltonian_path(path_graph(self.N), 0, self.N - 1)
        assert path is not None and path.vertices == tuple(range(self.N))

    def test_hamiltonian_cycle(self):
        g = cycle_graph(self.N)
        cycle = find_hamiltonian_cycle(g)
        self.check(cycle)
        assert cycle.is_closed and cycle.is_spanning()
        assert is_hamiltonian(g)

    def test_missing_hamiltonian_pair(self):
        assert missing_hamiltonian_pair(cycle_graph(self.N)) == (0, 2)


class TestHamiltonianPath:
    def test_k4_any_pair(self, k4):
        for a, b in itertools.combinations(range(4), 2):
            t = hamiltonian_path(k4, a, b)
            assert t is not None and len(t.vertices) == 4

    def test_c5_nonadjacent_absent(self, c5):
        assert hamiltonian_path(c5, 0, 2) is None
        assert hamiltonian_path(c5, 0, 1) is not None

    def test_petersen_pairs(self):
        # A hamiltonian path between adjacent vertices would close to a
        # hamiltonian cycle, which the Petersen graph has none of; paths
        # exist between non-adjacent pairs.  Values frozen from the
        # permutation oracle.
        from hamconn.constructions import petersen

        p = petersen()
        assert hamiltonian_path(p, 0, 1) is None
        assert hamiltonian_path(p, 0, 2) is not None
        assert hamiltonian_path(p, 0, 7) is not None

    def test_same_endpoints_rejected(self, k4):
        with pytest.raises(GraphError):
            hamiltonian_path(k4, 1, 1)

    def test_order_that_skips_a_vertex_is_refused(self, k4, monkeypatch):
        # [0, 1, 2] steps along edges of K4 but never visits 3
        monkeypatch.setattr(trails, "_hamiltonian_order", lambda *_, **__: [0, 1, 2])
        with pytest.raises(LiftFailedError):
            hamiltonian_path(k4, 0, 2)

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(2, 7)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
            g = SimpleGraph(n, edges)
            a, b = rng.sample(range(n), 2)
            mine = hamiltonian_path(g, a, b)
            assert (mine is not None) == brute_hamiltonian_path(g, a, b)
            if mine is not None:
                mine.validate()
                assert mine.vertices[0] == a and mine.vertices[-1] == b
                assert len(set(mine.vertices)) == n


    def test_exhaustive_against_permutation_oracle(self, connected_graphs_6):
        for g in connected_graphs_6:
            for a, b in itertools.permutations(range(g.n), 2):
                mine = hamiltonian_path(g, a, b)
                assert (mine is not None) == brute_hamiltonian_path(g, a, b), (g.endpoints, a, b)
                if mine is not None:
                    mine.validate()
                    assert mine.vertices[0] == a and mine.vertices[-1] == b
                    assert len(set(mine.vertices)) == g.n


class TestHamiltonian:
    def test_c5(self, c5):
        assert is_hamiltonian(c5)

    def test_petersen_not(self):
        from hamconn.constructions import petersen

        assert not is_hamiltonian(petersen())

    def test_claw_not(self, claw):
        assert not is_hamiltonian(claw)

    def test_small_rejected(self):
        with pytest.raises(GraphError):
            is_hamiltonian(complete_graph(2))

    def test_order_that_skips_a_vertex_is_refused(self, k4, monkeypatch):
        # closing [0, 1, 2] gives a triangle of K4, not a spanning cycle
        monkeypatch.setattr(trails, "_hamiltonian_order", lambda *_, **__: [0, 1, 2])
        for decide in (find_hamiltonian_cycle, is_hamiltonian):
            with pytest.raises(LiftFailedError, match="not a permutation"):
                decide(k4)

    def test_order_that_does_not_close_is_refused(self, p4, monkeypatch):
        # 0-1-2-3 is a hamiltonian path of P4, but 3 does not see 0
        monkeypatch.setattr(trails, "_hamiltonian_order", lambda *_, **__: [0, 1, 2, 3])
        for decide in (find_hamiltonian_cycle, is_hamiltonian):
            with pytest.raises(LiftFailedError, match="closes along a non-edge"):
                decide(p4)

    def test_is_hamiltonian_on_every_labeled_graph(self):
        for n in range(3, 7):
            for g in enumerate_labeled(n):
                assert is_hamiltonian(g) == brute_hamiltonian_cycle(g), g.endpoints

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(20)
        for _ in range(100):
            n = rng.randint(3, 7)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
            g = SimpleGraph(n, edges)
            mine = find_hamiltonian_cycle(g)
            assert (mine is not None) == brute_hamiltonian_cycle(g)
            if mine is not None:
                mine.validate()
                assert mine.is_closed and len(mine.edges) == n

    def test_exhaustive_against_permutation_oracle(self, connected_graphs_6):
        for g in connected_graphs_6:
            if g.n < 3:
                continue
            mine = find_hamiltonian_cycle(g)
            assert (mine is not None) == brute_hamiltonian_cycle(g), g.endpoints
            if mine is not None:
                mine.validate()
                assert mine.is_closed and len(set(mine.vertices)) == g.n == len(mine.edges)


class TestHamiltonianConnected:
    def test_k4(self, k4):
        assert is_hamiltonian_connected(k4)

    def test_c5_witness(self, c5):
        assert missing_hamiltonian_pair(c5) == (0, 2)

    def test_tiny_graphs(self):
        assert is_hamiltonian_connected(complete_graph(2))
        assert not is_hamiltonian_connected(SimpleGraph(2, []))

    def test_no_pair_to_join(self):
        # K_0 and K_1 are complete, with no pair of distinct vertices
        assert is_hamiltonian_connected(SimpleGraph(0))
        assert is_hamiltonian_connected(SimpleGraph(1))
        with pytest.raises(GraphError):
            missing_hamiltonian_pair(SimpleGraph(1))

    def test_first_missing_pair_against_permutation_oracle(self, connected_graphs_6):
        for g in connected_graphs_6:
            if g.n < 2:
                continue
            expected = next(
                (
                    (a, b)
                    for a, b in itertools.combinations(range(g.n), 2)
                    if not brute_hamiltonian_path(g, a, b)
                ),
                None,
            )
            assert missing_hamiltonian_pair(g) == expected, g.endpoints

    def test_more_than_64_vertices(self):
        assert missing_hamiltonian_pair(cycle_graph(70)) == (0, 2)


class TestTrailEquivalences:
    """Hamiltonicity of a line graph corresponds to a dominating closed
    trail, and hamiltonian paths to internally dominating trails."""

    def _small_corpus(self):
        out = []
        for h in enumerate_multigraph_corpus(max_vertices=4, min_edges=3, max_edges=6):
            out.append(h)
        return out

    def test_dct_equivalence_on_small_corpus(self):
        for h in self._small_corpus():
            g = line_graph(h)
            assert is_hamiltonian(g) == (find_dct(h) is not None), h.endpoints

    def test_idt_equivalence_on_small_corpus(self):
        rng = random.Random(21)
        for h in self._small_corpus():
            if rng.random() > 0.25:
                continue
            g = line_graph(h)
            for e1, e2 in itertools.permutations(range(h.edge_count), 2):
                ham = hamiltonian_path(g, e1, e2) is not None
                idt = find_idt(h, e1, e2) is not None
                assert ham == idt, (h.endpoints, e1, e2)

    def test_corollary_on_random_3ec_multigraphs(self):
        rng = random.Random(22)
        for _ in range(20):
            h = random_3_edge_connected_multigraph(rng, max_vertices=6, max_edges=10)
            vertices = list(range(h.n))
            for _ in range(10):
                a = rng.sample(vertices, min(len(vertices), rng.randint(0, 7)))
                e = rng.randrange(h.edge_count)
                assert find_closed_trail_through(h, a, e) is not None
