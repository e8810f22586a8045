import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hamconn import invariants
from hamconn.corpus import (
    graph_classes,
    random_connected_multigraph_with_loops,
    random_multigraph,
)
from hamconn.constructions import wagner_counterexample
from hamconn.errors import DisconnectedGraphError, GraphError, LiftFailedError
from hamconn.harness import counterexample_report
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
    true_twin_leads,
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
from hamconn.reduction import missing_idt_pair

from oracles import (
    brute_dominating_sets,
    brute_domination_number,
    enumerate_labeled,
    multigraph_with_twins,
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
            assert is_claw_free(line_graph(h))

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
        assert vertex_connectivity(SimpleGraph(0)) == 0
        for n in range(2, 8):
            assert vertex_connectivity(complete_graph(n)) == n - 1
        two_triangles = SimpleGraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert vertex_connectivity(two_triangles) == nx.node_connectivity(to_nx(two_triangles)) == 0

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(120):
            n = rng.randint(2, 8)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            g = SimpleGraph(n, edges)
            assert vertex_connectivity(g) == nx.node_connectivity(to_nx(g))

    def test_twin_quotient_matches_networkx_on_clique_blowups(self):
        # each vertex of a seeded graph on <= 7 vertices becomes a clique of
        # 1..3 true twins, joined completely along the graph's edges
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(1, 7)
            base = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            blocks, count = [], 0
            for _ in range(n):
                size = rng.randint(1, 3)
                blocks.append(range(count, count + size))
                count += size
            edges = [pair for block in blocks for pair in itertools.combinations(block, 2)]
            edges += [(x, y) for i, j in base for x in blocks[i] for y in blocks[j]]
            g = SimpleGraph(count, edges)
            assert vertex_connectivity(g) == nx.node_connectivity(to_nx(g)), g.endpoints

    def test_twin_quotient_matches_networkx_on_line_graphs(self):
        # parallel edges and pendant edges at one support are twins in L(H)
        rng = random.Random(43)
        for _ in range(150):
            g = line_graph(multigraph_with_twins(rng))
            assert vertex_connectivity(g) == nx.node_connectivity(to_nx(g)), g.endpoints

    def test_sharpness_family_is_3_connected(self):
        for p in range(1, 7):
            assert counterexample_report(p).connectivity == 3, p

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


_build_twin_leads = invariants._twin_leads


def _merged_twin_leads(masks):
    """``_twin_leads`` with vertex 1 merged into vertex 0's class;
    in L(H_1) edges 0 and 1 share one end only, so they are not twins."""
    lead = _build_twin_leads(masks)
    lead[1] = lead[0]
    return lead


class TestTwinCheck:
    def test_leads_are_least_twins(self):
        g, _ = wagner_counterexample(3)
        lead = true_twin_leads(g)
        # each Wagner vertex's three pendant edges 12 + 3v .. 14 + 3v
        assert lead == list(range(12)) + [12 + 3 * (i // 3) for i in range(24)]

    def test_a_lead_above_its_vertex_is_refused(self, monkeypatch):
        # the census skips e1 unless it leads its class, which is sound only
        # when a lead comes before every member it stands for
        def last_twin(masks):
            lead = _build_twin_leads(masks)
            last = {a: v for v, a in enumerate(lead)}
            return [last[a] for a in lead]

        monkeypatch.setattr(invariants, "_twin_leads", last_twin)
        g, h = wagner_counterexample(2)
        with pytest.raises(LiftFailedError, match="lead 13 of vertex 12 is not a lead at or below it"):
            missing_idt_pair(g, h)

    @pytest.mark.parametrize(
        "check",
        [missing_idt_pair, lambda g, h: vertex_connectivity(g)],
        ids=["missing_idt_pair", "vertex_connectivity"],
    )
    def test_a_merged_class_is_refused(self, monkeypatch, check):
        monkeypatch.setattr(invariants, "_twin_leads", _merged_twin_leads)
        with pytest.raises(LiftFailedError, match="vertices 0 and 1 are not true twins"):
            check(*wagner_counterexample(1))

    @pytest.mark.parametrize("call", ["missing_idt_pair(g, h)", "vertex_connectivity(g)"])
    def test_a_merged_class_is_refused_under_dash_o(self, call):
        # python -O strips assert statements; the twin check raises instead
        src = str(Path(invariants.__file__).resolve().parents[1])
        code = (
            "import sys, test_invariants\n"
            "from hamconn import invariants\n"
            "from hamconn.constructions import wagner_counterexample\n"
            "from hamconn.invariants import vertex_connectivity\n"
            "from hamconn.reduction import missing_idt_pair\n"
            "invariants._twin_leads = test_invariants._merged_twin_leads\n"
            "g, h = wagner_counterexample(1)\n"
            "print(sys.flags.optimize)\n"
            f"{call}\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout == "1\n"
        assert "LiftFailedError: vertices 0 and 1 are not true twins" in done.stderr


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


class TestDominationEngineOutput:
    def test_sets_found_are_pinned(self, graph_classes_7):
        # sha256 over the dominating set of each size bound 0..3 (or None)
        # and the domination number, on every class on at most 7 vertices,
        # every claw-free class on at most 8 and 200 seeded random graphs on
        # 8-22 vertices: the branching order decides which set is returned,
        # and so the set pipeline prints
        graphs = [g for g, _ in graph_classes_7]
        graphs += [g for g, _ in graph_classes(8, claw_free=True)]
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(8, 22)
            p = rng.uniform(0.08, 0.6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            graphs.append(SimpleGraph(n, edges))
        digest = hashlib.sha256()
        for g in graphs:
            for k in range(4):
                found = dominating_set(g, k)
                digest.update(repr(None if found is None else tuple(sorted(found.vertices))).encode())
            digest.update(repr(domination_number(g)).encode())
        assert digest.hexdigest() == (
            "c104b9911c683837959e2af778c3fc349ac399362812940504ce138e89cc6e16"
        )


class TestDeepDomination:
    # A path or cycle on 3,300 vertices needs 1,100 dominators, one search
    # step each.
    N = 3300

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        assert sys.getrecursionlimit() < self.N // 3

    def test_path(self):
        assert domination_number(path_graph(self.N)) == self.N // 3

    def test_cycle(self):
        assert domination_number(cycle_graph(self.N)) == self.N // 3


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
            g = line_graph(h)
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
