import pytest

from hamconn.constructions import petersen, wagner, wagner_counterexample
from hamconn.harness import counterexample_report
from hamconn.invariants import find_claw, is_claw_free, vertex_connectivity
from hamconn.multigraph import SimpleGraph, isomorphic
from hamconn.trails import is_hamiltonian

from oracles import girth


class TestPetersen:
    def test_fingerprint(self):
        p = petersen()
        assert p.n == 10 and p.edge_count == 15
        assert set(p.degrees()) == {3}
        assert girth(p) == 5

    def test_hand_entered_adjacency(self):
        # outer pentagon, spokes, inner pentagram entered independently
        adjacency = [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        ]
        assert isomorphic(petersen(), SimpleGraph(10, adjacency))

    def test_not_hamiltonian(self):
        assert not is_hamiltonian(petersen())

    def test_connectivity(self):
        assert vertex_connectivity(petersen()) == 3


class TestWagner:
    def test_fingerprint(self):
        w = wagner()
        assert w.n == 8 and w.edge_count == 12
        assert set(w.degrees()) == {3}
        assert girth(w) == 4

    def test_hand_entered_figure(self):
        # the 8-cycle v0..v7 plus the four diameters, as drawn
        figure = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (1, 5), (2, 6), (3, 7)]
        assert isomorphic(wagner(), SimpleGraph(8, figure))

    def test_hamiltonian_via_outer_cycle(self):
        assert is_hamiltonian(wagner())


class TestCounterexample:
    def test_sizes(self):
        g, h = wagner_counterexample(1)
        assert g.n == 20 and h.edge_count == 20
        assert h.n == 16

    def test_claw_free_and_3_connected(self):
        g, _ = wagner_counterexample(1)
        assert is_claw_free(g)
        assert vertex_connectivity(g) >= 3

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_report_claw_free_agrees_with_the_claw_search(self, p):
        # the report reads claw-freeness off the L(H) check of its census;
        # the search confirms it on the same graph
        g, _ = wagner_counterexample(p)
        assert find_claw(g) is None
        assert counterexample_report(p).claw_free

    def test_core_is_wagner(self):
        from hamconn.core import core
        from hamconn.invariants import is_essentially_k_edge_connected

        _, h = wagner_counterexample(1)
        assert is_essentially_k_edge_connected(h, 3)
        assert isomorphic(core(h).core, wagner())

    def test_rejects_zero_pendants(self):
        with pytest.raises(ValueError):
            wagner_counterexample(0)
