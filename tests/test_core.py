import random

import pytest

from hamconn.core import core, lift_closed_trail
from hamconn.corpus import random_essentially_3ec_multigraph
from hamconn.errors import (
    DegenerateCoreError,
    DisconnectedGraphError,
    LiftFailedError,
)
from hamconn.invariants import edge_connectivity, vertices_dominate_edges
from hamconn.multigraph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    isomorphic,
    path_graph,
    star_graph,
)
from hamconn.trails import Trail, find_spanning_closed_trail


def _with_pendant_tails(corpus):
    """The corpus, then each graph with a pendant edge or a pendant path of
    two edges hung off a seeded vertex."""
    rng = random.Random(31)
    graphs = list(corpus)
    for h in corpus:
        v, n = rng.randrange(h.n), h.n
        tail = [(v, n)] if rng.random() < 0.5 else [(v, n), (n, n + 1)]
        graphs.append(Multigraph(n + len(tail), list(h.endpoints) + tail))
    return graphs


@pytest.fixture
def subdivided_k4():
    return complete_graph(4).subdivide(0)


class TestCore:
    def test_k4_with_pendants(self, k4_with_pendants):
        cm = core(k4_with_pendants)
        assert isomorphic(cm.core, complete_graph(4))
        assert cm.pendant_support == {6: 0, 7: 1, 8: 2, 9: 3}
        cm.validate()

    def test_subdivided_k4(self, subdivided_k4):
        cm = core(subdivided_k4)
        assert isomorphic(cm.core, complete_graph(4))
        assert sorted(len(p) for p in cm.edge_expansion.values()) == [1, 1, 1, 1, 1, 2]

    def test_degenerate_inputs(self, claw):
        for bad in (claw, path_graph(4), cycle_graph(5), star_graph(6)):
            with pytest.raises(DegenerateCoreError):
                core(bad)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            core(Multigraph(2, []))

    def test_loops_retained_with_expansions(self):
        h = Multigraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 4)])
        cm = core(h)
        loops = [e for e in range(cm.core.edge_count) if cm.core.is_loop(e)]
        assert len(loops) == 1
        assert sorted(cm.edge_expansion[loops[0]]) == [6, 7]

    def test_walk_properties_on_corpus(self, equivalence_corpus):
        # the walk's invariants
        for h in _with_pendant_tails(equivalence_corpus):
            try:
                cm = core(h)
            except DegenerateCoreError:
                continue
            two_core = [0] * h.n
            for e in set(range(h.edge_count)) - cm.pendant_support.keys():
                u, v = h.endpoints[e]
                two_core[u] += 1
                two_core[v] += 1
            assert cm.core_vertex_origin == tuple(v for v in range(h.n) if two_core[v] not in (0, 2))
            assert all(two_core[x] == 2 for x in cm.suppressed_location)
            for ce, epath in cm.edge_expansion.items():
                assert all(cm.edge_owner[e] == ce for e in epath)

    def test_pendant_support_is_the_end_that_remains(self, equivalence_corpus):
        for h in _with_pendant_tails(equivalence_corpus):
            try:
                cm = core(h)
            except DegenerateCoreError:
                continue
            for e, support in cm.pendant_support.items():
                leaf = h.other_end(e, support)
                # Without e, the leaf's side is cut off from the support and
                # holds only stripped edges: it went before e did.
                side, stack = {leaf}, [leaf]
                while stack:
                    for f, y in h.incidence()[stack.pop()]:
                        if f != e and y not in side:
                            side.add(y)
                            stack.append(y)
                assert support not in side
                for f, (x, y) in enumerate(h.endpoints):
                    if x in side or y in side:
                        assert f in cm.pendant_support

    def test_core_is_3_edge_connected_on_random_inputs(self):
        rng = random.Random(27)
        produced = 0
        while produced < 40:
            h = random_essentially_3ec_multigraph(rng)
            try:
                cm = core(h)
            except DegenerateCoreError:
                continue
            produced += 1
            assert edge_connectivity(cm.core) >= 3

    def test_edge_accounting(self, k4_with_pendants, subdivided_k4):
        for h in (k4_with_pendants, subdivided_k4):
            cm = core(h)
            covered = len(cm.pendant_support) + sum(
                len(p) for p in cm.edge_expansion.values()
            )
            assert covered == h.edge_count


class TestLifting:
    def test_spanning_trail_lifts_to_dominating(self, k4_with_pendants):
        cm = core(k4_with_pendants)
        t = find_spanning_closed_trail(cm.core)
        lifted = lift_closed_trail(cm, t)
        assert lifted.is_closed
        assert vertices_dominate_edges(k4_with_pendants, lifted.vertex_set())

    def test_expansion_substitution(self, subdivided_k4):
        from hamconn.trails import find_closed_trail_through

        cm = core(subdivided_k4)
        expanded = next(ce for ce, p in cm.edge_expansion.items() if len(p) == 2)
        t = find_closed_trail_through(cm.core, range(cm.core.n), expanded)
        lifted = lift_closed_trail(cm, t)
        # the expanded edge contributes both subdivision edges
        assert len(lifted.edges) == len(t.edges) + 1
        assert set(cm.edge_expansion[expanded]) <= set(lifted.edges)
        assert lifted.dominates_host_edges()

    def test_trivial_trail_lift(self, k4_with_pendants):
        cm = core(k4_with_pendants)
        t = Trail(cm.core, (0,), ())
        lifted = lift_closed_trail(cm, t)
        assert lifted.edges == ()

    def test_open_trail_rejected(self, k4_with_pendants):
        cm = core(k4_with_pendants)
        t = Trail(cm.core, (0, 1), (0,))
        with pytest.raises(LiftFailedError):
            lift_closed_trail(cm, t)

    def test_trail_of_another_host_rejected(self, k4_with_pendants):
        cm = core(k4_with_pendants)
        t = Trail(cm.original, (0, 1, 2, 0), (0, 3, 1))
        with pytest.raises(LiftFailedError, match="does not live in this core"):
            lift_closed_trail(cm, t)

    def test_random_lifting_soundness(self):
        rng = random.Random(28)
        produced = 0
        while produced < 40:
            h = random_essentially_3ec_multigraph(rng)
            try:
                cm = core(h)
            except DegenerateCoreError:
                continue
            t = find_spanning_closed_trail(cm.core)
            if t is None:
                continue
            produced += 1
            lifted = lift_closed_trail(cm, t)
            assert lifted.is_closed
            assert vertices_dominate_edges(h, lifted.vertex_set())
