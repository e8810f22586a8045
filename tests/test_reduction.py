import itertools
import random

import pytest

from hamconn import reduction
from hamconn.constructions import wagner_counterexample
from hamconn.core import core
from hamconn.errors import GraphError, LiftFailedError, NotALineGraphOfMultigraphError
from hamconn.invariants import DominatingSet, dominating_set, edge_connectivity
from hamconn.linegraph import line_graph
from hamconn.multigraph import Multigraph, complete_graph
from hamconn.reduction import (
    build_hn,
    idt_to_ham_path,
    missing_idt_pair,
    pick_z,
    project_edge,
    run_pipeline,
)
from hamconn.trails import (
    IdtWitness,
    Trail,
    find_idt,
    hamiltonian_path,
    missing_hamiltonian_pair,
)


@pytest.fixture
def k4p_core(k4_with_pendants):
    return core(k4_with_pendants)


class TestProjectEdge:
    def test_surviving_edge_projects_to_itself(self, k4p_core):
        ce = project_edge(k4p_core, 0)
        assert k4p_core.edge_expansion[ce] == (0,)

    def test_pendant_projects_to_smallest_core_edge_at_support(self, k4p_core):
        # pendant (0, 4): support 0; smallest-id core edge at its image
        ce = project_edge(k4p_core, 6)
        origins = [k4p_core.core_vertex_origin[x] for x in k4p_core.core.endpoints[ce]]
        assert 0 in origins
        incident = [
            c
            for c in range(k4p_core.core.edge_count)
            if 0 in [k4p_core.core_vertex_origin[x] for x in k4p_core.core.endpoints[c]]
        ]
        assert ce == min(incident)

    def test_expansion_member_projects_to_owner(self):
        sub = complete_graph(4).subdivide(0)
        cm = core(sub.graph)
        owner = project_edge(cm, sub.first_edge)
        assert sub.first_edge in cm.edge_expansion[owner]
        assert project_edge(cm, sub.second_edge) == owner

    def test_pendant_at_suppressed_support(self):
        # needs check=False: the configuration is not essentially 3EC
        g = complete_graph(4).subdivide(0).graph
        h = Multigraph(g.n + 1, list(g.endpoints) + [(4, g.n)])
        cm = core(h, check=False)
        ce = project_edge(cm, h.edge_count - 1)
        assert 4 in cm.expansion_paths[ce]

    def test_loop_never_chosen_for_pendants(self):
        # core has a loop at the pendant's support vertex
        h = Multigraph(
            6,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 4), (0, 5)],
        )
        cm = core(h)
        ce = project_edge(cm, 8)  # pendant (0,5)
        assert not cm.core.is_loop(ce)


class TestBuildHn:
    def test_equal_projections_reuse_core(self, k4p_core):
        hn = build_hn(k4p_core, 2, 2)
        assert hn.graph == k4p_core.core and hn.e_n == 2
        assert not hn.subdivided

    def test_distinct_projections(self, k4p_core):
        # subdividing two of K4's six edges gives 8, plus the joining edge: 9
        hn = build_hn(k4p_core, 0, 5)
        assert hn.graph.n == 6 and hn.graph.edge_count == 9
        assert edge_connectivity(hn.graph) >= 3
        assert hn.graph.endpoints[hn.e_n] == (4, 5)

    def test_adjacent_projections(self, k4p_core):
        hn = build_hn(k4p_core, 0, 1)
        assert hn.graph.n == 6 and hn.graph.edge_count == 9
        assert edge_connectivity(hn.graph) >= 3

    def test_origin_map_covers_everything(self, k4p_core):
        hn = build_hn(k4p_core, 0, 5)
        assert set(hn.edge_origin) == set(range(hn.graph.edge_count))
        tags = [tag[0] for tag in hn.edge_origin.values()]
        assert tags.count("half") == 4 and tags.count("new") == 1


class TestPickZ:
    def test_disjoint_edges_give_up_to_six(self, k4p_core):
        assert len(pick_z(k4p_core, (0, 5))) == 4
        assert len(pick_z(k4p_core, (0,))) == 2

    def test_sharing_endpoints_gives_fewer(self, k4p_core):
        assert len(pick_z(k4p_core, (0, 1))) == 3

    def test_pendant_contributes_substitute_endpoints(self, k4p_core):
        z = pick_z(k4p_core, (6,))
        ce = project_edge(k4p_core, 6)
        assert z == frozenset(k4p_core.core.endpoints[ce])


class TestIdtToHamPath:
    def test_path_host(self):
        from hamconn.multigraph import path_graph

        h = path_graph(4)
        lgm = line_graph(h)
        witness = find_idt(h, 0, 2)
        path = idt_to_ham_path(lgm, witness)
        assert path.vertices == (0, 1, 2)

    def test_triangle_with_pendant(self, triangle_with_pendant):
        lgm = line_graph(triangle_with_pendant)
        witness = find_idt(triangle_with_pendant, 3, 1)
        path = idt_to_ham_path(lgm, witness)
        assert len(path.vertices) == 4
        assert path.vertices[0] == 3 and path.vertices[-1] == 1

    def test_inserted_edge_lands_next_to_its_interior_vertex(self, k4_with_pendants):
        h = k4_with_pendants
        lgm = line_graph(h)
        witness = find_idt(h, 6, 9)
        path = idt_to_ham_path(lgm, witness)
        on_trail = set(witness.trail.edges)
        position = {e: i for i, e in enumerate(path.vertices)}
        for f in range(h.edge_count):
            if f in on_trail:
                continue
            i = position[f]
            neighbors = set()
            if i > 0:
                neighbors.add(path.vertices[i - 1])
            if i + 1 < len(path.vertices):
                neighbors.add(path.vertices[i + 1])
            shared = set(h.endpoints[f])
            assert any(set(h.endpoints[e]) & shared for e in neighbors)

    def test_too_few_edges_rejected(self):
        h = Multigraph(3, [(0, 1), (1, 2)])
        lgm = line_graph(h)
        t = Trail(h, (0, 1, 2), (0, 1))
        with pytest.raises(GraphError):
            idt_to_ham_path(lgm, IdtWitness(t, 0, 1))


class TestMissingIdtPair:
    def test_agrees_with_the_line_graph_search(self, equivalence_corpus):
        for h in equivalence_corpus:
            lgm = line_graph(h)
            assert missing_idt_pair(lgm) == missing_hamiltonian_pair(lgm.target), h.endpoints

    def test_every_pair_before_the_answer_is_certified(self, monkeypatch):
        _, h = wagner_counterexample(1)
        lgm = line_graph(h)
        paths = []

        def recording(lgm_, witness):
            path = idt_to_ham_path(lgm_, witness)
            paths.append(path)
            return path

        monkeypatch.setattr(reduction, "idt_to_ham_path", recording)
        pair = missing_idt_pair(lgm)
        assert pair == (8, 10)
        before = [p for p in itertools.combinations(range(h.edge_count), 2) if p < pair]
        assert [(p.vertices[0], p.vertices[-1]) for p in paths] == before
        for path in paths:
            assert path.host == lgm.target
            assert sorted(path.vertices) == list(range(lgm.target.n))
            path.validate()

    def test_witness_from_another_host_is_refused(self, monkeypatch):
        _, h = wagner_counterexample(1)
        other = Multigraph(h.n + 1, list(h.endpoints) + [(0, h.n)])
        monkeypatch.setattr(reduction, "find_idt", lambda _, e1, e2: find_idt(other, e1, e2))
        with pytest.raises(LiftFailedError):
            missing_idt_pair(line_graph(h))

    def test_too_few_edges_rejected(self):
        with pytest.raises(GraphError):
            missing_idt_pair(line_graph(Multigraph(3, [(0, 1), (1, 2)])))


class TestCheckHamPath:
    def test_only_a_hamiltonian_u_v_path_passes(self, k4):
        path = hamiltonian_path(k4, 0, 3)
        reduction._check_ham_path(k4, path, 0, 3)
        with pytest.raises(LiftFailedError):
            reduction._check_ham_path(k4, path.reversed(), 0, 3)
        with pytest.raises(LiftFailedError):
            reduction._check_ham_path(k4, Trail(k4, (0, 3), (k4.edge_id(0, 3),)), 0, 3)


class TestPipeline:
    def _check_all_pairs(self, g, d=None):
        if d is None:
            d = dominating_set(g, 3)
        assert d is not None
        for u, v in itertools.combinations(range(g.n), 2):
            path = run_pipeline(g, u, v, d).path
            assert path.vertices[0] == u and path.vertices[-1] == v
            assert len(set(path.vertices)) == g.n
            for i in range(len(path.vertices) - 1):
                assert g.has_edge(path.vertices[i], path.vertices[i + 1])

    def test_octahedron_all_pairs(self, k4):
        self._check_all_pairs(line_graph(k4).target)

    def test_l_of_k4_with_pendants_all_pairs(self, k4_with_pendants):
        self._check_all_pairs(line_graph(k4_with_pendants).target)

    def test_l_of_subdivided_k4(self):
        g = line_graph(complete_graph(4).subdivide(0).graph).target
        self._check_all_pairs(g)

    def test_loop_core_cases(self):
        h = Multigraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 4)])
        self._check_all_pairs(line_graph(h).target)

    def test_complete_graphs_via_degenerate_fallback(self):
        for n in (4, 5, 6):
            kn = complete_graph(n)
            run = run_pipeline(kn, 0, n - 1, dominating_set(kn, 1))
            assert run.context is None
            assert len(run.path.vertices) == n

    def test_claw_rejected(self, claw):
        with pytest.raises(NotALineGraphOfMultigraphError):
            run_pipeline(claw, 0, 1, DominatingSet(frozenset({0}), claw))

    def test_same_endpoints_rejected(self, k4):
        g = line_graph(k4).target
        with pytest.raises(GraphError):
            run_pipeline(g, 1, 1, dominating_set(g, 2))

    def test_non_dominating_set_rejected(self, k4):
        g = line_graph(k4).target
        with pytest.raises(GraphError):
            run_pipeline(g, 0, 1, DominatingSet(frozenset({0}), g))

    def test_stage_artifacts_exposed(self, k4_with_pendants):
        g = line_graph(k4_with_pendants).target
        d = dominating_set(g, 3)
        run = run_pipeline(g, 0, 9, d)
        ctx = run.context
        assert ctx is not None
        assert len(ctx.z) <= 6
        assert ctx.e_n in range(ctx.h_n.edge_count)
        run.idt.validate()

    def test_path_revalidates_independently(self, k4_with_pendants):
        g = line_graph(k4_with_pendants).target
        d = dominating_set(g, 3)
        path = run_pipeline(g, 2, 7, d).path
        assert hamiltonian_path(g, 2, 7) is not None  # cross-check searcher agrees

    def test_interior_dominates_source_edges(self, k4_with_pendants):
        g = line_graph(k4_with_pendants).target
        d = dominating_set(g, 3)
        for u, v in [(0, 1), (6, 9), (3, 8)]:
            run = run_pipeline(g, u, v, d)
            interior = frozenset(run.idt.trail.vertices[1:-1])
            for a, b in run.source.endpoints:
                assert a in interior or b in interior


class TestPipelineRandomized:
    def test_random_line_graph_hosts(self):
        rng = random.Random(31)
        done = 0
        while done < 25:
            n = rng.randint(4, 6)
            extra = rng.randint(0, 3)
            edges = list(itertools.combinations(range(n), 2))
            base = [e for e in edges if rng.random() < 0.8]
            h = Multigraph(n + extra, base + [(rng.randrange(n), n + i) for i in range(extra)])
            if not h.is_connected() or h.edge_count < 4:
                continue
            g = line_graph(h).target
            from hamconn.invariants import is_k_connected

            if not is_k_connected(g, 3):
                continue
            d = dominating_set(g, 3)
            if d is None:
                continue
            done += 1
            pairs = list(itertools.combinations(range(g.n), 2))
            rng.shuffle(pairs)
            for u, v in pairs[:6]:
                path = run_pipeline(g, u, v, d).path
                assert len(set(path.vertices)) == g.n
