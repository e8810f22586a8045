import collections
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hamconn import linegraph, reduction, trails
from hamconn.constructions import wagner_counterexample
from hamconn.core import core, lift_walk
from hamconn.errors import (
    GraphError,
    LiftFailedError,
    NoCoreLocationError,
    NotALineGraphOfMultigraphError,
    NotEssentially3EdgeConnectedError,
)
from hamconn.invariants import DominatingSet, dominating_set, edge_connectivity
from hamconn.linegraph import line_graph
from hamconn.multigraph import Multigraph, SimpleGraph, complete_graph
from hamconn.reduction import (
    _idt_order,
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

from oracles import multigraph_with_twins, plain_missing_idt_pair


@pytest.fixture
def k4p_core(k4_with_pendants):
    return core(k4_with_pendants)


def _swapped_idt_order(witness):
    """``_idt_order`` with two middle entries swapped: still a permutation
    with the right ends, but it steps along a non-edge of L(H)."""
    order = _idt_order(witness)
    mid = len(order) // 2
    order[1], order[mid] = order[mid], order[1]
    return order


def _reversed_idt_order(witness):
    """``_idt_order`` backwards: a hamiltonian path of L(H) whose ends are
    swapped."""
    return _idt_order(witness)[::-1]


def _lift_dropping_an_edge(cm, vertices, edges):
    """``lift_walk`` with its middle edge and the vertex after it left out:
    the walk keeps its shape but no longer steps along its edges."""
    mv, me = lift_walk(cm, vertices, edges)
    i = len(me) // 2
    return mv[: i + 1] + mv[i + 2 :], me[:i] + me[i + 1 :]


def _lift_cut_short(cm, vertices, edges):
    """``lift_walk`` cut down to its first vertex: joined to the terminal
    pieces it can still be a trail, but one whose interior misses edges."""
    mv, _ = lift_walk(cm, vertices, edges)
    return mv[:1], ()


def _pipeline_on_k4_with_pendants(u, v):
    """``run_pipeline`` on L(H), H the ``k4_with_pendants`` fixture; it needs
    no fixture, so a child process can run it too."""
    h = Multigraph(
        8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)]
    )
    g = line_graph(h)
    return run_pipeline(g, u, v, dominating_set(g, 3))


# Each corruption of a pipeline step that ``run_pipeline`` must refuse with
# ``LiftFailedError``: (reduction attribute, replacement in this module,
# the refusal's message).  The lifted trails are refused inside
# ``_checked_idt``, the broken one by the ``Trail`` check and the short one
# by the IDT check; the orders by ``_check_ham_path``.
_PIPELINE_MUTATIONS = {
    "lift": ("lift_walk", "_lift_dropping_an_edge", "no orientation of the lifted trail"),
    "idt": ("lift_walk", "_lift_cut_short", "no orientation of the lifted trail"),
    "order": ("_idt_order", "_swapped_idt_order", "hamiltonian order steps along a non-edge"),
    "ends": ("_idt_order", "_reversed_idt_order", "path endpoints are wrong"),
}


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
        # edge 0 of K4 becomes the halves 0 and 6
        cm = core(complete_graph(4).subdivide(0))
        owner = project_edge(cm, 0)
        assert 0 in cm.edge_expansion[owner]
        assert project_edge(cm, 6) == owner

    def test_pendant_at_suppressed_support(self):
        # not essentially 3EC, which core leaves to its caller
        g = complete_graph(4).subdivide(0)
        h = Multigraph(g.n + 1, list(g.endpoints) + [(4, g.n)])
        cm = core(h)
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

    def test_support_stripped_too_has_no_core_location(self):
        # K4 plus the path 0-4-5: (4, 5) goes first, then (0, 4) with 4
        h = Multigraph(6, list(complete_graph(4).endpoints) + [(0, 4), (4, 5)])
        cm = core(h)
        assert cm.pendant_support == {7: 4, 6: 0}
        assert project_edge(cm, 6) == project_edge(cm, 0)
        with pytest.raises(NoCoreLocationError):
            project_edge(cm, 7)


class TestBuildHn:
    def test_equal_projections_reuse_core(self, k4p_core):
        h_n, e_n = build_hn(k4p_core, 2, 2)
        assert h_n == k4p_core.core and e_n == 2

    def test_distinct_projections(self, k4p_core):
        # subdividing two of K4's six edges gives 8, plus the joining edge: 9
        h_n, e_n = build_hn(k4p_core, 0, 5)
        assert h_n.n == 6 and h_n.edge_count == 9
        assert edge_connectivity(h_n) >= 3
        assert h_n.endpoints[e_n] == (4, 5)

    def test_adjacent_projections(self, k4p_core):
        h_n, _ = build_hn(k4p_core, 0, 1)
        assert h_n.n == 6 and h_n.edge_count == 9
        assert edge_connectivity(h_n) >= 3

    def test_graph_is_two_subdivisions_plus_joining_edge(self, k4p_core):
        c = k4p_core.core
        for a, b in itertools.permutations(range(c.edge_count), 2):
            h_n, e_n = build_hn(k4p_core, a, b)
            sub = c.subdivide(a).subdivide(b)
            assert h_n.n == c.n + 2
            assert h_n.endpoints == sub.endpoints + ((c.n, c.n + 1),)
            assert e_n == c.edge_count + 2


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
        witness = find_idt(h, 0, 2)
        path = idt_to_ham_path(line_graph(h), witness)
        assert path.vertices == (0, 1, 2)

    def test_triangle_with_pendant(self, triangle_with_pendant):
        witness = find_idt(triangle_with_pendant, 3, 1)
        path = idt_to_ham_path(line_graph(triangle_with_pendant), witness)
        assert len(path.vertices) == 4
        assert path.vertices[0] == 3 and path.vertices[-1] == 1

    def test_inserted_edge_lands_next_to_its_interior_vertex(self, k4_with_pendants):
        h = k4_with_pendants
        witness = find_idt(h, 6, 9)
        path = idt_to_ham_path(line_graph(h), witness)
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
        t = Trail(h, (0, 1, 2), (0, 1))
        with pytest.raises(GraphError):
            idt_to_ham_path(line_graph(h), IdtWitness(t, 0, 1))

    def test_witness_without_edges_is_refused(self):
        # idt_to_ham_path does not check the witness again; an edgeless
        # trail leaves every edge undominated, and _idt_order says so
        h = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(LiftFailedError, match="edge 0 is not dominated"):
            idt_to_ham_path(line_graph(h), IdtWitness(Trail(h, (1,), ()), 0, 2))

    def test_undominated_edge_is_named(self):
        # 0 -e0- 1 -e1- 2 -e2- 3 with e3 = (3, 4) and e4 = (4, 5) off the
        # trail: no interior vertex touches e4
        h = Multigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        witness = IdtWitness(Trail(h, (0, 1, 2, 3), (0, 1, 2)), 0, 2)
        with pytest.raises(LiftFailedError, match="edge 3 is not dominated"):
            _idt_order(witness)

    def test_orders_are_pinned(self):
        # sha256 over the order of every ordered pair with an IDT, on the
        # seeded corpus of the trail-engine pin (loops and parallel edges
        # included) and on H_1..H_3; the digest is that of the per-edge
        # insertion scan the bitmask pass replaced
        digest = hashlib.sha256()
        rng = random.Random(23)
        corpus = []
        for _ in range(400):
            n = rng.randint(1, 6)
            m = rng.randint(1, 9)
            corpus.append(Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]))
        corpus += [wagner_counterexample(p)[1] for p in (1, 2, 3)]
        count = 0
        for h in corpus:
            if h.edge_count < 3:
                continue
            for e1, e2 in itertools.permutations(range(h.edge_count), 2):
                witness = find_idt(h, e1, e2)
                if witness is not None:
                    digest.update(repr(tuple(_idt_order(witness))).encode())
                    count += 1
        assert count == 9510
        assert digest.hexdigest() == (
            "9b6c15c2afd350c2d289ab394870ccda54d28cc5823474cf429f9be9d9ddad8b"
        )


class TestMissingIdtPair:
    def test_agrees_with_the_line_graph_search(self, equivalence_corpus):
        for h in equivalence_corpus:
            g = line_graph(h)
            assert missing_idt_pair(g, h) == missing_hamiltonian_pair(g), h.endpoints

    def test_every_pair_before_the_answer_is_certified(self, monkeypatch):
        g, h = wagner_counterexample(1)
        orders = []
        check = reduction._check_ham_path

        def recording(g_, order, u, v):
            assert g_ is g
            orders.append(list(order))
            check(g_, order, u, v)

        monkeypatch.setattr(reduction, "_check_ham_path", recording)
        pair = missing_idt_pair(g, h)
        assert pair == (8, 10)
        before = [p for p in itertools.combinations(range(h.edge_count), 2) if p < pair]
        assert [(order[0], order[-1]) for order in orders] == before
        for order in orders:
            assert sorted(order) == list(range(g.n))
            assert all(g.has_edge(a, b) for a, b in zip(order, order[1:]))

    def test_twin_census_matches_the_plain_walk(self):
        # H_1..H_6 and seeded multigraphs with parallel edges and groups of
        # pendant edges: the census skips pairs of twin classes it has
        # already certified, the plain walk searches every pair
        for p in range(1, 7):
            g, h = wagner_counterexample(p)
            assert missing_idt_pair(g, h) == plain_missing_idt_pair(h) == (8, 10), p
        rng = random.Random(31)
        checked = 0
        while checked < 200:
            h = multigraph_with_twins(rng)
            if h.edge_count < 3:
                continue
            assert missing_idt_pair(line_graph(h), h) == plain_missing_idt_pair(h), h.endpoints
            checked += 1

    def test_twin_census_certifies_least_members_only(self, monkeypatch):
        # On H_2 the edges at a Wagner vertex's two leaves are twins in L(H);
        # each class pair is searched once, at its least pair
        g, h = wagner_counterexample(2)
        degrees = h.degrees()

        def twin_class(e):
            u, v = h.endpoints[e]
            return ("pendant", u) if degrees[v] == 1 else ("edge", u, v)

        expected, seen = [], set()
        for e1, e2 in itertools.combinations(range(h.edge_count), 2):
            key = frozenset((twin_class(e1), twin_class(e2)))
            if key not in seen:
                seen.add(key)
                expected.append((e1, e2))
        searched, certified = [], []
        search, check = reduction.find_idt, reduction._check_ham_path

        def recording_search(h_, e1, e2):
            searched.append((e1, e2))
            return search(h_, e1, e2)

        def recording_check(g_, order, u, v):
            certified.append((u, v))
            check(g_, order, u, v)

        monkeypatch.setattr(reduction, "find_idt", recording_search)
        monkeypatch.setattr(reduction, "_check_ham_path", recording_check)
        assert missing_idt_pair(g, h) == (8, 10)
        assert certified == [pair for pair in expected if pair < (8, 10)]
        assert len(certified) == 125
        assert searched == certified + [(8, 10)]

    def test_a_broken_order_is_refused(self, monkeypatch):
        monkeypatch.setattr(reduction, "_idt_order", _swapped_idt_order)
        with pytest.raises(LiftFailedError, match="non-edge"):
            missing_idt_pair(*wagner_counterexample(1))

    def test_a_broken_order_is_refused_under_dash_o(self):
        # python -O strips assert statements; the order check raises instead
        src = str(Path(reduction.__file__).resolve().parents[1])
        code = (
            "import sys, test_reduction\n"
            "from hamconn import reduction\n"
            "from hamconn.constructions import wagner_counterexample\n"
            "reduction._idt_order = test_reduction._swapped_idt_order\n"
            "print(sys.flags.optimize)\n"
            "reduction.missing_idt_pair(*wagner_counterexample(1))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout == "1\n"
        assert "LiftFailedError: hamiltonian order steps along a non-edge" in done.stderr

    def test_witness_from_another_host_is_refused(self, monkeypatch):
        g, h = wagner_counterexample(1)
        other = Multigraph(h.n + 1, list(h.endpoints) + [(0, h.n)])
        monkeypatch.setattr(reduction, "find_idt", lambda _, e1, e2: find_idt(other, e1, e2))
        with pytest.raises(LiftFailedError):
            missing_idt_pair(g, h)

    def test_line_graph_missing_an_adjacency_is_refused(self):
        # a negative answer rests on g being exactly L(H), so g is checked
        # against the shared endpoints before the census starts
        g, h = wagner_counterexample(1)
        with pytest.raises(LiftFailedError, match="adjacency"):
            missing_idt_pair(SimpleGraph(g.n, g.endpoints[1:]), h)

    def test_line_graph_of_another_size_is_refused(self):
        g, h = wagner_counterexample(1)
        with pytest.raises(LiftFailedError, match="one vertex per source edge"):
            missing_idt_pair(SimpleGraph(g.n + 1, g.endpoints), h)

    def test_too_few_edges_rejected(self):
        h = Multigraph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            missing_idt_pair(line_graph(h), h)


class TestCheckHamPath:
    def test_only_a_hamiltonian_u_v_path_passes(self, k4):
        order = hamiltonian_path(k4, 0, 3).vertices
        reduction._check_ham_path(k4, order, 0, 3)
        with pytest.raises(LiftFailedError, match="endpoints"):
            reduction._check_ham_path(k4, order[::-1], 0, 3)
        with pytest.raises(LiftFailedError, match="permutation"):
            reduction._check_ham_path(k4, (0, 3), 0, 3)
        with pytest.raises(LiftFailedError, match="non-edge"):
            reduction._check_ham_path(SimpleGraph(4, [(0, 1), (1, 2), (2, 3)]), (0, 2, 1, 3), 0, 3)


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
        self._check_all_pairs(line_graph(k4))

    def test_l_of_k4_with_pendants_all_pairs(self, k4_with_pendants):
        self._check_all_pairs(line_graph(k4_with_pendants))

    def test_l_of_subdivided_k4(self):
        g = line_graph(complete_graph(4).subdivide(0))
        self._check_all_pairs(g)

    def test_loop_core_cases(self):
        h = Multigraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 4)])
        self._check_all_pairs(line_graph(h))

    def test_complete_graphs_via_degenerate_fallback(self):
        for n in (4, 5, 6):
            kn = complete_graph(n)
            run = run_pipeline(kn, 0, n - 1, dominating_set(kn, 1))
            assert run.context is None
            assert len(run.path.vertices) == n

    def test_not_essentially_3ec(self):
        # K4 with edge (0, 1) replaced by the path 0-4-5-1: {(0, 4), (1, 5)}
        # is an essential 2-edge cut.  core decomposes H regardless; the
        # pipeline refuses it.
        h = Multigraph(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5), (1, 5)])
        core(h)
        g = line_graph(h)
        with pytest.raises(NotEssentially3EdgeConnectedError) as err:
            run_pipeline(g, 0, 1, dominating_set(g, 3))
        assert err.value.cut is not None

    def test_claw_rejected(self, claw):
        with pytest.raises(NotALineGraphOfMultigraphError):
            run_pipeline(claw, 0, 1, DominatingSet(frozenset({0}), claw))

    def test_same_endpoints_rejected(self, k4):
        g = line_graph(k4)
        with pytest.raises(GraphError):
            run_pipeline(g, 1, 1, dominating_set(g, 2))

    def test_non_dominating_set_rejected(self, k4):
        g = line_graph(k4)
        with pytest.raises(GraphError):
            run_pipeline(g, 0, 1, DominatingSet(frozenset({0}), g))

    def test_line_graph_built_once_inside_preimage(self, k4_with_pendants, monkeypatch):
        # preimage checks line_graph(H) == g, and the pipeline then uses g
        # itself as L(H), so no pair builds a second line graph
        g = line_graph(k4_with_pendants)
        kn = complete_graph(5)
        cases = [(g, 0, 9, dominating_set(g, 3)), (kn, 0, 4, dominating_set(kn, 1))]
        built = []

        def counting(h):
            built.append(h)
            return line_graph(h)

        monkeypatch.setattr(linegraph, "line_graph", counting)
        for host, u, v, d in cases:
            built.clear()
            run = run_pipeline(host, u, v, d)
            assert built == [run.idt.trail.host]

    def test_stage_artifacts_exposed(self, k4_with_pendants):
        g = line_graph(k4_with_pendants)
        d = dominating_set(g, 3)
        run = run_pipeline(g, 0, 9, d)
        ctx = run.context
        assert ctx is not None
        assert len(ctx.z) <= 6
        assert ctx.e_n in range(ctx.h_n.edge_count)
        run.idt.validate()

    def test_path_revalidates_independently(self, k4_with_pendants):
        g = line_graph(k4_with_pendants)
        d = dominating_set(g, 3)
        path = run_pipeline(g, 2, 7, d).path
        assert hamiltonian_path(g, 2, 7) is not None  # cross-check searcher agrees

    def test_interior_dominates_source_edges(self, k4_with_pendants):
        g = line_graph(k4_with_pendants)
        d = dominating_set(g, 3)
        for u, v in [(0, 1), (6, 9), (3, 8)]:
            run = run_pipeline(g, u, v, d)
            interior = frozenset(run.idt.trail.vertices[1:-1])
            for a, b in run.idt.trail.host.endpoints:
                assert a in interior or b in interior


class TestPipelineChecks:
    """Each artifact is checked once, and each check still refuses a
    corrupted artifact, also under ``python -O``."""

    def test_each_artifact_is_checked_once(self, k4_with_pendants, monkeypatch):
        counts = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Trail, "validate", counting("trail", Trail.validate))
        monkeypatch.setattr(IdtWitness, "validate", counting("idt", IdtWitness.validate))
        monkeypatch.setattr(trails, "_check_order", counting("order", trails._check_order))
        monkeypatch.setattr(reduction, "_check_order", counting("order", reduction._check_order))
        monkeypatch.setattr(reduction, "_checked_idt", counting("option", reduction._checked_idt))
        g = line_graph(k4_with_pendants)
        d = dominating_set(g, 3)
        seen = set()
        for u, v in itertools.combinations(range(g.n), 2):
            counts.clear()
            run_pipeline(g, u, v, d)
            # the closed trail of h_n, one trail per lift option tried, the path
            assert counts["trail"] == 2 + counts["option"], (u, v)
            assert counts["idt"] == counts["option"], (u, v)
            assert counts["order"] == 1, (u, v)
            seen.add(counts["trail"])
        assert min(seen) == 3

    @pytest.mark.parametrize("mutation", sorted(_PIPELINE_MUTATIONS))
    def test_a_corrupted_step_is_refused(self, mutation, monkeypatch):
        attr, name, message = _PIPELINE_MUTATIONS[mutation]
        monkeypatch.setattr(reduction, attr, globals()[name])
        for u, v in [(0, 9), (2, 7), (6, 9)]:
            with pytest.raises(LiftFailedError, match=message):
                _pipeline_on_k4_with_pendants(u, v)

    @pytest.mark.parametrize("mutation", sorted(_PIPELINE_MUTATIONS))
    def test_a_corrupted_step_is_refused_under_dash_o(self, mutation):
        # python -O strips assert statements; every check raises instead
        attr, name, message = _PIPELINE_MUTATIONS[mutation]
        src = str(Path(reduction.__file__).resolve().parents[1])
        code = (
            "import sys, test_reduction\n"
            "from hamconn import reduction\n"
            f"reduction.{attr} = test_reduction.{name}\n"
            "print(sys.flags.optimize)\n"
            "test_reduction._pipeline_on_k4_with_pendants(0, 9)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout == "1\n"
        assert f"hamconn.errors.LiftFailedError: {message}" in done.stderr


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
            g = line_graph(h)
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
