"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The random corpora use the fixed seeds recorded below.
"""

import itertools
import random
import time

from hamconn.constructions import petersen, wagner_counterexample
from hamconn.core import core, lift_closed_trail
from hamconn.corpus import (
    random_3_edge_connected_multigraph,
    random_connected_multigraph_with_loops,
    random_essentially_3ec_multigraph,
)
from hamconn.errors import DegenerateCoreError, LiftFailedError
from hamconn.harness import counterexample_report, verify_theorem_enumerated
from hamconn.invariants import (
    dominating_set,
    edge_connectivity,
    find_claw,
    is_k_connected,
    simplicial_vertices,
    vertices_dominate_edges,
)
from hamconn.linegraph import is_line_graph_of_multigraph, line_graph, preimage
from hamconn.multigraph import (
    Multigraph,
    complete_graph,
    isomorphic,
    star_graph,
)
from hamconn.reduction import run_pipeline
from hamconn.trails import (
    find_closed_trail_through,
    find_dct,
    find_idt,
    find_spanning_closed_trail,
    hamiltonian_path,
    is_hamiltonian,
)

SEED_COROLLARY = 20260806
SEED_PREIMAGE = 20260807
SEED_CORE = 20260808


def _report(number: int, detail: str, started: float) -> None:
    print(f"\n[criterion {number:2d}] PASS  ({time.time() - started:6.1f}s)  {detail}")


def test_criterion_01_sharpness_counterexample():
    started = time.time()
    report = counterexample_report(1)
    assert report.graph.n == 20
    assert report.claw_free is True
    assert report.connectivity >= 3
    assert report.domination == 4
    assert report.hamiltonian_connected is False
    assert report.failing_pair is not None
    u, v = report.failing_pair
    assert hamiltonian_path(report.graph, u, v) is None
    # the CLI command itself agrees
    from hamconn.cli import main

    assert main(["counterexample", "1"]) == 0
    assert time.time() - started <= 120
    _report(1, f"|V|=20, claw-free, kappa>=3, gamma=4, failing pair {report.failing_pair}", started)


def test_criterion_02_theorem_at_desk_scale():
    started = time.time()
    report = verify_theorem_enumerated(7, "thm1", workers=2)
    counts = dict(report.stage_counts)
    assert counts["total"] == 2131019
    assert report.passed, report.violations[:3]
    assert report.check_monotone()
    assert time.time() - started <= 900
    _report(2, f"0 violations over {counts['total']} labeled graphs (thm1)", started)


def test_criterion_03_ageev_at_desk_scale():
    started = time.time()
    report = verify_theorem_enumerated(7, "ageev", workers=2)
    counts = dict(report.stage_counts)
    assert counts["total"] == 2131019
    assert report.passed, report.violations[:3]
    assert report.check_monotone()
    assert time.time() - started <= 900
    _report(3, f"0 violations over {counts['total']} labeled graphs (ageev)", started)


def test_criterion_04_dct_equivalence(equivalence_corpus):
    started = time.time()
    corpus = equivalence_corpus
    for h in corpus:
        g = line_graph(h)
        assert is_hamiltonian(g) == (find_dct(h) is not None), h.endpoints
    assert time.time() - started <= 600
    _report(4, f"hamiltonian(L) <=> DCT over {len(corpus)} multigraphs, 0 exceptions", started)


def test_criterion_05_idt_equivalence(equivalence_corpus):
    started = time.time()
    corpus = equivalence_corpus
    pairs = 0
    for h in corpus:
        g = line_graph(h)
        for e1, e2 in itertools.permutations(range(h.edge_count), 2):
            pairs += 1
            ham = hamiltonian_path(g, e1, e2) is not None
            idt = find_idt(h, e1, e2) is not None
            assert ham == idt, (h.endpoints, e1, e2)
    assert time.time() - started <= 1800
    _report(5, f"ham-path(L) <=> IDT over {pairs} ordered pairs, 0 exceptions", started)


def test_criterion_06_corollary_trails():
    started = time.time()
    rng = random.Random(SEED_COROLLARY)
    searches = 0
    for _ in range(500):
        h = random_3_edge_connected_multigraph(rng, max_vertices=8, max_edges=12)
        vertices = list(range(h.n))
        for _ in range(50):
            a = rng.sample(vertices, min(len(vertices), rng.randint(0, 7)))
            for e in range(h.edge_count):
                assert find_closed_trail_through(h, a, e) is not None, (h.endpoints, a, e)
                searches += 1
    _report(6, f"closed trail found in all {searches} (graph, A, e) instances", started)


def test_criterion_07_petersen_dichotomy():
    started = time.time()
    p = petersen()
    found = 0
    for e in range(p.edge_count):
        x, y = p.endpoints[e]
        a = [w for w in range(p.n) if w not in (x, y)]
        assert find_closed_trail_through(p, a, e) is None
        # the obstruction is exactly V(P) - {x, y}: dropping any one vertex
        # of it leaves a set that a closed trail through e does visit
        for smaller in itertools.combinations(a, len(a) - 1):
            assert find_closed_trail_through(p, smaller, e) is not None, (e, smaller)
            found += 1
    assert time.time() - started <= 60
    _report(
        7, f"15/15 edges: trail absent for V(P) - {{x, y}}, found for all {found} 7-subsets", started
    )


def _pendant_edges(h: Multigraph) -> frozenset[int]:
    deg = h.degrees()
    return frozenset(
        e for e, (u, v) in enumerate(h.endpoints) if deg[u] == 1 or deg[v] == 1
    )


def test_criterion_08_preimage_correctness():
    started = time.time()
    rng = random.Random(SEED_PREIMAGE)
    done = 0
    while done < 1000:
        h = random_connected_multigraph_with_loops(rng, max_vertices=6, max_edges=12)
        if not h.edge_count:
            continue
        g = line_graph(h)
        done += 1
        back = preimage(g)
        assert line_graph(back) == g
        assert _pendant_edges(back) == simplicial_vertices(g)
    # fixtures
    assert isomorphic(preimage(complete_graph(3)), star_graph(3))
    p = petersen()
    assert isomorphic(preimage(line_graph(p)), p)
    g_cex, h_cex = wagner_counterexample(1)
    assert isomorphic(preimage(g_cex), h_cex)
    _report(8, "roundtrip + simplicial<->pendant on 1000 random multigraphs + 3 fixtures", started)


def test_criterion_09_pipeline_completeness(graph_classes_7):
    started = time.time()
    hypothesis = [
        g
        for g, _ in graph_classes_7
        if g.is_connected()
        and find_claw(g) is None
        and is_k_connected(g, 3)
        and dominating_set(g, 3) is not None
    ]
    assert len(hypothesis) == 77
    reps = [g for g in hypothesis if is_line_graph_of_multigraph(g)]
    assert len(reps) == 46
    assert sum(g.n * (g.n - 1) // 2 for g in reps) == 858
    extras = [
        line_graph(complete_graph(4)),
        line_graph(
            Multigraph(
                8,
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)],
            )
        ),
    ]
    lift_failures = 0
    runs = 0
    for g in reps + extras:
        d = dominating_set(g, 3)
        assert d is not None
        for u, v in itertools.combinations(range(g.n), 2):
            runs += 1
            try:
                path = run_pipeline(g, u, v, d).path
            except LiftFailedError:
                lift_failures += 1
                raise
            assert path.vertices[0] == u and path.vertices[-1] == v
            assert len(set(path.vertices)) == g.n
            for i in range(len(path.vertices) - 1):
                assert g.has_edge(path.vertices[i], path.vertices[i + 1])
    assert lift_failures == 0
    _report(
        9,
        f"pipeline succeeded on all {runs} pairs over {len(reps)} hypothesis classes "
        f"(+ 2 fixtures), 0 LiftFailed",
        started,
    )


def test_criterion_10_core_properties():
    started = time.time()
    rng = random.Random(SEED_CORE)
    done = 0
    lifted = 0
    while done < 500:
        h = random_essentially_3ec_multigraph(rng, max_vertices=7, max_edges=12)
        try:
            cm = core(h)
        except DegenerateCoreError:
            continue
        done += 1
        assert edge_connectivity(cm.core) >= 3
        trail = find_spanning_closed_trail(cm.core)
        if trail is not None:
            lifted += 1
            dct = lift_closed_trail(cm, trail)
            assert dct.is_closed
            assert vertices_dominate_edges(h, dct.vertex_set())
    _report(
        10,
        f"500 cores 3-edge-connected; {lifted} spanning trails lifted to DCTs",
        started,
    )
