import hashlib
import random

import pytest

from hamconn.corpus import (
    MAX_CLAW_FREE_VERTICES,
    MAX_ENUMERATION_VERTICES,
    graph_classes,
    labeled_counts,
    random_3_edge_connected_multigraph,
    random_essentially_3ec_multigraph,
)
from hamconn.errors import GraphError, LiftFailedError
from hamconn.invariants import edge_connectivity, find_claw, is_essentially_k_edge_connected
from hamconn.multigraph import SimpleGraph, find_isomorphism

from oracles import (
    connected_graphs_up_to_isomorphism,
    enumerate_labeled,
    enumerate_labeled_upto,
    enumerate_multigraph_corpus,
)


class TestEnumeration:
    def test_counts_small_n(self):
        assert sum(1 for _ in enumerate_labeled(3)) == 8
        assert sum(1 for _ in enumerate_labeled(4)) == 64

    def test_connected_count_matches_brute_force(self):
        import itertools

        import networkx as nx

        for n, expected in ((4, 38), (5, 728)):
            mine = sum(1 for g in enumerate_labeled(n) if g.is_connected())
            theirs = 0
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                G = nx.Graph()
                G.add_nodes_from(range(n))
                G.add_edges_from(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
                if nx.is_connected(G):
                    theirs += 1
            assert mine == theirs == expected

    def test_bound_enforced(self):
        with pytest.raises(GraphError):
            next(enumerate_labeled(MAX_ENUMERATION_VERTICES + 1))

    def test_upto_totals(self):
        assert sum(1 for _ in enumerate_labeled_upto(4)) == 1 + 2 + 8 + 64


class TestIsomorphismClasses:
    def test_connected_class_counts(self, connected_graphs_6):
        # 1, 1, 2, 6, 21, 112 connected graphs on 1..6 vertices up to isomorphism
        by_n = {}
        for g in connected_graphs_6:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

    def test_graph_class_counts_and_weights(self, graph_classes_7):
        # 1, 2, 4, 11, 34, 156, 1044 graphs on 1..7 vertices up to isomorphism
        # (1, 1, 2, 6, 21, 112, 853 connected), and each level's labeled
        # counts cover all 2^C(n,2) labeled graphs
        classes, connected, weights = {}, {}, {}
        for g, copies in graph_classes_7:
            classes[g.n] = classes.get(g.n, 0) + 1
            connected[g.n] = connected.get(g.n, 0) + g.is_connected()
            weights[g.n] = weights.get(g.n, 0) + copies
        assert classes == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
        assert connected == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        assert weights == {n: 1 << (n * (n - 1) // 2) for n in range(1, 8)}

    def test_graph_class_counts_match_labeled_scan(self):
        # each class's labeled count is the number of labeled graphs isomorphic to it
        from hamconn.multigraph import canonical_labeling, relabel

        def key(g):
            return relabel(g, canonical_labeling(g)).sorted_edge_multiset()

        for n in range(1, 6):
            scanned = {}
            for g in enumerate_labeled(n):
                scanned[key(g)] = scanned.get(key(g), 0) + 1
            assert {key(g): copies for g, copies in graph_classes(n) if g.n == n} == scanned

    def test_class_count_catches_a_labeling_that_merges_nothing(self, monkeypatch):
        # with the identity as canonical labeling every labeled graph is its
        # own class; the weights still add up, the class counts do not
        monkeypatch.setattr("hamconn.corpus.canonical_labeling", lambda g, **_: tuple(range(g.n)))
        with pytest.raises(LiftFailedError):
            list(graph_classes(4))

    def test_classes_match_the_unpruned_oracle(self):
        # canonical augmentation keeps every class of the unpruned
        # generation exactly once, with its labeled count; representatives
        # differ, so classes are matched by networkx isomorphism
        import networkx as nx

        from oracles import unpruned_graph_classes

        def nx_graph(n, endpoints):
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(endpoints)
            return graph

        unmatched: dict = {}  # (n, sorted degrees) -> [(networkx graph, count)]
        for n, endpoints, copies in unpruned_graph_classes(6):
            graph = nx_graph(n, endpoints)
            unmatched.setdefault((n, tuple(sorted(d for _, d in graph.degree()))), []).append((graph, copies))
        for g, copies in graph_classes(6):
            bucket = unmatched.get((g.n, tuple(sorted(g.degrees()))), [])
            graph = nx_graph(g.n, g.endpoints)
            matches = [i for i, (other, _) in enumerate(bucket) if nx.is_isomorphic(other, graph)]
            assert len(matches) == 1, g
            assert bucket.pop(matches[0])[1] == copies, g
        assert not any(unmatched.values())

    def test_one_labeling_per_orbit_of_the_full_group(self, monkeypatch):
        # the automorphisms found while labeling a class generate its whole
        # group, |Aut(G)| = n! / copies, which the orbits of neighbor sets
        # and of the new vertex need; a child is labeled only when another
        # vertex ties with the new one, or later as a parent
        from math import factorial

        from hamconn import corpus
        from hamconn.multigraph import canonical_labeling

        for g, copies in graph_classes(6):
            generators: list = []
            canonical_labeling(g, automorphisms=generators)
            edges = g.sorted_edge_multiset()
            for aut in generators:
                assert tuple(sorted(tuple(sorted((aut[u], aut[v]))) for u, v in g.endpoints)) == edges
            group = {tuple(range(g.n))}
            frontier = list(group)
            while frontier:
                perm = frontier.pop()
                for aut in generators:
                    product = tuple(aut[x] for x in perm)
                    if product not in group:
                        group.add(product)
                        frontier.append(product)
            assert len(group) == factorial(g.n) // copies, g

        labeled: dict[int, int] = {}

        def counting(g, **kwargs):
            labeled[g.n] = labeled.get(g.n, 0) + 1
            return canonical_labeling(g, **kwargs)

        monkeypatch.setattr(corpus, "canonical_labeling", counting)
        list(graph_classes(6))
        assert labeled == {2: 2, 3: 4, 4: 11, 5: 34, 6: 43}

    def test_no_automorphisms_is_caught(self, monkeypatch):
        # without the groups, orbits are single masks and single vertices:
        # classes are kept more than once and their counts come out wrong
        from hamconn.multigraph import canonical_labeling

        monkeypatch.setattr("hamconn.corpus.canonical_labeling", lambda g, **_: canonical_labeling(g))
        with pytest.raises(LiftFailedError):
            list(graph_classes(5))

    def test_the_top_level_labels_fewer_children_than_it_decides(self, monkeypatch):
        # every orbit that passes the claw test is accepted or rejected by
        # canonical deletion, most of them on invariants alone
        from hamconn import corpus

        labeled: dict[int, int] = {}
        decided: dict[int, int] = {}

        def counting_labeling(g, **kwargs):
            labeled[g.n] = labeled.get(g.n, 0) + 1
            return canonical_labeling(g, **kwargs)

        def counting_ties(tables, mask):
            child = len(tables[0]) + 1
            decided[child] = decided.get(child, 0) + 1
            return mask_ties(tables, mask)

        canonical_labeling, mask_ties = corpus.canonical_labeling, corpus._mask_ties
        monkeypatch.setattr(corpus, "canonical_labeling", counting_labeling)
        monkeypatch.setattr(corpus, "_mask_ties", counting_ties)
        for top, claw_free in ((6, False), (7, True)):
            labeled.clear()
            decided.clear()
            classes = sum(g.n == top for g, _ in graph_classes(top, claw_free=claw_free))
            assert labeled[top] < classes <= decided[top]

    def test_table_ties_match_the_child_scan(self):
        # every (parent, mask) pair past the degree test is decided from the
        # parent's tables as a scan of the child's own bitmasks decides it
        from hamconn.corpus import _mask_ties, _parent_tables

        from oracles import deletion_ties

        for top, claw_free, expected in ((6, False, 702), (7, True, 3399)):
            pairs = 0
            for parent, _ in graph_classes(top - 1, claw_free=claw_free):
                adjacency = parent.adjacency_masks()
                tables = _parent_tables(adjacency)
                new = parent.n
                for mask in range(1 << new):
                    if mask.bit_count() < max(tables[1]):
                        continue
                    child = [a | 1 << new if mask >> v & 1 else a for v, a in enumerate(adjacency)]
                    assert _mask_ties(tables, mask) == deletion_ties(child + [mask]), (parent, mask)
                    pairs += 1
            assert pairs == expected

    def test_twin_orbits_match_a_full_labeling(self, monkeypatch):
        # wherever a child is kept on its twin test alone, a labeling of the
        # child finds the new vertex's orbit to be exactly its ties, with
        # the canonical deletion vertex among them
        from hamconn import corpus
        from hamconn.corpus import _checked_labeling, _orbit

        from oracles import deletion_ties

        fired: list = []

        def recording(adjacency, others, mask):
            twins = twins_of_new(adjacency, others, mask)
            if twins:
                fired.append((adjacency, others, mask))
            return twins

        twins_of_new = corpus._twins_of_new
        monkeypatch.setattr(corpus, "_twins_of_new", recording)
        for top, claw_free, expected in ((7, False, 253), (8, True, 489)):
            fired.clear()
            list(graph_classes(top, claw_free=claw_free))
            for adjacency, others, mask in fired:
                new = len(adjacency)
                child = SimpleGraph(
                    new + 1,
                    [(u, v) for v in range(new) for u in range(v) if adjacency[v] >> u & 1]
                    + [(v, new) for v in range(new) if mask >> v & 1],
                )
                ties = others | 1 << new
                assert deletion_ties(list(child.adjacency_masks())) == ties, child
                perm, found = _checked_labeling(child)
                assert _orbit(found, new) == ties, child
                deletion = max((v for v in range(new + 1) if ties >> v & 1), key=perm.__getitem__)
                assert _orbit(found, new) >> deletion & 1, child
            assert len(fired) == expected

    def test_a_twin_test_that_passes_everything_is_caught(self, monkeypatch):
        # a tie that is no twin of the new vertex may lie outside its orbit;
        # keeping such a child unlabeled keeps a class twice
        monkeypatch.setattr("hamconn.corpus._twins_of_new", lambda adjacency, others, mask: True)
        with pytest.raises(LiftFailedError):
            list(graph_classes(6))

    def test_a_generator_that_is_no_automorphism_is_caught(self, monkeypatch):
        # swapping vertices 0 and 1 is not an automorphism of most graphs on
        # 3 vertices; an orbit closed under it would merge distinct children.
        # Maps that are no permutation of the vertices are refused before
        # any of their entries is used as a vertex or a shift.
        from hamconn.multigraph import canonical_labeling

        bad_maps = {
            "not an automorphism": lambda n: [1, 0] + list(range(2, n)),
            "repeated image": lambda n: [0] * n,
            "too short": lambda n: list(range(n - 1)),
            "too long": lambda n: list(range(n)) + [0],
            "entry above n - 1": lambda n: list(range(n - 1)) + [n],
            "negative entry": lambda n: [-1] + list(range(1, n)),
        }
        for kind, bad_map in bad_maps.items():

            def with_a_bad_generator(g, **kwargs):
                perm = canonical_labeling(g, **kwargs)
                if g.n >= 2:
                    kwargs["automorphisms"].append(bad_map(g.n))
                return perm

            monkeypatch.setattr("hamconn.corpus.canonical_labeling", with_a_bad_generator)
            with pytest.raises(LiftFailedError, match="not an automorphism"):
                list(graph_classes(4))

    def test_representatives_and_counts_are_pinned(self, graph_classes_8):
        # a moved representative or a reordered class would change the
        # witness files and the first failing pair that verify reports
        def digest(classes):
            sequence = [(g.n, g.endpoints, copies) for g, copies in classes]
            return hashlib.sha256(repr(sequence).encode()).hexdigest()

        assert digest(graph_classes_8) == (
            "7d21e0e05d66e9d8b83be87715e055e20878d7364046d6fe7bcdf6a770246e85"
        )
        assert digest(graph_classes(8, claw_free=True)) == (
            "afd78229d18343e6f73e31de1d5e976aff5a1c7b9ab60f92a7c37c8ca66b7ac1"
        )

    def test_graph_classes_bound_enforced(self):
        with pytest.raises(GraphError):
            next(graph_classes(MAX_ENUMERATION_VERTICES + 1))
        with pytest.raises(GraphError, match="claw-free enumeration bound capped at 10"):
            next(graph_classes(MAX_CLAW_FREE_VERTICES + 1, claw_free=True))

    def test_claw_free_classes_are_the_claw_free_subsequence(self, graph_classes_8):
        # claw-free parents keep their relative order, so every claw-free
        # class keeps its representative and labeled count
        mine = [(g.n, g.endpoints, copies) for g, copies in graph_classes(8, claw_free=True)]
        full = [(g.n, g.endpoints, copies) for g, copies in graph_classes_8 if find_claw(g) is None]
        assert mine == full
        per_n: dict[int, int] = {}
        for n, _, _ in mine:
            per_n[n] = per_n.get(n, 0) + 1
        assert per_n == {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 85, 7: 302, 8: 1285}

    def test_bitmask_claw_test_agrees_with_find_claw(self):
        # the weight sum cannot see a claw-free orbit wrongly rejected, so
        # every (claw-free parent, neighbor mask) pair up to 7 vertices is
        # checked against a claw search on the child
        from hamconn.corpus import _makes_claw

        pairs = 0
        for parent, _ in graph_classes(6, claw_free=True):
            adjacency = parent.adjacency_masks()
            new = parent.n
            for mask in range(1 << new):
                child = SimpleGraph(
                    new + 1, parent.endpoints + tuple((v, new) for v in range(new) if mask >> v & 1)
                )
                assert _makes_claw(adjacency, mask) == (find_claw(child) is not None), (child, mask)
                pairs += 1
        assert pairs == 6474

    def test_a_claw_test_that_rejects_nothing_is_caught(self, monkeypatch):
        monkeypatch.setattr("hamconn.corpus._makes_claw", lambda adjacency, mask: False)
        with pytest.raises(LiftFailedError, match="11 classes on 4 vertices, not 10"):
            list(graph_classes(4, claw_free=True))

    def test_closed_form_counts_match_the_class_weights(self, graph_classes_8):
        totals: dict[int, int] = {}
        connected: dict[int, int] = {}
        for g, copies in graph_classes_8:
            totals[g.n] = totals.get(g.n, 0) + copies
            connected[g.n] = connected.get(g.n, 0) + copies * g.is_connected()
        assert {n: labeled_counts(n) for n in range(1, 9)} == {
            n: (totals[n], connected[n]) for n in range(1, 9)
        }

    def test_claw_free_classes_fit_a_memory_budget(self):
        """``list(graph_classes(8, claw_free=True))`` holds under 2 MiB.

        The 1,715 classes take about 0.7 MiB on CPython 3.11, where each
        graph stores its edges once and shares its parent's edge tuples; a
        per-graph dict from edge to id brings it to 4 MiB.  Object sizes change between
        Python versions, hence a margin of almost 3x over the measured size;
        a new per-graph cache still breaks the budget before it reaches the
        ten-vertex census.
        """
        import gc
        import tracemalloc

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            classes = list(graph_classes(8, claw_free=True))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(classes) == 1715
        assert held < 2 << 20, f"{held // 1024} KiB held"

    def test_representatives_pairwise_nonisomorphic(self):
        reps = [g for g in connected_graphs_up_to_isomorphism(4)]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if reps[i].n == reps[j].n:
                    assert find_isomorphism(reps[i], reps[j]) is None


class TestMultigraphCorpus:
    def test_equivalence_corpus_size(self, equivalence_corpus):
        assert len(equivalence_corpus) == 4119

    def test_all_members_in_contract(self):
        seen = 0
        for h in enumerate_multigraph_corpus(max_vertices=4, min_edges=3, max_edges=6):
            seen += 1
            assert h.is_connected()
            assert 3 <= h.edge_count <= 6
            assert h.n <= 4
            assert not any(u == v for u, v in h.endpoints)
            assert all(h.endpoints.count(pair) <= 3 for pair in h.endpoints)
        assert seen > 50

    def test_contains_every_small_class(self):
        # spot-check: the triple edge, the triangle, and the theta graph all appear
        from hamconn.multigraph import Multigraph, isomorphic

        targets = [
            Multigraph(2, [(0, 1)] * 3),
            Multigraph(3, [(0, 1), (1, 2), (2, 0)]),
            Multigraph(2, [(0, 1)] * 2),  # only 2 edges: must NOT appear
        ]
        found = [False, False, False]
        for h in enumerate_multigraph_corpus(max_vertices=3, min_edges=3, max_edges=5):
            for i, t in enumerate(targets):
                if h.n == t.n and h.edge_count == t.edge_count and isomorphic(h, t):
                    found[i] = True
        assert found[0] and found[1] and not found[2]


class TestCorpusRecords:
    def test_read_graph6_file(self, tmp_path):
        from hamconn.corpus import read_corpus_file
        from hamconn.encoding import encode_graph6
        from hamconn.multigraph import complete_graph

        path = tmp_path / "c.g6"
        path.write_text(
            "# comment\n"
            + encode_graph6(complete_graph(3))
            + "\n\n"
            + encode_graph6(complete_graph(4))
            + "\n"
        )
        # the comment and the blank line are skipped
        assert read_corpus_file(str(path), "g6") == [complete_graph(3), complete_graph(4)]

    def test_error_carries_file_and_line(self, tmp_path):
        from hamconn.corpus import read_corpus_file
        from hamconn.encoding import EncodingError

        path = tmp_path / "bad.g6"
        path.write_text("@\n@@@@\n")
        with pytest.raises(EncodingError) as err:
            read_corpus_file(str(path), "g6")
        assert ":2:" in str(err.value)

    def test_unknown_format(self, tmp_path):
        from hamconn.corpus import read_corpus_file
        from hamconn.encoding import EncodingError

        path = tmp_path / "c.xml"
        path.write_text("<graph/>\n")
        with pytest.raises(EncodingError):
            read_corpus_file(str(path), "xml")


class TestRandomGenerators:
    def test_essentially_3ec(self):
        rng = random.Random(50)
        for _ in range(25):
            h = random_essentially_3ec_multigraph(rng)
            assert h.is_connected()
            assert is_essentially_k_edge_connected(h, 3)
            assert h.edge_count <= 12

    def test_3_edge_connected(self):
        rng = random.Random(51)
        for _ in range(25):
            h = random_3_edge_connected_multigraph(rng)
            assert edge_connectivity(h) >= 3
            assert h.edge_count <= 12

    @pytest.mark.parametrize(
        "make, max_vertices, max_edges",
        [
            ("random_multigraph", 8, 0),
            ("random_multigraph", 1, 12),
            ("random_essentially_3ec_multigraph", 7, 2),
            ("random_essentially_3ec_multigraph", 1, 12),
            ("random_3_edge_connected_multigraph", 8, 2),
            ("random_3_edge_connected_multigraph", 1, 12),
            ("random_connected_multigraph_with_loops", 6, 0),
            ("random_connected_multigraph_with_loops", 0, 12),
            ("random_multigraph", 8, 65),
            ("random_essentially_3ec_multigraph", 7, 65),
            ("random_3_edge_connected_multigraph", 8, 65),
            ("random_connected_multigraph_with_loops", 6, 65),
        ],
    )
    def test_unmeetable_bounds_rejected(self, make, max_vertices, max_edges):
        # rejection sampling would draw forever (or randint would fail), and
        # more than ISOMORPHISM_SIZE_GUARD edges give an H preimage refuses
        from hamconn import corpus

        with pytest.raises(GraphError):
            getattr(corpus, make)(random.Random(0), max_vertices=max_vertices, max_edges=max_edges)

    @pytest.mark.parametrize(
        "make, max_vertices, max_edges",
        [
            ("random_multigraph", 2, 1),
            ("random_essentially_3ec_multigraph", 2, 3),
            ("random_3_edge_connected_multigraph", 2, 3),
            ("random_connected_multigraph_with_loops", 1, 1),
            ("random_multigraph", 8, 64),
            ("random_connected_multigraph_with_loops", 6, 64),
        ],
    )
    def test_least_bounds_accepted(self, make, max_vertices, max_edges):
        from hamconn import corpus

        h = getattr(corpus, make)(random.Random(0), max_vertices=max_vertices, max_edges=max_edges)
        assert h.n <= max_vertices and 1 <= h.edge_count <= max_edges
