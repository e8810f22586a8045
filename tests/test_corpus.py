import random

import pytest

from hamconn.corpus import (
    MAX_CLAW_FREE_VERTICES,
    MAX_ENUMERATION_VERTICES,
    connected_graphs_up_to_isomorphism,
    enumerate_multigraph_corpus,
    graph_classes,
    labeled_counts,
    random_3_edge_connected_multigraph,
    random_essentially_3ec_multigraph,
)
from hamconn.errors import GraphError, LiftFailedError
from hamconn.invariants import edge_connectivity, find_claw, is_essentially_k_edge_connected
from hamconn.multigraph import SimpleGraph, find_isomorphism

from oracles import enumerate_labeled, enumerate_labeled_upto


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
        # orbit pruning keeps every representative and labeled count
        from oracles import unpruned_graph_classes

        mine = [(g.n, g.endpoints, copies) for g, copies in graph_classes(6)]
        assert mine == unpruned_graph_classes(6)

    def test_one_labeling_per_orbit_of_the_full_group(self, monkeypatch):
        # the automorphisms found while labeling a class generate its whole
        # group, |Aut(G)| = n! / copies, so level n labels one neighbor set
        # per orbit: A000666(n - 1) graphs
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
        assert labeled == {2: 2, 3: 6, 4: 20, 5: 90, 6: 544}

    def test_a_generator_that_is_no_automorphism_is_caught(self, monkeypatch):
        # swapping vertices 0 and 1 is not an automorphism of most graphs on
        # 3 vertices; an orbit closed under it would merge distinct children
        from hamconn.multigraph import canonical_labeling

        def with_a_bad_generator(g, **kwargs):
            perm = canonical_labeling(g, **kwargs)
            if g.n >= 2:
                kwargs["automorphisms"].append([1, 0] + list(range(2, g.n)))
            return perm

        monkeypatch.setattr("hamconn.corpus.canonical_labeling", with_a_bad_generator)
        with pytest.raises(LiftFailedError, match="not an automorphism"):
            list(graph_classes(4))

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
            assert all(h.multiplicity(u, v) <= 3 for u, v in h.endpoints)
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
        records = read_corpus_file(str(path), "g6")
        assert [r.graph.n for r in records] == [3, 4]
        assert records[0].origin == (str(path), 2)
        assert records[1].origin == (str(path), 4)

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
