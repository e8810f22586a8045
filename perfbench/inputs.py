"""Seeded inputs for the benchmark workloads.

Everything here is plain stdlib data (edge lists, vertex tuples) and is
computed without the library, so a change to the library can neither move
the inputs nor make a wrong input look right.  The same seed always gives
the same inputs: ``random.Random`` seeded with a string hashes it with
SHA-512, independently of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import itertools
import random

Edges = list[tuple[int, int]]

# Graphs of the wagner/pendant sharpness family use this circulant; edges
# 0..7 are the 8-cycle and 8..11 the four diameters.
WAGNER_EDGES: Edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]

# pipeline-symmetric: (name, preimage edge list, pairs sampled per round).
# More pairs come from the two small graphs than from the two 15-vertex ones,
# so the median pair lies inside the L(K5) latency mode and the 90th
# percentile inside the 15-vertex mode instead of on a boundary between them.
SYMMETRIC_GRAPHS: list[tuple[str, Edges, int]] = [
    ("L(K5)", list(itertools.combinations(range(5), 2)), 12),
    ("L(K3,3)", [(i, j) for i in range(3) for j in range(3, 6)], 12),
    ("L(Petersen)",
     [(i, (i + 1) % 5) for i in range(5)]
     + [(i, i + 5) for i in range(5)]
     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 6),
    ("L(K6)", list(itertools.combinations(range(6), 2)), 6),
]

# pipeline-random: graphs per round and the edge count of every preimage H,
# which is the vertex count of every line graph L(H).
RANDOM_GRAPHS = 256
RANDOM_EDGES = 11


def line_graph_edges(h_edges: Edges) -> Edges:
    """Edges of L(H): vertex i is edge i of H; parallel edges are adjacent."""
    out = []
    for i, j in itertools.combinations(range(len(h_edges)), 2):
        if set(h_edges[i]) & set(h_edges[j]):
            out.append((i, j))
    return out


def adjacency_masks(n: int, edges: Edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _connected_within(masks: list[int], allowed: int) -> bool:
    if not allowed:
        return True
    comp = allowed & -allowed
    frontier = comp
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= masks[v]
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp == allowed


def is_3_connected(n: int, masks: list[int]) -> bool:
    """Brute force over every vertex set of size <= 2 (n <= ~20)."""
    if n < 4:
        return False
    full = (1 << n) - 1
    for size in (0, 1, 2):
        for cut in itertools.combinations(range(n), size):
            removed = sum(1 << v for v in cut)
            if not _connected_within(masks, full & ~removed):
                return False
    return True


def min_dominating_set(n: int, masks: list[int], limit: int = 3) -> tuple[int, ...] | None:
    """The lexicographically first minimum dominating set of size <= limit."""
    full = (1 << n) - 1
    closed = [masks[v] | 1 << v for v in range(n)]
    for size in range(1, limit + 1):
        for combo in itertools.combinations(range(n), size):
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered == full:
                return combo
    return None


def _random_preimage(rng: random.Random, pendants: int, support: int) -> Edges:
    """A loopless multigraph with min degree >= 3 on ``support`` vertices,
    plus ``pendants`` pendant edges, with exactly RANDOM_EDGES edges."""
    while True:
        edges = []
        for _ in range(RANDOM_EDGES - pendants):
            u, v = rng.sample(range(support), 2)
            edges.append((min(u, v), max(u, v)))
        degree = [0] * support
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if min(degree) >= 3:
            break
    for i, v in enumerate(rng.sample(range(support), pendants)):
        edges.append((v, support + i))
    return edges


def random_pipeline_graphs(seed: int) -> list[tuple[int, Edges, tuple[int, ...], list[tuple[int, int]]]]:
    """RANDOM_GRAPHS line graphs L(H) that are 3-connected with a dominating
    set of size <= 3, as (n, edges, dominating set, all vertex pairs).

    The pendant count (0-3) and the support size (4 or 5) cycle with the
    graph's index instead of being drawn, because they set much of the
    pipeline's cost; fixing their mix keeps seeds comparable.
    """
    rng = random.Random(f"pipeline-random/{seed}")
    out = []
    while len(out) < RANDOM_GRAPHS:
        i = len(out)
        h = _random_preimage(rng, pendants=i % 4, support=4 + i // 4 % 2)
        n = len(h)
        g_edges = line_graph_edges(h)
        masks = adjacency_masks(n, g_edges)
        if not is_3_connected(n, masks):
            continue
        dom = min_dominating_set(n, masks)
        if dom is None:
            continue
        out.append((n, g_edges, dom, list(itertools.combinations(range(n), 2))))
    return out


def symmetric_pipeline_graphs(seed: int) -> list[tuple[int, Edges, tuple[int, ...], list[tuple[int, int]]]]:
    """The four symmetric line graphs with their dominating sets and a seeded
    sample of vertex pairs, as (n, edges, dominating set, pairs)."""
    rng = random.Random(f"pipeline-symmetric/{seed}")
    out = []
    for name, h, count in SYMMETRIC_GRAPHS:
        n = len(h)
        g_edges = line_graph_edges(h)
        masks = adjacency_masks(n, g_edges)
        dom = min_dominating_set(n, masks)
        if dom is None:
            raise ValueError(f"{name} has no dominating set of size <= 3")
        # Half adjacent and half non-adjacent pairs: the two kinds take
        # different times, and a fixed mix keeps seeds comparable.
        adjacent, apart = [], []
        for u, v in itertools.combinations(range(n), 2):
            (adjacent if masks[u] >> v & 1 else apart).append((u, v))
        pairs = rng.sample(adjacent, count // 2) + rng.sample(apart, count - count // 2)
        out.append((n, g_edges, dom, pairs))
    return out


def wagner_pendant_preimage(pendants: int) -> tuple[int, Edges]:
    """H_p: the Wagner graph with ``pendants`` pendant edges at every vertex."""
    edges = list(WAGNER_EDGES)
    n = 8
    for v in range(8):
        for _ in range(pendants):
            edges.append((v, n))
            n += 1
    return n, edges
