"""Immutable multigraph / simple graph model.

Vertices are the dense integers ``0..n-1`` and edges carry dense integer ids
``0..m-1``: an edge's id is its position in ``endpoints``, which stores each
edge once, and normalized edge tuples are shared between graphs, never
copied.  Parallel edges get distinct ids and loops are allowed (a loop
contributes 2 to the degree of its vertex).  All graphs are immutable after
construction: the one editing operation, :meth:`Multigraph.subdivide`,
returns a new graph that keeps every edge id (the subdivided edge's id goes
to its half at the smaller end), so callers can track any edge through the
edit.

Reachability has two walks.  :func:`_bit_component` is vertex-restricted: it
grows a component over the neighbor bitmasks of ``adjacency_masks()`` inside
an allowed vertex set.  :func:`_edge_component` is edge-restricted: it walks
``incidence()`` while avoiding a blocked edge mask; its one caller is the
component count behind the essential edge cuts in ``invariants``.
``edge_masks()`` holds each vertex's incident edges as a bitmask, for the
edge-set questions asked next to the walk; ``parallel_masks()`` and
``loop_mask()`` hold each edge's parallel copies and the loops, so every
trail search on one host starts from these tables instead of rebuilding
them.  Each table is filled on first use and kept in one slot.

Isomorphism has one engine, :func:`canonical_labeling`: individualization
and refinement on vertex bitmasks with automorphism pruning, which shortcuts
sets of twin vertices.  The automorphisms its search finds are handed to
callers that ask, so ``corpus`` gets each parent's group for free.
:func:`find_isomorphism` compares canonical forms.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .errors import GraphError, LiftFailedError, UnknownEdgeError, UnknownVertexError

#: Vertex cap for canonical labeling and the isomorphism tests built
#: on it, and so for ``preimage``.  The search is exponential in the worst
#: case, but at 64 vertices it measured at most 70 ms on large symmetric
#: inputs (L(K8,8), L(K11), Q6, Paley(61), C64, K64).
ISOMORPHISM_SIZE_GUARD = 64


def _bit_component(masks: Sequence[int], seed: int, allowed: int) -> int:
    """The vertices of ``allowed`` reachable from ``seed`` inside ``allowed``,
    as a bitmask; ``masks`` are per-vertex neighbor bitmasks."""
    comp = seed & allowed
    frontier = comp
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= masks[v]
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def _edge_component(inc: Sequence[Sequence[tuple[int, int]]], v: int, blocked: int) -> int:
    """The vertices reachable from ``v`` along edges outside the edge mask
    ``blocked``, as a bitmask; ``inc`` is ``Multigraph.incidence()``."""
    comp = 1 << v
    stack = [v]
    while stack:
        for e, w in inc[stack.pop()]:
            if not (blocked >> e & 1 or comp >> w & 1):
                comp |= 1 << w
                stack.append(w)
    return comp


class Multigraph:
    """Undirected multigraph on vertices ``0..n-1``.

    Edge ``i`` joins the unordered pair ``endpoints[i]``; pairs are stored
    normalized with the smaller vertex first.
    """

    __slots__ = (
        "n", "endpoints", "_incidence", "_degrees", "_adjacency", "_edge_masks",
        "_parallel", "_loops",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        normalized = []
        for edge in edges:
            u, v = edge
            if not (0 <= u < n) or not (0 <= v < n):
                raise UnknownVertexError(f"edge ({u}, {v}) leaves vertex range 0..{n - 1}")
            normalized.append(edge if type(edge) is tuple and u <= v else (min(u, v), max(u, v)))
        self.n = n
        self.endpoints: tuple[tuple[int, int], ...] = tuple(normalized)
        self._incidence: Optional[tuple] = None
        self._degrees: Optional[tuple[int, ...]] = None
        self._adjacency: Optional[tuple[int, ...]] = None
        self._edge_masks: Optional[tuple[int, ...]] = None
        self._parallel: Optional[tuple[int, ...]] = None
        self._loops: Optional[int] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.endpoints)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise UnknownVertexError(f"vertex {v} not in 0..{self.n - 1}")

    def check_edge(self, e: int) -> None:
        if not (0 <= e < len(self.endpoints)):
            raise UnknownEdgeError(f"edge {e} not in 0..{len(self.endpoints) - 1}")

    def is_loop(self, e: int) -> bool:
        self.check_edge(e)
        u, v = self.endpoints[e]
        return u == v

    def other_end(self, e: int, v: int) -> int:
        """The endpoint of ``e`` opposite ``v`` (``v`` itself for a loop)."""
        a, b = self.endpoints[e]
        if v == a:
            return b
        if v == b:
            return a
        raise UnknownVertexError(f"vertex {v} is not an endpoint of edge {e}")

    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of ``(edge_id, other_endpoint)``; loops listed once."""
        if self._incidence is None:
            inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for e, (u, v) in enumerate(self.endpoints):
                inc[u].append((e, v))
                if u != v:
                    inc[v].append((e, u))
            self._incidence = tuple(tuple(entries) for entries in inc)
        return self._incidence

    def degree(self, v: int) -> int:
        """Number of edge endpoints at ``v``; a loop contributes 2."""
        self.check_vertex(v)
        return self.degrees()[v]

    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            deg = [0] * self.n
            for u, v in self.endpoints:
                deg[u] += 1
                deg[v] += 1
            self._degrees = tuple(deg)
        return self._degrees

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmasks of distinct neighbors; loops are ignored."""
        if self._adjacency is None:
            masks = [0] * self.n
            for u, v in self.endpoints:
                if u != v:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            self._adjacency = tuple(masks)
        return self._adjacency

    def edge_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmasks of incident edge ids; loops are included."""
        if self._edge_masks is None:
            masks = [0] * self.n
            for e, (u, v) in enumerate(self.endpoints):
                masks[u] |= 1 << e
                masks[v] |= 1 << e
            self._edge_masks = tuple(masks)
        return self._edge_masks

    def parallel_masks(self) -> tuple[int, ...]:
        """Per-edge bitmasks of the non-loop edges with the same endpoints,
        the edge itself included; 0 for a loop."""
        if self._parallel is None:
            by_pair: dict[tuple[int, int], int] = {}
            for e, (u, v) in enumerate(self.endpoints):
                if u != v:
                    by_pair[u, v] = by_pair.get((u, v), 0) | 1 << e
            self._parallel = tuple(by_pair.get(pair, 0) for pair in self.endpoints)
        return self._parallel

    def loop_mask(self) -> int:
        """The bitmask of loop edge ids."""
        if self._loops is None:
            self._loops = sum(1 << e for e, (u, v) in enumerate(self.endpoints) if u == v)
        return self._loops

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Distinct neighbors of ``v`` through non-loop edges, ascending."""
        self.check_vertex(v)
        return tuple(sorted({w for _, w in self.incidence()[v] if w != v}))

    # -- structural queries ------------------------------------------------

    def is_connected(self) -> bool:
        """Reachability over non-loop edges; the empty graph counts as connected."""
        full = (1 << self.n) - 1
        return _bit_component(self.adjacency_masks(), 1, full) == full

    # -- editing -----------------------------------------------------------

    def subdivide(self, e: int) -> "Multigraph":
        """Replace edge ``e`` by a path of two edges through a new vertex.

        The new vertex is ``n``.  Edge ``e`` becomes the half at its smaller
        end, the half at the other end is appended as edge ``m``, and every
        other edge keeps its id.  Subdividing a loop yields two parallel
        edges between the loop vertex and the new vertex.
        """
        self.check_edge(e)
        u, v = self.endpoints[e]
        edges = [*self.endpoints, (v, self.n)]
        edges[e] = (u, self.n)
        return Multigraph(self.n + 1, edges)

    # -- equality / hashing (labeled, structural) ---------------------------

    def sorted_edge_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.endpoints))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self.sorted_edge_multiset() == other.sorted_edge_multiset()

    def __hash__(self) -> int:
        return hash((self.n, self.sorted_edge_multiset()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={list(self.endpoints)!r})"


class SimpleGraph(Multigraph):
    """Loop-free multigraph without parallel edges.  The id of edge ``(u, v)``,
    ``u < v``, is its position in ``endpoints``; a normalized input tuple is
    shared, not copied.  Construction fills the ``adjacency_masks()`` cache."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        super().__init__(n, edges)
        masks = [0] * n
        for u, v in self.endpoints:
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed in a simple graph")
            if masks[u] >> v & 1:
                raise GraphError(f"parallel edge ({u}, {v}) not allowed in a simple graph")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._adjacency = tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.adjacency_masks()[u] >> v & 1)

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2


# -- isomorphism --------------------------------------------------------------


def _mask_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _root(g: Multigraph) -> tuple[Sequence[int], int, list[int]]:
    """Where a search of ``g`` starts: ``adj[v]`` with bit ``k * n + w`` set
    when more than ``k`` edges join ``v`` and ``w``, ``rep`` with bit
    ``k * n`` per layer ``k``, and the refined cells of equal loop count."""
    n, rep = g.n, 1
    if isinstance(g, SimpleGraph):
        adj, cells = g.adjacency_masks(), [(1 << n) - 1] if n else []
    else:
        rows, loops = [0] * n, [0] * n
        for u, v in g.endpoints:
            if u == v:
                loops[u] += 1
                continue
            shift = 0
            while rows[u] >> shift + v & 1:
                shift += n
            rows[u] |= 1 << shift + v
            rows[v] |= 1 << shift + u
        adj, rep = tuple(rows), sum(1 << k for k in range(0, max(rows, default=0).bit_length(), n or 1)) or 1
        cells = [sum(1 << v for v in range(n) if loops[v] == k) for k in sorted(set(loops))]
    return adj, rep, _refine(adj, rep, cells, list(cells))


def _refine(adj: Sequence[int], rep: int, cells: list[int], queue: list[int]) -> list[int]:
    """The equitable refinement of an ordered partition into vertex masks.
    Each splitter off the FIFO ``queue`` splits every cell in place into
    parts of equal edge count into it, ascending; a split cell's parts are
    queued, but for the first largest if the cell was not queued itself."""
    n, pending = len(adj), set(queue)
    for s in queue:
        if s not in pending:
            continue
        pending.remove(s)
        single = rep == 1 and not s & (s - 1)
        nb, s, out = adj[s.bit_length() - 1], s * rep, []
        for c in cells:
            if single:
                inner = c & nb
                if not inner or inner == c:
                    out.append(c)
                    continue
                parts = [c ^ inner, inner]
            else:
                by_count: dict[int, int] = {}
                rest = c if c & (c - 1) else 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    k = (adj[low.bit_length() - 1] & s).bit_count()
                    by_count[k] = by_count.get(k, 0) | low
                if len(by_count) < 2:
                    out.append(c)
                    continue
                parts = [by_count[k] for k in sorted(by_count)]
            out += parts
            if c in pending:
                pending.remove(c)
            else:
                parts.remove(max(parts, key=int.bit_count))
            queue += parts
            pending.update(parts)
        cells = out
        if len(cells) == n:
            break
    return cells


def _relabeled(adj: Sequence[int], rep: int, perm: Sequence[int]) -> tuple[int, ...]:
    """The masks of ``_root`` relabeled by ``perm``, row ``perm[v]`` for
    vertex ``v``: a search leaf's code, and the class key in ``corpus``."""
    n = len(perm)
    bits = [1 << shift + p for shift in range(0, rep.bit_length(), n) for p in perm]
    code = [0] * n
    for v, mask in enumerate(adj):
        row = 0
        while mask:
            low = mask & -mask
            row |= bits[low.bit_length() - 1]
            mask ^= low
        code[perm[v]] = row
    return tuple(code)


def canonical_labeling(g: Multigraph, *, automorphisms: Optional[list] = None) -> tuple[int, ...]:
    """A relabeling permutation depending only on the isomorphism class:
    ``relabel(a, canonical_labeling(a)) == relabel(b, canonical_labeling(b))``
    whenever ``a`` and ``b`` are isomorphic.

    Individualization-refinement with automorphism pruning (McKay & Piperno,
    "Practical graph isomorphism, II", 2014) on vertex bitmasks.  A node is
    an ordered partition into cell masks, made equitable by :func:`_refine`;
    it branches on its first smallest cell that is not a set of twins (equal
    multiplicity to every other vertex), individualizing each member ``v``
    as a cell ``{v}`` ahead of the rest, with only ``{v}`` queued.  A leaf's
    vertices in cell order give the permutation and :func:`_relabeled` the
    code; the least code wins.  When ``automorphisms`` is a list, the twin
    swaps and the maps between leaves with equal codes that pruned the
    search are appended to it, each mapping ``v`` to its image.
    """
    if g.n > ISOMORPHISM_SIZE_GUARD:
        raise GraphError(f"canonical labeling capped at {ISOMORPHISM_SIZE_GUARD} vertices")
    if g.n == 0:
        return ()
    perm, auts = _labeling(*_root(g))
    if automorphisms is not None:
        automorphisms.extend(auts)
    return perm


def _labeling(adj: Sequence[int], rep: int, root: list[int]) -> tuple[tuple[int, ...], list[list[int]]]:
    """The search behind ``canonical_labeling``, from ``_root``: the
    permutation and the automorphisms found on the way."""
    n = len(adj)
    # Twins are swapped by an automorphism, so they share a root cell;
    # twin[v] is the mask of v's twin class, and the swaps seed the pruning.
    twin = [1 << v for v in range(n)]
    auts: list[list[int]] = []
    for c in root if len(root) < n else ():
        while c & (c - 1):
            v = (c & -c).bit_length() - 1
            c ^= 1 << v
            for w in _mask_vertices(c):
                if adj[v] & ~(rep << w) == adj[w] & ~(rep << v):
                    twin[v] |= 1 << w
                    auts.append([w if x == v else v if x == w else x for x in range(n)])
            for w in _mask_vertices(twin[v] & c):
                twin[w] = twin[v]
            c &= ~twin[v]
    best: list = []

    def search(cells: list[int], path: list[int]) -> int:
        """Explore one node; return the depth at which the search resumes."""
        depth, target = len(path), 0
        for c in cells if len(cells) < n else ():
            if c & ~twin[(c & -c).bit_length() - 1] and (
                not target or c.bit_count() < target.bit_count()
            ):
                target = c
        if not target:
            # Every order of the remaining twin classes gives the same code.
            order = [c.bit_length() - 1 for c in cells] if len(cells) == n else []
            for c in cells if not order else ():
                order += _mask_vertices(c)
            perm = [0] * n
            for position, v in enumerate(order):
                perm[v] = position
            if not best:
                best[:] = None, perm, order, path
                return depth
            # The map onto the best leaf is an automorphism exactly when the
            # codes are equal, so codes are computed only when it is not.
            aut = [best[2][p] for p in perm]
            if _relabeled(adj, rep, aut) != adj:
                best[0] = best[0] or _relabeled(adj, rep, best[1])
                code = _relabeled(adj, rep, perm)
                if code < best[0]:
                    best[:] = code, perm, order, path
                return depth
            # It maps this branch below the common ancestor onto the explored
            # branch of the best leaf, so the search resumes there.
            auts.append(aut)
            common = 0
            while path[common] == best[3][common]:
                common += 1
            return common
        # Children in one orbit of the automorphisms found so far that fix
        # the path pointwise have subtrees with the same codes.
        at, explored = cells.index(target), 0
        for v in _mask_vertices(target):
            if explored >> v & 1:
                continue
            child = cells[:at] + [1 << v, target ^ 1 << v] + cells[at + 1 :]
            resume = search(_refine(adj, rep, child, [1 << v]), path + [v])
            if resume < depth:
                return resume
            explored |= 1 << v
            fixing = [aut for aut in auts if all(aut[p] == p for p in path)]
            stack = _mask_vertices(explored) if fixing else []
            while stack:
                x = stack.pop()
                for aut in fixing:
                    if not explored >> aut[x] & 1:
                        explored |= 1 << aut[x]
                        stack.append(aut[x])
        return depth

    search(root, [])
    return tuple(best[1]), auts


def find_isomorphism(a: Multigraph, b: Multigraph) -> Optional[tuple[int, ...]]:
    """A degree- and multiplicity-preserving vertex bijection, or ``None``.

    Compares the canonical forms of ``a`` and ``b``; intended for desk-scale
    graphs only, hence the size guard.
    """
    if a.n > ISOMORPHISM_SIZE_GUARD or b.n > ISOMORPHISM_SIZE_GUARD:
        raise GraphError(f"isomorphism search capped at {ISOMORPHISM_SIZE_GUARD} vertices")
    if a.n != b.n or a.edge_count != b.edge_count:
        return None
    perm_a, perm_b = canonical_labeling(a), canonical_labeling(b)
    if relabel(a, perm_a) != relabel(b, perm_b):
        return None
    inv_b = sorted(range(b.n), key=perm_b.__getitem__)
    result = tuple(inv_b[perm_a[v]] for v in range(a.n))
    if not _is_isomorphism(a, b, result):
        raise LiftFailedError("isomorphism search returned a non-isomorphism")
    return result


def _is_isomorphism(a: Multigraph, b: Multigraph, mapping: Sequence[int]) -> bool:
    if sorted(mapping) != list(range(b.n)):
        return False
    mapped = sorted(
        (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in a.endpoints
    )
    return tuple(mapped) == b.sorted_edge_multiset()


def isomorphic(a: Multigraph, b: Multigraph) -> bool:
    return find_isomorphism(a, b) is not None


def relabel(g: Multigraph, permutation: Sequence[int]) -> Multigraph:
    """The graph with vertex ``v`` renamed to ``permutation[v]``."""
    if sorted(permutation) != list(range(g.n)):
        raise GraphError("relabeling must be a permutation of the vertices")
    edges = [(permutation[u], permutation[v]) for u, v in g.endpoints]
    cls = SimpleGraph if isinstance(g, SimpleGraph) else Multigraph
    return cls(g.n, edges)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise GraphError("cycle graphs need at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> SimpleGraph:
    return SimpleGraph(leaves + 1, [(0, i + 1) for i in range(leaves)])
