"""Exact trail and path search, built on two backtracking engines.

``_trail_search`` walks edge trails in a multigraph: a trail leaves a start
vertex along a prescribed first edge and stops at a goal vertex, optionally
taking a prescribed closing edge last.  Closed trails through an edge,
spanning closed trails, dominating closed trails and internally dominating
trails are all calls into it.  States are ``(current vertex, used-edge
bitmask)``; dead states are memoized, and a state is pruned when the goal,
a required vertex or (when asked) some edge's domination is out of reach
along unused edges: reachability is ``_edge_component`` with the used edges
blocked, and the edges a vertex dominates are its mask in the host's cached
``edge_masks()``.  Loops are never traversed except when a loop is itself
the prescribed first edge; loop edges still count for domination checks.

``_hamiltonian_order`` orders the vertices of a simple graph from a start
vertex to one of a set of end vertices; hamiltonian paths (one end) and
hamiltonian cycles (the start's neighbors as ends) are calls into it.  Its
collect mode serves ``missing_hamiltonian_pair`` with one search per start
vertex ``a``: the search runs on past each order found, drops the end it
reached from the ends still sought (every ``b > a``), and reports which
ends it reached.  Dead states are memoized under one int key,
``visited << n.bit_length() | cur``; a state with no completion toward a
set of ends has none toward any subset, so the memo stays sound while the
ends shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import GraphError, LiftFailedError
from .invariants import vertices_dominate_edges
from .multigraph import Multigraph, SimpleGraph, _bit_component, _edge_component


@dataclass(frozen=True)
class Trail:
    """An alternating vertex/edge walk with pairwise-distinct edges.

    ``vertices`` has one more entry than ``edges``; edge ``i`` joins
    ``vertices[i]`` and ``vertices[i + 1]``.  A trail is closed when it ends
    where it started (a single vertex with no edges is a closed trail).
    """

    host: Multigraph
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def validate(self) -> None:
        if len(self.vertices) != len(self.edges) + 1 or not self.vertices:
            raise GraphError("trail shape mismatch")
        if len(set(self.edges)) != len(self.edges):
            raise GraphError("trail repeats an edge")
        for v in self.vertices:
            self.host.check_vertex(v)
        for i, e in enumerate(self.edges):
            self.host.check_edge(e)
            pair = self.host.endpoints[e]
            step = (self.vertices[i], self.vertices[i + 1])
            if pair != step and pair != (step[1], step[0]):
                raise GraphError(f"edge {e} does not join consecutive trail vertices")

    @property
    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def interior_vertices(self) -> frozenset[int]:
        """All vertices for a closed trail; for an open trail, the vertices at
        non-terminal positions (a terminal vertex revisited mid-trail counts)."""
        if self.is_closed and self.edges:
            return self.vertex_set()
        return frozenset(self.vertices[1:-1])

    def is_spanning(self) -> bool:
        return self.vertex_set() == frozenset(range(self.host.n))

    def dominates_host_edges(self) -> bool:
        return vertices_dominate_edges(self.host, self.vertices)

    def reversed(self) -> "Trail":
        return Trail(self.host, self.vertices[::-1], self.edges[::-1])


@dataclass(frozen=True)
class IdtWitness:
    """A trail whose terminal edges are prescribed and whose interior
    vertices dominate every edge of the host."""

    trail: Trail
    first_edge: int
    last_edge: int

    def validate(self) -> None:
        self.trail.validate()
        if not self.trail.edges:
            raise GraphError("an internally dominating trail needs edges")
        if self.trail.edges[0] != self.first_edge or self.trail.edges[-1] != self.last_edge:
            raise GraphError("terminal edges do not match the witness")
        if self.first_edge == self.last_edge:
            raise GraphError("terminal edges must differ")
        interior = frozenset(self.trail.vertices[1:-1])
        host = self.trail.host
        for u, v in host.endpoints:
            if u not in interior and v not in interior:
                raise GraphError(f"edge ({u}, {v}) not dominated by interior vertices")


# -- the edge-trail engine (multigraphs) ----------------------------------------


def _trail_search(
    h: Multigraph,
    start: int,
    first_edge: int,
    goal: int,
    *,
    closing_edge: Optional[int] = None,
    banned: int = 0,
    required_mask: int = 0,
    need_domination: bool = False,
) -> Optional[Trail]:
    """A trail leaving ``start`` along ``first_edge`` that stops at a vertex of
    the bitmask ``goal`` and then traverses ``closing_edge`` if one is given.

    ``seen`` holds the vertices after ``start`` up to and including the
    current one: the vertex set of a closed trail once it is back at
    ``start``, and the interior of a trail about to take its closing edge.
    A trail is accepted when ``seen`` contains ``required_mask`` and, when
    asked, touches every edge.  Loops, the ``banned`` edge mask and the
    closing edge are never extended along; they start out in the used mask.
    """
    inc = h.incidence()
    cover = h.edge_masks()
    full_cover = (1 << h.edge_count) - 1
    used = banned | 1 << first_edge
    for e, (u, v) in enumerate(h.endpoints):
        if u == v:
            used |= 1 << e
    if closing_edge is not None:
        used |= 1 << closing_edge
    second = h.other_end(first_edge, start)
    verts = [start, second]
    edges = [first_edge]
    dead: set[tuple[int, int]] = set()

    def search(cur: int, used: int, seen: int, covered: int) -> bool:
        if goal >> cur & 1 and not (required_mask & ~seen):
            if not need_domination or covered == full_cover:
                if closing_edge is not None:
                    verts.append(h.other_end(closing_edge, cur))
                    edges.append(closing_edge)
                return True
        key = (cur, used)
        if key in dead:
            return False
        comp = _edge_component(inc, cur, used)
        if not (comp & goal) or required_mask & ~(seen | comp):
            dead.add(key)
            return False
        if need_domination:
            future = covered
            rest = comp & ~seen
            while rest:
                w = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                future |= cover[w]
            if future != full_cover:
                dead.add(key)
                return False
        for eid, w in inc[cur]:
            if used >> eid & 1:
                continue
            verts.append(w)
            edges.append(eid)
            if search(w, used | (1 << eid), seen | (1 << w), covered | cover[w]):
                return True
            verts.pop()
            edges.pop()
        dead.add(key)
        return False

    if not search(second, used, 1 << second, cover[second]):
        return None
    return Trail(h, tuple(verts), tuple(edges))


def _closed_trail(h: Multigraph, first_edge: int, **options) -> Optional[Trail]:
    """A validated closed trail leaving the lower end of ``first_edge``."""
    start = h.endpoints[first_edge][0]
    trail = _trail_search(h, start, first_edge, 1 << start, **options)
    if trail is not None:
        trail.validate()
    return trail


def find_closed_trail_through(
    h: Multigraph, required_vertices: Sequence[int], through_edge: int
) -> Optional[Trail]:
    """A closed trail visiting every required vertex and traversing the
    prescribed edge, or ``None`` after exhaustive search.

    The prescribed edge may be a loop; no other loop is ever traversed.
    """
    h.check_edge(through_edge)
    required_mask = 0
    for v in required_vertices:
        h.check_vertex(v)
        required_mask |= 1 << v
    return _closed_trail(h, through_edge, required_mask=required_mask)


def find_spanning_closed_trail(h: Multigraph) -> Optional[Trail]:
    """A closed trail visiting every vertex, or ``None``."""
    if h.n == 0:
        return None
    if h.n == 1:
        return Trail(h, (0,), ())
    if not h.is_connected():
        return None
    all_vertices = (1 << h.n) - 1
    for e, (u, v) in enumerate(h.endpoints):
        if u == v:
            continue
        # Canonicalization: e is the minimum edge id on the trail.
        trail = _closed_trail(h, e, banned=(1 << e) - 1, required_mask=all_vertices)
        if trail is not None:
            return trail
    return None


def find_dct(h: Multigraph) -> Optional[Trail]:
    """A closed trail whose vertex set touches every edge, or ``None``.

    Single-vertex trails count, so a star is dominated by the trivial trail
    at its center.
    """
    if h.n == 0:
        return None
    for v in range(h.n):
        trivial = Trail(h, (v,), ())
        if trivial.dominates_host_edges():
            return trivial
    for e, (u, v) in enumerate(h.endpoints):
        if u == v:
            continue
        trail = _closed_trail(h, e, banned=(1 << e) - 1, need_domination=True)
        if trail is not None:
            return trail
    return None


def find_idt(h: Multigraph, e1: int, e2: int) -> Optional[IdtWitness]:
    """An internally dominating trail with terminal edges ``e1`` and ``e2``.

    Exhaustive over trails that start along ``e1`` and end along ``e2``; the
    interior is positional, so a terminal vertex revisited mid-trail counts
    as interior.
    """
    h.check_edge(e1)
    h.check_edge(e2)
    if e1 == e2:
        raise GraphError("terminal edges of an internally dominating trail must differ")
    x, y = h.endpoints[e2]
    a, b = h.endpoints[e1]
    for start in (a,) if a == b else (a, b):
        trail = _trail_search(
            h, start, e1, 1 << x | 1 << y, closing_edge=e2, need_domination=True
        )
        if trail is not None:
            witness = IdtWitness(trail, e1, e2)
            witness.validate()
            return witness
    return None


# -- the hamiltonian-order engine (simple graphs) ---------------------------------


def _check_order(masks: Sequence[int], order: Sequence[int]) -> None:
    """Raise unless ``order`` lists every vertex once and steps along edges."""
    if sorted(order) != list(range(len(masks))):
        raise LiftFailedError(f"hamiltonian order {order} is not a permutation of the vertices")
    for u, v in zip(order, order[1:]):
        if not masks[u] >> v & 1:
            raise LiftFailedError(f"hamiltonian order steps along a non-edge ({u}, {v})")


def _hamiltonian_order(
    g: SimpleGraph, start: int, ends: int, *, collect: bool = False
) -> "Optional[list[int]] | int":
    """An order of all vertices that starts at ``start``, ends on a vertex of
    the bitmask ``ends`` (which must not contain ``start``) and steps along
    edges, or ``None``.

    Exhaustive backtracking over (current vertex, visited set), pruned by
    memoized dead states, by an unvisited region with no end left or not
    connected to the current vertex, and by unvisited vertices left with
    fewer than two usable neighbors: at most one may remain, and it must be
    an end.  Candidates are tried most-constrained first.  The move into the
    last unvisited vertex finishes the order; neither the last unvisited end
    nor a vertex that can only come last is taken before that move.

    With ``collect`` the search does not stop at the first order: each order
    found is checked, its end is dropped from ``ends``, and the search goes
    on until no end is left or the space is exhausted.  The bitmask of the
    ends reached is returned.
    """
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1
    shift = g.n.bit_length()
    # A dead state has no completion toward the current ends, hence none
    # toward the smaller sets that collect mode shrinks them to.  A fully
    # explored state is dead: every end it reached was dropped on the way.
    dead: set[int] = set()
    order = [start]
    reached = 0

    def search(cur: int, visited: int) -> bool:
        """Explore from the state; True stops the whole search."""
        nonlocal ends, reached
        key = visited << shift | cur
        if key in dead:
            return False
        unvisited = full & ~visited
        if not unvisited & (unvisited - 1):
            if masks[cur] & ends & unvisited:
                order.append(unvisited.bit_length() - 1)
                if not collect:
                    return True
                _check_order(masks, order)
                ends &= ~unvisited
                reached |= unvisited
                order.pop()
                if not ends:
                    return True
            dead.add(key)
            return False
        open_ends = unvisited & ends
        if not open_ends:
            dead.add(key)
            return False
        cur_bit = 1 << cur
        comp = _bit_component(masks, cur_bit, unvisited | cur_bit)
        if unvisited & ~comp:
            dead.add(key)
            return False
        # Every unvisited vertex but the last still needs an entry and an
        # exit, drawn from the unvisited region plus cur; the one that
        # cannot have both must be the last, so it must be an end.
        region = unvisited | cur_bit
        last = 0
        rest = unvisited
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (masks[v] & region).bit_count() < 2:
                if last or not ends >> v & 1:
                    dead.add(key)
                    return False
                last = 1 << v
        candidates = masks[cur] & unvisited & ~last
        if not open_ends & (open_ends - 1):
            candidates &= ~open_ends
        ranked = []
        while candidates:
            w = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            ranked.append(((masks[w] & unvisited).bit_count(), w))
        for _, w in sorted(ranked):
            order.append(w)
            if search(w, visited | (1 << w)):
                return True
            order.pop()
        dead.add(key)
        return False

    found = search(start, 1 << start)
    if collect:
        return reached
    return order if found else None


def _order_trail(g: SimpleGraph, order: Sequence[int], *, closed: bool = False) -> Trail:
    """The hamiltonian path along ``order``, checked; with ``closed``, the
    cycle that steps back to ``order[0]`` at the end."""
    _check_order(g.adjacency_masks(), order)
    if closed:
        order = [*order, order[0]]
    edges = tuple(g.edge_id(u, v) for u, v in zip(order, order[1:]))
    trail = Trail(g, tuple(order), edges)
    trail.validate()
    return trail


def hamiltonian_path(g: SimpleGraph, a: int, b: int) -> Optional[Trail]:
    """A path visiting every vertex exactly once from ``a`` to ``b``."""
    g.check_vertex(a)
    g.check_vertex(b)
    if a == b:
        raise GraphError("hamiltonian path endpoints must differ")
    order = _hamiltonian_order(g, a, 1 << b)
    return None if order is None else _order_trail(g, order)


def missing_hamiltonian_pair(g: SimpleGraph) -> Optional[tuple[int, int]]:
    """The first vertex pair without a hamiltonian path, or ``None``."""
    if g.n < 2:
        raise GraphError("hamiltonian connectivity needs at least 2 vertices")
    full = (1 << g.n) - 1
    for a in range(g.n - 1):
        targets = full & ~((2 << a) - 1)
        missing = targets & ~_hamiltonian_order(g, a, targets, collect=True)
        if missing:
            return (a, (missing & -missing).bit_length() - 1)
    return None


def is_hamiltonian_connected(g: SimpleGraph) -> bool:
    """Whether a hamiltonian path joins every pair of distinct vertices.

    Graphs on at most 2 vertices are hamiltonian-connected exactly when
    complete.
    """
    if g.n < 2:
        raise GraphError("hamiltonian connectivity needs at least 2 vertices")
    if g.n == 2:
        return g.edge_count == 1
    return missing_hamiltonian_pair(g) is None


def find_hamiltonian_cycle(g: SimpleGraph) -> Optional[Trail]:
    """A spanning cycle as a closed trail, or ``None``."""
    if g.n < 3:
        raise GraphError("hamiltonian cycles need at least 3 vertices")
    if not g.is_connected():
        return None
    order = _hamiltonian_order(g, 0, g.adjacency_masks()[0])
    return None if order is None else _order_trail(g, order, closed=True)


def is_hamiltonian(g: SimpleGraph) -> bool:
    return find_hamiltonian_cycle(g) is not None
