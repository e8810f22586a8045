"""Exact trail and path search, built on two backtracking engines.  Both
run as one loop over an explicit stack of frames, one per step, so the
interpreter's recursion limit bounds neither a trail nor a hamiltonian order.

``_trail_search`` walks edge trails in a multigraph: a trail leaves a start
vertex along a prescribed first edge and stops at a goal vertex, optionally
taking a prescribed closing edge last.  Closed trails through an edge,
spanning closed trails, dominating closed trails and internally dominating
trails are all calls into it.  States are ``(current vertex, used-edge
bitmask)``; dead states are memoized under one int key,
``used << n.bit_length() | cur``, and a state is pruned when the goal, a
required vertex or (when asked) some edge's domination is out of reach
along unused edges.  The search keeps each vertex's neighbors along unused
edges as a bitmask, updated as edges are used and restored on backtrack;
it starts from the host's cached ``adjacency_masks()``, ``parallel_masks()``
and ``loop_mask()``, so many searches on one host share that set-up, and
one frontier walk over these masks per state yields both the vertices
still reachable and the edges they dominate (each vertex's mask in the
host's cached ``edge_masks()``).  The walk stops as soon as no prune can
fire.  Loops are never traversed except when a loop is itself the
prescribed first edge; loop edges still count for domination checks.

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
from .multigraph import Multigraph, SimpleGraph, _bit_component


@dataclass(frozen=True)
class Trail:
    """An alternating vertex/edge walk with pairwise-distinct edges.

    ``vertices`` has one more entry than ``edges``; edge ``i`` joins
    ``vertices[i]`` and ``vertices[i + 1]``.  A trail is closed when it ends
    where it started (a single vertex with no edges is a closed trail).
    Construction runs ``validate``, so a ``Trail`` that exists is valid.
    """

    host: Multigraph
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        self.validate()

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

    def is_spanning(self) -> bool:
        return self.vertex_set() == frozenset(range(self.host.n))

    def dominates_host_edges(self) -> bool:
        return vertices_dominate_edges(self.host, self.vertices)


@dataclass(frozen=True)
class IdtWitness:
    """A trail whose terminal edges are prescribed and whose interior
    vertices dominate every edge of the host."""

    trail: Trail
    first_edge: int
    last_edge: int

    def validate(self) -> None:
        """Terminal edges and domination; the ``Trail`` checked itself."""
        if not self.trail.edges:
            raise GraphError("an internally dominating trail needs edges")
        if self.trail.edges[0] != self.first_edge or self.trail.edges[-1] != self.last_edge:
            raise GraphError("terminal edges do not match the witness")
        if self.first_edge == self.last_edge:
            raise GraphError("terminal edges must differ")
        if not vertices_dominate_edges(self.trail.host, self.trail.vertices[1:-1]):
            raise GraphError("interior vertices do not dominate every edge")


def _built_trail(host: Multigraph, vertices: tuple[int, ...], edges: tuple[int, ...]) -> Trail:
    """The ``Trail`` the library built along ``vertices`` and ``edges``.  One
    that fails its check is a fault of the program, not of the input, so
    its ``GraphError`` is raised as ``LiftFailedError``; a ``Trail`` built
    by hand still raises ``GraphError``."""
    try:
        return Trail(host, vertices, edges)
    except GraphError as exc:
        raise LiftFailedError(f"a trail the library built fails its check: {exc}") from exc


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

    ``avail[u]`` is the bitmask of u's neighbors along unused edges, and
    ``parallel[e]`` the edges with the same endpoints as ``e``: a step clears
    its two ends from each other's masks only when it uses the last unused
    edge between them, and backtracking sets them again.  Both start from
    the host's cached tables: ``avail`` is a copy of ``adjacency_masks()``
    with a pair cleared only when every parallel copy between its ends
    starts out used.  At each state one frontier walk over ``avail`` grows
    the component of the current vertex a layer at a time and ORs the edges
    its vertices dominate; the goal, required-vertex and domination prunes
    all read that one walk.  Each prune only gets easier to pass as the
    component grows, so the walk stops once all three pass, and a state is
    dead exactly when the whole component fails one of them.

    The search is one loop over an explicit stack.  A frame holds the
    current vertex, the used, seen and covered masks, the dead-state key,
    an iterator over the current vertex's incidences (the next edge to
    try, in incidence order) and whether the step into the frame cleared
    an ``avail`` pair; backtracking out of a frame restores that pair and
    pops its vertex and edge off the trail.
    """
    inc = h.incidence()
    cover = h.edge_masks()
    parallel = h.parallel_masks()
    loops = h.loop_mask()
    full_cover = (1 << h.edge_count) - 1
    used = banned | 1 << first_edge | loops
    if closing_edge is not None:
        used |= 1 << closing_edge
    avail = list(h.adjacency_masks())
    rest = used & ~loops
    while rest:
        e = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if not parallel[e] & ~used:
            u, v = h.endpoints[e]
            avail[u] &= ~(1 << v)
            avail[v] &= ~(1 << u)
    second = h.other_end(first_edge, start)
    verts = [start, second]
    edges = [first_edge]
    shift = h.n.bit_length()
    # Edges whose domination is not asked for count as covered from the start.
    free_cover = 0 if need_domination else full_cover
    dead: set[int] = set()
    # The top frame lives in the locals; the frames below it are tuples
    # (cur, used, seen, covered, key, it, cleared).
    stack: list[tuple] = []
    cur, seen, covered, cleared = second, 1 << second, cover[second], False
    while True:
        # Enter the state (cur, used): accept it, or find it dead, or open it.
        if (
            goal >> cur & 1
            and not required_mask & ~seen
            and covered | free_cover == full_cover
        ):
            if closing_edge is not None:
                verts.append(h.other_end(closing_edge, cur))
                edges.append(closing_edge)
            return _built_trail(h, tuple(verts), tuple(edges))
        key = used << shift | cur
        live = False
        if key not in dead:
            # Grow the component of cur along unused edges a layer at a
            # time, OR-ing the edges its vertices dominate, until all three
            # prunes pass; a walk that runs out first marks the state dead.
            comp = frontier = 1 << cur
            future = covered
            while frontier:
                nxt = 0
                while frontier:
                    v = (frontier & -frontier).bit_length() - 1
                    frontier &= frontier - 1
                    nxt |= avail[v]
                    future |= cover[v]
                frontier = nxt & ~comp
                comp |= frontier
                if (
                    future | free_cover == full_cover
                    and comp & goal
                    and not required_mask & ~(seen | comp)
                ):
                    live = True
                    it = iter(inc[cur])
                    break
            else:
                dead.add(key)
        while True:
            if live:
                for eid, w in it:
                    if not used >> eid & 1:
                        break
                else:
                    dead.add(key)
                    live = False
            if not live:
                # Undo the step into cur and resume the frame below.
                if not stack:
                    return None
                child, child_cleared = cur, cleared
                cur, used, seen, covered, key, it, cleared = stack.pop()
                verts.pop()
                edges.pop()
                if child_cleared:
                    avail[cur] |= 1 << child
                    avail[child] |= 1 << cur
                live = True
                continue
            stack.append((cur, used, seen, covered, key, it, cleared))
            used |= 1 << eid
            cleared = not parallel[eid] & ~used
            if cleared:
                avail[cur] &= ~(1 << w)
                avail[w] &= ~(1 << cur)
            verts.append(w)
            edges.append(eid)
            cur, seen, covered = w, seen | 1 << w, covered | cover[w]
            break


def _least_edge_closed_trail(h: Multigraph, **options) -> Optional[Trail]:
    """The first closed trail found whose least edge id is a non-loop edge
    ``e``, trying each ``e`` in id order, or ``None``."""
    for e, (u, v) in enumerate(h.endpoints):
        if u == v:
            continue
        # Canonicalization: edges below e are banned, so e is the least.
        trail = _trail_search(h, u, e, 1 << u, banned=(1 << e) - 1, **options)
        if trail is not None:
            return trail
    return None


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
    start = h.endpoints[through_edge][0]
    return _trail_search(h, start, through_edge, 1 << start, required_mask=required_mask)


def find_spanning_closed_trail(h: Multigraph) -> Optional[Trail]:
    """A closed trail visiting every vertex, or ``None``."""
    if h.n == 0:
        return None
    if h.n == 1:
        return Trail(h, (0,), ())
    if not h.is_connected():
        return None
    return _least_edge_closed_trail(h, required_mask=(1 << h.n) - 1)


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
    return _least_edge_closed_trail(h, need_domination=True)


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
            try:
                witness.validate()
            except GraphError as exc:
                raise LiftFailedError(f"an IDT the library built fails its check: {exc}") from exc
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

    The search is one loop over an explicit stack, one frame per order step.
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
    # The top frame lives in the locals; the frames below it are tuples
    # (cur, visited, key, it).
    stack: list[tuple] = []
    cur, visited = start, 1 << start
    while True:
        # Enter the state (cur, visited): finish an order or rank its moves.
        key = visited << shift | cur
        it = ()  # a dead state has no candidates
        if key not in dead:
            unvisited = full & ~visited
            open_ends = unvisited & ends
            if not unvisited & (unvisited - 1):
                if masks[cur] & open_ends:
                    order.append(unvisited.bit_length() - 1)
                    if not collect:
                        return order
                    _check_order(masks, order)
                    ends &= ~unvisited
                    reached |= unvisited
                    order.pop()
                    if not ends:
                        return reached
            elif open_ends:
                region = unvisited | 1 << cur
                live = not unvisited & ~_bit_component(masks, 1 << cur, region)
                # Each unvisited vertex but the last needs an entry and an exit
                # in the region; the one that cannot have both must be an end.
                last = 0
                rest = unvisited
                while live and rest:
                    v = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    if (masks[v] & region).bit_count() < 2:
                        if last or not ends >> v & 1:
                            live = False
                        last = 1 << v
                if live:
                    candidates = masks[cur] & unvisited & ~last
                    if not open_ends & (open_ends - 1):
                        candidates &= ~open_ends
                    ranked = []
                    while candidates:
                        w = (candidates & -candidates).bit_length() - 1
                        candidates &= candidates - 1
                        ranked.append(((masks[w] & unvisited).bit_count(), w))
                    it = iter(sorted(ranked))
        while True:
            for _, w in it:
                break
            else:
                # No candidate is left: the state is dead; resume the frame below.
                dead.add(key)
                if not stack:
                    return reached if collect else None
                cur, visited, key, it = stack.pop()
                order.pop()
                continue
            stack.append((cur, visited, key, it))
            order.append(w)
            cur, visited = w, visited | 1 << w
            break


def _order_trail(g: SimpleGraph, order: Sequence[int], *, closed: bool = False) -> Trail:
    """The hamiltonian path along ``order``; with ``closed``, the cycle that
    steps back to ``order[0]`` at the end.  Callers check the order first
    (``_cycle_order`` does for a cycle).  The edge ids come from a map of all
    of ``g``'s edges built on each call, which a bare order check skips."""
    if closed:
        order = [*order, order[0]]
    ids = {pair: e for e, pair in enumerate(g.endpoints)}
    edges = tuple(ids[(u, v) if u < v else (v, u)] for u, v in zip(order, order[1:]))
    return _built_trail(g, tuple(order), edges)


def hamiltonian_path(g: SimpleGraph, a: int, b: int) -> Optional[Trail]:
    """A path visiting every vertex exactly once from ``a`` to ``b``."""
    g.check_vertex(a)
    g.check_vertex(b)
    if a == b:
        raise GraphError("hamiltonian path endpoints must differ")
    order = _hamiltonian_order(g, a, 1 << b)
    if order is None:
        return None
    _check_order(g.adjacency_masks(), order)
    return _order_trail(g, order)


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
    complete; those on 0 or 1 vertex have no pair and are.
    """
    return g.n <= 1 or missing_hamiltonian_pair(g) is None


def _cycle_order(g: SimpleGraph) -> Optional[list[int]]:
    """The vertices of a spanning cycle in cycle order, checked on the
    adjacency masks, or ``None``; raises ``LiftFailedError`` on an order
    that is not a cycle."""
    if g.n < 3:
        raise GraphError("hamiltonian cycles need at least 3 vertices")
    if not g.is_connected():
        return None
    masks = g.adjacency_masks()
    order = _hamiltonian_order(g, 0, masks[0])
    if order is None:
        return None
    _check_order(masks, order)
    if not masks[order[-1]] >> order[0] & 1:
        raise LiftFailedError(f"hamiltonian cycle closes along a non-edge ({order[-1]}, {order[0]})")
    return order


def find_hamiltonian_cycle(g: SimpleGraph) -> Optional[Trail]:
    """A spanning cycle as a closed trail, or ``None``."""
    order = _cycle_order(g)
    return None if order is None else _order_trail(g, order, closed=True)


def is_hamiltonian(g: SimpleGraph) -> bool:
    """Whether ``g`` has a spanning cycle; the cycle found is checked but
    not built as a ``Trail``."""
    return _cycle_order(g) is not None
