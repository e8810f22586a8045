"""From dominating triples to hamiltonian paths, via the core.

The pipeline realizes the reduction that proves hamiltonian connectivity
for 3-connected claw-free line graphs with small domination number:

1. take the multigraph preimage H of the input line graph g;
2. compute the core of H, check that H is essentially 3-edge-connected
   and the core 3-edge-connected, and project the two terminal edges onto
   core edges;
3. build ``h_n``: the core when both project to one edge, else the core
   with the first projected edge subdivided, then the second, and the two
   new vertices ``n`` and ``n + 1`` joined by ``e_n = m + 2`` (n core
   vertices, m core edges); ``Multigraph.subdivide`` keeps every core
   edge id and appends the far halves as ``m`` and ``m + 1``;
4. project the dominating triple the same way and collect the at most six
   endpoints ``z`` of the projected edges;
5. find a closed trail of ``h_n`` through the new edge visiting ``z``;
6. convert that trail into an internally dominating trail of H with the
   prescribed terminal edges: lift its walk after ``e_n`` through the
   core's expansions and join each terminal edge to an end of it by a
   piece, the sub-trail that runs from the edge along the expansion of its
   projected core edge; then turn the result into a hamiltonian path of
   g along ``_idt_order``, which puts each edge off the trail just before
   the trail edge leaving the first interior vertex it touches.
   ``preimage`` numbers the edges of H as the vertices of g, so g itself
   is L(H) and the path is built on it.

Each artifact is checked once, where it is made; a failed check raises
``LiftFailedError``, a bug never silently accepted.  H: ``preimage``'s
round trip (g is L(H)); the core: ``CoreMap.validate`` and step 2's cut
and edge-connectivity checks; ``h_n``: ``build_hn``; each trail and path:
``Trail`` itself; the IDT: ``_checked_idt``; the path: ``_check_ham_path``
in ``idt_to_ham_path``.

Whether a line graph g = L(H) is hamiltonian-connected is decided on the
preimage side by ``missing_idt_pair(g, h)``: L(H) has a hamiltonian path
between the vertices of edges e1 and e2 exactly when H has an internally
dominating trail with terminal edges e1 and e2 (Harary & Nash-Williams,
1965).  The caller's g is first checked to be exactly L(H), one adjacency
mask per edge of H.  The census runs up to true twins of g: parallel edges
of H, and pendant edges at one support vertex, have equal closed
neighborhoods in L(H), swapping two of them is an automorphism of g, so
one pair is searched per unordered pair of twin classes (126 searches on
every member of the Wagner sharpness family, whatever its pendant count).
Each trail found is turned into a vertex order of g by ``_idt_order`` and
checked on g's adjacency masks, so every searched positive pair carries a
certificate in the line graph itself, and every skipped pair rests on the
checked twin classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import CoreMap, core, lift_walk
from .errors import (
    DegenerateCoreError,
    GraphError,
    LiftFailedError,
    NoCoreLocationError,
    NotEssentially3EdgeConnectedError,
    TrailNotFoundError,
)
from .invariants import DominatingSet, edge_connectivity, find_essential_cut, true_twin_leads
from .linegraph import preimage
from .multigraph import Multigraph, SimpleGraph, _mask_vertices
from .trails import IdtWitness, Trail, _check_order, _order_trail, find_closed_trail_through, find_idt


# -- edge projection -----------------------------------------------------------


def project_edge(cm: CoreMap, e: int) -> int:
    """The core edge standing in for an original edge.

    An edge surviving into the core projects to itself, and an edge inside
    an expansion to the owning core edge.  A pendant edge projects through
    its support vertex: a suppressed support to the core edge whose
    expansion swallowed it, a core-vertex support to the smallest-id
    non-loop core edge at its image.  A support stripped with the pendant
    edges has no core location.
    """
    cm.original.check_edge(e)
    if e in cm.edge_owner:
        return cm.edge_owner[e]
    if e not in cm.pendant_support:
        raise LiftFailedError(f"edge {e} is neither expanded nor pendant")
    s = cm.pendant_support[e]
    if s in cm.suppressed_location:
        return cm.suppressed_location[s]
    if s not in cm.vertex_image:
        raise NoCoreLocationError(f"support {s} of pendant edge {e} was stripped too")
    # incidence lists edges by id, so the first non-loop is the smallest
    for ce, _ in cm.core.incidence()[cm.vertex_image[s]]:
        if not cm.core.is_loop(ce):
            return ce
    raise NoCoreLocationError(f"support of pendant edge {e} has only loops in the core")


# -- building h_n ----------------------------------------------------------------


def build_hn(cm: CoreMap, e0_1: int, e0_2: int) -> tuple[Multigraph, int]:
    """The trail-search host ``h_n`` and its prescribed edge ``e_n``, numbered
    as in step 3 of the module docstring: the core when the projected edges
    coincide; otherwise the core with both projected edges subdivided and
    the new vertices joined.

    ``h_n`` is checked 3-edge-connected.
    """
    c = cm.core
    c.check_edge(e0_1)
    c.check_edge(e0_2)
    if e0_1 == e0_2:
        h_n, e_n = c, e0_1
    else:
        n = c.n
        sub = c.subdivide(e0_1).subdivide(e0_2)
        h_n, e_n = Multigraph(n + 2, sub.endpoints + ((n, n + 1),)), c.edge_count + 2
    if edge_connectivity(h_n) < 3:
        raise LiftFailedError("h_n must be 3-edge-connected when built from a valid core")
    return h_n, e_n


def pick_z(cm: CoreMap, f_edges: tuple[int, ...]) -> frozenset[int]:
    """Endpoints, in ``h_n``, of the projections of the dominating edges.

    Original core vertices keep their ids under subdivision, so the result
    is valid in every ``h_n`` built from this core.  At most six vertices.
    """
    z: set[int] = set()
    for f in f_edges:
        z.update(cm.core.endpoints[project_edge(cm, f)])
    if len(z) > 6:
        raise LiftFailedError("three projected edges cannot have more than 6 endpoints")
    return frozenset(z)


# -- pipeline context -------------------------------------------------------------


@dataclass(frozen=True)
class PipelineContext:
    """Everything the trail-to-IDT conversion needs to look at; H is
    ``cm.original``."""

    cm: CoreMap
    e1: int
    e2: int
    e0_1: int
    e0_2: int
    h_n: Multigraph
    e_n: int
    z: frozenset[int]


# -- trail to IDT --------------------------------------------------------------------


_Piece = tuple[tuple[int, ...], tuple[int, ...]]


def _terminal_pieces(cm: CoreMap, e: int) -> tuple[_Piece, _Piece]:
    """The two sub-trails that start with the terminal edge ``e`` at their
    tip and run along the expansion of ``project_edge(cm, e)``: first to
    its lower end, then to its upper end."""
    ce = project_edge(cm, e)
    vpath = cm.expansion_paths[ce]
    epath = cm.edge_expansion[ce]
    if e in cm.edge_owner:
        i = epath.index(e)
        return (vpath[: i + 2][::-1], epath[: i + 1][::-1]), (vpath[i:], epath[i:])
    # A suppressed support lies inside the expansion, a core-vertex support
    # is one of its ends.
    support = cm.pendant_support[e]
    if support not in vpath:
        raise LiftFailedError("support vertex is not on its projected edge's expansion")
    p = vpath.index(support)
    leaf = cm.original.other_end(e, support)
    return (
        ((leaf,) + vpath[: p + 1][::-1], (e,) + epath[:p][::-1]),
        ((leaf,) + vpath[p:], (e,) + epath[p:]),
    )


def _checked_idt(
    h: Multigraph, verts: tuple[int, ...], edges: tuple[int, ...], e1: int, e2: int
) -> Optional[IdtWitness]:
    """The internally dominating trail of ``h`` along ``verts``/``edges``
    with terminal edges e1, e2, or ``None`` when it is not one."""
    try:
        witness = IdtWitness(Trail(h, verts, edges), e1, e2)
        witness.validate()
    except GraphError:
        return None
    return witness


def idt_from_trail(ctx: PipelineContext, trail: Trail) -> IdtWitness:
    """Convert a closed trail of ``h_n`` through ``e_n`` visiting ``z`` into
    an internally dominating trail of H with terminal edges e1, e2."""
    if trail.host != ctx.h_n:
        raise LiftFailedError("trail does not live in h_n")
    if not trail.is_closed or ctx.e_n not in trail.edges:
        raise LiftFailedError("need a closed trail through e_n")
    if not ctx.z <= trail.vertex_set():
        raise LiftFailedError("trail misses part of z")
    cm = ctx.cm
    if (project_edge(cm, ctx.e1), project_edge(cm, ctx.e2)) != (ctx.e0_1, ctx.e0_2):
        raise LiftFailedError("terminal edges disagree with the projected edges")
    pieces1, pieces2 = _terminal_pieces(cm, ctx.e1), _terminal_pieces(cm, ctx.e2)
    # The walk after e_n, once around the closed trail.
    k = trail.edges.index(ctx.e_n)
    rest_verts = trail.vertices[k + 1 : -1] + trail.vertices[: k + 1]
    rest_edges = trail.edges[k + 1 :] + trail.edges[:k]

    # Each option is a lifted core walk mv and a flag: with it, a piece of
    # e2 ends at mv[0], one of e1 at mv[-1], and the joined trail is reversed
    # to start with e1.
    if ctx.e0_1 == ctx.e0_2:
        # e_n is the shared projected core edge itself.  The lifted cycle may
        # be traversed in either direction, so try both.
        mv, me = lift_walk(cm, rest_verts, rest_edges)
        options = [(mv, me, False), (mv[::-1], me[::-1], False)]
    else:
        # n subdivides e0_1 and n + 1 subdivides e0_2.  Away from them the
        # walk uses only unsubdivided core edges, which keep their ids.
        n = cm.core.n
        if {trail.vertices[k], rest_verts[0]} != {n, n + 1}:
            raise LiftFailedError("e_n does not join the two subdivision vertices")
        if not {n, n + 1}.isdisjoint(rest_verts[1:-1]):
            raise LiftFailedError("trail revisits a subdivided edge")
        mv, me = lift_walk(cm, rest_verts[1:-1], rest_edges[1:-1])
        options = [(mv, me, rest_verts[0] != n)]

    for mv, me, flip in options:
        first, last = (pieces2, pieces1) if flip else (pieces1, pieces2)
        for pfv, pfe in first:
            if pfv[-1] != mv[0]:
                continue
            for plv, ple in last:
                if plv[-1] != mv[-1] or set(pfe) & set(ple):
                    continue
                verts = pfv + mv[1:] + plv[::-1][1:]
                edges = pfe + me + ple[::-1]
                if flip:
                    verts, edges = verts[::-1], edges[::-1]
                witness = _checked_idt(cm.original, verts, edges, ctx.e1, ctx.e2)
                if witness is not None:
                    return witness
    raise LiftFailedError("no orientation of the lifted trail yields a valid terminal trail")


# -- IDT to hamiltonian path -----------------------------------------------------------


def _idt_order(witness: IdtWitness) -> list[int]:
    """The vertex order of L(H), H the trail's host, that the internally
    dominating trail stands for: the trail's edges in order, and before
    each trail edge that leaves an interior vertex, in ascending id, the
    edges off the trail that touch that vertex and no earlier interior
    one.  Vertex i of L(H) is edge i of H."""
    trail = witness.trail
    masks = trail.host.edge_masks()
    left = (1 << trail.host.edge_count) - 1
    for e in trail.edges:
        left &= ~(1 << e)
    seq = list(trail.edges[:1])
    for v, e in zip(trail.vertices[1:-1], trail.edges[1:]):
        here = left & masks[v]
        left &= ~here
        seq += _mask_vertices(here)
        seq.append(e)
    if left:
        raise LiftFailedError(
            f"edge {(left & -left).bit_length() - 1} is not dominated by an interior vertex"
        )
    return seq


def idt_to_ham_path(g: SimpleGraph, witness: IdtWitness) -> Trail:
    """The hamiltonian path along ``_idt_order(witness)`` in the line graph
    ``g`` of the trail's host H, between the terminal edges' vertices.
    Only the path is checked (``_check_ham_path``): a bad witness yields an
    undominated edge, which ``_idt_order`` names, or a bad path."""
    h = witness.trail.host
    if h.edge_count < 3:
        raise GraphError("the edge-ordering construction needs at least 3 edges")
    if g.n != h.edge_count:
        raise LiftFailedError("witness does not live in the line graph's source")
    order = _idt_order(witness)
    _check_ham_path(g, order, witness.first_edge, witness.last_edge)
    return _order_trail(g, order)


def missing_idt_pair(g: SimpleGraph, h: Multigraph) -> Optional[tuple[int, int]]:
    """The first vertex pair of the line graph ``g`` = L(H) of ``h`` without
    a hamiltonian path, or ``None``, decided by searching H up to true twins.

    The edge pairs ``e1 < e2`` of H are walked in lexicographic order; the
    first pair without an internally dominating trail is the answer.  A
    pair's answer depends only on its unordered pair of true-twin classes
    of ``g`` (``true_twin_leads``; parallel edges, and pendant edges at one
    support vertex, are twins in L(H)), since swapping two twins is an
    automorphism of ``g``.  So the walk searches only the first pair of each
    class pair it meets, its least member, and skips the others; the first
    failing pair is the one the plain walk returns.  Every trail found
    becomes a vertex order of ``g``, checked there as a hamiltonian e1-e2
    path.  Vertex i of ``g`` is edge i of H, so the pair is the one
    ``missing_hamiltonian_pair(g)`` returns.  Like ``idt_to_ham_path``, it
    needs at least 3 edges.
    """
    if h.edge_count < 3:
        raise GraphError("the IDT census needs at least 3 edges")
    # A negative answer rests on the equivalence, so g must be exactly L(H):
    # vertex e is adjacent to every other edge at either end of edge e.
    if g.n != h.edge_count:
        raise LiftFailedError("line graph must have one vertex per source edge")
    adj, inc = g.adjacency_masks(), h.edge_masks()
    for e, (u, v) in enumerate(h.endpoints):
        diff = adj[e] ^ ((inc[u] | inc[v]) & ~(1 << e))
        if diff:
            f = (diff & -diff).bit_length() - 1
            raise LiftFailedError(f"adjacency of {e}, {f} disagrees with shared endpoints")
    lead = true_twin_leads(g)
    certified: set[tuple[int, int]] = set()
    for e1 in range(h.edge_count):
        if lead[e1] != e1:
            # Every pair (e1, e2) has the class pair of (lead[e1], e2), met earlier.
            continue
        for e2 in range(e1 + 1, h.edge_count):
            b = lead[e2]
            key = (e1, b) if e1 <= b else (b, e1)
            if key in certified:
                continue
            witness = find_idt(h, e1, e2)
            if witness is None:
                return (e1, e2)
            _check_ham_path(g, _idt_order(witness), e1, e2)
            certified.add(key)
    return None


# -- the full pipeline --------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineRun:
    """A successful pipeline execution with its intermediate artifacts; the
    preimage H is ``idt.trail.host``."""

    idt: IdtWitness
    path: Trail
    context: Optional[PipelineContext]


def _direct_idt(h: Multigraph, e1: int, e2: int) -> Optional[IdtWitness]:
    """Two-edge trail through a shared endpoint; sufficient whenever that
    endpoint alone dominates the graph (star-like degenerate cores)."""
    for s in sorted(set(h.endpoints[e1]) & set(h.endpoints[e2])):
        verts = (h.other_end(e1, s), s, h.other_end(e2, s))
        witness = _checked_idt(h, verts, (e1, e2), e1, e2)
        if witness is not None:
            return witness
    return None


def run_pipeline(
    g: SimpleGraph, u: int, v: int, dominating: DominatingSet
) -> PipelineRun:
    """The reduction pipeline with all intermediate artifacts exposed; its
    ``path`` is a hamiltonian u-v path of ``g``.

    That the triple's edges f dominate H's edges needs no check of its own:
    ``DominatingSet.validate`` proves that f dominates g, and ``preimage``'s
    round trip that g is L(H), vertex i being edge i.

    Raises stage-tagged errors: ``NotALineGraphOfMultigraphError``,
    ``DegenerateCoreError``, ``NotEssentially3EdgeConnectedError``,
    ``TrailNotFoundError``, and ``LiftFailedError`` for internal validation
    failures.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise GraphError("hamiltonian path endpoints must differ")
    if dominating.host != g or not dominating.validate():
        raise GraphError("the given set does not dominate the input graph")
    if len(dominating.vertices) > 3:
        raise GraphError("the pipeline requires a dominating set of size at most 3")
    h = preimage(g)
    e1, e2 = u, v
    f = tuple(sorted(dominating.vertices))
    try:
        cm = core(h)
    except DegenerateCoreError:
        witness = _direct_idt(h, e1, e2)
        if witness is None:
            raise
        return PipelineRun(witness, idt_to_ham_path(g, witness), None)
    cut = find_essential_cut(h, 3)
    if cut is not None:
        raise NotEssentially3EdgeConnectedError(
            f"essential edge-cut of size {len(cut)} found", cut=cut
        )
    if edge_connectivity(cm.core) < 3:
        raise LiftFailedError(
            "core of an essentially 3-edge-connected multigraph must be 3-edge-connected"
        )
    e0_1 = project_edge(cm, e1)
    e0_2 = project_edge(cm, e2)
    h_n, e_n = build_hn(cm, e0_1, e0_2)
    z = pick_z(cm, f)
    trail = find_closed_trail_through(h_n, sorted(z), e_n)
    if trail is None:
        raise TrailNotFoundError(
            "no closed trail through e_n visiting z; h_n should be 3-edge-connected with |z| <= 6"
        )
    ctx = PipelineContext(cm, e1, e2, e0_1, e0_2, h_n, e_n, z)
    witness = idt_from_trail(ctx, trail)
    return PipelineRun(witness, idt_to_ham_path(g, witness), ctx)


def _check_ham_path(g: SimpleGraph, order: Sequence[int], u: int, v: int) -> None:
    """Check, independently of how it was built, that ``order`` is a
    hamiltonian u-v path of ``g``."""
    if order[0] != u or order[-1] != v:
        raise LiftFailedError("path endpoints are wrong")
    _check_order(g.adjacency_masks(), order)
