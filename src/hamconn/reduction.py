"""From dominating triples to hamiltonian paths, via the core.

The pipeline realizes the reduction that proves hamiltonian connectivity
for 3-connected claw-free line graphs with small domination number:

1. take the multigraph preimage H of the input line graph g;
2. compute the core of H and project the two terminal edges onto core
   edges;
3. build ``h_n`` (the core, or the core with both projected edges
   subdivided and the subdivision vertices joined by a new edge);
   with m core edges and n core vertices, edges ``0..m-1`` keep their
   core ids (a subdivided edge's id goes to its half at the smaller end),
   ``m`` and ``m + 1`` are the other halves of the first and second
   projected edges, and ``e_n = m + 2`` joins the new vertices ``n`` and
   ``n + 1``;
4. project the dominating triple the same way and collect the at most six
   endpoints ``z`` of the projected edges;
5. find a closed trail of ``h_n`` through the new edge visiting ``z``;
6. convert that trail into an internally dominating trail of H with the
   prescribed terminal edges, and then into a hamiltonian path of g.

Every construction step is revalidated; a failed validation raises
``LiftFailedError`` and is treated as a bug, never silently accepted.

Whether a line graph L(H) is hamiltonian-connected is decided on the
preimage side by ``missing_idt_pair``: L(H) has a hamiltonian path between
the vertices of edges e1 and e2 exactly when H has an internally
dominating trail with terminal edges e1 and e2 (Harary & Nash-Williams,
1965).  Each trail found is turned into a hamiltonian path of L(H) by
``idt_to_ham_path`` and checked there, so every positive answer carries a
certificate in the line graph itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import CoreMap, core, lift_walk, project_vertex
from .errors import (
    DegenerateCoreError,
    GraphError,
    LiftFailedError,
    NoCoreLocationError,
    TrailNotFoundError,
)
from .invariants import DominatingSet, edge_connectivity, edges_dominate
from .linegraph import LineGraphMap, line_graph, preimage
from .multigraph import Multigraph, SimpleGraph
from .trails import IdtWitness, Trail, _check_order, find_closed_trail_through, find_idt


# -- edge projection -----------------------------------------------------------


def _pendant_ends(cm: CoreMap, e: int) -> tuple[int, int]:
    """(leaf, support) of a removed pendant edge, by original degree."""
    u, v = cm.original.endpoints[e]
    du, dv = cm.original.degree(u), cm.original.degree(v)
    if du == dv:
        raise NoCoreLocationError(
            f"pendant edge {e} joins two vertices of equal degree; no support vertex"
        )
    return (u, v) if du < dv else (v, u)


def project_edge(cm: CoreMap, e: int) -> int:
    """The core edge standing in for an original edge.

    An edge surviving into the core projects to itself; an edge inside an
    expansion projects to the owning core edge; a pendant edge projects to
    the smallest-id non-loop core edge at the image of its support vertex
    (or to the owning expansion when the support itself was suppressed).
    """
    cm.original.check_edge(e)
    if e in cm.edge_owner:
        return cm.edge_owner[e]
    if e not in cm.removed_pendants:
        raise LiftFailedError(f"edge {e} is neither expanded nor pendant")
    _, support = _pendant_ends(cm, e)
    loc = project_vertex(cm, support)
    if loc.kind == "edge":
        return loc.index
    for ce, _ in sorted(cm.core.incidence()[loc.index]):
        if not cm.core.is_loop(ce):
            return ce
    raise NoCoreLocationError(f"support of pendant edge {e} has only loops in the core")


# -- building h_n ----------------------------------------------------------------


@dataclass(frozen=True)
class HnConstruction:
    """The trail-search host ``h_n`` plus maps back to the core.

    ``subdivided`` maps each subdivided core edge to its new vertex.
    ``edge_origin[e]`` tags every ``h_n`` edge as ``("core", ce)`` for an
    unsubdivided core edge, ``("half", ce, outer_vertex)`` for one half of a
    subdivided edge, or ``("new",)`` for the joining edge.
    """

    graph: Multigraph
    e_n: int
    subdivided: dict[int, int]
    edge_origin: dict[int, tuple]


def build_hn(cm: CoreMap, e0_1: int, e0_2: int) -> HnConstruction:
    """The core when the projected edges coincide; otherwise the core with
    both projected edges subdivided and the new vertices joined.

    The result is checked 3-edge-connected.
    """
    c = cm.core
    c.check_edge(e0_1)
    c.check_edge(e0_2)
    if e0_1 == e0_2:
        origin = {e: ("core", e) for e in range(c.edge_count)}
        hn = HnConstruction(c, e0_1, {}, origin)
    else:
        n, m = c.n, c.edge_count
        (a1, b1), (a2, b2) = c.endpoints[e0_1], c.endpoints[e0_2]
        edges = list(c.endpoints)
        edges[e0_1], edges[e0_2] = (a1, n), (a2, n + 1)
        graph = Multigraph(n + 2, edges + [(b1, n), (b2, n + 1), (n, n + 1)])
        e_n = m + 2
        # A half joins its outer core vertex, the smaller end, to a new vertex.
        half_of = {e0_1: e0_1, m: e0_1, e0_2: e0_2, m + 1: e0_2}
        origin = {
            e: ("half", half_of[e], u) if e in half_of else ("core", e)
            for e, (u, _) in enumerate(graph.endpoints[:e_n])
        }
        origin[e_n] = ("new",)
        hn = HnConstruction(graph, e_n, {e0_1: n, e0_2: n + 1}, origin)
    if edge_connectivity(hn.graph) < 3:
        raise LiftFailedError("h_n must be 3-edge-connected when built from a valid core")
    return hn


def pick_z(cm: CoreMap, f_edges: tuple[int, ...]) -> frozenset[int]:
    """Endpoints, in ``h_n``, of the projections of the dominating edges.

    Original core vertices keep their ids under subdivision, so the result
    is valid in every ``h_n`` built from this core.  At most six vertices.
    """
    z: set[int] = set()
    for f in f_edges:
        f0 = project_edge(cm, f)
        u, v = cm.core.endpoints[f0]
        z.add(u)
        z.add(v)
    if len(z) > 6:
        raise LiftFailedError("three projected edges cannot have more than 6 endpoints")
    return frozenset(z)


# -- pipeline context -------------------------------------------------------------


@dataclass(frozen=True)
class PipelineContext:
    """Everything the trail-to-IDT conversion needs to look at."""

    g: SimpleGraph
    h: Multigraph
    cm: CoreMap
    e1: int
    e2: int
    e0_1: int
    e0_2: int
    hn: HnConstruction
    z: frozenset[int]

    @property
    def h_n(self) -> Multigraph:
        return self.hn.graph

    @property
    def e_n(self) -> int:
        return self.hn.e_n


# -- terminal attachments -----------------------------------------------------------


@dataclass(frozen=True)
class _Attachment:
    """How a terminal edge hangs off its projected core edge.

    ``kind == "on"`` means the edge is the ``index``-th edge (1-based) of the
    expansion; ``kind == "pendant"`` means a pendant edge attached at the
    expansion vertex with the given path index.
    """

    core_edge: int
    kind: str
    index: int
    pendant_edge: Optional[int] = None
    leaf: Optional[int] = None


def _attachment(cm: CoreMap, e: int) -> _Attachment:
    ce = project_edge(cm, e)
    if e in cm.edge_owner:
        return _Attachment(ce, "on", cm.edge_expansion[ce].index(e) + 1)
    # A suppressed support lies inside the expansion, a core-vertex support
    # is one of its ends.
    leaf, support = _pendant_ends(cm, e)
    try:
        p = cm.expansion_paths[ce].index(support)
    except ValueError:
        raise LiftFailedError("support vertex is not on its projected edge's expansion") from None
    return _Attachment(ce, "pendant", p, pendant_edge=e, leaf=leaf)


def _piece(cm: CoreMap, att: _Attachment, toward_low: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The terminal sub-trail: starts with the terminal edge at its tip and
    walks along the expansion to one end of the core edge."""
    vpath = cm.expansion_paths[att.core_edge]
    epath = cm.edge_expansion[att.core_edge]
    if att.kind == "on":
        j = att.index
        if toward_low:
            verts = (vpath[j],) + tuple(reversed(vpath[:j]))
            edges = tuple(reversed(epath[:j]))
        else:
            verts = (vpath[j - 1],) + tuple(vpath[j:])
            edges = tuple(epath[j - 1 :])
    else:
        p = att.index
        if toward_low:
            verts = (att.leaf,) + tuple(reversed(vpath[: p + 1]))
            edges = (att.pendant_edge,) + tuple(reversed(epath[:p]))
        else:
            verts = (att.leaf,) + tuple(vpath[p:])
            edges = (att.pendant_edge,) + tuple(epath[p:])
    return verts, edges


# -- trail to IDT --------------------------------------------------------------------


def _rotate_closed(trail: Trail, edge_pos: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    edges = trail.edges[edge_pos:] + trail.edges[:edge_pos]
    verts = trail.vertices[edge_pos:-1] + trail.vertices[: edge_pos + 1]
    return verts, edges


def idt_from_trail(ctx: PipelineContext, trail: Trail) -> IdtWitness:
    """Convert a closed trail of ``h_n`` through ``e_n`` visiting ``z`` into
    an internally dominating trail of H with terminal edges e1, e2."""
    trail.validate()
    if trail.host != ctx.h_n:
        raise LiftFailedError("trail does not live in h_n")
    if not trail.is_closed or ctx.e_n not in trail.edges:
        raise LiftFailedError("need a closed trail through e_n")
    if not ctx.z <= trail.vertex_set():
        raise LiftFailedError("trail misses part of z")
    cm = ctx.cm
    rverts, redges = _rotate_closed(trail, trail.edges.index(ctx.e_n))
    x0, x1 = rverts[0], rverts[1]
    rest_edges = redges[1:]
    rest_verts = rverts[1:]
    att1, att2 = _attachment(cm, ctx.e1), _attachment(cm, ctx.e2)
    if (att1.core_edge, att2.core_edge) != (ctx.e0_1, ctx.e0_2):
        raise LiftFailedError("attachments disagree with the projected edges")

    # Each option is a lifted core walk mv with the attachments whose pieces
    # must end at mv[0] and at mv[-1].
    if not ctx.hn.subdivided:
        # e_n is the shared projected core edge itself.  The lifted cycle may
        # be traversed in either direction, so try both.
        mv, me = lift_walk(cm, rest_verts, rest_edges)
        options = [(mv, me, att1, att2), (mv[::-1], me[::-1], att1, att2)]
    else:
        sub_of = {v: ce for ce, v in ctx.hn.subdivided.items()}
        if x0 not in sub_of or x1 not in sub_of or x0 == x1:
            raise LiftFailedError("e_n does not join the two subdivision vertices")
        tags = [ctx.hn.edge_origin[e][0] for e in rest_edges]
        if tags[0] != "half" or tags[-1] != "half":
            raise LiftFailedError("trail does not leave the subdivision vertices by halves")
        if any(tag != "core" for tag in tags[1:-1]):
            raise LiftFailedError("trail revisits a subdivided edge")
        # Unsubdivided core edges keep their ids in h_n.
        mv, me = lift_walk(cm, rest_verts[1:-1], rest_edges[1:-1])
        first, last = (att1, att2) if sub_of[x1] == ctx.e0_1 else (att2, att1)
        options = [(mv, me, first, last)]

    for mv, me, first, last in options:
        for tf in (True, False):
            pfv, pfe = _piece(cm, first, tf)
            if pfv[-1] != mv[0]:
                continue
            for tl in (True, False):
                plv, ple = _piece(cm, last, tl)
                if plv[-1] != mv[-1] or set(pfe) & set(ple):
                    continue
                verts = pfv + mv[1:] + plv[::-1][1:]
                edges = pfe + me + ple[::-1]
                if first is att2:
                    verts, edges = verts[::-1], edges[::-1]
                witness = IdtWitness(Trail(ctx.h, verts, edges), ctx.e1, ctx.e2)
                try:
                    witness.validate()
                except GraphError:
                    continue
                return witness
    raise LiftFailedError("no orientation of the lifted trail yields a valid terminal trail")


# -- IDT to hamiltonian path -----------------------------------------------------------


def idt_to_ham_path(lgm: LineGraphMap, witness: IdtWitness) -> Trail:
    """Order the trail's edges and insert each dominated non-trail edge next
    to an interior vertex it touches; the result is a hamiltonian path of
    the line graph between the terminal edges' vertices."""
    h, g = lgm.source, lgm.target
    if h.edge_count < 3:
        raise GraphError("the edge-ordering construction needs at least 3 edges")
    witness.validate()
    trail = witness.trail
    if trail.host != h:
        raise LiftFailedError("witness does not live in the line graph's source")
    on_trail = set(trail.edges)
    inserts: dict[int, list[int]] = {}
    for f in range(h.edge_count):
        if f in on_trail:
            continue
        spot = None
        for j in range(1, len(trail.vertices) - 1):
            if trail.vertices[j] in h.endpoints[f]:
                spot = j
                break
        if spot is None:
            raise LiftFailedError(f"edge {f} is not dominated by an interior vertex")
        inserts.setdefault(spot, []).append(f)
    seq = [trail.edges[0]]
    for j in range(1, len(trail.vertices) - 1):
        seq.extend(inserts.get(j, ()))
        seq.append(trail.edges[j])
    if len(seq) != g.n or len(set(seq)) != g.n:
        raise LiftFailedError("edge ordering does not enumerate every line-graph vertex once")
    step_edges = []
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            raise LiftFailedError("consecutive ordered edges are not adjacent in the line graph")
        step_edges.append(g.edge_id(a, b))
    path = Trail(g, tuple(seq), tuple(step_edges))
    path.validate()
    return path


def missing_idt_pair(lgm: LineGraphMap) -> Optional[tuple[int, int]]:
    """The first vertex pair of ``lgm.target`` without a hamiltonian path, or
    ``None``, decided by searching the source multigraph H.

    The edge pairs ``e1 < e2`` of H are walked in lexicographic order; the
    first pair without an internally dominating trail is the answer.  Every
    trail found becomes a hamiltonian path of the line graph, validated
    there.  Vertex i of the line graph is edge i of H, so the pair is the
    one ``missing_hamiltonian_pair(lgm.target)`` returns.  Like
    ``idt_to_ham_path``, it needs at least 3 edges.
    """
    h = lgm.source
    if h.edge_count < 3:
        raise GraphError("the IDT census needs at least 3 edges")
    # A negative answer rests on the equivalence, so the map must be exact.
    lgm.validate()
    for e1, e2 in itertools.combinations(range(h.edge_count), 2):
        witness = find_idt(h, e1, e2)
        if witness is None:
            return (e1, e2)
        _check_ham_path(lgm.target, idt_to_ham_path(lgm, witness), e1, e2)
    return None


# -- the full pipeline --------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineRun:
    """A successful pipeline execution with its intermediate artifacts."""

    graph: SimpleGraph
    source: Multigraph
    idt: IdtWitness
    path: Trail
    context: Optional[PipelineContext]


def _direct_idt(h: Multigraph, e1: int, e2: int) -> Optional[IdtWitness]:
    """Two-edge trail through a shared endpoint; sufficient whenever that
    endpoint alone dominates the graph (star-like degenerate cores)."""
    shared = set(h.endpoints[e1]) & set(h.endpoints[e2])
    for s in sorted(shared):
        t = Trail(h, (h.other_end(e1, s), s, h.other_end(e2, s)), (e1, e2))
        witness = IdtWitness(t, e1, e2)
        try:
            witness.validate()
        except GraphError:
            continue
        return witness
    return None


def run_pipeline(
    g: SimpleGraph, u: int, v: int, dominating: DominatingSet
) -> PipelineRun:
    """The reduction pipeline with all intermediate artifacts exposed; its
    ``path`` is a validated hamiltonian u-v path of ``g``.

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
    lgm = line_graph(h)
    if lgm.target != g:
        raise LiftFailedError("preimage did not reproduce the input under the line graph")
    e1, e2 = u, v
    f = tuple(sorted(dominating.vertices))
    if not edges_dominate(h, f):
        raise LiftFailedError("dominating vertices do not dominate the preimage's edges")
    try:
        cm = core(h)
    except DegenerateCoreError:
        witness = _direct_idt(h, e1, e2)
        if witness is None:
            raise
        path = idt_to_ham_path(lgm, witness)
        _check_ham_path(g, path, u, v)
        return PipelineRun(g, h, witness, path, None)
    e0_1 = project_edge(cm, e1)
    e0_2 = project_edge(cm, e2)
    hn = build_hn(cm, e0_1, e0_2)
    z = pick_z(cm, f)
    trail = find_closed_trail_through(hn.graph, sorted(z), hn.e_n)
    if trail is None:
        raise TrailNotFoundError(
            "no closed trail through e_n visiting z; h_n should be 3-edge-connected with |z| <= 6"
        )
    ctx = PipelineContext(g, h, cm, e1, e2, e0_1, e0_2, hn, z)
    witness = idt_from_trail(ctx, trail)
    path = idt_to_ham_path(lgm, witness)
    _check_ham_path(g, path, u, v)
    return PipelineRun(g, h, witness, path, ctx)


def _check_ham_path(g: SimpleGraph, path: Trail, u: int, v: int) -> None:
    """Revalidate a hamiltonian u-v path independently of how it was built."""
    if path.vertices[0] != u or path.vertices[-1] != v:
        raise LiftFailedError("path endpoints are wrong")
    _check_order(g.adjacency_masks(), path.vertices)
