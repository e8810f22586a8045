"""The core of a multigraph: strip pendant edges, suppress degree-2 vertices.

``core`` records a full back-mapping so that trails found in the core can be
lifted to the original graph: every core edge expands to an edge-disjoint
path of original edges, every original non-pendant edge lies in exactly one
expansion, each stripped pendant edge remembers the vertex it hung from, and
each suppressed vertex remembers the core edge whose expansion swallowed it.
It is a decomposition only: whether the input is essentially
3-edge-connected, and so whether the core is 3-edge-connected, is for the
caller to check.

After pendant stripping, the core vertices are the vertices of 2-core degree
3 or more.  From each of them, every unused incident edge starts a walk
that passes through degree-2 vertices until it reaches a core vertex; the
walk is one core edge, and the edges and vertices it collects are its
expansion.  Core edges are numbered by their smallest original edge, and a
walk between two core vertices is stored from the lower one.  A walk that
returns to its start is a loop of the core; it starts with the smaller of
its two end edges, because a vertex lists its edges by id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateCoreError, DisconnectedGraphError, LiftFailedError
from .invariants import vertices_dominate_edges
from .multigraph import Multigraph
from .trails import Trail


@dataclass(frozen=True)
class CoreMap:
    """Correspondence between a multigraph and its core.

    ``edge_expansion[ce]`` lists original edge ids along the path the core
    edge ``ce`` contracts; ``expansion_paths[ce]`` gives the matching
    original vertex path, oriented so its first vertex maps to the lower
    core endpoint (for a loop, so its first edge is the smaller end edge).
    ``edge_owner[e]`` is the core edge whose expansion contains ``e``, and
    ``pendant_support[e]`` is, for a stripped pendant edge ``e``, the end of
    ``e`` that remained when it was stripped.
    """

    original: Multigraph
    core: Multigraph
    pendant_support: dict[int, int]
    vertex_image: dict[int, int]
    core_vertex_origin: tuple[int, ...]
    edge_expansion: dict[int, tuple[int, ...]]
    expansion_paths: dict[int, tuple[int, ...]]
    suppressed_location: dict[int, int]
    edge_owner: dict[int, int]

    def validate(self) -> None:
        h, c = self.original, self.core
        owned = 0
        for ce in range(c.edge_count):
            epath = self.edge_expansion[ce]
            vpath = self.expansion_paths[ce]
            if len(vpath) != len(epath) + 1 or not epath:
                raise LiftFailedError("expansion shape mismatch")
            owned += len(epath)
            if any(self.edge_owner.get(e) != ce for e in epath):
                raise LiftFailedError("edge_owner disagrees with the expansions")
            for i, e in enumerate(epath):
                pair = h.endpoints[e]
                step = (vpath[i], vpath[i + 1])
                if pair != step and pair != (step[1], step[0]):
                    raise LiftFailedError("expansion path is not a walk in the original")
            a, b = c.endpoints[ce]
            if (self.vertex_image.get(vpath[0]), self.vertex_image.get(vpath[-1])) not in (
                (a, b),
                (b, a),
            ):
                raise LiftFailedError("expansion endpoints disagree with the core edge")
        # Every expansion edge is owned by its core edge, so equal counts
        # mean the expansions are edge-disjoint and own nothing else.
        if len(self.edge_owner) != owned:
            raise LiftFailedError("expansions are not edge-disjoint")
        pendants = self.pendant_support.keys()
        if self.edge_owner.keys() | pendants != set(range(h.edge_count)) or (
            self.edge_owner.keys() & pendants
        ):
            raise LiftFailedError("edge accounting failed: expansions + pendants != all edges")


def core(h: Multigraph) -> CoreMap:
    """Remove pendant edges to a fixed point, then suppress every degree-2
    vertex, recording the full back-mapping."""
    if not h.is_connected():
        raise DisconnectedGraphError("core is defined for connected multigraphs")

    # Phase 1: iterated pendant-edge removal (the 2-core of the graph).
    alive_edges = set(range(h.edge_count))
    pendant_support: dict[int, int] = {}
    degrees = list(h.degrees())
    inc = h.incidence()
    changed = True
    while changed:
        changed = False
        for v in range(h.n):
            if degrees[v] != 1:
                continue
            (e, w) = next(
                (e, w) for e, w in inc[v] if e in alive_edges
            )
            alive_edges.discard(e)
            pendant_support[e] = w
            degrees[v] -= 1
            degrees[w] -= 1
            changed = True

    # Phase 2: the core vertices are those of 2-core degree 3 or more (no
    # degree 1 is left).  Each thread of degree-2 vertices between two of
    # them becomes one core edge.
    core_vertices = [v for v in range(h.n) if degrees[v] > 2]
    if len(core_vertices) <= 1:
        raise DegenerateCoreError(
            f"core collapsed to {len(core_vertices)} vertices; "
            "the input has no vertex of degree 3 or more after pendant removal"
        )
    vertex_image = {v: i for i, v in enumerate(core_vertices)}
    threads = []
    for s in core_vertices:
        for e, w in inc[s]:
            if e not in alive_edges:
                continue
            alive_edges.discard(e)
            epath, vpath = [e], [s, w]
            while w not in vertex_image:
                e, w = next((f, x) for f, x in inc[w] if f in alive_edges)
                alive_edges.discard(e)
                epath.append(e)
                vpath.append(w)
            threads.append((epath, vpath))

    core_edges = []
    edge_expansion: dict[int, tuple[int, ...]] = {}
    expansion_paths: dict[int, tuple[int, ...]] = {}
    suppressed_location: dict[int, int] = {}
    edge_owner: dict[int, int] = {}
    # Core edges are numbered by their smallest original edge, and a thread
    # runs from its lower core vertex.  A loop thread already starts with its
    # smaller end edge: both ends are in inc[s], which lists edges by id.
    for ce, (epath, vpath) in enumerate(sorted(threads, key=lambda t: min(t[0]))):
        if vpath[0] > vpath[-1]:
            epath.reverse()
            vpath.reverse()
        core_edges.append((vertex_image[vpath[0]], vertex_image[vpath[-1]]))
        edge_expansion[ce] = tuple(epath)
        expansion_paths[ce] = tuple(vpath)
        for x in vpath[1:-1]:
            suppressed_location[x] = ce
        for e in epath:
            edge_owner[e] = ce
    core_graph = Multigraph(len(core_vertices), core_edges)
    cm = CoreMap(
        original=h,
        core=core_graph,
        pendant_support=pendant_support,
        vertex_image=vertex_image,
        core_vertex_origin=tuple(core_vertices),
        edge_expansion=edge_expansion,
        expansion_paths=expansion_paths,
        suppressed_location=suppressed_location,
        edge_owner=edge_owner,
    )
    cm.validate()
    return cm


def lift_walk(
    cm: CoreMap, vertices: tuple[int, ...], edges: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Expand a core walk into the original graph, replacing each core edge
    by its expansion path oriented to match the walk."""
    origin = cm.core_vertex_origin
    out_vertices = [origin[vertices[0]]]
    out_edges: list[int] = []
    for i, ce in enumerate(edges):
        vpath = list(cm.expansion_paths[ce])
        epath = list(cm.edge_expansion[ce])
        if origin[vertices[i]] == vpath[0]:
            pass
        elif origin[vertices[i]] == vpath[-1]:
            vpath.reverse()
            epath.reverse()
        else:
            raise LiftFailedError("walk vertex does not match expansion endpoint")
        out_vertices.extend(vpath[1:])
        out_edges.extend(epath)
    return tuple(out_vertices), tuple(out_edges)


def lift_closed_trail(cm: CoreMap, t: Trail) -> Trail:
    """Lift a closed trail of the core to a closed trail of the original.

    When the input spans the core, the lifted trail is checked to dominate
    every original edge (the executable content of the core's trail-lifting
    guarantee).  Both trails check themselves when built.
    """
    if t.host is not cm.core and t.host != cm.core:
        raise LiftFailedError("trail does not live in this core")
    if not t.is_closed:
        raise LiftFailedError("only closed trails lift")
    vertices, edges = lift_walk(cm, t.vertices, t.edges)
    lifted = Trail(cm.original, vertices, edges)
    if not lifted.is_closed:
        raise LiftFailedError("lift of a closed trail must be closed")
    if t.is_spanning():
        if not vertices_dominate_edges(cm.original, lifted.vertex_set()):
            raise LiftFailedError("lift of a spanning closed trail failed to dominate")
    return lifted
