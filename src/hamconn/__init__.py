"""Combinatorial graph algorithms around hamiltonian connectivity of
claw-free graphs: multigraph cores, dominating trails, line-graph
preimages, and an exhaustive verification harness."""

from .constructions import petersen, wagner, wagner_counterexample
from .core import CoreLocation, CoreMap, core, lift_closed_trail, project_vertex
from .corpus import (
    CorpusRecord,
    enumerate_multigraph_corpus,
    graph_classes,
    read_corpus_file,
)
from .encoding import (
    decode_edgelist,
    decode_graph6,
    decode_sparse6,
    encode_edgelist,
    encode_graph6,
    encode_sparse6,
)
from .errors import (
    DegenerateCoreError,
    DisconnectedGraphError,
    GraphError,
    LiftFailedError,
    NoCoreLocationError,
    NotALineGraphOfMultigraphError,
    NotEssentially3EdgeConnectedError,
    TrailNotFoundError,
    UnknownEdgeError,
    UnknownVertexError,
)
from .invariants import (
    DominatingSet,
    dominating_set,
    domination_number,
    edge_connectivity,
    edges_dominate,
    find_claw,
    is_claw_free,
    is_essentially_k_edge_connected,
    is_k_connected,
    simplicial_vertices,
    vertex_connectivity,
)
from .linegraph import LineGraphMap, is_line_graph_of_multigraph, line_graph, preimage
from .multigraph import (
    Multigraph,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    find_isomorphism,
    isomorphic,
    path_graph,
    relabel,
    star_graph,
)
from .reduction import (
    PipelineContext,
    PipelineRun,
    build_hn,
    idt_from_trail,
    idt_to_ham_path,
    missing_idt_pair,
    pick_z,
    project_edge,
    run_pipeline,
)
from .trails import (
    IdtWitness,
    Trail,
    find_closed_trail_through,
    find_dct,
    find_hamiltonian_cycle,
    find_idt,
    find_spanning_closed_trail,
    hamiltonian_path,
    is_hamiltonian,
    is_hamiltonian_connected,
    missing_hamiltonian_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
