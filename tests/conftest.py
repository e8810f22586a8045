import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hamconn.corpus import graph_classes
from hamconn.multigraph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from oracles import connected_graphs_up_to_isomorphism, enumerate_multigraph_corpus


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def c7():
    return cycle_graph(7)


@pytest.fixture
def claw():
    return star_graph(3)


@pytest.fixture
def p4():
    return path_graph(4)


@pytest.fixture
def k4_with_pendants():
    """K4 plus one pendant edge at each vertex (essentially 3-edge-connected)."""
    return Multigraph(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)],
    )


@pytest.fixture
def triangle_with_pendant():
    """Triangle 0,1,2 plus the pendant edge (0, 3)."""
    return Multigraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])


@pytest.fixture(scope="session")
def connected_graphs_6():
    """One graph per isomorphism class of connected graphs on 1..6 vertices."""
    return connected_graphs_up_to_isomorphism(6)


@pytest.fixture(scope="session")
def graph_classes_7():
    """(representative, labeled count) for each of the 1,252 isomorphism
    classes of simple graphs on 1..7 vertices."""
    return list(graph_classes(7))


@pytest.fixture(scope="session")
def graph_classes_8():
    """(representative, labeled count) for each of the 13,598 isomorphism
    classes of simple graphs on 1..8 vertices."""
    return list(graph_classes(8))


@pytest.fixture(scope="session")
def equivalence_corpus():
    """Connected loopless multigraphs on at most 6 vertices with 3..9 edges and
    edge multiplicity at most 3, exhaustive up to isomorphism (4,119 graphs)."""
    return list(
        enumerate_multigraph_corpus(max_vertices=6, min_edges=3, max_edges=9, max_multiplicity=3)
    )
