"""Theorem-verification harness, property tables, and counterexample report.

The harness filters graphs through the hypothesis stages (cheapest first)
and checks the conclusion on the survivors, reporting per-stage counts and
any violating graphs as re-checkable witnesses.  Every stage predicate is an
isomorphism invariant, so the exhaustive check runs once per isomorphism
class (``corpus.graph_classes``) and adds the class's labeled count to each
stage it passes.  Both hypotheses require a claw-free graph, so only the
claw-free classes are generated and only the connected ones are checked;
the ``total`` and ``connected`` counts come from closed forms
(``corpus.labeled_counts``).  On up to 10 vertices, 42,179 claw-free
classes are generated, and the 35,253,362,132,043 labeled graphs are
counted, not built.  Work can fan out across a process pool; per-graph
work is pure and reports merge deterministically in input order, so worker
count never changes the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterable, Optional

from .constructions import wagner_counterexample
from .corpus import graph_classes, labeled_counts
from .encoding import encode_graph6
from .errors import GraphError, LiftFailedError, NotALineGraphOfMultigraphError
from .invariants import (
    dominating_set,
    domination_number,
    find_claw,
    is_essentially_k_edge_connected,
    is_k_connected,
    vertex_connectivity,
)
from .linegraph import line_graph, preimage
from .multigraph import Multigraph, SimpleGraph
from .reduction import missing_idt_pair
from .trails import (
    find_dct,
    is_hamiltonian,
    missing_hamiltonian_pair,
)

HYPOTHESES = ("thm1", "ageev")

_STAGES = {
    "thm1": ("total", "connected", "claw-free", "3-connected", "domination<=3"),
    "ageev": ("total", "connected", "claw-free", "2-connected", "domination<=2"),
}
# The vertex connectivity and the domination budget each hypothesis filters on.
_THRESHOLDS = {"thm1": (3, 3), "ageev": (2, 2)}
_CONCLUSIONS = {"thm1": "hamiltonian-connected", "ageev": "hamiltonian"}


@dataclass(frozen=True)
class Violation:
    """One violating graph; ``copies`` is the number of labeled graphs it
    stands for (its class's labeled count in the exhaustive check)."""

    graph6: str
    pair: Optional[tuple[int, int]]
    copies: int = 1


@dataclass(frozen=True)
class VerificationReport:
    hypothesis: str
    stage_counts: tuple[tuple[str, int], ...]
    violations: tuple[Violation, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def check_monotone(self) -> bool:
        """Stage counts never increase, and every hypothesis survivor either
        satisfies the conclusion or appears among the violations."""
        counts = [c for _, c in self.stage_counts]
        if not all(a >= b for a, b in zip(counts, counts[1:])):
            return False
        return counts[-2] == counts[-1] + sum(v.copies for v in self.violations)

    def format(self) -> str:
        lines = [f"hypothesis: {self.hypothesis}"]
        for name, count in self.stage_counts:
            lines.append(f"  {name:24s} {count}")
        lines.append(f"  violations               {len(self.violations)}")
        for v in self.violations:
            pair = f" pair={v.pair}" if v.pair else ""
            copies = f" copies={v.copies}" if v.copies > 1 else ""
            lines.append(f"    {v.graph6}{pair}{copies}")
        lines.append(f"  elapsed                  {self.elapsed:.1f}s")
        return "\n".join(lines)


def _stage_filter(g: SimpleGraph, hypothesis: str) -> int:
    """Index of the last hypothesis stage the graph passes (0 = total only)."""
    if not g.is_connected():
        return 1
    if find_claw(g) is not None:
        return 2
    k, budget = _THRESHOLDS[hypothesis]
    if not is_k_connected(g, k):
        return 3
    if dominating_set(g, budget) is None:
        return 4
    return 5


def _check_graph(g: SimpleGraph, hypothesis: str, copies: int) -> tuple[int, Optional[Violation]]:
    """(number of stages passed, violation if the conclusion fails)."""
    reached = _stage_filter(g, hypothesis)
    if reached < 5:
        return reached, None
    if hypothesis == "thm1":
        pair = missing_hamiltonian_pair(g)
        if pair is None:
            return 6, None
        return 5, Violation(encode_graph6(g), pair, copies)
    if is_hamiltonian(g):
        return 6, None
    return 5, Violation(encode_graph6(g), None, copies)


def _tally(
    items: list[tuple[SimpleGraph, int]], hypothesis: str
) -> tuple[list[int], list[Violation]]:
    """Stage counts and violations over a run of (graph, copies) items, in
    input order; each graph counts ``copies`` times."""
    counts = [0] * 6
    violations: list[Violation] = []
    for g, copies in items:
        reached, violation = _check_graph(g, hypothesis, copies)
        for i in range(reached):
            counts[i] += copies
        if violation is not None:
            violations.append(violation)
    return counts, violations


def _worker(args: tuple[list[tuple[SimpleGraph, int]], str]) -> tuple[list[int], list[Violation]]:
    return _tally(*args)


def _merged_report(
    hypothesis: str,
    items: list[tuple[SimpleGraph, int]],
    workers: int,
    start: float,
    head: Optional[tuple[int, int]] = None,
) -> VerificationReport:
    """Tally the (graph, copies) items in chunks (in a pool when
    ``workers > 1``) and merge their stage counts and violations in input
    order into one checked report.  ``head``, when given, holds the
    ``total`` and ``connected`` counts of the corpus the items were drawn
    from, and replaces the items' own counts for those two stages."""
    chunk = 64
    jobs = [(items[lo : lo + chunk], hypothesis) for lo in range(0, len(items), chunk)]
    if workers <= 1:
        results = [_worker(job) for job in jobs]
    else:
        with Pool(processes=workers) as pool:
            results = pool.map(_worker, jobs, chunksize=1)
    counts = [0] * 6
    violations: list[Violation] = []
    for partial_counts, partial_violations in results:
        for i in range(6):
            counts[i] += partial_counts[i]
        violations.extend(partial_violations)
    if head is not None:
        counts[:2] = head
    stage_names = _STAGES[hypothesis] + (_CONCLUSIONS[hypothesis],)
    report = VerificationReport(
        hypothesis=hypothesis,
        stage_counts=tuple(zip(stage_names, counts)),
        violations=tuple(violations),
        elapsed=time.time() - start,
    )
    if not report.check_monotone():
        raise LiftFailedError("stage counts are not monotone or miss a survivor")
    return report


def verify_theorem_enumerated(
    bound: int, hypothesis: str, workers: int = 1
) -> VerificationReport:
    """Filter every labeled simple graph on 1..bound vertices through the
    hypothesis stages and test the conclusion on the survivors.

    Each connected claw-free isomorphism class is checked once, on its
    representative from ``graph_classes(bound, claw_free=True)``, and
    counts as many times as it has labeled graphs; a violation reports the
    representative and that count as ``copies``.  The graphs with a claw
    never pass the claw-free stage, so they are not generated: the
    ``total`` and ``connected`` counts are the closed forms of
    ``labeled_counts``.  ``bound`` runs from 1 to 10.
    """
    if hypothesis not in HYPOTHESES:
        raise GraphError(f"unknown hypothesis {hypothesis!r}")
    if bound < 1:
        raise GraphError(f"vertex bound {bound} is below 1")
    start = time.time()
    items = [(g, copies) for g, copies in graph_classes(bound, claw_free=True) if g.is_connected()]
    counts = [labeled_counts(n) for n in range(1, bound + 1)]
    head = (sum(total for total, _ in counts), sum(connected for _, connected in counts))
    return _merged_report(hypothesis, items, workers, start, head)


def verify_theorem_graphs(
    graphs: Iterable[SimpleGraph], hypothesis: str, workers: int = 1
) -> VerificationReport:
    """The same filter chain over an explicit graph collection."""
    if hypothesis not in HYPOTHESES:
        raise GraphError(f"unknown hypothesis {hypothesis!r}")
    start = time.time()
    return _merged_report(hypothesis, [(g, 1) for g in graphs], workers, start)


def write_witnesses(report: VerificationReport, path: str) -> None:
    with open(path, "w") as fh:
        for v in report.violations:
            if v.pair is not None:
                fh.write(f"{v.graph6} {v.pair[0]} {v.pair[1]}\n")
            else:
                fh.write(f"{v.graph6}\n")


# -- property table ---------------------------------------------------------------------


def property_table(g: Multigraph) -> list[tuple[str, object]]:
    """Deterministic (name, value) rows describing one graph."""
    rows: list[tuple[str, object]] = [
        ("vertices", g.n),
        ("edges", g.edge_count),
        ("connected", g.is_connected()),
    ]
    simple = isinstance(g, SimpleGraph)
    if not simple:
        try:
            g = SimpleGraph(g.n, g.endpoints)
            simple = True
        except GraphError:
            rows.append(("simple", False))
            if g.is_connected():
                rows.append(
                    ("essentially 3-edge-connected", is_essentially_k_edge_connected(g, 3))
                )
                rows.append(("dominating closed trail", find_dct(g) is not None))
    if simple:
        claw = find_claw(g)
        rows.append(("claw-free", claw is None))
        if claw is not None:
            rows.append(("claw witness", claw))
        rows.append(("vertex connectivity", vertex_connectivity(g)))
        if g.n >= 1:
            rows.append(("domination number", domination_number(g)))
        h = None
        if g.is_connected():
            try:
                h = preimage(g)
            except NotALineGraphOfMultigraphError:
                pass
        if g.n >= 3:
            rows.append(("hamiltonian", is_hamiltonian(g)))
        if g.n >= 2:
            # A line graph is decided on its preimage, any other graph directly.
            if h is not None and g.n >= 3:
                pair = missing_idt_pair(line_graph(h))
            else:
                pair = missing_hamiltonian_pair(g)
            rows.append(("hamiltonian-connected", pair is None))
            if pair is not None:
                rows.append(("non-hamiltonian pair", pair))
        if g.is_connected():
            rows.append(("line graph of a multigraph", h is not None))
            if h is not None:
                pendants = sum(
                    1
                    for u, v in h.endpoints
                    if h.degree(u) == 1 or h.degree(v) == 1
                )
                rows.append(("preimage vertices", h.n))
                rows.append(("preimage edges", h.edge_count))
                rows.append(("preimage pendant edges", pendants))
    return rows


# -- sharpness counterexample -------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    graph: SimpleGraph
    source: Multigraph
    claw_free: bool
    connectivity: int
    domination: int
    hamiltonian_connected: bool
    failing_pair: Optional[tuple[int, int]]

    @property
    def demonstrates_sharpness(self) -> bool:
        return (
            self.claw_free
            and self.connectivity >= 3
            and self.domination == 4
            and not self.hamiltonian_connected
            and self.failing_pair is not None
        )

    def format(self) -> str:
        lines = [
            f"|V(g)| = {self.graph.n}, |E(g)| = {self.graph.edge_count}",
            f"|V(h)| = {self.source.n}, |E(h)| = {self.source.edge_count}",
            f"claw-free:              {self.claw_free}",
            f"vertex connectivity:    {self.connectivity}",
            f"domination number:      {self.domination}",
            f"hamiltonian-connected:  {self.hamiltonian_connected}",
        ]
        if self.failing_pair is not None:
            u, v = self.failing_pair
            lines.append(f"no hamiltonian path:    {u} .. {v}")
        lines.append(f"sharpness demonstrated: {self.demonstrates_sharpness}")
        return "\n".join(lines)


def counterexample_report(pendants_per_vertex: int = 1) -> CounterexampleReport:
    """Build the sharpness counterexample and verify all four claims.

    Hamiltonian connectivity of g = L(h) is decided on the preimage side,
    by the IDT census of h (``missing_idt_pair``); the failing pair is a
    vertex pair of g.
    """
    g, h = wagner_counterexample(pendants_per_vertex)
    pair = missing_idt_pair(line_graph(h))
    return CounterexampleReport(
        graph=g,
        source=h,
        claw_free=find_claw(g) is None,
        connectivity=vertex_connectivity(g),
        domination=domination_number(g),
        hamiltonian_connected=pair is None,
        failing_pair=pair,
    )
