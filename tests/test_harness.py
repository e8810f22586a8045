import io
import sys

import pytest

from hamconn.constructions import wagner_counterexample
from hamconn.errors import GraphError
from hamconn.harness import (
    VerificationReport,
    counterexample_report,
    property_table,
    verify_theorem_enumerated,
    verify_theorem_graphs,
    write_witnesses,
)
from hamconn.linegraph import line_graph
from hamconn.multigraph import cycle_graph

from oracles import enumerate_labeled_upto


class TestVerifyEnumerated:
    def test_small_bound_zero_violations_thm1(self):
        report = verify_theorem_enumerated(5, "thm1")
        assert report.passed
        assert report.check_monotone()
        assert dict(report.stage_counts)["total"] == 1 + 2 + 8 + 64 + 1024

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(GraphError):
            verify_theorem_enumerated(bound, "thm1")

    def test_small_bound_zero_violations_ageev(self):
        report = verify_theorem_enumerated(5, "ageev")
        assert report.passed and report.check_monotone()

    def test_workers_do_not_change_the_report(self):
        single = verify_theorem_enumerated(6, "thm1", workers=1)
        dual = verify_theorem_enumerated(6, "thm1", workers=2)
        assert single.stage_counts == dual.stage_counts
        assert single.violations == dual.violations

    def test_pool_is_capped_by_cpus_and_chunks(self, monkeypatch):
        # a fake pool records its size and maps serially, so no process starts
        import multiprocessing
        import os

        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = verify_theorem_enumerated(7, "thm1")
        capped = verify_theorem_enumerated(7, "thm1", workers=10**6)
        assert sizes == [3]
        assert capped.stage_counts == serial.stage_counts
        assert capped.violations == serial.violations
        # one chunk, or none, runs without a pool
        verify_theorem_graphs([cycle_graph(k) for k in range(3, 8)], "thm1", workers=10**6)
        empty = verify_theorem_graphs([], "thm1", workers=10**6)
        assert all(count == 0 for _, count in empty.stage_counts)
        # an unknown CPU count means one process
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        verify_theorem_enumerated(7, "thm1", workers=10**6)
        assert sizes == [3]

    @pytest.mark.parametrize("hypothesis", ["thm1", "ageev"])
    def test_classes_match_the_labeled_scan(self, hypothesis):
        by_class = verify_theorem_enumerated(6, hypothesis)
        labeled = verify_theorem_graphs(enumerate_labeled_upto(6), hypothesis)
        assert by_class.stage_counts == labeled.stage_counts
        assert by_class.violations == labeled.violations == ()

    @pytest.mark.parametrize("hypothesis", ["thm1", "ageev"])
    def test_claw_free_classes_match_the_full_class_tally(self, hypothesis, graph_classes_7):
        # only the claw-free classes are generated; total and connected are
        # closed forms, checked here against every class of the full generator
        from oracles import full_class_tally

        expected = full_class_tally(graph_classes_7, hypothesis)
        for bound in range(1, 8):
            report = verify_theorem_enumerated(bound, hypothesis)
            assert tuple(c for _, c in report.stage_counts) == expected[bound]
            assert report.violations == ()

    def test_violation_counts_its_labeled_copies(self, monkeypatch):
        # Only K4 stays hamiltonian on 4 vertices: C4 (3 labeled copies) and
        # K4 minus an edge (6 copies) become one violation each.
        import hamconn.harness as harness

        real = harness.is_hamiltonian
        monkeypatch.setattr(
            harness, "is_hamiltonian", lambda g: real(g) and (g.n != 4 or g.edge_count == 6)
        )
        report = verify_theorem_enumerated(4, "ageev")
        assert sorted(v.copies for v in report.violations) == [3, 6]
        assert all(v.pair is None for v in report.violations)
        counts = [c for _, c in report.stage_counts]
        assert counts[-2] - counts[-1] == 9 and report.check_monotone()
        labeled = verify_theorem_graphs(enumerate_labeled_upto(4), "ageev")
        assert labeled.stage_counts == report.stage_counts and len(labeled.violations) == 9
        text = report.format()
        assert "copies=3" in text and "copies=6" in text
        out = io.StringIO()
        write_witnesses(report, out)
        assert out.getvalue() == "".join(f"{v.graph6}\n" for v in report.violations)
        assert len(out.getvalue().splitlines()) == 2

    def test_failed_monotonicity_check_raises(self, monkeypatch):
        from hamconn.errors import LiftFailedError

        monkeypatch.setattr(VerificationReport, "check_monotone", lambda self: False)
        with pytest.raises(LiftFailedError):
            verify_theorem_enumerated(3, "thm1")
        with pytest.raises(LiftFailedError):
            verify_theorem_graphs([cycle_graph(4)], "ageev")

    def test_unknown_hypothesis(self):
        from hamconn.errors import GraphError

        with pytest.raises(GraphError):
            verify_theorem_enumerated(4, "zorn")


class TestVerifyGraphs:
    def test_counterexample_is_filtered_at_domination(self):
        report = counterexample_report(1)
        g = report.graph
        vr = verify_theorem_graphs([g], "thm1")
        counts = dict(vr.stage_counts)
        assert counts["3-connected"] == 1
        assert counts["domination<=3"] == 0
        assert vr.passed  # filtered out, hence no violation

    def test_petersen_filtered_by_claws(self):
        from hamconn.constructions import petersen

        vr = verify_theorem_graphs([petersen()], "ageev")
        counts = dict(vr.stage_counts)
        assert counts["claw-free"] == 0 and vr.passed

    def test_mixed_corpus_stage_counts(self, k4, c5):
        vr = verify_theorem_graphs([k4, c5, cycle_graph(6)], "thm1")
        counts = dict(vr.stage_counts)
        assert counts["total"] == 3
        assert counts["claw-free"] == 3  # cycles and K4 are claw-free
        assert counts["3-connected"] == 1  # only K4
        assert counts["hamiltonian-connected"] == 1 and vr.passed

    def test_witness_file(self):
        from hamconn.harness import Violation

        report = VerificationReport(
            hypothesis="thm1",
            stage_counts=(("total", 1),),
            violations=(Violation("D~{", (0, 1)), Violation("C~", None)),
            elapsed=0.0,
        )
        out = io.StringIO()
        write_witnesses(report, out)
        assert out.getvalue() == "D~{ 0 1\nC~\n"


class TestPropertyTable:
    def test_petersen_values(self):
        from hamconn.constructions import petersen

        rows = dict(property_table(petersen()))
        assert rows["claw-free"] is False
        assert rows["vertex connectivity"] == 3
        assert rows["domination number"] == 3
        assert rows["hamiltonian"] is False
        assert rows["line graph of a multigraph"] is False

    def test_k4_values(self, k4):
        rows = dict(property_table(k4))
        assert rows["claw-free"] is True
        assert rows["vertex connectivity"] == 3
        assert rows["domination number"] == 1
        assert rows["hamiltonian-connected"] is True
        assert rows["preimage pendant edges"] == 4

    def test_counterexample_values(self):
        report = counterexample_report(1)
        rows = dict(property_table(report.graph))
        assert rows["claw-free"] is True
        assert rows["domination number"] == 4
        assert rows["hamiltonian-connected"] is False


def _count_line_graph_builds(monkeypatch) -> list:
    """Route every hamconn module's ``line_graph`` through a recorder; the
    list it returns holds one entry per line graph built."""
    built = []

    def counting(h):
        built.append(h)
        return line_graph(h)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hamconn" and getattr(module, "line_graph", None) is line_graph:
            monkeypatch.setattr(module, "line_graph", counting)
    return built


class TestLineGraphBuiltOnce:
    # L(H_1) has 20 vertices; the IDT census checks the caller's copy
    # instead of building its own

    def test_counterexample_report(self, monkeypatch):
        built = _count_line_graph_builds(monkeypatch)
        counterexample_report(1)
        assert len(built) == 1

    def test_property_table(self, monkeypatch):
        g, _ = wagner_counterexample(1)
        built = _count_line_graph_builds(monkeypatch)
        assert dict(property_table(g))["hamiltonian-connected"] is False
        assert len(built) == 1


class TestCounterexampleReport:
    def test_one_pendant(self):
        report = counterexample_report(1)
        assert report.graph.n == 20
        assert report.demonstrates_sharpness
        # the failing pair really fails, rechecked from scratch
        from hamconn.trails import hamiltonian_path

        assert hamiltonian_path(report.graph, *report.failing_pair) is None

    @pytest.mark.parametrize("pendants", range(1, 7))
    def test_sharp_for_every_pendant_count(self, pendants):
        report = counterexample_report(pendants)
        assert report.graph.n == 12 + 8 * pendants
        assert report.failing_pair == (8, 10)
        assert report.demonstrates_sharpness

    def test_report_format_mentions_the_pair(self):
        report = counterexample_report(1)
        text = report.format()
        assert "domination number:      4" in text
        assert "no hamiltonian path" in text
