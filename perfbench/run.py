"""Benchmark for hamconn: four workloads through the public API, one process.

    python3 perfbench/run.py --workload verify-n6 --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

  verify-n6           verify_theorem_enumerated(6, "thm1") and (6, "ageev")
  pipeline-symmetric  run_pipeline on sampled pairs of L(K5), L(K3,3),
                      L(Petersen), L(K6)
  pipeline-random     run_pipeline on all pairs of seeded random L(H)
  sharpness           counterexample_report(1), (2) and find_idt over every
                      ordered edge pair of H_1, H_2, H_3

Every workload repeats rounds of fixed work until ``--seconds`` have passed
and the rounds make whole cycles over its inputs, checks every output
against references in check.py, and prints the workload's own metrics in
wall-clock units, then one JSON line.  With ``--trace 0`` the JSON carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run next to an untraced one.
Times in the JSON are normalized by the calibration loop in meter.py.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
import meter  # noqa: E402
from tracer import SpanRecorder  # noqa: E402

SETUP_REPEATS = 5
VERIFY_BOUND = 6
CEX_PENDANTS = (1, 2)
CENSUS_PENDANTS = (1, 2, 3)


# -- library loading ------------------------------------------------------------


class Library:
    """The hamconn package and its harness module, imported from ``src/`` of
    this checkout.  Calls go through module attributes at call time so that
    the tracer's wrappers are seen."""

    def __init__(self) -> None:
        for name in [k for k in sys.modules if k == "hamconn" or k.startswith("hamconn.")]:
            del sys.modules[name]
        if not os.path.isfile(os.path.join(SRC, "hamconn", "__init__.py")):
            raise SystemExit(f"perfbench: no hamconn package under {SRC}")
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        self.api = importlib.import_module("hamconn")
        self.harness = importlib.import_module("hamconn.harness")
        if not os.path.abspath(self.api.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: imported hamconn from {self.api.__file__}, not {SRC}")


# -- measurement record ---------------------------------------------------------------


class Tally:
    """What one phase of a run measured.  Per round: its item count, the
    normalized time of its item calls and of the whole round.  Pooled over
    rounds: item latencies (normalized and raw), calibration factors,
    operations attempted and failed, and raw call times by kind."""

    def __init__(self) -> None:
        self.rounds: list[tuple[int, float, float]] = []
        self.item_norm: list[float] = []
        self.item_raw: list[float] = []
        self.factors: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.calls: dict[str, list[float]] = {}

    def add_batch(self, batch: meter.Batch, latencies: bool = True) -> float:
        """Record a finished batch; returns its normalized total."""
        self.factors.append(batch.factor)
        if latencies:
            self.item_raw.extend(batch.raw)
            self.item_norm.extend(batch.normalized())
        return sum(batch.normalized())

    def close_round(self, items: int, item_s: float, round_s: float) -> None:
        self.rounds.append((items, item_s, round_s))

    def note(self, kind: str, seconds: float) -> None:
        self.calls.setdefault(kind, []).append(seconds)

    def outcome(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _timed(fn, *args):
    """(result, seconds, exception) of one call, without the time the
    calibration handler took while it ran."""
    stolen = meter.stolen()
    t = time.perf_counter()
    try:
        result, exc = fn(*args), None
    except Exception as error:  # a failing call is counted, not fatal
        result, exc = None, error
    return result, time.perf_counter() - t - (meter.stolen() - stolen), exc


# -- workloads -----------------------------------------------------------------------
#
# Each workload has build(lib, seed) -> state, called in set-up, and
# run_round(lib, state, r, tally) -> digest, the r-th round of fixed work.
# The digest holds the round's outputs, so the rounds of a traced phase can
# be compared with those of an untraced one.


class VerifyN6:
    """One round is one call per hypothesis; its items are the labeled
    graphs, and its single latency sample is round time per graph."""

    name = "verify-n6"
    graphs_per_round = 0

    def cycle(self, state):
        return 2  # both orders of the two hypotheses

    def build(self, lib, seed):
        # The enumeration is fixed; the seed only sets which hypothesis goes
        # first in round 0, and later rounds alternate.
        return seed % 2

    def run_round(self, lib, first, r, tally):
        order = ("thm1", "ageev") if (first + r) % 2 == 0 else ("ageev", "thm1")
        digest = {}
        round_s = 0.0
        items = 0
        for hypothesis in order:
            with meter.Batch() as batch:
                report, seconds, exc = _timed(lib.harness.verify_theorem_enumerated, VERIFY_BOUND, hypothesis)
                batch.raw.append(seconds)
            round_s += tally.add_batch(batch, latencies=False)
            items += check.VERIFY_REFERENCE[hypothesis][0]
            tally.note(hypothesis, seconds)
            counts = tuple(c for _, c in report.stage_counts) if exc is None else None
            violations = len(report.violations) if exc is None else None
            tally.outcome(counts == check.VERIFY_REFERENCE[hypothesis] and violations == 0)
            digest[hypothesis] = (counts, violations)
        tally.item_norm.append(round_s / items)
        tally.close_round(items, round_s, round_s)
        return digest


class Pipeline:
    """Shared by both pipeline workloads: state is a list of graphs as
    (n, edges, dominating set, pairs) of plain data, and round r runs the
    pairs of the next graphs_per_round graphs, cycling through the list."""

    def cycle(self, graphs):
        return len(graphs) // self.graphs_per_round

    def run_round(self, lib, graphs, r, tally):
        api = lib.api
        paths = []
        round_s = 0.0
        items = 0
        k = self.graphs_per_round
        for i in range(r * k, (r + 1) * k):
            n, edges, dom, pairs = graphs[i % len(graphs)]
            # Fresh objects every round, so nothing cached on a graph object
            # survives from one round into the next.
            g = api.SimpleGraph(n, edges)
            d = api.DominatingSet(frozenset(dom), g)
            adjacency = inputs.adjacency_masks(n, edges)
            with meter.Batch() as batch:
                for u, v in pairs:
                    run, seconds, exc = _timed(api.run_pipeline, g, u, v, d)
                    batch.raw.append(seconds)
                    path = None if exc is not None else tuple(run.path.vertices)
                    tally.outcome(path is not None and check.ham_path_ok(n, adjacency, u, v, path))
                    paths.append(path)
            round_s += tally.add_batch(batch)
            items += len(pairs)
        tally.close_round(items, round_s, round_s)
        return paths


class PipelineSymmetric(Pipeline):
    name = "pipeline-symmetric"
    graphs_per_round = len(inputs.SYMMETRIC_GRAPHS)

    def build(self, lib, seed):
        return inputs.symmetric_pipeline_graphs(seed)


class PipelineRandom(Pipeline):
    # One graph per round, so that items_per_s is the median graph's pair
    # throughput: a rare graph whose preimage search is 50x slower than
    # typical moves the mean by 30% between seeds but not the median.
    name = "pipeline-random"
    graphs_per_round = 1

    def build(self, lib, seed):
        return inputs.random_pipeline_graphs(seed)


class Sharpness:
    """One round is counterexample_report(1) and (2) plus the IDT census;
    the items are the census's find_idt calls."""

    name = "sharpness"
    graphs_per_round = 0

    def cycle(self, state):
        return 1

    def build(self, lib, seed):
        # Inputs are fixed by the construction; the seed sets the order in
        # which the census walks the ordered pairs of each H_p.
        census = []
        for p in CENSUS_PENDANTS:
            n, edges = inputs.wagner_pendant_preimage(p)
            pairs = list(itertools.permutations(range(len(edges)), 2))
            random.Random(f"sharpness/{seed}/{p}").shuffle(pairs)
            census.append((n, edges, pairs))
        return census

    def run_round(self, lib, state, r, tally):
        verdict_s = 0.0
        verdict_raw = 0.0
        failing = {}
        for p in CEX_PENDANTS:
            with meter.Batch() as batch:
                report, seconds, exc = _timed(lib.harness.counterexample_report, p)
                batch.raw.append(seconds)
            verdict_s += tally.add_batch(batch, latencies=False)
            verdict_raw += seconds
            ok = exc is None and report.demonstrates_sharpness and report.failing_pair == check.FAILING_PAIR
            tally.outcome(ok)
            failing[p] = None if exc is not None else report.failing_pair
        tally.note("cex_verdict", verdict_raw)
        census = {}
        census_s = 0.0
        items = 0
        for p, (n, edges, pairs) in zip(CENSUS_PENDANTS, state):
            h = lib.api.Multigraph(n, edges)
            missing = set()
            with meter.Batch() as batch:
                for e1, e2 in pairs:
                    witness, seconds, exc = _timed(lib.api.find_idt, h, e1, e2)
                    batch.raw.append(seconds)
                    if exc is not None:
                        tally.outcome(False)
                        continue
                    if witness is None:
                        missing.add((e1, e2))
                        tally.outcome((e1, e2) in check.NO_IDT_PAIRS)
                    else:
                        trail = witness.trail
                        tally.outcome(check.idt_ok(edges, e1, e2, tuple(trail.vertices), tuple(trail.edges)))
            census_s += tally.add_batch(batch)
            items += len(pairs)
            # The census must find exactly the reference pairs, and its least
            # pair must be the failing pair the line-graph side reported.
            tally.outcome(missing == check.NO_IDT_PAIRS and min(missing) == check.FAILING_PAIR)
            census[p] = tuple(sorted(missing))
        tally.outcome(all(census[q] and failing[p] == min(census[q]) for p in CEX_PENDANTS for q in census))
        tally.close_round(items, census_s, verdict_s + census_s)
        return {"failing": failing, "census": census}


WORKLOADS = {w.name: w for w in (VerifyN6(), PipelineSymmetric(), PipelineRandom(), Sharpness())}


# -- phases ----------------------------------------------------------------------------


def _load(workload, seed):
    lib = Library()
    return lib, workload.build(lib, seed)


def set_up(workload, seed):
    """Import the library and build the inputs SETUP_REPEATS times; return
    the last copy and the median normalized set-up time."""
    times_norm, times_raw = [], []
    for _ in range(SETUP_REPEATS):
        with meter.Batch() as batch:
            loaded, seconds, exc = _timed(_load, workload, seed)
            if exc is not None:
                raise exc
            batch.raw.append(seconds)
        times_norm.extend(batch.normalized())
        times_raw.extend(batch.raw)
    lib, state = loaded
    return lib, state, statistics.median(times_norm), statistics.median(times_raw)


def measure(workload, lib, state, seconds, tally):
    """Rounds 0, 1, ... until ``seconds`` have passed and the rounds make
    whole cycles over the inputs, so every run weighs every input the same;
    returns the digest of every round."""
    digests = []
    cycle = workload.cycle(state)
    deadline = time.perf_counter() + seconds
    while not digests or len(digests) % cycle or time.perf_counter() < deadline:
        gc.collect()
        digests.append(workload.run_round(lib, state, len(digests), tally))
    return digests


def quantile(values, q):
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(tally, setup_norm):
    return {
        "setup_s": (setup_norm, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (statistics.median(items / item_s for items, item_s, _ in tally.rounds), "1/s"),
        "item_p50_ms": (1000 * statistics.median(tally.item_norm), "ms"),
        "item_p90_ms": (1000 * quantile(tally.item_norm, 90), "ms"),
        "round_s": (statistics.median(round_s for _, _, round_s in tally.rounds), "s"),
    }


def wall_clock_report(workload, tally, setup_raw):
    """The workload's own metrics (thm1_graphs_per_s, pair_p90_ms, ...) in raw
    wall-clock units."""
    rows = [("setup_s", setup_raw, "s")]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows.append(("peak_rss_mb", rss, "MB"))
    rows.append(("error_rate", tally.failed / max(tally.attempted, 1), "ratio"))
    if workload.name == "verify-n6":
        for h in ("thm1", "ageev"):
            rows.append((f"{h}_graphs_per_s", check.VERIFY_REFERENCE[h][0] / statistics.median(tally.calls[h]), "1/s"))
    elif workload.name.startswith("pipeline-"):
        rows.append(("pairs_per_s", len(tally.item_raw) / sum(tally.item_raw), "1/s"))
        rows.append(("pair_p50_ms", 1000 * statistics.median(tally.item_raw), "ms"))
        rows.append(("pair_p90_ms", 1000 * quantile(tally.item_raw, 90), "ms"))
        rows.append(("pairs_timed", len(tally.item_raw), "count"))
    else:
        rows.append(("cex_verdict_s", statistics.median(tally.calls["cex_verdict"]), "s"))
        rows.append(("idt_pairs_per_s", len(tally.item_raw) / sum(tally.item_raw), "1/s"))
    rows.append(("rounds", len(tally.rounds), "count"))
    rows.append(("speed_factor", statistics.median(tally.factors), "ratio"))
    return rows


def per_layer(workload, summary, rounds, factor, overhead):
    """Per-layer metrics per traced round; self times normalized."""
    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "none": 0, "errors": 0, "under": {}})

    def calls(name):
        return row(name)["calls"] / rounds

    def self_s(name):
        return row(name)["self_s"] * factor / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    graphs = workload.graphs_per_round
    idt = row("trails.find_idt")
    m = {}
    for name in ("corpus.graph_from_edge_mask", "multigraph.canonical_labeling", "linegraph.preimage",
                 "invariants.dominating_set", "trails.hamiltonian_path", "invariants.edge_connectivity",
                 "trails.find_idt"):
        m[f"{name}.calls"] = (calls(name), "count", "lower")
    m["invariants.vertex_connectivity.calls"] = (calls("invariants.vertex_connectivity"), "count", "lower")
    for name in ("corpus.graph_from_edge_mask", "multigraph.is_connected", "invariants.find_claw",
                 "invariants.is_k_connected", "invariants.dominating_set", "trails.hamiltonian_path",
                 "trails.missing_hamiltonian_pair", "trails.find_hamiltonian_cycle",
                 "multigraph.canonical_labeling", "linegraph.preimage", "linegraph.line_graph",
                 "core.core", "invariants.find_essential_cut", "invariants.edge_connectivity",
                 "reduction.run_pipeline", "reduction.project_edge", "reduction.build_hn",
                 "reduction.pick_z", "reduction.idt_from_trail", "reduction.idt_to_ham_path",
                 "trails.find_closed_trail_through", "trails.find_idt", "invariants.domination_number",
                 "harness.verify_theorem_enumerated", "harness.counterexample_report"):
        m[f"{name}.self_s"] = (self_s(name), "s", "lower")
    m["trails.hamiltonian_path.calls_per_survivor"] = (
        ratio(row("trails.hamiltonian_path")["calls"], row("trails.missing_hamiltonian_pair")["calls"]),
        "ratio", "lower")
    m["linegraph.preimage.calls_per_graph"] = (
        ratio(row("linegraph.preimage")["calls"], graphs * rounds), "ratio", "lower")
    m["core.core.calls_per_graph"] = (ratio(row("core.core")["calls"], graphs * rounds), "ratio", "lower")
    m["reduction.run_pipeline.errors"] = (row("reduction.run_pipeline")["errors"] / rounds, "count", "lower")
    m["trails.find_idt.found_ratio"] = (
        ratio(idt["calls"] - idt["none"] - idt["errors"], idt["calls"]), "ratio", "higher")
    m["invariants.dominating_set.calls_per_domination_number"] = (
        ratio(row("invariants.dominating_set")["under"].get("invariants.domination_number", 0),
              row("invariants.domination_number")["calls"]), "ratio", "lower")
    m["trace.overhead"] = (overhead, "ratio", "lower")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")

    lib, state, setup_norm, setup_raw = set_up(workload, args.seed)
    tally = Tally()
    if args.trace == 0:
        measure(workload, lib, state, args.seconds, tally)
        metrics = end_to_end(tally, setup_norm)
        rows = wall_clock_report(workload, tally, setup_raw)
        correct = tally.failed == 0
    else:
        # Half the time untraced, half traced; the traced round must give the
        # same outputs as the untraced one.
        plain = measure(workload, lib, state, args.seconds / 2, tally)
        traced_tally = Tally()
        recorder = SpanRecorder()
        with recorder:
            traced = measure(workload, lib, state, args.seconds / 2, traced_tally)
        common = min(len(plain), len(traced))
        identical = plain[:common] == traced[:common]
        # Rounds are matched by index, so round r of both phases did the same work.
        overhead = statistics.median(
            t[2] / p[2] for p, t in zip(tally.rounds, traced_tally.rounds)
        )
        rounds = len(traced_tally.rounds)
        metrics = {
            k: (v, unit)
            for k, (v, unit, _) in per_layer(
                workload, recorder.summary(), rounds, statistics.median(traced_tally.factors), overhead
            ).items()
        }
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload.name}.tsv.gz")
        recorder.write(spans_path)
        rows = [
            ("untraced_rounds", len(tally.rounds), "count"),
            ("traced_rounds", rounds, "count"),
            ("spans", len(recorder.start), "count"),
            ("trace_overhead", overhead, "ratio"),
            ("outputs_identical", int(identical), "bool"),
        ]
        print(f"spans written to {os.path.relpath(spans_path)}")
        tally.attempted += traced_tally.attempted + 1
        tally.failed += traced_tally.failed + (not identical)
        correct = tally.failed == 0
    for name, value, unit in rows:
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'attempted':28s} {tally.attempted}")
    print(f"{'failed':28s} {tally.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
