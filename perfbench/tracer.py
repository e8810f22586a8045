"""Span recorder that wraps the library's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and how
it ended (returned a value, returned ``None``, or raised).  Spans are kept
in memory in flat arrays, aggregated into calls and self time per name,
and can be written out as a gzipped TSV when the run ends.

The wrappers replace every binding of a target function in the loaded
``hamconn`` modules (``hamconn.harness.find_claw``, ``hamconn.core.
find_essential_cut``, ...), so calls made through any import of the name
are seen, including calls inside the defining module.  ``Multigraph.
is_connected`` is a method and is wrapped on the class.  Nothing under
``src/`` is edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (defining module, attribute) of every traced function; the span name is
# "<module>.<function>" without the package prefix.
TARGETS = [
    ("hamconn.corpus", "graph_from_edge_mask"),
    ("hamconn.multigraph", "Multigraph.is_connected"),
    ("hamconn.multigraph", "canonical_labeling"),
    ("hamconn.invariants", "find_claw"),
    ("hamconn.invariants", "is_k_connected"),
    ("hamconn.invariants", "vertex_connectivity"),
    ("hamconn.invariants", "dominating_set"),
    ("hamconn.invariants", "domination_number"),
    ("hamconn.invariants", "edge_connectivity"),
    ("hamconn.invariants", "find_essential_cut"),
    ("hamconn.trails", "hamiltonian_path"),
    ("hamconn.trails", "missing_hamiltonian_pair"),
    ("hamconn.trails", "find_hamiltonian_cycle"),
    ("hamconn.trails", "find_closed_trail_through"),
    ("hamconn.trails", "find_idt"),
    ("hamconn.linegraph", "preimage"),
    ("hamconn.linegraph", "line_graph"),
    ("hamconn.core", "core"),
    ("hamconn.reduction", "run_pipeline"),
    ("hamconn.reduction", "project_edge"),
    ("hamconn.reduction", "build_hn"),
    ("hamconn.reduction", "pick_z"),
    ("hamconn.reduction", "idt_from_trail"),
    ("hamconn.reduction", "idt_to_ham_path"),
    ("hamconn.harness", "verify_theorem_enumerated"),
    ("hamconn.harness", "counterexample_report"),
]

RETURNED, RETURNED_NONE, RAISED = 0, 1, 2


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class SpanRecorder:
    """In-memory spans in parallel arrays, indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.status = bytearray()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        status, stack, clock = self.status, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            status.append(RAISED)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                status[sid] = RETURNED_NONE if result is None else RETURNED
                return result
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded hamconn modules."""
        modules = [m for k, m in sys.modules.items() if k == "hamconn" or k.startswith("hamconn.")]
        for module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span_name(module_name, attr), original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name(module_name, attr), original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, none (returned None), errors, and
        under (calls by the name of the direct parent).  Self time is a
        span's duration minus the durations of its direct children; calls
        are single-threaded, so children nest."""
        count = len(self.start)
        child = array("d", bytes(8 * count))
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "self_s": 0.0, "none": 0, "errors": 0, "under": {}}
               for name in self.names}
        for sid in range(count):
            row = out[self.names[self.name_id[sid]]]
            duration = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["self_s"] += duration - child[sid]
            p = self.parent[sid]
            if p >= 0:
                parent_name = self.names[self.name_id[p]]
                row["under"][parent_name] = row["under"].get(parent_name, 0) + 1
            if self.status[sid] == RETURNED_NONE:
                row["none"] += 1
            elif self.status[sid] == RAISED:
                row["errors"] += 1
        return out

    def write(self, path: str) -> None:
        """Every span as a TSV row: id, parent, name, start, end, status."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\tstatus\n")
            names, t0 = self.names, self.start[0] if self.start else 0.0
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.name_id[sid]]}\t"
                    f"{self.start[sid] - t0:.9f}\t{self.end[sid] - t0:.9f}\t{self.status[sid]}\n"
                )
