"""Spans around calls into each layer of ``concentric_gons``, recorded from
outside the library.

Library modules import names directly (``from .moments import
cyclic_averages``), so a function is wrapped at every module attribute where
a caller looks it up: wrapping ``moments.cyclic_averages`` alone would record
nothing. A span's name is ``<layer>.<function>``, where the layer is the
module whose work the span measures. Spans live in flat in-memory arrays and
are written out once, after the run.
"""

import contextlib
import gzip
import importlib
import time
import types
from array import array
from collections import Counter

# (module whose attribute is replaced, attribute, span name). The first
# column is the caller's module, not the module that defines the function.
WRAPPED = (
    ("reconstruct", "cyclic_averages", "moments.cyclic_averages"),
    ("cli", "cyclic_averages", "moments.cyclic_averages"),
    ("reconstruct", "assess_feasibility", "moments.assess_feasibility"),
    ("cli", "assess_feasibility", "moments.assess_feasibility"),
    ("moments", "condition_two", "moments.condition_two"),
    ("reconstruct", "recover_circumradii", "moments.recover_circumradii"),
    ("cli", "recover_circumradii", "moments.recover_circumradii"),
    ("reconstruct", "reconstruct_polygons", "reconstruct.reconstruct_polygons"),
    ("cli", "reconstruct_polygons", "reconstruct.reconstruct_polygons"),
    ("reconstruct", "phase_candidates", "reconstruct.phase_candidates"),
    ("reconstruct", "multiset_close", "reconstruct.multiset_close"),
    ("reconstruct", "verify_reconstruction", "reconstruct.verify_reconstruction"),
    ("pairing", "pair_polygons", "pairing.pair_polygons"),
    ("cli", "pair_polygons", "pairing.pair_polygons"),
    ("pairing", "candidate_centers", "pairing.candidate_centers"),
    ("cli", "candidate_centers", "pairing.candidate_centers"),
    ("pairing", "align_second_polygon", "pairing.align_second_polygon"),
    ("pairing", "distance_multiset", "pairing.distance_multiset"),
    ("pairing", "multiset_close", "pairing.multiset_close"),
    ("geom", "vertices", "geom.vertices"),
    ("pairing", "vertices", "geom.vertices"),
    ("svg", "vertices", "geom.vertices"),
    ("oracle", "vertices", "geom.vertices"),
    ("cli", "angle_sweep", "oracle.angle_sweep"),
    ("cli", "power_identity_residual", "oracle.power_identity_residual"),
    ("cli", "random_instance", "oracle.random_instance"),
    ("cli", "load_instance", "instances.load_instance"),
    ("cli", "dump_canonical", "instances.dump_canonical"),
    ("cli", "render_configuration", "svg.render_configuration"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "main", "cli.main"),
)


def _count_result(counter: str, measure):
    def record(counts: Counter, result) -> None:
        counts[counter] += measure(result)

    return record


# Counts taken from return values, at the same boundaries as the spans.
RESULT_COUNTS = {
    "moments.condition_two": _count_result("moments.condition2_orders", lambda r: len(r[1])),
    "reconstruct.multiset_close": _count_result("reconstruct.phase_accepted", bool),
    "pairing.align_second_polygon": _count_result("pairing.branches", len),
    "pairing.pair_polygons": _count_result("pairing.results", len),
    "instances.dump_canonical": _count_result(
        "instances.json_bytes", lambda text: len(text.encode("utf-8"))
    ),
    "svg.render_configuration": _count_result(
        "svg.svg_bytes", lambda text: len(text.encode("utf-8"))
    ),
}


class Tracer:
    """Span store: one row per wrapped call, in columnar arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        # Per op, from 1: the reference-kernel factor that scales its spans.
        self.scale = array("d")
        self.op_id = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span_name: str, fn):
        name_id = self._name_id(span_name)
        on_result = RESULT_COUNTS.get(span_name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.op.append(self.op_id)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(name_id)
            self.end.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def _counting_warn(self, real_warn):
        def warn(*args, **kwargs):
            self.counts["pairing.gate_warnings"] += 1
            return real_warn(*args, **kwargs)

        return warn

    @contextlib.contextmanager
    def installed(self):
        """Replace every attribute in WRAPPED, and restore them on exit."""
        saved = []
        try:
            for module_name, attr, span_name in WRAPPED:
                module = importlib.import_module(f"concentric_gons.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            pairing = importlib.import_module("concentric_gons.pairing")
            real_warnings = pairing.warnings
            saved.append((pairing, "warnings", real_warnings))
            pairing.warnings = types.SimpleNamespace(
                warn=self._counting_warn(real_warnings.warn)
            )
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, total ns, and self ns (duration minus
        the time covered by direct children; calls nest, so children never
        overlap). Durations are scaled like latencies, by the factor the
        benchmark put in ``scale[op_id - 1]`` for the span's op."""
        covered = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[i] - self.start[i]
        calls, total_ns, self_ns = Counter(), Counter(), Counter()
        for i, name_id in enumerate(self.name):
            name = self.names[name_id]
            factor = self.scale[self.op[i] - 1]
            covered[i] *= factor
            duration = (self.end[i] - self.start[i]) * factor
            calls[name] += 1
            total_ns[name] += duration
            self_ns[name] += duration - covered[i]
        return calls, total_ns, self_ns

    def write(self, path) -> None:
        """One tab-separated row per span: op, span, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
