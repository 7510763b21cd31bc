"""Spans recorded from outside the program, and a stepped replay of solve.

The traced run never patches the program. It calls the public functions
of each module itself and wraps every call in a span, so per-layer time
is measured at the module boundary. Engine phases come from
`stepping_solve`, which replays `engine.solve`'s loop through the
stepping API; `traced_verify` replays `certificates.verify_run` from its
parts. Both are checked against the real functions on every instance
before any number is reported, so the layer figures describe the
program as it actually runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from matchcert.certificates import (Verdict, Violation,
                                    check_cardinality_certificate,
                                    transform_duals)
from matchcert.engine import (STATUS_NO_PERFECT, STATUS_PERFECT, EngineState,
                              RunResult, apply_dual_update, compute_alpha,
                              shrink_blossom)
from matchcert.graph import alternating_path_difference, matching_weight


class Tracer:
    """Spans and counters kept in memory until the run writes them out.

    A span is (op id, span id, parent span id, name, start, end), times
    from perf_counter. Spans of one operation share its op id.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.op, span_id, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self.op, span_id, parent, name, start, end)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def op_totals(self) -> dict[int, dict[str, float]]:
        """Per operation, the summed span time of each span name."""
        totals: dict[int, dict[str, float]] = {}
        for op, _, _, name, start, end in self.spans:
            per_name = totals.setdefault(op, {})
            per_name[name] = per_name.get(name, 0.0) + end - start
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end}) + "\n")


def _rebuild_view(state: EngineState, tr: Tracer) -> None:
    # The view is cached until the next mutation, so building it here,
    # right after each mutation, isolates its cost; the engine's own
    # later call is then free.
    with tr.span("engine.view_rebuild"):
        state.shrunken_view()
    tr.count("engine.view_rebuilds")


def stepping_solve(inst, tr: Tracer) -> RunResult:
    """`engine.solve(inst)` (maximum mode, uniform duals) step by step."""
    with tr.span("engine.solve"):
        state = EngineState(inst, 0)
        _rebuild_view(state, tr)
        with tr.span("engine.snapshot"):
            snapshots = [state.snapshot()]
        step_limit = 200 + 50 * (inst.node_count + len(inst.edges))
        steps = 0
        while True:
            steps += 1
            if steps > step_limit:
                raise RuntimeError("step limit exceeded")
            tr.count("engine.steps")
            with tr.span("engine.grow_forest"):
                exposed = state.exposed_view_keys()
            if not exposed:
                status = STATUS_PERFECT
                break
            with tr.span("engine.grow_forest"):
                walk = state.grow_forest()
            if walk is not None:
                if walk.is_path():
                    with tr.span("engine.augment"):
                        state.augment(walk)
                    tr.count("engine.augmentations")
                    _rebuild_view(state, tr)
                    with tr.span("engine.snapshot"):
                        snapshots.append(state.snapshot())
                else:
                    with tr.span("engine.shrink"):
                        shrink_blossom(state, walk)
                    tr.count("engine.shrinks")
                    _rebuild_view(state, tr)
                continue
            with tr.span("engine.compute_alpha"):
                result = compute_alpha(state)
            if result.alpha is None:
                status = STATUS_NO_PERFECT
                break
            before = list(state.blossoms)
            with tr.span("engine.dual_update"):
                apply_dual_update(state, result.alpha)
            tr.count("engine.dual_updates")
            if result.alpha == 0:
                tr.count("engine.zero_dual_updates")
            tr.count("engine.bound." + result.binding[0].replace("-", "_"))
            after = {id(rec) for rec in state.blossoms}
            tr.count("engine.expansions",
                     sum(1 for rec in before if id(rec) not in after))
            _rebuild_view(state, tr)
    return RunResult(tuple(snapshots), status, "maximum", state.beta)


def max_nesting(run: RunResult) -> int:
    """Deepest chain of blossoms over all snapshots of a run."""
    deepest = 0
    for snap in run.snapshots:
        depth = [0] * len(snap.dual_state.singleton_pi)
        for blossom in snap.dual_state.blossoms:
            for v in blossom.nodes:
                depth[v] += 1
        deepest = max(deepest, max(depth, default=0))
    return deepest


def traced_verify(inst, run: RunResult, tr: Tracer) -> Verdict:
    """`certificates.verify_run(inst, run)` from its parts, with spans."""
    violations: list[Violation] = []
    with tr.span("certificates.verify_run"):
        for i, snap in enumerate(run.snapshots):
            tag = f"k={snap.cardinality}"
            if snap.cardinality != i:
                violations.append(
                    Violation(f"snapshot-cardinality-sequence:{tag}", i,
                              snap.cardinality, i))
            actual_weight = matching_weight(inst, snap.matching)
            if actual_weight != snap.weight:
                violations.append(
                    Violation(f"snapshot-weight:{tag}", None, snap.weight,
                              actual_weight))
            with tr.span("certificates.transform"):
                cert = transform_duals(snap.dual_state, snap.cardinality)
            with tr.span("certificates.check"):
                sub = check_cardinality_certificate(inst, snap.matching, cert)
            tr.count("certificates.edge_checks", len(inst.edges))
            tr.count("certificates.edge_blossom_tests", len(inst.edges) * len(cert.z))
            for viol in sub.violations:
                violations.append(
                    Violation(f"{viol.constraint}:{tag}", viol.witness,
                              viol.lhs, viol.rhs))
        for prev, nxt in zip(run.snapshots, run.snapshots[1:]):
            with tr.span("graph.path_diff"):
                diff = alternating_path_difference(prev.matching, nxt.matching)
            if diff.kind != "single-path":
                violations.append(
                    Violation(f"consecutive-single-path:k={nxt.cardinality}",
                              diff.components, diff.kind, "single-path"))
    tr.count("certificates.violations", len(violations))
    return Verdict(tuple(violations))
