"""In-memory spans around emberlink's public functions.

The program is not edited: each traced function is rebound on the module
that looks it up at call time (``emberlink.evolution.prune`` is found by
``_evolve`` through its module globals, ``emberlink.harness.deploy_uniform``
by ``sweep``). A span records its name, parent, start and end; self time is
the span's duration minus the part its child spans cover. Spans stay in
memory and are written out when the benchmark ends.

Spans recorded in worker processes are not returned, so a traced sweep runs
at one worker.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter_ns


class Tracer:
    """Span recorder with per-name self time, call counts and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0

    def _open(self) -> tuple[list[int], int]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame: list[int], parent: int,
               start: int, end: int) -> None:
        self._stack.pop()
        dur = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame[1]
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((frame[0], parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        frame, parent = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, frame, parent, start, perf_counter_ns())

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def wrap(self, name, fn, after=None):
        """Traced fn. name is a span name or a callable of the call's
        args; after(result, args) updates counters once the span closes."""
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            frame, parent = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_name, frame, parent, start, perf_counter_ns())
            if after is not None:
                after(result, args)
            return result
        return traced

    def self_s(self, name: str) -> float | None:
        """Self time in seconds, or None when the span never ran."""
        if not self.calls.get(name):
            return None
        return self.self_ns[name] / 1e9

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,name,start_ns,end_ns\n")
            for row in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % row)


def _layer_hooks(tracer: Tracer) -> list[tuple[str, str, object, object]]:
    """(module, attribute, span name, after-hook) for every traced call."""
    first_query: dict[int, object] = {}  # id -> deployed field not yet queried

    def deployed(field_, args):
        tracer.add("sensors.sensors_deployed", len(field_))
        first_query[id(field_)] = field_

    def query_name(args):
        # the first query on a deployed field builds its lazy spatial hash
        if first_query.pop(id(args[0]), None) is not None:
            return "sensors.first_query"
        return "sensors.query"

    def queried(hit, args):
        tracer.add("sensors.hits", hit is not None)

    def pruned(frontier, args):
        tracer.add("evolution.prune_points_in", args[0].points.shape[0])
        tracer.add("evolution.prune_points_out", frontier.points.shape[0])
        tracer.peak("evolution.frontier_peak", frontier.points.shape[0])

    def sampled(result, args):
        tracer.add("envdata.points_sampled", len(args[1]))

    def branched(result, args):
        tracer.add("firekernel.points_branched", len(args[0]))

    def simulated(circles, args):
        tracer.add("evolution.incident_hours", len(circles) - 1)

    return [
        ("emberlink.harness", "synth_env", "envdata.synth_env", None),
        ("emberlink.harness", "synth_biomass", "envdata.synth_biomass", None),
        ("emberlink.evolution", "sample_env_many", "envdata.sample_env_many", sampled),
        ("emberlink.evolution", "branch_endpoints", "firekernel.branch_endpoints", branched),
        ("emberlink.harness", "circle_trajectory", "evolution.trajectory", simulated),
        ("emberlink.evolution", "prune", "evolution.prune", pruned),
        ("emberlink.evolution", "burned_circle", "evolution.burned_circle", None),
        ("emberlink.harness", "replay_detection", "evolution.replay", None),
        ("emberlink.harness", "deploy_uniform", "sensors.deploy", deployed),
        ("emberlink.evolution", "nearest_index_within", query_name, queried),
        ("emberlink.harness", "average_biomass", "carbon.average_biomass", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function for the duration of the block.

    A function a later version no longer has is left untraced, so its
    metrics read null instead of failing the run.
    """
    saved = []
    try:
        for module_name, attr, name, after in _layer_hooks(tracer):
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, tracer.wrap(name, original, after))
            saved.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
