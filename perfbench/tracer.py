"""Tracing from outside the program, for the benchmark's per-layer metrics.

While installed, the tracer replaces every ``uamsim.*`` module attribute
that *is* one of the traced public functions, so a call is caught at
whichever import site makes it, and wraps ``Simulation``'s methods at
class level.  Uninstalling restores the originals.

Each op gets a trace id.  Calls to span functions become spans (trace id,
span id, parent id, name, start, end, self time) kept in memory.  The
per-minute methods run about a million times in one sweep, so they are
aggregated per op into a call count, a total and a self time instead.  A
span's self time is its duration minus the time its traced children took,
wrapper costs included, so the wrappers' own cost does not land in a
parent's self time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("uamsim", "uamsim.config", "uamsim.network", "uamsim.demand",
           "uamsim.sizing", "uamsim.simulate", "uamsim.metrics", "uamsim.cli")
SPAN_FUNCTIONS = (
    ("uamsim.config", "load_scenario"), ("uamsim.config", "build_world"),
    ("uamsim.sizing", "size_fleet"), ("uamsim.demand", "generate_arrivals"),
    ("uamsim.simulate", "run_simulation"), ("uamsim.metrics", "refine_fleet"),
    ("uamsim.metrics", "compute_metrics"),
    ("uamsim.simulate", "write_trips_csv"), ("uamsim.simulate", "write_riders_csv"),
    ("uamsim.metrics", "write_waits_csv"), ("uamsim.metrics", "write_heatmap_csv"),
    ("uamsim.metrics", "write_report_json"), ("uamsim.metrics", "write_sweep_csv"),
)
SPAN_METHODS = ("__init__", "run")
AGGREGATED_METHODS = ("step", "fire_transitions", "inject", "dispatch_step", "reposition_idle")

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []       # (trace, id, parent, name, start, end, self_s)
        self.aggregates: dict = {}         # trace -> name -> [calls, total_s, self_s]
        self.counters: dict = {}           # trace -> name -> value
        self._stack: list[list] = []       # open frames: [span id, child seconds]
        self._trace = None
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- one op ------------------------------------------------------------

    def run_op(self, trace_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span ``cli.main`` of a new trace."""
        self._trace = trace_id
        self.aggregates[trace_id] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters[trace_id] = defaultdict(float)
        frame = [self._new_id(), 0.0]
        self._stack.append(frame)
        start = clock()
        try:
            return fn(*args)
        finally:
            end = clock()
            self._stack.pop()
            self.spans.append((trace_id, frame[0], None, "cli.main", start, end,
                               end - start - frame[1]))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- installing the wrappers -----------------------------------------

    def _wrapper(self, name, fn, aggregate=False, observe=None):
        stack, spans, aggregates, counters = self._stack, self.spans, self.aggregates, self.counters

        def wrapper(*args, **kwargs):
            t0 = clock()
            frame = [None if aggregate else self._new_id(), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s = end - start - frame[1]
                if aggregate:
                    totals = aggregates[self._trace][name]
                    totals[0] += 1
                    totals[1] += end - start
                    totals[2] += self_s
                else:
                    spans.append((self._trace, frame[0], stack[-1][0], name, start, end, self_s))
            if observe is not None:
                observe(counters[self._trace], args, kwargs, result)
            stack[-1][1] += clock() - t0
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        simulate = importlib.import_module("uamsim.simulate")
        for module_name, attr in SPAN_FUNCTIONS:
            fn = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrapper(f"{module_name.rsplit('.', 1)[1]}.{attr}", fn,
                                    observe=OBSERVERS.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
        cls = simulate.Simulation
        for attr in SPAN_METHODS + AGGREGATED_METHODS:
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrapper(
                f"simulate.Simulation.{attr}", fn, aggregate=attr in AGGREGATED_METHODS,
                observe=OBSERVERS.get(attr)))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()


# -- counters taken at the same boundaries ----------------------------------

def _observe_arrivals(counters, args, kwargs, riders):
    rates = kwargs["rates"] if "rates" in kwargs else args[0]
    t_sim = kwargs["t_sim"] if "t_sim" in kwargs else args[1]
    counters["demand.draws"] += int((rates.per_min > 0.0).sum()) * t_sim
    counters["demand.riders"] += len(riders)


def _observe_run(counters, args, kwargs, result):
    revenue = sum(1 for t in result.trips if t.kind == "revenue")
    counters["simulate.revenue_legs"] += revenue
    counters["simulate.reposition_legs"] += len(result.trips) - revenue


def _observe_step(counters, args, kwargs, result):
    waiting = args[0].counts()[3]
    counters["simulate.waiting_rider_minutes"] += waiting
    if waiting > counters["simulate.waiting_peak"]:
        counters["simulate.waiting_peak"] = waiting


OBSERVERS = {
    "generate_arrivals": _observe_arrivals,
    "run_simulation": _observe_run,
    "step": _observe_step,
}
