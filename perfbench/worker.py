"""Runs one workload's ops in a process of its own and prints one JSON line.

Started by ``run.py``; not meant to be run by hand.  Each op is one
in-process call to ``uamsim.cli.main(argv)``, preceded by ``gc.collect()``
and followed by the output checks of ``checks.py``.  Ops repeat until the
run's seconds are used.  With ``--trace 1`` untraced and traced ops
alternate, so the traced run's overhead is measured against untraced ops
of the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import tracer as tracing
from workloads import SWEEP_FLEETS, SWEEP_SEEDS, WORKLOADS, op_argv

# Spans whose summed duration is reported as one metric.
SPAN_TOTALS = {
    "demand.generate_arrivals_s": ("demand.generate_arrivals",),
    "metrics.compute_metrics_s": ("metrics.compute_metrics",),
    "simulate.write_trips_csv_s": ("simulate.write_trips_csv",),
    "simulate.write_riders_csv_s": ("simulate.write_riders_csv",),
    "metrics.writers_s": ("metrics.write_waits_csv", "metrics.write_heatmap_csv",
                          "metrics.write_report_json", "metrics.write_sweep_csv"),
}
# Spans whose summed self time is reported as one metric.
SPAN_SELF = {
    "simulate.init_self_s": "simulate.Simulation.__init__",
    "simulate.finalize_s": "simulate.Simulation.run",
    "cli.self_s": "cli.main",
}
PHASES = ("fire_transitions", "inject", "dispatch_step", "reposition_idle")
TAIL_BEYOND = 10
SETUP_PROBE = Path(__file__).resolve().with_name("setup_probe.py")


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    """The value with TAIL_BEYOND values above it (the largest when fewer)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def _op_layers(t: tracing.Tracer, trace_id: int, spans: list[tuple]) -> dict[str, float]:
    totals, selfs, runs = defaultdict(float), defaultdict(float), []
    calls = 0
    for _, _, _, name, start, end, self_s in spans:
        totals[name] += end - start
        selfs[name] += self_s
        if name == "simulate.run_simulation":
            runs.append(end - start)
        calls += name == "demand.generate_arrivals"
    layer = {metric: sum(totals[n] for n in names) for metric, names in SPAN_TOTALS.items()}
    layer.update({metric: selfs[name] for metric, name in SPAN_SELF.items()})
    aggregates = t.aggregates[trace_id]
    for phase in PHASES:
        layer[f"simulate.{phase}_s"] = aggregates[f"simulate.Simulation.{phase}"][1]
    counters = t.counters[trace_id]
    for name in ("demand.draws", "demand.riders", "simulate.waiting_rider_minutes",
                 "simulate.waiting_peak", "simulate.revenue_legs", "simulate.reposition_legs"):
        layer[name] = counters[name]
    layer["demand.generate_arrivals_calls"] = calls
    layer["demand.ns_per_draw"] = 1e9 * layer["demand.generate_arrivals_s"] / max(1, counters["demand.draws"])
    layer["simulate.dispatch_ns_per_waiting_rider_minute"] = (
        1e9 * layer["simulate.dispatch_step_s"] / max(1, counters["simulate.waiting_rider_minutes"]))
    legs = layer["simulate.revenue_legs"] + layer["simulate.reposition_legs"]
    layer["simulate.empty_leg_share"] = layer["simulate.reposition_legs"] / max(1, legs)
    layer["simulate.run_s_p50"] = _median(runs)
    layer["simulate.run_s_tail"] = _tail(runs) if runs else 0.0
    return layer


def layer_metrics(t: tracing.Tracer, ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics: the median over traced ops of each op's value."""
    by_trace = defaultdict(list)
    for span in t.spans:
        by_trace[span[0]].append(span)
    per_op = [_op_layers(t, op["index"], by_trace[op["index"]]) for op in ops if op["traced"]]
    metrics = {name: _median([layer[name] for layer in per_op]) for name in per_op[0]}
    traced = [op["wall_s"] for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    metrics["cli.cpu_s"] = _median([op["cpu_s"] for op in untraced])
    metrics["cli.bytes_written"] = _median([op["bytes_written"] for op in ops])
    metrics["trace_overhead_ratio"] = _median(traced) / _median([op["wall_s"] for op in untraced])
    return metrics


def write_spans(t: tracing.Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for trace_id, span_id, parent, name, start, end, self_s in t.spans:
            fh.write(json.dumps({"trace": trace_id, "span": span_id, "parent": parent,
                                 "name": name, "start": start, "end": end, "self_s": self_s}) + "\n")
        for trace_id, aggregates in t.aggregates.items():
            for name, (count, total, self_s) in sorted(aggregates.items()):
                fh.write(json.dumps({"trace": trace_id, "name": name, "calls": count,
                                     "total_s": total, "self_s": self_s}) + "\n")


def probe_setup(config: Path) -> tuple[float, dict]:
    """Wall seconds of one fresh interpreter running ``setup_probe.py``, and its stages."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(SETUP_PROBE), str(config)],
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    from uamsim import build_world, cli, generate_arrivals, load_scenario

    workload = WORKLOADS[args.workload]
    reference = checks.load_reference()
    expected = reference["digests"].get(workload.name, {}).get(str(args.seed))
    if workload.command == "sweep":
        cfg = load_scenario(args.config)
        _, _, _, rates = build_world(cfg)
        generated = [len(generate_arrivals(rates, cfg.t_sim_min, args.seed + k))
                     for k in range(SWEEP_SEEDS)]
        sweep_riders = SWEEP_FLEETS * sum(generated)
        mean_generated = sum(generated) / SWEEP_SEEDS
        capacity = cfg.vehicle.capacity

    t = tracing.Tracer() if args.trace else None
    ops, first_digests, setup = [], None, []
    probe_setup(args.config)  # unmeasured: writes the byte-code caches
    started = time.perf_counter()
    while True:
        index = len(ops)
        traced = t is not None and index % 2 == 1
        out = args.scratch / f"op{index}"
        argv = op_argv(workload, args.config, args.seed, out)
        sink = io.StringIO()
        errors = []
        gc.collect()
        if traced:
            t.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cpu0, t0 = time.process_time(), time.perf_counter()
                code = t.run_op(index, cli.main, argv) if traced else cli.main(argv)
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        except Exception:
            code, wall, cpu = None, time.perf_counter() - t0, time.process_time() - cpu0
            errors.append(traceback.format_exc(limit=5))
        finally:
            if traced:
                t.uninstall()
        if code != 0:
            errors.append(f"exit code {code}: {sink.getvalue()[-400:]}")
        if workload.command == "sweep":
            digests, found = checks.check_sweep(out, mean_generated, capacity, SWEEP_FLEETS)
            riders = sweep_riders
        else:
            digests, found, riders = checks.check_simulate(out, reference["report_keys"])
        errors += found
        if first_digests is None:
            first_digests = digests
        errors += checks.compare(digests, first_digests, "the run's first op")
        errors += checks.compare(digests, expected, "the reference digests")
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)
        ops.append({"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                    "riders": riders, "bytes_written": written, "errors": errors})
        setup.append(probe_setup(args.config))
        if time.perf_counter() - started >= args.seconds and (t is None or len(ops) >= 2):
            break

    summary = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": [wall for wall, _ in setup],
        "setup_stages": [stages for _, stages in setup],
        "reference_checked": expected is not None,
        "digests": first_digests,
    }
    if t is not None:
        summary["layers"] = layer_metrics(t, ops)
        if args.spans is not None:
            write_spans(t, args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
