"""uamsim benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``; ``README.md`` lists every
metric.  The run starts one child process (``worker.py``) that runs the
workload's ops for ``--seconds`` seconds, so the child's peak memory
belongs to this workload alone, and times a fresh interpreter's set-up
after each op, so set-up samples spread over the same minutes.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  It
exits 2 without a result when the checkout lacks the program or its
baseline scenario, and 1 when the child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import BASELINE_CONFIG, WORKLOADS, scenario_config

HERE = Path(__file__).resolve().parent
BENCHMARK = Path("BENCHMARK.json")  # metric names and units
OUTPUT_DIR = Path(".perfbench")  # scratch inputs and span files, inside the checkout
DEADLINE_S = 170.0

def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    missing = [p for p in (Path("src/uamsim/cli.py"), BASELINE_CONFIG, BENCHMARK)
               if not p.is_file()]
    if missing:
        print(f"error: run from the root of a uamsim checkout; missing {missing}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUTPUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR)).resolve()
    try:
        config = scenario_config(workload, args.seed, scratch)
        worker = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--config", str(config),
                  "--scratch", str(scratch)]
        if args.trace:
            worker += ["--spans", str((OUTPUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl").resolve())]
        budget = max(10.0, DEADLINE_S - (time.perf_counter() - started))
        # a process group of its own, so a timeout also stops the set-up probe
        proc = subprocess.Popen(worker, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0 or not stdout.strip():
            print(f"error: worker exited {proc.returncode}: {stderr.strip()[-2000:]}",
                  file=sys.stderr)
            return 1
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = summary["ops"]
    failed = [op for op in ops if op["errors"]]
    for op in failed:
        print(f"op {op['index']} failed: " + "; ".join(op["errors"]))
    timed = [op for op in ops if not op["traced"]]
    if args.trace:
        values = dict(summary["layers"])
        for stage in summary["setup_stages"][0]:
            values[stage] = statistics.median(s[stage] for s in summary["setup_stages"])
    else:
        values = {
            "wall_s": statistics.median(op["wall_s"] for op in timed),
            "riders_per_s": statistics.median(op["riders"] / op["wall_s"] for op in timed),
            "setup_s": statistics.median(summary["setup_s"]),
            "peak_rss_mb": summary["peak_rss_mb"],
            "ok_share": (len(ops) - len(failed)) / len(ops),
        }
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print("environment: " + json.dumps(environment()))
    print("untraced op wall_s: " + " ".join(f"{op['wall_s']:.4f}" for op in timed))
    print(f"workload {workload.name}, seed {args.seed}: {len(ops)} ops "
          f"({len(timed)} untraced), reference digests "
          f"{'checked' if summary['reference_checked'] else 'not stored for this seed'}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
