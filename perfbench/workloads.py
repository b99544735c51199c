"""The benchmark's workloads: the command each op runs and the inputs it reads.

Every op is one ``uamsim`` command line, exactly as a user types it.  The
baseline workload reads the shipped scenario; the two stress workloads
read a synthetic scenario that is generated from the workload seed into a
scratch directory, so the program only ever sees ``nodes.csv``, ``od.csv``
and ``config.json``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASELINE_CONFIG = Path("scenarios") / "baseline" / "config.json"

# Replicates per fleet size in the baseline sweep.  The default grid is
# fleets 1..40, so one op is 40 x SWEEP_SEEDS simulated days.
SWEEP_SEEDS = 3
SWEEP_FLEETS = 40

# Stress scenario: 30 vertiports in a 0.5 degree box (its diagonal, ~44 mi,
# is inside the default 60 mi range, so all 870 ordered pairs are served)
# with monthly OD counts uniform on [0, 3000): about 36 riders per minute.
STRESS_NODES = 30
STRESS_BOX_DEG = 0.5
STRESS_CORNER = (37.25, -122.25)
STRESS_MAX_MONTHLY = 3000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "sweep"
    fleet: int | None
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "baseline_sweep", "sweep", None,
            "default fleet sweep 1-40 on the shipped scenario: hundreds of short "
            "days, so per-run costs (arrival sampling, set-up, metrics) dominate",
        ),
        Workload(
            "stress_backlog", "simulate", 200,
            "30-node stress day at fleet 200: the queue backs up to ~12k waiting "
            "riders, so the O(waiting) dispatch scan dominates",
        ),
        Workload(
            "stress_served", "simulate", 1600,
            "same stress day at fleet 1600: short queue, so arrival sampling, "
            "per-aircraft phases and the CSV writers dominate, not dispatch",
        ),
    )
}


def write_stress_scenario(seed: int, directory: Path) -> Path:
    """Write the seed's stress scenario into ``directory``; return its config."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, STRESS_MAX_MONTHLY, size=(STRESS_NODES, STRESS_NODES))
    lat = STRESS_CORNER[0] + STRESS_BOX_DEG * rng.random(STRESS_NODES)
    lon = STRESS_CORNER[1] + STRESS_BOX_DEG * rng.random(STRESS_NODES)
    codes = [f"V{i:02d}" for i in range(STRESS_NODES)]
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "nodes.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "code", "lat", "lon"])
        for i, code in enumerate(codes):
            writer.writerow([i, code, repr(float(lat[i])), repr(float(lon[i]))])
    with (directory / "od.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "dest", "monthly_pax"])
        for i, origin in enumerate(codes):
            for j, dest in enumerate(codes):
                if i != j:
                    writer.writerow([origin, dest, int(counts[i, j])])
    config = directory / "config.json"
    config.write_text(
        json.dumps({"nodes": "nodes.csv", "od": "od.csv", "t_sim_min": 1200,
                    "seed": seed, "seeds": 1}, indent=2) + "\n",
        encoding="utf-8",
    )
    return config


def scenario_config(workload: Workload, seed: int, scratch: Path) -> Path:
    """Config file the workload's ops read (generated for stress workloads)."""
    if workload.command == "sweep":
        return BASELINE_CONFIG.resolve()
    return write_stress_scenario(seed, scratch / f"stress-{seed}")


def op_argv(workload: Workload, config: Path, seed: int, out: Path) -> list[str]:
    """The command line of one op, as ``uamsim.cli.main`` receives it."""
    if workload.command == "sweep":
        return ["sweep", "--config", str(config), "--seed", str(seed),
                "--seeds", str(SWEEP_SEEDS), "--out", str(out)]
    return ["simulate", "--config", str(config), "--fleet", str(workload.fleet),
            "--out", str(out)]
