"""The metrics report recomputed from the CSV files a run writes.

On the seed-engine oracle's drawn worlds, each run's ``trips.csv``,
``riders.csv`` and ``waits.csv`` are written with the library writers and
read back.  From those files and the run's config alone the test
recomputes every ``MetricsReport`` field, the rider counts and the served
matrix, with its own horizon clamp, and requires the library's values
exactly.  It also checks the files against each other: a rider boards at
its leg's take-off and is dropped off at its landing, if that comes
before the horizon.
"""

from __future__ import annotations

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings

from uamsim import compute_metrics, run_simulation, throughput_matrix, write_riders_csv, write_trips_csv
from uamsim.metrics import write_waits_csv

from test_oracle import FIXED_WORLDS, worlds


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def optional_int(cell: str) -> int | None:
    return None if cell == "" else int(cell)


def recompute(cfg, folder: Path) -> dict:
    """Every report field and rider count, from the three files and ``cfg``."""
    t_sim, fleet, buffer = cfg.t_sim, cfg.fleet, cfg.spec.buffer_min
    turnaround = {"revenue": cfg.spec.turnaround_min,
                  "reposition": cfg.spec.turnaround_min if cfg.charge_after_reposition else 0}

    # each leg's minutes before the horizon: the taxi buffer elapses first,
    # then the air minutes, then the charge after landing
    air = {"revenue": 0, "reposition": 0}
    ground = revenue_legs = seated = 0
    board, dropoff = {}, {}
    for row in read_rows(folder / "trips.csv"):
        kind, depart, arrive = row["kind"], int(row["depart_min"]), int(row["arrive_min"])
        flown = min(arrive, t_sim) - depart
        in_buffer = min(flown, buffer)
        air[kind] += flown - in_buffer
        ground += in_buffer + max(0, min(arrive + turnaround[kind], t_sim) - arrive)
        riders = [int(r) for r in row["riders"].split(";")] if row["riders"] else []
        if kind == "revenue":
            revenue_legs += 1
            seated += len(riders)
        for rid in riders:
            board[rid] = depart
            dropoff[rid] = arrive if arrive < t_sim else None

    n = cfg.net.n
    served_matrix = np.zeros((n, n), dtype=np.int64)
    waits = []
    riders = read_rows(folder / "riders.csv")
    for i, row in enumerate(riders):
        assert int(row["rider_id"]) == i
        assert optional_int(row["board_min"]) == board.get(i)
        assert optional_int(row["dropoff_min"]) == dropoff.get(i)
        if row["board_min"]:
            waits.append(int(row["board_min"]) - int(row["arrival_min"]))
        if row["dropoff_min"]:
            served_matrix[int(row["origin"]), int(row["dest"])] += 1
    assert [int(row["wait_min"]) for row in read_rows(folder / "waits.csv")] == waits

    # mean and nearest-rank 95th percentile of the waits; the targets are
    # a mean wait of at most 10 min, u_air within [0.60, 0.70] and a load
    # factor of at least 0.70
    mean_wait = sum(waits) / len(waits) if waits else 0.0
    p95 = sorted(waits)[math.ceil(0.95 * len(waits)) - 1] if waits else 0.0
    total = fleet * t_sim
    u_air = air["revenue"] / total
    band = "under_utilized" if u_air < 0.60 else "overstressed" if u_air > 0.70 else "in_band"
    load_factor = seated / (cfg.spec.capacity * revenue_legs) if revenue_legs else 0.0
    served = sum(row["dropoff_min"] != "" for row in riders)
    onboard = sum(row["board_min"] != "" and row["dropoff_min"] == "" for row in riders)
    report = {
        "mean_wait": mean_wait,
        "p95_wait": p95,
        "served": served,
        "unserved": sum(row["board_min"] == "" for row in riders),
        "onboard_at_end": onboard,
        "u_air": u_air,
        "u_air_incl_reposition": (air["revenue"] + air["reposition"]) / total,
        "u_cycle": (air["revenue"] + air["reposition"] + ground) / total,
        "load_factor": load_factor,
        "wait_ok": mean_wait <= 10.0,
        "u_air_ok": band == "in_band",
        "u_air_band": band,
        "load_ok": load_factor >= 0.70,
    }
    return {"report": report, "generated": len(riders), "throughput": served_matrix.tolist()}


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(cfg=worlds())
@example(cfg=FIXED_WORLDS["legs cut at the horizon"])
@example(cfg=FIXED_WORLDS["capacity above demand"])
@example(cfg=FIXED_WORLDS["backlogged fleet"])
@example(cfg=FIXED_WORLDS["reposition tie"])
def test_report_equals_its_recomputation_from_the_csv_files(cfg):
    result = run_simulation(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        write_trips_csv(result, folder / "trips.csv")
        write_riders_csv(result, folder / "riders.csv")
        write_waits_csv(result.waits, folder / "waits.csv")
        want = recompute(cfg, folder)
    assert compute_metrics(result).to_dict() == want["report"]
    assert (result.generated, result.served, result.unserved, result.onboard_at_end) == (
        want["generated"], want["report"]["served"], want["report"]["unserved"],
        want["report"]["onboard_at_end"])
    assert throughput_matrix(result).tolist() == want["throughput"]


def test_the_outputs_of_simulate_build_no_rider_or_vehicle_records(tmp_path):
    # simulate's outputs read the trip log: no RiderOutcome or VehicleStats
    result = run_simulation(FIXED_WORLDS["backlogged fleet"])
    compute_metrics(result)
    throughput_matrix(result)
    write_riders_csv(result, tmp_path / "riders.csv")
    write_waits_csv(result.waits, tmp_path / "waits.csv")
    assert "riders" not in vars(result) and "vehicles" not in vars(result)
    # a read builds them once and keeps them
    assert result.riders is result.riders and "riders" in vars(result)
