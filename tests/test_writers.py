"""CSV writers and the served matrix against loop-per-record oracles.

The golden digests pin only the baseline CLI files; these days add a
30-node backlog, header-only files, pooled legs and blank dropoffs.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uamsim import (
    DemandRates,
    SimConfig,
    run_simulation,
    throughput_matrix,
    write_riders_csv,
    write_trips_csv,
)
from uamsim.metrics import write_waits_csv

from conftest import backlog_config


def trips_oracle(result, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vehicle_id", "kind", "origin", "dest", "depart_min", "arrive_min", "riders"])
        for t in result.trips:
            writer.writerow(
                [t.vehicle_id, t.kind, t.origin, t.dest, t.depart_min, t.arrive_min,
                 ";".join(str(r) for r in t.rider_ids)]
            )


def riders_oracle(result, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rider_id", "origin", "dest", "arrival_min", "board_min", "dropoff_min"])
        for r in result.riders:
            writer.writerow(
                [r.rider_id, r.origin, r.dest, r.arrival_min,
                 "" if r.board_min is None else r.board_min,
                 "" if r.dropoff_min is None else r.dropoff_min]
            )


def waits_oracle(waits, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wait_min"])
        for w in waits:
            writer.writerow([w])


def throughput_oracle(result) -> np.ndarray:
    n = result.config.net.n
    served = np.zeros((n, n), dtype=np.int64)
    for r in result.riders:
        if r.dropoff_min is not None:
            served[r.origin, r.dest] += 1
    return served


def writer_day(case: str, net, spec, baseline_rates) -> SimConfig:
    if case == "backlog_30_nodes":
        return backlog_config(seed=4, fleet=60, t_sim=150)
    if case == "zero_demand":
        return SimConfig(net=net, spec=spec, rates=DemandRates(per_min=np.zeros((net.n, net.n))),
                         fleet=3, t_sim=60)
    if case == "capacity_6_pooled":
        return SimConfig(net=net, spec=replace(spec, capacity=6), rates=baseline_rates,
                         fleet=4, t_sim=600, seed=3)
    # t_sim 300 cuts revenue legs still in the air
    return SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=8, t_sim=300, seed=1)


@pytest.mark.parametrize("case", ["backlog_30_nodes", "zero_demand", "capacity_6_pooled",
                                  "horizon_cuts_revenue_leg"])
def test_writers_equal_the_csv_writer_oracles(case, tmp_path, net, spec, baseline_rates):
    result = run_simulation(writer_day(case, net, spec, baseline_rates))
    if case == "zero_demand":
        assert not result.riders and not result.trips
    elif case == "capacity_6_pooled":
        assert max(len(t.rider_ids) for t in result.trips) > 4
    elif case == "horizon_cuts_revenue_leg":
        assert any(r.board_min is not None and r.dropoff_min is None for r in result.riders)
    else:
        assert result.config.net.n == 30 and result.unserved > 1000

    writers = [
        (write_trips_csv, trips_oracle, result),
        (write_riders_csv, riders_oracle, result),
        (write_waits_csv, waits_oracle, result.waits),
    ]
    for write, oracle, data in writers:
        write(data, tmp_path / "got.csv")
        oracle(data, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes(), write.__name__
        if case == "zero_demand":
            assert got.count(b"\r\n") == 1  # header only

    matrix = throughput_matrix(result)
    assert matrix.dtype == np.int64
    np.testing.assert_array_equal(matrix, throughput_oracle(result))
    assert matrix.sum() == result.served
    if case == "zero_demand":
        assert not matrix.any()
