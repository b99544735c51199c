from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from uamsim import (
    REVENUE,
    GeoNode,
    ODMatrix,
    SimConfig,
    VehicleSpec,
    build_network,
    build_world,
    compute_rates,
    load_scenario,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_DIR = REPO_ROOT / "scenarios" / "baseline"


@pytest.fixture(scope="session")
def bay_nodes() -> list[GeoNode]:
    return [
        GeoNode(0, "SFO", 37.6190, -122.3750),
        GeoNode(1, "OAK", 37.7213, -122.2210),
        GeoNode(2, "SJC", 37.3623, -121.9290),
        GeoNode(3, "PAO", 37.4611, -122.1150),
    ]


@pytest.fixture(scope="session")
def spec() -> VehicleSpec:
    return VehicleSpec()


@pytest.fixture(scope="session")
def net(bay_nodes, spec):
    return build_network(bay_nodes, spec)


@pytest.fixture(scope="session")
def baseline_scenario():
    return load_scenario(BASELINE_DIR / "config.json")


@pytest.fixture(scope="session")
def baseline_world(baseline_scenario):
    return build_world(baseline_scenario)


@pytest.fixture(scope="session")
def baseline_rates(baseline_world):
    return baseline_world[3]


@pytest.fixture
def sim_config(net, spec, baseline_rates):
    """Baseline-shaped SimConfig factory with overridable fields."""

    def make(**kwargs) -> SimConfig:
        base = dict(
            net=net,
            spec=spec,
            rates=baseline_rates,
            fleet=32,
            t_sim=1200,
            seed=0,
        )
        base.update(kwargs)
        return SimConfig(**base)

    return make


def single_pair_rates(net, pax_per_min: float, origin: int = 0, dest: int = 2):
    """Rates with demand on exactly one ordered pair."""
    from uamsim import DemandRates

    lam = np.zeros((net.n, net.n))
    lam[origin, dest] = pax_per_min
    return DemandRates(per_min=lam)


def backlog_config(seed: int, fleet: int, t_sim: int) -> SimConfig:
    """A multi-node day whose fleet is far too small, so the queue backs up.

    Same recipe as the benchmark's stress scenario: 30 vertiports uniform in
    a 0.5 degree box and monthly OD counts uniform on [0, 3000).
    """
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 3000, size=(30, 30))
    np.fill_diagonal(counts, 0)
    lat = 37.25 + 0.5 * rng.random(30)
    lon = -122.25 + 0.5 * rng.random(30)
    spec = VehicleSpec()
    nodes = [GeoNode(i, f"V{i:02d}", float(lat[i]), float(lon[i])) for i in range(30)]
    net = build_network(nodes, spec)
    rates = compute_rates(ODMatrix(counts=counts))
    return SimConfig(net=net, spec=spec, rates=rates, fleet=fleet, t_sim=t_sim, seed=seed)


def idle_minutes_from_log(result) -> list[int]:
    """Each aircraft's idle minutes, derived from the trip log alone.

    An aircraft is idle from the start of the day to its first take-off,
    from each leg's landing plus its turnaround (capped at the horizon) to
    its next take-off, and from the last of these to the horizon.
    """
    cfg = result.config
    free = [0] * cfg.fleet
    idle = [0] * cfg.fleet
    for trip in result.trips:  # in launch order, so each aircraft's legs in order
        charged = trip.kind == REVENUE or cfg.charge_after_reposition
        turnaround = cfg.spec.turnaround_min if charged else 0
        idle[trip.vehicle_id] += trip.depart_min - free[trip.vehicle_id]
        free[trip.vehicle_id] = min(trip.arrive_min + turnaround, cfg.t_sim)
    return [minutes + cfg.t_sim - end for minutes, end in zip(idle, free)]
