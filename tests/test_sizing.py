"""Analytical fleet estimator chain, end to end and op by op."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uamsim import (
    DemandRates,
    SizingError,
    ValidationError,
    VehicleSpec,
    avg_cycle_time,
    base_fleet,
    build_network,
    cycles_per_hour,
    hourly_capacity,
    hourly_demand,
    robust_fleet,
    size_fleet,
)
from uamsim.network import EARTH_RADIUS_MI, GeoNode


def equator_pair(miles: float, spec: VehicleSpec):
    """Two-node network: nodes on the equator ``miles`` of arc apart."""
    nodes = [GeoNode(0, "A", 0.0, 0.0), GeoNode(1, "B", 0.0, math.degrees(miles / EARTH_RADIUS_MI))]
    return build_network(nodes, spec)


def test_flight_time_examples(spec):
    net = equator_pair(150.0, spec)
    assert net.dist[0, 1] == 150.0
    assert net.air_time[0, 1] == net.air_time[1, 0] == 60.0
    assert net.air_time[0, 0] == 0.0
    assert equator_pair(30.2, spec).air_time[0, 1] == pytest.approx(12.08)


def test_cycle_time_examples(spec):
    assert avg_cycle_time(equator_pair(30.2, spec), spec) == pytest.approx(27.08)
    assert avg_cycle_time(equator_pair(150.0, spec), spec) == 75.0


def test_avg_cycle_time_baseline(net, spec):
    # oracle distances average 19.97 mi -> about 8 air minutes + 15 overhead
    assert avg_cycle_time(net, spec) == pytest.approx(23.0, abs=0.1)


def test_avg_cycle_time_symmetric_equals_unordered_mean(net, spec):
    ordered = avg_cycle_time(net, spec)
    unordered = []
    for i in range(net.n):
        for j in range(i + 1, net.n):
            air_min = 60.0 * float(net.dist[i, j]) / spec.cruise_speed_mph
            unordered.append(air_min + spec.turnaround_min + spec.buffer_min)
    assert ordered == pytest.approx(sum(unordered) / len(unordered))


def test_avg_cycle_time_needs_two_nodes(spec):
    net1 = build_network([GeoNode(0, "SFO", 37.6190, -122.3750)], spec)
    with pytest.raises(SizingError):
        avg_cycle_time(net1, spec)


def test_avg_cycle_time_pure_overhead_at_zero_distance(spec):
    # co-located nodes: every pair is 0 miles, leaving only buffer + charge
    twins = [GeoNode(0, "A", 37.0, -122.0), GeoNode(1, "B", 37.0, -122.0)]
    assert avg_cycle_time(build_network(twins, spec), spec) == 15.0


def test_cycles_per_hour():
    assert cycles_per_hour(60.0) == 1.0
    assert cycles_per_hour(30.0) == 2.0
    assert cycles_per_hour(23.0) == pytest.approx(2.609, abs=1e-3)
    with pytest.raises(SizingError):
        cycles_per_hour(0.0)


def test_hourly_capacity():
    assert hourly_capacity(2.61, 3.0) == pytest.approx(7.83)
    assert hourly_capacity(2.0, 1.0) == 2.0
    assert hourly_capacity(0.0, 3.0) == 0.0
    with pytest.raises(ValidationError):
        hourly_capacity(2.0, 5.0, capacity=4)


def test_hourly_demand(baseline_rates):
    assert hourly_demand(baseline_rates) == pytest.approx(30.96)
    zero = DemandRates(per_min=np.zeros((2, 2)))
    assert hourly_demand(zero) == 0.0


def test_base_fleet():
    assert base_fleet(30.96, 7.83) == pytest.approx(3.954, abs=1e-3)
    assert base_fleet(0.0, 5.0) == 0.0
    assert base_fleet(7.0, 7.0) == 1.0
    with pytest.raises(SizingError):
        base_fleet(1.0, 0.0)


def test_robust_fleet():
    assert robust_fleet(3.954074, 2.0) == 8
    assert robust_fleet(3.954074, 5.0) == 20
    assert robust_fleet(0.0, 2.0) == 0


def test_robust_fleet_warns_outside_band():
    with pytest.warns(UserWarning):
        robust_fleet(2.0, 1.5)
    with pytest.warns(UserWarning):
        robust_fleet(2.0, 6.0)


def test_size_fleet_chain(net, spec, baseline_rates):
    report = size_fleet(net, spec, baseline_rates, alpha=2.0, pooling_q=3.0)
    assert report.avg_cycle_min == pytest.approx(23.0, abs=0.1)
    assert report.cycles_per_hour == pytest.approx(2.61, abs=0.01)
    assert report.pax_per_aircraft_hour == pytest.approx(7.83, abs=0.01)
    assert report.demand_per_hour == pytest.approx(30.96)
    assert report.base_fleet == pytest.approx(3.95, abs=0.01)
    assert report.fleet == 8
    assert size_fleet(net, spec, baseline_rates, alpha=5.0).fleet == 20


def test_fleet_monotone_in_alpha_and_demand(net, spec, baseline_rates):
    fleets = [size_fleet(net, spec, baseline_rates, alpha=a).fleet for a in (2.0, 3.0, 4.0, 5.0)]
    assert fleets == sorted(fleets)
    doubled = DemandRates(per_min=baseline_rates.per_min * 2)
    assert size_fleet(net, spec, doubled).fleet >= size_fleet(net, spec, baseline_rates).fleet


@given(
    lam=st.floats(min_value=1e-4, max_value=5.0),
    dist=st.floats(min_value=0.1, max_value=59.0),
)
def test_little_law_roundtrip(lam, dist):
    # single OD pair, q = 1: base fleet reduces to rate times cycle time
    spec = VehicleSpec()
    t_cycle = 60.0 * dist / spec.cruise_speed_mph + spec.turnaround_min + spec.buffer_min
    per_min = np.array([[0.0, lam], [0.0, 0.0]])
    rates = DemandRates(per_min=per_min)
    cap = hourly_capacity(cycles_per_hour(t_cycle), 1.0, spec.capacity)
    n_base = base_fleet(hourly_demand(rates), cap)
    assert n_base == pytest.approx(lam * t_cycle, rel=1e-9)


@pytest.mark.filterwarnings("ignore:safety factor")
@pytest.mark.parametrize(
    "n,alpha,k",
    [(3.0, 2.0, 2.0), (1.5, 4.0, 3.0), (0.25, 4.0, 0.5)],
)
def test_ceiling_invariance_at_exact_rationals(n, alpha, k):
    assert robust_fleet(n, alpha) == robust_fleet(n * k, alpha / k)
