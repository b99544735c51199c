"""Analytical fleet estimator chain, end to end and link by link."""

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
    build_network,
    size_fleet,
)
from uamsim.network import EARTH_RADIUS_MI, GeoNode


def equator_pair(miles: float, spec: VehicleSpec):
    """Two-node network: nodes on the equator ``miles`` of arc apart."""
    nodes = [GeoNode(0, "A", 0.0, 0.0), GeoNode(1, "B", 0.0, math.degrees(miles / EARTH_RADIUS_MI))]
    return build_network(nodes, spec)


LONG_RANGE = VehicleSpec(max_range_mi=200.0)


def pair_report(miles: float, rate: float = 0.0, **kwargs):
    """``size_fleet`` on an equator pair with ``rate`` pax/min each way."""
    rates = DemandRates(per_min=np.array([[0.0, rate], [rate, 0.0]]))
    return size_fleet(equator_pair(miles, LONG_RANGE), LONG_RANGE, rates, **kwargs)


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
    # cycles of 60, 30 and 23 minutes: 45, 15 and 8 air minutes plus 15 overhead
    assert pair_report(112.5).cycles_per_hour == 1.0
    assert pair_report(37.5).cycles_per_hour == 2.0
    assert pair_report(20.0).cycles_per_hour == pytest.approx(2.609, abs=1e-3)


def test_hourly_capacity(net, spec, baseline_rates):
    assert size_fleet(net, spec, baseline_rates).pax_per_aircraft_hour == pytest.approx(7.83, abs=1e-3)
    assert pair_report(37.5, pooling_q=1.0).pax_per_aircraft_hour == 2.0
    for q in (5.0, 0.0):
        with pytest.raises(ValidationError, match=rf"pooling_q must be in \(0, 4\], got {q}"):
            size_fleet(net, spec, baseline_rates, pooling_q=q)


def test_hourly_demand(net, spec, baseline_rates):
    assert size_fleet(net, spec, baseline_rates).demand_per_hour == pytest.approx(30.96)
    assert pair_report(20.0).demand_per_hour == 0.0


def test_base_fleet(net, spec, baseline_rates):
    assert size_fleet(net, spec, baseline_rates).base_fleet == pytest.approx(3.954, abs=1e-3)
    assert pair_report(20.0).base_fleet == 0.0
    # 7 pax/h against 2 cycles/h of 3.5 riders each
    assert pair_report(37.5, rate=7 / 120, pooling_q=3.5).base_fleet == 1.0


def test_robust_fleet(net, spec, baseline_rates):
    assert size_fleet(net, spec, baseline_rates, alpha=2.0).fleet == 8
    assert size_fleet(net, spec, baseline_rates, alpha=5.0).fleet == 20
    assert pair_report(20.0, alpha=2.0).fleet == 0


def test_robust_fleet_warns_outside_band(net, spec, baseline_rates):
    for alpha in (1.5, 6.0):
        with pytest.warns(UserWarning, match=f"safety factor {alpha} outside the usual band") as record:
            size_fleet(net, spec, baseline_rates, alpha=alpha)
        # the caller's line, not sizing.py; co_filename, not __file__, is the
        # name the warning reads, and it stays right under bytecode copied
        # from another checkout
        assert record[0].filename == test_robust_fleet_warns_outside_band.__code__.co_filename


# NaN once ended in a bare ValueError, and +inf and 10**400 in an OverflowError
@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf,
                                   pytest.param(10**400, id="beyond-float-range")])
def test_size_fleet_refuses_a_nonpositive_alpha(net, spec, baseline_rates, alpha):
    with pytest.raises(ValidationError, match=f"safety factor must be positive, got {alpha}"):
        size_fleet(net, spec, baseline_rates, alpha=alpha)


def test_size_fleet_refuses_rates_of_another_size(net, spec):
    # a 3x3 matrix on the 4-node network once raised numpy's broadcast error
    rates = DemandRates(per_min=np.zeros((3, 3)))
    with pytest.raises(ValidationError, match="demand rate matrix does not match the network size"):
        size_fleet(net, spec, rates)


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
    rates = DemandRates(per_min=np.array([[0.0, lam], [0.0, 0.0]]))
    report = size_fleet(equator_pair(dist, spec), spec, rates, pooling_q=1.0)
    assert report.base_fleet == pytest.approx(lam * t_cycle, rel=1e-9)


@st.composite
def small_worlds(draw):
    """Two or three nodes within ~30 miles of each other, any nonnegative
    demand between them, and any pooling level and safety factor."""
    n = draw(st.sampled_from([2, 3]))
    offsets = st.floats(min_value=0.0, max_value=0.3)
    nodes = [GeoNode(i, f"N{i}", 37.0 + draw(offsets), -122.0 + draw(offsets)) for i in range(n)]
    spec = VehicleSpec(turnaround_min=draw(st.integers(1, 30)), buffer_min=draw(st.integers(1, 10)),
                       capacity=draw(st.integers(1, 6)))
    per_min = np.array([[0.0 if i == j else draw(st.floats(min_value=0.0, max_value=5.0))
                         for j in range(n)] for i in range(n)])
    pooling_q = draw(st.floats(min_value=0.1, max_value=float(spec.capacity)))
    alpha = draw(st.floats(min_value=0.5, max_value=8.0))
    return build_network(nodes, spec), spec, DemandRates(per_min=per_min), alpha, pooling_q


@pytest.mark.filterwarnings("ignore:safety factor")
@given(world=small_worlds())
def test_size_fleet_report_is_one_chain(world):
    net, spec, rates, alpha, pooling_q = world
    report = size_fleet(net, spec, rates, alpha=alpha, pooling_q=pooling_q)
    assert report.avg_cycle_min == avg_cycle_time(net, spec)
    assert report.cycles_per_hour == 60.0 / report.avg_cycle_min
    assert report.pax_per_aircraft_hour == report.cycles_per_hour * pooling_q
    assert report.demand_per_hour == 60.0 * rates.total_rate
    assert report.base_fleet == report.demand_per_hour / report.pax_per_aircraft_hour
    assert report.fleet == math.ceil(report.safety_factor * report.base_fleet)
    assert (report.safety_factor, report.pooling_q) == (alpha, pooling_q)
