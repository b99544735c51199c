"""Service metrics, the car comparator, and the refinement sweep."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uamsim import (
    CostParams,
    DemandRates,
    MetricsError,
    SimConfig,
    TripRecord,
    ValidationError,
    VehicleSpec,
    VehicleStats,
    check_wait_target,
    compute_metrics,
    effective_cost_car,
    effective_cost_uam,
    first_passing,
    refine_fleet,
    run_simulation,
    throughput_matrix,
    time_savings,
    utilization_band,
    wait_stats,
)
from uamsim.simulate import REPOSITION, REVENUE, SimResult

SFO_SJC_MI = 30.206454  # oracle distance, frozen in test_network


def _mission_min(distance_mi: float, spec: VehicleSpec) -> float:
    """Taxi buffer plus airborne minutes, as the network's air_time gives them."""
    return spec.buffer_min + 60.0 * distance_mi / spec.cruise_speed_mph


def _cost(car_speed=20.0) -> CostParams:
    return CostParams(car_speed_mph=car_speed)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(CostParams)])
def test_cost_params_refuse_a_non_finite_number(name, value):
    # the loader refuses these in JSON, but not every caller loads
    with pytest.raises(ValidationError, match=f"{name} must be positive and finite, got {value}"):
        CostParams(**{"car_speed_mph": 20.0, name: value})


def test_cost_params_refuse_a_road_shorter_than_the_great_circle():
    with pytest.raises(ValidationError, match="circuity must be at least 1.0, got 0.9"):
        CostParams(car_speed_mph=20.0, circuity=0.9)
    assert CostParams(car_speed_mph=20.0, circuity=1.0).circuity == 1.0


# -- wait statistics ------------------------------------------------------------

def test_wait_stats_uniform():
    assert wait_stats([5, 5, 5]) == (5.0, 5)


def test_wait_stats_nearest_rank():
    mean, p95 = wait_stats(list(range(1, 101)))
    assert mean == 50.5
    assert p95 == 95


def test_wait_stats_empty_errors():
    with pytest.raises(MetricsError):
        wait_stats([])


@given(st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=400))
def test_p95_at_least_median(waits):
    _, p95 = wait_stats(waits)
    median = sorted(waits)[(len(waits) - 1) // 2]
    assert p95 >= median


def test_wait_target_boundary():
    assert check_wait_target(7.47)
    assert check_wait_target(10.0)
    assert not check_wait_target(10.01)
    assert not check_wait_target(np.nextafter(10.0, 11.0))


# -- utilization ------------------------------------------------------------------

def _result_with_vehicle_minutes(net, spec, rev, repo, buf, chg, idle, t_sim=1200, trips=()):
    """A one-aircraft day with the given bucket minutes and trip log."""
    rates = DemandRates(per_min=np.zeros((net.n, net.n)))
    cfg = SimConfig(net=net, spec=spec, rates=rates, fleet=1, t_sim=t_sim)
    stats = VehicleStats(0, rev, repo, buf, chg, idle, "idle", 0)
    return SimResult(
        config=cfg, trips=trips, riders=(), vehicles=(stats,),
        generated=0, served=0, onboard_at_end=0, unserved=0,
    )


def test_air_utilization_half(net, spec):
    result = _result_with_vehicle_minutes(net, spec, 600, 0, 0, 0, 600)
    assert compute_metrics(result).u_air == 0.5


def test_idle_fleet_zero_utilization(net, spec):
    report = compute_metrics(_result_with_vehicle_minutes(net, spec, 0, 0, 0, 0, 1200))
    assert report.u_air == 0.0
    assert report.u_air_incl_reposition == 0.0
    assert report.u_cycle == 0.0


def test_busy_every_minute_is_full_cycle(net, spec):
    report = compute_metrics(_result_with_vehicle_minutes(net, spec, 500, 200, 250, 250, 0))
    assert report.u_cycle == 1.0
    assert report.u_air == pytest.approx(500 / 1200)
    assert report.u_air_incl_reposition == pytest.approx(700 / 1200)


def test_utilization_band_classification(net, spec):
    assert utilization_band(0.65) == "in_band"
    assert utilization_band(0.858) == "overstressed"
    assert utilization_band(0.40) == "under_utilized"
    # both band edges are in band: 720 and 840 of 1200 minutes
    for rev, band in [(480, "under_utilized"), (720, "in_band"), (780, "in_band"),
                      (840, "in_band"), (1030, "overstressed")]:
        report = compute_metrics(_result_with_vehicle_minutes(net, spec, rev, 0, 0, 0, 1200 - rev))
        assert (report.u_air_band, report.u_air_ok) == (band, band == "in_band"), rev


# -- throughput and load factor ----------------------------------------------------

def test_throughput_zero_demand(net, spec):
    rates = DemandRates(per_min=np.zeros((net.n, net.n)))
    result = run_simulation(SimConfig(net=net, spec=spec, rates=rates, fleet=2, t_sim=50))
    assert throughput_matrix(result).sum() == 0


def test_throughput_single_served_rider(net, spec):
    from uamsim import RiderRequest, Simulation

    rates = DemandRates(per_min=np.zeros((net.n, net.n)))
    cfg = SimConfig(net=net, spec=spec, rates=rates, fleet=1, t_sim=40,
                    initial_placement="node:0")
    sim = Simulation(cfg, riders=[RiderRequest(0, 0, 2, 0)])
    matrix = throughput_matrix(sim.run())
    assert matrix[0, 2] == 1
    assert matrix.sum() == 1


def test_throughput_counts_dropoffs_per_pair(net, spec, baseline_rates):
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=8, t_sim=400, seed=2)
    result = run_simulation(cfg)
    matrix = throughput_matrix(result)
    assert matrix.sum() == result.served
    assert (np.diagonal(matrix) == 0).all()
    dropped = [r for r in result.riders if r.dropoff_min is not None]
    some = dropped[0]
    assert matrix[some.origin, some.dest] >= 1


def test_load_factor(net, spec):
    def load(trips):
        return compute_metrics(_result_with_vehicle_minutes(net, spec, 0, 0, 0, 0, 1200, trips=trips))

    trips = tuple(
        TripRecord(0, REVENUE, 0, 1, m, m + 10, tuple(range(3)))
        for m in range(0, 40, 20)
    )
    assert load(trips).load_factor == 0.75
    solo = (TripRecord(0, REVENUE, 0, 1, 0, 10, (1,)),)
    assert load(solo).load_factor == 0.25
    assert load(trips).load_ok and not load(solo).load_ok
    # a reposition leg carries no seats: with no revenue leg the factor is 0.0
    assert load(trips + (TripRecord(0, REPOSITION, 1, 0, 50, 60, ()),)).load_factor == 0.75
    assert load(()).load_factor == 0.0
    assert load((TripRecord(0, REPOSITION, 1, 0, 50, 60, ()),)).load_factor == 0.0


# -- effective cost ------------------------------------------------------------------

def test_effective_cost_uam_oracle(spec):
    # SFO->SJC pooled by 3 with a 7.47-minute wait: mission 17.08 min,
    # operating share $57.42, time value $16.37
    cost = effective_cost_uam(_mission_min(SFO_SJC_MI, spec), 3, 7.47, _cost())
    assert cost == pytest.approx(73.78, abs=0.05)


def test_effective_cost_uam_zero_prices(spec):
    params = CostParams(car_speed_mph=20.0, op_cost_per_hr=1e-12, value_of_time_per_hr=1e-12)
    assert effective_cost_uam(_mission_min(10.0, spec), 2, 5.0, params) == pytest.approx(0.0, abs=1e-9)


def test_solo_rider_pays_four_times_share(spec):
    params = CostParams(car_speed_mph=20.0, value_of_time_per_hr=1e-12)
    mission = _mission_min(SFO_SJC_MI, spec)
    solo = effective_cost_uam(mission, 1, 0.0, params)
    pooled = effective_cost_uam(mission, 4, 0.0, params)
    assert solo == pytest.approx(4 * pooled)


def test_effective_cost_car_oracle():
    minutes, cost = effective_cost_car(SFO_SJC_MI, _cost())
    assert minutes == pytest.approx(117.8, abs=0.1)
    assert cost == pytest.approx(101.3, abs=0.1)


def test_effective_cost_car_zero_distance():
    assert effective_cost_car(0.0, _cost()) == (0.0, 0.0)


def test_doubling_car_speed_halves_time_not_mileage():
    m1, c1 = effective_cost_car(20.0, _cost(20.0))
    m2, c2 = effective_cost_car(20.0, _cost(40.0))
    assert m2 == pytest.approx(m1 / 2)
    mileage = 0.58 * 1.3 * 20.0
    assert c1 - mileage == pytest.approx(2 * (c2 - mileage))


def test_time_savings_oracle(spec):
    t_car, _ = effective_cost_car(SFO_SJC_MI, _cost())
    t_uam = 7.47 + spec.buffer_min + 60.0 * SFO_SJC_MI / spec.cruise_speed_mph
    assert time_savings(t_car, t_uam) == pytest.approx(0.79, abs=0.02)
    assert time_savings(50.0, 50.0) == 0.0
    assert time_savings(50.0, 60.0) == pytest.approx(-0.2)
    with pytest.raises(ValidationError):
        time_savings(0.0, 10.0)


def test_time_savings_scale_invariant():
    # scaling every time by the same exact rational leaves the fraction alone
    assert time_savings(96.0, 24.0) == time_savings(96.0 * 4, 24.0 * 4) == 0.75


# -- compute_metrics and refinement ---------------------------------------------------

def test_compute_metrics_zero_demand(net, spec):
    rates = DemandRates(per_min=np.zeros((net.n, net.n)))
    result = run_simulation(SimConfig(net=net, spec=spec, rates=rates, fleet=2, t_sim=60))
    report = compute_metrics(result)
    assert report.mean_wait == 0.0 and report.p95_wait == 0.0
    assert report.u_air == 0.0 and report.u_cycle == 0.0
    assert report.load_factor == 0.0
    assert report.served == 0


def test_metrics_ordering_on_live_run(net, spec, baseline_rates):
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=10, t_sim=600, seed=5)
    report = compute_metrics(run_simulation(cfg))
    assert 0.0 <= report.u_air <= report.u_cycle <= 1.0
    assert report.u_air <= report.u_air_incl_reposition <= report.u_cycle


def test_refine_fleet_zero_demand(net, spec):
    rates = DemandRates(per_min=np.zeros((net.n, net.n)))
    cfg = SimConfig(net=net, spec=spec, rates=rates, fleet=1, t_sim=60)
    rows = list(refine_fleet(cfg, seeds=2, n_min=1, n_max=3))
    assert first_passing(rows) == 1
    assert len(rows) == 3


def test_refine_fleet_infeasible_within_bound(net, spec, baseline_rates):
    heavy = DemandRates(per_min=baseline_rates.per_min * 6)
    cfg = SimConfig(net=net, spec=spec, rates=heavy, fleet=1, t_sim=400, seed=1)
    rows = list(refine_fleet(cfg, seeds=2, n_min=1, n_max=2))
    assert not any(row.wait_ok for row in rows)
    assert first_passing(rows) is None
    assert len(rows) == 2


def test_refine_fleet_picks_smallest_passing(net, spec, baseline_rates):
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=1, t_sim=400, seed=0)
    rows = list(refine_fleet(cfg, seeds=3, n_min=8, n_max=24))
    assert [row.fleet for row in rows] == list(range(8, 25))
    fleet = first_passing(rows)
    assert fleet is not None
    first_ok = next(row.fleet for row in rows if row.wait_ok)
    assert fleet == first_ok


def test_refine_fleet_samples_each_seed_once(net, spec, baseline_rates, monkeypatch):
    import uamsim.metrics
    import uamsim.simulate
    from uamsim import generate_arrivals

    seeds_sampled = []

    def counted(rates, t_sim, seed):
        seeds_sampled.append(seed)
        return generate_arrivals(rates, t_sim, seed)

    for module in (uamsim.metrics, uamsim.simulate):
        monkeypatch.setattr(module, "generate_arrivals", counted)
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=1, t_sim=200, seed=4)
    rows = refine_fleet(cfg, seeds=3, n_min=1, n_max=5)
    assert seeds_sampled == [4, 5, 6]  # every stream, before the first row
    assert len(list(rows)) == 5
    assert seeds_sampled == [4, 5, 6]


@pytest.mark.parametrize("seeds, n_min, n_max, message", [
    (2, 0, 3, "n_min must be at least 1, got 0"),
    (2, 5, 4, "n_max 4 below n_min 5"),
    (0, 1, 3, "seeds must be at least 1, got 0"),
])
def test_refine_fleet_checks_its_arguments_at_the_call(net, spec, baseline_rates,
                                                       seeds, n_min, n_max, message):
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=1, t_sim=60)
    with pytest.raises(ValidationError, match=message):
        refine_fleet(cfg, seeds=seeds, n_min=n_min, n_max=n_max)  # never iterated


def test_refine_fleet_runs_a_size_only_when_its_row_is_read(net, spec, baseline_rates, monkeypatch):
    import uamsim.metrics

    fleets_run = []

    def counted(cfg, riders=None):
        fleets_run.append(cfg.fleet)
        return run_simulation(cfg, riders)

    monkeypatch.setattr(uamsim.metrics, "run_simulation", counted)
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=1, t_sim=200, seed=4)
    rows = refine_fleet(cfg, seeds=2, n_min=3, n_max=6)
    assert fleets_run == []
    assert next(rows).fleet == 3
    assert fleets_run == [3, 3]
    assert [row.fleet for row in rows] == [4, 5, 6]
    assert fleets_run == [3, 3, 4, 4, 5, 5, 6, 6]


def test_sweep_row_is_the_seed_mean_of_each_report_field(net, spec, baseline_rates):
    from dataclasses import replace

    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=1, t_sim=300, seed=7)
    (row,) = refine_fleet(cfg, seeds=3, n_min=6, n_max=6)
    reports = [compute_metrics(run_simulation(replace(cfg, fleet=6, seed=7 + k))) for k in range(3)]
    for name in ("mean_wait", "p95_wait", "served", "unserved", "u_air", "u_cycle", "load_factor"):
        values = [getattr(r, name) for r in reports]
        assert getattr(row, name) == (values[0] + values[1] + values[2]) / 3, name
    assert row.fleet == 6
    assert row.wait_ok == (row.mean_wait <= 10.0)
