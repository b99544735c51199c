"""Dispatch engine behavior: traces, invariants, and determinism."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from uamsim import (
    REPOSITION,
    REVENUE,
    ConfigError,
    DemandRates,
    GeoNode,
    RiderRequest,
    SimConfig,
    Simulation,
    TripRecord,
    VehicleSpec,
    build_network,
    generate_arrivals,
    run_simulation,
)
from uamsim.network import EARTH_RADIUS_MI

from conftest import backlog_config, idle_minutes_from_log, single_pair_rates

SFO, OAK, SJC, PAO = 0, 1, 2, 3


def zero_rates(net) -> DemandRates:
    return DemandRates(per_min=np.zeros((net.n, net.n)))


def scripted_sim(cfg: SimConfig, riders: list[RiderRequest]) -> Simulation:
    """Simulation over a config that draws no riders, with a hand-written list."""
    assert not generate_arrivals(cfg.rates, cfg.t_sim, cfg.seed), \
        "scripted scenarios need a config that draws no riders"
    return Simulation(cfg, riders=list(riders))


def place(sim: Simulation, vid: int, node: int) -> None:
    """Relocate an idle vehicle before the clock starts."""
    sim.last_leg[vid] = TripRecord(vid, REVENUE, node, node, 0, 0, ())
    rebuild_idle_heaps(sim)


def rebuild_idle_heaps(sim: Simulation) -> None:
    """Refill each node's idle heap from the vehicles not scheduled to return.

    A sorted list is a valid heap.
    """
    busy = {vid for vids in sim.due.values() for vid in vids}
    sim.idle_at = [
        sorted(vid for vid, leg in enumerate(sim.last_leg) if leg.dest == node and vid not in busy)
        for node in range(sim.cfg.net.n)
    ]
    sim.idle_count = sum(map(len, sim.idle_at))


# -- degenerate and single-agent traces --------------------------------------

def test_zero_demand_everyone_idles(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=5, t_sim=300)
    result = run_simulation(cfg)
    assert result.trips == ()
    assert result.generated == result.served == result.unserved == 0
    for v in result.vehicles:
        assert v.end_state == "idle"
        assert v.idle_min == 300
        assert v.revenue_air_min == v.reposition_air_min == v.buffer_min == v.charge_min == 0


def test_an_aircraft_that_never_flies_is_idle_on_a_day_shorter_than_a_turnaround(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=2, t_sim=spec.turnaround_min - 1)
    for v in run_simulation(cfg).vehicles:
        assert (v.end_state, v.idle_min, v.end_location) == ("idle", cfg.t_sim, v.vehicle_id)


def test_single_rider_trace(net, spec):
    # SFO -> SJC: air = ceil(12.08) = 13, so flying 5 + 13 = 18 minutes,
    # then a 10-minute charge before going idle
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=40,
                    initial_placement="node:0")
    sim = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)])
    result = sim.run()
    rider = result.riders[0]
    assert rider.board_min == 0
    assert rider.dropoff_min == 18
    assert result.trips == (TripRecord(0, REVENUE, SFO, SJC, 0, 18, (0,)),)
    v = result.vehicles[0]
    assert v.revenue_air_min == 13
    assert v.buffer_min == 5
    assert v.charge_min == 10
    assert v.idle_min == 40 - 28
    assert v.end_state == "idle"


def test_charge_truncated_at_horizon(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=25,
                    initial_placement="node:0")
    sim = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)])
    result = sim.run()
    v = result.vehicles[0]
    assert v.end_state == "charging"
    assert v.charge_min == 25 - 18
    assert result.riders[0].dropoff_min == 18


def test_rider_airborne_at_horizon_counts_as_onboard(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=10,
                    initial_placement="node:0")
    sim = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)])
    result = sim.run()
    assert result.onboard_at_end == 1
    assert result.served == 0 and result.unserved == 0
    v = result.vehicles[0]
    # 10 elapsed minutes: 5 buffer then 5 airborne
    assert v.buffer_min == 5 and v.revenue_air_min == 5
    assert v.end_state == "flying"


def assert_buckets_fill_horizon(result) -> None:
    for v in result.vehicles:
        total = v.revenue_air_min + v.reposition_air_min + v.buffer_min + v.charge_min + v.idle_min
        assert total == result.config.t_sim


@pytest.mark.parametrize("t_sim, served", [(19, True), (18, False)])
def test_revenue_landing_at_the_horizon_is_not_served(net, spec, t_sim, served):
    # SFO -> SJC lands at minute 18: inside a 19-minute day, at the edge of
    # an 18-minute one
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=t_sim,
                    initial_placement="node:0")
    result = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)]).run()
    rider = result.riders[0]
    v = result.vehicles[0]
    assert (v.buffer_min, v.revenue_air_min) == (5, 13)
    if served:
        assert rider.dropoff_min == 18
        assert (result.served, result.onboard_at_end) == (1, 0)
        assert v.end_state == "charging" and v.charge_min == 1
    else:
        assert rider.dropoff_min is None and rider.board_min == 0
        assert (result.served, result.onboard_at_end) == (0, 1)
        assert v.end_state == "flying" and v.end_location is None
        assert v.charge_min == 0
    assert result.unserved == 0
    assert_buckets_fill_horizon(result)


@pytest.mark.parametrize("t_sim", [19, 24, 28])
def test_charge_at_the_horizon_counts_minutes_since_landing(net, spec, t_sim):
    # lands at 18 and would charge until 28; a horizon at 28 still reads
    # charging, with the whole turnaround counted
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=t_sim,
                    initial_placement="node:0")
    result = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)]).run()
    v = result.vehicles[0]
    assert v.end_state == "charging" and v.end_location == SJC
    assert v.charge_min == t_sim - 18
    assert v.idle_min == 0
    assert_buckets_fill_horizon(result)


@pytest.mark.parametrize("t_sim, buckets, end_state", [
    # (buffer, reposition air, revenue air), end state
    (3, (3, 0, 0), "repositioning"),
    (8, (5, 3, 0), "repositioning"),
    (10, (5, 5, 0), "repositioning"),  # lands at the horizon
    (11, (6, 5, 0), "flying"),  # the rider boarded at 10, one minute of buffer flown
])
def test_reposition_without_charge_at_the_horizon(net, spec, t_sim, buckets, end_state):
    # OAK -> SFO empty summon lands at 10 and, with no charge after a
    # reposition leg, boards its rider at once
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=t_sim,
                    initial_placement="node:1", charge_after_reposition=False)
    result = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)]).run()
    v = result.vehicles[0]
    assert (v.buffer_min, v.reposition_air_min, v.revenue_air_min) == buckets
    assert v.charge_min == v.idle_min == 0
    assert v.end_state == end_state and v.end_location is None
    assert_buckets_fill_horizon(result)


@pytest.mark.parametrize("t_sim, buffer_min, air_min", [(3, 3, 0), (8, 5, 3)])
def test_summoned_leg_airborne_at_horizon_reports_repositioning(net, spec, t_sim, buffer_min, air_min):
    # OAK -> SFO empty summon: 5 buffer then 5 air; the horizon cuts it
    # inside the buffer or inside the air minutes
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=t_sim,
                    initial_placement="node:1")
    result = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)]).run()
    assert [t.kind for t in result.trips] == [REPOSITION]
    v = result.vehicles[0]
    assert v.end_state == "repositioning"
    assert v.end_location is None
    assert (v.buffer_min, v.reposition_air_min, v.revenue_air_min) == (buffer_min, air_min, 0)
    assert v.idle_min == v.charge_min == 0
    assert result.onboard_at_end == 0 and result.unserved == 1


def test_leg_longer_than_int64_minutes_stays_aloft(bay_nodes, baseline_rates):
    # at 1e-20 mph a leg takes ~1e23 minutes; the int64 ceil wrapped it to a
    # landing near minute -2**63, and the day ran on with u_air -3.8e16
    spec = VehicleSpec(cruise_speed_mph=1e-20)
    cfg = SimConfig(net=build_network(bay_nodes, spec), spec=spec, rates=baseline_rates, fleet=4, t_sim=120)
    result = run_simulation(cfg)
    assert len(result.trips) == 4 and all(leg.arrive_min > 2**63 for leg in result.trips)
    assert [v.end_state for v in result.vehicles] == ["flying", "repositioning", "repositioning", "flying"]
    assert [v.revenue_air_min + v.reposition_air_min for v in result.vehicles] == [113, 109, 109, 110]
    assert (result.generated, result.served, result.onboard_at_end, result.unserved) == (55, 0, 3, 52)


def test_records_are_immutable(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=40,
                    initial_placement="node:0")
    result = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)]).run()
    with pytest.raises(AttributeError):
        result.trips[0].arrive_min = 0
    with pytest.raises(AttributeError):
        result.riders[0].board_min = None


# -- dispatch rules ------------------------------------------------------------

def test_pooling_boards_capacity_then_leaves_fifth(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=30,
                    initial_placement="node:0")
    riders = [RiderRequest(i, SFO, SJC, 0) for i in range(5)]
    sim = scripted_sim(cfg, riders)
    sim.step()
    assert len(sim.trips) == 1
    assert sim.trips[0].rider_ids == (0, 1, 2, 3)
    assert set(sim.waiting) == {4}


def test_pooling_requires_identical_od(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=30,
                    initial_placement="node:0")
    riders = [
        RiderRequest(0, SFO, SJC, 0),
        RiderRequest(1, SFO, OAK, 0),  # same origin, different destination
        RiderRequest(2, SFO, SJC, 0),
    ]
    sim = scripted_sim(cfg, riders)
    sim.step()
    assert sim.trips[0].rider_ids == (0, 2)
    assert set(sim.waiting) == {1}


def test_nearest_idle_vehicle_summoned(net, spec):
    # rider at SFO, idle vehicles at OAK (11 mi) and SJC (30 mi): OAK wins
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=2, t_sim=60,
                    initial_placement="node:1", reposition_enabled=False)
    sim = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)])
    place(sim, 1, SJC)
    sim.step()
    assert len(sim.trips) == 1
    trip = sim.trips[0]
    assert trip.kind == REPOSITION
    assert trip.vehicle_id == 0 and trip.origin == OAK and trip.dest == SFO
    # the rider is not aboard a repositioning vehicle
    assert trip.rider_ids == ()
    assert 0 in sim.waiting


def test_summoned_vehicle_charges_before_boarding(net, spec):
    # OAK -> SFO: air = ceil(4.398) = 5; reposition 0..10, charge 10..20,
    # rider boards at minute 20
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=60,
                    initial_placement="node:1")
    sim = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)])
    result = sim.run()
    rider = result.riders[0]
    assert rider.board_min == 20
    assert rider.dropoff_min == 20 + 5 + 13
    kinds = [t.kind for t in result.trips]
    assert kinds == [REPOSITION, REVENUE]


def test_no_duplicate_summons_while_help_inbound(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=3, t_sim=8,
                    initial_placement="node:1", reposition_enabled=False)
    sim = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)])
    for _ in range(8):
        sim.step()
    # one summon only, even though two more idle vehicles sat at OAK
    assert len(sim.trips) == 1


def test_helper_flying_riders_into_the_origin_is_not_inbound():
    # four nodes on the equator, at these miles: Y, X, S and Z; Z is out of
    # range of X and Y, so the rider at Z cannot summon from either
    miles = {"Y": -12.0, "X": 0.0, "S": 32.0, "Z": 64.0}
    nodes = [GeoNode(i, code, 0.0, math.degrees(mi / EARTH_RADIUS_MI))
             for i, (code, mi) in enumerate(miles.items())]
    spec = VehicleSpec(turnaround_min=30)
    Y, X, S, Z = range(4)
    net = build_network(nodes, spec)
    assert not net.feasible[X, Z] and not net.feasible[Y, Z]
    # with repositioning on, the aircraft idle at Y would fly the same empty
    # leg to S whether or not the S rider summoned it
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=2, t_sim=100,
                    reposition_enabled=False, charge_after_reposition=False,
                    initial_placement=f"node:{X}")
    riders = [RiderRequest(0, Z, S, 0), RiderRequest(1, X, Y, 0), RiderRequest(2, S, X, 0)]
    result = scripted_sim(cfg, riders).run()
    assert result.trips == (
        TripRecord(0, REVENUE, X, Y, 0, 10, (1,)),
        TripRecord(1, REPOSITION, X, S, 0, 18, ()),  # rider 2 summons aircraft 1
        TripRecord(1, REPOSITION, S, Z, 18, 36, ()),  # rider 0 takes it from S
        TripRecord(1, REVENUE, Z, S, 36, 54, (0,)),  # and rides it back into S
        # aircraft 1's last leg ends at S, but it carries riders and a
        # 30-minute charge follows: rider 2 summons aircraft 0, idle again
        TripRecord(0, REPOSITION, Y, S, 40, 63, ()),
        TripRecord(0, REVENUE, S, X, 63, 81, (2,)),
    )


def test_lower_vehicle_id_wins_at_origin(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=2, t_sim=30,
                    initial_placement="node:0")
    sim = scripted_sim(cfg, [RiderRequest(0, SFO, OAK, 0)])
    sim.step()
    assert sim.trips[0].vehicle_id == 0
    assert 1 in sim.idle_at[SFO]


def test_rider_waits_when_no_vehicle(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=5,
                    initial_placement="node:0")
    riders = [RiderRequest(0, SFO, SJC, 0), RiderRequest(1, OAK, SFO, 1)]
    sim = scripted_sim(cfg, riders)
    result = sim.run()
    assert result.riders[1].board_min is None
    assert result.unserved == 1


# -- repositioning ---------------------------------------------------------------

def test_reposition_single_candidate(net, spec):
    # direct unit call: idle vehicle at PAO, waiting rider at SJC only
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=60,
                    initial_placement="node:3")
    sim = scripted_sim(cfg, [RiderRequest(0, SJC, SFO, 0)])
    sim.inject(0)
    sim.reposition_idle(0)
    assert len(sim.trips) == 1
    assert sim.trips[0].kind == REPOSITION
    assert sim.trips[0].origin == PAO and sim.trips[0].dest == SJC


def test_no_waiting_riders_no_movement(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=4, t_sim=60)
    sim = Simulation(cfg)
    sim.reposition_idle(0)
    assert sim.trips == []


def reposition_after_summons(net, spec, sfo_rate: float, sjc_rate: float) -> Simulation:
    """Riders wait at SFO and SJC with help summoned; vehicle 2 charges at OAK.

    The origin rates of SFO and SJC are ``sfo_rate`` and ``sjc_rate`` per
    minute, faint enough that the hour draws no rider of its own.
    """
    lam = np.zeros((net.n, net.n))
    lam[SFO, OAK], lam[SJC, OAK] = sfo_rate, sjc_rate
    cfg = SimConfig(net=net, spec=spec, rates=DemandRates(per_min=lam), fleet=3, t_sim=60,
                    initial_placement="node:1")
    sim = scripted_sim(
        cfg, [RiderRequest(0, SFO, OAK, 0), RiderRequest(1, SJC, OAK, 0)]
    )
    place(sim, 1, PAO)
    # vehicle 2 is mid-charge at OAK and comes free at minute 2
    sim.due.setdefault(2, []).append(2)
    rebuild_idle_heaps(sim)
    sim.step()  # minute 0: riders summon vehicles 0 (to SFO) and 1 (to SJC)
    summons = {t.vehicle_id: t.dest for t in sim.trips}
    assert summons == {0: SFO, 1: SJC}
    sim.step()  # minute 1: nothing new
    sim.step()  # minute 2: vehicle 2 goes idle at OAK, then repositions
    return sim


def test_reposition_prefers_higher_origin_rate(net, spec):
    # the vehicle coming off charge at OAK must head for SJC, whose origin
    # rate is the larger
    last = reposition_after_summons(net, spec, sfo_rate=1e-9, sjc_rate=2e-9).trips[-1]
    assert last.vehicle_id == 2
    assert last.kind == REPOSITION
    assert last.origin == OAK and last.dest == SJC


def test_reposition_tie_goes_to_lower_id(net, spec):
    # equal origin rates: the vehicle heads for SFO, the lower id
    last = reposition_after_summons(net, spec, sfo_rate=1e-9, sjc_rate=1e-9).trips[-1]
    assert last.vehicle_id == 2
    assert last.kind == REPOSITION
    assert last.origin == OAK and last.dest == SFO


def test_reposition_can_be_disabled(net, spec, baseline_rates):
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=2, t_sim=400,
                    seed=3, reposition_enabled=False)
    result = run_simulation(cfg)
    # summons still occur, but only ones directly tied to a waiting rider;
    # with two vehicles and system-wide demand there must be revenue trips
    assert any(t.kind == REVENUE for t in result.trips)


def test_skip_charge_after_reposition(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=60,
                    initial_placement="node:1", charge_after_reposition=False)
    sim = scripted_sim(cfg, [RiderRequest(0, SFO, SJC, 0)])
    result = sim.run()
    # OAK -> SFO takes 5 + 5 = 10 minutes; with no charge the rider boards
    # as soon as the helper lands
    assert result.riders[0].board_min == 10
    v = result.vehicles[0]
    assert v.charge_min == 10  # only the post-revenue-leg charge


# -- configuration errors ------------------------------------------------------

def test_demand_on_infeasible_route_rejected(bay_nodes, baseline_rates):
    from uamsim import build_network

    short = VehicleSpec(max_range_mi=20.0)
    net20 = build_network(bay_nodes, short)
    with pytest.raises(ConfigError, match="infeasible") as err:
        SimConfig(net=net20, spec=short, rates=baseline_rates, fleet=4, t_sim=100)
    # named in row-major order as (origin, dest) pairs
    bad = [(i, j) for i in range(net20.n) for j in range(net20.n)
           if baseline_rates.per_min[i, j] > 0 and not net20.feasible[i, j]]
    assert bad
    assert str(err.value) == f"demand on infeasible routes (exceeds range): {bad}"


def test_bad_placement_rule_rejected(net, spec):
    with pytest.raises(ConfigError):
        SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=2, t_sim=10,
                  initial_placement="everywhere")


def test_placement_node_outside_network_rejected(net, spec):
    # the rule parses, so only the network can tell that node 4 is missing
    with pytest.raises(ConfigError, match="out of range"):
        SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=2, t_sim=10,
                  initial_placement="node:4")


def test_fleet_and_horizon_validated(net, spec):
    with pytest.raises(ConfigError):
        SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=0, t_sim=10)
    with pytest.raises(ConfigError):
        SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=0)


@pytest.mark.parametrize("field, value, message", [
    ("fleet", 2.5, "fleet must be an integer, got 2.5"),
    ("fleet", True, "fleet must be an integer, got True"),
    ("fleet", math.inf, "fleet must be an integer, got inf"),
    ("t_sim", 60.5, "t_sim must be an integer, got 60.5"),
    ("t_sim", math.nan, "t_sim must be an integer, got nan"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", -1, "seed must be nonnegative, got -1"),
    ("reposition_enabled", "no", "reposition_enabled must be true or false, got 'no'"),
])
def test_sim_config_checks_its_fields(net, spec, field, value, message):
    # each was accepted when built; a fractional fleet or horizon then
    # failed inside the engine, or not at all
    with pytest.raises(ConfigError) as err:
        SimConfig(**{"net": net, "spec": spec, "rates": zero_rates(net), "fleet": 2, "t_sim": 60,
                     field: value})
    assert str(err.value) == message


def test_rider_beyond_range_is_refused():
    # two nodes 100 mi apart with a 60 mi range: the leg was flown and served
    spec = VehicleSpec()
    nodes = [GeoNode(0, "A", 0.0, 0.0), GeoNode(1, "B", 0.0, math.degrees(100.0 / EARTH_RADIUS_MI))]
    net = build_network(nodes, spec)
    assert not net.feasible.any()
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=60)
    with pytest.raises(ConfigError, match=r"stream rider 0 is RiderRequest\(rider_id=0, origin=0, dest=1"):
        Simulation(cfg, riders=[RiderRequest(0, 0, 1, 0)])


@pytest.mark.parametrize("riders, place", [
    ([RiderRequest(0, SFO, OAK, -1)], 0),  # wrapped to the last minute
    ([RiderRequest(0, SFO, OAK, 60)], 0),  # an IndexError
    ([RiderRequest(0, SFO, OAK, 0), RiderRequest(1, SFO, SFO, 0)], 1),  # a self-trip, flown and served
    ([RiderRequest(0, SFO, 5, 0)], 0),  # an IndexError
    ([RiderRequest(0, -1, OAK, 0)], 0),  # wrapped to the last node
    ([RiderRequest(0, SFO, -4, 0)], 0),  # wrapped to the first node, a self-trip
    ([RiderRequest(1, SFO, OAK, 50), RiderRequest(0, OAK, SFO, 0)], 0),  # swapped the two outcomes
], ids=["before-minute-0", "at-the-horizon", "self-trip", "unknown-node", "negative-origin",
        "negative-dest", "ids-out-of-place"])
def test_hand_given_stream_is_checked(net, spec, riders, place):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=1, t_sim=60)
    with pytest.raises(ConfigError, match=rf"stream rider {place} is .*; it must have rider_id {place} and "
                                          r"arrive in \[0, 60\) on a feasible pair of the network"):
        Simulation(cfg, riders=riders)


def test_hand_given_stream_on_every_edge_runs(net, spec):
    # first and last minute, lowest and highest node
    riders = [RiderRequest(0, SFO, PAO, 0), RiderRequest(1, PAO, SFO, 59)]
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=2, t_sim=60)
    assert run_simulation(cfg, riders).generated == 2


# -- system invariants over random configs -------------------------------------

def random_config(net, spec, baseline_rates, rng: random.Random) -> SimConfig:
    scale = rng.choice([0.2, 0.5, 1.0, 2.0, 4.0])
    rates = DemandRates(per_min=baseline_rates.per_min * scale)
    return SimConfig(
        net=net,
        spec=spec,
        rates=rates,
        fleet=rng.randint(1, 8),
        t_sim=rng.randint(40, 300),
        seed=rng.randint(0, 2**32),
        reposition_enabled=rng.random() < 0.8,
        charge_after_reposition=rng.random() < 0.8,
        initial_placement=rng.choice(["round_robin", "node:0", "node:2"]),
    )


def short_range_world(bay_nodes, baseline_rates):
    """The bay network at a 20 mi range, which leaves SJC a leg to PAO only,
    with the demand beyond range zeroed."""
    spec = VehicleSpec(max_range_mi=20.0)
    net = build_network(bay_nodes, spec)
    return net, spec, DemandRates(per_min=baseline_rates.per_min * net.feasible)


@pytest.mark.parametrize("case", range(25))
def test_invariants_on_random_configs(net, spec, baseline_rates, bay_nodes, case):
    rng = random.Random(1000 + case)
    # from case 12 on, some pairs are beyond range, so the range check can
    # fail; cases 22-24 each summon and reposition next to such a pair
    world = short_range_world(bay_nodes, baseline_rates) if case >= 12 else (net, spec, baseline_rates)
    cfg = random_config(*world, rng)
    net, spec = cfg.net, cfg.spec
    result = run_simulation(cfg)

    assert result.generated == result.served + result.onboard_at_end + result.unserved
    # idle minutes come from the log, so the bucket sum checks the other four
    assert [v.idle_min for v in result.vehicles] == idle_minutes_from_log(result)
    for v in result.vehicles:
        total = v.revenue_air_min + v.reposition_air_min + v.buffer_min + v.charge_min + v.idle_min
        assert total == cfg.t_sim and v.idle_min >= 0

    # capacity, no double boarding, OD consistency, range safety
    seen: set[int] = set()
    outcome = {r.rider_id: r for r in result.riders}
    for trip in result.trips:
        assert len(trip.rider_ids) <= spec.capacity
        assert net.dist[trip.origin, trip.dest] <= spec.max_range_mi
        assert trip.arrive_min > trip.depart_min
        if trip.kind == REVENUE:
            assert trip.rider_ids
            for rid in trip.rider_ids:
                assert rid not in seen
                seen.add(rid)
                assert outcome[rid].origin == trip.origin
                assert outcome[rid].dest == trip.dest
        else:
            assert trip.rider_ids == ()

    # waits are nonnegative; dropoff follows boarding
    for r in result.riders:
        if r.board_min is not None:
            assert r.board_min >= r.arrival_min
            if r.dropoff_min is not None:
                assert r.dropoff_min > r.board_min

    # every leg is followed by the full turnaround before the next departure
    by_vehicle: dict[int, list] = {}
    for trip in result.trips:
        by_vehicle.setdefault(trip.vehicle_id, []).append(trip)
    for trips in by_vehicle.values():
        for prev, nxt in zip(trips, trips[1:]):
            gap = spec.turnaround_min
            if prev.kind == REPOSITION and not cfg.charge_after_reposition:
                gap = 0
            assert nxt.depart_min >= prev.arrive_min + gap


def assert_queues_match_waiting(sim: Simulation) -> None:
    """The per-pair queues and per-origin counts mirror the waiting ledger."""
    n = sim.cfg.net.n
    by_pair: dict[tuple[int, int], list[RiderRequest]] = {}
    at_origin = [0] * n
    for rider in (sim.all_riders[rid] for rid in sim.waiting):
        by_pair.setdefault((rider.origin, rider.dest), []).append(rider)
        at_origin[rider.origin] += 1
    for o in range(n):
        for d in range(n):
            queue = list(sim.queue[o][d])
            assert queue == by_pair.get((o, d), [])
            assert [r.rider_id for r in queue] == sorted(r.rider_id for r in queue)
    assert sim.waiting_at == at_origin


@pytest.mark.parametrize("case", [*range(12), "backlog"])
def test_queues_match_waiting_every_minute(net, spec, baseline_rates, case):
    if case == "backlog":
        cfg = backlog_config(seed=5, fleet=60, t_sim=120)
    else:
        cfg = random_config(net, spec, baseline_rates, random.Random(1000 + case))
    sim = Simulation(cfg)
    while sim.minute < cfg.t_sim:
        sim.step()
        assert_queues_match_waiting(sim)
    if case == "backlog":
        assert len(sim.waiting) > 1000


@pytest.mark.parametrize("fleet", [60, 400])
def test_only_waiting_riders_keep_a_summons(fleet):
    # a summons lives in its rider's waiting entry, so only a waiting rider
    # can hold one; some riders seen holding one go on to board
    cfg = backlog_config(seed=5, fleet=fleet, t_sim=150)
    sim = Simulation(cfg)
    summoned = set()
    while sim.minute < cfg.t_sim:
        sim.step()
        summoned.update(rid for rid, helper in sim.waiting.items() if helper is not None)
    assert summoned - set(sim.waiting)  # some summoned riders boarded


def test_each_landing_minute_is_one_int_object():
    # legs that land in the same minute share one int, so the log holds one
    # object per distinct arrive_min; ints above 256 are not cached by Python
    result = run_simulation(backlog_config(seed=5, fleet=300, t_sim=400))
    arrivals = [leg.arrive_min for leg in result.trips]
    assert max(arrivals) > 256 and len(arrivals) > 2 * len(set(arrivals))
    assert len(set(map(id, arrivals))) == len(set(arrivals))


def assert_conserved_every_minute(cfg: SimConfig) -> Simulation:
    """``counts()`` agrees with the arrival stream and the trip log every minute.

    ``counts()`` takes the dropped riders as the generated ones neither
    waiting nor aboard, so these checks are what show riders conserved.
    """
    sim = Simulation(cfg)
    while sim.minute < cfg.t_sim:
        sim.step()
        generated, dropped, onboard, waiting = sim.counts()
        assert generated == sum(map(len, sim.arrivals_by_minute[:sim.minute]))
        # riders whose leg has landed are exactly the dropped ones
        assert dropped == sum(len(t.rider_ids) for t in sim.trips if t.arrive_min < sim.minute)
        assert dropped + onboard == sum(len(t.rider_ids) for t in sim.trips)
    return sim


def test_conservation_holds_every_minute(net, spec, baseline_rates):
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=6, t_sim=240, seed=17)
    assert_conserved_every_minute(cfg)


def test_conservation_holds_every_minute_without_post_reposition_charge(net, spec, baseline_rates):
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=6, t_sim=240, seed=17,
                    charge_after_reposition=False)
    sim = assert_conserved_every_minute(cfg)
    assert any(t.kind == REPOSITION for t in sim.trips)


def test_conservation_holds_every_minute_on_a_backlogged_day():
    sim = assert_conserved_every_minute(backlog_config(seed=5, fleet=60, t_sim=120))
    assert len(sim.waiting) > 1000


def test_second_run_call_gives_the_same_result(net, spec, baseline_rates):
    # t_sim 300 leaves legs aloft and aircraft charging at the horizon
    sim = Simulation(SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=8, t_sim=300, seed=1))
    first = sim.run()
    assert first.onboard_at_end > 0
    assert sim.run().to_dict() == first.to_dict()


def test_finalize_reads_board_and_dropoff_from_the_trip_log():
    cfg = backlog_config(seed=6, fleet=80, t_sim=100)
    result = run_simulation(cfg)
    aloft = {rid for t in result.trips if t.arrive_min >= cfg.t_sim for rid in t.rider_ids}
    assert aloft
    for rid in aloft:
        assert result.riders[rid].dropoff_min is None
    for t in result.trips:
        for rid in t.rider_ids:
            assert result.riders[rid].board_min == t.depart_min
    assert result.onboard_at_end == len(aloft)
    assert result.served == sum(r.dropoff_min is not None for r in result.riders)
    assert result.generated == result.served + result.onboard_at_end + result.unserved


def test_identical_configs_are_byte_identical(net, spec, baseline_rates):
    cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=5, t_sim=400, seed=123)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


@pytest.mark.parametrize("case", ["baseline", "backlog"])
def test_presampled_riders_give_the_same_run(case, net, spec, baseline_rates):
    if case == "baseline":
        cfg = SimConfig(net=net, spec=spec, rates=baseline_rates, fleet=5, t_sim=400, seed=123)
    else:
        cfg = backlog_config(seed=2, fleet=40, t_sim=90)
    riders = generate_arrivals(cfg.rates, cfg.t_sim, cfg.seed)
    assert riders
    copy = list(riders)
    assert run_simulation(cfg, riders).to_dict() == run_simulation(cfg).to_dict()
    assert riders == copy  # the engine only reads the list


def test_round_robin_spreads_initial_fleet(net, spec):
    cfg = SimConfig(net=net, spec=spec, rates=zero_rates(net), fleet=6, t_sim=5)
    sim = Simulation(cfg)
    assert [leg.dest for leg in sim.last_leg] == [0, 1, 2, 3, 0, 1]
