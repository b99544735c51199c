"""Differential test: the engine against the seed engine in ``oracle_engine``.

The two engines share only the arrival stream and the trip record type;
the seed engine writes its own rider and vehicle ledgers in
``SimResult.to_dict()``'s shape.  So equality on a drawn world shows that
the engine's design (heaps, pair queues, legs booked at take-off, skipped
minutes, the horizon clamp read from the trip log) still computes what the
seed's state machine did.  Worlds are drawn with a fixed Hypothesis seed,
so every run checks the same ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uamsim import GeoNode, SimConfig, VehicleSpec, build_network, run_simulation
from uamsim.demand import DemandRates

import oracle_engine

# pair rates are drawn in steps of 0.05/min up to 0.6/min; 5 of the 17
# choices are zero
RATE_STEPS = [0] * 5 + list(range(1, 13))


def world(coords, steps, *, capacity=4, buffer=5, turnaround=10, fleet=4, t_sim=120,
          seed=0, reposition=True, charge=True, placement="round_robin") -> SimConfig:
    """A world over nodes at ``coords`` with pair rates ``steps`` × 0.05/min.

    Demand on a route longer than the default range of 60 mi is dropped,
    since the engine refuses it.
    """
    spec = VehicleSpec(capacity=capacity, buffer_min=buffer, turnaround_min=turnaround)
    nodes = [GeoNode(i, f"N{i}", lat, lon) for i, (lat, lon) in enumerate(coords)]
    net = build_network(nodes, spec)
    per_min = np.asarray(steps, dtype=float) / 20 * net.feasible
    return SimConfig(net=net, spec=spec, rates=DemandRates(per_min=per_min), fleet=fleet,
                     t_sim=t_sim, seed=seed, reposition_enabled=reposition,
                     charge_after_reposition=charge, initial_placement=placement)


@st.composite
def worlds(draw) -> SimConfig:
    n = draw(st.integers(2, 6))
    # a one-degree box: most routes fit the 60 mi range, the longest do not
    coords = draw(st.lists(st.tuples(st.floats(37.0, 38.0), st.floats(-122.6, -121.6)),
                           min_size=n, max_size=n))
    steps = [[draw(st.sampled_from(RATE_STEPS)) for _ in range(n)] for _ in range(n)]
    node = draw(st.integers(0, n - 1))
    return world(
        coords, steps,
        capacity=draw(st.integers(1, 6)), buffer=draw(st.integers(1, 6)),
        turnaround=draw(st.integers(1, 12)), fleet=draw(st.integers(1, 12)),
        t_sim=draw(st.integers(1, 300)), seed=draw(st.integers(0, 2**16)),
        reposition=draw(st.booleans()), charge=draw(st.booleans()),
        placement=draw(st.sampled_from(["round_robin", f"node:{node}"])),
    )


SQUARE = [(37.0, -122.0), (37.0, -121.6), (37.3, -122.0), (37.3, -121.6)]
TRIANGLE = [(37.45, -122.11), (37.31, -122.12), (37.12, -122.52)]
HEXAGON = [(37.0, -122.3), (37.2, -122.5), (37.4, -122.3), (37.4, -121.9),
           (37.2, -121.7), (37.0, -121.9)]

FIXED_WORLDS = {
    # every leg is still aloft at minute 7, two of them in their taxi buffer
    "legs cut at the horizon": world(
        SQUARE[:2], [[0, 12], [0, 0]], capacity=1, buffer=6, fleet=3, t_sim=7,
        placement="node:0"),
    # a dozen six-seat aircraft for one rider every few minutes
    "capacity above demand": world(
        SQUARE, [[0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
        capacity=6, turnaround=3, fleet=12, t_sim=300, seed=5, reposition=False),
    # one aircraft for 0.6/min on every pair: thousands of riders queue
    "backlogged fleet": world(
        HEXAGON, 12 - 12 * np.eye(6, dtype=int), fleet=1, t_sim=300, seed=9,
        charge=False),
    # riders wait at nodes 0 and 1, tied on origin rate, while an aircraft
    # at node 2 repositions: it must head for node 0
    "reposition tie": world(
        TRIANGLE, [[0, 0, 10], [0, 0, 10], [6, 0, 0]], capacity=5, buffer=1, turnaround=9,
        fleet=12, t_sim=28, seed=29076, charge=False),
}


@pytest.mark.parametrize("name", FIXED_WORLDS)
def test_fixed_worlds_show_their_case(name):
    result = run_simulation(FIXED_WORLDS[name])
    if name == "legs cut at the horizon":
        assert all(v.end_state == "flying" for v in result.vehicles)
        assert sorted(v.buffer_min for v in result.vehicles) == [4, 4, 6]
        assert result.onboard_at_end == 3 and result.served == 0
    elif name == "capacity above demand":
        assert max(len(t.rider_ids) for t in result.trips) < 6
        assert sum(v.idle_min for v in result.vehicles) > 12 * 300 / 3
    elif name == "backlogged fleet":
        assert result.unserved > result.generated / 2
    else:
        rate = FIXED_WORLDS[name].rates.origin_rate
        assert rate[0] == rate[1] > rate[2]
        assert (5, "reposition", 2, 0) in {t[:4] for t in result.trips}


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(cfg=worlds())
@example(cfg=FIXED_WORLDS["legs cut at the horizon"])
@example(cfg=FIXED_WORLDS["capacity above demand"])
@example(cfg=FIXED_WORLDS["backlogged fleet"])
@example(cfg=FIXED_WORLDS["reposition tie"])
def test_engine_matches_seed_engine(cfg):
    assert run_simulation(cfg).to_dict() == oracle_engine.run_simulation(cfg)
