"""Equivalence corpus: 60 fixed runs whose combined output is pinned.

The corpus spans the baseline network and a 30-node day (the stress recipe
of ``conftest.backlog_config``), capacities 1-6, several turnaround and
buffer lengths, every mix of the reposition and charge-after-reposition
flags with both placement rules, and horizons of 120-600 minutes.  One
sha256 over every run's ``to_dict()`` pins what the engine computes, so a
refactor of the engine can be shown to change nothing.  A reference driver
that calls all four per-minute phases at every minute must also agree with
``run()``, which guards any work ``step()`` skips.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest

from uamsim import DemandRates, SimConfig, Simulation, VehicleSpec, run_simulation

from conftest import backlog_config

CORPUS_SIZE = 60
CORPUS_DIGEST = "37f2ca91f6712b41febc892d05b3891d93fded78bb252a90b014b90adfa503e7"


def corpus(baseline_world) -> list[SimConfig]:
    """The fixed corpus; every fifth case is a 30-node day."""
    _, net, _, rates = baseline_world
    rng = random.Random(20261018)
    configs = []
    for k in range(CORPUS_SIZE):
        spec = VehicleSpec(capacity=1 + k % 6, turnaround_min=rng.choice([1, 4, 10, 15]),
                           buffer_min=rng.choice([1, 3, 5, 8]))
        flags = dict(reposition_enabled=bool(k & 1), charge_after_reposition=bool(k & 2))
        if k % 5 == 4:
            day = backlog_config(seed=k, fleet=rng.choice([20, 60, 150, 400]),
                                 t_sim=rng.choice([120, 160, 200]))
            placement = "round_robin" if k & 4 else f"node:{k % day.net.n}"
            configs.append(replace(day, spec=spec, initial_placement=placement, **flags))
        else:
            scaled = DemandRates(per_min=rates.per_min * rng.choice([1.0, 3.0]))
            placement = "round_robin" if k & 4 else f"node:{k % net.n}"
            configs.append(SimConfig(
                net=net, spec=spec, rates=scaled, fleet=rng.randint(1, 40),
                t_sim=rng.choice([120, 240, 360, 480, 600]), seed=k,
                initial_placement=placement, **flags))
    return configs


@pytest.fixture(scope="module")
def configs(baseline_world) -> list[SimConfig]:
    return corpus(baseline_world)


def canonical(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")


def test_corpus_covers_its_axes(configs):
    assert len(configs) == CORPUS_SIZE
    assert {c.spec.capacity for c in configs} == set(range(1, 7))
    mixes = {(c.net.n > 4, c.reposition_enabled, c.charge_after_reposition,
              c.initial_placement == "round_robin") for c in configs}
    assert len(mixes) == 16  # every flag and placement mix on both networks
    assert min(c.t_sim for c in configs) == 120
    assert max(c.t_sim for c in configs) == 600


def test_corpus_digest(configs):
    digest = hashlib.sha256()
    for cfg in configs:
        digest.update(canonical(run_simulation(cfg)) + b"\n")
    assert digest.hexdigest() == CORPUS_DIGEST


def run_every_phase_every_minute(cfg: SimConfig):
    """Reference driver: no minute is skipped, whatever happens in it."""
    sim = Simulation(cfg)
    for minute in range(cfg.t_sim):
        sim.fire_transitions(minute)
        sim.inject(minute)
        sim.dispatch_step(minute)
        sim.reposition_idle(minute)
    sim.minute = cfg.t_sim  # run() from the horizon only reads the result
    return sim.run()


@pytest.mark.parametrize("case", range(CORPUS_SIZE))
def test_reference_driver_equals_run(configs, case):
    cfg = configs[case]
    assert canonical(run_every_phase_every_minute(cfg)) == canonical(run_simulation(cfg))
