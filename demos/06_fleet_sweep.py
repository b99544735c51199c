"""
Simulation-driven fleet refinement
==================================

Sweep fleet sizes with common random seeds and watch the mean wait fall;
the smallest size under the ten-minute target is the refined fleet.
"""

from pathlib import Path

from uamsim import SimConfig, build_world, first_passing, load_scenario, refine_fleet

scenario = Path(__file__).resolve().parents[1] / "scenarios" / "baseline" / "config.json"
cfg = load_scenario(scenario)
_, net, _, rates = build_world(cfg)

base = SimConfig(net=net, spec=cfg.vehicle, rates=rates, fleet=8, t_sim=1200, seed=0)
rows = list(refine_fleet(base, seeds=5, n_min=8, n_max=24))
fleet = first_passing(rows)

print(f"{'fleet':>6}{'mean wait':>11}{'p95':>7}{'served':>8}{'u_cycle':>9}")
for row in rows:
    marker = "  <- smallest passing" if row.fleet == fleet else ""
    print(f"{row.fleet:>6}{row.mean_wait:>11.2f}{row.p95_wait:>7.1f}"
          f"{row.served:>8.1f}{row.u_cycle:>9.3f}{marker}")

print(f"\nrefined fleet: {fleet} aircraft "
      f"(analytical chain suggested 8 at safety factor 2)")
print("adding 10-20% on top buys slack against demand spikes")
