"""
Door-to-door: air taxi vs driving
=================================

Effective cost folds the value of time into the fare share; time savings
compare wait + mission against congested-road driving minutes.
"""

from pathlib import Path

from uamsim import (
    build_world,
    effective_cost_car,
    effective_cost_uam,
    load_scenario,
    time_savings,
)

scenario = Path(__file__).resolve().parents[1] / "scenarios" / "baseline" / "config.json"
cfg = load_scenario(scenario)
_, net, _, _ = build_world(cfg)

wait = 7.47       # assumed average wait at the vertiport, minutes
riders = 3        # pooled riders sharing the operating cost

print(f"car at {cfg.cost.car_speed_mph} mph with circuity {cfg.cost.circuity}, "
      f"air taxi pooled by {riders}, wait {wait} min\n")
print(f"{'pair':<10}{'air min':>9}{'air $':>8}{'car min':>9}{'car $':>8}{'saved':>8}")
for i in range(net.n):
    for j in range(i + 1, net.n):
        d = float(net.dist[i, j])
        mission = cfg.vehicle.buffer_min + float(net.air_time[i, j])
        air_min = wait + mission
        air_cost = effective_cost_uam(mission, riders, wait, cfg.cost)
        car_min, car_cost = effective_cost_car(d, cfg.cost)
        saved = time_savings(car_min, air_min)
        print(f"{net.codes[i]}-{net.codes[j]:<6}{air_min:>9.1f}{air_cost:>8.2f}"
              f"{car_min:>9.1f}{car_cost:>8.2f}{saved:>8.1%}")

print("\nthe longest pair saves the most: flying shortcuts congested miles")
