"""
From monthly counts to per-minute Poisson arrivals
==================================================

Monthly OD passenger volumes divide through the operating minutes in a
month to become arrival rates; a seeded generator then realizes one
day's rider stream, reproducibly.
"""

from itertools import islice
from pathlib import Path

from uamsim import build_world, expected_arrivals, generate_arrivals, load_scenario

scenario = Path(__file__).resolve().parents[1] / "scenarios" / "baseline" / "config.json"
cfg = load_scenario(scenario)
_, net, od, rates = build_world(cfg)

print(f"monthly passengers: {od.total_monthly}")
print(f"system arrival rate: {rates.total_rate:.4f} pax/min")
print(f"expected riders over a 1200-minute day: {expected_arrivals(rates, 1200):.1f}")

# one realization of the arrival process
riders = generate_arrivals(rates, t_sim=1200, seed=0)
print(f"\nseed 0 realizes {len(riders)} riders")
print("first five requests (id, origin, dest, minute):")
for r in islice(riders, 5):
    print(f"  {r.rider_id}  {net.codes[r.origin]} -> {net.codes[r.dest]}  @ {r.arrival_min}")

# identical seed, identical stream; different seed, different draw
again = generate_arrivals(rates, t_sim=1200, seed=0)
other = generate_arrivals(rates, t_sim=1200, seed=1)
print(f"\nsame seed reproduces the stream: {riders == again}")
print(f"seed 1 realizes {len(other)} riders instead")
