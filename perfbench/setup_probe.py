"""What every CLI call pays before it simulates, in a fresh interpreter.

Imports ``uamsim``, loads the scenario, builds the network and rates, and
sizes the fleet analytically, then prints each stage's seconds as JSON.
``run.py`` starts this script several times and times each process as a
whole for ``setup_s``.  Usage: ``python3 perfbench/setup_probe.py CONFIG``.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")
import uamsim.cli  # noqa: E402  (the import is the first stage measured)
from uamsim import build_world, load_scenario, size_fleet  # noqa: E402

t1 = time.perf_counter()
cfg = load_scenario(sys.argv[1])
t2 = time.perf_counter()
_, net, _, rates = build_world(cfg)
t3 = time.perf_counter()
size_fleet(net, cfg.vehicle, rates, alpha=cfg.alpha, pooling_q=cfg.pooling_q)
t4 = time.perf_counter()
print(json.dumps({
    "cli.import_s": t1 - t0,
    "config.load_scenario_s": t2 - t1,
    "config.build_world_s": t3 - t2,
    "sizing.size_fleet_s": t4 - t3,
}))
