"""Seed-reproducible simulator of an on-demand air-taxi network.

Builds a great-circle route network over vertiport nodes, turns monthly
origin-destination passenger counts into per-minute Poisson arrivals,
sizes a fleet analytically, simulates minute-by-minute dispatch with
pooling, charging, and repositioning, and scores the result against
wait-time, utilization, load-factor, and cost targets.
"""

from .config import CostParams, ScenarioConfig, build_world, load_scenario
from .demand import (
    RNG_NAME,
    DemandRates,
    ODMatrix,
    RiderRequest,
    compute_rates,
    expected_arrivals,
    generate_arrivals,
    load_od_csv,
)
from .errors import (
    ConfigError,
    IngestionError,
    MetricsError,
    SizingError,
    ValidationError,
)
from .metrics import (
    MetricsReport,
    SweepRow,
    check_wait_target,
    compute_metrics,
    effective_cost_car,
    effective_cost_uam,
    first_passing,
    refine_fleet,
    throughput_matrix,
    time_savings,
    utilization_band,
    wait_stats,
)
from .network import (
    EARTH_RADIUS_MI,
    GeoNode,
    RouteNetwork,
    VehicleSpec,
    build_network,
    haversine_distance,
    load_nodes_csv,
)
from .simulate import (
    REPOSITION,
    REVENUE,
    RiderOutcome,
    SimConfig,
    SimResult,
    Simulation,
    TripRecord,
    VehicleStats,
    run_simulation,
    write_riders_csv,
    write_trips_csv,
)
from .sizing import SizingReport, avg_cycle_time, size_fleet

__version__ = "0.1.0"
