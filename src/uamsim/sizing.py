"""Closed-form fleet estimator: cycle time -> hourly capacity -> fleet count.

The chain is deliberately simple: an unweighted average mission cycle over
all ordered pairs, cycles per hour, seats moved per aircraft-hour under an
assumed pooling level, hourly system demand, and a ceiling-rounded safety
factor on the ratio.  The simulation-driven refinement that corrects this
estimate lives in :mod:`uamsim.metrics`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

from .demand import DemandRates, check_demand_in_range
from .errors import SizingError, ValidationError
from .network import RouteNetwork, VehicleSpec

# Safety-factor band considered ordinary; outside it we warn but proceed.
ALPHA_BAND = (2.0, 5.0)


@dataclass(frozen=True)
class SizingReport:
    """Every intermediate of the analytical estimator, for auditability."""

    avg_cycle_min: float
    cycles_per_hour: float
    pax_per_aircraft_hour: float
    demand_per_hour: float
    base_fleet: float
    safety_factor: float
    fleet: int
    pooling_q: float

    def to_dict(self) -> dict:
        return asdict(self)


def avg_cycle_time(net: RouteNetwork, spec: VehicleSpec) -> float:
    """Mean cycle time over all n*(n-1) ordered pairs.

    One cycle is a full mission: the pair's airborne minutes (the network's
    ``air_time``) plus turnaround and taxi buffer.
    """
    if net.n < 2:
        raise SizingError("average cycle time needs at least two nodes")
    total = 0.0
    for i in range(net.n):
        for j in range(net.n):
            if i != j:
                total += float(net.air_time[i, j]) + spec.turnaround_min + spec.buffer_min
    return total / (net.n * (net.n - 1))


def cycles_per_hour(avg_cycle_min: float) -> float:
    """Missions one aircraft completes per hour."""
    if avg_cycle_min <= 0:
        raise SizingError(f"average cycle time must be positive, got {avg_cycle_min}")
    return 60.0 / avg_cycle_min


def hourly_capacity(cycles: float, pooling_q: float, capacity: int = 4) -> float:
    """Passengers one aircraft moves per hour at a given pooling level."""
    if not 0 < pooling_q <= capacity:
        raise ValidationError(f"pooling_q must be in (0, {capacity}], got {pooling_q}")
    return cycles * pooling_q


def hourly_demand(rates: DemandRates) -> float:
    """System demand in passengers per hour."""
    return 60.0 * rates.total_rate


def base_fleet(demand_per_hour: float, capacity_per_hour: float) -> float:
    """Fractional aircraft count that balances demand against capacity."""
    if capacity_per_hour <= 0:
        raise SizingError(f"hourly capacity must be positive, got {capacity_per_hour}")
    return demand_per_hour / capacity_per_hour


def robust_fleet(n_base: float, alpha: float) -> int:
    """Ceiling-rounded fleet after applying the safety factor.

    Warns (does not fail) when alpha falls outside the customary
    ``ALPHA_BAND``; the clustering/repositioning slack it buys is judged by
    simulation, not here.
    """
    if alpha <= 0:
        raise ValidationError(f"safety factor must be positive, got {alpha}")
    if n_base < 0:
        raise ValidationError(f"base fleet must be nonnegative, got {n_base}")
    if not ALPHA_BAND[0] <= alpha <= ALPHA_BAND[1]:
        warnings.warn(
            f"safety factor {alpha} outside the usual band {ALPHA_BAND}",
            stacklevel=2,
        )
    return math.ceil(alpha * n_base)


def size_fleet(
    net: RouteNetwork,
    spec: VehicleSpec,
    rates: DemandRates,
    alpha: float = 2.0,
    pooling_q: float = 3.0,
) -> SizingReport:
    """Run the whole estimator chain and return every intermediate.

    Demand on a pair beyond the aircraft's range is refused, as the
    simulator refuses it.
    """
    check_demand_in_range(rates, net)
    t_avg = avg_cycle_time(net, spec)
    cycles = cycles_per_hour(t_avg)
    cap = hourly_capacity(cycles, pooling_q, spec.capacity)
    demand = hourly_demand(rates)
    n_base = base_fleet(demand, cap)
    fleet = robust_fleet(n_base, alpha)
    return SizingReport(
        avg_cycle_min=t_avg,
        cycles_per_hour=cycles,
        pax_per_aircraft_hour=cap,
        demand_per_hour=demand,
        base_fleet=n_base,
        safety_factor=alpha,
        fleet=fleet,
        pooling_q=pooling_q,
    )
