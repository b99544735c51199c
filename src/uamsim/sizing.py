"""Closed-form fleet estimator: cycle time -> hourly capacity -> fleet count.

The chain is deliberately simple: an unweighted average mission cycle over
all ordered pairs, cycles per hour, seats moved per aircraft-hour under an
assumed pooling level, hourly system demand, and a ceiling-rounded safety
factor on the ratio.  ``size_fleet`` runs the whole chain, and each link
is a field of the ``SizingReport`` it returns.  The simulation-driven
refinement that corrects this estimate lives in :mod:`uamsim.metrics`.
"""

from __future__ import annotations

import math
import sys
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


def size_fleet(
    net: RouteNetwork,
    spec: VehicleSpec,
    rates: DemandRates,
    alpha: float = 2.0,
    pooling_q: float = 3.0,
) -> SizingReport:
    """Run the whole estimator chain and return every intermediate.

    Demand on a pair beyond the aircraft's range is refused, as the
    simulator refuses it.  A safety factor outside the customary
    ``ALPHA_BAND`` draws a warning, not an error: the clustering and
    repositioning slack it buys is judged by simulation, not here.
    """
    check_demand_in_range(rates, net)
    t_avg = avg_cycle_time(net, spec)
    if not 0 < pooling_q <= spec.capacity:
        raise ValidationError(f"pooling_q must be in (0, {spec.capacity}], got {pooling_q}")
    if not 0 < alpha <= sys.float_info.max:  # NaN and an int beyond the float range fail
        raise ValidationError(f"safety factor must be positive, got {alpha}")
    if not ALPHA_BAND[0] <= alpha <= ALPHA_BAND[1]:
        warnings.warn(f"safety factor {alpha} outside the usual band {ALPHA_BAND}", stacklevel=2)
    # no divisor below can be zero nor the fleet negative: turnaround >= 1
    # makes the cycle positive, pooling_q > 0 the capacity, and DemandRates
    # guarantees nonnegative rates
    cycles = 60.0 / t_avg
    cap = cycles * pooling_q
    demand = 60.0 * rates.total_rate
    n_base = demand / cap
    return SizingReport(
        avg_cycle_min=t_avg,
        cycles_per_hour=cycles,
        pax_per_aircraft_hour=cap,
        demand_per_hour=demand,
        base_fleet=n_base,
        safety_factor=alpha,
        fleet=math.ceil(alpha * n_base),
        pooling_q=pooling_q,
    )
