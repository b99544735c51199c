"""Service-quality metrics, the car comparator, and fleet refinement.

Everything here is a pure computation over immutable simulation results.
Utilization splits airborne minutes by purpose: ``u_air`` counts revenue
legs only, while cycle utilization adds repositioning, taxi buffer, and
charging.  Whether repositioning minutes count as "airborne" is a
reporting convention, so reports carry both variants side by side.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields, replace
from itertools import compress
from operator import countOf
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import CostParams
from .demand import generate_arrivals
from .errors import MetricsError, ValidationError
from .network import _write_csv
from .simulate import REPOSITION, REVENUE, SimConfig, SimResult, run_simulation

WAIT_TARGET_MIN = 10.0
U_AIR_BAND = (0.60, 0.70)
LOAD_TARGET = 0.70


@dataclass(frozen=True)
class MetricsReport:
    """Headline service metrics for one run plus target pass/fail flags.

    The utilizations are shares of the fleet's minutes (fleet times
    horizon): ``u_air`` counts revenue flying, ``u_air_incl_reposition``
    adds repositioning, and ``u_cycle`` adds taxi buffer and charging too.
    ``load_factor`` is riders over seats flown on revenue legs, one exact
    integer ratio, so it can be recomputed bit-for-bit from the trip log;
    it is 0.0 when no revenue leg flew.  The served rider count per pair
    is ``throughput_matrix``, built only by a caller that writes it.
    """

    mean_wait: float
    p95_wait: float
    served: int
    unserved: int
    onboard_at_end: int
    u_air: float
    u_air_incl_reposition: float
    u_cycle: float
    load_factor: float
    wait_ok: bool
    u_air_ok: bool
    u_air_band: str  # "under_utilized" | "in_band" | "overstressed"
    load_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def wait_stats(waits: Sequence[float]) -> tuple[float, float]:
    """Mean and nearest-rank 95th percentile of served-rider waits."""
    if not waits:
        raise MetricsError("no served riders: wait statistics are undefined")
    ordered = sorted(waits)
    mean = sum(ordered) / len(ordered)
    rank = math.ceil(0.95 * len(ordered))  # 1-based nearest rank
    return mean, ordered[rank - 1]


def check_wait_target(mean_wait: float) -> bool:
    """Mean wait at or under the ten-minute service target."""
    return mean_wait <= WAIT_TARGET_MIN


def utilization_band(u_air: float) -> str:
    low, high = U_AIR_BAND
    if u_air < low:
        return "under_utilized"
    if u_air > high:
        return "overstressed"
    return "in_band"


def throughput_matrix(result: SimResult) -> np.ndarray:
    """Dropped-off rider counts per ordered pair.

    A leg's riders share its pair, so each leg that landed before the
    horizon adds its rider count to its own pair.  The riderless legs are
    skipped in C.
    """
    n, t_end, log = result.config.net.n, result.config.t_sim, result.log
    served = [0] * (n * n)
    legs = zip(log.origin, log.dest, log.arrive, log.seated)
    for origin, dest, arrive, seated in compress(legs, log.seated):
        if arrive < t_end:
            served[origin * n + dest] += seated
    return np.array(served, dtype=np.int64).reshape(n, n)


def compute_metrics(result: SimResult) -> MetricsReport:
    """Assemble the full report; degenerate zero-demand runs score all zeros.

    Whole legs are summed over the log's columns in C: each books its
    buffer, its ``arrive_min - depart_min - buffer`` air minutes in the
    bucket of its kind and the turnaround after that kind.  A leg is a
    revenue leg if and only if it carries riders, so ``compress`` by the
    rider counts picks the revenue legs.  Only an aircraft's last leg can
    cross the horizon, so the last legs whose landing plus charge passes
    ``t_sim`` then swap their whole minutes for ``SimConfig.clamped_minutes``.
    An aircraft that never flew has a placeholder last leg (``arrive_min``
    0) that is not in the log, so it is left out.
    """
    mean_wait, p95 = wait_stats(result.waits) if result.waits else (0.0, 0.0)
    cfg, log = result.config, result.log
    t_end, buffer, turnaround = cfg.t_sim, cfg.spec.buffer_min, cfg.turnaround
    legs = len(log.seated)
    reposition_legs = countOf(log.seated, 0)
    revenue_legs = legs - reposition_legs
    revenue_flown = sum(compress(log.arrive, log.seated)) - sum(compress(log.depart, log.seated))
    air = {REVENUE: revenue_flown - buffer * revenue_legs,
           REPOSITION: sum(log.arrive) - sum(log.depart) - revenue_flown - buffer * reposition_legs}
    ground = (buffer * legs + turnaround[REVENUE] * revenue_legs
              + turnaround[REPOSITION] * reposition_legs)
    cut = [leg for leg in result.last_legs
           if leg.arrive_min and leg.arrive_min + turnaround[leg.kind] > t_end]
    clamped = cfg.clamped_minutes((leg.kind, leg.depart_min, leg.arrive_min) for leg in cut)
    for leg, (taxied, flown, charged) in zip(cut, clamped):
        air[leg.kind] -= leg.arrive_min - leg.depart_min - buffer - flown
        ground -= buffer + turnaround[leg.kind] - taxied - charged
    revenue, reposition = air[REVENUE], air[REPOSITION]
    total = cfg.fleet * cfg.t_sim
    u_air = revenue / total
    band = utilization_band(u_air)
    lf = len(log.rider_ids) / (cfg.spec.capacity * revenue_legs) if revenue_legs else 0.0
    return MetricsReport(
        mean_wait=mean_wait,
        p95_wait=p95,
        served=result.served,
        unserved=result.unserved,
        onboard_at_end=result.onboard_at_end,
        u_air=u_air,
        u_air_incl_reposition=(revenue + reposition) / total,
        u_cycle=(revenue + reposition + ground) / total,
        load_factor=lf,
        wait_ok=check_wait_target(mean_wait),
        u_air_ok=band == "in_band",
        u_air_band=band,
        load_ok=lf >= LOAD_TARGET,
    )


# -- door-to-door cost and time comparison ---------------------------------

def effective_cost_uam(
    mission_min: float,
    riders_aboard: int,
    wait_min: float,
    params: CostParams,
) -> float:
    """Per-rider effective cost of a pooled air trip: an equal share of the
    mission's operating cost plus the rider's time valued at the hourly
    rate.  The mission clock runs from taxi buffer through touchdown."""
    if riders_aboard < 1:
        raise ValidationError(f"riders_aboard must be at least 1, got {riders_aboard}")
    operating_share = params.op_cost_per_hr * (mission_min / 60.0) / riders_aboard
    time_value = params.value_of_time_per_hr * (wait_min + mission_min) / 60.0
    return operating_share + time_value


def effective_cost_car(gc_distance_mi: float, params: CostParams) -> tuple[float, float]:
    """(minutes, USD) to drive the same pair: great-circle miles scaled by
    the circuity factor, mileage cost plus time value."""
    road_mi = params.circuity * gc_distance_mi
    minutes = 60.0 * road_mi / params.car_speed_mph
    cost = params.car_cost_per_mi * road_mi + params.value_of_time_per_hr * minutes / 60.0
    return minutes, cost


def time_savings(t_car_min: float, t_uam_door_min: float) -> float:
    """Fractional door-to-door time saved over driving; negative when slower."""
    if t_car_min <= 0:
        raise ValidationError(f"car time must be positive, got {t_car_min}")
    return (t_car_min - t_uam_door_min) / t_car_min


# -- simulation-driven fleet refinement -------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """Seed-averaged metrics for one fleet size."""

    fleet: int
    mean_wait: float
    p95_wait: float
    served: float
    unserved: float
    u_air: float
    u_cycle: float
    load_factor: float
    wait_ok: bool


# the seed-averaged columns, each the mean of the MetricsReport field of
# the same name; wait_ok is judged on the averaged mean wait
_SEED_MEANS = tuple(f.name for f in fields(SweepRow) if f.name not in ("fleet", "wait_ok"))


def refine_fleet(cfg: SimConfig, seeds: int, n_min: int, n_max: int) -> Iterator[SweepRow]:
    """Sweep fleet sizes, averaging metrics over a common seed list per size.

    Seeds are ``cfg.seed + k`` for k in [0, seeds).  The arguments are
    checked and each seed's arrival stream is sampled once, at the call;
    every size then runs on the same streams, which keeps adjacent rows
    comparable.  Rows are yielded lazily in ascending fleet order, so a
    caller that wants only the answer (``first_passing``) stops there.
    """
    if n_min < 1:
        raise ValidationError(f"n_min must be at least 1, got {n_min}")
    if n_max < n_min:
        raise ValidationError(f"n_max {n_max} below n_min {n_min}")
    if seeds < 1:
        raise ValidationError(f"seeds must be at least 1, got {seeds}")
    streams = [generate_arrivals(cfg.rates, cfg.t_sim, cfg.seed + k) for k in range(seeds)]
    return (_sweep_row(cfg, streams, fleet) for fleet in range(n_min, n_max + 1))


def _sweep_row(cfg: SimConfig, streams: list, fleet: int) -> SweepRow:
    reports = [
        compute_metrics(run_simulation(replace(cfg, fleet=fleet, seed=cfg.seed + k), riders))
        for k, riders in enumerate(streams)
    ]
    means = {name: sum(getattr(r, name) for r in reports) / len(reports) for name in _SEED_MEANS}
    return SweepRow(fleet=fleet, **means, wait_ok=check_wait_target(means["mean_wait"]))


def first_passing(rows: Iterable[SweepRow]) -> int | None:
    """Fleet of the first row whose mean wait meets the target, or None."""
    return next((row.fleet for row in rows if row.wait_ok), None)


# -- plot-ready output files -------------------------------------------------

def write_waits_csv(waits: Sequence[float], path: str | Path) -> None:
    """One wait value per served rider (histogram source data)."""
    _write_csv(path, ["wait_min"], zip(waits))


def write_heatmap_csv(matrix: np.ndarray, codes: Sequence[str], path: str | Path) -> None:
    """Square matrix with node-code row and column headers."""
    _write_csv(path, ["", *codes], ([code, *row] for code, row in zip(codes, matrix.tolist())))


def write_report_json(report: dict, path: str | Path) -> None:
    """Deterministic JSON dump: sorted keys, full float precision."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    """Sweep table, one row per fleet size."""
    _write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, rows))
