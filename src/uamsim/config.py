"""Scenario files: one JSON document drives every command.

Paths inside the document are resolved relative to the document itself, so
a scenario directory can be moved or copied wholesale.  Flag values passed
by the CLI override config fields, which override built-in defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .demand import DemandRates, ODMatrix, compute_rates, load_od_csv
from .errors import ConfigError
from .metrics import CostParams
from .network import GeoNode, RouteNetwork, VehicleSpec, build_network, load_nodes_csv

_TOP_LEVEL_KEYS = {
    "nodes", "od", "vehicle", "cost", "days_per_month", "op_hours_per_day",
    "t_sim_min", "fleet", "alpha", "pooling_q", "seed", "seeds",
    "reposition_enabled", "charge_after_reposition", "initial_placement",
    "compare_wait_min",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: every default materialized."""

    nodes_path: Path
    od_path: Path
    vehicle: VehicleSpec = field(default_factory=VehicleSpec)
    cost: CostParams | None = None
    days_per_month: int = 30
    op_hours_per_day: float = 20.0
    t_sim_min: int = 1200
    fleet: int | None = None
    alpha: float = 2.0
    pooling_q: float = 3.0
    seed: int = 0
    seeds: int = 1
    reposition_enabled: bool = True
    charge_after_reposition: bool = True
    initial_placement: str = "round_robin"
    compare_wait_min: float = 0.0

    def to_dict(self) -> dict:
        """Echo for reports; any run is reproducible from this alone."""
        return {
            "nodes": str(self.nodes_path),
            "od": str(self.od_path),
            "vehicle": {
                "cruise_speed_mph": self.vehicle.cruise_speed_mph,
                "max_range_mi": self.vehicle.max_range_mi,
                "optimal_leg_mi": self.vehicle.optimal_leg_mi,
                "turnaround_min": self.vehicle.turnaround_min,
                "buffer_min": self.vehicle.buffer_min,
                "capacity": self.vehicle.capacity,
                "op_cost_per_hr": self.vehicle.op_cost_per_hr,
                "altitude_band_ft": list(self.vehicle.altitude_band_ft),
            },
            "cost": None if self.cost is None else {
                "car_speed_mph": self.cost.car_speed_mph,
                "op_cost_per_hr": self.cost.op_cost_per_hr,
                "value_of_time_per_hr": self.cost.value_of_time_per_hr,
                "car_cost_per_mi": self.cost.car_cost_per_mi,
                "circuity": self.cost.circuity,
            },
            "days_per_month": self.days_per_month,
            "op_hours_per_day": self.op_hours_per_day,
            "t_sim_min": self.t_sim_min,
            "fleet": self.fleet,
            "alpha": self.alpha,
            "pooling_q": self.pooling_q,
            "seed": self.seed,
            "seeds": self.seeds,
            "reposition_enabled": self.reposition_enabled,
            "charge_after_reposition": self.charge_after_reposition,
            "initial_placement": self.initial_placement,
            "compare_wait_min": self.compare_wait_min,
        }


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario JSON document."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    for required in ("nodes", "od"):
        if required not in doc:
            raise ConfigError(f"{path}: missing required key {required!r}")

    base = path.parent

    def _resolve(rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else base / p

    vehicle_doc = _numeric_section(path, "vehicle", doc.get("vehicle", {}))
    if "altitude_band_ft" in vehicle_doc:
        vehicle_doc = dict(vehicle_doc)
        vehicle_doc["altitude_band_ft"] = tuple(vehicle_doc["altitude_band_ft"])
    try:
        vehicle = VehicleSpec(**vehicle_doc)
    except TypeError as exc:
        raise ConfigError(f"{path}: bad vehicle section: {exc}") from exc

    cost_doc = doc.get("cost")
    cost = None
    if cost_doc is not None:
        try:
            cost = CostParams(**_numeric_section(path, "cost", cost_doc))
        except TypeError as exc:
            raise ConfigError(f"{path}: bad cost section: {exc}") from exc

    cfg = ScenarioConfig(
        nodes_path=_resolve(_scalar(path, doc, "nodes", str, None)),
        od_path=_resolve(_scalar(path, doc, "od", str, None)),
        vehicle=vehicle,
        cost=cost,
        days_per_month=_scalar(path, doc, "days_per_month", int, 30),
        op_hours_per_day=_scalar(path, doc, "op_hours_per_day", float, 20.0),
        t_sim_min=_scalar(path, doc, "t_sim_min", int, 1200),
        fleet=None if doc.get("fleet") is None else _scalar(path, doc, "fleet", int, None),
        alpha=_scalar(path, doc, "alpha", float, 2.0),
        pooling_q=_scalar(path, doc, "pooling_q", float, 3.0),
        seed=_scalar(path, doc, "seed", int, 0),
        seeds=_scalar(path, doc, "seeds", int, 1),
        reposition_enabled=_scalar(path, doc, "reposition_enabled", bool, True),
        charge_after_reposition=_scalar(path, doc, "charge_after_reposition", bool, True),
        initial_placement=_scalar(path, doc, "initial_placement", str, "round_robin"),
        compare_wait_min=_scalar(path, doc, "compare_wait_min", float, 0.0),
    )
    _validate(cfg)
    return cfg


# JSON value types each scalar kind accepts, and how a message names the kind
_SCALAR_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


def _scalar(path: Path, doc: dict, key: str, kind: type, default):
    """Read one top-level scalar, refusing values of the wrong JSON type.

    A bool is accepted only where a bool is asked for (JSON ``true`` is an
    int to Python), and an integer given for a float field is stored as a
    float.
    """
    return kind(_checked(path, key, doc.get(key, default), kind))


def _checked(path: Path, key: str, value, kind: type):
    """``value`` if it is of ``kind``'s JSON type and, for a number, finite.

    Python's json reads ``NaN``, ``Infinity`` and overflowing literals as
    floats, and integer literals of any length as ints; no field of the
    model means anything by a number beyond the float range.
    """
    accepted, name = _SCALAR_KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: {key} must be {name}, got {value!r}")
    if kind is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ConfigError(f"{path}: {key} must be a finite number, got {value!r}")
    return value


def _numeric_section(path: Path, key: str, section) -> dict:
    """``section`` if it is an object whose values are finite numbers or
    lists of them.  The values are checked, not converted, so the config
    echo shows them as written.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: {key} must be a JSON object, got {section!r}")
    for name, value in section.items():
        for number in value if isinstance(value, list) else (value,):
            _checked(path, f"{key}.{name}", number, float)
    return section


def _validate(cfg: ScenarioConfig) -> None:
    if cfg.days_per_month <= 0 or cfg.op_hours_per_day <= 0:
        raise ConfigError("days_per_month and op_hours_per_day must be positive")
    if cfg.t_sim_min <= 0:
        raise ConfigError(f"t_sim_min must be positive, got {cfg.t_sim_min}")
    if cfg.fleet is not None and cfg.fleet < 1:
        raise ConfigError(f"fleet must be at least 1, got {cfg.fleet}")
    if cfg.alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {cfg.alpha}")
    if not 0 < cfg.pooling_q <= cfg.vehicle.capacity:
        raise ConfigError(f"pooling_q must be in (0, {cfg.vehicle.capacity}]")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.seeds < 1:
        raise ConfigError(f"seeds must be at least 1, got {cfg.seeds}")
    if cfg.compare_wait_min < 0:
        raise ConfigError(f"compare_wait_min must be nonnegative, got {cfg.compare_wait_min}")


def override_scenario(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Apply non-None CLI flag values on top of a loaded scenario."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    if not changes:
        return cfg
    cfg = replace(cfg, **changes)
    _validate(cfg)
    return cfg


def build_world(cfg: ScenarioConfig) -> tuple[list[GeoNode], RouteNetwork, ODMatrix, DemandRates]:
    """Load the scenario's data files and derive the network and rates."""
    nodes = load_nodes_csv(cfg.nodes_path)
    net = build_network(nodes, cfg.vehicle)
    od = load_od_csv(cfg.od_path, net)
    rates = compute_rates(od, cfg.days_per_month, cfg.op_hours_per_day)
    return nodes, net, od, rates
