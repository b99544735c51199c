"""Scenario files: one JSON document drives every command.

Paths inside the document are resolved relative to the document itself, so
a scenario directory can be moved or copied wholesale.  Flag values passed
by the CLI override config fields, which override built-in defaults.

The loader and ``network._check_fields`` read each field's type from
``dataclasses.fields``, so this module, ``network`` and ``simulate`` do
not postpone annotations: a field's ``type`` must be the type itself, not
its name as a string.
"""

import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args

from .demand import DemandRates, ODMatrix, compute_rates, load_od_csv
from .errors import ConfigError
from .network import (_SCALAR_KINDS, GeoNode, RouteNetwork, VehicleSpec, _check_fields, build_network,
                      load_nodes_csv)


@dataclass(frozen=True)
class CostParams:
    """Unit costs for the door-to-door comparison against driving.

    Every field must be positive and finite, and ``circuity`` at least 1.0:
    a road is never shorter than the great circle.
    """

    car_speed_mph: float
    op_cost_per_hr: float = 605.0
    value_of_time_per_hr: float = 40.0
    car_cost_per_mi: float = 0.58
    circuity: float = field(default=1.3, metadata={"at_least": 1.0})

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: every default materialized.

    The fields are the schema: each is one key of the JSON document, read
    with its annotated type, and a key left out takes the default here.
    Every number must be finite and positive, or at least its ``at_least``
    metadata, and ``pooling_q`` at most the vehicle's capacity.
    """

    nodes: Path
    od: Path
    vehicle: VehicleSpec = field(default_factory=VehicleSpec)
    cost: CostParams | None = None
    days_per_month: int = 30
    op_hours_per_day: float = 20.0
    t_sim_min: int = 1200
    fleet: int | None = None
    alpha: float = 2.0
    pooling_q: float = 3.0
    seed: int = field(default=0, metadata={"at_least": 0})
    seeds: int = 1
    reposition_enabled: bool = True
    charge_after_reposition: bool = True
    initial_placement: str = "round_robin"
    compare_wait_min: float = field(default=0.0, metadata={"at_least": 0.0})

    def __post_init__(self):
        _check_fields(self)
        if self.pooling_q > self.vehicle.capacity:
            raise ConfigError(f"pooling_q must be in (0, {self.vehicle.capacity}], got {self.pooling_q}")
        placement_node(self.initial_placement)

    def to_dict(self) -> dict:
        """Echo for reports; any run is reproducible from this alone."""
        return {**asdict(self), "nodes": str(self.nodes), "od": str(self.od)}


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario JSON document."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError on bytes not UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return _from_object(path, ScenarioConfig, doc, "")


def _from_object(path: Path, cls: type, doc: dict, section: str):
    """``cls`` built from the JSON object ``doc``, one key per field.

    ``section`` names the object in messages ("" for the top level).  A key
    that is no field of ``cls`` is refused, and so is a missing key whose
    field has no default.
    """
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown {section or 'config'} keys {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        key = f"{section}.{f.name}" if section else f.name
        if f.name in doc:
            values[f.name] = _read(path, key, doc[f.name], f.type)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return cls(**values)


def _read(path: Path, key: str, value, hint):
    """The field ``key`` of annotated type ``hint``, read from its JSON value.

    ``X | None`` accepts JSON ``null``; a dataclass is read from an object;
    a ``Path`` from a string, relative to the document's directory.  A
    bool is accepted only where a bool is asked for (JSON ``true`` is an int
    to Python), and an integer given for a float field is stored as a float.
    """
    kinds = get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: {key} must be a JSON object, got {value!r}")
        return _from_object(path, kind, value, key)
    if kind is Path:
        rel = Path(_checked(path, key, value, str))
        return rel if rel.is_absolute() else path.parent / rel
    return kind(_checked(path, key, value, kind))


def _checked(path: Path, key: str, value, kind: type):
    """``value`` if it is of ``kind``'s JSON type and, for a number, finite.

    Python's json reads ``NaN``, ``Infinity`` and overflowing literals as
    floats, and integer literals of any length as ints; no field of the
    model means anything by a number beyond the float range.  These tests
    repeat ``_check_fields``'s because ``_read`` converts the value before
    the dataclass sees it: ``float(10**400)`` raises ``OverflowError`` and
    ``int(2.5)`` is 2.  Here the message names the file and the key.
    """
    accepted, name = _SCALAR_KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: {key} must be {name}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN fails the test too
        raise ConfigError(f"{path}: {key} must be a finite number, got {value!r}")
    return value


def placement_node(rule: str) -> int | None:
    """The node every aircraft starts at under ``rule``: ``"node:<id>"``
    gives ``<id>``, and ``"round_robin"`` (aircraft ``v`` at node ``v mod n``)
    gives None.  Whether the node exists is left to the network's user.
    """
    if rule == "round_robin":
        return None
    if rule.startswith("node:"):
        try:
            return int(rule[len("node:"):])
        except ValueError:
            raise ConfigError(f"initial placement node in {rule!r} is not an integer") from None
    raise ConfigError(f"unknown initial placement rule {rule!r}")


def build_world(cfg: ScenarioConfig) -> tuple[list[GeoNode], RouteNetwork, ODMatrix, DemandRates]:
    """Load the scenario's data files and derive the network and rates."""
    nodes = load_nodes_csv(cfg.nodes)
    net = build_network(nodes, cfg.vehicle)
    od = load_od_csv(cfg.od, net)
    rates = compute_rates(od, cfg.days_per_month, cfg.op_hours_per_day)
    return nodes, net, od, rates
