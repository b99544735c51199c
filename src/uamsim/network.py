"""Vertiport node set and the great-circle route network between nodes.

Distances are statute miles on a sphere of mean radius 3,958.8 mi, flight
times are minutes at the vehicle's cruise speed, and a route is feasible
whenever its length fits inside the vehicle's maximum range.  All matrices
are built once and never mutated; every function here is pure.
"""

# annotations are not postponed here: _check_fields and the scenario loader
# in config.py read each field's type from dataclasses.fields
import csv
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, get_args

import numpy as np

from .errors import ConfigError, IngestionError, ValidationError

EARTH_RADIUS_MI = 3958.8


@dataclass(frozen=True)
class GeoNode:
    """A vertiport: integer index, short code, and decimal-degree position."""

    id: int
    code: str
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude {self.lat} outside [-90, 90] for {self.code!r}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"longitude {self.lon} outside [-180, 180] for {self.code!r}")


@dataclass(frozen=True)
class VehicleSpec:
    """Performance constants of the aircraft operating the network.

    Cruise speed sets every flight time, which ``build_network`` computes
    once into the network's ``air_time``, and the range sets which legs are
    feasible.  Each leg takes ``buffer_min`` of taxi plus its airborne
    minutes, then ``turnaround_min`` of charging; both are whole minutes of
    the simulation clock.  ``capacity`` seats cap a pooled group.  What an
    hour of flying costs is the scenario's ``cost.op_cost_per_hr``.
    These fields are also the keys of a scenario's ``vehicle`` object, and
    no other key is accepted there.  Every field must be positive and
    finite, and an ``int`` field an integer: a fractional turnaround or
    buffer would schedule transitions that the integer minute clock never
    reaches, stalling the fleet.
    """

    cruise_speed_mph: float = 150.0
    max_range_mi: float = 60.0
    turnaround_min: int = 10
    buffer_min: int = 5
    capacity: int = 4

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class RouteNetwork:
    """All pairwise distances, flight times, and range-feasibility flags.

    ``dist`` is exactly symmetric (each unordered pair is computed once and
    mirrored), the diagonal is zero, and the diagonal of ``feasible`` is
    False because self-trips do not exist.
    """

    nodes: tuple[GeoNode, ...]
    dist: np.ndarray       # miles, n x n
    air_time: np.ndarray   # minutes at cruise speed, n x n
    feasible: np.ndarray   # bool, n x n

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def codes(self) -> list[str]:
        return [node.code for node in self.nodes]


def haversine_distance(a: GeoNode, b: GeoNode) -> float:
    """Great-circle distance between two nodes in statute miles.

    Uses the haversine form, which is numerically stable for the short
    legs flown here.  Symmetric by construction and zero for ``a == b``.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_MI * math.asin(math.sqrt(h))


def build_network(nodes: list[GeoNode], spec: VehicleSpec) -> RouteNetwork:
    """Assemble the route network for a node set.

    Args:
        nodes: vertiports with ids 0..n-1 (contiguous) and unique codes.
        spec: the vehicle whose cruise speed and range shape the matrices.

    Returns:
        A RouteNetwork with miles, minutes, and feasibility per ordered pair.

    Raises:
        ConfigError: empty node list, duplicate codes, or non-contiguous ids.
    """
    if not nodes:
        raise ConfigError("network needs at least one node")
    codes = [node.code for node in nodes]
    if len(set(codes)) != len(codes):
        raise ConfigError(f"duplicate node codes: {sorted(codes)}")
    if sorted(node.id for node in nodes) != list(range(len(nodes))):
        raise ConfigError("node ids must be contiguous 0..n-1")

    ordered = tuple(sorted(nodes, key=lambda node: node.id))
    n = len(ordered)
    dist = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = haversine_distance(ordered[i], ordered[j])
            # mirror the same float so symmetry is exact, not approximate
            dist[i, j] = d
            dist[j, i] = d

    air_time = 60.0 * dist / spec.cruise_speed_mph
    feasible = dist <= spec.max_range_mi
    np.fill_diagonal(feasible, False)
    return RouteNetwork(nodes=ordered, dist=dist, air_time=air_time, feasible=feasible)


def _read_csv(path: Path, what: str, header: list[str]) -> Iterator[tuple[int, dict]]:
    """Yield the rows of a CSV file with header ``header``, each with its line number.

    ``what`` names the file when it is missing.  A header other than
    ``header``, a row with more cells than the header, bytes that are not
    UTF-8 and a line ``csv`` cannot parse are refused, the last two naming
    their line where it is known.  Parsing is strict, so a quote left open
    at the end of the file or text after a closing quote is an error.
    """
    if not path.exists():
        raise IngestionError(f"{what} file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, strict=True)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != header:
                raise IngestionError(f"{path}: expected header {','.join(header)!r}, got {reader.fieldnames}")
            for row in reader:
                if None in row:  # DictReader files the cells beyond the header under None
                    cells = len(header) + len(row[None])
                    raise IngestionError(f"{path}:{reader.line_num}: {cells} cells, but the header has {len(header)}")
                yield reader.line_num, row
    except UnicodeDecodeError as exc:  # decoded a block at a time, so no line is known
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason} 0x{exc.object[exc.start]:02x})") from None
    except csv.Error as exc:  # DictReader's line_num lags behind at an error; its reader's does not
        raise IngestionError(f"{path}:{reader.reader.line_num}: {exc}") from None


def _write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as UTF-8 in ``csv.writer``'s dialect."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# the Python types a field of each scalar type accepts, and how a message names it
_SCALAR_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


def _check_fields(obj) -> None:
    """Refuse a scalar field of the dataclass ``obj`` that breaks its type or bound.

    A field annotated ``int``, ``float``, ``bool`` or ``str``, or one of
    these ``| None`` (which may then hold None), must hold a value of that
    type, and a bool is no integer.  A number must be finite, within the
    float range, and positive, or at least the field's ``at_least``
    metadata where it has one.  Other fields are left to their owner.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kinds = get_args(f.type) or (f.type,)
        kind = kinds[0]
        if kind not in _SCALAR_KINDS or (value is None and type(None) in kinds):
            continue
        accepted, name = _SCALAR_KINDS[kind]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{f.name} must be {name}, got {value!r}")
        if kind in (bool, str):
            continue
        floor = f.metadata.get("at_least")
        sign = "nonnegative" if floor == 0 else "positive"
        # NaN fails the test, and so does an int beyond the float range
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{f.name} must be {sign} and finite, got {value}")
        if value < 0 or (value == 0 and floor != 0):
            raise ConfigError(f"{f.name} must be {sign}, got {value}")
        if floor is not None and value < floor:
            raise ConfigError(f"{f.name} must be at least {floor}, got {value}")


def load_nodes_csv(path: str | Path) -> list[GeoNode]:
    """Read a ``nodes.csv`` file (header ``id,code,lat,lon``) into GeoNodes.

    A row with more cells than the header is rejected with its line number.
    ``build_network`` checks that the ids are contiguous and the codes
    unique.
    """
    path = Path(path)
    nodes: list[GeoNode] = []
    for lineno, row in _read_csv(path, "nodes", ["id", "code", "lat", "lon"]):
        try:
            nodes.append(
                GeoNode(
                    id=int(row["id"]),
                    code=(row["code"] or "").strip(),
                    lat=float(row["lat"]),
                    lon=float(row["lon"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise IngestionError(f"{path}:{lineno}: bad node row {row}: {exc}") from exc
    if not nodes:
        raise IngestionError(f"{path}: no node rows")
    return sorted(nodes, key=lambda node: node.id)
