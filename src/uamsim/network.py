"""Vertiport node set and the great-circle route network between nodes.

Distances are statute miles on a sphere of mean radius 3,958.8 mi, flight
times are minutes at the vehicle's cruise speed, and a route is feasible
whenever its length fits inside the vehicle's maximum range.  All matrices
are built once and never mutated; every function here is pure.
"""

# annotations are not postponed here: _check_fields and the scenario loader
# in config.py read each field's type from dataclasses.fields
import csv
import io
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
        ConfigError: empty node list, duplicate codes, non-contiguous ids,
            or a flight time beyond the float range (a cruise speed so
            slow that a leg takes infinite minutes).
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

    with np.errstate(over="ignore"):  # refused below, with a pair named
        air_time = 60.0 * dist / spec.cruise_speed_mph
    if not np.isfinite(air_time).all():
        i, j = np.argwhere(~np.isfinite(air_time))[0].tolist()
        raise ConfigError(f"flight time {ordered[i].code}->{ordered[j].code} is not finite at "
                          f"cruise_speed_mph {spec.cruise_speed_mph}")
    feasible = dist <= spec.max_range_mi
    np.fill_diagonal(feasible, False)
    return RouteNetwork(nodes=ordered, dist=dist, air_time=air_time, feasible=feasible)


def _read_text(path: Path, what: str) -> str:
    """The text of the input file ``path``, decoded as UTF-8.

    ``what`` names the file when it is missing.  A leading UTF-8
    byte-order mark, as spreadsheet programs write one, is skipped, and
    bytes that are not UTF-8 are refused.  Line endings are kept as they
    are, for ``csv`` to read.
    """
    if not path.exists():
        raise IngestionError(f"{what} file not found: {path}")
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason} 0x{exc.object[exc.start]:02x})") from None


def _read_csv(path: Path, what: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield each non-blank row of a CSV file with header ``header``: its
    line number and its cells, stripped of surrounding spaces.

    The file is read by ``_read_text``.  A header other than ``header``
    once its names are stripped, a row with more or fewer cells than the
    header and a line ``csv`` cannot parse are refused, the last two
    naming their line.  Parsing is strict, so a quote left open at the end
    of the file or text after a closing quote is an error.
    """
    reader = csv.reader(io.StringIO(_read_text(path, what), newline=""), strict=True)
    try:
        names = next(reader, None)
        if names is None or [name.strip() for name in names] != header:
            raise IngestionError(f"{path}: expected header {','.join(header)!r}, got {names}")
        for row in filter(None, reader):  # a blank line reads as no cells
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}:{reader.line_num}: {len(row)} cells, but the header has {len(header)}")
            yield reader.line_num, [cell.strip() for cell in row]
    except csv.Error as exc:
        raise IngestionError(f"{path}:{reader.line_num}: {exc}") from None


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

    This is the one check of a scalar, whether it came from a scenario
    file, a flag or a library caller; the scenario loader only adds the
    file and the key to its message.  A field annotated ``int``,
    ``float``, ``bool`` or ``str``, or one of these ``| None`` (which may
    then hold None), must hold a value of that type, and a bool is no
    integer.  A number must be finite, within the float range, and
    positive, or at least the field's ``at_least`` metadata where it has
    one.  An integer that passes on a ``float`` field is stored as a float.
    Other fields are left to their owner.
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
        if kind is float:
            object.__setattr__(obj, f.name, float(value))


def load_nodes_csv(path: str | Path) -> list[GeoNode]:
    """Read a ``nodes.csv`` file (header ``id,code,lat,lon``) into GeoNodes.

    ``build_network`` checks that the ids are contiguous and the codes
    unique.
    """
    path = Path(path)
    nodes: list[GeoNode] = []
    for lineno, (node_id, code, lat, lon) in _read_csv(path, "nodes", ["id", "code", "lat", "lon"]):
        try:
            nodes.append(GeoNode(id=int(node_id), code=code, lat=float(lat), lon=float(lon)))
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: bad node row: {exc}") from exc
    if not nodes:
        raise IngestionError(f"{path}: no node rows")
    return sorted(nodes, key=lambda node: node.id)
