"""Output checks for one op: digests, invariants and reference comparison.

A ``simulate`` op is checked on every seed for rider conservation
(generated = served + onboard_at_end + unserved), for a served heatmap and
a ``riders.csv`` dropoff count that both equal ``served``, and for one
``riders.csv`` row per generated rider.  A ``sweep`` op is checked for one
row per fleet size, for wait flags that match the ten-minute target, and
for seed-averaged served + unserved riders that fall between the mean
generated count minus the seats aloft and the mean generated count.

Digests cover the output files plus the values of the ``report.json`` keys
listed in ``reference.json`` (the ``metrics`` and ``simulation`` sections);
the config echo and keys added later are left out on purpose.  Where
``reference.json`` holds digests for the workload and seed, they must match.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SIMULATE_FILES = ("trips.csv", "riders.csv", "waits.csv",
                  "heatmap_demand.csv", "heatmap_served.csv")
SWEEP_FILES = ("sweep.csv",)
WAIT_TARGET_MIN = 10.0
FLOAT_SLACK = 1e-9


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(out: Path, names: tuple[str, ...], errors: list[str]) -> dict[str, str]:
    digests = {}
    for name in names:
        path = out / name
        if path.is_file():
            digests[name] = _sha256(path.read_bytes())
        else:
            errors.append(f"{name} missing")
    return digests


def check_simulate(out: Path, report_keys: dict[str, list[str]]) -> tuple[dict, list[str], int]:
    """(digests, errors, riders generated) for one ``simulate`` op's outputs."""
    errors: list[str] = []
    digests = _file_digests(out, SIMULATE_FILES, errors)
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        sections = {s: {k: report[s][k] for k in keys} for s, keys in report_keys.items()}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(f"report.json unreadable or missing a key: {exc!r}")
        return digests, errors, 0
    digests["report.json"] = _sha256(json.dumps(sections, sort_keys=True).encode())

    sim = sections["simulation"]
    generated, served = sim["generated"], sim["served"]
    if generated != served + sim["onboard_at_end"] + sim["unserved"]:
        errors.append(f"riders not conserved: {sim}")
    rows = dropoffs = 0
    try:
        with (out / "riders.csv").open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                rows += 1
                dropoffs += bool(row["dropoff_min"])
        with (out / "heatmap_served.csv").open(newline="", encoding="utf-8") as fh:
            heat = sum(int(cell) for row in list(csv.reader(fh))[1:] for cell in row[1:])
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"riders.csv or heatmap_served.csv unreadable: {exc!r}")
        return digests, errors, generated
    if rows != generated:
        errors.append(f"riders.csv has {rows} rows for {generated} generated riders")
    if dropoffs != served:
        errors.append(f"riders.csv has {dropoffs} dropoffs for {served} served")
    if heat != served:
        errors.append(f"served heatmap totals {heat} for {served} served")
    return digests, errors, generated


def check_sweep(out: Path, mean_generated: float, capacity: int, fleets: int) -> tuple[dict, list[str]]:
    """(digests, errors) for one ``sweep`` op's outputs."""
    errors: list[str] = []
    digests = _file_digests(out, SWEEP_FILES, errors)
    if errors:
        return digests, errors
    try:
        with (out / "sweep.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        parsed = [(int(r["fleet"]), float(r["mean_wait"]), float(r["served"]),
                   float(r["unserved"]), r["wait_ok"]) for r in rows]
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"sweep.csv unreadable: {exc!r}")
        return digests, errors
    if [p[0] for p in parsed] != list(range(1, fleets + 1)):
        errors.append(f"sweep.csv fleets are not 1..{fleets}")
    for fleet, mean_wait, served, unserved, wait_ok in parsed:
        if wait_ok != str(mean_wait <= WAIT_TARGET_MIN):
            errors.append(f"fleet {fleet}: wait_ok {wait_ok} for mean wait {mean_wait}")
        landed = served + unserved
        low = mean_generated - capacity * fleet - FLOAT_SLACK
        if not low <= landed <= mean_generated + FLOAT_SLACK:
            errors.append(f"fleet {fleet}: served + unserved {landed} outside "
                          f"[{low}, {mean_generated}]: riders not conserved")
    return digests, errors


def compare(digests: dict, expected: dict | None, label: str) -> list[str]:
    """One message per output whose digest differs from ``expected`` (if given)."""
    if expected is None:
        return []
    return [f"{name} differs from {label}" for name in sorted(set(expected) | set(digests))
            if digests.get(name) != expected.get(name)]
