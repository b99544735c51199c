"""Monthly origin-destination demand and the Poisson rider-arrival process.

Monthly passenger counts per ordered node pair become per-minute arrival
rates by dividing through the operating minutes in a month
(``days * hours * 60``).  Arrival streams are sampled minute by minute with
Knuth's product-of-uniforms Poisson inversion over a single PCG64 uniform
stream, so a (rates, horizon, seed) triple always reproduces the identical
rider list on any platform.

The sampler is one loop over a chunked uniform stream.  At these rates
about 96% of draws are zero, and those end at the first uniform.  A stream
depends only on (rates, horizon, seed), so a fleet sweep samples each seed
once and hands the list to every run (see ``Simulation``'s ``riders``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import IngestionError, ValidationError
from .network import RouteNetwork

# Uniform source behind the arrival sampler; recorded in reports so runs
# can state which generator produced their demand realization.
RNG_NAME = "pcg64"
# uniforms fetched from the generator per call
_CHUNK = 8192


@dataclass(frozen=True)
class ODMatrix:
    """Monthly passenger counts per ordered node pair (zero diagonal)."""

    counts: np.ndarray  # int64, n x n

    def __post_init__(self):
        counts = self.counts
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValidationError(f"counts must be square, got shape {counts.shape}")
        if (counts < 0).any():
            raise ValidationError("monthly passenger counts must be nonnegative")
        if np.diagonal(counts).any():
            raise ValidationError("diagonal OD counts must be zero (no self-trips)")

    @property
    def total_monthly(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class DemandRates:
    """Per-minute Poisson arrival rates derived from an ODMatrix."""

    per_min: np.ndarray  # pax/minute, n x n, zero diagonal
    days_per_month: int = 30
    op_hours_per_day: float = 20.0

    @property
    def total_rate(self) -> float:
        """System-wide arrival rate in passengers per minute."""
        return float(self.per_min.sum())

    @property
    def origin_rate(self) -> np.ndarray:
        """Row sums: rate at which riders appear at each origin."""
        return self.per_min.sum(axis=1)


class RiderRequest(NamedTuple):
    """One passenger's travel request as injected into the simulation."""

    rider_id: int
    origin: int
    dest: int
    arrival_min: int


def load_od_csv(path: str | Path, net: RouteNetwork) -> ODMatrix:
    """Read an ``od.csv`` file (header ``origin,dest,monthly_pax``).

    Unlisted pairs default to zero; repeated pairs accumulate, matching how
    market datasets report one row per carrier.  Rows referencing codes not
    in the network, negative counts, or origin == dest are rejected with the
    offending line number in the message.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"OD file not found: {path}")
    index = {node.code: node.id for node in net.nodes}
    counts = np.zeros((net.n, net.n), dtype=np.int64)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["origin", "dest", "monthly_pax"]
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected:
            raise IngestionError(f"{path}: expected header {','.join(expected)!r}, got {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            origin = (row["origin"] or "").strip()
            dest = (row["dest"] or "").strip()
            if origin not in index:
                raise IngestionError(f"{path}:{lineno}: unknown origin code {origin!r}")
            if dest not in index:
                raise IngestionError(f"{path}:{lineno}: unknown destination code {dest!r}")
            try:
                pax = int(row["monthly_pax"])
            except (TypeError, ValueError) as exc:
                raise IngestionError(f"{path}:{lineno}: bad passenger count {row['monthly_pax']!r}") from exc
            if pax < 0:
                raise IngestionError(f"{path}:{lineno}: negative passenger count {pax}")
            if origin == dest and pax > 0:
                raise IngestionError(f"{path}:{lineno}: origin equals destination ({origin!r}) with count {pax}")
            counts[index[origin], index[dest]] += pax
    return ODMatrix(counts=counts)


def compute_rates(od: ODMatrix, days_per_month: int = 30, op_hours_per_day: float = 20.0) -> DemandRates:
    """Convert monthly counts to passengers per operating minute."""
    if days_per_month <= 0:
        raise ValidationError(f"days_per_month must be positive, got {days_per_month}")
    if op_hours_per_day <= 0:
        raise ValidationError(f"op_hours_per_day must be positive, got {op_hours_per_day}")
    minutes_per_month = days_per_month * op_hours_per_day * 60.0
    per_min = od.counts.astype(np.float64) / minutes_per_month
    return DemandRates(per_min=per_min, days_per_month=days_per_month, op_hours_per_day=op_hours_per_day)


def expected_arrivals(rates: DemandRates, t_sim: int) -> float:
    """Expected rider count over a horizon of ``t_sim`` minutes."""
    if t_sim <= 0:
        raise ValidationError(f"t_sim must be positive, got {t_sim}")
    return rates.total_rate * t_sim


def generate_arrivals(rates: DemandRates, t_sim: int, seed: int) -> list[RiderRequest]:
    """Sample the full rider-arrival stream for one simulation run.

    For each minute (ascending) and each ordered pair in lexicographic
    (origin, dest) order, a Poisson count at that pair's rate is drawn and
    that many riders are appended with sequential ids.  Pairs with zero rate
    are skipped and consume no randomness; this fixed iteration order is the
    determinism contract.
    """
    if t_sim <= 0:
        raise ValidationError(f"t_sim must be positive, got {t_sim}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    n = rates.per_min.shape[0]
    pairs = [
        (i, j, math.exp(-rates.per_min[i, j]))
        for i in range(n)
        for j in range(n)
        if i != j and rates.per_min[i, j] > 0.0
    ]
    gen = np.random.Generator(np.random.PCG64(seed))
    # One endless uniform stream.  PCG64 gives the same sequence drawn in
    # chunks as drawn one at a time, so the chunking only saves calls.
    uniforms = chain.from_iterable(iter(lambda: gen.random(_CHUNK).tolist(), None))
    next_uniform = uniforms.__next__
    riders: list[RiderRequest] = []
    for minute in range(t_sim):
        # zip takes the pair before the uniform, so it stops without
        # drawing once the pairs run out
        for (origin, dest, exp_neg), p in zip(pairs, uniforms):
            if p <= exp_neg:  # a zero count, by far the most common draw
                continue
            # Knuth inversion: multiply uniforms until the product drops to e^-rate
            k = 0
            while p > exp_neg:
                k += 1
                p *= next_uniform()
            for _ in range(k):
                # tuple.__new__ skips the Python frame of RiderRequest.__new__
                riders.append(tuple.__new__(RiderRequest, (len(riders), origin, dest, minute)))
    return riders
