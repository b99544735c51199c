"""Monthly origin-destination demand and the Poisson rider-arrival process.

Monthly passenger counts per ordered node pair become per-minute arrival
rates by dividing through the operating minutes in a month
(``days * hours * 60``).  Arrival streams are sampled minute by minute with
Knuth's product-of-uniforms Poisson inversion over a single PCG64 uniform
stream, so a (rates, horizon, seed) triple always reproduces the identical
rider list on any platform.

The sampler never steps through the zero draws one at a time.  At these
rates about 96% of draws are zero, and those end at their first uniform.
Let ``floor`` be the smallest ``e^-rate`` over the positive-rate pairs: a
uniform at or below it ends any draw it starts at zero, whichever pair that
is.  So each fetched chunk of uniforms is compared with ``floor`` in numpy,
and Python visits only the positions above it (8-9% of uniforms on the
baseline and the stress scenario).  Draw ``j`` is pair ``j % P`` in minute
``j // P`` for ``P`` positive-rate pairs.  Were there no products, the
uniform at position ``q`` of a chunk would start draw ``start + q``; each
uniform a product multiplies moves every later draw one position on, so it
lowers ``start`` by one, and a position a product used starts no draw.  A
draw that does not end at zero multiplies the uniforms that follow it in
the stream, across a chunk edge if need be, with the same float64
``p *= u`` and ``p <= e^-rate`` tests as a loop over every draw.  The
stream, the draw order and every float operation are that loop's, so the
riders are identical; the tests check this against a scalar oracle.  The
scan records the draw of each rider, and the riders of each chunk are then
appended to the stream's columns from those indices in C.

The scan's cost grows with the largest per-pair rate, because ``floor``
falls as it rises: one pair at 1.0/min beside cold pairs lets 63% of all
uniforms through, and the sampler is then slower than a loop that steps
through every draw.

The stream is an ``ArrivalStream``: three plain lists, ``origin``,
``dest`` and ``minute``, where rider ``i`` is entry ``i`` of each, so a
rider's id is its place and no object is built per rider.  The riders of
one minute share that minute's int.  A ``RiderRequest`` is made only for
a caller that iterates the stream; no command does.

A stream depends only on (rates, horizon, seed), so a fleet sweep samples
each seed once and hands it to every run (see ``Simulation``'s
``riders``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, IngestionError, ValidationError
from .network import RouteNetwork, _read_csv

# Uniform source behind the arrival sampler; recorded in reports so runs
# can state which generator produced their demand realization.
RNG_NAME = "pcg64"
# uniforms fetched from the generator per call
_CHUNK = 8192
# largest monthly total an OD pair may sum to; ODMatrix counts are int64
_INT64_MAX = int(np.iinfo(np.int64).max)


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
    """Per-minute Poisson arrival rates derived from an ODMatrix.

    A pair's rate may be at most 708.3964 pax/min, ``-ln`` of the smallest
    normal float.  Knuth inversion stops when the product of uniforms
    reaches ``e^-rate``: past the bound that is subnormal, and past ~745/min
    it is 0.0, which caps every count near 746, silently.
    """

    per_min: np.ndarray  # pax/minute, n x n, zero diagonal

    def __post_init__(self):
        per_min = self.per_min
        if per_min.ndim != 2 or per_min.shape[0] != per_min.shape[1]:
            raise ValidationError(f"rates must be square, got shape {per_min.shape}")
        if not (per_min >= 0).all():  # NaN fails the test too
            raise ValidationError("arrival rates must be nonnegative numbers")
        beyond = np.argwhere(np.exp(-per_min) < sys.float_info.min)
        if len(beyond):
            i, j = beyond[0].tolist()
            raise ValidationError(
                f"pair ({i}, {j}) has {per_min[i, j]:.4f} pax/min, beyond the Poisson "
                f"sampler's range of {-math.log(sys.float_info.min):.4f} pax/min per pair"
            )

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


@dataclass(frozen=True)
class ArrivalStream:
    """A day's riders as three columns: rider ``i`` is entry ``i`` of
    ``origin``, ``dest`` and ``minute``, so its id is its place.

    The contract every stream keeps: rider ``i`` has id ``i``, and the
    minutes never decrease, so a minute's riders are a run of consecutive
    ids.  ``generate_arrivals`` builds streams that keep it by
    construction, and ``of`` builds a hand-written one from
    ``RiderRequest``s, refusing a rider whose ``rider_id`` is not its
    place.  ``Simulation`` refuses a stream whose minutes decrease or
    leave ``[0, t_sim)``, or whose riders travel on a pair it cannot fly.

    ``len`` is the rider count, and iterating yields each rider's
    ``RiderRequest``, made on demand, so ``list(stream)`` is the rider list.
    """

    origin: list[int]
    dest: list[int]
    minute: list[int]

    @classmethod
    def of(cls, riders: Iterable[RiderRequest]) -> ArrivalStream:
        """The stream of hand-written riders, rider ``i`` with ``rider_id`` ``i``."""
        stream = cls([], [], [])
        for i, rider in enumerate(riders):
            if rider.rider_id != i:
                raise ConfigError(f"stream rider {i} is {rider}; it must have rider_id {i}")
            stream.origin.append(rider.origin)
            stream.dest.append(rider.dest)
            stream.minute.append(rider.arrival_min)
        return stream

    def __len__(self) -> int:
        return len(self.minute)

    def __iter__(self) -> Iterator[RiderRequest]:
        """Each rider's ``RiderRequest``, made on demand."""
        return map(RiderRequest, count(), self.origin, self.dest, self.minute)


def load_od_csv(path: str | Path, net: RouteNetwork) -> ODMatrix:
    """Read an ``od.csv`` file (header ``origin,dest,monthly_pax``).

    Unlisted pairs default to zero; repeated pairs accumulate, matching how
    market datasets report one row per carrier.  Rows referencing codes
    not in the network, negative counts, origin == dest, or a pair total
    beyond int64 are rejected with the offending line number in the message.
    """
    path = Path(path)
    index = {node.code: node.id for node in net.nodes}
    counts = np.zeros((net.n, net.n), dtype=np.int64)
    for lineno, (origin, dest, monthly_pax) in _read_csv(path, "OD", ["origin", "dest", "monthly_pax"]):
        if origin not in index:
            raise IngestionError(f"{path}:{lineno}: unknown origin code {origin!r}")
        if dest not in index:
            raise IngestionError(f"{path}:{lineno}: unknown destination code {dest!r}")
        try:
            pax = int(monthly_pax)
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: bad passenger count {monthly_pax!r}") from exc
        if pax < 0:
            raise IngestionError(f"{path}:{lineno}: negative passenger count {pax}")
        if origin == dest and pax > 0:
            raise IngestionError(f"{path}:{lineno}: origin equals destination ({origin!r}) with count {pax}")
        i, j = index[origin], index[dest]
        total = int(counts[i, j]) + pax  # a Python int: the array would wrap or raise
        if total > _INT64_MAX:
            raise IngestionError(
                f"{path}:{lineno}: {origin}->{dest} total of {total} passengers exceeds {_INT64_MAX}")
        counts[i, j] = total
    return ODMatrix(counts=counts)


def compute_rates(od: ODMatrix, days_per_month: int = 30, op_hours_per_day: float = 20.0) -> DemandRates:
    """Convert monthly counts to passengers per operating minute.

    ``DemandRates`` refuses a rate beyond the sampler's range; an infinite
    month would give all-zero rates, so both arguments must be positive and
    within the float range, which NaN and an int such as ``10**400`` are not.
    """
    if not 0 < days_per_month <= sys.float_info.max:
        raise ValidationError(f"days_per_month must be positive and finite, got {days_per_month}")
    if not 0 < op_hours_per_day <= sys.float_info.max:
        raise ValidationError(f"op_hours_per_day must be positive and finite, got {op_hours_per_day}")
    minutes_per_month = days_per_month * op_hours_per_day * 60.0
    return DemandRates(per_min=od.counts.astype(np.float64) / minutes_per_month)


def expected_arrivals(rates: DemandRates, t_sim: int) -> float:
    """Expected rider count over a horizon of ``t_sim`` minutes."""
    if t_sim <= 0:
        raise ValidationError(f"t_sim must be positive, got {t_sim}")
    return rates.total_rate * t_sim


def check_demand_in_range(rates: DemandRates, net: RouteNetwork) -> None:
    """Refuse a rate matrix that is not the network's size, and demand on a
    pair beyond the aircraft's range, naming every such (origin, dest) pair
    in row-major order."""
    if rates.per_min.shape != (net.n, net.n):
        raise ConfigError("demand rate matrix does not match the network size")
    rows, cols = np.nonzero((rates.per_min > 0) & ~net.feasible & ~np.eye(net.n, dtype=bool))
    if rows.size:
        bad = list(zip(rows.tolist(), cols.tolist()))
        raise ConfigError(f"demand on infeasible routes (exceeds range): {bad}")


def _rider_draws(exps: list[float], t_sim: int, seed: int) -> Iterator[list[int]]:
    """Index of the draw that starts each rider, in stream order.

    Draw ``j`` is pair ``j % len(exps)`` in minute ``j // len(exps)``; a
    draw with count ``k`` appears ``k`` times.  The indices come in one
    batch per chunk of uniforms.  See the module docstring.
    """
    n_pairs = len(exps)
    draws = n_pairs * t_sim
    # a uniform at or below every e^-rate ends the draw it starts at zero
    floor = min(exps)
    drawn: list[int] = []
    random = np.random.Generator(np.random.PCG64(seed)).random
    # PCG64 gives the same sequence drawn in chunks as drawn one at a time,
    # so the chunking only saves calls
    size = _CHUNK
    chunk = random(size)
    start = 0  # draw started by chunk[0], had no product used it
    skip = 0  # leading uniforms of chunk that products used
    while start + skip < draws:
        offsets = np.flatnonzero(chunk > floor)
        for q, p in zip(offsets.tolist(), chunk[offsets].tolist()):
            if q < skip:
                continue
            j = start + q
            if j >= draws:
                yield drawn
                return
            exp_neg = exps[j % n_pairs]
            if p <= exp_neg:  # a zero count
                continue
            # Knuth inversion: multiply uniforms until the product drops to e^-rate
            first = chunk
            q += 1
            while p > exp_neg:
                if q == size:
                    chunk, q = random(size), 0
                    start += size
                p *= chunk.item(q)
                q += 1
                start -= 1  # every later draw starts one uniform further on
                drawn.append(j)
            skip = q
            if chunk is not first:  # the rest of the candidates were multiplied
                break
        else:
            yield drawn
            drawn = []
            chunk = random(size)
            start += size
            skip = 0
    yield drawn


def generate_arrivals(rates: DemandRates, t_sim: int, seed: int) -> ArrivalStream:
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
    stream = ArrivalStream([], [], [])
    positive = rates.per_min > 0.0
    np.fill_diagonal(positive, False)
    origins, dests = np.nonzero(positive)  # in lexicographic order
    if not len(origins):
        return stream
    exps = [math.exp(-rate) for rate in rates.per_min[origins, dests].tolist()]
    minutes = list(range(t_sim))  # one int per minute, shared by its riders
    for batch in _rider_draws(exps, t_sim, seed):
        drawn = np.array(batch, dtype=np.int64)
        pair = drawn % len(exps)
        stream.origin.extend(origins[pair].tolist())
        stream.dest.extend(dests[pair].tolist())
        stream.minute.extend(map(minutes.__getitem__, (drawn // len(exps)).tolist()))
    return stream
