"""Minute-stepped rider/vehicle dispatch simulation.

Each run is a pure function of its configuration: the only stochastic input
is the Poisson arrival stream, every tie-break is by lowest id, and flight
durations are integer minute countdowns (taxi buffer followed by the
ceiling of the airborne time).  Per minute the engine

1. returns aircraft whose leg and turnaround end this minute to the ground,
2. injects this minute's rider arrivals,
3. dispatches: waiting riders board a co-located idle vehicle (pooling up
   to capacity on the identical OD pair) or summon the nearest idle one,
   which flies over empty and must finish its turnaround before boarding;
   a rider whose summoned vehicle's last leg is still a reposition leg to
   the rider's origin has help inbound and summons no other,
4. repositions remaining idle vehicles at rider-free nodes toward the
   highest-origin-rate node that still has riders waiting (``rate_order``
   lists the nodes by descending origin rate, lowest id first on ties).

Waiting riders are held three ways: ``waiting`` is the rider-id-ordered
ledger, each (origin, dest) pair has a FIFO ``deque`` of its riders, and
each origin keeps a count of riders waiting there.  A boarding pools the
first ``capacity`` riders of its pair's queue, and repositioning reads the
per-origin counts, so a minute costs time in proportion to the riders
visited and the legs launched, not to the length of the queue.

Nothing can change a leg once it has taken off, so a leg is one event.
Vehicles charge for the full turnaround after every leg (the
post-reposition charge can be disabled), and every leg flown is checked
against the vehicle's range.  At take-off ``_launch`` appends the leg's
``TripRecord`` to the trip log and schedules the one event, the minute the
vehicle is idle again: its ``arrive_min`` plus the turnaround after its
``kind``, revenue or reposition (an empty summon is a reposition leg).  A
vehicle is therefore either idle, on its node's ground heap, or busy until
a known minute.  ``last_leg`` holds each vehicle's last leg, the one in
the trip log: its ``dest`` is the vehicle's node and its riders are aboard
until its ``arrive_min``.  It is also where a summoned vehicle is heading:
help counts as inbound while the helper's last leg is a reposition leg to
the rider's origin.  A helper that has gone idle there sits on that node's
heap, so the rider boards before the test is reached, and a helper taken
by another rider meanwhile has a new last leg.

The trip log is the only record of a boarding and of a vehicle's minutes.
A rider boards at its leg's ``depart_min`` and is dropped off at its
``arrive_min``.  ``_finalize`` reads each vehicle's five buckets from its
legs in log order: every leg books its buffer, its airborne minutes
``arrive_min - depart_min - buffer`` into the bucket its ``kind`` names,
and its turnaround, and the idle minutes are the gaps from the end of one
charge to the next ``depart_min``, plus the tail after the last.

Only the last leg of each vehicle can be under way at the horizon: a
vehicle takes off again only after its leg has landed.  ``_finalize``
clamps that leg.  Still airborne at ``t_sim`` (landing at or after it),
the leg keeps the buffer-first split of the minutes it flew since
``depart_min``, loses the rest of its air minutes and its whole charge,
its ``kind`` says whether ``end_state`` reads ``"flying"`` or
``"repositioning"``, and its riders count as onboard: their dropoff is
blanked.  Charging at ``t_sim``, the vehicle loses the charge minutes past
the horizon.

The idle vehicles at a node form a ``heapq`` of their ids.  Every launch,
whether boarding, summon or reposition, takes the lowest id at its node, so
the heap yields the same vehicle a scan for the minimum would, whatever
order vehicles came back in.

A minute at which no vehicle comes back and no rider arrives does no work.
A dispatch pass only ever removes idle aircraft, so a rider the previous
minute's pass left waiting either found none at its origin, has help
inbound, or found none anywhere it could be summoned from; the reposition
pass that followed sent off every idle vehicle it could.  A landing into a
charge is no event: nothing that dispatch or repositioning read changes
until the vehicle is idle again.  So without a return or an arrival a
repeated dispatch pass and a repeated reposition pass are both no-ops.
The minutes are read from the trip log at the end, so skipping a minute
loses no accounting.

Trip and rider records are built by ``tuple.__new__`` on their NamedTuple
class, called from C, which skips the Python frame of the generated
``__new__`` once per leg and per rider.
"""

# annotations are not postponed: SimConfig's check reads each field's type
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from heapq import heappop, heappush
from operator import add
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import placement_node
from .demand import DemandRates, RiderRequest, check_demand_in_range, generate_arrivals
from .errors import ConfigError
from .network import RouteNetwork, VehicleSpec, _check_fields, _write_csv

REVENUE = "revenue"
REPOSITION = "reposition"


# end_state of a vehicle still airborne at the horizon, by leg kind
_AIRBORNE_END_STATE = {REVENUE: "flying", REPOSITION: "repositioning"}


class TripRecord(NamedTuple):
    """One flight leg as written to the audit log at launch time.

    ``arrive_min`` is the scheduled arrival; legs still airborne when the
    horizon closes keep their schedule and are clamped by consumers.
    """

    vehicle_id: int
    kind: str  # REVENUE or REPOSITION
    origin: int
    dest: int
    depart_min: int
    arrive_min: int
    rider_ids: tuple[int, ...]


class RiderOutcome(NamedTuple):
    """A rider's lifecycle: blank board/dropoff minutes mean it never happened."""

    rider_id: int
    origin: int
    dest: int
    arrival_min: int
    board_min: int | None
    dropoff_min: int | None


_new_trip = partial(tuple.__new__, TripRecord)
_new_outcome = partial(tuple.__new__, RiderOutcome)


class VehicleStats(NamedTuple):
    """A vehicle's day read from the trip log; the five buckets sum to the horizon."""

    vehicle_id: int
    revenue_air_min: int
    reposition_air_min: int
    buffer_min: int
    charge_min: int
    idle_min: int
    end_state: str
    end_location: int | None


@dataclass(frozen=True)
class SimConfig:
    """One run's inputs, checked when built.

    ``fleet`` and ``t_sim`` must be positive integers and ``seed`` a
    nonnegative one, the placement node must be a node of ``net``, and the
    rates must be ``net``'s size with no demand on a pair beyond range.
    """

    net: RouteNetwork
    spec: VehicleSpec
    rates: DemandRates
    fleet: int
    t_sim: int = 1200
    seed: int = field(default=0, metadata={"at_least": 0})
    reposition_enabled: bool = True
    charge_after_reposition: bool = True
    initial_placement: str = "round_robin"  # or "node:<id>"

    def __post_init__(self):
        _check_fields(self)
        start = self.start_node
        if start is not None and not 0 <= start < self.net.n:
            raise ConfigError(f"initial placement node {start} out of range")
        check_demand_in_range(self.rates, self.net)

    @cached_property
    def start_node(self) -> int | None:
        """The node every aircraft starts at, or None for round robin."""
        return placement_node(self.initial_placement)


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    trips: tuple[TripRecord, ...]
    riders: tuple[RiderOutcome, ...]
    vehicles: tuple[VehicleStats, ...]
    generated: int
    served: int
    onboard_at_end: int
    unserved: int

    @cached_property
    def waits(self) -> list[int]:
        """Wait minutes of every rider who boarded, in rider-id order.

        Built once, on first read, and shared by every later reader (the
        metrics and the ``waits.csv`` writer); treat it as read-only.
        """
        return [r.board_min - r.arrival_min for r in self.riders if r.board_min is not None]

    def to_dict(self) -> dict:
        """Canonical dict form, used for byte-identical comparison and JSON."""
        return {
            "generated": self.generated,
            "served": self.served,
            "onboard_at_end": self.onboard_at_end,
            "unserved": self.unserved,
            "trips": [[*t[:-1], list(t.rider_ids)] for t in self.trips],
            "riders": [list(r) for r in self.riders],
            "vehicles": [list(v) for v in self.vehicles],
        }


class Simulation:
    """One simulation run; construct, call :meth:`run`, read the result.

    The stepping methods are public so unit scenarios can drive a single
    minute by hand (``inject``, ``fire_transitions``, ``dispatch_step``,
    ``reposition_idle``) and inspect intermediate state.
    """

    def __init__(self, cfg: SimConfig, riders: list[RiderRequest] | None = None):
        """``riders`` is the arrival stream, or ``None`` to sample
        ``generate_arrivals(cfg.rates, cfg.t_sim, cfg.seed)`` here.

        A stream sampled beforehand lets one list serve many runs (it is
        only read); unit scenarios hand-write one, often over zero rates.
        Any stream must hold rider ``i`` at place ``i``, each arriving in
        ``[0, t_sim)`` on a feasible pair of ``cfg.net``; a rider that
        breaks this is refused with a ``ConfigError`` naming it.
        """
        n = cfg.net.n
        self.cfg = cfg
        self.n = n
        self.capacity = cfg.spec.capacity
        self.buffer = cfg.spec.buffer_min
        # charge minutes after a leg, by its kind
        self.turnaround = {
            REVENUE: cfg.spec.turnaround_min,
            REPOSITION: cfg.spec.turnaround_min if cfg.charge_after_reposition else 0,
        }
        # integer airborne minutes per ordered pair
        self.air_min = np.ceil(cfg.net.air_time).astype(int).tolist()
        self.feasible = cfg.net.feasible.tolist()
        # node visit orders, nearest first for the idle search and by
        # descending origin rate for repositioning; lowest id breaks ties
        self.near_order = np.argsort(cfg.net.dist, axis=1, kind="stable").tolist()
        self.rate_order = np.argsort(-cfg.rates.origin_rate, kind="stable").tolist()

        if riders is None:
            riders = generate_arrivals(cfg.rates, cfg.t_sim, cfg.seed)
        self.all_riders = riders
        self.arrivals_by_minute: list[list[RiderRequest]] = [[] for _ in range(cfg.t_sim)]
        t_sim, by_minute = cfg.t_sim, self.arrivals_by_minute
        pairs = {(o, d) for o, row in enumerate(self.feasible) for d, ok in enumerate(row) if ok}
        for i, rider in enumerate(riders):
            rider_id, origin, dest, minute = rider
            if not (rider_id == i and 0 <= minute < t_sim and (origin, dest) in pairs):
                raise ConfigError(f"stream rider {i} is {rider}; it must have rider_id {i} and "
                                  f"arrive in [0, {t_sim}) on a feasible pair of the network")
            by_minute[minute].append(rider)

        # each vehicle's last leg; before its first take-off, a riderless
        # leg that landed at its start node at minute 0
        self.last_leg: list[TripRecord] = []
        # min-heaps of idle vehicle ids; appended in id order, so already heaps
        self.idle_at: list[list[int]] = [[] for _ in range(n)]
        start = cfg.start_node
        for vid in range(cfg.fleet):
            node = vid % n if start is None else start
            self.last_leg.append(TripRecord(vid, REVENUE, node, node, 0, 0, ()))
            self.idle_at[node].append(vid)
        self.idle_count = cfg.fleet

        self.waiting: dict[int, RiderRequest] = {}  # insertion order == rider id order
        # the same riders, FIFO per (origin, dest) pair and counted per origin
        self.queue: list[list[deque[RiderRequest]]] = [
            [deque() for _ in range(n)] for _ in range(n)
        ]
        self.waiting_at = [0] * n
        self.summoned: dict[int, int] = {}          # rider id -> vehicle id flying to help
        self.due: dict[int, list[int]] = {}         # minute -> vehicle ids idle again
        self.trips: list[TripRecord] = []
        self.generated_so_far = 0
        self.minute = 0

    # -- per-minute phases ------------------------------------------------

    def fire_transitions(self, minute: int) -> None:
        """Return the vehicles whose leg and turnaround end now to the ground."""
        due = self.due.pop(minute, None)
        if due is None:
            return
        last_leg, idle_at = self.last_leg, self.idle_at
        for vid in due:
            heappush(idle_at[last_leg[vid].dest], vid)
        self.idle_count += len(due)

    def inject(self, minute: int) -> None:
        for rider in self.arrivals_by_minute[minute]:
            self.waiting[rider.rider_id] = rider
            self.queue[rider.origin][rider.dest].append(rider)
            self.waiting_at[rider.origin] += 1
            self.generated_so_far += 1

    def dispatch_step(self, minute: int) -> None:
        if self.idle_count == 0:
            return  # nobody can board or be summoned this minute
        boarded: set[int] = set()
        for rider in self.waiting.values():
            if rider.rider_id in boarded:
                continue  # pooled onto an earlier boarding this pass
            origin = rider.origin
            if self.idle_at[origin]:
                boarded.update(self._board(rider, minute))
                continue
            helper = self.summoned.get(rider.rider_id)
            if helper is not None:
                # help is on its way while the helper's last leg is still
                # a reposition leg here; see the module docstring
                leg = self.last_leg[helper]
                if leg.kind == REPOSITION and leg.dest == origin:
                    continue
            if self.idle_count == 0:
                break  # the last idle vehicle left during this pass
            node = self._nearest_idle(origin)
            if node is not None:
                self.summoned[rider.rider_id] = self._launch(node, REPOSITION, origin, (), minute)
        for rid in boarded:
            del self.waiting[rid]

    def reposition_idle(self, minute: int) -> None:
        if not self.cfg.reposition_enabled or self.idle_count == 0 or not self.waiting:
            return
        waiting_at = self.waiting_at
        target = next(x for x in self.rate_order if waiting_at[x])
        for node in range(self.n):
            if waiting_at[node] or not self.feasible[node][target]:
                continue
            pool = self.idle_at[node]
            while pool:
                self._launch(node, REPOSITION, target, (), minute)

    # -- helpers -----------------------------------------------------------

    def _nearest_idle(self, origin: int) -> int | None:
        """The closest node with an idle vehicle and a feasible leg in."""
        for node in self.near_order[origin]:
            if not self.idle_at[node]:
                continue
            if node != origin and not self.feasible[node][origin]:
                continue
            return node
        return None

    def _board(self, rider: RiderRequest, minute: int) -> tuple[int, ...]:
        """Fly ``rider`` and up to ``capacity - 1`` pair-mates; return their ids.

        ``rider`` is at the front of its pair's queue: riders are visited in
        id order and no vehicle goes idle during a pass, so an earlier rider
        of the same pair who was not boarded found no idle vehicle here.
        """
        queue = self.queue[rider.origin][rider.dest]
        group = tuple(queue.popleft().rider_id for _ in range(min(self.capacity, len(queue))))
        self.waiting_at[rider.origin] -= len(group)
        self._launch(rider.origin, REVENUE, rider.dest, group, minute)
        return group

    def _launch(self, origin: int, kind: str, dest: int, riders: tuple[int, ...], minute: int) -> int:
        """Fly the lowest-id idle vehicle at ``origin`` to ``dest``; return its id.

        The leg goes into the trip log, and the vehicle is due back on the
        ground when the turnaround after it ends.
        """
        vid = heappop(self.idle_at[origin])
        self.idle_count -= 1
        arrive_min = minute + self.buffer + self.air_min[origin][dest]
        self.due.setdefault(arrive_min + self.turnaround[kind], []).append(vid)
        self.last_leg[vid] = leg = _new_trip((vid, kind, origin, dest, minute, arrive_min, riders))
        self.trips.append(leg)
        return vid

    # -- loop ---------------------------------------------------------------

    def step(self) -> None:
        """Advance exactly one minute; an eventless one only moves the clock.

        See the module docstring for why a minute at which no vehicle comes
        back and no rider arrives can skip all four phases.
        """
        m = self.minute
        if m in self.due or self.arrivals_by_minute[m]:
            self.fire_transitions(m)
            self.inject(m)
            self.dispatch_step(m)
            self.reposition_idle(m)
        self.minute = m + 1

    def counts(self) -> tuple[int, int, int, int]:
        """(generated, dropped_off, onboard, waiting) at the current minute.

        Riders are aboard until their leg lands: a landing at the current
        minute has not happened yet.  A generated rider who is neither
        waiting nor aboard has been dropped off.
        """
        minute = self.minute
        onboard = sum(len(leg.rider_ids) for leg in self.last_leg if leg.arrive_min >= minute)
        waiting = len(self.waiting)
        return self.generated_so_far, self.generated_so_far - waiting - onboard, onboard, waiting

    def run(self) -> SimResult:
        while self.minute < self.cfg.t_sim:
            self.step()
        return self._finalize()

    def _finalize(self) -> SimResult:
        """Read the run's outcome from the trip log and snapshot it.

        One pass over the log books each vehicle's minutes, leg by leg, and
        each rider's board and dropoff minutes from its leg; then each
        vehicle's last leg is clamped at the horizon.  The engine's state is
        only read, so a second call gives the same result.
        """
        t_end, buffer, turnaround = self.cfg.t_sim, self.buffer, self.turnaround
        fleet = self.cfg.fleet
        revenue, reposition, buffers, charge, idle = ([0] * fleet for _ in range(5))
        air = {REVENUE: revenue, REPOSITION: reposition}
        free = [0] * fleet  # the minute each vehicle was last idle again
        # generate_arrivals numbers riders by their place in the stream
        boards: list[int | None] = [None] * len(self.all_riders)
        dropoffs = boards.copy()
        for vid, kind, _, _, depart, arrive, rider_ids in self.trips:
            idle[vid] += depart - free[vid]
            buffers[vid] += buffer
            air[kind][vid] += arrive - depart - buffer
            charge[vid] += turnaround[kind]
            free[vid] = arrive + turnaround[kind]
            landed = arrive if arrive < t_end else None  # a leg still aloft has not landed
            for rid in rider_ids:
                boards[rid] = depart
                dropoffs[rid] = landed
        stats = []
        for vid, leg in enumerate(self.last_leg):
            end_location = leg.dest
            if leg.arrive_min >= t_end:  # airborne: buffer elapses first, then air
                buffer_left = max(buffer - (t_end - leg.depart_min), 0)
                buffers[vid] -= buffer_left
                air[leg.kind][vid] -= leg.arrive_min - t_end - buffer_left
                charge[vid] -= free[vid] - leg.arrive_min
                end_state, end_location = _AIRBORNE_END_STATE[leg.kind], None
            elif free[vid] >= t_end:  # a charge that ends now is still under way
                charge[vid] -= free[vid] - t_end
                end_state = "charging"
            else:
                idle[vid] += t_end - free[vid]
                end_state = "idle"
            stats.append(VehicleStats(vid, revenue[vid], reposition[vid], buffers[vid],
                                      charge[vid], idle[vid], end_state, end_location))
        outcomes = tuple(map(_new_outcome, map(add, self.all_riders, zip(boards, dropoffs))))
        unlanded = dropoffs.count(None)
        return SimResult(
            config=self.cfg,
            trips=tuple(self.trips),
            riders=outcomes,
            vehicles=tuple(stats),
            generated=len(self.all_riders),
            served=len(dropoffs) - unlanded,
            # riders who boarded a leg that had not landed
            onboard_at_end=unlanded - boards.count(None),
            unserved=len(self.waiting),
        )


def run_simulation(cfg: SimConfig, riders: list[RiderRequest] | None = None) -> SimResult:
    """Execute one full run; identical configs give byte-identical results.

    ``riders`` is an arrival stream sampled beforehand, as for ``Simulation``.
    """
    return Simulation(cfg, riders).run()


def write_trips_csv(result: SimResult, path: str | Path) -> None:
    """Trip audit log in ``csv.writer``'s bytes; no field ever needs quoting."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("vehicle_id,kind,origin,dest,depart_min,arrive_min,riders\r\n")
        fh.writelines(
            f"{vid},{kind},{origin},{dest},{depart},{arrive},{';'.join(map(str, rider_ids))}\r\n"
            for vid, kind, origin, dest, depart, arrive, rider_ids in result.trips
        )


def write_riders_csv(result: SimResult, path: str | Path) -> None:
    """Rider ledger; board/dropoff cells are blank when they never happened."""
    _write_csv(path, RiderOutcome._fields, result.riders)  # csv writes None as an empty cell
