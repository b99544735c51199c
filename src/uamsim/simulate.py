"""Minute-stepped rider/vehicle dispatch simulation.

Each run is a pure function of its configuration: the only stochastic input
is the Poisson arrival stream, every tie-break is by lowest id, and flight
durations are integer minute countdowns (taxi buffer followed by the
ceiling of the airborne time).  Per minute the engine

1. returns aircraft whose leg and turnaround end this minute to the ground,
2. injects this minute's rider arrivals,
3. dispatches: waiting riders board a co-located idle vehicle (pooling up
   to capacity on the identical OD pair) or summon the nearest idle one in
   range, which flies over empty and must finish its turnaround before
   boarding; a rider whose summoned vehicle's last leg is still a
   reposition leg to the rider's origin has help inbound and summons no
   other,
4. repositions the idle vehicles at rider-free nodes in range toward the
   highest-origin-rate node that still has riders waiting (``rate_order``
   lists the nodes by descending origin rate, lowest id first on ties).

Range is decided once per run.  ``__init__`` reads ``net.feasible`` into
two tables: ``summon_from[x]`` lists the nodes with a feasible leg into
``x``, nearest first and lowest id on ties, and ``reposition_from[x]``
lists the same nodes in id order.  A summons walks the first, a
reposition the second, and the arrival stream is checked against the
pairs they hold, so no leg beyond range is ever flown.

The arrival stream is an ``ArrivalStream``, three columns in which rider
``i`` is entry ``i``, and the engine holds riders by id only.  The stream
is in minute order, so minute ``m``'s riders are the ids ``first[m]`` up
to ``first[m + 1]``: ``__init__`` counts each minute's riders while it
checks the stream and sums the counts into the ``t_sim + 1`` offsets of
``first``.

Waiting riders are held three ways: ``waiting`` maps each rider's id, in
id order, to the vehicle it summoned or None (dispatch reads the rider's
origin and dest from the stream's columns), each (origin, dest) pair has
a FIFO list of its riders' ids, and each origin keeps a count of riders
waiting there.  A boarding pools the first ``capacity`` riders of its
pair's queue and deletes them in one slice (a plain list, because an empty
``deque`` costs ~0.7 kB and a run makes one per pair), and repositioning
reads the per-origin counts, so a minute costs time in proportion to the
riders visited and the legs launched, not to the length of the queue.

The engine holds only live state.  A summons lives in its rider's
``waiting`` entry, so it leaves with the rider on boarding.  ``_launch``
takes each leg's ``arrive_min`` from ``landings``, one int per landing
minute of the run, so the legs that land in the same minute share one int
object instead of holding one each.

The trip log is a ``TripLog``: one plain list per field (vehicle, origin,
dest, depart, arrive and rider count) plus one flat ``array('q')`` of
every leg's rider ids, leg after leg.  A leg carries riders if and only
if it is a revenue leg, so its ``kind`` is not stored.  The lists hold
ints that exist anyway (vehicle ids from the idle heaps, the minute, the
shared landing minutes), so a leg costs a slot in each list and no object
of its own.  A rider id exists only while its rider waits, so the log
keeps rider ids as C int64s: a boarded rider's int is freed once
``waiting``, its pair queue and its aircraft's ``last_group`` drop it.
``_launch`` extends the array with the whole group, once per revenue
leg.  ``TripRecord``s are built only for a caller that reads
``SimResult.trips``; no command does.

Nothing can change a leg once it has taken off, so a leg is one event.
Vehicles charge for the full turnaround after every leg (the
post-reposition charge can be disabled).  At take-off ``_launch`` appends
the leg to the trip log and schedules the one event, the minute the
vehicle is idle again: its ``arrive_min`` plus the turnaround after its
kind, revenue or reposition (an empty summon is a reposition leg).  A
vehicle is therefore either idle, on its node's ground heap, or busy
until a known minute.  Per vehicle the engine keeps ``last_leg``, the
index of its last leg in the log (-1 before its first take-off),
``node``, that leg's ``dest`` (or the start node), and ``last_group``,
that leg's riders, who are aboard until its ``arrive_min``.  The last leg
is also where a summoned vehicle is heading: help counts as inbound while
the helper's last leg is a reposition leg (no riders) to the rider's
origin.  A helper that has gone idle there sits on that node's heap, so
the rider boards before the test is reached, and a helper taken by
another rider meanwhile has a new last leg.

The trip log is the run's result.  ``run`` returns a ``SimResult`` that
holds the config, the arrival stream, the log, each vehicle's last leg as
a ``TripRecord`` and the count of riders still waiting; everything else is
read from the log when first asked for, and no per-rider, per-vehicle or
per-leg record is built unless a caller reads one.  A rider boards at its
leg's ``depart_min`` and is dropped off at its ``arrive_min``.  Every leg
books its buffer, its airborne minutes ``arrive_min - depart_min -
buffer`` into the bucket of its kind, and its turnaround; a vehicle's idle
minutes are the rest of its day.

Only the last leg of each vehicle can be under way at the horizon: a
vehicle takes off again only after its leg has landed.  So the horizon
clamp is a rule on one leg, ``SimConfig.clamped_minutes``, which the
vehicle buckets and ``compute_metrics`` both read.  Still airborne at
``t_sim`` (landing at or after it), a leg keeps the buffer-first split of
the minutes it flew since ``depart_min`` and loses the rest of its air
minutes and its whole charge; its ``kind`` says whether ``end_state``
reads ``"flying"`` or ``"repositioning"``, and its riders count as
onboard, with a blank dropoff.  Charging at ``t_sim``, a vehicle loses the
charge minutes past the horizon.

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
"""

# annotations are not postponed: SimConfig's check reads each field's type
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate, compress, count, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import placement_node
from .demand import ArrivalStream, DemandRates, RiderRequest, check_demand_in_range, generate_arrivals
from .errors import ConfigError
from .network import RouteNetwork, VehicleSpec, _check_fields, _write_csv

REVENUE = "revenue"
REPOSITION = "reposition"


class TripRecord(NamedTuple):
    """One flight leg, as ``SimResult.trips`` and ``last_legs`` give it.

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


class TripLog(NamedTuple):
    """The trip log, one sequence per field: leg ``i`` is entry ``i`` of each.

    ``seated`` is each leg's rider count, and ``rider_ids`` holds the
    riders of every leg in launch order, so a leg's riders follow those of
    the legs before it.  A leg with riders is a revenue leg, one without a
    reposition leg.  The readers only iterate ``rider_ids`` and take its
    length, so it may be any int sequence: the engine logs it in an
    ``array('q')``, and a hand-built log may give a list.
    """

    vehicle: list[int]
    origin: list[int]
    dest: list[int]
    depart: list[int]
    arrive: list[int]
    seated: list[int]
    rider_ids: Sequence[int]

    def records(self) -> Iterator[TripRecord]:
        """Each leg's ``TripRecord``, made on demand."""
        ids = iter(self.rider_ids)
        for vid, origin, dest, depart, arrive, seated in zip(
                self.vehicle, self.origin, self.dest, self.depart, self.arrive, self.seated):
            yield TripRecord(vid, REVENUE if seated else REPOSITION, origin, dest, depart, arrive,
                             tuple(islice(ids, seated)))


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

    @cached_property
    def turnaround(self) -> dict[str, int]:
        """Charge minutes after a leg, by its kind."""
        minutes = self.spec.turnaround_min
        return {REVENUE: minutes, REPOSITION: minutes if self.charge_after_reposition else 0}

    def clamped_minutes(self, legs: Iterable[tuple[str, int, int]]) -> Iterator[tuple[int, int, int]]:
        """Each leg's (buffer, air, charge) minutes that fall before the
        horizon, from its (kind, depart_min, arrive_min).

        Only an aircraft's last leg can reach ``t_sim``.  Still aloft there
        (landing at or after it), a leg keeps the buffer-first split of the
        minutes it flew since take-off and no charge; a landed leg loses the
        charge minutes past the horizon.
        """
        t_end, buffer, turnaround = self.t_sim, self.spec.buffer_min, self.turnaround
        for kind, depart, arrive in legs:
            if arrive + turnaround[kind] <= t_end:  # landed and charged
                yield buffer, arrive - depart - buffer, turnaround[kind]
            elif arrive < t_end:  # charging at the horizon
                yield buffer, arrive - depart - buffer, t_end - arrive
            else:  # still aloft
                taxied = min(buffer, t_end - depart)
                yield taxied, t_end - depart - taxied, 0


@dataclass(frozen=True)
class SimResult:
    """A run's trip log and what it leaves behind; the rest is read from the log.

    ``stream`` is the arrival stream the run read, ``log`` the trip log,
    ``last_legs`` each aircraft's last leg (a riderless leg that landed at
    its start node at minute 0 for one that never flew) and ``unserved``
    the riders still waiting at the horizon: a rider leaves the queue only
    by boarding.  ``trips``, ``riders``, ``vehicles``, ``served``,
    ``onboard_at_end`` and ``waits`` are built on first read and then kept;
    treat them as read-only.
    """

    config: SimConfig
    stream: ArrivalStream
    log: TripLog
    last_legs: tuple[TripRecord, ...]
    unserved: int

    @property
    def generated(self) -> int:
        return len(self.stream)

    @cached_property
    def trips(self) -> tuple[TripRecord, ...]:
        """The trip log as one ``TripRecord`` per leg, built on first read."""
        return tuple(self.log.records())

    @cached_property
    def _boards_and_dropoffs(self) -> tuple[list[int | None], list[int | None]]:
        """Each rider's board and dropoff minute, None where it never happened.

        A rider boards at its leg's ``depart_min`` and is dropped off at its
        ``arrive_min``, unless the leg is still aloft at the horizon.  The
        riderless legs are skipped in C.
        """
        t_end, log = self.config.t_sim, self.log
        # generate_arrivals numbers riders by their place in the stream
        boards, dropoffs = [None] * len(self.stream), [None] * len(self.stream)
        ids = iter(log.rider_ids)
        for depart, arrive, seated in compress(zip(log.depart, log.arrive, log.seated), log.seated):
            landed = arrive if arrive < t_end else None
            for rid in islice(ids, seated):
                boards[rid] = depart
                dropoffs[rid] = landed
        return boards, dropoffs

    def _outcome_rows(self) -> Iterator[tuple]:
        """Each rider's ``RiderOutcome`` fields, as plain tuples made on demand."""
        stream, (boards, dropoffs) = self.stream, self._boards_and_dropoffs
        return zip(count(), stream.origin, stream.dest, stream.minute, boards, dropoffs)

    @cached_property
    def riders(self) -> tuple[RiderOutcome, ...]:
        return tuple(map(RiderOutcome._make, self._outcome_rows()))

    @cached_property
    def served(self) -> int:
        return len(self.stream) - self._boards_and_dropoffs[1].count(None)

    @cached_property
    def onboard_at_end(self) -> int:
        """Riders who boarded a leg that had not landed."""
        boards, dropoffs = self._boards_and_dropoffs
        return dropoffs.count(None) - boards.count(None)

    @cached_property
    def waits(self) -> list[int]:
        """Wait minutes of every rider who boarded, in rider-id order."""
        boards = self._boards_and_dropoffs[0]
        return [board - arrival
                for arrival, board in zip(self.stream.minute, boards) if board is not None]

    @cached_property
    def vehicles(self) -> tuple[VehicleStats, ...]:
        """Each aircraft's legs clamped at the horizon, the rest of its day
        idle, and the state its last leg leaves it in."""
        cfg, t_end, log = self.config, self.config.t_sim, self.log
        kinds = [REVENUE if seated else REPOSITION for seated in log.seated]
        # per aircraft: revenue air, reposition air, buffer and charge minutes
        busy = [[0, 0, 0, 0] for _ in self.last_legs]
        minutes = cfg.clamped_minutes(zip(kinds, log.depart, log.arrive))
        for vid, kind, (buffer, air, charge) in zip(log.vehicle, kinds, minutes):
            row = busy[vid]
            row[kind == REPOSITION] += air
            row[2] += buffer
            row[3] += charge
        stats = []
        for leg, row in zip(self.last_legs, busy):
            idle = t_end - sum(row)
            if leg.arrive_min >= t_end:
                end = "flying" if leg.kind == REVENUE else "repositioning", None
            # the charge after its last leg reaches the horizon; an aircraft
            # that never flew is idle all day, whatever its placeholder leg says
            elif idle < t_end and leg.arrive_min + cfg.turnaround[leg.kind] >= t_end:
                end = "charging", leg.dest
            else:
                end = "idle", leg.dest
            stats.append(VehicleStats(leg.vehicle_id, *row, idle, *end))
        return tuple(stats)

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

    def __init__(self, cfg: SimConfig, riders: ArrivalStream | None = None):
        """``riders`` is the arrival stream, or ``None`` to sample
        ``generate_arrivals(cfg.rates, cfg.t_sim, cfg.seed)`` here.

        A stream sampled beforehand lets one stream serve many runs (it is
        only read); unit scenarios hand-write one with ``ArrivalStream.of``,
        often over zero rates.  Every rider must arrive in ``[0, t_sim)``,
        no earlier than the rider before it, on a feasible pair of
        ``cfg.net``; a rider that breaks this is refused with a
        ``ConfigError`` naming it.
        """
        n = cfg.net.n
        self.cfg = cfg
        self.capacity = cfg.spec.capacity
        self.buffer = cfg.spec.buffer_min
        self.turnaround = cfg.turnaround
        # integer airborne minutes per ordered pair, as Python ints: a leg
        # longer than int64 minutes stays aloft past the horizon, not wrapped
        self.air_min = [list(map(int, row)) for row in np.ceil(cfg.net.air_time).tolist()]
        # range is decided here, once: per node, the nodes with a feasible
        # leg into it, nearest first (lowest id on ties) for a summons and
        # in id order for repositioning
        near_order = np.argsort(cfg.net.dist, axis=1, kind="stable").tolist()
        into = cfg.net.feasible.T.tolist()
        self.summon_from = [[node for node in near_order[x] if into[x][node]] for x in range(n)]
        self.reposition_from = [sorted(nodes) for nodes in self.summon_from]
        # the nodes by descending origin rate: repositioning heads for the
        # first with riders waiting
        self.rate_order = np.argsort(-cfg.rates.origin_rate, kind="stable").tolist()

        if riders is None:
            riders = generate_arrivals(cfg.rates, cfg.t_sim, cfg.seed)
        self.stream = riders
        t_sim, per_minute, last = cfg.t_sim, [0] * cfg.t_sim, 0
        pairs = {(o, d) for d, nodes in enumerate(self.summon_from) for o in nodes}
        for i, (origin, dest, minute) in enumerate(zip(riders.origin, riders.dest, riders.minute)):
            # minutes rise from 0, so a minute's riders are consecutive ids
            if not (last <= minute < t_sim and (origin, dest) in pairs):
                raise ConfigError(f"stream rider {i} is {RiderRequest(i, origin, dest, minute)}; it must "
                                  f"arrive in [0, {t_sim}), no earlier than the rider before it, "
                                  f"on a feasible pair of the network")
            per_minute[minute] += 1
            last = minute
        # minute m's riders are the ids first[m] up to first[m + 1]
        self.first = [0, *accumulate(per_minute)]

        self.log = TripLog([], [], [], [], [], [], array("q"))
        # per vehicle: the index of its last leg in the log (-1 before its
        # first take-off), that leg's dest (or its start node) and its riders
        self.last_leg = [-1] * cfg.fleet
        start = cfg.start_node
        self.node = [vid % n if start is None else start for vid in range(cfg.fleet)]
        self.last_group: list[tuple[int, ...]] = [()] * cfg.fleet
        # min-heaps of idle vehicle ids; appended in id order, so already heaps
        self.idle_at: list[list[int]] = [[] for _ in range(n)]
        for vid, node in enumerate(self.node):
            self.idle_at[node].append(vid)
        self.idle_count = cfg.fleet

        # waiting rider id -> the vehicle it summoned, or None; insertion
        # order == rider id order
        self.waiting: dict[int, int | None] = {}
        # the same riders' ids, FIFO per (origin, dest) pair and counted per origin
        self.queue: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n)]
        self.waiting_at = [0] * n
        self.due: dict[int, list[int]] = {}         # minute -> vehicle ids idle again
        self.landings: dict[int, int] = {}          # each arrive_min value, one int object
        self.minute = 0

    # -- per-minute phases ------------------------------------------------

    def fire_transitions(self, minute: int) -> None:
        """Return the vehicles whose leg and turnaround end now to the ground."""
        due = self.due.pop(minute, None)
        if due is None:
            return
        node, idle_at = self.node, self.idle_at
        for vid in due:
            heappush(idle_at[node[vid]], vid)
        self.idle_count += len(due)

    def inject(self, minute: int) -> None:
        """Queue the riders who arrive this minute."""
        waiting, queue, waiting_at = self.waiting, self.queue, self.waiting_at
        origins, dests = self.stream.origin, self.stream.dest
        for rid in range(self.first[minute], self.first[minute + 1]):
            origin = origins[rid]
            waiting[rid] = None
            queue[origin][dests[rid]].append(rid)
            waiting_at[origin] += 1

    def dispatch_step(self, minute: int) -> None:
        if self.idle_count == 0:
            return  # nobody can board or be summoned this minute
        waiting, idle_at, origins = self.waiting, self.idle_at, self.stream.origin
        boarded: set[int] = set()
        # setting a rider's summons keeps the keys, so the walk stays valid
        for rid, helper in waiting.items():
            if rid in boarded:
                continue  # pooled onto an earlier boarding this pass
            origin = origins[rid]
            if idle_at[origin]:
                boarded.update(self._board(rid, origin, minute))
                continue
            # help is on its way while the helper's last leg is still a
            # reposition leg here; see the module docstring
            if helper is not None and self.node[helper] == origin and not self.last_group[helper]:
                continue
            if self.idle_count == 0:
                break  # the last idle vehicle left during this pass
            for node in self.summon_from[origin]:
                if idle_at[node]:
                    waiting[rid] = self._launch(node, REPOSITION, origin, (), minute)
                    break
        for rid in boarded:
            del waiting[rid]

    def reposition_idle(self, minute: int) -> None:
        if not self.cfg.reposition_enabled or self.idle_count == 0 or not self.waiting:
            return
        waiting_at = self.waiting_at
        target = next(x for x in self.rate_order if waiting_at[x])
        for node in self.reposition_from[target]:
            if waiting_at[node]:
                continue
            pool = self.idle_at[node]
            while pool:
                self._launch(node, REPOSITION, target, (), minute)

    # -- helpers -----------------------------------------------------------

    def _board(self, rid: int, origin: int, minute: int) -> tuple[int, ...]:
        """Fly rider ``rid`` from ``origin`` with up to ``capacity - 1``
        pair-mates; return their ids.

        The rider is at the front of its pair's queue: riders are visited in
        id order and no vehicle goes idle during a pass, so an earlier rider
        of the same pair who was not boarded found no idle vehicle here.
        """
        dest = self.stream.dest[rid]
        queue = self.queue[origin][dest]
        group = tuple(queue[:self.capacity])
        del queue[:self.capacity]
        self.waiting_at[origin] -= len(group)
        self._launch(origin, REVENUE, dest, group, minute)
        return group

    def _launch(self, origin: int, kind: str, dest: int, riders: tuple[int, ...], minute: int) -> int:
        """Fly the lowest-id idle vehicle at ``origin`` to ``dest``; return its id.

        The leg goes into the trip log, and the vehicle is due back on the
        ground when the turnaround after it ends.
        """
        vid = heappop(self.idle_at[origin])
        self.idle_count -= 1
        arrive_min = minute + self.buffer + self.air_min[origin][dest]
        arrive_min = self.landings.setdefault(arrive_min, arrive_min)
        self.due.setdefault(arrive_min + self.turnaround[kind], []).append(vid)
        log = self.log
        self.last_leg[vid] = len(log.vehicle)
        self.node[vid] = dest
        self.last_group[vid] = riders
        log.vehicle.append(vid)
        log.origin.append(origin)
        log.dest.append(dest)
        log.depart.append(minute)
        log.arrive.append(arrive_min)
        log.seated.append(len(riders))
        log.rider_ids.extend(riders)
        return vid

    # -- loop ---------------------------------------------------------------

    def step(self) -> None:
        """Advance exactly one minute; an eventless one only moves the clock.

        See the module docstring for why a minute at which no vehicle comes
        back and no rider arrives can skip all four phases.
        """
        m, first = self.minute, self.first
        if m in self.due or first[m] != first[m + 1]:
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
        minute, arrive = self.minute, self.log.arrive
        onboard = sum(len(group) for leg, group in zip(self.last_leg, self.last_group)
                      if group and arrive[leg] >= minute)
        generated, waiting = self.first[minute], len(self.waiting)
        return generated, generated - waiting - onboard, onboard, waiting

    def run(self) -> SimResult:
        """Step to the horizon and return the result, read from the engine's state."""
        while self.minute < self.cfg.t_sim:
            self.step()
        log, last_legs = self.log, []
        for vid, (leg, node, group) in enumerate(zip(self.last_leg, self.node, self.last_group)):
            if leg < 0:  # never flew: a riderless leg that landed at its start node at minute 0
                last_legs.append(TripRecord(vid, REVENUE, node, node, 0, 0, ()))
            else:
                last_legs.append(TripRecord(vid, REVENUE if group else REPOSITION, log.origin[leg],
                                            node, log.depart[leg], log.arrive[leg], group))
        return SimResult(self.cfg, self.stream, log, tuple(last_legs), len(self.waiting))


def run_simulation(cfg: SimConfig, riders: ArrivalStream | None = None) -> SimResult:
    """Execute one full run; identical configs give byte-identical results.

    ``riders`` is an arrival stream sampled beforehand, as for ``Simulation``.
    """
    return Simulation(cfg, riders).run()


def write_trips_csv(result: SimResult, path: str | Path) -> None:
    """Trip audit log in ``csv.writer``'s bytes; no field ever needs quoting.

    Each line is formatted straight from the log's lists, so no per-leg
    tuple is built; a riderless leg is a reposition leg.
    """
    log = result.log
    ids = iter(log.rider_ids)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("vehicle_id,kind,origin,dest,depart_min,arrive_min,riders\r\n")
        fh.writelines(
            f"{vid},{REVENUE},{origin},{dest},{depart},{arrive},{';'.join(map(str, islice(ids, seated)))}\r\n"
            if seated else f"{vid},{REPOSITION},{origin},{dest},{depart},{arrive},\r\n"
            for vid, origin, dest, depart, arrive, seated
            in zip(log.vehicle, log.origin, log.dest, log.depart, log.arrive, log.seated)
        )


def write_riders_csv(result: SimResult, path: str | Path) -> None:
    """Rider ledger; board/dropoff cells are blank when they never happened."""
    # csv writes None as an empty cell
    _write_csv(path, RiderOutcome._fields, result._outcome_rows())
