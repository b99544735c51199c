"""The seed's dispatch engine, kept as a differential oracle.

This is the first design of ``uamsim.simulate``, trimmed to
``run_simulation`` and what it needs.  It shares no engine code with
today's: vehicles move through a ``VehicleState`` enum with per-minute
countdowns, every pass scans a copy of the waiting riders, pooling scans
the whole queue, idle vehicles are sets searched with ``min``, every minute
runs all four phases, and nothing is booked before it happens.  It reads
the same arrival stream (``generate_arrivals``) and writes its own rider
and vehicle ledgers into a dict of ``SimResult.to_dict()``'s shape, so the
two engines can be compared without deriving either ledger through the
engine's code.
"""

from __future__ import annotations

import math
from enum import Enum

from uamsim.demand import RiderRequest, generate_arrivals
from uamsim.simulate import REPOSITION, REVENUE, SimConfig, TripRecord


class VehicleState(Enum):
    IDLE = "idle"
    FLYING = "flying"
    CHARGING = "charging"
    REPOSITIONING = "repositioning"


class _Vehicle:
    """Mutable in-sim agent; collapsed into a vehicle ledger row at the end.

    Attributes:
        location: node id when on the ground, unchanged while airborne.
        dest: target node while FLYING or REPOSITIONING.
        ready_min: minute the current activity completes.
        depart_min / buffer_len / air_len: current leg bookkeeping.
        inbound_target: node a summoned/repositioning vehicle is committed
            to until it next goes idle; keeps a waiting rider from summoning
            help twice.
    """

    __slots__ = (
        "id", "location", "state", "onboard", "dest", "ready_min", "depart_min",
        "buffer_len", "air_len", "charge_start", "idle_since", "inbound_target",
        "revenue_air_min", "reposition_air_min", "buffer_min", "charge_min", "idle_min",
    )

    def __init__(self, vid: int, location: int):
        self.id = vid
        self.location = location
        self.state = VehicleState.IDLE
        self.onboard: tuple[int, ...] = ()
        self.dest = -1
        self.ready_min = 0
        self.depart_min = 0
        self.buffer_len = 0
        self.air_len = 0
        self.charge_start = 0
        self.idle_since = 0
        self.inbound_target: int | None = None
        self.revenue_air_min = 0
        self.reposition_air_min = 0
        self.buffer_min = 0
        self.charge_min = 0
        self.idle_min = 0


class Simulation:
    """One run over a valid ``SimConfig``; construct, call :meth:`run`."""

    def __init__(self, cfg: SimConfig):
        n = cfg.net.n
        self.cfg = cfg
        self.n = n
        self.capacity = cfg.spec.capacity
        self.turnaround = cfg.spec.turnaround_min
        self.buffer = cfg.spec.buffer_min
        # integer airborne minutes per ordered pair
        self.air_min = [
            [0 if i == j else math.ceil(cfg.net.air_time[i, j]) for j in range(n)]
            for i in range(n)
        ]
        self.feasible = [[bool(cfg.net.feasible[i, j]) for j in range(n)] for i in range(n)]
        # node visit order for nearest-idle search: by distance, id breaks ties
        self.near_order = [
            sorted(range(n), key=lambda x, o=o: (cfg.net.dist[o, x], x)) for o in range(n)
        ]
        self.origin_rate = [float(r) for r in cfg.rates.origin_rate]

        self.all_riders = generate_arrivals(cfg.rates, cfg.t_sim, cfg.seed)
        self.arrivals_by_minute: list[list[RiderRequest]] = [[] for _ in range(cfg.t_sim)]
        for rider in self.all_riders:
            self.arrivals_by_minute[rider.arrival_min].append(rider)

        self.vehicles = [
            _Vehicle(vid, self._initial_node(vid)) for vid in range(cfg.fleet)
        ]
        self.idle_at: list[set[int]] = [set() for _ in range(n)]
        for v in self.vehicles:
            self.idle_at[v.location].add(v.id)
        self.idle_count = cfg.fleet

        self.waiting: dict[int, RiderRequest] = {}  # insertion order == rider id order
        self.summoned: dict[int, int] = {}          # rider id -> vehicle id flying to help
        self.due: dict[int, list[int]] = {}         # minute -> vehicle ids to transition
        self.trips: list[TripRecord] = []
        self.board_min: dict[int, int] = {}
        self.dropoff_min: dict[int, int] = {}
        self.minute = 0

    def _initial_node(self, vid: int) -> int:
        rule = self.cfg.initial_placement
        if rule == "round_robin":
            return vid % self.n
        return int(rule.split(":", 1)[1])

    # -- per-minute phases ------------------------------------------------

    def fire_transitions(self, minute: int) -> None:
        for vid in sorted(self.due.pop(minute, ())):
            v = self.vehicles[vid]
            if v.state is VehicleState.FLYING:
                for rid in v.onboard:
                    self.dropoff_min[rid] = minute
                v.revenue_air_min += v.air_len
                v.buffer_min += v.buffer_len
                v.onboard = ()
                v.location = v.dest
                self._start_charge(v, minute)
            elif v.state is VehicleState.REPOSITIONING:
                v.reposition_air_min += v.air_len
                v.buffer_min += v.buffer_len
                v.location = v.dest
                if self.cfg.charge_after_reposition:
                    self._start_charge(v, minute)
                else:
                    self._go_idle(v, minute)
            elif v.state is VehicleState.CHARGING:
                v.charge_min += self.turnaround
                self._go_idle(v, minute)

    def inject(self, minute: int) -> None:
        for rider in self.arrivals_by_minute[minute]:
            self.waiting[rider.rider_id] = rider

    def dispatch_step(self, minute: int) -> None:
        if not self.waiting:
            return
        for rider in list(self.waiting.values()):
            if rider.rider_id not in self.waiting:
                continue  # pooled onto an earlier boarding this pass
            origin = rider.origin
            if self.idle_at[origin]:
                self._board(rider, minute)
                continue
            helper = self.summoned.get(rider.rider_id)
            if helper is not None and self.vehicles[helper].inbound_target == origin:
                continue  # help already on its way
            if self.idle_count == 0:
                break  # nobody can board or be summoned this minute
            vid = self._nearest_idle(origin)
            if vid is not None:
                self._launch_reposition(self.vehicles[vid], origin, minute)
                self.summoned[rider.rider_id] = vid

    def reposition_idle(self, minute: int) -> None:
        if not self.cfg.reposition_enabled or self.idle_count == 0 or not self.waiting:
            return
        waiting_nodes = {r.origin for r in self.waiting.values()}
        target = min(waiting_nodes, key=lambda x: (-self.origin_rate[x], x))
        for node in range(self.n):
            if node in waiting_nodes or not self.idle_at[node]:
                continue
            if not self.feasible[node][target]:
                continue
            for vid in sorted(self.idle_at[node]):
                self._launch_reposition(self.vehicles[vid], target, minute)

    # -- helpers -----------------------------------------------------------

    def _go_idle(self, v: _Vehicle, minute: int) -> None:
        v.state = VehicleState.IDLE
        v.idle_since = minute
        v.inbound_target = None
        self.idle_at[v.location].add(v.id)
        self.idle_count += 1

    def _start_charge(self, v: _Vehicle, minute: int) -> None:
        v.state = VehicleState.CHARGING
        v.charge_start = minute
        v.ready_min = minute + self.turnaround
        self.due.setdefault(v.ready_min, []).append(v.id)

    def _leave_idle(self, v: _Vehicle, minute: int) -> None:
        v.idle_min += minute - v.idle_since
        self.idle_at[v.location].discard(v.id)
        self.idle_count -= 1

    def _nearest_idle(self, origin: int) -> int | None:
        """Lowest-id idle vehicle at the closest node with a feasible leg in."""
        for node in self.near_order[origin]:
            if not self.idle_at[node]:
                continue
            if node != origin and not self.feasible[node][origin]:
                continue
            return min(self.idle_at[node])
        return None

    def _board(self, rider: RiderRequest, minute: int) -> None:
        v = self.vehicles[min(self.idle_at[rider.origin])]
        group = [
            w for w in self.waiting.values()
            if w.origin == rider.origin and w.dest == rider.dest
        ][: self.capacity]
        self._leave_idle(v, minute)
        air = self.air_min[rider.origin][rider.dest]
        v.state = VehicleState.FLYING
        v.dest = rider.dest
        v.depart_min = minute
        v.buffer_len = self.buffer
        v.air_len = air
        v.ready_min = minute + self.buffer + air
        v.onboard = tuple(w.rider_id for w in group)
        self.due.setdefault(v.ready_min, []).append(v.id)
        self.trips.append(
            TripRecord(v.id, REVENUE, rider.origin, rider.dest, minute, v.ready_min, v.onboard)
        )
        for w in group:
            self.board_min[w.rider_id] = minute
            del self.waiting[w.rider_id]
            self.summoned.pop(w.rider_id, None)

    def _launch_reposition(self, v: _Vehicle, target: int, minute: int) -> None:
        self._leave_idle(v, minute)
        air = self.air_min[v.location][target]
        v.state = VehicleState.REPOSITIONING
        v.dest = target
        v.depart_min = minute
        v.buffer_len = self.buffer
        v.air_len = air
        v.ready_min = minute + self.buffer + air
        v.inbound_target = target
        self.due.setdefault(v.ready_min, []).append(v.id)
        self.trips.append(
            TripRecord(v.id, REPOSITION, v.location, target, minute, v.ready_min, ())
        )

    # -- loop ---------------------------------------------------------------

    def run(self) -> dict:
        while self.minute < self.cfg.t_sim:
            m = self.minute
            self.fire_transitions(m)
            self.inject(m)
            self.dispatch_step(m)
            self.reposition_idle(m)
            self.minute = m + 1
        return self._finalize()

    def _finalize(self) -> dict:
        """The run in ``SimResult.to_dict()``'s shape, from this engine's ledgers."""
        t_end = self.cfg.t_sim
        vehicles = []
        for v in self.vehicles:
            if v.state is VehicleState.IDLE:
                v.idle_min += t_end - v.idle_since
            elif v.state is VehicleState.CHARGING:
                v.charge_min += t_end - v.charge_start
            else:  # airborne at the horizon: buffer elapses first, then air
                elapsed = t_end - v.depart_min
                buffer_part = min(elapsed, v.buffer_len)
                air_part = elapsed - buffer_part
                v.buffer_min += buffer_part
                if v.state is VehicleState.FLYING:
                    v.revenue_air_min += air_part
                else:
                    v.reposition_air_min += air_part
            airborne = v.state in (VehicleState.FLYING, VehicleState.REPOSITIONING)
            vehicles.append([
                v.id, v.revenue_air_min, v.reposition_air_min, v.buffer_min, v.charge_min,
                v.idle_min, v.state.value, None if airborne else v.location,
            ])
        riders = [
            [r.rider_id, r.origin, r.dest, r.arrival_min,
             self.board_min.get(r.rider_id), self.dropoff_min.get(r.rider_id)]
            for r in self.all_riders
        ]
        return {
            "generated": len(self.all_riders),
            "served": len(self.dropoff_min),
            "onboard_at_end": sum(len(v.onboard) for v in self.vehicles),
            "unserved": len(self.waiting),
            "trips": [[*t[:-1], list(t.rider_ids)] for t in self.trips],
            "riders": riders,
            "vehicles": vehicles,
        }


def run_simulation(cfg: SimConfig) -> dict:
    """Execute one full run of the seed engine; the result in ``to_dict()``'s shape."""
    return Simulation(cfg).run()
