"""Deterministic 1 s-step microscopic simulation with Krauss car following.

Single through lane per approach plus a left-turn pocket lane; lane choice is
fixed at edge entry from the vehicle's next turn, so there is no mid-edge lane
changing. Red/yellow signals act as a stationary virtual leader at the stop line.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, bounded, check_ranges
from .roadnet import Movement, RoadNetwork

WAITING_SPEED = 0.1     # m/s; at or below this a vehicle accrues waiting time
LOOKAHEAD = 100.0       # m; leader search horizon past the current position
THROUGH_LANE = 0
POCKET_LANE = 1

REAL = "real"
FAKE = "fake"


@dataclass(frozen=True)
class TurnSplit:
    """Shares of the turn a vehicle takes at each intersection it reaches."""
    through: float = bounded(0.70, at_least=0)
    left: float = bounded(0.15, at_least=0)
    right: float = bounded(0.15, at_least=0)

    def __post_init__(self) -> None:
        check_ranges(self)
        if abs(self.through + self.left + self.right - 1.0) > 1e-9:
            raise ConfigError("turn split needs through/left/right shares summing to 1")


@dataclass(frozen=True)
class CarFollowingParams:
    max_accel: float = bounded(2.6, above=0)        # m/s^2
    max_decel: float = bounded(4.5, above=0)        # m/s^2
    reaction_time: float = bounded(1.0, above=0)    # s
    dawdle: float = bounded(0.5, at_least=0, at_most=1)
    vehicle_length: float = bounded(5.0, above=0)   # m
    min_gap: float = bounded(2.5, at_least=0)       # m

    def __post_init__(self) -> None:
        check_ranges(self)


def krauss_safe_speed(v_follower: float, v_leader: float, gap: float,
                      params: CarFollowingParams) -> float:
    """Maximum speed that still lets the follower stop behind the leader.

    `gap` is the available headway (already net of any minimum gap the caller
    wants to preserve). Clamped to >= 0.
    """
    v_bar = 0.5 * (v_follower + v_leader)
    tau = params.reaction_time
    v_safe = v_leader + (gap - v_leader * tau) / (v_bar / params.max_decel + tau)
    return max(0.0, v_safe)


@dataclass(eq=False)  # an entity: equal only to itself
class Vehicle:
    vid: str
    provenance: str               # REAL or FAKE; immutable by convention
    route: list[str]              # ordered edge ids
    route_index: int
    lane: int
    pos: float                    # front-bumper longitudinal position, m
    speed: float
    waiting: float = 0.0          # resetting waiting timer, s

    @property
    def edge_id(self) -> str:
        return self.route[self.route_index]

    @property
    def next_edge_id(self) -> str | None:
        if self.route_index + 1 < len(self.route):
            return self.route[self.route_index + 1]
        return None


def _front_first(v: Vehicle) -> tuple[float, str]:
    return -v.pos, v.vid


_BY_VID, _BY_POS = attrgetter("vid"), attrgetter("pos")


def _sort_front_first(lane: list[Vehicle]) -> None:
    """Sort `lane` in place by `_front_first`, through two stable sorts on
    C-level keys: by vid, then by pos descending (ties keep the vid order)."""
    if len(lane) > 1:
        lane.sort(key=_BY_VID)
        lane.sort(key=_BY_POS, reverse=True)


def entry_cell_clear(lane: Sequence[Vehicle], params: CarFollowingParams) -> bool:
    """True iff no vehicle in `lane` has its rear within one cell (vehicle
    length plus minimum gap) of the edge start."""
    cell = params.vehicle_length + params.min_gap
    return all(w.pos - params.vehicle_length >= cell for w in lane)


def entry_speed(lane: Sequence[Vehicle], speed: float,
                params: CarFollowingParams) -> float:
    """`speed` capped so that a vehicle entering `lane` (front first) can still
    stop behind its rearmost vehicle."""
    if not lane:
        return speed
    w = lane[-1]
    gap = w.pos - params.vehicle_length - params.min_gap
    return min(speed, krauss_safe_speed(speed, w.speed, gap, params))


def update_waiting(vehicle: Vehicle, cumulative_mode: bool = False) -> None:
    """Accrue 1 s of waiting at speeds <= 0.1 m/s (inclusive); reset on movement.

    With `cumulative_mode` the per-vehicle timer never resets.
    """
    if vehicle.speed <= WAITING_SPEED:
        vehicle.waiting += 1.0
    elif not cumulative_mode:
        vehicle.waiting = 0.0


class World:
    """Mutable simulation state; `step` advances one second. Demand comes
    checked by `ScenarioConfig`; a `turn_split` of None is `TurnSplit()`."""

    def __init__(self, net: RoadNetwork, params: CarFollowingParams,
                 demand_vph: float, turn_split: TurnSplit | None,
                 seed: int, cumulative_waiting_mode: bool = False) -> None:
        self.net = net
        self.params = params
        self.demand_vph = demand_vph
        split = turn_split or TurnSplit()
        # `Generator.choice`'s cumulative split: bisecting it draws choice's turns
        cdf = np.array([split.through, split.left, split.right], dtype=float).cumsum()
        cdf /= cdf[-1]
        self._turn_cdf = cdf.tolist()
        self.cumulative_waiting_mode = cumulative_waiting_mode
        self.rng = np.random.default_rng(seed)
        self.vehicles: dict[str, Vehicle] = {}
        self.deferred: dict[str, deque[list[str]]] = {e: deque() for e in net.entries}
        self.entered = 0
        self.exited = 0
        self._next_id = 0

    # -- helpers -------------------------------------------------------------

    def _new_id(self, provenance: str) -> str:
        self._next_id += 1
        return f"{provenance[0]}{self._next_id:05d}"

    def lane_for(self, vehicle_edge: str, next_edge: str | None) -> int:
        """Lane taken on `vehicle_edge`: the pocket for a left turn."""
        if next_edge is not None and self.net.stream_of(vehicle_edge, next_edge).turn == "L":
            return POCKET_LANE
        return THROUGH_LANE

    def occupancy(self, overlay: Iterable[Vehicle] = (),
                  edges: Container[str] | None = None
                  ) -> dict[tuple[str, int], list[Vehicle]]:
        """Vehicles per (edge, lane), front first: largest pos, then smallest vid.

        `overlay` vehicles (phantoms) are listed beside the world's own. With
        `edges`, only the lanes of those edges are built.
        """
        occ: dict[tuple[str, int], list[Vehicle]] = {}
        for v in chain(self.vehicles.values(), overlay):
            edge = v.route[v.route_index]   # `edge_id`, without a property call
            if edges is None or edge in edges:
                occ.setdefault((edge, v.lane), []).append(v)
        for vs in occ.values():
            _sort_front_first(vs)
        return occ

    def stream_at_node(self, vehicle: Vehicle) -> Movement | None:
        nxt = vehicle.next_edge_id
        if nxt is None:
            return None
        return self.net.stream_of(vehicle.edge_id, nxt)

    def leader_of(self, vehicle: Vehicle, ahead: Vehicle | None,
                  occ: dict[tuple[str, int], list[Vehicle]],
                  row_map: Mapping[str, frozenset[Movement]]) -> tuple[float, float] | None:
        """(leader speed, net gap) for the nearest constraint ahead, or None.

        `ahead` is the vehicle just before `vehicle` in its lane, or None when
        it leads the lane; only a lane's front vehicle looks past it, at the
        stop line and at the next edge's lane in `occ`. Net gap is
        bumper-to-bumper minus the follower's minimum gap for physical
        leaders; for a signal stop it is the distance to the stop line.
        """
        if ahead is not None:
            gap = ahead.pos - self.params.vehicle_length - vehicle.pos - self.params.min_gap
            return ahead.speed, gap

        edge = self.net.edges[vehicle.edge_id]
        dist_end = edge.length - vehicle.pos
        if dist_end > LOOKAHEAD:
            return None
        node = edge.to
        if node is None:
            return None  # free run off the exit edge
        stream = self.stream_at_node(vehicle)
        if stream is None:
            return 0.0, dist_end
        if stream not in row_map.get(node, frozenset()):
            return 0.0, dist_end  # stationary virtual leader at the stop line
        nxt = vehicle.next_edge_id
        after = vehicle.route[vehicle.route_index + 2:vehicle.route_index + 3]
        nxt_lane = self.lane_for(nxt, after[0] if after else None)
        downstream = occ.get((nxt, nxt_lane), ())
        if downstream:
            w = downstream[-1]  # nearest to that edge's start
            gap = dist_end + w.pos - self.params.vehicle_length - self.params.min_gap
            return w.speed, gap
        return None

    # -- per-step dynamics ---------------------------------------------------

    def _next_speed(self, v: Vehicle, limit: float, ahead: Vehicle | None,
                    occ: dict[tuple[str, int], list[Vehicle]],
                    row_map: Mapping[str, frozenset[Movement]]) -> float:
        """Speed for the coming step before dawdle: accelerate, cap at the
        lane's speed `limit`, then at the Krauss safe speed behind the
        leader (`leader_of`)."""
        p = self.params
        v_next = min(v.speed + p.max_accel, limit)
        lead = self.leader_of(v, ahead, occ, row_map)
        if lead is not None:
            v_next = min(v_next, krauss_safe_speed(v.speed, lead[0], lead[1], p))
        return v_next

    def _move(self, v: Vehicle, row_map: Mapping[str, frozenset[Movement]]) -> bool:
        """Advance `v` at its speed across edges; True once it leaves its route.

        A vehicle without right of way is held at the stop line; one that
        enters a new edge takes the lane of its next turn there.
        """
        v.pos += v.speed
        edge = self.net.edges[v.route[v.route_index]]   # `edge_id`, without a property call
        while v.pos >= edge.length:
            if v.next_edge_id is None:
                return True
            if self.stream_at_node(v) not in row_map.get(edge.to, frozenset()):
                v.pos = edge.length  # held at the stop line
                return False
            v.pos -= edge.length
            v.route_index += 1
            v.lane = self.lane_for(v.edge_id, v.next_edge_id)
            edge = self.net.edges[v.edge_id]
        return False

    def step(self, row_map: dict[str, frozenset[Movement]]) -> None:
        """Advance one second under the given per-node right-of-way map."""
        p = self.params
        accel, length, min_gap = p.max_accel, p.vehicle_length, p.min_gap
        edges = self.net.edges
        occ = self.occupancy()
        # (edge, lane, -pos, vid) order: the dawdle draws follow it, and
        # each vehicle's leader is the one before it in its lane
        order: list[Vehicle] = []
        new_speed: list[float] = []
        for key in sorted(occ):
            lane = occ[key]
            limit = edges[key[0]].speed_limit
            ahead = lane[0]
            new_speed.append(self._next_speed(ahead, limit, None, occ, row_map))
            for v in lane[1:]:
                # `_next_speed` with `ahead` as the leader: only a lane's
                # front looks past it
                gap = ahead.pos - length - v.pos - min_gap
                new_speed.append(min(v.speed + accel, limit,
                                     krauss_safe_speed(v.speed, ahead.speed, gap, p)))
                ahead = v
            order += lane
        if p.dawdle > 0:
            # one call gives the same doubles as one scalar draw per vehicle
            scale = p.dawdle * accel
            etas = self.rng.random(len(order)).tolist()
            new_speed = [s - scale * eta for s, eta in zip(new_speed, etas)]

        # waiting accrues for each vehicle that stays: they are the world's
        # vehicles after the step
        cumulative = self.cumulative_waiting_mode
        for v, speed in zip(order, new_speed):
            v.speed = max(0.0, speed)
            if self._move(v, row_map):
                self.exited += 1
                del self.vehicles[v.vid]
            else:
                update_waiting(v, cumulative)

        # only arrivals enter an entry edge, so its lanes now hold what they
        # held at the start of the step, less the vehicles that left them
        entry_lanes = {key: [v for v in lane if v.route_index == 0 and v.vid in self.vehicles]
                       for key, lane in occ.items() if edges[key[0]].frm is None}
        for lane in entry_lanes.values():
            _sort_front_first(lane)
        self.spawn_arrivals(entry_lanes)

    def step_overlay(self, overlay: list[Vehicle],
                     row_map: Mapping[str, frozenset[Movement]]) -> list[Vehicle]:
        """Step vehicles kept outside the world (phantoms); return those that
        left their route.

        They move one after another in the given order under the same
        car-following rules as real vehicles, without dawdle, so nothing is
        drawn from `rng`. Their leaders may be real or overlay vehicles; real
        vehicles never see them, and the world itself is left unchanged. A
        vehicle reads only lanes of its own route, so only those are built.
        """
        occ = self.occupancy(overlay, {e for v in overlay for e in v.route})
        exited = []
        for v in overlay:
            # the lanes change as overlay vehicles move: find the leader by index
            lane = occ[(v.edge_id, v.lane)]
            i = lane.index(v)
            limit = self.net.edges[v.edge_id].speed_limit
            v.speed = max(0.0, self._next_speed(v, limit, lane[i - 1] if i else None,
                                                occ, row_map))
            del lane[i]
            if self._move(v, row_map):
                exited.append(v)
                continue
            # re-placed even on the same edge: real vehicles ignore overlay
            # ones, so an overlay vehicle can pass a real one within a step
            insort(occ.setdefault((v.edge_id, v.lane), []), v, key=_front_first)
            update_waiting(v, self.cumulative_waiting_mode)
        return exited

    # -- demand --------------------------------------------------------------

    def sample_route(self, entry: str) -> list[str]:
        """Random route from an entry edge to a peripheral exit via the turn split."""
        route = [entry]
        turns = ("T", "L", "R")     # in `_turn_cdf` order
        while self.net.edges[route[-1]].to is not None:
            conns = self.net.connections_from(route[-1])
            choice = turns[bisect_right(self._turn_cdf, self.rng.random())]
            for c in conns:
                if c.stream.turn == choice:
                    route.append(c.out_edge)
                    break
        return route

    def _entry_lane(self, route: list[str]) -> tuple[str, int]:
        return route[0], self.lane_for(route[0], route[1] if len(route) > 1 else None)

    def _insert(self, route: list[str], speed: float,
                occ: dict[tuple[str, int], list[Vehicle]],
                provenance: str = REAL) -> Vehicle:
        """Place a vehicle at the start of its route, at `speed` capped to
        stop behind the rearmost vehicle of its lane in `occ`."""
        entry, lane = self._entry_lane(route)
        queue = occ.setdefault((entry, lane), [])
        v = Vehicle(vid=self._new_id(provenance), provenance=provenance,
                    route=route, route_index=0, lane=lane, pos=0.0,
                    speed=entry_speed(queue, speed, self.params))
        self.vehicles[v.vid] = v
        insort(queue, v, key=_front_first)
        self.entered += 1
        return v

    def spawn_arrivals(self, lanes: dict[tuple[str, int], list[Vehicle]]) -> None:
        """Bernoulli arrivals per entry; blocked insertions are deferred, never dropped.

        `lanes` holds the vehicles on each occupied entry lane, front first
        as `occupancy` lists them; inserted vehicles are added to it.
        """
        lam = self.demand_vph / 3600.0
        p = self.params
        for entry in self.net.entries:
            limit = self.net.edges[entry].speed_limit
            q = self.deferred[entry]
            if q and entry_cell_clear(lanes.get(self._entry_lane(q[0]), ()), p):
                self._insert(q.popleft(), limit, lanes)
            if lam > 0 and self.rng.random() < lam:
                route = self.sample_route(entry)
                if not q and entry_cell_clear(lanes.get(self._entry_lane(route), ()), p):
                    self._insert(route, limit, lanes)
                else:
                    q.append(route)

    # -- attacker-facing -----------------------------------------------------

    def inject_vehicle(self, route: list[str], speed: float) -> Vehicle:
        """Place a fake vehicle at the start of `route[0]` (physical attack
        mode) at `speed`, uncapped: the attacker has checked the entry."""
        return self._insert(route, speed, {}, FAKE)
