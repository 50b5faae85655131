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


def _front_first(v: Vehicle) -> tuple[float, str]:
    return -v.pos, v.vid


_BY_VID, _BY_POS = attrgetter("vid"), attrgetter("pos")
_BY_ROUTE_INDEX = attrgetter("route_index")
_NO_ROW: frozenset[Movement] = frozenset()


def _sort_front_first(lane: list[Vehicle]) -> None:
    """Sort `lane` in place by `_front_first`, through two stable sorts on
    C-level keys: by vid, then by pos descending (ties keep the vid order).
    Callers skip one-vehicle lanes, where two sorts cost more than one keyed sort."""
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
                lane = occ.get((edge, v.lane))
                if lane is None:
                    occ[edge, v.lane] = [v]
                else:
                    lane.append(v)
        for lane in occ.values():
            if len(lane) > 1:
                _sort_front_first(lane)
        return occ

    def _lane_beyond(self, v: Vehicle, node: str,
                     row_map: Mapping[str, frozenset[Movement]]) -> tuple[str, int] | None:
        """The (edge, lane) that `v` enters past `node`, its edge's end, if it
        has right of way there; None if it must stop at the line."""
        route, i, streams = v.route, v.route_index, self.net.streams
        if i + 1 >= len(route):
            return None
        nxt = route[i + 1]
        if streams[route[i], nxt] not in row_map.get(node, _NO_ROW):
            return None
        if i + 2 < len(route) and streams[nxt, route[i + 2]].turn == "L":
            return nxt, POCKET_LANE
        return nxt, THROUGH_LANE

    # -- per-step dynamics ---------------------------------------------------

    def _move(self, v: Vehicle, row_map: Mapping[str, frozenset[Movement]]) -> bool:
        """Advance `v` at its speed across edges; True once it leaves its route.

        At each edge's end `_lane_beyond` either holds `v` at the stop line or
        names the lane of its next turn on the edge it enters.
        """
        v.pos += v.speed
        edges = self.net.edges
        edge = edges[v.route[v.route_index]]
        while v.pos >= edge.length:
            if v.route_index + 1 == len(v.route):
                return True
            beyond = self._lane_beyond(v, edge.to, row_map)
            if beyond is None:
                v.pos = edge.length  # held at the stop line
                return False
            v.pos -= edge.length
            v.route_index += 1
            edge_id, v.lane = beyond
            edge = edges[edge_id]
        return False

    def step(self, row_map: dict[str, frozenset[Movement]]) -> None:
        """Advance one second under the given per-node right-of-way map.

        One walk over `occupancy()`, lane by lane in (edge, lane) order and
        front first in each lane, visits every vehicle in (edge, lane, -pos,
        vid) order, the order of its dawdle draw. Its speed accelerates, is
        capped at the speed limit and then at `krauss_safe_speed` (written
        inline) behind its leader: for a follower the vehicle before it as
        that one stood before the step; for a lane's front the stop line or,
        past it, the rearmost vehicle of the lane `_lane_beyond` names. The
        vehicle then moves, through `_move` only when it reaches its edge's
        end, and accrues waiting if it stays. `tests/krauss_oracle.py` writes
        these rules out apart from `World`; the tests hold this walk to it
        bit for bit.
        """
        p = self.params
        accel, decel, tau = p.max_accel, p.max_decel, p.reaction_time
        length, min_gap = p.vehicle_length, p.min_gap
        edges, vehicles = self.net.edges, self.vehicles
        cumulative = self.cumulative_waiting_mode
        occ = self.occupancy()
        # one call gives the doubles of one scalar draw per vehicle; without
        # dawdle nothing is drawn, and subtracting 0.0 leaves every speed as it is
        scale = p.dawdle * accel
        n = len(vehicles)
        etas = self.rng.random(n).tolist() if p.dawdle > 0 else [0.0] * n
        # each lane's rearmost vehicle as it stood before the step, for the
        # lane fronts that follow it onto its edge
        rears = {key: (lane[-1].pos, lane[-1].speed) for key, lane in occ.items()}
        # only arrivals enter an entry edge, so after the moves its lanes hold
        # the vehicles that stayed on them
        entry_lanes: dict[tuple[str, int], list[Vehicle]] = {}
        j = 0
        for key in sorted(occ):
            edge = edges[key[0]]
            end, limit, node = edge.length, edge.speed_limit, edge.to
            kept = None
            if edge.frm is None:
                kept = entry_lanes[key] = []
            front = True
            for v in occ[key]:
                sp, pos = v.speed, v.pos
                s = sp + accel
                if limit < s:
                    s = limit
                gap = None
                if not front:
                    lead_speed, gap = ahead_speed, ahead_rear - pos - min_gap
                elif end - pos <= LOOKAHEAD and node is not None:
                    beyond = self._lane_beyond(v, node, row_map)
                    if beyond is None:
                        lead_speed, gap = 0.0, end - pos
                    elif beyond in rears:
                        rear_pos, lead_speed = rears[beyond]
                        gap = end - pos + rear_pos - length - min_gap
                if gap is not None:     # `krauss_safe_speed`
                    safe = lead_speed + ((gap - lead_speed * tau)
                                         / (0.5 * (sp + lead_speed) / decel + tau))
                    if not safe > 0.0:
                        safe = 0.0
                    if safe < s:
                        s = safe
                s -= scale * etas[j]
                j += 1
                if not s > 0.0:
                    s = 0.0
                front, ahead_rear, ahead_speed = False, pos - length, sp

                v.speed = s
                if pos + s < end:
                    v.pos = pos + s
                elif self._move(v, row_map):
                    self.exited += 1
                    del vehicles[v.vid]
                    continue
                if s <= WAITING_SPEED:
                    v.waiting += 1.0
                elif not cumulative:
                    v.waiting = 0.0
                if kept is not None and v.route_index == 0:
                    kept.append(v)

        for lane in entry_lanes.values():
            if len(lane) > 1:
                _sort_front_first(lane)
        self.spawn_arrivals(entry_lanes)

    def step_overlay(self, overlay: list[Vehicle],
                     row_map: Mapping[str, frozenset[Movement]]) -> list[Vehicle]:
        """Step vehicles kept outside the world (phantoms); return those that
        left their route, in the order they moved.

        They move one after another in (route_index, -pos, vid) order, under
        `step`'s car-following rules but without dawdle, so nothing is drawn
        from `rng`. Each reads its lane as it stands when it moves: its leader
        is the vehicle before it there, real or overlay. `insort` re-places one
        that enters a new lane, passes its leader or is held level with it at
        the stop line. Real vehicles never see overlay ones, and the world
        itself is left unchanged. A vehicle reads only lanes of its own route,
        so only those are built. The tests hold it bit for bit to the rules of
        `tests/krauss_oracle.py`.
        """
        if not overlay:
            return []
        p = self.params
        accel, decel, tau = p.max_accel, p.max_decel, p.reaction_time
        length, min_gap = p.vehicle_length, p.min_gap
        edges, cumulative = self.net.edges, self.cumulative_waiting_mode
        occ = self.occupancy(overlay, {e for v in overlay for e in v.route})
        # three stable sorts on C-level keys give (route_index, -pos, vid) order
        order = sorted(overlay, key=_BY_VID)
        order.sort(key=_BY_POS, reverse=True)
        order.sort(key=_BY_ROUTE_INDEX)
        exited = []
        edge_id = lane_no = None    # a run of vehicles in one lane looks it up once
        for v in order:
            i, sp, pos = v.route_index, v.speed, v.pos
            if v.route[i] != edge_id or v.lane != lane_no:
                edge_id, lane_no = v.route[i], v.lane
                edge = edges[edge_id]
                end, limit = edge.length, edge.speed_limit
                lane = occ[edge_id, lane_no]
            k = lane.index(v)
            s = sp + accel
            if limit < s:
                s = limit
            gap = None
            if k:
                w = lane[k - 1]
                lead_speed, gap = w.speed, w.pos - length - pos - min_gap
            elif end - pos <= LOOKAHEAD and edge.to is not None:
                beyond = self._lane_beyond(v, edge.to, row_map)
                if beyond is None:
                    lead_speed, gap = 0.0, end - pos
                elif occ.get(beyond):
                    w = occ[beyond][-1]
                    lead_speed, gap = w.speed, end - pos + w.pos - length - min_gap
            if gap is not None:     # `krauss_safe_speed`
                safe = lead_speed + ((gap - lead_speed * tau)
                                     / (0.5 * (sp + lead_speed) / decel + tau))
                if not safe > 0.0:
                    safe = 0.0
                if safe < s:
                    s = safe
            if not s > 0.0:
                s = 0.0

            v.speed = s
            if pos + s < end:
                v.pos = pos + s
            elif self._move(v, row_map):
                del lane[k]
                exited.append(v)
                continue
            # a new lane, or not behind its leader: passed it, or level at the line
            if v.route_index != i or (k and not lane[k - 1].pos > v.pos):
                del lane[k]
                insort(occ.setdefault((v.route[v.route_index], v.lane), []), v,
                       key=_front_first)
            if s <= WAITING_SPEED:
                v.waiting += 1.0
            elif not cumulative:
                v.waiting = 0.0
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
