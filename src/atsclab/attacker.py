"""Slow fake-vehicle injection against the subject EB approach.

Two modes:
  * physical — fakes are inserted into the simulated world and really occupy
    the road;
  * phantom  — fakes exist only in the message plane; the attacker advances
    their kinematics itself against a merged (real + fake) position view so
    every emitted record stays physically plausible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import ConfigError
from .microsim import (FAKE, LOOKAHEAD, CarFollowingParams, Vehicle, World,
                       krauss_safe_speed, update_waiting)
from .msgplane import BsmRecord, FeatureSample
from .roadnet import Heading, Movement, RoadNetwork, Stream


class AttackMode(Enum):
    PHYSICAL = "physical"
    PHANTOM = "phantom"


@dataclass(frozen=True)
class FixedRatePolicy:
    rate_vph: float = 360.0


@dataclass(frozen=True)
class ControllerAwarePolicy:
    """Inject only when the target approach is close to winning green."""
    margin: float = 0.5          # s/veh
    max_rate_vph: float = 360.0


def injection_rate(policy: FixedRatePolicy | ControllerAwarePolicy) -> float:
    """The policy's injection rate (cap), vehicles per hour; 0 never injects."""
    if isinstance(policy, FixedRatePolicy):
        return policy.rate_vph
    return policy.max_rate_vph


@dataclass
class AttackConfig:
    start: float = 400.0                  # s, relative to analysis-window start
    target_approach: str = "EB"
    mode: AttackMode = AttackMode.PHYSICAL
    policy: FixedRatePolicy | ControllerAwarePolicy = field(
        default_factory=ControllerAwarePolicy)
    max_concurrent: int = 30
    min_headway: float = 10.0             # s between injections
    initial_speed_factor: float = 0.8     # fraction of the entry edge limit

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigError("attack start must be non-negative")
        if self.max_concurrent < 1 or self.min_headway <= 0:
            raise ConfigError("bad attack caps")
        if injection_rate(self.policy) < 0:
            raise ConfigError("injection rate must be non-negative")
        if getattr(self.policy, "margin", 0.0) < 0:
            raise ConfigError("margin must be non-negative")


@dataclass(frozen=True)
class AttackEvent:
    t: float
    fake_id: str
    action: str        # "inject" | "despawn"
    mode: str
    policy_state: str


@dataclass
class _MergedVehicle:
    """Minimal kinematic view of one vehicle on the target corridor."""
    vid: str
    edge_id: str
    pos: float
    speed: float
    length: float


def can_insert(entry_edge_len: float, merged: list[_MergedVehicle],
               initial_speed: float, params: CarFollowingParams) -> bool:
    """True iff the entry cell is clear and the insertion speed is safe.

    `merged` holds every (real or fake) vehicle on the injection edge/lane.
    """
    cell = params.vehicle_length + params.min_gap
    nearest = None
    for w in merged:
        if w.pos - w.length < cell:
            return False
        if nearest is None or w.pos < nearest.pos:
            nearest = w
    if nearest is not None:
        gap = nearest.pos - nearest.length - params.min_gap
        if krauss_safe_speed(initial_speed, nearest.speed, gap, params) < initial_speed:
            return False
    return True


def injection_warranted(policy: FixedRatePolicy | ControllerAwarePolicy,
                        target_aawt: float, best_other_aawt: float) -> bool:
    """Policy predicate, given the attacker's eavesdropped AAWT view."""
    if isinstance(policy, FixedRatePolicy):
        return True
    return target_aawt >= best_other_aawt - policy.margin


class SlowPoisoningAttacker:
    """Per-second callback between the simulation step and feature sampling."""

    def __init__(self, cfg: AttackConfig, net: RoadNetwork,
                 params: CarFollowingParams, start_offset: float = 0.0) -> None:
        if cfg.target_approach != "EB":
            raise ConfigError("only the subject EB approach is supported as a target")
        self.cfg = cfg
        self.net = net
        self.params = params
        self.start_abs = start_offset + cfg.start
        approach = net.approach(net.subject_node, Heading.EAST)
        self.entry_edge = approach.first_edge
        # straight through the subject, despawn one edge downstream
        conns = net.connections_from(self.entry_edge)
        through = next(c for c in conns
                       if isinstance(c.stream, Movement) and c.stream.is_through)
        self.route = [self.entry_edge, through.out_edge]
        self.target_movements = (Movement.EBL, Movement.EBT)
        self.last_injection: float | None = None
        self.phantoms: list[Vehicle] = []
        self._phantom_seq = 0
        self.events: list[AttackEvent] = []
        self._live_physical: set[str] = set()

    # -- shared decision logic ----------------------------------------------

    def _headway(self) -> float:
        rate = injection_rate(self.cfg.policy)
        return max(self.cfg.min_headway, 3600.0 / rate) if rate > 0 else float("inf")

    def _wants_injection(self, t: float, sample: FeatureSample | None,
                         n_active: int) -> tuple[bool, str]:
        if t < self.start_abs:
            return False, "pre-start"
        if n_active >= self.cfg.max_concurrent:
            return False, "at-cap"
        headway = self._headway()     # infinite at a zero rate: never inject
        if headway == float("inf") or (self.last_injection is not None
                                       and t - self.last_injection < headway):
            return False, "headway"
        if sample is None:
            return False, "no-telemetry"
        aawt = sample.movement_aawt()
        target = max(aawt[m] for m in self.target_movements)
        others = [aawt[m] for m in aawt if m not in self.target_movements]
        if not injection_warranted(self.cfg.policy, target, max(others)):
            return False, "dilution-unneeded"
        return True, "inject"

    def _initial_speed(self) -> float:
        return self.cfg.initial_speed_factor * self.net.edges[self.entry_edge].speed_limit

    # -- physical mode -------------------------------------------------------

    def on_second_physical(self, t: float, world: World,
                           sample: FeatureSample | None) -> None:
        gone = self._live_physical - set(world.vehicles)
        for vid in sorted(gone):
            self._live_physical.discard(vid)
            self.events.append(AttackEvent(t, vid, "despawn", "physical", "exited"))
        ok, state = self._wants_injection(t, sample, len(self._live_physical))
        if ok:
            merged = [_MergedVehicle(v.vid, v.edge_id, v.pos, v.speed, v.length)
                      for v in world.vehicles.values()
                      if v.edge_id == self.entry_edge and v.lane == 0]
            if can_insert(self.net.edges[self.entry_edge].length, merged,
                          self._initial_speed(), self.params):
                v = world.inject_vehicle(list(self.route), self._initial_speed())
                self._live_physical.add(v.vid)
                self.last_injection = t
                self.events.append(AttackEvent(t, v.vid, "inject", "physical", state))

    # -- phantom mode --------------------------------------------------------

    def on_second_phantom(self, t: float, world: World,
                          sample: FeatureSample | None,
                          row_map: Mapping[str, frozenset[Stream]]) -> None:
        self.advance_fakes(world, row_map)
        for v in [p for p in self.phantoms if p.route_index >= len(p.route)]:
            self.phantoms.remove(v)
            self.events.append(AttackEvent(t, v.vid, "despawn", "phantom", "exited"))
        ok, state = self._wants_injection(t, sample, len(self.phantoms))
        if ok:
            merged = self._merged_view(world, self.entry_edge)
            if can_insert(self.net.edges[self.entry_edge].length, merged,
                          self._initial_speed(), self.params):
                self._phantom_seq += 1
                v = Vehicle(vid=f"x{self._phantom_seq:05d}", provenance=FAKE,
                            route=list(self.route), route_index=0, lane=0,
                            pos=0.0, speed=self._initial_speed(), entry_time=t,
                            length=self.params.vehicle_length,
                            min_gap=self.params.min_gap)
                self.phantoms.append(v)
                self.last_injection = t
                self.events.append(AttackEvent(t, v.vid, "inject", "phantom", state))

    def _merged_view(self, world: World, edge: str) -> list[_MergedVehicle]:
        view = [_MergedVehicle(v.vid, v.edge_id, v.pos, v.speed, v.length)
                for v in world.vehicles.values()
                if v.edge_id == edge and v.lane == 0]
        view += [_MergedVehicle(p.vid, p.edge_id, p.pos, p.speed, p.length)
                 for p in self.phantoms
                 if p.route_index < len(p.route) and p.edge_id == edge]
        return view

    def advance_fakes(self, world: World,
                      row_map: Mapping[str, frozenset[Stream]]) -> None:
        """Krauss update of phantom fakes against the merged position view.

        Dawdle-free so that every emitted trajectory stays tightly within the
        car-following feasibility bounds.
        """
        p = self.params
        dt = world.dt
        active = [v for v in self.phantoms if v.route_index < len(v.route)]
        active.sort(key=lambda v: (v.route_index, -v.pos, v.vid))
        for v in active:
            edge = self.net.edges[v.edge_id]
            v_next = min(v.speed + p.max_accel * dt, edge.speed_limit)
            lead = self._leader(v, world, row_map)
            if lead is not None:
                v_next = min(v_next, krauss_safe_speed(v.speed, lead[0], lead[1], p))
            v.speed = max(0.0, v_next)
            v.pos += v.speed * dt
            while v.route_index < len(v.route) and v.pos >= edge.length:
                node = edge.to
                if node is not None and self.net.nodes[node].signalized:
                    stream = self.net.stream_of(v.edge_id, v.route[v.route_index + 1]) \
                        if v.route_index + 1 < len(v.route) else None
                    if stream is not None and stream not in row_map.get(node, frozenset()):
                        v.pos = edge.length
                        break
                v.pos -= edge.length
                v.route_index += 1
                if v.route_index < len(v.route):
                    edge = self.net.edges[v.edge_id]
            if v.route_index < len(v.route):
                update_waiting(v, dt)

    def _leader(self, v: Vehicle, world: World,
                row_map: Mapping[str, frozenset[Stream]]) -> tuple[float, float] | None:
        merged = self._merged_view(world, v.edge_id)
        ahead = [w for w in merged
                 if w.vid != v.vid and (w.pos > v.pos or (w.pos == v.pos and w.vid < v.vid))]
        if ahead:
            w = min(ahead, key=lambda w: w.pos)
            return w.speed, w.pos - w.length - v.pos - v.min_gap
        edge = self.net.edges[v.edge_id]
        dist_end = edge.length - v.pos
        if dist_end > LOOKAHEAD or edge.to is None:
            return None
        nxt = v.route[v.route_index + 1] if v.route_index + 1 < len(v.route) else None
        if nxt is None:
            return 0.0, dist_end
        stream = self.net.stream_of(v.edge_id, nxt)
        if self.net.nodes[edge.to].signalized and stream not in row_map.get(edge.to, frozenset()):
            return 0.0, dist_end
        downstream = self._merged_view(world, nxt)
        if downstream:
            w = min(downstream, key=lambda w: w.pos)
            return w.speed, dist_end + w.pos - w.length - v.min_gap
        return None

    def fake_bsms(self, t: float) -> list[BsmRecord]:
        """Phantom fakes' broadcasts for the current second."""
        out = []
        for v in self.phantoms:
            if v.route_index >= len(v.route):
                continue
            out.append(BsmRecord(t=t, vehicle_id=v.vid, edge_id=v.edge_id,
                                 lane_pos=v.pos, speed=v.speed, waiting=v.waiting,
                                 next_edge=v.next_edge_id or ""))
        return out
