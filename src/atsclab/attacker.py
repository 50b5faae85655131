"""Slow fake-vehicle injection against the subject EB approach.

Two modes:
  * physical — fakes are inserted into the simulated world and really occupy
    the road;
  * phantom  — fakes exist only in the message plane. `World.step_overlay`
    steps them with the world's own car-following code, without dawdle, so
    every emitted record stays physically plausible: they see real vehicles
    as leaders, and real vehicles never see them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Mapping

from .atsc import movement_aawt
from .errors import ConfigError, bounded, check_ranges
from .microsim import (FAKE, THROUGH_LANE, CarFollowingParams, Vehicle, World,
                       entry_cell_clear, entry_speed)
from .msgplane import BsmRecord, FeatureSample, emit_bsm
from .roadnet import Heading, Movement, RoadNetwork


class AttackMode(Enum):
    PHYSICAL = "physical"
    PHANTOM = "phantom"


@dataclass(frozen=True)
class FixedRatePolicy:
    kind: ClassVar[str] = "fixed_rate"      # the JSON `kind`; not a field
    rate_vph: float = bounded(360.0, at_least=0)

    def __post_init__(self) -> None:
        check_ranges(self)

    def rate_cap(self) -> float:
        """Injections per hour at most; 0 never injects."""
        return self.rate_vph

    def warrants(self, target_aawt: float, best_other_aawt: float) -> bool:
        """Whether to inject, given the attacker's eavesdropped AAWT view."""
        return True


@dataclass(frozen=True)
class ControllerAwarePolicy:
    """Inject only when the target approach is close to winning green."""
    kind: ClassVar[str] = "controller_aware"
    margin: float = bounded(0.5, at_least=0)           # s/veh
    max_rate_vph: float = bounded(360.0, at_least=0)

    def __post_init__(self) -> None:
        check_ranges(self)

    def rate_cap(self) -> float:
        return self.max_rate_vph

    def warrants(self, target_aawt: float, best_other_aawt: float) -> bool:
        return target_aawt >= best_other_aawt - self.margin


@dataclass(frozen=True)
class AttackConfig:
    start: float = bounded(400.0, at_least=0)    # s, relative to analysis-window start
    target_approach: str = "EB"
    mode: AttackMode = AttackMode.PHYSICAL
    policy: FixedRatePolicy | ControllerAwarePolicy = field(
        default_factory=ControllerAwarePolicy)
    max_concurrent: int = bounded(30, at_least=1)
    min_headway: float = bounded(10.0, above=0)  # s between injections
    # fraction of the entry edge limit: 0 enters at rest, 1 at the speed limit
    initial_speed_factor: float = bounded(0.8, at_least=0, at_most=1)

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.target_approach != "EB":
            raise ConfigError("only the subject EB approach is supported as a target")


@dataclass(frozen=True)
class AttackEvent:
    t: float
    fake_id: str
    action: str        # "inject" | "despawn"
    mode: str
    policy_state: str


def can_insert(lane: list[Vehicle], initial_speed: float,
               params: CarFollowingParams) -> bool:
    """True iff the entry cell is clear and the insertion speed is safe.

    `lane` holds every (real or fake) vehicle on the injection edge and lane,
    front first, as `World.occupancy` lists them.
    """
    return (entry_cell_clear(lane, params)
            and entry_speed(lane, initial_speed, params) == initial_speed)


class SlowPoisoningAttacker:
    """Per-second callback between the simulation step and feature sampling."""

    def __init__(self, cfg: AttackConfig, net: RoadNetwork,
                 params: CarFollowingParams, start_offset: float = 0.0) -> None:
        self.cfg = cfg
        self.net = net
        self.params = params
        self.start_abs = start_offset + cfg.start
        self.entry_edge = net.approach_edge(net.subject_node, Heading.EAST)
        # straight through the subject, despawn one edge downstream
        conns = net.connections_from(self.entry_edge)
        through = next(c for c in conns if c.stream.turn == "T")
        self.route = [self.entry_edge, through.out_edge]
        self.last_injection: float | None = None
        self.phantoms: list[Vehicle] = []
        self._phantom_seq = 0
        self.events: list[AttackEvent] = []
        self._live_physical: set[str] = set()

    # -- shared decision logic ----------------------------------------------

    def _headway(self) -> float:
        rate = self.cfg.policy.rate_cap()
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
        # EBL and EBT, the target approach's movements, lead MOVEMENT_ORDER
        aawt = movement_aawt(sample.movement_counts, sample.movement_awt)
        if not self.cfg.policy.warrants(max(aawt[:2]), max(aawt[2:])):
            return False, "dilution-unneeded"
        return True, "inject"

    def _initial_speed(self) -> float:
        return self.cfg.initial_speed_factor * self.net.edges[self.entry_edge].speed_limit

    def _entry_clear(self, world: World) -> bool:
        """Whether a fake may enter now, given real vehicles and phantoms
        (there are none in physical mode, where fakes are in the world)."""
        lane = world.occupancy(self.phantoms, {self.entry_edge}).get(
            (self.entry_edge, THROUGH_LANE), [])
        return can_insert(lane, self._initial_speed(), self.params)

    # -- physical mode -------------------------------------------------------

    def on_second_physical(self, t: float, world: World,
                           sample: FeatureSample | None) -> None:
        gone = self._live_physical - set(world.vehicles)
        for vid in sorted(gone):
            self._live_physical.discard(vid)
            self.events.append(AttackEvent(t, vid, "despawn", "physical", "exited"))
        ok, state = self._wants_injection(t, sample, len(self._live_physical))
        if ok and self._entry_clear(world):
            v = world.inject_vehicle(list(self.route), self._initial_speed())
            self._live_physical.add(v.vid)
            self.last_injection = t
            self.events.append(AttackEvent(t, v.vid, "inject", "physical", state))

    # -- phantom mode --------------------------------------------------------

    def on_second_phantom(self, t: float, world: World,
                          sample: FeatureSample | None,
                          row_map: Mapping[str, frozenset[Movement]]) -> None:
        # `step_overlay` walks them in its own order; they stay in injection order
        gone = world.step_overlay(self.phantoms, row_map)
        if gone:
            self.events += [AttackEvent(t, v.vid, "despawn", "phantom", "exited")
                            for v in self.phantoms if v in gone]
            self.phantoms = [v for v in self.phantoms if v not in gone]
        ok, state = self._wants_injection(t, sample, len(self.phantoms))
        if ok and self._entry_clear(world):
            self._phantom_seq += 1
            v = Vehicle(vid=f"x{self._phantom_seq:05d}", provenance=FAKE,
                        route=list(self.route), route_index=0, lane=THROUGH_LANE,
                        pos=0.0, speed=self._initial_speed())
            self.phantoms.append(v)
            self.last_injection = t
            self.events.append(AttackEvent(t, v.vid, "inject", "phantom", state))

    def fake_bsms(self, t: float) -> list[BsmRecord]:
        """Phantom fakes' broadcasts for the current second."""
        return [emit_bsm(v, t) for v in self.phantoms]
