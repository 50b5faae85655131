"""Waiting-time-based adaptive signal controller.

Green is granted to the movement with the maximum per-vehicle average waiting
time, re-evaluated every 5 s from the start of green. A warranted change runs
yellow for exactly 2 s and all-red for exactly 1 s; when the incumbent movement
still holds the maximum, the change interval is skipped and green continues.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

from .errors import DataError
from .roadnet import MOVEMENT_ORDER, Movement

YELLOW_DURATION = 2.0
ALL_RED_DURATION = 1.0
CHECKPOINT_INTERVAL = 5.0


class PhaseKind(Enum):
    GREEN = "green"
    YELLOW = "yellow"
    ALL_RED = "all_red"


def compute_aawt(awt_sum: float, count: int) -> float:
    """Average waiting time per vehicle; zero for an empty movement."""
    return awt_sum / count if count > 0 else 0.0


def _per_movement(v: list) -> tuple:
    """Per signal movement in MOVEMENT_ORDER from 12 slots; right-turners ride
    with their through movement (summed T + R)."""
    return (v[0], v[1] + v[2], v[3], v[4] + v[5],
            v[6], v[7] + v[8], v[9], v[10] + v[11])


def movement_aawt(counts: tuple[int, ...],
                  awt: tuple[float, ...]) -> tuple[float, ...]:
    """Each movement's AAWT from 8-tuples, all in MOVEMENT_ORDER."""
    # via a list: a tuple built from a generator is resized (+1 MB peak RSS)
    return tuple([compute_aawt(w, n) for n, w in zip(counts, awt)])


def select_green(aawt: Sequence[float], current: Movement | None = None) -> Movement:
    """Argmax over the eight movements, given their AAWT in MOVEMENT_ORDER.

    Ties go to the incumbent green if it is among the maxima, else to the
    first movement in the fixed order.
    """
    best = max(aawt)
    if current is not None and aawt[MOVEMENT_ORDER.index(current)] == best:
        return current
    return MOVEMENT_ORDER[aawt.index(best)]


# the streams each signalized movement's green releases
_RELEASED = {m: frozenset(s for s in Movement if s.phase is m) for m in MOVEMENT_ORDER}


def right_of_way(kind: PhaseKind, movement: Movement | None) -> frozenset[Movement]:
    if kind is not PhaseKind.GREEN or movement is None:
        return frozenset()
    return _RELEASED[movement]


class SignalController:
    """One controller per signalized node; tick exactly once per second with its
    node's 12 stream slots, folded into per-movement AAWT only to choose a green."""

    def __init__(self, node: str) -> None:
        self.node = node
        self.kind = PhaseKind.ALL_RED
        self.movement: Movement | None = None   # green, or the green a change interval ends
        self.phase_entry = 0.0
        self.next_checkpoint: float | None = None
        self._last_tick: float | None = None

    def tick(self, counts: list[int], awt: list[float], t: float) -> frozenset[Movement]:
        if self._last_tick is not None and t <= self._last_tick:
            raise DataError(f"controller {self.node}: non-monotonic tick at t={t}")
        self._last_tick = t

        if self.kind is PhaseKind.YELLOW:
            if t - self.phase_entry >= YELLOW_DURATION:
                self.kind = PhaseKind.ALL_RED
                self.phase_entry = t
        elif self.kind is PhaseKind.ALL_RED:
            if t - self.phase_entry >= ALL_RED_DURATION:
                # winner re-evaluated at green onset, from the latest sample
                self.kind = PhaseKind.GREEN
                self.movement = select_green(
                    movement_aawt(_per_movement(counts), _per_movement(awt)), None)
                self.phase_entry = t
                self.next_checkpoint = t + CHECKPOINT_INTERVAL
        elif self.kind is PhaseKind.GREEN:
            assert self.next_checkpoint is not None
            if t >= self.next_checkpoint:
                winner = select_green(
                    movement_aawt(_per_movement(counts), _per_movement(awt)), self.movement)
                if winner is self.movement:
                    self.next_checkpoint = t + CHECKPOINT_INTERVAL
                else:
                    self.kind = PhaseKind.YELLOW
                    self.phase_entry = t
                    self.next_checkpoint = None
        return right_of_way(self.kind, self.movement)
