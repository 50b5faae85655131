"""Telemetry boundary: per-second BSM records and the per-node feature samples
derived from them. The controller and detector only ever see this stream, which
makes it the attack surface. A fake record has the same fields as a real one,
but the first letter of its vehicle id gives its provenance away: fakes are
indistinguishable only in the per-second aggregate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .atsc import compute_aawt
from .errors import DataError
from .microsim import Vehicle
from .roadnet import Heading, Movement, MOVEMENT_ORDER, RoadNetwork, upstream_feeders

APPROACH_LABELS = ("EB", "WB", "NB", "SB")


class BsmRecord(NamedTuple):
    """One vehicle's broadcast at one sampling instant.

    `next_edge` stands in for the turn intent a real BSM conveys through lane
    and pocket occupancy; it carries no provenance information.
    """
    t: float
    vehicle_id: str
    edge_id: str
    lane_pos: float
    speed: float
    waiting: float
    next_edge: str = ""


# what BsmRecord's generated `__new__` calls, without its Python frame
_new_record = tuple.__new__


def emit_bsm(vehicle: Vehicle, t: float) -> BsmRecord:
    # `edge_id` and `next_edge_id`, read from the route without property calls
    route, i = vehicle.route, vehicle.route_index
    nxt = route[i + 1] if i + 1 < len(route) else ""
    return _new_record(BsmRecord, (t, vehicle.vid, route[i], vehicle.pos, vehicle.speed,
                                   vehicle.waiting, nxt))


@dataclass
class NodeStreamStats:
    """Per-turn-stream vehicle counts and waiting-time sums at one node in 12
    slots (`Movement.slot`), and per signal movement as 8-tuples in MOVEMENT_ORDER."""
    counts: list[int] = field(default_factory=lambda: [0] * 12)
    awt: list[float] = field(default_factory=lambda: [0.0] * 12)
    movement_counts: tuple[int, ...] = ()
    movement_awt: tuple[float, ...] = ()

    def approach_aawt(self, i: int) -> float:
        # approach i's slots in L, T, R order, not the through fold of
        # _per_movement: logged values are compared bit for bit
        s = slice(3 * i, 3 * i + 3)
        return compute_aawt(sum(self.awt[s]), sum(self.counts[s]))


def _per_movement(v: list) -> tuple:
    """Per signal movement in MOVEMENT_ORDER from 12 slots; right-turners ride
    with their through movement (summed T + R)."""
    return (v[0], v[1] + v[2], v[3], v[4] + v[5],
            v[6], v[7] + v[8], v[9], v[10] + v[11])


def node_stream_stats(records: list[BsmRecord], net: RoadNetwork, t: float,
                      base: dict[str, NodeStreamStats] | None = None
                      ) -> dict[str, NodeStreamStats]:
    """Aggregate one second's records over the approaches of every
    intersection in a single pass.

    With `base`, the sums continue from a copy of that aggregate, so the
    result is the aggregate of base's records followed by `records`, bit for
    bit; `base` itself is left unchanged.
    """
    if base is None:
        stats = {n: NodeStreamStats() for n in net.nodes}
    else:
        stats = {n: NodeStreamStats(list(s.counts), list(s.awt)) for n, s in base.items()}
    turn_slot = net.turn_slot
    for rec in records:
        if rec.t != t:
            raise DataError(f"record {rec.vehicle_id} at t={rec.t}, expected {t}")
        hit = turn_slot.get((rec.edge_id, rec.next_edge))
        if hit is None:
            edge = net.edges.get(rec.edge_id)
            if edge is None:
                raise DataError(f"BSM {rec.vehicle_id}@{rec.t}: unknown edge {rec.edge_id!r}")
            if edge.to is None:
                continue      # on an exit edge, past the last stop line
            if not rec.next_edge:
                raise DataError(f"BSM {rec.vehicle_id}@{rec.t}: no turn intent on an approach")
            raise DataError(f"BSM {rec.vehicle_id}@{rec.t}: no connection "
                            f"{rec.edge_id} -> {rec.next_edge}")
        node, slot = hit
        at = stats[node]
        at.counts[slot] += 1
        at.awt[slot] += rec.waiting
    for at in stats.values():
        at.movement_counts = _per_movement(at.counts)
        at.movement_awt = _per_movement(at.awt)
    return stats


def feeder_streams(net: RoadNetwork) -> tuple[tuple[str, Movement], ...]:
    """Canonically ordered upstream feeders of the subject EB approach."""
    feeders = upstream_feeders(net, net.approach_edge(net.subject_node, Heading.EAST))
    return tuple(sorted(feeders, key=lambda f: (f[0], f[1].value)))


@dataclass(frozen=True)
class FeatureSample:
    """One second of controller/detector-visible features at the subject node.

    `attack_active` is ground truth for evaluation only; it is never an input
    to the controller or the detector.
    """
    t: float
    movement_counts: tuple[int, ...]       # 8, MOVEMENT_ORDER
    movement_awt: tuple[float, ...]        # 8
    approach_aawt: tuple[float, ...]       # 4, APPROACH_LABELS order
    upstream_counts: tuple[int, ...]       # per feeder_streams(net)
    upstream_awt: tuple[float, ...]
    attack_active: bool

    @property
    def eb_count(self) -> int:
        """Vehicles on the subject EB approach (through + left + right streams)."""
        return self.movement_counts[0] + self.movement_counts[1]

    @property
    def eb_aawt(self) -> float:
        return self.approach_aawt[0]


def sample_features(stats: dict[str, NodeStreamStats], net: RoadNetwork,
                    feeders: tuple[tuple[str, Movement], ...], t: float,
                    attack_active: bool = False) -> FeatureSample:
    """Build the subject-centric per-second feature sample from one second's
    aggregate (`node_stream_stats`); `feeders` is `feeder_streams(net)`."""
    subject = stats[net.subject_node]
    return FeatureSample(
        t=t,
        movement_counts=subject.movement_counts,
        movement_awt=subject.movement_awt,
        approach_aawt=tuple(subject.approach_aawt(i) for i in range(4)),
        upstream_counts=tuple(stats[n].counts[s.slot] for n, s in feeders),
        upstream_awt=tuple(stats[n].awt[s.slot] for n, s in feeders),
        attack_active=attack_active,
    )


def feature_header(net: RoadNetwork) -> list[str]:
    cols = ["t"]
    cols += [f"n_{m.value}" for m in MOVEMENT_ORDER]
    cols += [f"awt_{m.value}" for m in MOVEMENT_ORDER]
    cols += [f"aawt_{a}" for a in APPROACH_LABELS]
    cols += [f"up_n_{node}_{stream.value}" for node, stream in feeder_streams(net)]
    cols += [f"up_awt_{node}_{stream.value}" for node, stream in feeder_streams(net)]
    cols.append("attack")
    return cols


def feature_row(sample: FeatureSample, float_fmt) -> list[str]:
    row = [float_fmt(sample.t)]
    row += [str(n) for n in sample.movement_counts]
    row += [float_fmt(x) for x in sample.movement_awt]
    row += [float_fmt(x) for x in sample.approach_aawt]
    row += [str(n) for n in sample.upstream_counts]
    row += [float_fmt(x) for x in sample.upstream_awt]
    row.append("1" if sample.attack_active else "0")
    return row


def parse_feature_rows(header: list[str], rows: list[list[str]]) -> list[FeatureSample]:
    """Inverse of feature_row for the fixed column layout."""
    n_feeders = sum(1 for c in header if c.startswith("up_n_"))
    expected = 1 + 8 + 8 + 4 + 2 * n_feeders + 1
    if len(header) != expected:
        raise DataError(f"feature log has {len(header)} columns, expected {expected}")
    out = []
    for row_no, r in enumerate(rows, start=1):
        if len(r) != expected:
            raise DataError(f"feature row {row_no} has {len(r)} fields, expected {expected}")
        i = 1
        try:
            counts = tuple(int(x) for x in r[i:i + 8]); i += 8
            awt = tuple(float(x) for x in r[i:i + 8]); i += 8
            aawt = tuple(float(x) for x in r[i:i + 4]); i += 4
            ucounts = tuple(int(x) for x in r[i:i + n_feeders]); i += n_feeders
            uawt = tuple(float(x) for x in r[i:i + n_feeders]); i += n_feeders
            t = float(r[0])
        except ValueError as exc:
            raise DataError(f"feature row {row_no}: {exc}") from None
        if not all(math.isfinite(x) for x in (t, *awt, *aawt, *uawt)):
            raise DataError(f"feature row {row_no} has a non-finite value")
        if min(counts + ucounts) < 0:
            raise DataError(f"feature row {row_no} has a negative vehicle count")
        if min(awt + aawt + uawt) < 0:
            raise DataError(f"feature row {row_no} has a negative waiting time")
        if r[i] not in ("0", "1"):
            raise DataError(f"feature row {row_no}: attack flag {r[i]!r} is not 0 or 1")
        out.append(FeatureSample(t=t, movement_counts=counts,
                                 movement_awt=awt, approach_aawt=aawt,
                                 upstream_counts=ucounts, upstream_awt=uawt,
                                 attack_active=r[i] == "1"))
    return out
