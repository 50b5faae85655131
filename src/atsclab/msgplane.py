"""Telemetry boundary: per-second BSM records and the per-node feature samples
derived from them. The controller and detector only ever see this stream, which
makes it the attack surface. A fake record has the same fields as a real one,
but the first letter of its vehicle id gives its provenance away: fakes are
indistinguishable only in the per-second aggregate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .atsc import _per_movement, compute_aawt
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


# what a named tuple's generated `__new__` calls, without its Python frame
_new_tuple = tuple.__new__


def emit_bsm(vehicle: Vehicle, t: float) -> BsmRecord:
    # the vehicle's edge and the next one on its route, or "" on its last
    route, i = vehicle.route, vehicle.route_index
    nxt = route[i + 1] if i + 1 < len(route) else ""
    return _new_tuple(BsmRecord, (t, vehicle.vid, route[i], vehicle.pos, vehicle.speed,
                                  vehicle.waiting, nxt))


@dataclass
class NodeStreamStats:
    """One node's per-stream vehicle counts and waiting sums in 12 slots (`Movement.slot`)."""
    counts: list[int]
    awt: list[float]


def node_stream_stats(records: list[BsmRecord], net: RoadNetwork, t: float,
                      base: dict[str, NodeStreamStats] | None = None
                      ) -> dict[str, NodeStreamStats]:
    """Aggregate one second's records over the approaches of every
    intersection in a single pass.

    With `base`, the sums continue from a copy of it: the result is the
    aggregate of base's records followed by `records`, bit for bit.
    """
    if base is None:
        stats = {n: NodeStreamStats([0] * 12, [0.0] * 12) for n in net.nodes}
    else:
        stats = {n: NodeStreamStats(list(s.counts), list(s.awt)) for n, s in base.items()}
    turn_slot = net.turn_slot
    for rec_t, vid, edge_id, _, _, waiting, next_edge in records:
        if rec_t != t:
            raise DataError(f"record {vid} at t={rec_t}, expected {t}")
        hit = turn_slot.get((edge_id, next_edge))
        if hit is None:
            edge = net.edges.get(edge_id)
            if edge is None:
                raise DataError(f"BSM {vid}@{rec_t}: unknown edge {edge_id!r}")
            if edge.to is None:
                continue      # on an exit edge, past the last stop line
            if not next_edge:
                raise DataError(f"BSM {vid}@{rec_t}: no turn intent on an approach")
            raise DataError(f"BSM {vid}@{rec_t}: no connection {edge_id} -> {next_edge}")
        node, slot = hit
        at = stats[node]
        at.counts[slot] += 1
        at.awt[slot] += waiting
    return stats


def feeder_streams(net: RoadNetwork) -> tuple[tuple[str, Movement], ...]:
    """Canonically ordered upstream feeders of the subject EB approach."""
    feeders = upstream_feeders(net, net.approach_edge(net.subject_node, Heading.EAST))
    return tuple(sorted(feeders, key=lambda f: (f[0], f[1].value)))


class FeatureSample(NamedTuple):
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
    n, w = subject.counts, subject.awt
    # each approach's slots summed in L, T, R order, not the through fold of
    # _per_movement: logged values are compared bit for bit
    return _new_tuple(FeatureSample, (
        t, _per_movement(n), _per_movement(w),
        (compute_aawt(w[0] + w[1] + w[2], n[0] + n[1] + n[2]),
         compute_aawt(w[3] + w[4] + w[5], n[3] + n[4] + n[5]),
         compute_aawt(w[6] + w[7] + w[8], n[6] + n[7] + n[8]),
         compute_aawt(w[9] + w[10] + w[11], n[9] + n[10] + n[11])),
        tuple([stats[node].counts[s.slot] for node, s in feeders]),
        tuple([stats[node].awt[s.slot] for node, s in feeders]),
        attack_active))


# the 21 columns before the feeder blocks, in `feature_row` order
_FIXED_COLUMNS = ("t", *(f"n_{m.value}" for m in MOVEMENT_ORDER),
                  *(f"awt_{m.value}" for m in MOVEMENT_ORDER),
                  *(f"aawt_{a}" for a in APPROACH_LABELS))


def _header(feeders: list[str]) -> list[str]:
    """The feature log's columns for feeders named `{node}_{stream}`."""
    return [*_FIXED_COLUMNS, *(f"up_n_{f}" for f in feeders),
            *(f"up_awt_{f}" for f in feeders), "attack"]


def feature_header(net: RoadNetwork) -> list[str]:
    return _header([f"{node}_{stream.value}" for node, stream in feeder_streams(net)])


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
    """Inverse of feature_row for the column layout `feature_header` writes."""
    feeders = [c[len("up_n_"):] for c in header if c.startswith("up_n_")]
    n_feeders = len(feeders)
    expected = len(_FIXED_COLUMNS) + 2 * n_feeders + 1
    if len(header) != expected:
        raise DataError(f"feature log has {len(header)} columns, expected {expected}")
    layout = _header(feeders)
    if header != layout:
        col = next(i for i, (got, want) in enumerate(zip(header, layout)) if got != want)
        raise DataError(f"feature log column {col + 1} is {header[col]!r}, "
                        f"expected {layout[col]!r}")
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
