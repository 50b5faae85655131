"""Krauss car following written out rule by rule, apart from `World`.

The tests step a reference world with these functions and require
`World.step` and `World.step_overlay` to give the same bits. So the oracle
reads only `krauss_safe_speed`, the network, the right-of-way map and each
vehicle's route, and states each rule once more, plainly: the
leader in a lane, what a lane's front sees past it, the crossing of a stop
line and the waiting timer. It finds everything by scanning lists, so the
lists it is given may be in any order.
"""
from __future__ import annotations

from atsclab.microsim import (LOOKAHEAD, POCKET_LANE, THROUGH_LANE, WAITING_SPEED,
                              krauss_safe_speed)


def lanes_of(vehicles):
    """Vehicles per (edge, lane), in the order given."""
    lanes = {}
    for v in vehicles:
        lanes.setdefault((v.edge_id, v.lane), []).append(v)
    return lanes


def _rank(v):
    """A lane's front-first key: the largest position, then the smallest id."""
    return -v.pos, v.vid


def leader(v, lane):
    """The nearest vehicle ahead of `v` among `lane`, or None."""
    return max((w for w in lane if _rank(w) < _rank(v)), key=_rank, default=None)


def lane_on(net, route, i):
    """The lane taken on `route[i]`: the pocket when the next turn is left."""
    if i + 1 < len(route) and net.stream_of(route[i], route[i + 1]).turn == "L":
        return POCKET_LANE
    return THROUGH_LANE


def may_pass(net, row_map, route, i):
    """Whether the stream from `route[i]` to `route[i + 1]` has right of way
    at the node where `route[i]` ends."""
    node = net.edges[route[i]].to
    return net.stream_of(route[i], route[i + 1]) in row_map.get(node, ())


def constraint(v, ahead, lanes, net, params, row_map):
    """(leader speed, net gap) of what limits `v`, or None.

    `ahead` is `v`'s leader in its lane. Without one, `v` leads its lane and,
    within `LOOKAHEAD` of a stop line, sees the line if its next stream is
    closed, else the rearmost vehicle of the lane it would take next.
    """
    length, min_gap = params.vehicle_length, params.min_gap
    if ahead is not None:
        return ahead.speed, ahead.pos - length - v.pos - min_gap
    edge = net.edges[v.edge_id]
    to_line = edge.length - v.pos
    if to_line > LOOKAHEAD or edge.to is None:
        return None
    route, i = v.route, v.route_index
    if not may_pass(net, row_map, route, i):
        return 0.0, to_line
    next_lane = lanes.get((route[i + 1], lane_on(net, route, i + 1)))
    if not next_lane:
        return None
    rear = max(next_lane, key=_rank)
    return rear.speed, to_line + rear.pos - length - min_gap


def next_speed(v, ahead, lanes, net, params, row_map):
    """The speed before dawdle: accelerate, cap at the speed limit, then at
    the Krauss safe speed behind `constraint`'s leader."""
    speed = min(v.speed + params.max_accel, net.edges[v.edge_id].speed_limit)
    lead = constraint(v, ahead, lanes, net, params, row_map)
    if lead is not None:
        speed = min(speed, krauss_safe_speed(v.speed, lead[0], lead[1], params))
    return speed


def cross(v, net, row_map):
    """Advance `v` by its speed; True once it runs off its route's last edge.

    At a closed stop line `v` stops on the line. Through an open one it
    carries the rest of its distance onto the next edge, in the lane of the
    turn after that one.
    """
    v.pos += v.speed
    while v.pos >= (length := net.edges[v.edge_id].length):
        if v.route_index + 1 == len(v.route):
            return True
        if not may_pass(net, row_map, v.route, v.route_index):
            v.pos = length
            return False
        v.pos -= length
        v.route_index += 1
        v.lane = lane_on(net, v.route, v.route_index)
    return False


def update_waiting(v, cumulative_mode=False):
    """Accrue 1 s of waiting at speeds <= 0.1 m/s (inclusive); reset on
    movement, unless `cumulative_mode` keeps the timer."""
    if v.speed <= WAITING_SPEED:
        v.waiting += 1.0
    elif not cumulative_mode:
        v.waiting = 0.0
