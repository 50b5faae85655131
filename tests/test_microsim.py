import ast
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import krauss_oracle as oracle
from atsclab.microsim import (CarFollowingParams, TurnSplit, Vehicle, World, _front_first,
                              _sort_front_first, krauss_safe_speed)
from atsclab.roadnet import Movement, build_arterial_network


@pytest.fixture()
def net():
    return build_arterial_network()


def make_world(net, seed=7, demand=150.0, sigma=0.5, **kw):
    params = CarFollowingParams(dawdle=sigma)
    return World(net, params, demand, None, seed=seed, **kw)


def all_green(net):
    """Right-of-way map that lets everything move (for free-flow tests)."""
    row = frozenset(Movement)
    return {n: row for n in net.nodes}


def all_red(net):
    return {n: frozenset() for n in net.nodes}


# -- krauss_safe_speed -------------------------------------------------------

def test_safe_speed_zero_gap_stopped_leader():
    p = CarFollowingParams()
    assert krauss_safe_speed(10.0, 0.0, 0.0, p) == 0.0


def test_safe_speed_hand_computed():
    # v=10, leader 5 m/s, gap 20 m, tau=1, b=4.5:
    # vbar = 7.5; 5 + (20 - 5) / (7.5/4.5 + 1) = 10.625
    p = CarFollowingParams()
    assert krauss_safe_speed(10.0, 5.0, 20.0, p) == pytest.approx(10.625)


def test_safe_speed_huge_gap_unconstrained():
    p = CarFollowingParams()
    assert krauss_safe_speed(10.0, 10.0, 1e6, p) > 13.89


@given(v=st.floats(0, 30), vl=st.floats(0, 30), gap=st.floats(0, 500))
@settings(max_examples=200, deadline=None)
def test_safe_speed_never_negative(v, vl, gap):
    p = CarFollowingParams()
    assert krauss_safe_speed(v, vl, gap, p) >= 0.0


# -- the oracle's waiting rule, which the bit-for-bit tests tie to the walks --

def vehicle(speed, waiting=0.0):
    return Vehicle(vid="v1", provenance="real", route=["I0_in_E"], route_index=0,
                   lane=0, pos=0.0, speed=speed, waiting=waiting)


def test_waiting_accrues_below_threshold():
    v = vehicle(0.05)
    for _ in range(3):
        oracle.update_waiting(v)
    assert v.waiting == 3.0


def test_waiting_threshold_is_inclusive():
    v = vehicle(0.1)
    oracle.update_waiting(v)
    assert v.waiting == 1.0


def test_waiting_resets_on_movement_but_cumulative_persists():
    v = vehicle(0.2, waiting=5.0)
    oracle.update_waiting(v)
    assert v.waiting == 0.0


def test_cumulative_mode_never_resets():
    v = vehicle(0.2, waiting=5.0)
    oracle.update_waiting(v, cumulative_mode=True)
    assert v.waiting == 5.0


# -- free flow and stopping --------------------------------------------------

def test_free_flow_acceleration_profile(net):
    world = make_world(net, demand=0.0, sigma=0.0)
    world.vehicles["v1"] = Vehicle(vid="v1", provenance="real",
                                   route=["I0_in_E", "link_I0_I1_E", "I1_out_E"],
                                   route_index=0, lane=0, pos=0.0, speed=0.0)
    row = all_green(net)
    limit = net.edges["I0_in_E"].speed_limit
    prev = 0.0
    for _ in range(10):
        world.step(row)
        v = world.vehicles["v1"]
        assert v.speed == pytest.approx(min(prev + 2.6, limit))
        prev = v.speed
    assert world.vehicles["v1"].speed == pytest.approx(limit)


def test_vehicle_holds_at_stop_line_under_red(net):
    world = make_world(net, demand=0.0, sigma=0.0)
    edge = net.edges["I0_in_E"]
    world.vehicles["v1"] = Vehicle(vid="v1", provenance="real",
                                   route=["I0_in_E", "link_I0_I1_E", "I1_out_E"],
                                   route_index=0, lane=0, pos=edge.length - 0.5,
                                   speed=0.0)
    for _ in range(5):
        world.step(all_red(net))
    v = world.vehicles["v1"]
    assert v.edge_id == "I0_in_E"
    assert v.pos <= edge.length
    assert v.speed <= 0.5
    assert v.waiting > 0


def test_stopped_platoon_respects_min_gap(net):
    world = make_world(net, demand=0.0, sigma=0.0)
    for i, pos in enumerate([250.0, 220.0]):
        vid = f"v{i}"
        world.vehicles[vid] = Vehicle(vid=vid, provenance="real",
                                      route=["I0_in_E", "link_I0_I1_E", "I1_out_E"],
                                      route_index=0, lane=0, pos=pos, speed=10.0)
    for _ in range(100):
        world.step(all_red(net))
    leader = world.vehicles["v0"]
    follower = world.vehicles["v1"]
    gap = leader.pos - world.params.vehicle_length - follower.pos
    assert gap >= 2.5
    assert gap < 10.0  # queue actually compacted


def test_no_collisions_with_dawdling(net):
    from atsclab.atsc import PhaseKind, right_of_way
    from atsclab.roadnet import MOVEMENT_ORDER
    world = make_world(net, seed=3, demand=600.0, sigma=0.5)
    for step in range(400):
        # legal signals: one movement green per node, rotating
        m = MOVEMENT_ORDER[(step // 15) % 8]
        row = {n: right_of_way(PhaseKind.GREEN, m) for n in net.nodes}
        world.step(row)
        occ = world.occupancy()
        for vehicles in occ.values():
            for lead, follow in zip(vehicles, vehicles[1:]):
                assert lead.pos - world.params.vehicle_length - follow.pos >= 0.0


def test_speed_bounds(net):
    world = make_world(net, seed=5, demand=600.0, sigma=0.5)
    for _ in range(200):
        world.step(all_green(net))
        for v in world.vehicles.values():
            limit = net.edges[v.edge_id].speed_limit
            assert 0.0 <= v.speed <= limit + 1e-12


# -- arrivals ----------------------------------------------------------------

def test_zero_demand_spawns_nothing(net):
    world = make_world(net, demand=0.0)
    for _ in range(100):
        world.step(all_green(net))
    assert world.entered == 0


def test_arrival_rate_matches_demand(net):
    world = make_world(net, seed=11, demand=150.0)
    for _ in range(2400):
        world.step(all_green(net))
    per_entry = world.entered / len(net.entries)
    # Bernoulli(150/3600) over 2400 steps: expectation 100 per entry
    assert 80 <= per_entry <= 120


def test_spawn_determinism(net):
    logs = []
    for _ in range(2):
        world = make_world(net, seed=42, demand=300.0)
        snap = []
        for _ in range(300):
            world.step(all_green(net))
            snap.append(sorted((v.vid, v.edge_id, v.pos, v.speed)
                               for v in world.vehicles.values()))
        logs.append(snap)
    assert logs[0] == logs[1]


def test_flow_conservation(net):
    world = make_world(net, seed=9, demand=300.0)
    for _ in range(500):
        world.step(all_green(net))
        assert world.entered == world.exited + len(world.vehicles)


def test_blocked_entry_defers_instead_of_dropping(net):
    world = make_world(net, seed=2, demand=3600.0, sigma=0.0)
    for _ in range(60):
        world.step(all_red(net))
    deferred = sum(len(q) for q in world.deferred.values())
    assert deferred > 0
    # entered only counts actual insertions
    assert world.entered == len(world.vehicles)


def test_left_turners_use_pocket_lane(net):
    world = make_world(net, seed=1, demand=0.0)
    lane = world.lane_for("I0_in_E", "I0_out_N")   # left turn
    assert lane == 1
    assert world.lane_for("I0_in_E", "link_I0_I1_E") == 0   # through
    assert world.lane_for("I0_in_E", "I0_out_S") == 0       # right


# -- overlay (phantom) stepping ------------------------------------------------

EB_ROUTE = ["I0_in_E", "link_I0_I1_E", "I1_out_E"]


def eb_vehicle(vid, pos, speed, provenance="real"):
    return Vehicle(vid=vid, provenance=provenance, route=list(EB_ROUTE),
                   route_index=0, lane=0, pos=pos, speed=speed)


def test_overlay_leader_is_nearest_after_an_overlay_vehicle_passes(net):
    world = make_world(net, demand=0.0, sigma=0.0)
    world.vehicles["r1"] = real = eb_vehicle("r1", 100.0, 13.0)
    x1 = eb_vehicle("x1", 92.5, 13.0, "fake")   # zero net gap behind r1
    x2 = eb_vehicle("x2", 85.0, 13.0, "fake")
    assert world.step_overlay([x1, x2], all_red(net)) == []
    # r1 has already moved this second, so x1's Krauss speed carries it past
    assert x1.pos > real.pos
    p = world.params
    gap = real.pos - p.vehicle_length - 85.0 - p.min_gap
    assert x2.speed == krauss_safe_speed(13.0, real.speed, gap, world.params)


def test_overlay_is_invisible_to_real_vehicles(net):
    def snapshot(world):
        return (sorted((v.vid, v.edge_id, v.lane, v.pos, v.speed, v.waiting)
                       for v in world.vehicles.values()),
                world.entered, world.exited,
                world.rng.bit_generator.state)

    plain = make_world(net, seed=5, demand=600.0)
    seen = make_world(net, seed=5, demand=600.0)
    overlay, left = [], 0
    for t in range(300):
        row = all_green(net) if (t // 30) % 2 else all_red(net)
        plain.step(row)
        seen.step(row)
        if t % 5 == 0:
            overlay.append(eb_vehicle(f"x{t:05d}", 0.0, 10.0, "fake"))
        gone = seen.step_overlay(overlay, row)
        left += len(gone)
        overlay = [v for v in overlay if v not in gone]
        assert snapshot(seen) == snapshot(plain)
    assert left > 0 and overlay


def test_route_sampling_reaches_an_exit(net):
    world = make_world(net, seed=4)
    for entry in net.entries:
        for _ in range(20):
            route = world.sample_route(entry)
            assert route[0] == entry
            assert net.edges[route[-1]].to is None
            for a, b in zip(route, route[1:]):
                assert net.stream_of(a, b) is not None


def choice_route(world, entry, split):
    """`World.sample_route` as it was, drawing each turn with `Generator.choice`."""
    route = [entry]
    turns = ("T", "L", "R")
    while world.net.edges[route[-1]].to is not None:
        conns = world.net.connections_from(route[-1])
        choice = turns[int(world.rng.choice(len(turns), p=split))]
        for c in conns:
            if c.stream.turn == choice:
                route.append(c.out_edge)
                break
    return route


@pytest.mark.parametrize("split", [(0.7, 0.15, 0.15), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                   (0.0, 0.0, 1.0), (0.5, 0.0, 0.5), (0.1, 0.2, 0.7),
                                   (1 / 3, 1 / 3, 1 / 3)])
def test_route_turns_equal_generator_choice(net, split):
    """Bisecting the cumulative split draws the turn `rng.choice(3, p=split)`
    draws and leaves the same generator state, zero shares included."""
    for seed in range(3):
        world, ref = (World(net, CarFollowingParams(), 150.0, TurnSplit(*split), seed=seed)
                      for _ in range(2))
        for i in range(300):
            entry = net.entries[i % len(net.entries)]
            assert world.sample_route(entry) == choice_route(ref, entry, split)
        assert world.rng.bit_generator.state == ref.rng.bit_generator.state


# -- lane order ------------------------------------------------------------------

def passing_pairs(world, overlay):
    """(phantom, real) -> phantom ahead, for pairs sharing an edge and lane."""
    return {(x.vid, r.vid): x.pos > r.pos for x in overlay
            for r in world.vehicles.values()
            if (x.edge_id, x.lane) == (r.edge_id, r.lane)}


def reference_step(world, row_map, found):
    """`World.step` rebuilt from the oracle: in (edge, lane, -pos, vid) order,
    each vehicle's speed behind its leader, found by scanning its lane; then
    one scalar dawdle draw per vehicle in that order, the crossings, waiting
    for every vehicle left, and arrivals into the entry lanes `occupancy`
    builds. `found` collects the leaders."""
    p, net = world.params, world.net
    lanes = oracle.lanes_of(world.vehicles.values())
    order = sorted(world.vehicles.values(),
                   key=lambda v: (v.edge_id, v.lane, -v.pos, v.vid))
    speeds = []
    for v in order:
        lead = oracle.leader(v, lanes[v.edge_id, v.lane])
        if lead is not None:
            found.append(lead)
        speeds.append(oracle.next_speed(v, lead, lanes, net, p, row_map))
    if p.dawdle > 0:
        scale = p.dawdle * p.max_accel
        speeds = [s - scale * world.rng.random() for s in speeds]
    for v, s in zip(order, speeds):
        v.speed = max(0.0, s)
        if oracle.cross(v, net, row_map):
            world.exited += 1
            del world.vehicles[v.vid]
    for v in world.vehicles.values():
        oracle.update_waiting(v, world.cumulative_waiting_mode)
    world.spawn_arrivals({k: vs for k, vs in world.occupancy().items()
                          if net.edges[k[0]].frm is None})


def bits(world):
    """Everything `step` changes, floats by their bits."""
    return ([(v.vid, v.route_index, v.lane, v.pos.hex(), v.speed.hex(), v.waiting.hex())
             for v in sorted(world.vehicles.values(), key=lambda v: v.vid)],
            world.entered, world.exited, world.rng.bit_generator.state,
            {e: list(q) for e, q in world.deferred.items()})


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_leaders_and_step_order_come_from_the_lane_order(net, seed):
    # `step` equals the reference stepper bit for bit every second. Each
    # vehicle's dawdle draw follows the step order, so equal speeds also show
    # that `step` keeps the (edge, lane, -pos, vid) order. The phantom overlay
    # passes real vehicles in their lanes
    world = make_world(net, seed=seed, demand=900.0)
    ref = make_world(net, seed=seed, demand=900.0)
    found, overlay, passes = [], [], 0
    for t in range(300):
        row = all_green(net) if (t // 30) % 2 else all_red(net)
        before = passing_pairs(world, overlay)
        world.step(row)
        reference_step(ref, row, found)
        assert bits(world) == bits(ref), t
        if t % 5 == 0:
            overlay.append(eb_vehicle(f"x{t:05d}", 0.0, 10.0, "fake"))
        gone = world.step_overlay(overlay, row)
        overlay = [v for v in overlay if v not in gone]
        after = passing_pairs(world, overlay)
        passes += sum(before[k] != ahead for k, ahead in after.items() if k in before)
    assert len(found) > 10_000 and passes > 0


def walk_order(overlay):
    return sorted(overlay, key=lambda v: (v.route_index, -v.pos, v.vid))


def reference_overlay(world, overlay, row_map):
    """`World.step_overlay` rebuilt from the oracle: each overlay vehicle, in
    (route_index, -pos, vid) order, regroups the world's vehicles and the
    overlay vehicles still on the road, as they stand now, into lanes, takes
    its speed behind its leader there, crosses and accrues waiting if it
    stays. Returns the vehicles that left their route, in walk order."""
    on_road, left = list(overlay), []
    for v in walk_order(overlay):
        lanes = oracle.lanes_of([*world.vehicles.values(), *on_road])
        lead = oracle.leader(v, lanes[v.edge_id, v.lane])
        v.speed = max(0.0, oracle.next_speed(v, lead, lanes, world.net, world.params,
                                             row_map))
        if oracle.cross(v, world.net, row_map):
            on_road.remove(v)
            left.append(v)
        else:
            oracle.update_waiting(v, world.cumulative_waiting_mode)
    return left


def overlay_bits(overlay):
    return [(v.vid, v.route_index, v.lane, v.pos.hex(), v.speed.hex(), v.waiting.hex())
            for v in overlay]


# through I0 and I1, or through I0 and left at I1 (into the pocket on the link)
OVERLAY_ROUTES = (EB_ROUTE, ["I0_in_E", "link_I0_I1_E", "I1_out_N"])


def overlay_matches_reference(net, seed, sigma):
    """Two equal worlds at dawdle `sigma`; every second one steps its overlay
    with `step_overlay` (given in walk order, as the attacker gives it), the
    other with the reference, and the overlays, the exits and the worlds
    must agree bit for bit, with each world as it was before its overlay
    step. Returns how often a phantom ended a second on a closed stop line
    level with a real vehicle, which its next step re-places."""
    world = make_world(net, seed=seed, demand=900.0, sigma=sigma)
    ref = make_world(net, seed=seed, demand=900.0, sigma=sigma)
    overlay, ref_overlay, exits, level = [], [], 0, 0
    for t in range(300):
        row = all_green(net) if (t // 30) % 2 else all_red(net)
        world.step(row)
        ref.step(row)
        if t % 5 == 0:
            route = OVERLAY_ROUTES[(t // 5) % 2]
            for lst in (overlay, ref_overlay):
                lst.append(Vehicle(vid=f"x{t:05d}", provenance="fake", route=list(route),
                                   route_index=0, lane=world.lane_for(route[0], route[1]),
                                   pos=0.0, speed=10.0))
        before = bits(world)
        gone = world.step_overlay(walk_order(overlay), row)
        ref_gone = reference_overlay(ref, ref_overlay, row)
        assert [v.vid for v in gone] == [v.vid for v in ref_gone], t
        overlay = [v for v in overlay if v not in gone]
        ref_overlay = [v for v in ref_overlay if v not in ref_gone]
        assert overlay_bits(overlay) == overlay_bits(ref_overlay), t
        assert bits(world) == before == bits(ref), t
        exits += len(gone)
        on_line = {(v.edge_id, v.lane) for v in world.vehicles.values()
                   if v.pos == net.edges[v.edge_id].length}
        level += sum(v.pos == net.edges[v.edge_id].length and (v.edge_id, v.lane) in on_line
                     for v in overlay)
    assert exits > 20 and overlay
    return level


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_step_overlay_equals_the_brute_force_reference(net, seed):
    # with dawdle, and without it: then a real vehicle at rest stops exactly
    # on a closed line, level with a phantom held there, so the phantom is
    # re-placed at the line as well as after passing its leader or crossing
    overlay_matches_reference(net, seed, sigma=0.5)
    assert overlay_matches_reference(net, seed, sigma=0.0) > 0


WALK_CODE = {"_lane_beyond", "_move", "step", "step_overlay"}


def names_in(tree):
    """Every name, attribute and string constant in `tree`."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)})


def test_the_oracle_stands_apart_from_the_walks_it_checks():
    # a reference that called the walks' helpers could not see a fault in them
    with open(oracle.__file__) as fh:
        assert not names_in(ast.parse(fh.read())) & WALK_CODE
    for ref in (reference_step, reference_overlay):
        assert not names_in(ast.parse(textwrap.dedent(inspect.getsource(ref)))) & WALK_CODE


@given(st.lists(st.tuples(st.sampled_from([0.0, 2.5, 2.5000000000000004, 90.0]),
                          st.integers(0, 30)), max_size=40))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_two_stable_sorts_give_the_front_first_order(cells):
    # vehicles in one lane never share a position, so only this pins the tie order
    lane = [Vehicle(vid=f"r{n:05d}", provenance="real", route=["I0_in_E"], route_index=0,
                    lane=0, pos=pos, speed=0.0) for pos, n in cells]
    got = list(lane)
    _sort_front_first(got)
    assert got == sorted(lane, key=_front_first)


@pytest.mark.parametrize("seed", [3, 8])
def test_spawn_gets_the_entry_lanes_occupancy_would_build(net, monkeypatch, seed):
    spawn, checked = World.spawn_arrivals, []

    def checked_spawn(self, lanes):
        built = {k: vs for k, vs in self.occupancy().items()
                 if net.edges[k[0]].frm is None}
        assert {k: vs for k, vs in lanes.items() if vs} == built
        checked.append(sum(map(len, built.values())))
        return spawn(self, lanes)

    monkeypatch.setattr(World, "spawn_arrivals", checked_spawn)
    world = make_world(net, seed=seed, demand=900.0)
    for t in range(300):
        world.step(all_green(net) if (t // 30) % 2 else all_red(net))
    assert len(checked) == 300 and max(checked) > 10


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_one_batched_draw_equals_scalar_draws(seed):
    """`World.step` draws every dawdle in one call; PCG64 gives the doubles
    one scalar draw per vehicle would, also between other draws."""
    one, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    assert batched.random(1000).tolist() == [one.random() for _ in range(1000)]
    split = [0.7, 0.15, 0.15]
    for n in (0, 1, 17, 300):
        assert batched.random(n).tolist() == [one.random() for _ in range(n)]
        assert batched.choice(3, p=split) == one.choice(3, p=split)
        assert batched.random() == one.random()
    assert batched.bit_generator.state == one.bit_generator.state
