import re

import pytest

from atsclab.attacker import (AttackConfig, AttackMode, ControllerAwarePolicy,
                              FixedRatePolicy, SlowPoisoningAttacker,
                              can_insert)
from atsclab.errors import ConfigError
from atsclab.microsim import WAITING_SPEED, CarFollowingParams, Vehicle, World
from atsclab.msgplane import (BsmRecord, feeder_streams, node_stream_stats,
                              sample_features)
from atsclab.roadnet import build_arterial_network


@pytest.fixture(scope="module")
def net():
    return build_arterial_network()


PARAMS = CarFollowingParams(dawdle=0.0)


def make_attacker(net, start=0.0, mode=AttackMode.PHANTOM, policy=None,
                  start_offset=0.0, **kw):
    cfg = AttackConfig(start=start, mode=mode,
                       policy=policy or FixedRatePolicy(), **kw)
    return AttackConfig, SlowPoisoningAttacker(cfg, net, PARAMS, start_offset)


def eb_sample(net, t, n_eb=3, waiting_each=10.0, other=0.0):
    """A feature sample with n_eb EB-through waiters and one WBT waiter."""
    records = [BsmRecord(t, f"v{i}", "link_I0_I1_E", 250.0, 0.0, waiting_each,
                         "I1_out_E") for i in range(n_eb)]
    records.append(BsmRecord(t, "w0", "I1_in_W", 250.0, 0.0, other,
                             "link_I1_I0_W"))
    return sample_features(node_stream_stats(records, net, t), net,
                           feeder_streams(net), t)


# -- can_insert --------------------------------------------------------------

def lane_vehicle(pos, speed):
    """A 5 m vehicle on the injection lane."""
    return Vehicle(vid="a", provenance="real", route=["e"], route_index=0,
                   lane=0, pos=pos, speed=speed)


def test_can_insert_empty_edge():
    assert can_insert([], 11.1, PARAMS)


def test_can_insert_blocked_cell():
    # rear bumper of a 5 m vehicle at 7 m: tail at 2 m, inside the
    # 7.5 m entry cell, so the insertion is blocked
    assert not can_insert([lane_vehicle(7.0, 0.0)], 11.1, PARAMS)


def test_can_insert_clear_cell_but_unsafe_speed():
    # cell is clear (tail at 15 m) but a stopped leader that close makes the
    # desired entry speed unsafe
    assert not can_insert([lane_vehicle(20.0, 0.0)], 11.1, PARAMS)


def test_can_insert_far_leader_ok():
    assert can_insert([lane_vehicle(250.0, 13.0)], 11.1, PARAMS)


# -- policy warrants ---------------------------------------------------------

def test_fixed_rate_always_warranted():
    assert FixedRatePolicy().warrants(0.0, 100.0)


def test_controller_aware_margin_predicate():
    pol = ControllerAwarePolicy(margin=0.5)
    assert pol.warrants(9.8, 9.5)       # already winning
    assert pol.warrants(9.1, 9.5)       # within margin
    assert not pol.warrants(8.9, 9.5)   # safely losing: hold fire


# -- config validation -------------------------------------------------------

def test_negative_start_rejected():
    with pytest.raises(ConfigError):
        AttackConfig(start=-1.0)


def test_bad_caps_rejected():
    with pytest.raises(ConfigError):
        AttackConfig(max_concurrent=0)
    with pytest.raises(ConfigError):
        AttackConfig(min_headway=0.0)


def test_zero_rate_means_never_inject(net):
    for policy in (FixedRatePolicy(rate_vph=0.0), ControllerAwarePolicy(max_rate_vph=0.0)):
        cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM, policy=policy)
        atk = SlowPoisoningAttacker(cfg, net, PARAMS)
        world = World(net, PARAMS, 0.0, None, seed=1)
        red = {n: frozenset() for n in net.nodes}
        for t in range(0, 30):
            atk.on_second_phantom(float(t), world, eb_sample(net, float(t)), red)
        assert atk.phantoms == [] and atk.events == []
    with pytest.raises(ConfigError):
        FixedRatePolicy(rate_vph=-1.0)
    for bad in ({"margin": -0.1}, {"max_rate_vph": -1.0}):
        with pytest.raises(ConfigError):
            ControllerAwarePolicy(**bad)


def test_non_eb_target_rejected():
    with pytest.raises(ConfigError):
        AttackConfig(target_approach="NB")


# -- decision gates ----------------------------------------------------------

def test_no_injection_before_start(net):
    cfg = AttackConfig(start=400.0, mode=AttackMode.PHANTOM)
    atk = SlowPoisoningAttacker(cfg, net, PARAMS, start_offset=600.0)
    assert atk.start_abs == 1000.0
    world = World(net, PARAMS, 0.0, None, seed=1)
    row = {n: frozenset() for n in net.nodes}
    atk.on_second_phantom(999.0, world, eb_sample(net, 999.0), row)
    assert atk.phantoms == []
    atk.on_second_phantom(1000.0, world, eb_sample(net, 1000.0), row)
    assert len(atk.phantoms) == 1


def test_controller_aware_holds_fire_when_losing_badly(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM,
                       policy=ControllerAwarePolicy(margin=0.5))
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1)
    row = {n: frozenset() for n in net.nodes}
    # EB empty, WBT waiting 50 s -> target 0, best other 50
    losing = eb_sample(net, 1.0, n_eb=0, other=50.0)
    atk.on_second_phantom(1.0, world, losing, row)
    assert atk.phantoms == []
    assert any(e for e in atk.events) is False


def test_min_headway_between_injections(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM, min_headway=10.0)
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1)
    row = {n: frozenset(net.stream_of(c.in_edge, c.out_edge)
                        for c in net.connections if net.edges[c.in_edge].to == n)
           for n in net.nodes}
    for t in range(0, 40):
        atk.on_second_phantom(float(t), world, eb_sample(net, float(t)), row)
    injects = [e.t for e in atk.events if e.action == "inject"]
    assert injects
    assert all(b - a >= 10.0 for a, b in zip(injects, injects[1:]))


def test_max_concurrent_cap(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM, max_concurrent=3,
                       min_headway=1.0, policy=FixedRatePolicy(rate_vph=3600.0))
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1)
    red = {n: frozenset() for n in net.nodes}   # fakes pile up
    for t in range(0, 200):
        atk.on_second_phantom(float(t), world, eb_sample(net, float(t)), red)
        assert len(atk.phantoms) <= 3
    assert len(atk.phantoms) == 3


# -- phantom kinematic plausibility ------------------------------------------

def test_phantom_fakes_obey_physics(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM, min_headway=10.0)
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1)
    red = {n: frozenset() for n in net.nodes}
    limit = net.edges[atk.entry_edge].speed_limit
    prev = {}
    for t in range(0, 120):
        atk.on_second_phantom(float(t), world, eb_sample(net, float(t)), red)
        for b in atk.fake_bsms(float(t)):
            assert 0.0 <= b.speed <= limit + 1e-12
            if b.vehicle_id in prev:
                p_pos, p_speed = prev[b.vehicle_id]
                assert b.lane_pos >= p_pos                      # no teleporting back
                assert b.speed - p_speed <= PARAMS.max_accel + 1e-12
            prev[b.vehicle_id] = (b.lane_pos, b.speed)
        # pairwise spacing on the entry edge stays collision-free
        fakes = sorted((p for p in atk.phantoms if p.edge_id == atk.entry_edge),
                       key=lambda p: -p.pos)
        for lead, follow in zip(fakes, fakes[1:]):
            assert lead.pos - PARAMS.vehicle_length - follow.pos >= 0.0


def test_phantom_fakes_stop_at_red_and_accrue_waiting(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM)
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1)
    red = {n: frozenset() for n in net.nodes}
    edge_len = net.edges[atk.entry_edge].length
    for t in range(0, 120):
        atk.on_second_phantom(float(t), world, eb_sample(net, float(t)), red)
    front = max(atk.phantoms, key=lambda p: p.pos)
    assert front.pos <= edge_len
    assert front.pos == pytest.approx(edge_len)
    assert front.speed == 0.0
    assert front.waiting > 0.0


def test_phantom_waiting_never_resets_in_cumulative_mode(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM)
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1, cumulative_waiting_mode=True)
    red = {n: frozenset() for n in net.nodes}
    green = {n: frozenset(net.stream_of(c.in_edge, c.out_edge)
                          for c in net.connections if net.edges[c.in_edge].to == n)
             for n in net.nodes}
    history: dict[str, list[tuple[float, float]]] = {}
    for t in range(0, 200):
        row = green if 120 <= t < 125 else red
        atk.on_second_phantom(float(t), world, eb_sample(net, float(t)), row)
        for v in atk.phantoms:
            history.setdefault(v.vid, []).append((v.speed, v.waiting))
    motion = ["".join("s" if speed <= WAITING_SPEED else "m" for speed, _ in h)
              for h in history.values()]
    assert any(re.search("s+m+s", m) for m in motion)   # stop, move, stop again
    for h in history.values():
        waits = [w for _, w in h]
        assert waits == sorted(waits)


def test_phantom_fakes_cross_on_green_and_despawn(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM, max_concurrent=2)
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1)
    green = {n: frozenset(net.stream_of(c.in_edge, c.out_edge)
                          for c in net.connections if net.edges[c.in_edge].to == n)
             for n in net.nodes}
    for t in range(0, 200):
        atk.on_second_phantom(float(t), world, eb_sample(net, float(t)), green)
    despawns = [e for e in atk.events if e.action == "despawn"]
    assert despawns, "fakes should traverse and despawn under permanent green"


def test_fake_bsms_look_like_regular_records(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHANTOM)
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1)
    red = {n: frozenset() for n in net.nodes}
    atk.on_second_phantom(0.0, world, eb_sample(net, 0.0), red)
    (b,) = atk.fake_bsms(0.0)
    assert b.edge_id == atk.entry_edge
    assert b.next_edge == atk.route[1]
    assert type(b) is BsmRecord and b._fields == BsmRecord._fields


# -- physical mode ------------------------------------------------------------

def test_physical_injection_enters_world_and_despawn_tracked(net):
    cfg = AttackConfig(start=0.0, mode=AttackMode.PHYSICAL, min_headway=10.0)
    atk = SlowPoisoningAttacker(cfg, net, PARAMS)
    world = World(net, PARAMS, 0.0, None, seed=1)
    green = {n: frozenset(net.stream_of(c.in_edge, c.out_edge)
                          for c in net.connections if net.edges[c.in_edge].to == n)
             for n in net.nodes}
    for t in range(0, 150):
        world.step(green)
        atk.on_second_physical(float(t), world, eb_sample(net, float(t)))
    injects = [e for e in atk.events if e.action == "inject"]
    despawns = [e for e in atk.events if e.action == "despawn"]
    assert injects and despawns
    assert all(e.mode == "physical" for e in atk.events)
    # live bookkeeping matches the world
    live_fakes = {v.vid for v in world.vehicles.values() if v.provenance == "fake"}
    assert atk._live_physical == live_fakes
