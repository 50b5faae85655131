import dataclasses

import pytest

from atsclab.atsc import _per_movement, compute_aawt, movement_aawt
from atsclab.errors import DataError
from atsclab.microsim import Vehicle
from atsclab.msgplane import (BsmRecord, FeatureSample, NodeStreamStats, emit_bsm,
                              feature_header, feature_row, feeder_streams,
                              node_stream_stats, parse_feature_rows, sample_features)
from atsclab.roadnet import MOVEMENT_ORDER, Movement, build_arterial_network


@pytest.fixture(scope="module")
def net():
    return build_arterial_network()


def rec(t, vid, edge, nxt, waiting=0.0, pos=50.0, speed=0.0):
    return BsmRecord(t=t, vehicle_id=vid, edge_id=edge, lane_pos=pos,
                     speed=speed, waiting=waiting, next_edge=nxt)


def sample(records, net, t, attack_active=False):
    return sample_features(node_stream_stats(records, net, t), net,
                           feeder_streams(net), t, attack_active=attack_active)


def test_emit_bsm_copies_kinematics():
    v = Vehicle(vid="r1", provenance="real",
                route=["link_I0_I1_E", "I1_out_E"], route_index=0, lane=0,
                pos=120.0, speed=8.0)
    b = emit_bsm(v, 10.0)
    assert (b.t, b.vehicle_id, b.edge_id, b.lane_pos, b.speed, b.waiting) == \
        (10.0, "r1", "link_I0_I1_E", 120.0, 8.0, 0.0)
    assert b.next_edge == "I1_out_E"


def test_fake_record_has_no_distinguishing_field():
    real = Vehicle(vid="a", provenance="real", route=["I0_in_E", "I0_out_N"],
                   route_index=0, lane=1, pos=10.0, speed=5.0)
    fake = Vehicle(vid="b", provenance="fake", route=["I0_in_E", "I0_out_N"],
                   route_index=0, lane=1, pos=10.0, speed=5.0)
    ra, rb = emit_bsm(real, 1.0), emit_bsm(fake, 1.0)
    assert (ra.edge_id, ra.lane_pos, ra.speed, ra.waiting, ra.next_edge) == \
        (rb.edge_id, rb.lane_pos, rb.speed, rb.waiting, rb.next_edge)


def test_empty_stream_gives_all_zero_sample(net):
    s = sample([], net, 5.0)
    assert s.movement_counts == (0,) * 8
    assert s.movement_awt == (0.0,) * 8
    assert s.approach_aawt == (0.0,) * 4
    assert s.upstream_counts == (0, 0, 0)


def test_counts_and_awt_per_movement(net):
    records = [rec(1.0, f"v{i}", "link_I0_I1_E", "I1_out_E", waiting=w)
               for i, w in enumerate([10.0, 12.0, 8.0])]
    s = sample(records, net, 1.0)
    i_ebt = MOVEMENT_ORDER.index(Movement.EBT)
    assert s.movement_counts[i_ebt] == 3
    assert s.movement_awt[i_ebt] == 30.0
    assert s.eb_count == 3
    assert s.eb_aawt == 10.0


def test_fake_vehicle_inflates_count(net):
    records = [rec(1.0, f"v{i}", "link_I0_I1_E", "I1_out_E", waiting=10.0)
               for i in range(3)]
    records.append(rec(1.0, "x1", "link_I0_I1_E", "I1_out_E", waiting=0.0))
    s = sample(records, net, 1.0)
    assert s.eb_count == 4
    assert s.eb_aawt == pytest.approx(30.0 / 4)


def test_unknown_edge_rejected(net):
    with pytest.raises(DataError):
        node_stream_stats([rec(1.0, "v0", "nowhere", "I1_out_E")], net, 1.0)


def test_mixed_timestamps_rejected(net):
    records = [rec(1.0, "v0", "link_I0_I1_E", "I1_out_E"),
               rec(2.0, "v1", "link_I0_I1_E", "I1_out_E")]
    with pytest.raises(DataError):
        node_stream_stats(records, net, 1.0)


def test_missing_turn_intent_rejected(net):
    for edge in ("link_I0_I1_E", "I0_in_N"):     # an approach of each node
        with pytest.raises(DataError):
            node_stream_stats([rec(1.0, "v0", edge, "")], net, 1.0)
    # past the last stop line no turn intent is needed, and nothing is counted
    stats = node_stream_stats([rec(1.0, "v0", "I1_out_E", "")], net, 1.0)
    assert all(sum(s.counts) == 0 for s in stats.values())


def test_turn_intent_that_is_no_connection_rejected(net):
    # link_I0_I1_E ends at I1, while I0_out_W leaves I0
    with pytest.raises(DataError):
        node_stream_stats([rec(1.0, "v0", "link_I0_I1_E", "I0_out_W")], net, 1.0)


def bits(stats):
    return {n: (s.counts, [x.hex() for x in s.awt], _per_movement(s.counts),
                [x.hex() for x in _per_movement(s.awt)]) for n, s in stats.items()}


def test_phantom_second_aggregates_once(net):
    """The controllers' aggregate is the real records'; the monitored one
    continues it with the fakes and equals the aggregate of real + fakes bit
    for bit. The EBT waits sum to three different doubles in the orders
    real + fakes, fakes + real and sum(real) + sum(fakes)."""
    real = [rec(1.0, f"r{i}", edge, nxt, waiting=w)
            for i, (edge, nxt, w) in enumerate([
                ("link_I0_I1_E", "I1_out_E", 57.4), ("link_I0_I1_E", "I1_out_S", 7.3),
                ("link_I0_I1_E", "I1_out_E", 0.3), ("I1_in_W", "I1_out_N", 1 / 3),
                ("I0_in_E", "link_I0_I1_E", 2.2), ("I1_out_E", "", 0.0),
                ("link_I0_I1_E", "I1_out_E", 47.0)])]
    fakes = [rec(1.0, f"x{i}", "link_I0_I1_E", "I1_out_E", waiting=w)
             for i, w in enumerate([49.2, 53.2])]
    control = node_stream_stats(real, net, 1.0)
    before = bits(control)
    monitored = node_stream_stats(fakes, net, 1.0, base=control)
    assert bits(control) == before == bits(node_stream_stats(real, net, 1.0))
    assert bits(monitored) == bits(node_stream_stats(real + fakes, net, 1.0))
    assert monitored["I1"].counts[Movement.EBT.slot] == 5
    assert monitored["I1"].awt[Movement.EBT.slot] == 207.09999999999997


def test_aggregate_holds_only_stream_slots():
    # the fold per signal movement is the controller's and the sampler's
    assert [f.name for f in dataclasses.fields(NodeStreamStats)] == ["counts", "awt"]


def test_right_turners_ride_with_through_movement(net):
    stats = node_stream_stats(
        [rec(1.0, "v0", "I1_in_W", "I1_out_N", waiting=4.0)], net, 1.0)["I1"]
    i_wbt = MOVEMENT_ORDER.index(Movement.WBT)
    assert _per_movement(stats.counts)[i_wbt] == 1
    assert _per_movement(stats.awt)[i_wbt] == 4.0


def test_count_conservation(net):
    records = [
        rec(1.0, "a", "link_I0_I1_E", "I1_out_E"),
        rec(1.0, "b", "link_I0_I1_E", "I1_out_N"),   # EB left at I1
        rec(1.0, "c", "I1_in_N", "I1_out_N"),        # NB through
        rec(1.0, "d", "I1_in_W", "I1_out_N"),        # WB right
        rec(1.0, "e", "I1_in_N", "link_I1_I0_W"),    # NB left
        rec(1.0, "f", "I0_in_E", "link_I0_I1_E"),    # on the upstream node
    ]
    stats = node_stream_stats(records, net, 1.0)["I1"]
    on_subject = sum(1 for r in records if net.edges[r.edge_id].to == "I1")
    assert sum(_per_movement(stats.counts)) == on_subject == 5


def test_upstream_features(net):
    feeders = feeder_streams(net)
    assert [f"{n}:{s.value}" for n, s in feeders] == ["I0:EBT", "I0:NBR", "I0:SBL"]
    records = [
        rec(1.0, "a", "I0_in_E", "link_I0_I1_E", waiting=3.0),   # upstream EBT
        rec(1.0, "b", "I0_in_N", "link_I0_I1_E", waiting=2.0),   # upstream NBR
        rec(1.0, "c", "I0_in_S", "link_I0_I1_E", waiting=7.0),   # upstream SBL
        rec(1.0, "d", "I0_in_S", "I0_out_S", waiting=9.0),       # upstream SBT
    ]
    s = sample(records, net, 1.0)
    assert s.upstream_counts == (1, 1, 1)
    assert s.upstream_awt == (3.0, 2.0, 7.0)


def test_oracle_equivalence_against_brute_force(net):
    # independent recomputation: walk the raw records and re-derive every
    # aggregate with plain loops
    records = [
        rec(9.0, "a", "link_I0_I1_E", "I1_out_E", waiting=5.0),
        rec(9.0, "b", "link_I0_I1_E", "I1_out_N", waiting=1.0),
        rec(9.0, "c", "I1_in_N", "I1_out_N", waiting=2.5),
        rec(9.0, "d", "I1_in_W", "I1_out_N", waiting=0.0),
        rec(9.0, "e", "I0_in_E", "link_I0_I1_E", waiting=4.0),
    ]
    s = sample(records, net, 9.0)
    for idx, m in enumerate(MOVEMENT_ORDER):
        count = 0
        awt = 0.0
        for r in records:
            e = net.edges[r.edge_id]
            if e.to != "I1":
                continue
            stream = net.stream_of(r.edge_id, r.next_edge)
            label = stream.value[:2]
            folded = (stream.value if stream.value[2] != "R" else label + "T")
            if folded == m.value:
                count += 1
                awt += r.waiting
        assert s.movement_counts[idx] == count
        assert s.movement_awt[idx] == awt


def test_feature_row_round_trip(net):
    records = [rec(3.0, "a", "link_I0_I1_E", "I1_out_E", waiting=5.0),
               rec(3.0, "b", "I0_in_E", "link_I0_I1_E", waiting=2.0)]
    s = sample(records, net, 3.0, attack_active=True)
    header = feature_header(net)
    row = feature_row(s, lambda x: format(float(x), ".17g"))
    assert len(row) == len(header)
    back = parse_feature_rows(header, [row])[0]
    assert back == s


def test_one_pass_aggregate_matches_per_node_loop(net):
    # every stream of both intersections, walked once per node with plain
    # loops over the raw records
    records = [rec(4.0, f"v{i}", c.in_edge, c.out_edge, waiting=0.5 * i)
               for i, c in enumerate(net.connections * 2)]
    records.append(rec(4.0, "gone", "I1_out_E", ""))
    stats = node_stream_stats(records, net, 4.0)
    assert tuple(stats) == net.nodes == ("I0", "I1")
    for node in net.nodes:
        for c in net.connections:
            if net.edges[c.in_edge].to != node:
                continue
            count = 0
            awt = 0.0
            for r in records:
                if net.edges[r.edge_id].to == node and r.next_edge and \
                        net.stream_of(r.edge_id, r.next_edge) is c.stream:
                    count += 1
                    awt += r.waiting
            assert stats[node].counts[c.stream.slot] == count
            assert stats[node].awt[c.stream.slot] == awt
        # per movement: right turns folded into their through movement, T + R
        mc, mw = _per_movement(stats[node].counts), _per_movement(stats[node].awt)
        for i, m in enumerate(MOVEMENT_ORDER):
            streams = [m] + [s for s in Movement if s.turn == "R" and s.phase is m]
            assert mc[i] == sum(stats[node].counts[s.slot] for s in streams)
            assert mw[i] == sum(stats[node].awt[s.slot] for s in streams)
        assert movement_aawt(mc, mw) == tuple(compute_aawt(mw[i], mc[i])
                                              for i in range(8))
