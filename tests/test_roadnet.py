import pytest

from atsclab.errors import ConfigError, DataError
from atsclab.roadnet import (GeometryConfig, Heading, MOVEMENT_ORDER, Movement,
                             RightTurn, build_arterial_network, upstream_feeders)


@pytest.fixture(scope="module")
def net():
    return build_arterial_network()


def test_default_network_shape(net):
    assert sorted(net.signalized_nodes) == ["I0", "I1"]
    assert net.subject_node == "I1"
    # two 4-leg intersections sharing the east-west arterial: six peripheral
    # entries and six exits
    assert len(net.entries) == 6
    assert len(net.exits) == 6
    assert all(net.edges[e].frm is None for e in net.entries)


def test_single_intersection_network():
    net1 = build_arterial_network(GeometryConfig(intersections=1))
    assert len(net1.entries) == 4
    assert net1.subject_node == "I0"


def test_zero_length_edge_rejected():
    with pytest.raises(ConfigError):
        build_arterial_network(GeometryConfig(leg_length=0.0))


def test_negative_speed_rejected():
    with pytest.raises(ConfigError):
        build_arterial_network(GeometryConfig(speed_limit=-1.0))


def test_every_signalized_node_has_all_streams(net):
    for nid in net.signalized_nodes:
        streams = {c.stream for c in net.connections_into_node(nid)}
        assert streams == set(Movement) | set(RightTurn)


def test_connections_are_contiguous(net):
    for c in net.connections:
        assert net.edges[c.in_edge].to == net.edges[c.out_edge].frm


def test_stream_of_compass_geometry(net):
    # east-bound in-edge at I0
    assert net.stream_of("I0_in_E", "I0_out_N") is Movement.EBL
    assert net.stream_of("I0_in_E", "link_I0_I1_E") is Movement.EBT
    assert net.stream_of("I0_in_E", "I0_out_S") is RightTurn.EBR


def test_stream_of_unknown_connection(net):
    with pytest.raises(DataError):
        net.stream_of("I0_in_E", "I1_out_E")


def test_stream_of_partitions_streams(net):
    for nid in net.signalized_nodes:
        conns = net.connections_into_node(nid)
        assert len(conns) == 12
        per_stream = {}
        for c in conns:
            s = net.stream_of(c.in_edge, c.out_edge)
            assert s is c.stream
            per_stream.setdefault(s, []).append(c)
        assert len(per_stream) == 12


def test_upstream_feeders_of_subject_eb_approach(net):
    ap = net.approach("I1", Heading.EAST)
    feeders = upstream_feeders(net, ap)
    # the three streams that exit the upstream junction east: its through
    # movement plus the left and right turns onto the arterial
    assert feeders == {("I0", Movement.EBT), ("I0", Movement.SBL),
                       ("I0", RightTurn.NBR)}


def test_upstream_feeders_brute_force_property(net):
    for nid in net.signalized_nodes:
        for ap in net.approaches(nid):
            expected = {(net.edges[c.in_edge].to, c.stream)
                        for c in net.connections if c.out_edge == ap.first_edge}
            assert upstream_feeders(net, ap) == expected


def test_peripheral_approaches_have_no_feeders(net):
    for h in (Heading.WEST, Heading.NORTH, Heading.SOUTH):
        assert upstream_feeders(net, net.approach("I1", h)) == set()
    assert upstream_feeders(net, net.approach("I0", Heading.EAST)) == set()


def test_movement_enum_shape():
    assert len(Movement) == 8
    assert len(MOVEMENT_ORDER) == 8
    per_approach = {}
    for m in Movement:
        per_approach.setdefault(m.approach, []).append(m)
    assert all(len(v) == 2 for v in per_approach.values())
