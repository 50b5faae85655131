import pytest

from atsclab.errors import ConfigError, DataError
from atsclab.msgplane import APPROACH_LABELS
from atsclab.roadnet import (MAX_SPEED_LIMIT, GeometryConfig, Heading, MOVEMENT_ORDER,
                             Movement, build_arterial_network, stream_for_headings,
                             upstream_feeders)


@pytest.fixture(scope="module")
def net():
    return build_arterial_network()


def into(net, node):
    """Connections whose in-edge ends at `node`."""
    return [c for c in net.connections if net.edges[c.in_edge].to == node]


def test_default_network_shape(net):
    assert net.nodes == ("I0", "I1")
    assert net.subject_node == "I1"
    # two 4-leg intersections sharing the east-west arterial: six peripheral
    # entries and six exits
    assert len(net.entries) == 6
    assert sum(e.to is None for e in net.edges.values()) == 6
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


def test_speed_limit_range():
    build_arterial_network(GeometryConfig(speed_limit=MAX_SPEED_LIMIT))
    for limit in (0.0, MAX_SPEED_LIMIT + 1e-9, 1e6):
        with pytest.raises(ConfigError):
            build_arterial_network(GeometryConfig(speed_limit=limit))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_turn_slot_table_matches_stream_of(k):
    net = build_arterial_network(GeometryConfig(intersections=k))
    assert len(net.turn_slot) == len(net.connections)
    for c in net.connections:
        assert net.turn_slot[(c.in_edge, c.out_edge)] == (
            net.edges[c.in_edge].to, net.stream_of(c.in_edge, c.out_edge).slot)


def test_every_signalized_node_has_all_streams(net):
    for nid in net.nodes:
        streams = {c.stream for c in into(net, nid)}
        assert streams == set(Movement)


def test_connections_are_contiguous(net):
    for c in net.connections:
        assert net.edges[c.in_edge].to == net.edges[c.out_edge].frm


N, E, S, W = Heading.NORTH, Heading.EAST, Heading.SOUTH, Heading.WEST
# (in heading, out heading) -> turn stream; None is a u-turn
COMPASS = {
    (E, N): Movement.EBL, (E, E): Movement.EBT, (E, S): Movement.EBR, (E, W): None,
    (W, S): Movement.WBL, (W, W): Movement.WBT, (W, N): Movement.WBR, (W, E): None,
    (N, W): Movement.NBL, (N, N): Movement.NBT, (N, E): Movement.NBR, (N, S): None,
    (S, E): Movement.SBL, (S, S): Movement.SBT, (S, W): Movement.SBR, (S, N): None,
}


def test_stream_of_compass_geometry(net):
    assert len(COMPASS) == 16 and set(COMPASS.values()) == set(Movement) | {None}
    for node in net.nodes:
        for (h_in, h_out), expected in COMPASS.items():
            assert stream_for_headings(h_in, h_out) is expected
            in_edge = net.approach_edge(node, h_in)
            (out_edge,) = [e.id for e in net.edges.values()
                           if e.frm == node and e.heading is h_out]
            if expected is None:
                with pytest.raises(DataError):     # the builder makes no u-turns
                    net.stream_of(in_edge, out_edge)
            else:
                assert net.stream_of(in_edge, out_edge) is expected


def test_stream_of_unknown_connection(net):
    with pytest.raises(DataError):
        net.stream_of("I0_in_E", "I1_out_E")


def test_stream_of_partitions_streams(net):
    for nid in net.nodes:
        conns = into(net, nid)
        assert len(conns) == 12
        per_stream = {}
        for c in conns:
            s = net.stream_of(c.in_edge, c.out_edge)
            assert s is c.stream
            per_stream.setdefault(s, []).append(c)
        assert len(per_stream) == 12


def test_approach_edge_is_the_single_edge_per_heading():
    net3 = build_arterial_network(GeometryConfig(intersections=3))
    assert net3.nodes == ("I0", "I1", "I2")
    for nid in net3.nodes:
        for h in Heading:
            (expected,) = [e.id for e in net3.edges.values()
                           if e.to == nid and e.heading is h]
            assert net3.approach_edge(nid, h) == expected
    assert net3.approach_edge("I2", Heading.EAST) == "link_I1_I2_E"


def test_approach_edge_of_unknown_node(net):
    with pytest.raises(DataError):
        net.approach_edge("I9", Heading.EAST)


def test_upstream_feeders_of_subject_eb_approach(net):
    feeders = upstream_feeders(net, net.approach_edge("I1", Heading.EAST))
    # the three streams that exit the upstream junction east: its through
    # movement plus the left and right turns onto the arterial
    assert feeders == {("I0", Movement.EBT), ("I0", Movement.SBL),
                       ("I0", Movement.NBR)}


def test_upstream_feeders_brute_force_property(net):
    for nid in net.nodes:
        for h in Heading:
            edge = net.approach_edge(nid, h)
            expected = {(net.edges[c.in_edge].to, c.stream)
                        for c in net.connections if c.out_edge == edge}
            assert upstream_feeders(net, edge) == expected


def test_peripheral_approaches_have_no_feeders(net):
    for h in (Heading.WEST, Heading.NORTH, Heading.SOUTH):
        assert upstream_feeders(net, net.approach_edge("I1", h)) == set()
    assert upstream_feeders(net, net.approach_edge("I0", Heading.EAST)) == set()


def test_movement_enum_shape():
    # twelve turn streams, declared per approach in L, T, R order; the eight
    # L and T movements are the signalized ones, in the controller's order
    assert len(Movement) == 12
    per_approach = {}
    for m in Movement:
        per_approach.setdefault(m.value[:2], []).append(m.turn)
    assert list(per_approach) == ["EB", "WB", "NB", "SB"]
    assert all(turns == ["L", "T", "R"] for turns in per_approach.values())
    assert len(MOVEMENT_ORDER) == 8
    assert set(MOVEMENT_ORDER) == {m for m in Movement if m.turn != "R"}
    assert [m.value for m in MOVEMENT_ORDER] == \
        ["EBL", "EBT", "WBL", "WBT", "NBL", "NBT", "SBL", "SBT"]
    # a stream's slot is its declaration index: approach i in APPROACH_LABELS
    # order owns slots 3i, 3i+1 and 3i+2, its L, T and R
    assert [m.slot for m in Movement] == list(range(12))
    for i, label in enumerate(APPROACH_LABELS):
        for j, turn in enumerate("LTR"):
            assert Movement(label + turn).slot == 3 * i + j
