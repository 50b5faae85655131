"""Static arterial road network: intersections, directed edges, turn
connections, signal movements.

The network is a short east-west arterial of signalized 4-leg intersections;
`build_arterial_network` makes the only one there is. Each approach to an
intersection is one edge. The east-most intersection is the "subject" whose
east-bound approach is fed by the intersection immediately to its west.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigError, DataError


class Heading(Enum):
    """Direction of travel, declared clockwise."""
    NORTH = "N"
    EAST = "E"
    SOUTH = "S"
    WEST = "W"

    @property
    def approach_label(self) -> str:
        """Approach name by travel direction, e.g. EAST -> 'EB'."""
        return self.value + "B"


class Movement(Enum):
    """The twelve turn streams at a 4-leg intersection, per approach in left,
    through, right order. Named by travel direction: EBL is east-bound
    traffic turning left.

    `turn` is "L", "T" or "R". `phase` is the signalized movement whose green
    this stream moves on: itself for L and T, and its approach's T for an
    unsignalized right turn. `slot` is the declaration index 0-11, so the
    approach at index i (EB, WB, NB, SB) owns slots 3i, 3i+1 and 3i+2.
    """
    EBL = "EBL"
    EBT = "EBT"
    EBR = "EBR"
    WBL = "WBL"
    WBT = "WBT"
    WBR = "WBR"
    NBL = "NBL"
    NBT = "NBT"
    NBR = "NBR"
    SBL = "SBL"
    SBT = "SBT"
    SBR = "SBR"

    def __init__(self, label: str) -> None:
        self.turn = label[2]
        self.slot = len(type(self)._member_names_)
        # an approach's T is declared before its R, so it already exists here
        self.phase = self if self.turn != "R" else type(self)(label[:2] + "T")


# The eight signalized movements; their declaration order (EBL, EBT, WBL,
# ... SBT) is the fixed controller tie-break order.
MOVEMENT_ORDER: tuple[Movement, ...] = tuple(m for m in Movement if m.phase is m)

# clockwise quarter turns from the in heading to the out heading -> turn
_TURN_BY_QUARTERS = ("T", "R", None, "L")


def stream_for_headings(in_heading: Heading, out_heading: Heading) -> Movement | None:
    """Classify a turn by compass geometry of the in/out edge headings; None
    for a u-turn, which is not modelled."""
    compass = list(Heading)
    turn = _TURN_BY_QUARTERS[(compass.index(out_heading) - compass.index(in_heading)) % 4]
    return None if turn is None else Movement(in_heading.approach_label + turn)


@dataclass(frozen=True)
class Edge:
    id: str
    frm: str | None       # None at a peripheral entry
    to: str | None        # None at a peripheral exit
    length: float
    speed_limit: float
    heading: Heading


@dataclass(frozen=True)
class Connection:
    in_edge: str
    out_edge: str
    stream: Movement


# m/s; the fastest speed limit a road may have. At 30 m/s the stopping
# distance at the default 4.5 m/s^2 deceleration is 100 m, the whole of the
# microsim's leader lookahead.
MAX_SPEED_LIMIT = 30.0


@dataclass(frozen=True)
class GeometryConfig:
    """Arterial geometry.

    `speed_limit` lies in (0, MAX_SPEED_LIMIT] m/s. The microsim drives one
    through lane and one full-length left-turn pocket per approach, so
    `through_lanes` must be 1 and `pocket_length` positive; both stay only as
    manifest keys until the next benchmark re-record.
    """
    intersections: int = 2
    leg_length: float = 300.0
    link_length: float = 300.0
    speed_limit: float = 13.89
    through_lanes: int = 1
    pocket_length: float = 50.0

    def __post_init__(self) -> None:
        if self.intersections < 1:
            raise ConfigError("need at least one intersection")
        if self.leg_length <= 0 or self.link_length <= 0:
            raise ConfigError("edge lengths must be positive")
        if not 0 < self.speed_limit <= MAX_SPEED_LIMIT:
            raise ConfigError(f"speed_limit={self.speed_limit} m/s is outside "
                              f"(0, {MAX_SPEED_LIMIT}]")
        if self.through_lanes != 1:
            raise ConfigError(f"through_lanes={self.through_lanes}: the microsim "
                              f"drives exactly one through lane")
        if self.pocket_length <= 0:
            raise ConfigError(f"pocket_length={self.pocket_length} must be positive")


@dataclass
class RoadNetwork:
    nodes: tuple[str, ...]            # intersection ids, west to east
    edges: dict[str, Edge]
    connections: list[Connection]
    entries: tuple[str, ...]
    subject_node: str
    _conn_index: dict[tuple[str, str], Connection] = field(init=False, repr=False)
    _out_by_in: dict[str, list[Connection]] = field(init=False, repr=False)
    # (in edge, out edge) -> (node, Movement.slot) for every connection
    turn_slot: dict[tuple[str, str], tuple[str, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._conn_index = {(c.in_edge, c.out_edge): c for c in self.connections}
        self.turn_slot = {key: (self.edges[c.in_edge].to, c.stream.slot)
                          for key, c in self._conn_index.items()}
        self._out_by_in = {}
        for c in self.connections:
            self._out_by_in.setdefault(c.in_edge, []).append(c)

    # -- lookups -------------------------------------------------------------

    def stream_of(self, in_edge: str, out_edge: str) -> Movement:
        try:
            return self._conn_index[(in_edge, out_edge)].stream
        except KeyError:
            raise DataError(f"no connection {in_edge} -> {out_edge}") from None

    def connections_from(self, in_edge: str) -> list[Connection]:
        return self._out_by_in.get(in_edge, [])

    def approach_edge(self, node: str, heading: Heading) -> str:
        """The one edge that enters `node` travelling `heading`."""
        for e in self.edges.values():
            if e.to == node and e.heading is heading:
                return e.id
        raise DataError(f"node {node} has no {heading.approach_label} approach")


def upstream_feeders(net: RoadNetwork, edge: str) -> set[tuple[str, Movement]]:
    """Turn streams at the upstream intersection whose out-edge is `edge`.

    Empty when `edge` begins at a peripheral entry.
    """
    frm = net.edges[edge].frm
    if frm is None:
        return set()
    return {(frm, c.stream) for c in net.connections if c.out_edge == edge}


def build_arterial_network(cfg: GeometryConfig | None = None) -> RoadNetwork:
    """Instantiate the arterial: k signalized 4-leg intersections joined east-west,
    left-turn pockets at every approach, peripheral entry/exit edges elsewhere.
    """
    cfg = cfg or GeometryConfig()
    k = cfg.intersections

    edges: dict[str, Edge] = {}

    def add_edge(eid, frm, to, length, heading):
        edges[eid] = Edge(id=eid, frm=frm, to=to, length=length,
                          speed_limit=cfg.speed_limit, heading=heading)

    node_ids = tuple(f"I{i}" for i in range(k))
    for nid in node_ids:
        # north/south legs
        add_edge(f"{nid}_in_S", None, nid, cfg.leg_length, Heading.SOUTH)
        add_edge(f"{nid}_out_N", nid, None, cfg.leg_length, Heading.NORTH)
        add_edge(f"{nid}_in_N", None, nid, cfg.leg_length, Heading.NORTH)
        add_edge(f"{nid}_out_S", nid, None, cfg.leg_length, Heading.SOUTH)
    # west periphery
    add_edge(f"{node_ids[0]}_in_E", None, node_ids[0], cfg.leg_length, Heading.EAST)
    add_edge(f"{node_ids[0]}_out_W", node_ids[0], None, cfg.leg_length, Heading.WEST)
    # east periphery
    add_edge(f"{node_ids[-1]}_in_W", None, node_ids[-1], cfg.leg_length, Heading.WEST)
    add_edge(f"{node_ids[-1]}_out_E", node_ids[-1], None, cfg.leg_length, Heading.EAST)
    # arterial links
    for i in range(k - 1):
        a, b = node_ids[i], node_ids[i + 1]
        add_edge(f"link_{a}_{b}_E", a, b, cfg.link_length, Heading.EAST)
        add_edge(f"link_{b}_{a}_W", b, a, cfg.link_length, Heading.WEST)

    connections: list[Connection] = []
    for nid in node_ids:
        ins = [e for e in edges.values() if e.to == nid]
        outs = [e for e in edges.values() if e.frm == nid]
        for ein in ins:
            for eout in outs:
                stream = stream_for_headings(ein.heading, eout.heading)
                if stream is not None:
                    connections.append(Connection(in_edge=ein.id, out_edge=eout.id,
                                                  stream=stream))

    entries = tuple(sorted(e.id for e in edges.values() if e.frm is None))
    return RoadNetwork(nodes=node_ids, edges=edges, connections=connections,
                       entries=entries, subject_node=node_ids[-1])
