import csv

import pytest
from hypothesis import given, settings, strategies as st

from atsclab import atsc, attacker
from atsclab.atsc import (ALL_RED_DURATION, CHECKPOINT_INTERVAL, YELLOW_DURATION,
                          PhaseKind, SignalController, compute_aawt, right_of_way,
                          select_green)
from atsclab.attacker import (AttackConfig, AttackMode, ControllerAwarePolicy,
                              FixedRatePolicy)
from atsclab.errors import DataError
from atsclab.harness import ScenarioConfig, run_scenario
from atsclab.roadnet import MOVEMENT_ORDER, Movement


def table(**kw):
    """Per-movement AAWT as an 8-tuple in MOVEMENT_ORDER; unnamed ones are 0."""
    t = [0.0] * 8
    for name, v in kw.items():
        t[MOVEMENT_ORDER.index(Movement[name])] = float(v)
    return tuple(t)


def slots(**kw):
    """A node's 12 stream slots (counts, waiting sums) that `tick` folds into
    `table(**kw)`: one vehicle per signal movement, waiting the named AAWT."""
    counts, awt = [0] * 12, [0.0] * 12
    for m, a in zip(MOVEMENT_ORDER, table(**kw)):
        counts[m.slot], awt[m.slot] = 1, a
    return counts, awt


# -- compute_aawt ------------------------------------------------------------

def test_aawt_is_average_waiting_time():
    assert compute_aawt(30.0, 3) == 10.0


def test_aawt_empty_movement_is_zero():
    assert compute_aawt(0.0, 0) == 0.0


def test_aawt_dilution_by_extra_vehicles():
    # three waiters at 10 s each plus one fresh arrival pull the average down
    assert compute_aawt(30.0, 4) == 7.5 < 10.0


# -- select_green ------------------------------------------------------------

def test_argmax_picks_single_max():
    assert select_green(table(EBT=10.0)) is Movement.EBT
    assert select_green(table(SBL=1.0, WBT=0.5)) is Movement.SBL


def test_tie_goes_to_incumbent():
    aawt = table(EBT=4.0, NBL=4.0)
    assert select_green(aawt, current=Movement.NBL) is Movement.NBL


def test_tie_without_incumbent_uses_fixed_order():
    aawt = table(WBT=4.0, NBL=4.0)
    assert select_green(aawt, current=Movement.SBT) is Movement.WBT
    assert MOVEMENT_ORDER.index(Movement.WBT) < MOVEMENT_ORDER.index(Movement.NBL)


def test_all_zero_falls_back_to_first_movement():
    assert select_green(table()) is MOVEMENT_ORDER[0]


@given(st.lists(st.floats(0, 1000), min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_argmax_scale_invariance(vals):
    aawt = tuple(vals)
    scaled = tuple(3.0 * v for v in vals)
    assert select_green(aawt) is select_green(scaled)


def keyed_select_green(aawt, current):
    """The green rule over a dict keyed by movement: the incumbent if it holds
    the maximum, else the first movement in MOVEMENT_ORDER that does."""
    by_movement = dict(zip(MOVEMENT_ORDER, aawt))
    best = max(by_movement.values())
    if current is not None and by_movement[current] == best:
        return current
    return next(m for m in MOVEMENT_ORDER if by_movement[m] == best)


# values from {0, 1, 2} make ties, with and without the incumbent, common
@given(st.tuples(*[st.sampled_from((0.0, 1.0, 2.0))] * 8),
       st.none() | st.sampled_from(MOVEMENT_ORDER))
@settings(max_examples=300, deadline=None)
def test_select_green_matches_keyed_rule(aawt, current):
    assert select_green(aawt, current) is keyed_select_green(aawt, current)


# -- right_of_way ------------------------------------------------------------

def test_through_green_includes_companion_right_turn():
    # an unsignalized right turn moves on its own approach's through green
    companion = {Movement.EBT: Movement.EBR, Movement.WBT: Movement.WBR,
                 Movement.NBT: Movement.NBR, Movement.SBT: Movement.SBR}
    for through, right in companion.items():
        assert right_of_way(PhaseKind.GREEN, through) == frozenset({through, right})


def test_left_green_is_exclusive():
    for left in (Movement.EBL, Movement.WBL, Movement.NBL, Movement.SBL):
        assert right_of_way(PhaseKind.GREEN, left) == frozenset({left})


def test_non_green_phases_grant_nothing():
    assert right_of_way(PhaseKind.YELLOW, Movement.EBT) == frozenset()
    assert right_of_way(PhaseKind.ALL_RED, None) == frozenset()


# -- SignalController --------------------------------------------------------

def run_ticks(ctrl, demand_fn, t_end, t0=0.0):
    """Tick once per second with the slots `demand_fn(t)` gives; returns
    [(t, kind, movement, row)]."""
    trace = []
    t = t0
    while t < t_end:
        row = ctrl.tick(*demand_fn(t), t)
        trace.append((t, ctrl.kind, ctrl.movement, row))
        t += 1.0
    return trace


def test_initial_all_red_lasts_one_second():
    ctrl = SignalController("I1")
    trace = run_ticks(ctrl, lambda t: slots(EBT=5.0), 3.0)
    assert trace[0][1] is PhaseKind.ALL_RED
    assert trace[1][1] is PhaseKind.GREEN
    assert trace[1][2] is Movement.EBT


def test_change_interval_timing():
    # demand flips away from EBT for good at t >= 6, exactly at the first
    # checkpoint of the green that started at t0 = 1
    def demand(t):
        return slots(EBT=5.0) if t < 6.0 else slots(WBL=9.0)

    ctrl = SignalController("I1")
    trace = run_ticks(ctrl, demand, 15.0)
    kinds = {t: k for t, k, _, _ in trace}
    assert kinds[1.0] is PhaseKind.GREEN          # green onset t0 = 1
    assert kinds[5.0] is PhaseKind.GREEN
    assert kinds[6.0] is PhaseKind.YELLOW         # checkpoint at t0 + 5
    assert kinds[7.0] is PhaseKind.YELLOW         # yellow lasts exactly 2 s
    assert kinds[8.0] is PhaseKind.ALL_RED        # all-red lasts exactly 1 s
    assert kinds[9.0] is PhaseKind.GREEN          # new green at t0 + 8
    assert trace[9][2] is Movement.WBL            # winner from latest sample
    # no traffic moves during the change interval
    assert trace[6][3] == trace[7][3] == trace[8][3] == frozenset()


def test_checkpoint_skip_keeps_incumbent_green():
    ctrl = SignalController("I1")
    trace = run_ticks(ctrl, lambda t: slots(EBT=5.0), 30.0)
    assert all(k is PhaseKind.GREEN for t, k, _, _ in trace if t >= 1.0)
    assert all(m is Movement.EBT for t, _, m, _ in trace if t >= 1.0)


def test_checkpoints_every_five_seconds():
    # alternate the winner at every checkpoint: each green should last
    # exactly 5 s and each change interval exactly 3 s
    def demand(t):
        phase = int(t) // 8
        return slots(EBT=5.0) if phase % 2 == 0 else slots(WBT=5.0)

    ctrl = SignalController("I1")
    trace = run_ticks(ctrl, demand, 120.0)
    greens = []
    start = None
    for t, k, m, _ in trace:
        if k is PhaseKind.GREEN and start is None:
            start = t
        elif k is not PhaseKind.GREEN and start is not None:
            greens.append(t - start)
            start = None
    assert greens, "expected at least one completed green"
    for g in greens:
        assert g >= CHECKPOINT_INTERVAL
        assert g % CHECKPOINT_INTERVAL == pytest.approx(0.0)


def test_green_never_shorter_than_checkpoint_interval():
    rng_tables = [slots(EBT=1.0), slots(WBT=2.0), slots(NBL=3.0), slots(SBT=4.0)]

    def demand(t):
        return rng_tables[int(t) % len(rng_tables)]

    ctrl = SignalController("I1")
    trace = run_ticks(ctrl, demand, 300.0)
    durations = []
    start = None
    for t, k, _, _ in trace:
        if k is PhaseKind.GREEN and start is None:
            start = t
        elif k is not PhaseKind.GREEN and start is not None:
            durations.append(t - start)
            start = None
    assert durations
    assert min(durations) >= CHECKPOINT_INTERVAL


def test_non_monotonic_tick_rejected():
    ctrl = SignalController("I1")
    ctrl.tick(*slots(), 0.0)
    with pytest.raises(DataError):
        ctrl.tick(*slots(), 0.0)


def test_tick_folds_right_turns_into_their_through_movement():
    # EBT alone waits less than WBT, but its right-turner brings the EB
    # through green's AAWT to (1 + 9) / 2 = 5 s
    counts, awt = slots(EBT=1.0, WBT=4.0)
    counts[Movement.EBR.slot], awt[Movement.EBR.slot] = 1, 9.0
    ctrl = SignalController("I1")
    ctrl.tick(counts, awt, 0.0)
    assert ctrl.tick(counts, awt, 1.0) == frozenset({Movement.EBT, Movement.EBR})


def test_replay_determinism():
    def demand(t):
        return slots(EBT=(t % 7.0), WBL=(t % 11.0), SBT=3.0)

    traces = []
    for _ in range(2):
        ctrl = SignalController("I1")
        traces.append(run_ticks(ctrl, demand, 200.0))
    assert traces[0] == traces[1]


@pytest.mark.parametrize("mode", [None, AttackMode.PHYSICAL, AttackMode.PHANTOM],
                         ids=["free", "physical", "phantom"])
def test_change_interval_rows_name_the_green_they_end(tmp_path, mode):
    # `phases.csv` writes the controller's `movement` in every row, so a
    # yellow or all-red row names the green before it at its node
    attack = (AttackConfig(start=0.0, mode=mode, policy=FixedRatePolicy())
              if mode is not None else None)
    run_scenario(ScenarioConfig(duration=600.0, warmup=0.0, cooldown=0.0,
                                demand_vph=400.0, attack=attack), tmp_path)
    last_green: dict[str, str] = {}
    ended = 0
    with open(tmp_path / "phases.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            if r["phase"] == PhaseKind.GREEN.value:
                last_green[r["node"]] = r["movement"]
            else:
                assert r["movement"] == last_green.get(r["node"], ""), r
                ended += r["node"] in last_green
    assert ended > 0 and all(last_green.values())


def test_aawt_is_built_only_where_green_is_decided(tmp_path, monkeypatch):
    """In a closed loop, every per-movement AAWT tuple is read: by a
    controller's `select_green` at green onset or at a checkpoint, or by the
    attacker's policy when it weighs an injection. Yellow, all-red and
    mid-green seconds build none."""
    calls = {"builds": 0, "select_green": 0, "warrants": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(atsc, "movement_aawt", counting("builds", atsc.movement_aawt))
    monkeypatch.setattr(attacker, "movement_aawt", counting("builds", attacker.movement_aawt))
    monkeypatch.setattr(atsc, "select_green", counting("select_green", atsc.select_green))
    monkeypatch.setattr(ControllerAwarePolicy, "warrants",
                        counting("warrants", ControllerAwarePolicy.warrants))
    ticks = []     # (kind before, kind after, whether it decides, builds during it)
    tick = SignalController.tick

    def traced_tick(self, counts, awt, t):
        kind = self.kind
        decides = ((kind is PhaseKind.ALL_RED and t - self.phase_entry >= ALL_RED_DURATION)
                   or (kind is PhaseKind.GREEN and t >= self.next_checkpoint))
        before = calls["builds"]
        row = tick(self, counts, awt, t)
        ticks.append((kind, self.kind, decides, calls["builds"] - before))
        return row

    monkeypatch.setattr(SignalController, "tick", traced_tick)
    attack = AttackConfig(start=0.0, mode=AttackMode.PHYSICAL,
                          policy=ControllerAwarePolicy())
    run_scenario(ScenarioConfig(duration=300.0, warmup=0.0, cooldown=0.0,
                                demand_vph=400.0, attack=attack), tmp_path)

    assert len(ticks) == 2 * 300      # two nodes, one tick each per second
    assert calls["warrants"] > 0
    assert calls["builds"] == calls["select_green"] + calls["warrants"]
    assert all(builds == decides for _, _, decides, builds in ticks)
    # yellow and mid-green seconds build none; all-red lasts one second, so
    # the tick after it always starts a green, and a second that ends in
    # all-red comes from yellow
    assert {k for k, _, decides, _ in ticks if not decides} == {PhaseKind.YELLOW,
                                                                PhaseKind.GREEN}
    all_red = [builds for _, after, _, builds in ticks if after is PhaseKind.ALL_RED]
    assert all_red and not any(all_red)
