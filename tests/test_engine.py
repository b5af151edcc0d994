"""Firing kernel, stabilization policies, the unlabeled oracle, and waves."""

import collections
import hashlib
import random
from array import array
from itertools import product

import pytest

from karyfire import engine
from karyfire.engine import (
    Configuration,
    EndgameShapeError,
    FiringMove,
    IllegalMoveError,
    ScriptError,
    StepLimitError,
    WaveError,
    WaveNetwork,
    destinations,
    endgame_start,
    endgame_start_counts,
    fire,
    format_script,
    initial_config,
    is_stable,
    legal_moves,
    parse_script,
    random_endgame_start,
    lane_code,
    run_waves,
    stabilize,
    unlabeled_fire_counts,
    unlabeled_profile,
    unlabeled_relaxation,
    unlabeled_simulate,
)
from karyfire.tree import TreeShape, layer, layer_size, layer_start, straight_descendant

S2 = TreeShape(2)
S3 = TreeShape(3)
S4 = TreeShape(4)

# Worked binary example: six moves from seven chips on the root.
BINARY_SCRIPT = [
    FiringMove(0, (5, 6, 7)),
    FiringMove(0, (3, 4, 6)),
    FiringMove(0, (1, 2, 4)),
    FiringMove(1, (1, 3, 5)),
    FiringMove(2, (4, 6, 7)),
    FiringMove(0, (2, 3, 6)),
]
BINARY_FINAL = {0: (3,), 1: (2,), 2: (6,), 3: (1,), 4: (5,), 5: (4,), 6: (7,)}

# Worked 4-ary example: ten moves that drive chip 2 all the way to layer 3.
QUAD_SCRIPT = [
    FiringMove(0, (1, 2, 3, 4, 5)),
    FiringMove(0, (3, 6, 7, 8, 9)),
    FiringMove(0, (7, 10, 11, 12, 13)),
    FiringMove(0, (11, 14, 15, 16, 17)),
    FiringMove(0, (15, 18, 19, 20, 21)),
    FiringMove(1, (1, 3, 7, 11, 15)),
    FiringMove(2, (2, 6, 10, 14, 18)),
    FiringMove(3, (4, 8, 12, 16, 20)),
    FiringMove(4, (5, 9, 13, 17, 21)),
    FiringMove(0, (7, 10, 12, 13, 19)),
]
QUAD_FINAL = {
    0: (12,), 1: (7,), 2: (10,), 3: (13,), 4: (19,),
    5: (1,), 6: (3,), 7: (11,), 8: (15,), 9: (2,), 10: (6,), 11: (14,),
    12: (18,), 13: (4,), 14: (8,), 15: (16,), 16: (20,), 17: (5,),
    18: (9,), 19: (17,), 20: (21,),
}

# Wave run from the canonical 4-ary three-layer endgame start.
QUAD_ENDGAME_START = {
    0: [9, 10, 11, 12, 13],
    1: [1, 2, 3, 4],
    2: [5, 6, 7, 8],
    3: [14, 15, 16, 17],
    4: [18, 19, 20, 21],
}
QUAD_WAVE_FINAL = {
    0: (11,), 1: (3,), 2: (7,), 3: (15,), 4: (19,),
    5: (1,), 6: (2,), 7: (4,), 8: (9,), 9: (5,), 10: (6,), 11: (8,),
    12: (10,), 13: (12,), 14: (14,), 15: (16,), 16: (17,), 17: (13,),
    18: (18,), 19: (20,), 20: (21,),
}


def fires_by_vertex(trace):
    counts = collections.Counter(move.vertex for move in trace)
    return dict(counts)


# ---------------------------------------------------------------------------
# configurations and moves


def test_from_dict_normalizes():
    cfg = Configuration.from_dict(2, {1: (5,), 0: [3, 1, 2], 4: []})
    assert cfg.as_dict() == {0: (1, 2, 3), 1: (5,)}
    assert cfg.at(0) == (1, 2, 3)
    assert cfg.at(4) == ()
    assert cfg.labels() == (1, 2, 3, 5)
    assert cfg.occupied() == (0, 1)
    assert cfg.n_chips == 4


def test_from_dict_rejects_duplicate_chips():
    with pytest.raises(ValueError, match="chip 2 appears on more than one vertex"):
        Configuration.from_dict(2, {0: [1, 2], 1: [2]})


@pytest.mark.parametrize(
    "chips", [{0: 5}, [1], {0: [True], 1: [2]}, {0: ["a", 2]}, {True: [1]}]
)
def test_from_dict_rejects_malformed_chips(chips):
    with pytest.raises(ValueError):
        Configuration.from_dict(2, chips)


@pytest.mark.parametrize(
    "data",
    [
        {"k": 2, "chips": {"0": 5}},
        {"k": 2, "chips": [1]},
        {"k": 2, "chips": {"0": [True], "1": [2]}},
        {"k": None, "chips": {"0": [1]}},
        {"k": 2.9, "chips": {"0": [1]}},
        {"k": 2, "chips": {"0": [1], "00": [2]}},
    ],
)
def test_from_json_dict_rejects_malformed_chips(data):
    with pytest.raises(ValueError):
        Configuration.from_json_dict(data)


def test_configuration_str():
    cfg = Configuration.from_dict(2, {0: [1, 2, 3, 4, 6], 1: [5], 2: [7]})
    assert str(cfg) == "{0:[1,2,3,4,6], 1:[5], 2:[7]}"


def test_configuration_json_round_trip():
    cfg = Configuration.from_dict(3, {0: [4], 2: [1, 3], 7: [2]})
    assert Configuration.from_json(cfg.to_json()) == cfg
    assert Configuration.from_json_dict(cfg.to_json_dict()) == cfg
    # canonical serialization: keys sorted, no whitespace
    assert cfg.to_json() == '{"chips":{"0":[4],"2":[1,3],"7":[2]},"k":3}'


def test_configurations_hash_and_compare():
    a = Configuration.from_dict(2, {0: [1], 1: [2]})
    b = Configuration.from_dict(2, {1: (2,), 0: (1,)})
    assert a == b
    assert len({a, b}) == 1


def test_firing_move_normalizes_and_validates():
    assert FiringMove(0, (3, 1, 2)).selected == (1, 2, 3)
    with pytest.raises(ValueError):
        FiringMove(0, (1, 1, 2))
    with pytest.raises(ValueError):
        FiringMove(-1, (1, 2, 3))
    with pytest.raises(ValueError):
        FiringMove(0, (0, 1, 2))


def test_initial_config():
    assert initial_config(S2, 3).as_dict() == {0: tuple(range(1, 8))}
    assert initial_config(S4, 3).as_dict() == {0: tuple(range(1, 22))}
    assert initial_config(S2, 1).as_dict() == {0: (1,)}


# ---------------------------------------------------------------------------
# the kernel


def test_fire_binary_root():
    """The median of the selection returns to the root; the rest descend."""
    cfg = fire(initial_config(S2, 3), FiringMove(0, (1, 2, 3)))
    assert cfg.as_dict() == {0: (2, 4, 5, 6, 7), 1: (1,), 2: (3,)}


def test_fire_quaternary_root():
    cfg = fire(initial_config(S4, 3), FiringMove(0, (1, 5, 9, 14, 18)))
    assert cfg.at(0) == (2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 19, 20, 21)
    assert cfg.at(1) == (1,)
    assert cfg.at(2) == (5,)
    assert cfg.at(3) == (14,)
    assert cfg.at(4) == (18,)


def test_fire_non_root_sends_median_up():
    cfg = Configuration.from_dict(2, {0: [9], 1: [2, 5, 7]})
    out = fire(cfg, FiringMove(1, (2, 5, 7)))
    assert out.as_dict() == {0: (5, 9), 3: (2,), 4: (7,)}


def test_fire_validates_selection():
    cfg = initial_config(S2, 3)
    with pytest.raises(IllegalMoveError, match="wrong selection size: need k\\+1 = 3 chips, got 2"):
        fire(cfg, FiringMove(0, (1, 2)))
    with pytest.raises(IllegalMoveError, match="chip not present at vertex 0"):
        fire(cfg, FiringMove(0, (1, 2, 9)))


def test_fire_conserves_chips():
    cfg = initial_config(S3, 3)
    for move in stabilize(cfg, "random", seed=11)[1]:
        cfg = fire(cfg, move)
        assert cfg.labels() == tuple(range(1, 14))
    assert is_stable(cfg)


def test_legal_moves_initial():
    moves = legal_moves(initial_config(S2, 3))
    assert len(moves) == 35  # C(7, 3) selections, all at the root
    assert {m.vertex for m in moves} == {0}
    assert moves[0].selected == (1, 2, 3)


def test_legal_moves_two_vertices():
    cfg = Configuration.from_dict(2, {0: [1, 2, 3, 4], 1: [5, 6, 7]})
    moves = legal_moves(cfg)
    assert len(moves) == 5  # C(4,3) at the root + one selection at vertex 1
    assert [m.vertex for m in moves] == [0, 0, 0, 0, 1]


def test_legal_moves_stable():
    assert legal_moves(Configuration.from_dict(2, {0: [1, 2], 1: [3]})) == []


def test_is_stable():
    assert not is_stable(initial_config(S2, 3))
    assert is_stable(Configuration.from_dict(2, BINARY_FINAL))


# ---------------------------------------------------------------------------
# stabilization policies


def test_lowest_policy_is_deterministic():
    final, trace = stabilize(initial_config(S2, 3), "lowest")
    assert [(m.vertex, m.selected) for m in trace] == [
        (0, (1, 2, 3)),
        (0, (2, 4, 5)),
        (0, (4, 6, 7)),
        (1, (1, 2, 4)),
        (2, (3, 5, 7)),
        (0, (2, 5, 6)),
    ]
    assert final.as_dict() == {0: (5,), 1: (2,), 2: (6,), 3: (1,), 4: (4,), 5: (3,), 6: (7,)}


def test_single_chip_needs_no_moves():
    for policy, kw in [("lowest", {}), ("random", {"seed": 0})]:
        final, trace = stabilize(initial_config(S2, 1), policy, **kw)
        assert final.as_dict() == {0: (1,)}
        assert trace == []


def test_script_replay_binary():
    final, trace = stabilize(initial_config(S2, 3), "script", script=BINARY_SCRIPT)
    assert final.as_dict() == BINARY_FINAL
    assert trace == BINARY_SCRIPT
    # smallest and largest chips land on the straight descents of the root
    assert final.at(straight_descendant(S2, 0, "left", 2)) == (1,)
    assert final.at(straight_descendant(S2, 0, "right", 2)) == (7,)


def test_script_replay_quaternary():
    final, _ = stabilize(initial_config(S4, 3), "script", script=QUAD_SCRIPT)
    assert final.as_dict() == QUAD_FINAL
    # chip 2 ends on layer 3, beside the bottom straight left descendant
    (where,) = [v for v, pile in final.as_dict().items() if pile == (2,)]
    assert layer(S4, where) == 3


def test_random_policy_needs_a_seed():
    with pytest.raises(ValueError):
        stabilize(initial_config(S2, 3), "random")


def test_unknown_policy():
    with pytest.raises(ValueError):
        stabilize(initial_config(S2, 3), "newest")


def test_random_policy_reproducible():
    a = stabilize(initial_config(S2, 3), "random", seed=7)
    b = stabilize(initial_config(S2, 3), "random", seed=7)
    assert a == b
    assert is_stable(a[0])
    assert a[0].as_dict() == {0: (5,), 1: (2,), 2: (6,), 3: (1,), 4: (3,), 5: (4,), 6: (7,)}


@pytest.mark.parametrize(
    "shape,ell,seed,fires,digest",
    [
        (S2, 7, 0, 522, "4b2d7ecf3e94772aed22a1a14eea5c7d87987e34cade1e5cac88640ceb87c726"),
        (S2, 7, 1, 522, "be58c085da3ed649115244e5723b78e9c1e5b693d535ab395498e1a7a5db29a5"),
        (S2, 7, 2, 522, "321757cb58e72caded0016acd36610ee4175246d541e04b68b163da199d88436"),
        (S2, 7, 3, 522, "b7223a054718ca564c95d3bdac4d933e030cd7175b2e8f59977b20e88ad8ad0f"),
        (S2, 7, 4, 522, "2f36d652f83c57583f4230048a1dd70414b52b2433aee4022a96f249778ec0e0"),
        (S3, 4, 1, 42, "7846ca78b75961027fc026aadebac047b943b59f3d4ae856954822c5c9fc0ba6"),
    ],
)
def test_seeded_random_traces_frozen(shape, ell, seed, fires, digest):
    """Whole seeded traces, as script text, stay byte for byte the same."""
    _, trace = stabilize(initial_config(shape, ell), "random", seed=seed)
    assert len(trace) == fires
    assert hashlib.sha256(format_script(trace).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "shape,ell,fires,digest",
    [
        (S2, 9, 3084, "55661d892438f3c69ee1d9ae43396a2c1bfe380dba171d818982db018a931079"),
        (S2, 10, 7181, "c0d314898dd1ead50442c7247afc708e88eabc2e185d7096713568adbb09b1ee"),
        (S3, 6, 731, "05064f910ecdc9924765042af08757b23e095fe2bc104480a6efa04b28520a0f"),
        (TreeShape(4), 5, 380, "0564e5e69dd0a105383e612f88790082ce9363df8e9995899379a5a0ed4c192f"),
    ],
)
def test_lowest_traces_frozen(shape, ell, fires, digest):
    """Whole `lowest` traces, as script text, stay byte for byte the same."""
    _, trace = stabilize(initial_config(shape, ell), "lowest")
    assert len(trace) == fires
    assert hashlib.sha256(format_script(trace).encode()).hexdigest() == digest


def test_script_errors():
    with pytest.raises(ScriptError, match="script illegal at step 0"):
        stabilize(initial_config(S2, 3), "script", script=[FiringMove(1, (1, 2, 3))])
    with pytest.raises(
        ScriptError, match="script illegal at step 1: wrong selection size: need k\\+1 = 3 chips, got 2"
    ):
        stabilize(initial_config(S2, 3), "script", script=[BINARY_SCRIPT[0], FiringMove(1, (1, 2))])
    with pytest.raises(ScriptError, match="script ended before stabilization"):
        stabilize(initial_config(S2, 3), "script", script=BINARY_SCRIPT[:2])
    with pytest.raises(ValueError):
        stabilize(initial_config(S2, 3), "script")


def test_relaxation_round_limit(monkeypatch):
    monkeypatch.setattr(engine, "_RELAX_ROUND_LIMIT", 3)
    with pytest.raises(StepLimitError, match="step limit exceeded in unlabeled relaxation"):
        unlabeled_simulate(S2, 31)


@pytest.mark.parametrize("seed", range(6))
def test_every_run_fires_the_same_odometer(seed):
    """Move counts per vertex do not depend on the firing order."""
    final, trace = stabilize(initial_config(S2, 3), "random", seed=seed)
    assert len(trace) == 6
    assert fires_by_vertex(trace) == unlabeled_fire_counts(S2, 7)
    assert {v: len(pile) for v, pile in final.as_dict().items()} == unlabeled_simulate(S2, 7)


@pytest.mark.parametrize("shape,ell", [(S2, 4), (S3, 3)])
def test_odometer_on_larger_trees(shape, ell):
    n = layer_start(shape, ell + 1)
    expected = unlabeled_fire_counts(shape, n)
    for seed in range(5):
        _, trace = stabilize(initial_config(shape, ell), "random", seed=seed)
        assert fires_by_vertex(trace) == expected


# ---------------------------------------------------------------------------
# the unlabeled oracle


def test_unlabeled_simulate_frozen():
    assert unlabeled_simulate(S2, 1) == {0: 1}
    assert unlabeled_simulate(S2, 7) == {v: 1 for v in range(7)}
    assert unlabeled_simulate(S4, 21) == {v: 1 for v in range(21)}
    assert unlabeled_simulate(S2, 10) == {0: 2, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1}


def test_unlabeled_fire_counts_frozen():
    assert unlabeled_fire_counts(S2, 7) == {0: 4, 1: 1, 2: 1}
    assert unlabeled_fire_counts(S2, 15) == {0: 11, 1: 4, 2: 4, 3: 1, 4: 1, 5: 1, 6: 1}
    assert unlabeled_fire_counts(S3, 13) == {0: 5, 1: 1, 2: 1, 3: 1}
    assert unlabeled_fire_counts(S2, 2) == {}


def test_unlabeled_profile_frozen():
    assert unlabeled_profile(S2, 7) == [1, 1, 1]
    assert unlabeled_profile(S2, 10) == [2, 2, 1]
    assert unlabeled_profile(S3, 13) == [1, 1, 1]
    assert unlabeled_profile(S2, 1) == [1]
    assert unlabeled_profile(S2, 2) == [2]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_profile_agrees_with_simulation(k):
    shape = TreeShape(k)
    for n in range(1, 61):
        profile = unlabeled_profile(shape, n)
        assert sum(c * layer_size(shape, d + 1) for d, c in enumerate(profile)) == n
        expected = {}
        for depth, per_vertex in enumerate(profile, start=1):
            for v in range(layer_start(shape, depth), layer_start(shape, depth + 1)):
                expected[v] = per_vertex
        assert unlabeled_simulate(shape, n) == expected


# ---------------------------------------------------------------------------
# the endgame


def test_endgame_start_accepts_the_canonical_shape():
    cfg = Configuration.from_dict(4, QUAD_ENDGAME_START)
    assert endgame_start(S4, 3, cfg) is cfg


def test_endgame_start_rejects_bad_shapes():
    bad = Configuration.from_dict(2, {0: [1, 2], 1: [3, 4], 2: [5, 6], 7: [7]})
    with pytest.raises(EndgameShapeError, match=r"offending vertices \[0, 7\]"):
        endgame_start(S2, 3, bad)


def test_run_waves_smallest_case():
    out = run_waves(Configuration.from_dict(2, {0: [1, 2, 3]}))
    assert out.as_dict() == {0: (2,), 1: (1,), 2: (3,)}


def test_run_waves_binary_three_layers():
    start = Configuration.from_dict(2, {0: [2, 3, 6], 1: [1, 5], 2: [4, 7]})
    assert run_waves(start).as_dict() == BINARY_FINAL


def test_run_waves_quaternary():
    start = Configuration.from_dict(4, QUAD_ENDGAME_START)
    assert run_waves(start).as_dict() == QUAD_WAVE_FINAL


def test_run_waves_rejects_non_endgame():
    spread = Configuration.from_dict(
        2, {0: [1, 2, 3], 1: [4, 5], 2: [6, 7], 3: [8], 4: [9], 5: [10], 6: [11]}
    )
    with pytest.raises(EndgameShapeError):
        run_waves(spread)


@pytest.mark.parametrize("shape,ell", [(S2, 2), (S2, 4), (S3, 3), (S4, 3)])
def test_wave_moves_replay_through_the_kernel(shape, ell):
    """The fires of the schedule, in wave order, are legal moves of the
    firing kernel that reach the outcome `run_lanes` computes."""
    network = WaveNetwork(shape, ell)
    vertices = [v for wave in range(1, ell) for v in range(layer_start(shape, ell - wave + 1))]
    assert len(vertices) == len(network.schedule)
    for seed in range(3):
        start = random_endgame_start(shape, ell, seed)
        wires = [c for _, pile in start.chips for c in pile]
        out = network.run_lanes(array(lane_code(max(wires)), wires))
        state = start
        for v, feed in zip(vertices, network.schedule):
            selected = tuple(sorted(wires[i] for i in feed))
            assert tuple(sorted(state.at(v))) == selected
            state = fire(state, FiringMove(v, selected))
            wires += selected
        assert state == stabilize(start, "lowest")[0]
        piles = collections.defaultdict(list)
        for v, c in zip(network.final_vertices, out):
            piles[v].append(c)
        assert state == Configuration.from_dict(shape.k, piles)


def test_wave_network_checks_readiness_when_compiled(monkeypatch):
    """A root fire that sent its median to child 1 would overload that child in wave 1."""
    monkeypatch.setattr(engine, "destinations", lambda k, v: tuple(d or 1 for d in destinations(k, v)))
    with pytest.raises(WaveError, match=r"^vertex 1 not ready in wave 1 \(holds 4 chips\)$"):
        WaveNetwork(S2, 3)


@pytest.mark.parametrize("k", range(2, 9))
def test_sorting_kernel_sorts_every_zero_one_input(k):
    """All 2^(k+1) 0-1 rows run as the lanes of one batch through the single
    root fire of a two-layer network, which deals its sorted chips out in
    `final_vertices` order.  By the 0-1 principle this shows that the
    compare-exchange network sorts any input."""
    network = WaveNetwork(TreeShape(k), 2)
    zero_one = list(product((0, 1), repeat=k + 1))
    out = network.run_lanes(array("B", [bit for row in zero_one for bit in row]))
    assert [tuple(out[i : i + k + 1]) for i in range(0, len(out), k + 1)] == [tuple(sorted(row)) for row in zero_one]


def _sorted_replay(network, row):
    """The network's outcome for one start row, by sorting each scheduled
    fire's input wires with `sorted` in place of the compare-exchanges."""
    wires = list(row)
    for feed in network.schedule:
        wires += sorted(wires[i] for i in feed)
    return network.final_wires(wires)


@pytest.mark.parametrize("code", ["B", "H", lane_code(2**31 - 1)])
def test_lanes_hold_values_up_to_their_guard_bit(code):
    """Rows of random values spanning the whole lane, both ends included, so
    that a borrow leaking from one lane into the next would change a row."""
    top = (1 << (8 * array(code).itemsize - 1)) - 1
    assert lane_code(top) == code
    rng = random.Random(top)
    network = WaveNetwork(S2, 4)
    rows = [[rng.choice((0, top, rng.randrange(top + 1))) for _ in range(network.first)] for _ in range(500)]
    out = network.run_lanes(array(code, [x for row in rows for x in row]))
    width = len(network.final_vertices)
    assert [tuple(out[i : i + width]) for i in range(0, len(out), width)] == [_sorted_replay(network, row) for row in rows]
    with pytest.raises(ValueError, match="guard bit"):
        network.run_lanes(array(code, [top + 1] * network.first))
    with pytest.raises(ValueError, match="not rows of 15 start wires"):
        network.run_lanes(array(code, [0] * (network.first + 1)))


def test_lane_code_refuses_values_beyond_32_bits():
    assert [lane_code(v) for v in (0, 127, 128, 32767, 32768)] == ["B", "B", "H", "H", lane_code(2**31 - 1)]
    assert array(lane_code(2**31 - 1)).itemsize == 4
    with pytest.raises(ValueError, match="32-bit lane"):
        lane_code(2**31)


def test_single_lane_run_on_labels_beyond_16_bits():
    """`run_waves` runs ranks, so its one lane is as wide as the chip count
    needs, whatever the size of the labels."""
    start = random_endgame_start(S3, 3, 4)
    for offset in (70_000, 2**40):
        big = Configuration.from_dict(3, {v: [c + offset for c in pile] for v, pile in start.chips})
        assert run_waves(big) == stabilize(big, "lowest")[0]
        assert run_waves(big).as_dict() == {v: tuple(c + offset for c in pile) for v, pile in run_waves(start).chips}


@pytest.mark.parametrize(
    "shape,ell", [(S2, 3), (S2, 4), (S3, 3), (TreeShape(5), 3), (TreeShape(6), 2), (TreeShape(7), 2)]
)
def test_waves_match_any_other_order(shape, ell):
    for seed in range(4):
        start = random_endgame_start(shape, ell, seed)
        by_waves = run_waves(start)
        by_lowest, _ = stabilize(start, "lowest")
        by_random, _ = stabilize(start, "random", seed=seed + 100)
        assert by_waves == by_lowest == by_random


def test_random_endgame_start():
    a = random_endgame_start(S2, 4, 5)
    b = random_endgame_start(S2, 4, 5)
    assert a == b
    endgame_start(S2, 4, a)
    assert a.labels() == tuple(range(1, 16))
    assert random_endgame_start(S2, 4, 6) != a


def test_endgame_start_counts():
    assert endgame_start_counts(S2, 2) == (3,)
    assert endgame_start_counts(S2, 3) == (3, 2, 2)
    assert endgame_start_counts(S3, 3) == (4, 3, 3, 3)
    with pytest.raises(ValueError, match="ell must be >= 2"):
        endgame_start_counts(S2, 1)


def test_random_endgame_start_deals_in_vertex_order():
    assert random_endgame_start(S2, 3, 0).as_dict() == {0: (2, 3, 5), 1: (1, 6), 2: (4, 7)}
    assert random_endgame_start(S3, 3, 4).as_dict() == {
        0: (9, 11, 12, 13), 1: (1, 6, 10), 2: (3, 7, 8), 3: (2, 4, 5)
    }
    with pytest.raises(ValueError, match="ell must be >= 2"):
        random_endgame_start(S2, 1, 0)


@pytest.mark.parametrize("k,chips", [(2, 7), (2, 100), (3, 1000), (4, 1)])
def test_one_relaxation_gives_counts_and_fires(k, chips):
    shape = TreeShape(k)
    assert unlabeled_relaxation(shape, chips) == (unlabeled_simulate(shape, chips), unlabeled_fire_counts(shape, chips))


# ---------------------------------------------------------------------------
# script files


def test_parse_and_format_round_trip():
    text = format_script(BINARY_SCRIPT)
    assert parse_script(text) == BINARY_SCRIPT
    assert text.endswith("\n")


def test_parse_script_skips_comments_and_blanks():
    moves = parse_script("# setup\n\nfire 0: 5 6 7  # first\n")
    assert moves == [FiringMove(0, (5, 6, 7))]


def test_parse_script_reports_line_numbers():
    with pytest.raises(ScriptError, match="line 2"):
        parse_script("fire 0: 1 2 3\nfire 1: x y z\n")
    with pytest.raises(ScriptError, match="line 1"):
        parse_script("ignite 0: 1 2 3")
