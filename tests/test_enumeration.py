"""Exhaustive reachability search and everything layered on top of it."""

import hashlib
import io
import itertools
import json
import math
import random
import tracemalloc
from collections import defaultdict
from functools import cache

import pytest

from karyfire import enumeration
from karyfire.analysis import check_ballot, check_minmax_descendants, check_zigzag_relation
from karyfire.bounds import lower_bound_general, zigzag_bound
from karyfire.engine import (
    Configuration,
    destinations,
    fire,
    initial_config,
    lane_code,
    legal_moves,
    random_endgame_start,
    stabilize,
)
from karyfire.enumeration import (
    EnumerationTruncated,
    canonical_key,
    count_stable,
    dump_stable,
    enumerate_stable,
    subtree_orderings,
    verify_endgame_confluence,
)
from karyfire.tree import TreeShape, children, layer, layer_size, layer_start, parent

S2 = TreeShape(2)
S3 = TreeShape(3)

# A (2,4) start six root fires deep, the search of the enumerate-k2 benchmark.
SLICE = Configuration.from_dict(2, {0: [12, 14, 15], 1: [1, 2, 4, 6, 8, 10], 2: [3, 5, 7, 9, 11, 13]})

# All six stable outcomes of seven chips on the binary root, canonical order.
BINARY_STABLE = [
    {0: (3,), 1: (2,), 2: (6,), 3: (1,), 4: (4,), 5: (5,), 6: (7,)},
    {0: (3,), 1: (2,), 2: (6,), 3: (1,), 4: (5,), 5: (4,), 6: (7,)},
    {0: (4,), 1: (2,), 2: (6,), 3: (1,), 4: (3,), 5: (5,), 6: (7,)},
    {0: (4,), 1: (2,), 2: (6,), 3: (1,), 4: (5,), 5: (3,), 6: (7,)},
    {0: (5,), 1: (2,), 2: (6,), 3: (1,), 4: (3,), 5: (4,), 6: (7,)},
    {0: (5,), 1: (2,), 2: (6,), 3: (1,), 4: (4,), 5: (3,), 6: (7,)},
]


def brute_force_stable(config):
    """Reference search: plain BFS over configurations, no packing, no shortcut."""
    seen = {config}
    queue = [config]
    stable = set()
    while queue:
        state = queue.pop()
        moves = legal_moves(state)
        if not moves:
            stable.add(state)
            continue
        for move in moves:
            nxt = fire(state, move)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return stable


@cache
def three_layers(shape, shortcut, witnesses):
    """The search from the three-layer start, shared by the tests that read its counters."""
    return enumerate_stable(initial_config(shape, 3), endgame_shortcut=shortcut, record_witnesses=witnesses)


@cache
def slice_search():
    """The full search of the (2,4) slice, shared by the tests that read it."""
    return enumerate_stable(SLICE)


def unlabeled_levels(k, counts):
    """Reference: for each d, the chip-count vectors reachable in exactly d
    unlabeled fires (a fire moves one chip to the parent and one to each child)."""
    shape = TreeShape(k)
    level = {tuple(sorted(counts.items()))}
    levels = []
    while level:
        levels.append(level)
        nxt = set()
        for state in level:
            for v, c in state:
                if c <= k:
                    continue
                after = dict(state)
                after[v] -= k + 1
                for u in [parent(shape, v), *children(shape, v)]:
                    after[u] = after.get(u, 0) + 1
                nxt.add(tuple(sorted((u, c) for u, c in after.items() if c)))
        level = nxt
    return levels


def test_binary_three_layers_has_six_outcomes():
    result = enumerate_stable(initial_config(S2, 3))
    assert len(result.stable_keys) == 6
    assert not result.truncated
    assert [c.as_dict() for c in result.iter_stable()] == BINARY_STABLE


def test_matches_brute_force_search():
    result = enumerate_stable(initial_config(S2, 3))
    assert result.stable_set == brute_force_stable(initial_config(S2, 3))


@pytest.mark.parametrize("shortcut", [True, False])
def test_search_knobs_do_not_change_the_answer(shortcut):
    result = enumerate_stable(initial_config(S2, 3), endgame_shortcut=shortcut)
    assert sorted(canonical_key(c) for c in result.stable_set) == sorted(
        canonical_key(Configuration.from_dict(2, d)) for d in BINARY_STABLE
    )


def _random_start(rng):
    """A small k = 2 or k = 3 start with at least one vertex that can fire."""
    k = rng.choice((2, 3))
    n = rng.randint(k + 1, 2 * k + 3)
    labels = rng.sample(range(1, 2 * n + 1), n)
    spots = range(k + 1)  # the root and its children
    chips = {rng.choice(spots): labels[: k + 1]}
    for c in labels[k + 1 :]:
        chips.setdefault(rng.choice(spots), []).append(c)
    return Configuration.from_dict(k, chips)


def test_random_starts_match_brute_force_search():
    rng = random.Random(20261018)
    starts = [_random_start(rng) for _ in range(40)]
    starts += [random_endgame_start(S2, 3, seed) for seed in range(5)]
    for start in starts:
        expected = brute_force_stable(start)
        for shortcut in (True, False):
            assert enumerate_stable(start, endgame_shortcut=shortcut).stable_set == expected, start


@pytest.mark.parametrize("shape, ell", [(S2, 4), (S2, 5), (S3, 3), (TreeShape(4), 3), (S2, 2)])
def test_endgame_starts_collapse_to_the_wave_outcome(shape, ell):
    """The search queues an endgame start like any birth and collapses it
    in the first level's flush, firing the wave network on ranks; the
    outcome must be what the firing kernel reaches, and its witness must
    replay there."""
    for seed in range(3):
        start = random_endgame_start(shape, ell, seed)
        result = enumerate_stable(start, record_witnesses=True)
        (outcome,) = result.stable_set
        assert outcome == stabilize(start, "lowest")[0], (shape.k, ell, seed)
        assert (result.states_explored, result.memo_hits, result.level_widths) == (2, 0, (1,))
        state = start
        for move in result.witness_trace(outcome):
            state = fire(state, move)
        assert state == outcome


def test_endgame_start_with_more_ranks_than_a_byte_holds():
    """An endgame start of 273 chips has ranks beyond a byte, so it
    collapses in 16-bit lanes."""
    start = random_endgame_start(TreeShape(16), 3, 0)
    assert start.n_chips == 273
    result = enumerate_stable(start)
    assert result.stable_set == {stabilize(start, "lowest")[0]}


@pytest.mark.parametrize("ell, n_chips", [(7, 127), (8, 255), (9, 511)])
def test_deep_binary_endgame_starts_on_both_outcome_keys(ell, n_chips):
    """The lane-width boundary: 127 chips have ranks up to 126, the largest
    that an 8-bit lane holds below its guard bit, and 255 or 511 chips
    collapse in 16-bit lanes.  Either way the outcome is the one
    `stabilize` reaches and its witness replays through `fire`."""
    start = random_endgame_start(S2, ell, 7)
    assert start.n_chips == n_chips
    assert lane_code(n_chips - 1) == ("B" if n_chips <= 128 else "H")
    result = enumerate_stable(start, record_witnesses=True)
    assert result.stable_set == {stabilize(start, "lowest")[0]}
    (outcome,) = result.stable_set
    state = start
    for move in result.witness_trace(outcome):
        state = fire(state, move)
    assert state == outcome


@pytest.mark.parametrize("k, outcomes", [(4, 24), (5, 74)])
def test_endgame_successors_collapse_when_born(k, outcomes):
    """A start one root fire before the endgame shape: 2k+1 chips on the
    root and k-1 on each child, dealt in label order.  Every successor is
    born with the endgame shape and collapses at once."""
    chips = {0: range(1, 2 * k + 2)}
    for j in range(1, k + 1):
        first = 2 * k + 2 + (j - 1) * (k - 1)
        chips[j] = range(first, first + k - 1)
    start = Configuration.from_dict(k, chips)
    born = enumerate_stable(start, record_witnesses=True)
    expanded = enumerate_stable(start, endgame_shortcut=False)
    assert born.stable_set == expanded.stable_set
    assert len(born.stable_keys) == outcomes
    assert len(born.level_widths) == 2
    for target in born.stable_set:
        state = start
        for move in born.witness_trace(target):
            state = fire(state, move)
        assert state == target


@pytest.mark.parametrize("shortcut, counters", [(True, (19475, 220167)), (False, (27903, 226363))])
def test_ternary_three_layers_counters(shortcut, counters):
    """Pinned (3,3) counters; recording witnesses changes none of them."""
    plain, traced = (three_layers(S3, shortcut, witnesses) for witnesses in (False, True))
    for result in (plain, traced):
        assert len(result.stable_keys) == 744
        assert (result.states_explored, result.memo_hits) == counters
        assert not result.truncated
    assert traced.stable_keys == plain.stable_keys
    assert traced.level_widths == plain.level_widths


def test_ternary_three_layers_structure():
    """All three structural checks hold on every (3,3) outcome, and the exact
    count lies between the general lower bound and the zigzag bound."""
    result = three_layers(S3, True, False)
    for config in result.iter_stable():
        for check in (check_minmax_descendants, check_zigzag_relation, check_ballot):
            assert check(config).holds, (check.__name__, config)
    low, high = lower_bound_general(3, 3).value, zigzag_bound(3, 3).value
    assert (low, len(result.stable_keys), high) == (9, 744, 369600)
    assert low <= len(result.stable_keys) <= high


def test_binary_four_layer_slice_counters():
    """A (2,4) start six root fires deep: child fires, root fires and the
    four-layer endgame collapse all run in one search."""
    result = slice_search()
    assert not result.truncated
    assert len(result.stable_keys) == 950
    assert (result.states_explored, result.memo_hits) == (103618, 418940)
    assert result.level_widths == (1, 41, 540, 3799, 11532, 29419, 57336)
    keys = sorted(canonical_key(c) for c in result.stable_set)
    assert hashlib.sha256(b"\n".join(keys)).hexdigest().startswith("b04d30c46bbae844")


# The (2,5) endgame counts with one fire at vertex 4 undone, labels dealt in
# vertex order.  A root fire can bypass the endgame shape from here, so a
# stable state can first be reached as a collapse outcome and meet the
# search again later as an ordinary level member.
BYPASS = Configuration.from_dict(
    2,
    {
        0: [1, 2, 3], 1: [4], 2: [5, 6], 3: [7, 8], 4: range(9, 14), 5: [14, 15], 6: [16, 17],
        7: [18, 19], 8: [20, 21], 9: [22], 10: [23], 11: [24, 25], 12: [26, 27], 13: [28, 29], 14: [30, 31],
    },
)


def test_a_stable_state_reached_by_collapse_and_by_firing_counts_once():
    """A level member that a collapse already produced is a memo hit, not a
    second state."""
    fast, slow = (enumerate_stable(BYPASS, endgame_shortcut=shortcut) for shortcut in (True, False))
    assert fast.stable_set == slow.stable_set
    assert len(fast.stable_keys) == 2
    assert (fast.states_explored, fast.memo_hits) == (11751, 43888)
    assert not fast.truncated


def witness_digest(result):
    """SHA-256 over every outcome's witness trace, in canonical order."""
    digest = hashlib.sha256()
    for config in result.iter_stable():
        trace = [[move.vertex, list(move.selected)] for move in result.witness_trace(config)]
        digest.update(json.dumps(trace).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "search, digest",
    [
        (lambda: enumerate_stable(SLICE, record_witnesses=True),
         "9763bb3808b07111161bf355607dc86a940dd78cc1f6509746f927c1f1858aec"),
        (lambda: three_layers(S3, True, True), "9e2e0d26cc5a78d43cb3db95c9b8d94be835cf01a6b5a502063eb9314e5b9da7"),
    ],
    ids=["slice", "ternary-three-layers"],
)
def test_witness_traces_frozen(search, digest):
    """The order in which a level's states are popped picks each witness:
    the first parent to reach a state, and the first queued endgame state
    to reach an outcome.  Frozen traces pin that order."""
    assert witness_digest(search()) == digest


@pytest.mark.parametrize("shortcut", [True, False])
def test_ternary_witnesses_replay_through_the_kernel(shortcut):
    """Each root fire is generated once per set of shed chips; the recorded
    witnesses must still replay to their outcomes, and the stable set must
    not depend on the shortcut."""
    start = initial_config(S3, 3)
    result = three_layers(S3, shortcut, True)
    for target in result.stable_set:
        state = start
        for move in result.witness_trace(target):
            state = fire(state, move)
        assert state == target
    assert result.stable_keys == three_layers(S3, not shortcut, False).stable_keys


def test_root_witnesses_take_the_first_selection():
    """A recorded root fire is the lexicographically first selection that
    leads from its parent to its child."""
    result = enumerate_stable(initial_config(S2, 3), endgame_shortcut=False, record_witnesses=True)
    checked = 0
    for key, (parent_key, move) in result.witnesses.items():
        if move is None or move[0] != 0:
            continue
        parent = enumeration._decode(parent_key, result.k, result.labels, result.bits)
        child = enumeration._decode(key, result.k, result.labels, result.bits)
        _, sel = move
        first = next(m for m in legal_moves(parent) if m.vertex == 0 and fire(parent, m) == child)
        assert first.selected == tuple(result.labels[r] for r in sel)
        checked += 1
    assert checked > 10


def test_binary_stable_set_is_closed_under_mirror_complement():
    """For even k, reflecting the tree and replacing chip c by N+1-c maps
    the stable set onto itself."""
    result = enumerate_stable(initial_config(S2, 3))
    n = 7

    def mirror(v):
        first = layer_start(S2, layer(S2, v))
        return first + layer_size(S2, layer(S2, v)) - 1 - (v - first)

    image = {
        Configuration.from_dict(2, {mirror(v): [n + 1 - c for c in pile] for v, pile in config.chips})
        for config in result.stable_set
    }
    assert image == result.stable_set


def test_memoization_is_hit():
    result = enumerate_stable(initial_config(S2, 3), endgame_shortcut=False)
    assert result.memo_hits > 0
    assert result.states_explored > 0


def test_count_stable():
    assert count_stable(S2, 3) == 6
    assert count_stable(S2, 1) == 1
    for k in (2, 3, 4, 5):
        assert count_stable(TreeShape(k), 2) == 1


def test_enumerating_a_stable_start():
    start = Configuration.from_dict(2, {0: (1,)})
    result = enumerate_stable(start, record_witnesses=True)
    assert result.stable_set == {start}
    assert result.states_explored == 1
    assert result.witness_trace(start) == []


def test_truncation_by_states():
    result = enumerate_stable(initial_config(S2, 3), max_states=5)
    assert result.truncated
    with pytest.raises(EnumerationTruncated):
        count_stable(S2, 3, max_states=5)


@pytest.mark.parametrize("max_states", [1, 2, 100, 1000, 2500, 5000, 7500, 10000, 15000, 19474])
def test_truncated_searches_find_part_of_the_stable_set(max_states):
    """Any state budget below the 19,475 states of the (3,3) search truncates
    it, wherever the cut falls, and leaves only true stable configurations."""
    result = enumerate_stable(initial_config(S3, 3), max_states=max_states)
    assert result.truncated
    assert result.stable_keys <= three_layers(S3, True, False).stable_keys
    with pytest.raises(EnumerationTruncated):
        count_stable(S3, 3, max_states=max_states)


def test_state_limit_stops_a_parent_during_its_fire():
    """The (2,9) root fire has C(511, 2) = 130,305 successors; a limit of 10
    states ends the search inside that one fire instead of after it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = enumerate_stable(initial_config(S2, 9), max_states=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert result.truncated
    assert result.states_explored == 1
    assert peak < 16 * 2**20


@pytest.mark.parametrize("shape, ell, max_states", [(S2, 4, 10), (S2, 4, 90), (S3, 3, 100), (S2, 10, 10)])
def test_a_parent_cut_during_its_fire_counts_only_the_successors_it_generated(monkeypatch, shape, ell, max_states):
    """Each limit falls inside the start's root fire, whose successors are all
    new, so no memo hit is counted.  The surplus root selections count as memo
    hits only once every fire of the parent has run, so the partial memo hits
    stay within the successors generated.  A successor is generated when it
    is looked up in a set of the next level; the sets of the search are
    swapped for ones that count those lookups."""
    generated = 0

    class CountingSet(set):
        def __contains__(self, item):
            nonlocal generated
            generated += 1
            return super().__contains__(item)

    monkeypatch.setattr(enumeration, "set", CountingSet, raising=False)
    result = enumerate_stable(initial_config(shape, ell), max_states=max_states)
    assert result.truncated
    assert result.states_explored == 1
    assert generated == max_states
    assert result.memo_hits <= generated
    assert result.memo_hits == 0


@pytest.mark.parametrize("k", range(2, 7))
def test_root_leavers_match_the_selections_they_stand_for(k):
    """The flags mark the k-subsets that some root selection sheds (all but
    its median, at sorted position k//2), and the closed-form surplus counts
    the selections beyond one per shed subset."""
    for c in range(k, 16):
        shed, surplus = enumeration._root_leavers(k, c)
        leavers = {sel[: k // 2] + sel[k // 2 + 1 :] for sel in itertools.combinations(range(c), k + 1)}
        assert list(shed) == [p in leavers for p in itertools.combinations(range(c), k)]
        assert surplus == math.comb(c, k + 1) - len(leavers) == math.comb(c, k + 1) - sum(shed)
        assert sum(shed) == math.comb(c - 1, k)


@pytest.mark.parametrize("bits", range(1, 17))
def test_lane_test_marks_the_chips_at_a_vertex(bits):
    """`_zero_lanes(state ^ v * ones, ...)` sets the guard bit of exactly
    the lanes that hold v, checked against a plain decode on random states,
    and `_guard_ranks` reads those lanes back."""
    rng = random.Random(bits)
    top = (1 << bits) - 1
    for n in (1, 2, 15, 40):
        ones, low, guards = enumeration._lane_masks(n, bits)
        assert low & guards == 0 and low | guards == (1 << n * bits) - 1
        for _ in range(20):
            lanes = [rng.choice((0, top, rng.randint(0, top))) for _ in range(n)]
            state = sum(u << (r * bits) for r, u in enumerate(lanes))
            for v in {*lanes, rng.randint(0, top), 0, top}:
                marks = enumeration._zero_lanes(state ^ v * ones, low, guards)
                at_v = [r for r, u in enumerate(lanes) if u == v]
                assert marks == sum(1 << (r * bits + bits - 1) for r in at_v)
                assert enumeration._guard_ranks(marks, bits) == at_v


def reference_deltas(k, v, pile, bits):
    """Each fire of the ascending ranks `pile` at v, as what it adds to a
    state, in `combinations` order; at the root, one per set of shed chips,
    in `combinations` order of the shed sets."""
    dests = list(destinations(k, v))
    if v:
        return [sum((d - v) << (r * bits) for r, d in zip(sel, dests)) for sel in itertools.combinations(pile, k + 1)]
    shed = {sel[: k // 2] + sel[k // 2 + 1 :] for sel in itertools.combinations(pile, k + 1)}
    del dests[k // 2]
    return [
        sum(d << (r * bits) for r, d in zip(sel, dests)) for sel in itertools.combinations(pile, k) if sel in shed
    ]


def filled(table, size):
    """The table of `size` deltas, read through `read`, which builds it a
    chunk at a time: 16 deltas first, then as many as the table holds.  A
    read cut short, as a search cut by its state limit leaves it, is read
    again from the start."""
    list(itertools.islice(table.read(), 20))
    assert len(table) == min(32, size)
    edge = enumeration._FIRST_CHUNK
    for read, _ in enumerate(table.read(), 1):
        if read > edge:
            edge *= 2
        assert len(table) == min(max(edge, 32), size)
    assert table.rest is None
    return list(table)


@pytest.mark.parametrize("k", range(2, 6))
def test_fire_tables_hold_each_selection_in_combinations_order(k):
    """A fire table, built chunk by chunk, equals the deltas of the pile's
    selections one at a time, at the root and away from it."""
    rng = random.Random(k)
    bits, n = 6, 24
    ones, low, guards = enumeration._lane_masks(n, bits)
    for v in (0, 1, k, k + 1):
        fire = enumeration._FireDeltas(k, v, bits, ones)
        for size in (k + 1, k + 2, 2 * k + 3, 16):
            pile = sorted(rng.sample(range(n), size))
            marks = sum(1 << (r * bits + bits - 1) for r in pile)
            shed = enumeration._root_leavers(k, size)[0] if v == 0 else None
            table = fire.table(marks, shed)
            assert fire.tables[marks] is table and len(table) == 0
            expected = reference_deltas(k, v, pile, bits)
            assert filled(table, len(expected)) == expected, (v, pile)


@pytest.mark.parametrize(
    "start",
    [initial_config(S2, 3), Configuration.from_dict(3, {0: range(1, 12), 1: [12, 13], 3: [14]}), SLICE],
    ids=["2-3", "ternary", "slice"],
)
def test_every_table_of_a_search_matches_its_pile(start):
    """The tables a full search leaves behind hold, for the pile their
    guard mask names, every fire's delta in order, and piles that share a
    selection share its int."""
    search = enumeration._Search(start, 10**8, 10**7, True, False)
    level = {search.start_counts: {search.start_key}}
    while level:
        level = search.expand(level)
    bits, n = search.bits, search.n_chips
    tables = 0
    for v, fire in search.deltas.items():
        shared = {id(delta) for delta in fire.values()}
        for marks, table in fire.tables.items():
            pile = [r for r in range(n) if marks >> (r * bits + bits - 1) & 1]
            assert table.rest is None
            assert list(table) == reference_deltas(search.shape.k, v, pile, bits)
            assert {id(delta) for delta in table} <= shared
            tables += 1
    assert tables > 1


# Counters and a digest of the witnesses of (2,9) searches cut in the start's
# root fire, at each of its first chunk edges and one either side (table
# lengths 16, 32 and 64), frozen from the search that looked up one delta per
# selection.
CHUNK_EDGE_WITNESSES = {
    15: "1c5f934792429143", 16: "7d26fc9274efd356", 17: "509874ffd4b35bd7",
    31: "a6ee3b4532314b60", 32: "24f7a4b3547a0f1a", 33: "aae9c004f5d63545",
    63: "4f612769272b5521", 64: "32ab744246984757", 65: "2abd61b862857e9e",
}


@pytest.mark.parametrize("max_states", sorted(CHUNK_EDGE_WITNESSES))
def test_a_cut_at_a_chunk_edge_counts_as_before(max_states):
    assert enumeration._FIRST_CHUNK == 16
    result = enumerate_stable(initial_config(S2, 9), max_states=max_states, record_witnesses=True)
    assert (result.states_explored, result.memo_hits, result.level_widths) == (1, 0, (1,))
    assert result.truncated and not result.stable_keys
    assert len(result.witnesses) == max_states
    digest = hashlib.sha256(repr(list(result.witnesses.items())).encode()).hexdigest()
    assert digest[:16] == CHUNK_EDGE_WITNESSES[max_states]


def test_every_cut_of_the_first_400_states_counts_as_before():
    """The (2,4) search cut at each of its first 400 states: the counters,
    the stable set and the witnesses in the order they were recorded,
    frozen from the search that looked up one delta per selection.  These
    cuts fall inside fire tables still being built and inside complete
    ones, with memo hits."""
    digest = hashlib.sha256()
    for max_states in range(1, 401):
        result = enumerate_stable(initial_config(S2, 4), max_states=max_states, record_witnesses=True)
        assert result.truncated
        digest.update(repr((
            result.states_explored, result.memo_hits, result.level_widths,
            sorted(result.stable_keys), list(result.witnesses.items()),
        )).encode())
    assert digest.hexdigest() == "0a68a3e7d21c1e2cbaab53f370370dcf4bcaa58c7c41d2fb6ec5c1741802d587"


def test_truncation_by_stable_count():
    result = enumerate_stable(initial_config(S2, 3), max_stable=2)
    assert result.truncated
    assert len(result.stable_keys) == 3


@pytest.mark.parametrize("shape, max_stable", [(S2, 0), (S2, 5), (S3, 0), (S3, 2), (S3, 50), (S3, 500)])
def test_stable_limit_holds_when_one_parent_collapses_into_many(shape, max_stable):
    """A flush checks the stable count after every new outcome, so a search
    stops one past the limit even when one parent's successors collapse
    to many outcomes."""
    result = enumerate_stable(initial_config(shape, 3), max_stable=max_stable)
    assert result.truncated
    assert len(result.stable_keys) == max_stable + 1


@pytest.mark.parametrize("max_stable", [100, 500])
def test_stable_limit_cuts_a_batch_from_many_parents(max_stable):
    """On the (2,4) slice the limit falls inside one batch of endgame states
    queued by many parents; the flush still stops one outcome past it."""
    assert enumeration._BATCH_LANES < 57336  # the endgame level spans several batches
    result = enumerate_stable(SLICE, max_stable=max_stable, record_witnesses=True)
    assert result.truncated
    assert len(result.stable_keys) == max_stable + 1
    assert result.stable_keys <= slice_search().stable_keys
    parents = {result.witnesses[result.witnesses[key][0]][0] for key in result.stable_keys}
    assert len(parents) > 1


def test_truncated_results_refuse_projection():
    result = enumerate_stable(initial_config(S2, 3), max_states=5)
    with pytest.raises(ValueError):
        subtree_orderings(result, 0)


def test_witnesses_replay_through_the_kernel():
    result = enumerate_stable(initial_config(S2, 3), record_witnesses=True)
    for target in result.iter_stable():
        state = initial_config(S2, 3)
        trace = result.witness_trace(target)
        assert len(trace) == 6
        for move in trace:
            state = fire(state, move)
        assert state == target


def test_witness_trace_refuses_configurations_the_search_never_saw():
    result = enumerate_stable(initial_config(S2, 3), record_witnesses=True)
    strangers = (
        {0: [1, 2, 3, 4, 5, 6, 8]},  # a label the search never saw
        {0: [1, 2, 3, 4, 5, 6], 40: [7]},  # a vertex beyond every reachable one
    )
    for chips in strangers:
        with pytest.raises(ValueError, match="no witness recorded"):
            result.witness_trace(Configuration.from_dict(2, chips))
    with pytest.raises(ValueError, match="no witness recorded"):
        result.witness_trace(Configuration.from_dict(3, {0: range(1, 8)}))


def test_level_widths_count_every_state_once():
    result = three_layers(S3, False, False)
    assert result.level_widths == (1, 220, 5124, 13386, 1363, 3470, 2851, 744, 744)
    assert sum(result.level_widths) == result.states_explored == 27903


@pytest.mark.parametrize("shape", [S2, S3])
def test_levels_project_onto_the_unlabeled_levels(shape):
    """Level d holds exactly the labeled states whose chip counts are
    reachable in d unlabeled fires (the abelian property)."""
    start = initial_config(shape, 3)
    result = three_layers(shape, False, True)
    depth = {result.start_key: 0}
    for key, (parent_key, _) in result.witnesses.items():  # parents are recorded first
        depth[key] = depth[parent_key] + 1
    levels = defaultdict(list)
    for key, d in depth.items():
        levels[d].append(enumeration._decode(key, result.k, result.labels, result.bits))
    assert [len(levels[d]) for d in range(len(levels))] == list(result.level_widths)
    expected = unlabeled_levels(shape.k, {0: start.n_chips})
    assert len(expected) == len(levels)
    for d, configs in levels.items():
        assert {tuple((v, len(pile)) for v, pile in c.chips) for c in configs} == expected[d], d


def test_witnesses_off_by_default():
    result = enumerate_stable(initial_config(S2, 3))
    with pytest.raises(ValueError, match="witnesses were not recorded"):
        result.witness_trace(next(result.iter_stable()))


def test_subtree_orderings():
    result = enumerate_stable(initial_config(S2, 3))
    assert len(subtree_orderings(result, 0)) == 6
    # every outcome ranks the left subtree the same way: middle at the top,
    # smallest at the left leaf, largest at the right leaf
    assert subtree_orderings(result, 1) == {((0, (2,)), (1, (1,)), (2, (3,)))}
    assert subtree_orderings(result, 2) == {((0, (2,)), (1, (1,)), (2, (3,)))}


def test_subtree_orderings_two_layers():
    result = enumerate_stable(initial_config(S3, 2))
    assert len(subtree_orderings(result, 0)) == 1


def test_canonical_key_orders_like_iter_stable():
    result = enumerate_stable(initial_config(S2, 3))
    keys = [canonical_key(c) for c in result.iter_stable()]
    assert keys == sorted(keys)
    assert canonical_key(Configuration.from_dict(2, {0: [1]})) == canonical_key(
        Configuration.from_dict(2, {0: (1,)})
    )


def test_state_packing_limit(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("a state was expanded before the size check")

    monkeypatch.setattr(enumeration._Search, "expand", no_expansion)
    for chips in ({0: [1, 2], 70000: [3]}, {0: [4, 5, 6], 40000: [1, 2, 3]}):
        with pytest.raises(ValueError, match="16-bit"):
            enumerate_stable(Configuration.from_dict(2, chips))


@pytest.mark.parametrize("shape,ell,seeds", [(S2, 3, range(20)), (S3, 3, range(10))])
def test_endgame_confluence(shape, ell, seeds):
    for seed in seeds:
        assert verify_endgame_confluence(random_endgame_start(shape, ell, seed))


def test_endgame_confluence_binary_four_layers():
    assert verify_endgame_confluence(random_endgame_start(S2, 4, 0))


def test_confluence_undecided_when_the_search_is_truncated():
    with pytest.raises(EnumerationTruncated, match="confluence undecided"):
        verify_endgame_confluence(random_endgame_start(S3, 3, 0), max_states=5)


def test_confluence_requires_an_endgame_shape():
    from karyfire.engine import EndgameShapeError

    with pytest.raises(EndgameShapeError):
        verify_endgame_confluence(initial_config(S2, 3))


def test_each_stable_configuration_is_rendered_once(monkeypatch):
    """Sorting, iterating, dumping and keying the stable set again reuse one
    JSON rendering per configuration."""
    from karyfire import engine

    result = enumerate_stable(initial_config(S3, 3))
    renders = []
    dumps = json.dumps
    monkeypatch.setattr(engine.json, "dumps", lambda *a, **kw: renders.append(1) or dumps(*a, **kw))
    dump_stable(result, io.StringIO())
    keys = [canonical_key(c) for c in result.iter_stable()]
    assert keys == sorted(keys)
    assert len(renders) == len(keys) + 1 == 745  # and the summary record


def test_dump_stable_format():
    result = enumerate_stable(initial_config(S2, 3))
    buf = io.StringIO()
    dump_stable(result, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 7
    configs = [json.loads(line) for line in lines[:6]]
    assert [Configuration.from_json_dict(d).as_dict() for d in configs] == BINARY_STABLE
    summary = json.loads(lines[-1])
    assert summary["type"] == "summary"
    assert summary["format_version"] == 1
    assert summary["stable"] == 6
    assert summary["truncated"] is False
    assert summary["states_explored"] > 0
    assert summary["level_widths"] == [1, 15, 36]
