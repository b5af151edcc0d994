"""Structural properties, permutation flattening, and the construction replay."""

import hashlib
import itertools
import random

import pytest

from karyfire.analysis import (
    ChoiceError,
    ConstructionError,
    FlattenedPermutation,
    PropertyVerdict,
    check_ballot,
    check_minmax_descendants,
    check_zigzag_relation,
    flatten,
    inversions,
    max_inversions,
    replay_lower_bound_construction,
)
from karyfire.bounds import construction_layer_factor
from karyfire.engine import Configuration, initial_config, run_waves, stabilize
from karyfire.enumeration import enumerate_stable
from karyfire.tree import (
    TreeShape,
    children,
    is_left_child,
    is_right_child,
    parent,
    relative_index,
    straight_descendant,
)

S2 = TreeShape(2)

WORKED_BINARY_FINAL = Configuration.from_dict(
    2, {0: [3], 1: [2], 2: [6], 3: [1], 4: [5], 5: [4], 6: [7]}
)

# Unique wave outcome of the canonical 4-ary three-layer endgame start.
QUAD_FINAL = run_waves(
    Configuration.from_dict(
        4,
        {0: [9, 10, 11, 12, 13], 1: [1, 2, 3, 4], 2: [5, 6, 7, 8],
         3: [14, 15, 16, 17], 4: [18, 19, 20, 21]},
    )
)

# Construction replay outcome at four binary layers with one crossing chip
# per side (c=3, c'=13).
DEEP_REPLAY = {
    0: (8,), 1: (6,), 2: (12,), 3: (2,), 4: (7,), 5: (9,), 6: (14,),
    7: (1,), 8: (5,), 9: (4,), 10: (13,), 11: (3,), 12: (11,), 13: (10,), 14: (15,),
}


def binary_stable_set():
    return list(enumerate_stable(initial_config(S2, 3)).iter_stable())


# ---------------------------------------------------------------------------
# property checkers


def test_minmax_on_the_worked_example():
    verdict = check_minmax_descendants(WORKED_BINARY_FINAL)
    assert verdict.holds
    assert verdict.witnesses == ()
    assert WORKED_BINARY_FINAL.at(straight_descendant(S2, 0, "left", 2)) == (1,)
    assert WORKED_BINARY_FINAL.at(straight_descendant(S2, 0, "right", 2)) == (7,)


def test_minmax_on_a_single_chip():
    assert check_minmax_descendants(Configuration.from_dict(2, {0: [1]})).holds


def test_minmax_on_the_quaternary_example():
    assert check_minmax_descendants(QUAD_FINAL).holds
    assert QUAD_FINAL.at(0) == (11,)
    assert QUAD_FINAL.at(straight_descendant(TreeShape(4), 0, "left", 2)) == (1,)
    assert QUAD_FINAL.at(straight_descendant(TreeShape(4), 0, "right", 2)) == (21,)


def test_minmax_catches_a_misplaced_minimum():
    bad = Configuration.from_dict(2, {0: [1], 1: [2], 2: [3]})
    verdict = check_minmax_descendants(bad)
    assert not verdict.holds
    assert (0, 1) in verdict.witnesses


def test_verdicts_serialize():
    verdict = check_minmax_descendants(Configuration.from_dict(2, {0: [1], 1: [2], 2: [3]}))
    data = verdict.to_json_dict()
    assert data["property"] == "minmax_descendants"
    assert data["holds"] is False
    assert data["witnesses"]


@pytest.mark.parametrize("checker", [check_minmax_descendants, check_zigzag_relation, check_ballot])
def test_properties_hold_on_every_small_binary_outcome(checker):
    for config in binary_stable_set():
        assert checker(config).holds, config


def test_zigzag_relation_non_vacuous():
    """A four-layer outcome has direction-change vertices on layer three; the
    relation really constrains them, and swapping two chips breaks it."""
    good = Configuration.from_dict(2, {v: list(pile) for v, pile in DEEP_REPLAY.items()})
    assert check_zigzag_relation(good).holds
    swapped = dict(DEEP_REPLAY)
    swapped[5], swapped[11] = swapped[11], swapped[5]  # left-of-right vertex 5
    verdict = check_zigzag_relation(Configuration.from_dict(2, swapped))
    assert not verdict.holds
    assert (11, 9) in verdict.witnesses


def test_zigzag_relation_crafted_violation():
    bad = Configuration.from_dict(
        2, {0: [3], 1: [2], 2: [7], 3: [1], 4: [5], 5: [6], 6: [4], 11: [8], 12: [9]}
    )
    verdict = check_zigzag_relation(bad)
    assert not verdict.holds
    assert verdict.witnesses == ((11, 8),)


def test_ballot_on_worked_examples():
    assert check_ballot(WORKED_BINARY_FINAL).holds
    assert check_ballot(QUAD_FINAL).holds
    assert check_ballot(Configuration.from_dict(2, {0: [1]})).holds


def test_ballot_catches_rank_inversion():
    bad = Configuration.from_dict(
        2, {0: [3], 1: [2], 2: [6], 3: [4], 4: [5], 5: [1], 6: [7]}
    )
    verdict = check_ballot(bad)
    assert not verdict.holds
    assert (0, 2) in verdict.witnesses


def test_properties_on_sampled_four_layer_runs():
    for seed in range(8):
        final, _ = stabilize(initial_config(S2, 4), "random", seed=seed)
        assert check_minmax_descendants(final).holds
        assert check_zigzag_relation(final).holds
        assert check_ballot(final).holds


def random_configs(k, seed, count):
    """Seeded configurations with multi-chip piles, some of them sparse (the
    occupied vertices need not be closed under taking parents)."""
    rng = random.Random(seed)
    for _ in range(count):
        reach = rng.choice([k + 1, 4 * k, 40 * k])
        vertices = set(rng.sample(range(reach), rng.randint(1, min(20, reach))))
        if rng.random() < 0.5:
            for v in list(vertices):
                while v:
                    v = (v - 1) // k
                    vertices.add(v)
        sizes = {v: 1 if rng.random() < 0.6 else rng.randint(2, 4) for v in vertices}
        labels = iter(rng.sample(range(1, 400), sum(sizes.values())))
        yield Configuration.from_dict(k, {v: [next(labels) for _ in range(n)] for v, n in sizes.items()})


def chips_under(config, top):
    """Ascending chips in the subtree of `top`, found by subtree index."""
    return sorted(
        c for v, pile in config.chips if relative_index(config.shape, top, v) is not None for c in pile
    )


def reference_minmax(config):
    shape, piles = config.shape, config.as_dict()
    witnesses = []
    for v in piles:
        chips = chips_under(config, v)
        for side, chip in (("left", chips[0]), ("right", chips[-1])):
            depth = 0
            while straight_descendant(shape, v, side, depth + 1) in piles:
                depth += 1
            if chip not in piles[straight_descendant(shape, v, side, depth)]:
                witnesses.append((v, chip))
    return PropertyVerdict("minmax_descendants", not witnesses, tuple(witnesses))


def reference_zigzag(config):
    shape, piles = config.shape, config.as_dict()
    witnesses = []
    for s in piles:
        p = parent(shape, s)
        if p == 0 or is_left_child(shape, s) == is_left_child(shape, p):
            continue
        mirrored = is_right_child(shape, s)
        kids = [c for c in children(shape, s) if c in piles]
        if any(len(piles[v]) != 1 for v in [s, *kids]):
            continue
        chip = {v: piles[v][0] for v in [s, *kids]}
        left = [c for c in kids if is_left_child(shape, c)]
        right = [c for c in kids if is_right_child(shape, c)]
        ascending, others = (right, left) if mirrored else (left, right)
        bound = [chip[s]] + [chip[c] for c in others]
        for a, b in zip(ascending, ascending[1:]):
            if chip[a] >= chip[b]:
                witnesses.append((b, chip[b]))
        for c in ascending:
            if (chip[c] <= max(bound)) if mirrored else (chip[c] >= min(bound)):
                witnesses.append((c, chip[c]))
    return PropertyVerdict("zigzag_relation", not witnesses, tuple(witnesses))


def reference_ballot(config):
    shape = config.shape
    tops = set()
    for v, _ in config.chips:
        while v:
            v = parent(shape, v)
            tops.add(v)
    witnesses = []
    for v in sorted(tops):
        subs = [chips_under(config, c) for c in children(shape, v)]
        for a, b in itertools.combinations(range(shape.k), 2):
            for i in range(min(len(subs[a]), len(subs[b]))):
                if subs[a][i] >= subs[b][i]:
                    witnesses.append((v, subs[a][i]))
    return PropertyVerdict("ballot", not witnesses, tuple(witnesses))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "checker, reference",
    [
        (check_minmax_descendants, reference_minmax),
        (check_zigzag_relation, reference_zigzag),
        (check_ballot, reference_ballot),
    ],
    ids=["minmax", "zigzag", "ballot"],
)
def test_witnesses_match_a_definition_level_reference(checker, reference, k):
    violated = 0
    for config in random_configs(k, seed=40 + k, count=250):
        verdict = checker(config)
        assert verdict == reference(config), config
        violated += not verdict.holds
    assert violated >= 10  # the comparison covers witness lists, not only empty ones


# ---------------------------------------------------------------------------
# flattening


def test_flatten_binary_inorder():
    perm = flatten(WORKED_BINARY_FINAL)
    assert perm.sequence == (1, 2, 5, 3, 4, 6, 7)
    assert perm.rule == "inorder"
    assert perm.as_line() == "1,2,5,3,4,6,7"
    assert inversions(perm) == 2


def test_flatten_single_chip():
    assert flatten(Configuration.from_dict(2, {0: [1]})).sequence == (1,)


def test_flatten_quaternary_inorder():
    """Each vertex is read between its second and third child, which puts the
    root's chip dead center."""
    perm = flatten(QUAD_FINAL, "inorder")
    assert perm.sequence == (
        1, 2, 3, 4, 9, 5, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17, 13, 18, 19, 20, 21
    )
    assert perm.sequence.index(11) == 10
    assert inversions(perm) == 8


def test_flatten_quaternary_children_first():
    perm = flatten(QUAD_FINAL, "children_first")
    assert perm.sequence == (
        1, 2, 4, 9, 3, 5, 6, 8, 10, 7, 12, 14, 16, 17, 15, 13, 18, 20, 21, 19, 11
    )


def test_flatten_rejects_heavy_vertices():
    with pytest.raises(ValueError, match="vertex with multiple chips"):
        flatten(Configuration.from_dict(2, {0: [1, 2]}))


def test_flatten_rejects_unknown_rules():
    with pytest.raises(ValueError):
        flatten(WORKED_BINARY_FINAL, "preorder")


def reference_reading(config, rule):
    """Straight recursive reading: left children, the vertex, right children
    for inorder; every child, then the vertex, for children_first."""
    shape = config.shape
    split = shape.k // 2 if rule == "inorder" else shape.k
    piles = config.as_dict()
    live = set()
    for v in piles:
        while v not in live:
            live.add(v)
            if v == 0:
                break
            v = parent(shape, v)
    out = []

    def visit(v):
        if v not in live:
            return
        kids = children(shape, v)
        for c in kids[:split]:
            visit(c)
        out.extend(piles.get(v, ()))
        for c in kids[split:]:
            visit(c)

    visit(0)
    return tuple(out)


@pytest.mark.parametrize("rule", ["inorder", "children_first"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_inorder_matches_a_direct_recursion(k, rule):
    rng = random.Random(12)
    shape = TreeShape(k)
    for _ in range(50):
        vertices = {0}
        while len(vertices) < rng.randint(1, 15):
            v = rng.randrange(1, 20 * k)
            while v not in vertices:
                vertices.add(v)
                v = parent(shape, v)
        chips = rng.sample(range(1, 100), len(vertices))
        config = Configuration.from_dict(k, {v: [c] for v, c in zip(sorted(vertices), chips)})
        assert flatten(config, rule).sequence == reference_reading(config, rule)


# ---------------------------------------------------------------------------
# inversions


def test_inversions_frozen():
    assert inversions([]) == 0
    assert inversions([4]) == 0
    assert inversions([1, 2, 3]) == 0
    assert inversions([1, 2, 5, 3, 4, 6, 7]) == 2
    assert inversions(FlattenedPermutation((3, 2, 1), "inorder")) == 3


@pytest.mark.parametrize("n", [2, 5, 17, 60])
def test_reversed_permutation_maximizes_inversions(n):
    assert inversions(list(range(n, 0, -1))) == n * (n - 1) // 2


def test_inversions_against_quadratic_reference():
    rng = random.Random(99)
    for trial in range(1000):
        n = rng.randint(0, 100)
        if trial % 2:
            perm = rng.sample(range(1, 101), n)
        else:  # repeated values: only strictly larger earlier values count
            perm = rng.choices(range(1, rng.randint(1, 12) + 1), k=n)
        slow = sum(
            1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j]
        )
        assert inversions(perm) == slow


def test_max_inversions_small_binary():
    result = enumerate_stable(initial_config(S2, 3))
    count, witness = max_inversions(result, "inorder")
    assert count == 3
    assert witness.as_dict() == {0: (4,), 1: (2,), 2: (6,), 3: (1,), 4: (5,), 5: (3,), 6: (7,)}
    assert max_inversions(result, "children_first")[0] == 7


def test_max_inversions_reads_each_outcome_as_flatten_does():
    """On the (2,4) slice of the enumerate-k2 benchmark, the scan that reads
    every outcome in one reading order per set of occupied vertices finds the
    count and the canonically first witness that `flatten` gives."""
    start = Configuration.from_dict(2, {0: [12, 14, 15], 1: [1, 2, 4, 6, 8, 10], 2: [3, 5, 7, 9, 11, 13]})
    result = enumerate_stable(start)
    for rule, expected in (("inorder", 22), ("children_first", 34)):
        best = max(result.iter_stable(), key=lambda config: inversions(flatten(config, rule)))
        assert max_inversions(result, rule) == (expected, best)
        assert inversions(flatten(best, rule)) == expected


def test_max_inversions_singleton():
    result = enumerate_stable(Configuration.from_dict(2, {0: [1]}))
    assert max_inversions(result) == (0, Configuration.from_dict(2, {0: [1]}))


def test_max_inversions_refuses_truncation():
    result = enumerate_stable(initial_config(S2, 3), max_states=5)
    with pytest.raises(ValueError):
        max_inversions(result)


# ---------------------------------------------------------------------------
# the lower-bound construction replay


def test_replay_without_crossing_chips():
    config = replay_lower_bound_construction(2, 3, 0)
    assert config.as_dict() == {0: (4,), 1: (2,), 2: (6,), 3: (1,), 4: (3,), 5: (5,), 6: (7,)}


def test_replay_with_one_crossing_pair():
    config = replay_lower_bound_construction(2, 3, 1, (3,), (5,))
    assert config.as_dict() == {0: (4,), 1: (2,), 2: (6,), 3: (1,), 4: (5,), 5: (3,), 6: (7,)}


def test_replay_four_layer_walkthrough():
    config = replay_lower_bound_construction(2, 4, 1, (3,), (13,))
    assert config.as_dict() == DEEP_REPLAY
    assert config.at(0) == (8,)
    # chips under the left child of the root vs under the right child
    left = set()
    right = set()
    for v, pile in config.as_dict().items():
        u = v
        while u > 2:
            u = parent(S2, u)
        if u == 1:
            left.update(pile)
        elif u == 2:
            right.update(pile)
    assert left == {1, 2, 4, 5, 6, 7, 13}
    assert right == {3, 9, 10, 11, 12, 14, 15}


@pytest.mark.parametrize(
    "k,ell,stationary", [(2, 3, 4), (2, 4, 8), (3, 3, 5), (4, 3, 11)]
)
def test_stationary_chip_stays_at_the_root(k, ell, stationary):
    config = replay_lower_bound_construction(k, ell, 0)
    assert config.at(0) == (stationary,)


def all_replays(k, ell):
    """The outcome of every legal (i, c, c') choice, one per choice; the
    windows mirror the documented ranges."""
    n = (k**ell - 1) // (k - 1)
    lo, hi = k // 2, (k + 1) // 2
    m = (n - 1) // k * lo + 1
    outs = [replay_lower_bound_construction(k, ell, 0)]
    for i in range(1, lo + 1):
        for cs in itertools.combinations(range(lo + 2, m), i):
            for cps in itertools.combinations(range(m + 1, n - 2 * hi + i), i):
                outs.append(replay_lower_bound_construction(k, ell, i, cs, cps))
    return outs


def sha256_of_sorted_json(configs):
    return hashlib.sha256("\n".join(sorted(c.to_json() for c in configs)).encode()).hexdigest()


def test_every_choice_gives_a_distinct_outcome_binary():
    outs = all_replays(2, 4)
    assert len(outs) == 26
    assert sha256_of_sorted_json(outs) == "1dfbe229c6241311a4278fbd4cc39380139a356b968d13c264e010d076897396"
    for config in outs:
        assert config.at(0) == (8,)
        assert check_ballot(config).holds


def test_every_choice_gives_a_distinct_outcome_ternary():
    outs = all_replays(3, 3)
    assert len(outs) == 9
    assert sha256_of_sorted_json(outs) == "fc77ff87161d0f1586dc2b54047881e0aadfaa4014fa580d2a1ea4b557207414"


def test_every_choice_gives_a_distinct_outcome_quaternary():
    outs = all_replays(4, 3)
    assert len(outs) == 484
    assert {config.at(0) for config in outs} == {(11,)}
    assert sha256_of_sorted_json(outs) == "e4339ea20a2f27f97f49cba94e5bfd2393837997f8072dcd5e754279921afd30"


@pytest.mark.parametrize("k,ell", [(2, 4), (3, 3), (4, 3), (2, 5), (3, 4), (5, 3)])
def test_every_choice_gives_a_distinct_outcome_the_bound_counts(k, ell):
    """One level of the lower bound counts exactly the replay's choices, and
    no two choices reach the same outcome."""
    outs = all_replays(k, ell)
    assert len(outs) == len(set(outs)) == construction_layer_factor(k, ell)


@pytest.mark.parametrize(
    "args,digest",
    [
        ((2, 11, 0), "b8fcf4736ce78b1b75b1f414ac6590837f481fc005d0eac0bb2e60ff36d8699d"),
        ((2, 10, 1, (100,), (900,)), "84da10fcbabe6de631ffcadd282dc6dd8c73d9c49e6168875cd423859aabae37"),
        ((3, 5, 1, (3,), (70,)), "6c0198ae0e7f7773b8c52935be17adf55ca7ac1d036a4f5b4b663c1c0ee80c9f"),
        ((5, 3, 2, (5, 9), (16, 22)), "5e22f22215e1ddd9c1c854a619956577af59a1db06ec03e2cc6551211dbed272"),
    ],
)
def test_larger_replays_frozen(args, digest):
    config = replay_lower_bound_construction(*args)
    assert hashlib.sha256(config.to_json().encode()).hexdigest() == digest


def test_replay_choice_validation():
    with pytest.raises(ConstructionError, match="choice out of range"):
        replay_lower_bound_construction(2, 3, 5)
    with pytest.raises(ConstructionError, match="choice out of range"):
        replay_lower_bound_construction(2, 3, 1)  # needs one c and one c'
    with pytest.raises(ConstructionError, match="choice out of range"):
        replay_lower_bound_construction(2, 3, 1, (2,), (5,))  # c below the window
    with pytest.raises(ConstructionError, match="choice out of range"):
        replay_lower_bound_construction(2, 3, 1, (3,), (6,))  # c' above the window
    with pytest.raises(ConstructionError, match="ascending"):
        replay_lower_bound_construction(4, 3, 2, (5, 5), (12, 13))
    with pytest.raises(ValueError):
        replay_lower_bound_construction(2, 2, 0)


def test_a_choice_error_is_a_construction_error_and_a_value_error():
    with pytest.raises(ChoiceError) as info:
        replay_lower_bound_construction(2, 3, 1, (2,), (5,))
    assert isinstance(info.value, ConstructionError)
    assert isinstance(info.value, ValueError)
