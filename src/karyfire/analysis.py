"""Structural checks on stable configurations and the flattening machinery.

Three checkable properties of stable configurations: extreme chips sitting
at the bottom straight descendants, the ordering relation along alternating
paths, and the rank-domination (ballot) property between sibling subtrees.
Plus: flattening a one-chip-per-vertex configuration into a permutation,
inversion counting, and a step-by-step replay of the lower-bound
construction with its symmetry requirements checked at run time.
"""

from __future__ import annotations

from .bounds import construction_windows, n_chips
from .engine import (
    Configuration,
    EngineError,
    _apply,
    _build,
    destinations,
    initial_config,
    is_stable,
    stabilize,
)
from .tree import TreeShape, VertexId, _Frozen, embed_vertex, is_left_child, is_right_child, parent


class ConstructionError(EngineError):
    """A lower-bound construction replay got an invalid choice or lost symmetry."""


class ChoiceError(ConstructionError, ValueError):
    """A construction choice (i, c or c') lies outside its window."""


class PropertyVerdict(_Frozen):
    """Outcome of one structural check, with violating (vertex, chip) pairs."""

    property: str
    holds: bool
    witnesses: tuple[tuple[VertexId, int], ...]
    _fields = ("property", "holds", "witnesses")

    def __init__(self, property: str, holds: bool, witnesses: tuple[tuple[VertexId, int], ...] = ()) -> None:
        object.__setattr__(self, "property", property)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witnesses", witnesses)

    def to_json_dict(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "witnesses": [list(w) for w in self.witnesses],
        }


class FlattenedPermutation(_Frozen):
    """Left-to-right reading of a one-chip-per-vertex stable configuration."""

    sequence: tuple[int, ...]
    rule: str
    _fields = ("sequence", "rule")

    def __init__(self, sequence: tuple[int, ...], rule: str) -> None:
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "rule", rule)

    def as_line(self) -> str:
        return ",".join(map(str, self.sequence))


# ---------------------------------------------------------------------------
# property checks


def _subtree_chips(config: Configuration) -> dict[VertexId, list[int]]:
    """Ascending chips under each vertex that has an occupied descendant
    (itself included).  A child's index exceeds its parent's, so one sweep
    from the deepest vertex up hands every finished subtree to its parent."""
    k = config.k
    under = {v: list(pile) for v, pile in config.chips}
    for v in list(under):
        while v and (v := (v - 1) // k) not in under:
            under[v] = []
    for v in sorted(under, reverse=True):
        under[v].sort()
        if v:
            under[(v - 1) // k] += under[v]
    return under


def _bottom_straight(shape: TreeShape, piles: dict, v: VertexId, slot: int) -> VertexId:
    while (nxt := shape.k * v + slot) in piles:
        v = nxt
    return v


def check_minmax_descendants(config: Configuration) -> PropertyVerdict:
    """Each occupied subtree's smallest chip must sit at its bottom straight
    left descendant, the largest at the bottom straight right descendant."""
    shape = config.shape
    piles = config.as_dict()
    under = _subtree_chips(config)
    witnesses = []
    for v in piles:
        low, high = under[v][0], under[v][-1]
        if low not in piles[_bottom_straight(shape, piles, v, 1)]:
            witnesses.append((v, low))
        if high not in piles[_bottom_straight(shape, piles, v, shape.k)]:
            witnesses.append((v, high))
    return PropertyVerdict("minmax_descendants", not witnesses, tuple(witnesses))


def check_zigzag_relation(config: Configuration) -> PropertyVerdict:
    """Ordering relation around vertices that sit on a direction change.

    For a left child of a right child, the chips on its left children
    ascend and stay below its own chip and all its right children's chips;
    mirrored for a right child of a left child.  Vertices holding more
    than one chip are outside the relation's setting and are skipped, as
    are unoccupied children.
    """
    shape = config.shape
    k = shape.k
    piles = config.as_dict()
    single = {v: pile[0] for v, pile in piles.items() if len(pile) == 1}
    witnesses = []
    for s in piles:
        if s == 0 or parent(shape, s) == 0:
            continue
        p = parent(shape, s)
        if is_left_child(shape, s) and is_right_child(shape, p):
            mirrored = False
        elif is_right_child(shape, s) and is_left_child(shape, p):
            mirrored = True
        else:
            continue
        kids = [k * s + j for j in range(1, k + 1)]
        involved = [s] + [c for c in kids if c in piles]
        if any(v not in single for v in involved):
            continue
        inner, outer = kids[: k // 2], kids[k // 2 :]  # the ascending side first
        if mirrored:
            inner, outer = outer, inner
        inner = [c for c in inner if c in piles]
        outer = [single[s]] + [single[c] for c in outer if c in piles]
        for a, b in zip(inner, inner[1:]):
            if single[a] >= single[b]:
                witnesses.append((b, single[b]))
        for c in inner:
            bad = (single[c] >= min(outer)) if not mirrored else (single[c] <= max(outer))
            if bad:
                witnesses.append((c, single[c]))
    return PropertyVerdict("zigzag_relation", not witnesses, tuple(witnesses))


def check_ballot(config: Configuration) -> PropertyVerdict:
    """Rank domination between sibling subtrees: at every vertex, the i-th
    smallest chip under a child precedes the i-th smallest under any child
    further right, for every rank both subtrees reach."""
    k = config.k
    under = _subtree_chips(config)
    witnesses = []
    for v in sorted(under):
        subs = [under.get(k * v + slot, ()) for slot in range(1, k + 1)]
        for a in range(k):
            for b in range(a + 1, k):
                for low, high in zip(subs[a], subs[b]):
                    if low >= high:
                        witnesses.append((v, low))
    return PropertyVerdict("ballot", not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# flattening


def _reading_order(k: int, rule: str, vertices: tuple[VertexId, ...]) -> list[int]:
    """The positions in `vertices` in the reading order of `rule` (see
    `flatten`).  It depends only on the occupied vertices, so a scan over
    many configurations computes it once per set of them."""
    if rule not in ("inorder", "children_first"):
        raise ValueError(f"unknown flattening rule {rule!r}")
    up = k // 2 if rule == "inorder" else k  # slots above this read after the vertex

    def position(i: int) -> list[int]:
        # slot digits from the root down, then the vertex's own place, up + 1,
        # which the slots above `up` step over
        v = vertices[i]
        digits = [up + 1]
        while v:
            slot = (v - 1) % k + 1
            digits.append(slot + (slot > up))
            v = (v - 1) // k
        return digits[::-1]

    return sorted(range(len(vertices)), key=position)


def _read(config: Configuration, rule: str, order: list[int]) -> FlattenedPermutation:
    """The chips of a one-chip-per-vertex configuration in `order`, the
    `_reading_order` of its occupied vertices."""
    chips = config.chips
    for v, pile in chips:
        if len(pile) > 1:
            raise ValueError(f"vertex with multiple chips: {v} holds {list(pile)}")
    return FlattenedPermutation(tuple(chips[i][1][0] for i in order), rule)


def flatten(config: Configuration, rule: str = "inorder") -> FlattenedPermutation:
    """Read a one-chip-per-vertex configuration into a permutation.

    The inorder rule emits each vertex between its left and right halves of
    children (the left-to-right reading of the plane tree); children_first
    emits all child subtrees before the vertex itself.
    """
    return _read(config, rule, _reading_order(config.k, rule, config.occupied()))


def inversions(perm) -> int:
    """Exact count of strict inversions with a Fenwick tree over value ranks
    (Fenwick, Softw. Pract. Exp. 1994); accepts a plain sequence too."""
    seq = perm.sequence if isinstance(perm, FlattenedPermutation) else list(perm)
    rank = {x: r for r, x in enumerate(sorted(set(seq)), start=1)}
    tree = [0] * (len(rank) + 1)
    count = 0
    for seen, x in enumerate(seq):
        count += seen  # earlier values, less those not above x
        i = rank[x]
        while i:
            count -= tree[i]
            i &= i - 1
        i = rank[x]
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    return count


def max_inversions(result, rule: str = "inorder") -> tuple[int, Configuration]:
    """Largest inversion count over an enumerated stable set, with a witness.

    Ties break to the canonically first configuration, so the witness is
    deterministic.
    """
    if result.truncated:
        raise ValueError("cannot scan a truncated enumeration")
    best: tuple[int, Configuration] | None = None
    orders: dict[tuple[VertexId, ...], list[int]] = {}  # one reading order per set of occupied vertices
    for config in result.iter_stable():
        vertices = config.occupied()
        order = orders.get(vertices)
        if order is None:
            order = orders[vertices] = _reading_order(config.k, rule, vertices)
        count = inversions(_read(config, rule, order))
        if best is None or count > best[0]:
            best = (count, config)
    if best is None:
        raise ValueError("empty stable set")
    return best


# ---------------------------------------------------------------------------
# lower-bound construction replay


def _validated_choices(name: str, choices, count: int, window: range) -> tuple[int, ...]:
    seq = tuple(choices)
    if len(seq) != count:
        raise ChoiceError(f"choice out of range: need {count} values for {name}, got {len(seq)}")
    if list(seq) != sorted(set(seq)):
        raise ChoiceError(f"choice out of range: {name} must be strictly ascending")
    for x in seq:
        if x not in window:
            raise ChoiceError(f"choice out of range: {name} value {x} not in [{window.start}, {window.stop - 1}]")
    return seq


def replay_lower_bound_construction(
    k: int, ell: int, i: int, c_choices=(), c_prime_choices=()
) -> Configuration:
    """Run the explicit stabilization behind the lower bound and return its result.

    Two scripted root fires plant `i` crossing chips on each side, c and c'
    taken from the windows of `construction_windows`, which
    `construction_layer_factor` counts.  The root then fires symmetrically
    around the stationary chip until each child holds a full subtree load,
    and the child subtrees play out in lockstep.
    The children's games are one game on ranks: `lowest` picks by vertex
    index and rank order only, so children of equal size fire the same ranks
    at the same relative vertices.  Any failure of the symmetry requirements
    raises ConstructionError.
    """
    shape = TreeShape(k)
    if ell < 3:
        raise ValueError(f"need ell >= 3, got {ell}")
    n = n_chips(k, ell)
    lo, hi = k // 2, (k + 1) // 2
    if not 0 <= i <= lo:
        raise ChoiceError(f"choice out of range: i must be in 0..{lo}, got {i}")
    m, c_window, c_prime_window = construction_windows(k, ell, i)
    c = _validated_choices("c", c_choices, i, c_window)
    cp = _validated_choices("cprime", c_prime_choices, i, c_prime_window)

    piles = {0: list(range(1, n + 1))}
    _apply(k, piles, 0, tuple(range(1, lo + 2)) + c + tuple(range(n - hi + i + 1, n + 1)))
    taken = set(range(1, lo + 1)) | set(c)
    d = tuple(x for x in range(1, m) if x not in taken)[: lo - i]
    _apply(k, piles, 0, d + cp + tuple(range(n - 2 * hi + i, n - hi + i + 1)))

    # drive the root down to the stationary chip alone
    target = n_chips(k, ell - 1)
    for _ in range(target - 2):
        pile = piles[0]
        below = [x for x in pile if x < m][:lo]
        above = [x for x in pile if x > m][:hi]
        sel = tuple(below) + (m,) + tuple(above)
        if len(sel) != k + 1:
            raise ConstructionError("symmetry violated: root cannot fire around the stationary chip")
        _apply(k, piles, 0, sel)
    if piles[0] != [m]:
        raise ConstructionError("symmetry violated: root did not reduce to the stationary chip")

    # each child plays the rank game 1..target on its own sorted labels
    children = range(1, k + 1)
    for child in children:
        if (held := len(piles.get(child, ()))) != target:
            raise ConstructionError(f"symmetry violated: child {child} holds {held} chips, expected {target}")
    labels = {child: (0, *piles[child]) for child in children}  # rank r -> labels[child][r]
    _, game = stabilize(initial_config(shape, ell - 1), "lowest")
    for mv in game:
        for child in children:
            _apply(k, piles, embed_vertex(shape, child, mv.vertex), tuple(labels[child][r] for r in mv.selected))
        if mv.vertex == 0:
            # each child's root sent up the chip of rank mv.selected[k // 2]
            owed = {labels[child][mv.selected[k // 2]]: child for child in children}
            pile = piles[0]
            if len(pile) != k + 1 or pile[k // 2] != m:
                raise ConstructionError("symmetry violated: stationary chip displaced at the root")
            if any(dest != 0 and owed.get(chip) != dest for chip, dest in zip(pile, destinations(k, 0))):
                raise ConstructionError("symmetry violated: a returned chip would change subtrees")
            _apply(k, piles, 0, tuple(pile))

    config = _build(k, piles)
    assert config.labels() == tuple(range(1, n + 1)), "chip conservation violated"
    if not is_stable(config) or config.at(0) != (m,):
        raise ConstructionError("symmetry violated: replay did not end at a stable state")
    return config
