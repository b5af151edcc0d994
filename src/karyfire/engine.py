"""Configurations of labeled chips and the firing mechanism.

A firing at a vertex selects k+1 of its chips.  The median of the
selection (the ceil((k+1)/2)-th smallest) travels to the parent and the
remaining k chips travel, in ascending order, to the children from
leftmost to rightmost.  The root's parent is the root itself via its
self-loop, so a root fire keeps its median and sheds k chips downward.

Chips are positive integer labels and each label lives on exactly one
vertex.  A configuration is *stable* when no vertex holds more than k
chips.
"""

from __future__ import annotations

import json
import random as _random
import sys
from array import array
from bisect import insort
from collections import deque
from functools import cached_property
from itertools import accumulate, combinations, repeat
from math import comb
from operator import itemgetter

from .tree import TreeShape, VertexId, _Frozen, layer, layer_start


class EngineError(Exception):
    """Base class for firing-engine failures."""


class IllegalMoveError(EngineError):
    """A move referenced absent chips or the wrong selection size."""


class ScriptError(EngineError):
    """A firing script was malformed or illegal when replayed."""


class StepLimitError(EngineError):
    """The unlabeled relaxation exceeded its round limit."""


class EndgameShapeError(EngineError):
    """A configuration does not have the endgame-start shape."""


class WaveError(EngineError):
    """A wave schedule reached a vertex that was not ready to fire."""


class FiringMove(_Frozen):
    """One firing: a vertex plus the k+1 selected chip labels (kept sorted)."""

    vertex: VertexId
    selected: tuple[int, ...]
    _fields = ("vertex", "selected")

    def __init__(self, vertex: VertexId, selected: tuple[int, ...]) -> None:
        sel = tuple(sorted(selected))
        if vertex < 0:
            raise ValueError(f"vertex index must be >= 0, got {vertex}")
        if len(set(sel)) != len(sel):
            raise ValueError(f"repeated chip in selection {sel}")
        if any(c < 1 for c in sel):
            raise ValueError(f"chip labels must be positive, got {sel}")
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "selected", sel)


class Configuration(_Frozen):
    """Immutable placement of labeled chips.

    ``chips`` maps each occupied vertex to its ascending tuple of labels;
    empty vertices are absent.  Instances are hashable and order-canonical,
    so equal placements compare and hash equal.
    """

    k: int
    chips: tuple[tuple[VertexId, tuple[int, ...]], ...]
    _fields = ("k", "chips")

    def __init__(self, k: int, chips: tuple[tuple[VertexId, tuple[int, ...]], ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "chips", chips)

    @classmethod
    def from_dict(cls, k: int, mapping: dict[VertexId, object]) -> "Configuration":
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"arity must be an integer >= 2, got {k!r}")
        if not isinstance(mapping, dict):
            raise ValueError(f"chips must map vertices to lists of labels, got {mapping!r}")
        seen: set[int] = set()
        items = []
        for v in sorted(mapping):
            try:
                labels = tuple(mapping[v])
            except TypeError:
                raise ValueError(f"chips at vertex {v!r} must be a list of labels, got {mapping[v]!r}") from None
            if not labels:
                continue
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"vertex index must be an integer >= 0, got {v!r}")
            for c in labels:
                if isinstance(c, bool) or not isinstance(c, int) or c < 1:
                    raise ValueError(f"chip labels must be positive integers, got {c!r}")
                if c in seen:
                    raise ValueError(f"chip {c} appears on more than one vertex")
                seen.add(c)
            items.append((v, tuple(sorted(labels))))
        return cls(k, tuple(items))

    @property
    def shape(self) -> TreeShape:
        return TreeShape(self.k)

    def as_dict(self) -> dict[VertexId, tuple[int, ...]]:
        return dict(self.chips)

    def at(self, v: VertexId) -> tuple[int, ...]:
        for u, labels in self.chips:
            if u == v:
                return labels
        return ()

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(c for _, labels in self.chips for c in labels))

    @property
    def n_chips(self) -> int:
        return sum(len(labels) for _, labels in self.chips)

    def occupied(self) -> tuple[VertexId, ...]:
        return tuple(v for v, _ in self.chips)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "chips": {str(v): list(labels) for v, labels in self.chips}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Configuration":
        if not isinstance(data, dict) or "k" not in data or not isinstance(data.get("chips"), dict):
            raise ValueError("configuration JSON needs a 'k' field and a 'chips' object")
        chips = {int(v): labels for v, labels in data["chips"].items()}
        if len(chips) != len(data["chips"]):
            raise ValueError("configuration JSON names a vertex twice")
        return cls.from_dict(data["k"], chips)

    def to_json(self) -> str:
        """Canonical compact JSON, rendered once per instance."""
        return self._json

    @cached_property
    def _json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Configuration":
        return cls.from_json_dict(json.loads(text))

    def __str__(self) -> str:
        body = ", ".join(f"{v}:[{','.join(map(str, labels))}]" for v, labels in self.chips)
        return "{" + body + "}"


# ---------------------------------------------------------------------------
# firing kernel


def destinations(k: int, v: VertexId) -> tuple[VertexId, ...]:
    """Where a fire at v sends its k+1 selected chips, in ascending chip order.

    The children take the chips left to right, except that the median (index
    k//2) goes to the parent; the root's parent is the root itself.
    """
    first = k * v + 1
    mid = first + k // 2
    return (*range(first, mid), (v - 1) // k if v else 0, *range(mid, first + k))


def _apply(k: int, piles: dict[VertexId, list[int]], vertex: VertexId, selected: tuple[int, ...]) -> None:
    """Fire `selected` (sorted) at `vertex`, mutating `piles`.

    This is where every move is checked: it must select k+1 chips, all at `vertex`.
    """
    if len(selected) != k + 1:
        raise IllegalMoveError(f"wrong selection size: need k+1 = {k + 1} chips, got {len(selected)}")
    pile = piles.get(vertex, [])
    sel = set(selected)
    if len(sel & set(pile)) != k + 1:
        missing = sorted(sel - set(pile))
        raise IllegalMoveError(f"chip not present at vertex {vertex}: {missing}")
    remaining = [c for c in pile if c not in sel]
    if remaining:
        piles[vertex] = remaining
    else:
        del piles[vertex]
    for chip, dest in zip(selected, destinations(k, vertex)):
        insort(piles.setdefault(dest, []), chip)


def _piles_of(config: Configuration) -> dict[VertexId, list[int]]:
    return {v: list(labels) for v, labels in config.chips}


def _build(k: int, piles: dict[VertexId, list[int]]) -> Configuration:
    return Configuration(k, tuple((v, tuple(piles[v])) for v in sorted(piles) if piles[v]))


def fire(config: Configuration, move: FiringMove) -> Configuration:
    """Apply a single firing move, returning the new configuration."""
    k = config.k
    piles = _piles_of(config)
    _apply(k, piles, move.vertex, move.selected)
    out = _build(k, piles)
    if __debug__:
        assert out.labels() == config.labels(), "chip conservation violated"
    return out


def legal_moves(config: Configuration) -> list[FiringMove]:
    """Every legal firing, vertices ascending and selections in lexicographic order."""
    k = config.k
    moves = []
    for v, pile in config.chips:
        if len(pile) >= k + 1:
            moves.extend(FiringMove(v, sel) for sel in combinations(pile, k + 1))
    return moves


def is_stable(config: Configuration) -> bool:
    return all(len(pile) <= config.k for _, pile in config.chips)


def initial_config(shape: TreeShape, ell: int) -> Configuration:
    """Chips 1..N on the root, where N fills ell layers one chip per vertex."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    n = layer_start(shape, ell + 1)
    return Configuration.from_dict(shape.k, {0: range(1, n + 1)})


def stabilize(
    config: Configuration,
    policy: str = "lowest",
    *,
    script: list[FiringMove] | None = None,
    seed: int | None = None,
) -> tuple[Configuration, list[FiringMove]]:
    """Drive `config` to a stable configuration and return it with the move trace.

    Policies: "lowest" fires the lexicographically first legal move, "random"
    draws uniformly from the legal moves of a seeded generator, and "script"
    replays the given moves (which must end at a stable configuration).

    No step limit is needed.  By the abelian property of chip-firing
    (Björner, Lovász & Shor, *Chip-firing games on graphs*, 1991) the chip
    counts fix how often each vertex fires on the way to a stable
    configuration, so every "lowest" or "random" run ends after the fires
    that the unlabeled relaxation counts, and no legal script is longer.
    """
    k = config.k
    piles = _piles_of(config)
    if policy == "script":
        if script is None:
            raise ValueError("policy 'script' needs a script")
        trace = list(script)
        for step, move in enumerate(trace):
            try:
                _apply(k, piles, move.vertex, move.selected)
            except IllegalMoveError as err:
                raise ScriptError(f"script illegal at step {step}: {err}") from err
        fireable = sorted(v for v, pile in piles.items() if len(pile) > k)
        if fireable:
            raise ScriptError(f"script ended before stabilization (vertices {fireable} can still fire)")
        return _build(k, piles), trace
    rng = None
    if policy == "random":
        if seed is None:
            raise ValueError("policy 'random' needs a seed")
        rng = _random.Random(seed)
    elif policy != "lowest":
        raise ValueError(f"unknown policy {policy!r}")

    trace = []
    while fireable := sorted(v for v, pile in piles.items() if len(pile) > k):
        if rng is None:
            v = fireable[0]
            move = FiringMove(v, tuple(piles[v][: k + 1]))
        else:
            weights = [comb(len(piles[v]), k + 1) for v in fireable]
            v = rng.choices(fireable, weights=weights)[0]
            move = FiringMove(v, tuple(rng.sample(piles[v], k + 1)))
        _apply(k, piles, move.vertex, move.selected)
        trace.append(move)
    return _build(k, piles), trace


# ---------------------------------------------------------------------------
# unlabeled (counting-only) dynamics

_RELAX_ROUND_LIMIT = 10**7  # batched per-vertex rounds before relaxation gives up


def _unlabeled_relax(k: int, counts: dict[VertexId, int]) -> tuple[dict[VertexId, int], dict[VertexId, int]]:
    """Stabilize integer chip counts; returns (final counts, fires per vertex).

    Counts follow the same flow as labeled firing: a fire sends one chip to
    the parent and one to each child, with the root's parent chip looping
    back to the root.  Fires are batched per vertex for speed.
    """
    counts = {v: c for v, c in counts.items() if c}
    fires: dict[VertexId, int] = {}
    work = deque(v for v, c in counts.items() if c >= k + 1)
    queued = set(work)
    rounds = 0
    while work:
        rounds += 1
        if rounds > _RELAX_ROUND_LIMIT:
            raise StepLimitError("step limit exceeded in unlabeled relaxation")
        v = work.popleft()
        queued.discard(v)
        c = counts[v]
        drop = k if v == 0 else k + 1
        t = -(-(c - k) // drop)  # fires needed to bring v down to <= k
        counts[v] = c - t * drop
        fires[v] = fires.get(v, 0) + t
        touched = [] if v == 0 else [(v - 1) // k]
        touched.extend(k * v + j for j in range(1, k + 1))
        for u in touched:
            counts[u] = counts.get(u, 0) + t
            if counts[u] >= k + 1 and u not in queued:
                work.append(u)
                queued.add(u)
    return {v: c for v, c in counts.items() if c}, fires


def unlabeled_relaxation(shape: TreeShape, n_chips: int) -> tuple[dict[VertexId, int], dict[VertexId, int]]:
    """Final per-vertex chip counts and fires per vertex after stabilizing
    n unlabeled chips at the root."""
    if n_chips < 1:
        raise ValueError(f"need at least one chip, got {n_chips}")
    return _unlabeled_relax(shape.k, {0: n_chips})


def unlabeled_simulate(shape: TreeShape, n_chips: int) -> dict[VertexId, int]:
    """Final per-vertex chip counts after stabilizing n unlabeled chips at the root."""
    return unlabeled_relaxation(shape, n_chips)[0]


def unlabeled_fire_counts(shape: TreeShape, n_chips: int) -> dict[VertexId, int]:
    """How many times each vertex fires while stabilizing n chips from the root."""
    return unlabeled_relaxation(shape, n_chips)[1]


def unlabeled_profile(shape: TreeShape, n_chips: int) -> list[int]:
    """Chips per vertex on each occupied layer of the stable configuration.

    Entry m of the returned list is the count shared by every vertex of
    layer m+1.  The profile is the base-k expansion, plus one per digit, of
    the excess of n over the largest exactly-filling chip count below it.
    """
    if n_chips < 1:
        raise ValueError(f"need at least one chip, got {n_chips}")
    ell = 1
    while layer_start(shape, ell + 2) <= n_chips:
        ell += 1
    rest = n_chips - layer_start(shape, ell + 1)
    profile = []
    for _ in range(ell):
        profile.append(rest % shape.k + 1)
        rest //= shape.k
    return profile


# ---------------------------------------------------------------------------
# endgame


def endgame_start_counts(shape: TreeShape, ell: int) -> tuple[int, ...]:
    """Chips per vertex of the shape that opens the endgame for ell layers:
    k+1 on the root and k on every other vertex of layers 1..ell-1, for
    vertices 0..layer_start(ell)-1; nothing sits deeper."""
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    return (shape.k + 1, *repeat(shape.k, layer_start(shape, ell) - 1))


def endgame_start(shape: TreeShape, ell: int, config: Configuration) -> Configuration:
    """Validate the shape that opens the endgame for ell layers
    (`endgame_start_counts`).  Labels are not constrained.  Returns the
    configuration unchanged when valid.
    """
    expected = endgame_start_counts(shape, ell)
    if config.k != shape.k:
        raise ValueError(f"configuration arity {config.k} does not match shape {shape.k}")
    counts = {v: len(pile) for v, pile in config.chips}
    bad = [v for v, want in enumerate(expected) if counts.get(v, 0) != want]
    bad.extend(sorted(v for v in counts if v >= len(expected)))
    if bad:
        raise EndgameShapeError(f"not an endgame-start shape for ell={ell} (offending vertices {bad})")
    return config


# Array typecodes of 1-, 2- and 4-byte items, the lanes of a batched wave run.
_LANE_CODES = {array(code).itemsize: code for code in "LIHB"}


def lane_code(top: int) -> str:
    """The array typecode of the narrowest lane (8, 16 or 32 bits) that holds
    every value up to `top` and still leaves its top bit clear as a guard."""
    for size in (1, 2, 4):
        if top < 1 << (8 * size - 1):
            return _LANE_CODES[size]
    raise ValueError(f"value {top} does not fit below the guard bit of a 32-bit lane")


class WaveNetwork:
    """The wave schedule of an endgame start for ell layers, compiled into a fixed network on wires.

    Wave w fires vertices 0..N-1 once each in index order, where N counts
    the vertices of the top (ell - w) layers, and every scheduled vertex
    fires all k+1 chips it holds.  So the schedule alone fixes which wires
    feed each fire.  Wires 0.. carry the start piles in vertex order; fire i
    sorts its k+1 input wires (`schedule[i]`) onto the wires
    `first + i*(k+1)` onward, one per destination.  A wire carries chip
    ranks, which sort as their labels do.  Every start pile feeds exactly
    one fire, so the order of the chips within a start pile does not matter.

    A fire sorts with an insertion network of compare-exchanges
    (`exchanges`).  The network treats every input alike, so it can run
    many starts at once: each wire is one int that holds one value per
    start in lanes of equal width (SIMD within a register; Lamport,
    *Multiple byte processing with full-word instructions*, 1975).  Every value
    leaves the top bit of its lane clear.  A compare-exchange sets that
    guard bit, subtracts, and reads off the guard which lanes are out of
    order; the guard absorbs each lane's borrow, so no lane disturbs its
    neighbour.  By the 0-1 principle (Knuth, *TAOCP* Vol. 3, 5.3.4) the
    network sorts every input because it sorts every input of 0s and 1s.
    """

    def __init__(self, shape: TreeShape, ell: int) -> None:
        k = shape.k
        holding: dict[VertexId, list[int]] = {}
        width = 0
        for v, held in enumerate(endgame_start_counts(shape, ell)):
            holding[v] = list(range(width, width + held))
            width += held
        self.first, self.schedule = width, []
        for wave in range(1, ell):
            for v in range(layer_start(shape, ell - wave + 1)):
                wires = holding.pop(v, [])
                if len(wires) != k + 1:
                    raise WaveError(f"vertex {v} not ready in wave {wave} (holds {len(wires)} chips)")
                self.schedule.append(tuple(wires))
                for d in destinations(k, v):
                    holding.setdefault(d, []).append(width)
                    width += 1
        self.exchanges = [(j - 1, j) for top in range(1, k + 1) for j in range(top, 0, -1)]
        self.final_vertices = [v for v, wires in holding.items() for _ in wires]
        self.final_wires = itemgetter(*(w for wires in holding.values() for w in wires))

    def run_lanes(self, rows: array) -> array:
        """Run many endgame starts at once, one per lane.

        `rows` holds the starts back to back, each as its chips in vertex
        order, in items of 1, 2 or 4 bytes that leave their top bit clear
        (see `lane_code`).  Returns their final chips in the same layout:
        one row per start, in `final_vertices` order.
        """
        size, code, first = rows.itemsize, rows.typecode, self.first
        if _LANE_CODES.get(size) != code or len(rows) % first:
            raise ValueError(
                f"{len(rows)} items of type {code!r} are not rows of {first} start wires "
                f"in lanes of type {'/'.join(_LANE_CODES[n] for n in (1, 2, 4))}"
            )
        lanes, bits = len(rows) // first, 8 * size
        view = memoryview(rows)
        wires = [int.from_bytes(view[j::first], sys.byteorder) for j in range(first)]
        low = bits - 1
        guard = ((1 << bits * lanes) - 1) // ((1 << bits) - 1) << low
        if any(wire & guard for wire in wires):
            raise ValueError(f"a start value reaches the guard bit of its {bits}-bit lane")
        for feed in self.schedule:
            a = [wires[i] for i in feed]
            for p, q in self.exchanges:
                x, y = a[p], a[q]
                swap = ((x | guard) - y) & guard  # the guard of each lane where x >= y
                swap = (x ^ y) & (swap | (swap - (swap >> low)))
                a[p], a[q] = x ^ swap, y ^ swap
            wires += a
        width = len(self.final_vertices)
        out = array(code, bytes(width * lanes * size))
        view = memoryview(out)
        for j, wire in enumerate(self.final_wires(wires)):
            view[j::width] = memoryview(wire.to_bytes(lanes * size, sys.byteorder)).cast(code)
        return out


def run_waves(config: Configuration) -> Configuration:
    """Fire a valid endgame start to its stable configuration in waves."""
    if not config.chips:
        raise EndgameShapeError("empty configuration")
    shape = config.shape
    ell = layer(shape, max(config.occupied())) + 1
    endgame_start(shape, ell, config)
    network = WaveNetwork(shape, ell)
    labels = config.labels()
    rank_of = {c: r for r, c in enumerate(labels)}
    row = array(lane_code(len(labels) - 1), [rank_of[c] for _, pile in config.chips for c in pile])
    piles: dict[VertexId, list[int]] = {}
    for v, r in zip(network.final_vertices, network.run_lanes(row)):
        piles.setdefault(v, []).append(labels[r])
    out = Configuration.from_dict(config.k, piles)
    assert is_stable(out)
    return out


def random_endgame_start(shape: TreeShape, ell: int, seed: int) -> Configuration:
    """Endgame-start shape with labels 1..N dealt by a seeded shuffle."""
    counts = endgame_start_counts(shape, ell)
    labels = list(range(1, sum(counts) + 1))
    _random.Random(seed).shuffle(labels)
    ends = list(accumulate(counts, initial=0))
    return Configuration.from_dict(shape.k, {v: labels[ends[v] : ends[v + 1]] for v in range(len(counts))})


# ---------------------------------------------------------------------------
# firing-script text format


def parse_script(text: str) -> list[FiringMove]:
    """Parse the `fire <vertex>: <c1> <c2> ...` script format.

    Blank lines are skipped and `#` starts a comment.
    """
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep or not head.startswith("fire"):
            raise ScriptError(f"line {lineno}: expected 'fire <vertex>: <chips>'")
        try:
            vertex = int(head[4:].strip())
            chips = tuple(int(tok) for tok in tail.split())
            moves.append(FiringMove(vertex, chips))
        except ValueError as err:
            raise ScriptError(f"line {lineno}: {err}") from err
    return moves


def format_script(moves: list[FiringMove]) -> str:
    return "\n".join(f"fire {m.vertex}: {' '.join(map(str, m.selected))}" for m in moves) + "\n"
