"""Exhaustive enumeration of the stable configurations reachable by firing.

The search treats the reachable configurations as a graph, not a trace
tree: every distinct configuration is expanded once and successors that
were already seen count as memo hits.  Labels are normalized to ranks up
front (rank order and label order agree, and firing only looks at rank
order), so each state packs into one int: bits [r*b, (r+1)*b) hold the
vertex of the r-th smallest chip, where b is the bit length of the largest
vertex the start can reach (at most 16).  A fire adds a fixed delta to
that int.

The search runs level by level.  By the abelian property of chip-firing
(Björner, Lovász & Shor, *Chip-firing games on graphs*, 1991) the chip
counts of a state fix how often each vertex fired to reach it, so every
state has one depth and every fire leads from depth d to depth d+1.
Duplicates therefore meet only within a level, and the search keeps just
the current level, the next one and the stable set.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter, lshift
from typing import IO, Iterator

from .engine import (
    Configuration,
    FiringMove,
    _unlabeled_relax,
    destinations,
    endgame_offenders,
    endgame_start,
    fire_waves,
    initial_config,
    run_waves,
    wave_order,
)
from .tree import TreeShape, VertexId, layer, layer_start, relative_index

DEFAULT_MAX_STATES = 10**8
DEFAULT_MAX_STABLE = 10**7

_VERTEX_LIMIT = 0xFFFF  # a state spends at most 16 bits on each chip's vertex


class EnumerationTruncated(Exception):
    """An exact answer was requested but the search hit a limit."""


def canonical_key(config: Configuration) -> bytes:
    """Deterministic byte serialization; equal configurations get equal keys."""
    return config.to_json().encode("ascii")


# ---------------------------------------------------------------------------
# int-packed rank-space states


def _encode(config: Configuration, labels: tuple[int, ...], bits: int) -> int:
    rank_of = {c: r for r, c in enumerate(labels)}
    return sum(v << (rank_of[c] * bits) for v, pile in config.chips for c in pile)


def _decode(state: int, k: int, labels: tuple[int, ...], bits: int) -> Configuration:
    mask = (1 << bits) - 1
    piles: dict[VertexId, list[int]] = {}
    for r, c in enumerate(labels):
        piles.setdefault(state >> (r * bits) & mask, []).append(c)
    return Configuration(k, tuple((v, tuple(piles[v])) for v in sorted(piles)))


def _check_reach(config: Configuration) -> int:
    """The largest vertex a chip can occupy from `config` on; refuse one beyond
    the 16-bit encoding.

    By least action no firing sequence fires a vertex that the unlabeled
    stabilization leaves unfired, so no fired chip lands beyond the last
    child of the largest vertex that fires there.
    """
    k = config.k
    _, fires = _unlabeled_relax(k, {v: len(pile) for v, pile in config.chips})
    reach = max((*config.occupied(), *(k * v + k for v in fires)), default=0)
    if reach > _VERTEX_LIMIT:
        raise ValueError(f"vertex {reach} exceeds the 16-bit state encoding")
    return reach


class _FireDeltas(dict):
    """Ascending selected ranks -> what firing them at vertex v adds to a state.

    Entries are computed on first use.
    """

    def __init__(self, k: int, v: VertexId, bits: int) -> None:
        super().__init__()
        self.steps = [d - v for d in destinations(k, v)]
        self.bits = bits

    def __missing__(self, sel: tuple[int, ...]) -> int:
        delta = self[sel] = sum(step << (r * self.bits) for r, step in zip(sel, self.steps))
        return delta


# ---------------------------------------------------------------------------
# search


class _WaveNetwork:
    """`engine.wave_order` for ell layers, compiled into a fixed network on rank wires.

    A wave fire takes every chip its vertex holds, so the schedule alone
    fixes which wires feed each fire.  Wires 0.. carry the start piles in
    vertex order; each fire sorts its k+1 input wires onto k+1 new wires,
    one per destination.
    """

    def __init__(self, shape: TreeShape, ell: int) -> None:
        k = shape.k
        self.vertices = range(layer_start(shape, ell))
        holding: dict[VertexId, list[int]] = {}
        width = 0
        for v in self.vertices:
            holding[v] = list(range(width, width + (k + 1 if v == 0 else k)))
            width += len(holding[v])
        self.gathers = []
        for _, v, dests in wave_order(shape, ell):
            self.gathers.append(itemgetter(*holding.pop(v)))
            for d in dests:
                holding.setdefault(d, []).append(width)
                width += 1
        self.final_vertices = [v for v, wires in holding.items() for _ in wires]
        self.final_wires = itemgetter(*(w for wires in holding.values() for w in wires))

    def run(self, piles: dict[VertexId, list[int]], shifts: list[int]) -> int:
        """The stable state that an endgame start with these rank piles collapses to."""
        wires = list(chain.from_iterable(map(piles.__getitem__, self.vertices)))
        for gather in self.gathers:
            wires += sorted(gather(wires))
        return sum(map(lshift, self.final_vertices, map(shifts.__getitem__, self.final_wires(wires))))


@dataclass
class _Search:
    """Settings, counters and per-call caches of one level-by-level search."""

    shape: TreeShape
    n_chips: int
    bits: int
    max_states: int
    max_stable: int
    endgame_shortcut: bool
    # state -> (parent state, (vertex, selected ranks)), or (parent, None) when
    # the state is the outcome of the parent's endgame collapse; None when off
    witnesses: dict | None
    stable: set[int] = field(default_factory=set)
    deltas: dict[VertexId, _FireDeltas] = field(default_factory=dict)
    waves: dict[int, _WaveNetwork] = field(default_factory=dict)
    explored: int = 0
    hits: int = 0
    seen: int = 1  # distinct states found so far, the start included
    level_widths: list[int] = field(default_factory=list)
    truncated: bool = False

    def expand(self, level: set[int]) -> set[int]:
        """Explore every state of one level and return the next level.

        Stable states go to the stable set.  With the shortcut on, an
        endgame-shaped state goes straight to its stable outcome.  The
        search is truncated, and the rest of the level skipped, as soon as
        a limit is exceeded.
        """
        self.level_widths.append(len(level))
        k = self.shape.k
        k1 = k + 1
        mask = (1 << self.bits) - 1
        shifts = [r * self.bits for r in range(self.n_chips)]
        stable, witnesses, deltas = self.stable, self.witnesses, self.deltas
        shortcut = self.endgame_shortcut
        max_states, max_stable = self.max_states, self.max_stable
        explored, hits, seen = self.explored, self.hits, self.seen
        nxt: set[int] = set()
        for state in level:
            explored += 1
            piles: defaultdict[VertexId, list[int]] = defaultdict(list)
            for r, shift in enumerate(shifts):
                piles[state >> shift & mask].append(r)
            fireable = [v for v, pile in piles.items() if len(pile) > k]
            if not fireable:
                if state in stable:  # first reached as the outcome of an endgame collapse
                    explored -= 1
                    hits += 1
                    seen -= 1
                else:
                    stable.add(state)
            elif shortcut and fireable == [0] and len(piles[0]) == k1 and (ell := self._endgame_layers(piles)):
                waves = self.waves.get(ell)
                if waves is None:
                    waves = self.waves[ell] = _WaveNetwork(self.shape, ell)
                out = waves.run(piles, shifts)
                if out in stable:
                    hits += 1
                else:
                    stable.add(out)
                    explored += 1
                    seen += 1
                    if witnesses is not None:
                        witnesses[out] = (state, None)
            else:
                for v in fireable:
                    fire = deltas.get(v)
                    if fire is None:
                        fire = deltas[v] = _FireDeltas(k, v, self.bits)
                    for sel in combinations(piles[v], k1):
                        succ = state + fire[sel]
                        if succ in nxt:
                            hits += 1
                        else:
                            nxt.add(succ)
                            seen += 1
                            if witnesses is not None:
                                witnesses[succ] = (state, (v, sel))
            if seen > max_states or len(stable) > max_stable:
                self.truncated = True
                break
        self.explored, self.hits, self.seen = explored, hits, seen
        return nxt

    def _endgame_layers(self, piles: dict[VertexId, list[int]]) -> int:
        """ell when `piles` has the endgame-start shape for ell layers, else 0.

        The caller has checked that only the root can fire and that it
        holds k+1 chips.  The last cheap test is that all the vertices above
        layer ell are occupied; `engine.endgame_offenders` then decides.
        """
        ell = layer(self.shape, max(piles)) + 1
        if len(piles) != layer_start(self.shape, ell) or endgame_offenders(self.shape, ell, piles):
            return 0
        return ell


@dataclass
class EnumerationResult:
    """Outcome of an exhaustive search from one starting configuration.

    States are ints (see the module docstring) with `bits` bits per chip.
    `level_widths[d]` is the size of level d: the distinct states at depth d
    that the search popped or, for the last level of a truncated search,
    was about to pop.  With the endgame shortcut on, a collapse outcome is
    counted in `states_explored` without joining any level, and a level
    member that a collapse already produced counts as a memo hit.  So the
    widths of a complete run sum to `states_explored` only with the
    shortcut off.
    """

    k: int
    labels: tuple[int, ...]
    start_key: int
    stable_keys: frozenset[int]
    states_explored: int
    memo_hits: int
    truncated: bool
    max_states: int
    max_stable: int
    bits: int
    level_widths: tuple[int, ...]
    witnesses: dict | None = field(default=None, repr=False)

    @cached_property
    def stable_set(self) -> frozenset[Configuration]:
        return frozenset(_decode(s, self.k, self.labels, self.bits) for s in self.stable_keys)

    def iter_stable(self) -> Iterator[Configuration]:
        """Stable configurations in canonical (serialized) order."""
        return iter(sorted(self.stable_set, key=canonical_key))

    def witness_trace(self, config: Configuration) -> list[FiringMove]:
        """A firing sequence from the start configuration to `config`.

        Available only when the search recorded witnesses.
        """
        if self.witnesses is None:
            raise ValueError("witnesses were not recorded for this search")
        known = (
            config.k == self.k
            and config.labels() == self.labels
            and max(config.occupied(), default=0) >> self.bits == 0
        )
        key = _encode(config, self.labels, self.bits) if known else None
        if key != self.start_key and key not in self.witnesses:
            raise ValueError("no witness recorded for that configuration")
        steps = []
        while key != self.start_key:
            key, move = self.witnesses[key]
            steps.append((key, move))
        shape = TreeShape(self.k)
        trace: list[FiringMove] = []
        for parent, move in reversed(steps):
            if move is None:  # an endgame collapse: replay the wave schedule on labels
                piles = {v: list(pile) for v, pile in _decode(parent, self.k, self.labels, self.bits).chips}
                ell = layer(shape, max(piles)) + 1
                trace.extend(FiringMove(v, pile) for v, pile in fire_waves(shape, ell, piles))
            else:
                v, sel = move
                trace.append(FiringMove(v, tuple(self.labels[r] for r in sel)))
        return trace


def enumerate_stable(
    config: Configuration,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_stable: int = DEFAULT_MAX_STABLE,
    endgame_shortcut: bool = True,
    record_witnesses: bool = False,
) -> EnumerationResult:
    """Explore every configuration reachable from `config`.

    Returns the full set of reachable stable configurations unless a limit
    was hit, in which case the result is flagged as truncated.  The stable
    set is independent of `endgame_shortcut`; the shortcut collapses
    endgame-shaped states straight to their unique stable outcome instead
    of expanding every interleaving.
    """
    labels = config.labels()
    bits = max(_check_reach(config), 1).bit_length()
    start = _encode(config, labels, bits)
    witnesses = {} if record_witnesses else None
    search = _Search(config.shape, config.n_chips, bits, max_states, max_stable, endgame_shortcut, witnesses)
    level = {start}
    while level and not search.truncated:
        level = search.expand(level)

    return EnumerationResult(
        k=config.k,
        labels=labels,
        start_key=start,
        stable_keys=frozenset(search.stable),
        states_explored=search.explored,
        memo_hits=search.hits,
        truncated=search.truncated,
        max_states=max_states,
        max_stable=max_stable,
        bits=bits,
        level_widths=tuple(search.level_widths),
        witnesses=search.witnesses,
    )


def check_state_size(shape: TreeShape, ell: int) -> None:
    """Refuse (k, ell) whose vertices 0..N-1 overflow the 16-bit state encoding.

    Cheap: it runs before the N chip labels of the start are built.
    """
    last = layer_start(shape, ell + 1) - 1
    if last > _VERTEX_LIMIT:
        raise ValueError(f"(k, ell) = ({shape.k}, {ell}) needs vertex {last}, beyond the 16-bit state encoding")


def count_stable(shape: TreeShape, ell: int, **kwargs) -> int:
    """Exact count of stable configurations reachable from the root-loaded start."""
    check_state_size(shape, ell)
    result = enumerate_stable(initial_config(shape, ell), **kwargs)
    if result.truncated:
        raise EnumerationTruncated("enumeration truncated — no exact count")
    return len(result.stable_keys)


def verify_endgame_confluence(config: Configuration, **kwargs) -> bool:
    """Exhaustively confirm that an endgame-start state has one outcome.

    Enumerates with the endgame shortcut disabled (using it here would be
    circular) and checks the single survivor against the wave schedule.
    """
    shape = config.shape
    deepest = max(layer(shape, v) for v, _ in config.chips) if config.chips else 0
    endgame_start(shape, deepest + 1, config)
    result = enumerate_stable(config, endgame_shortcut=False, **kwargs)
    if result.truncated:
        raise EnumerationTruncated("enumeration truncated — confluence undecided")
    if len(result.stable_keys) != 1:
        return False
    (only,) = result.stable_set
    return only == run_waves(config)


def subtree_orderings(
    result: EnumerationResult, subtree_root: VertexId
) -> set[tuple[tuple[VertexId, tuple[int, ...]], ...]]:
    """Distinct rank patterns a subtree shows across the stable set.

    Each pattern maps subtree-relative vertex indices to the ranks
    (1..subtree chip count) of the chips sitting there.
    """
    if result.truncated:
        raise ValueError("cannot project a truncated enumeration")
    shape = TreeShape(result.k)
    patterns = set()
    for config in result.stable_set:
        placed = []
        for v, pile in config.chips:
            rel = relative_index(shape, subtree_root, v)
            if rel is not None:
                placed.append((rel, pile))
        ranks = {c: i + 1 for i, c in enumerate(sorted(c for _, pile in placed for c in pile))}
        patterns.add(tuple(sorted((rel, tuple(ranks[c] for c in pile)) for rel, pile in placed)))
    return patterns


def dump_stable(result: EnumerationResult, stream: IO[str]) -> None:
    """Write the stable set as newline-delimited JSON plus a summary record."""
    for config in result.iter_stable():
        stream.write(config.to_json() + "\n")
    summary = {
        "type": "summary",
        "format_version": 1,
        "stable": len(result.stable_keys),
        "states_explored": result.states_explored,
        "memo_hits": result.memo_hits,
        "truncated": result.truncated,
        "max_states": result.max_states,
        "max_stable": result.max_stable,
        "level_widths": list(result.level_widths),
    }
    stream.write(json.dumps(summary, sort_keys=True) + "\n")
