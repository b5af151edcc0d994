"""Exhaustive enumeration of the stable configurations reachable by firing.

The search treats the reachable configurations as a graph, not a trace
tree: every distinct configuration is expanded once and successors that
were already seen count as memo hits.  Labels are normalized to ranks up
front (rank order and label order agree, and firing only looks at rank
order), so each state packs into a short byte string: entry r of an
unsigned-16-bit array is the vertex currently holding the r-th smallest
chip.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
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
)
from .tree import TreeShape, VertexId, layer, layer_start, relative_index

DEFAULT_MAX_STATES = 10**8
DEFAULT_MAX_STABLE = 10**7

_VERTEX_LIMIT = 0xFFFF  # states are packed as uint16 vertex indices


class EnumerationTruncated(Exception):
    """An exact answer was requested but the search hit a limit."""


def canonical_key(config: Configuration) -> bytes:
    """Deterministic byte serialization; equal configurations get equal keys."""
    return config.to_json().encode("ascii")


# ---------------------------------------------------------------------------
# packed rank-space states


def _encode(config: Configuration, labels: tuple[int, ...]) -> bytes:
    last = max(config.occupied(), default=0)
    if last > _VERTEX_LIMIT:
        raise ValueError(f"vertex {last} exceeds the 16-bit state encoding")
    rank_of = {c: r for r, c in enumerate(labels)}
    return _pack({v: [rank_of[c] for c in pile] for v, pile in config.chips}, len(labels))


def _decode(state: bytes, k: int, labels: tuple[int, ...]) -> Configuration:
    piles = _rank_piles(state)
    return Configuration(k, tuple((v, tuple(labels[r] for r in piles[v])) for v in sorted(piles)))


def _rank_piles(state: bytes) -> dict[VertexId, list[int]]:
    """Vertex -> ascending ranks of the chips it holds."""
    piles: dict[VertexId, list[int]] = {}
    for r, v in enumerate(array("H", state)):
        piles.setdefault(v, []).append(r)
    return piles


def _pack(piles: dict[VertexId, list[int]], n: int) -> bytes:
    """Inverse of `_rank_piles` for a state of n chips."""
    arr = array("H", bytes(2 * n))
    for v, pile in piles.items():
        for r in pile:
            arr[r] = v
    return arr.tobytes()


def _check_reach(config: Configuration) -> None:
    """Refuse a start whose firing can send chips beyond the 16-bit encoding.

    By least action no firing sequence fires a vertex that the unlabeled
    stabilization leaves unfired, so no fired chip lands beyond the last
    child of the largest vertex that fires there.
    """
    k = config.k
    _, fires = _unlabeled_relax(k, {v: len(pile) for v, pile in config.chips})
    reach = max((k * v + k for v in fires), default=0)
    if reach > _VERTEX_LIMIT:
        raise ValueError(f"vertex {reach} exceeds the 16-bit state encoding")


def _successors(
    k: int, state: bytes, piles: dict[VertexId, list[int]]
) -> Iterator[tuple[VertexId, tuple[int, ...], bytes]]:
    """All (vertex, selected ranks, next state) one fire away from `state`."""
    base = array("H", state)
    for v, pile in piles.items():
        if len(pile) <= k:
            continue
        dests = destinations(k, v)
        for sel in combinations(pile, k + 1):
            nxt = array("H", base)
            for r, d in zip(sel, dests):
                nxt[r] = d
            yield v, sel, nxt.tobytes()


# ---------------------------------------------------------------------------
# search


@dataclass
class EnumerationResult:
    """Outcome of an exhaustive search from one starting configuration."""

    k: int
    labels: tuple[int, ...]
    start_key: bytes
    stable_keys: frozenset[bytes]
    states_explored: int
    memo_hits: int
    truncated: bool
    max_states: int
    max_stable: int
    witnesses: dict | None = field(default=None, repr=False)

    @cached_property
    def stable_set(self) -> frozenset[Configuration]:
        return frozenset(_decode(s, self.k, self.labels) for s in self.stable_keys)

    def iter_stable(self) -> Iterator[Configuration]:
        """Stable configurations in canonical (serialized) order."""
        return iter(sorted(self.stable_set, key=canonical_key))

    def witness_trace(self, config: Configuration) -> list[FiringMove]:
        """A firing sequence from the start configuration to `config`.

        Available only when the search recorded witnesses.
        """
        if self.witnesses is None:
            raise ValueError("witnesses were not recorded for this search")
        key = _encode(config, self.labels)
        if key != self.start_key and key not in self.witnesses:
            raise ValueError("no witness recorded for that configuration")
        chunks = []
        while key != self.start_key:
            key, moves = self.witnesses[key]
            chunks.append(moves)
        trace: list[FiringMove] = []
        for moves in reversed(chunks):
            trace.extend(
                FiringMove(v, tuple(self.labels[r] for r in sel)) for v, sel in moves
            )
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
    k = config.k
    shape = config.shape
    labels = config.labels()
    start = _encode(config, labels)
    _check_reach(config)

    visited = {start}
    stable_keys: set[bytes] = set()
    witnesses: dict | None = {} if record_witnesses else None
    work: deque[bytes] = deque([start])
    explored = hits = 0
    truncated = False
    while work:
        state = work.popleft()
        explored += 1
        piles = _rank_piles(state)
        if all(len(p) <= k for p in piles.values()):
            stable_keys.add(state)
            successors = ()
        elif (
            endgame_shortcut
            and len(piles.get(0, ())) == k + 1
            and not endgame_offenders(shape, ell := layer(shape, max(piles)) + 1, piles)
        ):
            moves = fire_waves(shape, ell, piles)
            successors = ((_pack(piles, len(labels)), tuple(moves)),)
        else:
            successors = ((nxt, ((v, sel),)) for v, sel, nxt in _successors(k, state, piles))
        for nxt, moves in successors:
            if nxt in visited:
                hits += 1
                continue
            visited.add(nxt)
            if witnesses is not None:
                witnesses[nxt] = (state, moves)
            work.append(nxt)
        if len(visited) > max_states or len(stable_keys) > max_stable:
            truncated = True
            break

    return EnumerationResult(
        k=k,
        labels=labels,
        start_key=start,
        stable_keys=frozenset(stable_keys),
        states_explored=explored,
        memo_hits=hits,
        truncated=truncated,
        max_states=max_states,
        max_stable=max_stable,
        witnesses=witnesses,
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
    }
    stream.write(json.dumps(summary, sort_keys=True) + "\n")
