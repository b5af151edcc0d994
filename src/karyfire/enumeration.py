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
the current level, the next one and the stable set.  The next level is
built as sets, which deduplicate its states.  A finished level is only
popped, so when its expansion begins each of its groups is packed into
one `bytearray` of fixed-width little-endian records, ceil(N * b / 8)
bytes per state for N chips, which is read from its last record to its
first.  The endgame group (below) is only counted, so it stays a set.

A level is grouped by chip-count vector.  The states of one group share
which vertices can fire, whether they are stable and which group each fire
leads to, so all of that is worked out once per group.  A state is not
decoded to fire it.  A lane test (Lamport, *Multiple byte processing with
full-word instructions*, 1975) finds the pile at v straight from the packed
int: with x = state ^ (v in every lane), `~((x & low) + low | x) & guards`
sets the guard (top) bit of exactly the lanes that hold v, in five int
operations for any b.  That mask names the pile, and per vertex it keys a
fire table: the deltas of all the pile's fires in `itertools.combinations`
order.  A table is built on the first state with that pile, in chunks that
start at `_FIRST_CHUNK` deltas and double, so a run cut after a few states
builds little more than it reads.  The successors of a fire are looked up
in the next level in C (`compress`, `map`, `set.__contains__`), and only
the new ones run Python code: the insert, the witness and the birth.  A
witness reads its selection off the lanes in which parent and successor
differ.  The chip count N alone fixes the one endgame shape the search
can meet, `endgame_start_counts(shape, ell)` for the ell with
N = layer_start(ell + 1).  So the search builds that count vector and its
wave network once, and a group has the endgame shape when its counts equal
the vector.  An endgame-shaped state has one outcome, so with the shortcut
on it is queued when it is born: a fixed gather per selection reads its
ranks off its parent's ranks sorted by vertex, which is the one decode
the search makes, and only for a parent with a new endgame successor; the
search never decodes the endgame state itself.  Every pile of an endgame
state feeds one wave fire, which sorts it, so the gather need not keep a
pile in order.
The queue is collapsed in batches, each in one lane-parallel run of the
compiled wave network (`WaveNetwork.run_lanes`), between parents once it
holds `_BATCH_LANES` states and at the end of every level; an endgame
start is queued like any birth.  The outcomes are deduplicated on their
packed final rows in the order their states were queued, and an outcome's
witness is the first queued endgame state that reached it, a collapse that
a witness trace replays with `stabilize`.  The state still joins the next
level, where it only deduplicates and is counted.  A root fire keeps its
median, so root selections that differ only in the median give one
successor: the search fires each set of shed chips once and counts the
other selections as memo hits, which leaves every counter as it would be
with one fire per selection.
"""

from __future__ import annotations

import json
from array import array
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, count, islice, repeat
from math import comb
from operator import itemgetter, lshift, not_
from typing import IO, Iterable, Iterator

from .engine import (
    Configuration,
    FiringMove,
    WaveNetwork,
    _unlabeled_relax,
    destinations,
    endgame_start_counts,
    initial_config,
    lane_code,
    run_waves,
    stabilize,
)
from .tree import TreeShape, VertexId, layer_start, relative_index

DEFAULT_MAX_STATES = 10**8
DEFAULT_MAX_STABLE = 10**7

_VERTEX_LIMIT = 0xFFFF  # a state spends at most 16 bits on each chip's vertex
# Endgame states queued before a flush between parents.  On the (2,4) slice,
# batches of 1,024 to 4,096 searched within noise of each other, while 64
# lanes spent about twice as long collapsing; every lane adds its pending
# ranks and its final row to the peak memory of the search.
_BATCH_LANES = 1024


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


def _lane_masks(n_chips: int, bits: int) -> tuple[int, int, int]:
    """Masks over the `n_chips` lanes of `bits` bits each: the lowest bit of
    every lane, the bits below each lane's top bit, and each top (guard) bit."""
    ones = ((1 << (n_chips * bits)) - 1) // ((1 << bits) - 1)
    return ones, ones * ((1 << (bits - 1)) - 1), ones << (bits - 1)


def _zero_lanes(x: int, low: int, guards: int) -> int:
    """The guard bit of every lane of `x` that is zero (Lamport, *Multiple
    byte processing with full-word instructions*, 1975).

    `(x & low) + low` carries into a lane's guard bit exactly when the lane
    has a bit set below it and never past the lane; `| x` adds the guard
    bit itself.  With `x = state ^ v * ones` the result marks the chips at v.
    """
    return ~((x & low) + low | x) & guards


def _guard_ranks(marks: int, bits: int) -> list[int]:
    """The ranks, ascending, whose lane has its guard bit set in `marks`."""
    return [r for r, bit in enumerate(bin(marks)[:1:-1][bits - 1 :: bits]) if bit == "1"]


# The first chunk of a fire table; each later chunk doubles the table.  A run
# cut after a few states builds little more than it reads, and at (2,13) a
# delta is an int of about 13 KB.
_FIRST_CHUNK = 16


class _FireTable(list):
    """The deltas of every fire of one pile, in `itertools.combinations`
    order.  `rest` yields the deltas not built yet, and is None once the
    table is complete; `read` builds them a chunk at a time as it reaches
    them."""

    __slots__ = ("rest",)

    def __init__(self, rest: Iterator[int]) -> None:
        super().__init__()
        self.rest: Iterator[int] | None = rest

    def read(self) -> Iterator[int]:
        """Every delta of the table, building the chunks not yet built."""
        return chain.from_iterable(self._chunks())

    def _chunks(self) -> Iterator[Iterable[int]]:
        """The deltas built so far, then each chunk once it is built."""
        yield islice(self, len(self))
        while self.rest is not None:
            want = max(len(self), _FIRST_CHUNK)
            chunk = list(islice(self.rest, want))
            self += chunk
            if len(chunk) < want:
                self.rest = None
            yield chunk


class _FireDeltas(dict):
    """Ascending ranks -> what firing them at vertex v adds to a state, and
    the fire tables of the piles met at v.

    The key holds the k+1 selected ranks, except at the root: the root keeps
    its median, so there the key holds only the k ranks that leave.  Entries
    are computed on first use.  A pile is named by its guard mask, the guard
    bits of the lanes that hold v, which `_zero_lanes(state ^ spread, ...)`
    reads straight off a packed state.  `tables` maps a guard mask to the
    `_FireTable` of that pile: its deltas, one per selection, taken from this
    dict so that piles sharing a selection share its int.
    """

    def __init__(self, k: int, v: VertexId, bits: int, ones: int) -> None:
        super().__init__()
        self.dests = list(destinations(k, v))
        if v == 0:
            del self.dests[k // 2]
        self.steps = [d - v for d in self.dests]
        self.v = v
        self.bits = bits
        self.spread = v * ones
        self.tables: dict[int, _FireTable] = {}

    def __missing__(self, sel: tuple[int, ...]) -> int:
        delta = self[sel] = sum(step << (r * self.bits) for r, step in zip(sel, self.steps))
        return delta

    def table(self, pile: int, shed: bytes | None) -> _FireTable:
        """A new, empty fire table for the pile with guard mask `pile`, kept
        in `tables`; at the root, `shed` holds the `_root_leavers` flags of
        the pile's size."""
        sels = combinations(_guard_ranks(pile, self.bits), len(self.dests))
        if shed is not None:
            sels = compress(sels, shed)
        table = self.tables[pile] = _FireTable(map(self.__getitem__, sels))
        return table


def _root_leavers(k: int, c: int) -> tuple[bytes, int]:
    """Which k-subsets of a root pile of c chips some root fire sheds, and how
    many of the comb(c, k+1) selections repeat one of them.

    A root fire keeps its median, so the selections that differ only in the
    median shed the same k chips.  A k-subset is shed when at least one chip
    of the pile lies strictly between its positions h-1 and h (h = k//2);
    with g such chips, g selections shed it.  Returns one flag byte per
    k-subset in `itertools.combinations` order and the number of surplus
    selections.  Lowering positions h.. by one maps the shed k-subsets one
    to one onto the k-subsets of c-1 positions, so the surplus is
    comb(c, k+1) - comb(c-1, k).
    """
    h = k // 2
    shed = bytes(p[h] - p[h - 1] > 1 for p in combinations(range(c), k))
    return shed, comb(c, k + 1) - comb(c - 1, k)


def _with_median(k: int, leavers: list[int], pile: int, bits: int) -> tuple[int, ...]:
    """The lexicographically first root selection that sheds `leavers`:
    they plus the smallest rank of the pile with guard mask `pile` above
    position h-1 of `leavers` (h = k//2)."""
    h = k // 2
    above = pile >> (leavers[h - 1] + 1) * bits  # the pile's lanes above that rank, from lane 0
    median = leavers[h - 1] + (above & -above).bit_length() // bits
    return (*leavers[:h], median, *leavers[h:])


def _births(starts: list[int], v: VertexId, dests: list[VertexId]) -> list[itemgetter]:
    """One gather per selection at v, in `itertools.combinations` order.

    A selection takes len(dests) chips of the pile at v and sends them,
    ascending, to `dests`.  Its gather reads the successor's ranks, grouped
    by vertex, off the parent's ranks sorted by vertex, in which the pile of
    u is `starts[u]:starts[u+1]`.  Within a vertex the ranks come in any
    order.
    """
    piles = [list(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
    gathers = []
    for picked in combinations(piles[v], len(dests)):
        after = [list(pile) for pile in piles]
        after[v] = [w for w in piles[v] if w not in picked]
        for w, d in zip(picked, dests):
            after[d].append(w)
        gathers.append(itemgetter(*(w for pile in after for w in pile)))
    return gathers


# ---------------------------------------------------------------------------
# search


def _pack(states: set[int], width: int) -> bytearray:
    """The states as little-endian records of `width` bytes, in set order."""
    packed = bytearray()
    for state in states:
        packed += state.to_bytes(width, "little")
    return packed


# A level maps each chip-count vector (one entry per vertex up to the reach)
# to the states at that depth with those counts: a set while the level is
# built, then, once `_Search.expand` begins on it, the states packed by
# `_pack`, except for the endgame counts, whose group stays a set.
Level = dict[tuple[int, ...], set[int] | bytearray]


class _Search:
    """Settings, counters and per-call caches of one level-by-level search
    from `config`.

    States are packed with `bits` bits per chip, enough for `reach`, the
    largest vertex a chip can occupy, so a count vector has reach + 1
    entries.  The first level holds the start alone: `start_counts`
    mapped to `{start_key}`.
    """

    def __init__(
        self,
        config: Configuration,
        max_states: int,
        max_stable: int,
        endgame_shortcut: bool,
        record_witnesses: bool,
    ) -> None:
        self.shape = shape = config.shape
        self.labels = labels = config.labels()
        self.n_chips = n_chips = len(labels)
        reach = _check_reach(config)
        self.bits = bits = max(reach, 1).bit_length()
        self.start_key = _encode(config, labels, bits)
        self.max_states = max_states
        self.max_stable = max_stable
        # state -> (parent state, (vertex, selected ranks)), or (parent, None) when
        # the state is the outcome of the parent's endgame collapse; None when off
        self.witnesses = {} if record_witnesses else None
        self.stable: set[int] = set()
        self.deltas: dict[VertexId, _FireDeltas] = {}
        # The final rows of the wave network, packed in lanes of `lane`, name the
        # outcomes one to one.
        self.outcomes: set[bytes] = set()
        # Endgame states queued since the last flush: their ranks grouped by
        # vertex, back to back, and the states themselves.
        self.pending: list[int] = []
        self.born: list[int] = []
        self.explored = 0
        self.hits = 0
        self.seen = 1  # distinct states found so far, the start included
        self.level_widths: list[int] = []
        self.truncated = False
        self.shifts = [r * bits for r in range(n_chips)]
        self.ones, self.low, self.guards = _lane_masks(n_chips, bits)
        self.width = (n_chips * bits + 7) // 8  # bytes per packed state
        self.lane = lane_code(n_chips - 1)
        # N chips fill an endgame start for at most one ell, the one with
        # N = layer_start(ell + 1).  So one count vector and one wave network
        # serve the whole search; both are None with the shortcut off or
        # when no ell fits.
        self.endgame_counts = self.network = None
        if endgame_shortcut:
            ell = 2
            while layer_start(shape, ell + 1) < n_chips:
                ell += 1
            counts = endgame_start_counts(shape, ell)
            if sum(counts) == n_chips:
                self.endgame_counts = (*counts, *repeat(0, reach + 1 - len(counts)))
                self.network = WaveNetwork(shape, ell)
        start_counts = [0] * (reach + 1)
        for v, pile in config.chips:
            start_counts[v] = len(pile)
        self.start_counts = tuple(start_counts)
        if self.start_counts == self.endgame_counts:  # queued like a birth; the first flush collapses it
            rank_of = {c: r for r, c in enumerate(labels)}
            self.pending += (rank_of[c] for _, pile in config.chips for c in pile)
            self.born.append(self.start_key)

    def expand(self, level: Level) -> Level:
        """Explore every state of one level and return the next level.

        The level arrives as sets and is packed first: each group becomes
        one `bytearray` of `width`-byte records, in set order, and is read
        from its last record to its first, so the states come in the order
        `list(set).pop()` gives.  A group is dropped once it is read, so its
        memory can serve the next level as it grows; shrinking the
        `bytearray` while it is read measured a higher peak RSS on the
        full (2,4) search, not a lower one.  Stable states go to the stable
        set.  With the shortcut on, a state whose counts equal
        `endgame_counts` was queued for collapse when it was born, so its
        group is only counted here and stays a set.  The queue is flushed
        between parents once it holds `_BATCH_LANES` states, and at the end
        of the level.  The search is truncated, and the rest of the level
        skipped, as soon as a limit is exceeded; `max_states` is checked
        after every new state, so a parent can stop in the middle of a fire.
        """
        self.level_widths.append(sum(map(len, level.values())))
        width = self.width
        for counts, states in level.items():
            if counts != self.endgame_counts:
                level[counts] = _pack(states, width)
        mask = (1 << self.bits) - 1
        low, guards = self.low, self.guards
        ranks = range(self.n_chips)
        shifts = self.shifts
        stable, witnesses, pending, born = self.stable, self.witnesses, self.pending, self.born
        max_states, max_stable = self.max_states, self.max_stable
        explored, hits, seen = self.explored, self.hits, self.seen
        nxt: Level = {}
        while level and not self.truncated:
            counts, states = level.popitem()
            if counts == self.endgame_counts:
                explored += len(states)
                self.truncated = seen > max_states or len(stable) > max_stable
                continue
            fires, surplus = self._group(counts, nxt)
            for at in range(len(states) - width, -1, -width):
                state = int.from_bytes(states[at : at + width], "little")
                explored += 1
                if not fires:
                    if state in stable:  # first reached as the outcome of an endgame collapse
                        explored -= 1
                        hits += 1
                        seen -= 1
                    else:
                        stable.add(state)
                else:
                    wires = None
                    add = state.__add__
                    first = seen
                    tried = 0  # selections whose successors were looked up
                    for fire, spread, tables, shed, known, insert, births in fires:
                        x = state ^ spread
                        pile = ~((x & low) + low | x) & guards  # _zero_lanes, inlined
                        table = tables.get(pile)
                        if table is None:
                            table = fire.table(pile, shed)
                        deltas = table if table.rest is None else table.read()
                        for i in compress(count(), map(not_, map(known, map(add, deltas)))):
                            succ = state + table[i]
                            insert(succ)
                            seen += 1
                            if witnesses is not None:
                                witnesses[succ] = (state, self._selection(fire, pile, state, succ))
                            if births is not None:
                                if wires is None:  # decoded only for a birth
                                    keys = [state >> s & mask for s in shifts]
                                    wires = sorted(ranks, key=keys.__getitem__)
                                pending += births[i](wires)
                                born.append(succ)
                            if seen > max_states:  # the limit ends this parent's other fires too
                                tried += i + 1
                                break
                        else:
                            tried += len(table)
                            continue
                        break
                    else:  # every fire ran, so the root's one fire per shed set stood for all its selections
                        hits += surplus
                    hits += tried - (seen - first)
                    if len(born) >= _BATCH_LANES:
                        new, repeats = self.flush(seen)
                        explored += new
                        seen += new
                        hits += repeats
                if seen > max_states or len(stable) > max_stable:
                    self.truncated = True
                    break
        if not self.truncated:
            new, repeats = self.flush(seen)
            explored += new
            seen += new
            hits += repeats
            self.truncated = seen > max_states or len(stable) > max_stable
        self.explored, self.hits, self.seen = explored, hits, seen
        return nxt

    def flush(self, seen: int) -> tuple[int, int]:
        """Collapse the queued endgame states to their stable outcomes in one
        lane-parallel run of the wave network, and record the new outcomes.

        The outcomes are deduplicated in the order their states were queued;
        an outcome's witness is the first queued state that reached it.
        `seen` is the search's count of distinct states: the flush stops one
        outcome past either limit, even in the middle of the batch.  Returns
        the number of new outcomes and the number of repeats.  An outcome
        lies a fixed number of wave fires deeper than any endgame state, so
        no level popped so far can have put it in the stable set.
        """
        born = self.born
        if not born:
            return 0, 0
        # bytes() packs a list of small ints about three times as fast as array()
        starts = array(self.lane, bytes(self.pending) if self.lane == "B" else self.pending)
        self.pending.clear()
        raw = self.network.run_lanes(starts).tobytes()
        size = len(raw) // len(born)
        rows = [raw[i : i + size] for i in range(0, len(raw), size)]
        fresh = [row for row in dict.fromkeys(rows) if row not in self.outcomes]
        if self.witnesses is not None:
            first = dict(zip(reversed(rows), reversed(born)))
        vertices, shift = self.network.final_vertices, self.shifts.__getitem__
        new = 0
        for row in fresh:
            self.outcomes.add(row)
            out = sum(map(lshift, vertices, map(shift, memoryview(row).cast(self.lane))))
            self.stable.add(out)
            if self.witnesses is not None:
                self.witnesses[out] = (first[row], None)
            new += 1
            if seen + new > self.max_states or len(self.stable) > self.max_stable:
                break
        born.clear()
        return new, len(rows) - len(fresh)

    def _group(self, counts: tuple[int, ...], nxt: Level) -> tuple[list, int]:
        """What every state with these non-endgame chip counts does, worked out once.

        Returns the fires and the surplus root selections that each state
        counts as memo hits.  A fire is (the `_FireDeltas` of its vertex, its
        `spread` and its `tables`, the `_root_leavers` flags at the root, the
        `__contains__` and `add` of the next-level set it feeds, its births).
        When the fire leads to `endgame_counts`, its births say,
        per selection in fire-table order, how to collapse a new successor:
        each is a gather of the successor's ranks grouped by vertex off the
        parent's ranks sorted by vertex.  Otherwise the births are None.
        Stable counts give no fires.
        """
        k = self.shape.k
        starts = list(accumulate(counts, initial=0))
        fires = []
        surplus = 0
        for v in (v for v, c in enumerate(counts) if c > k):
            after = list(counts)
            after[v] -= k + 1
            for d in destinations(k, v):
                after[d] += 1
            after = tuple(after)
            shed = None
            if v == 0:
                shed, surplus = _root_leavers(k, counts[0])
            fire = self.deltas.get(v)
            if fire is None:
                fire = self.deltas[v] = _FireDeltas(k, v, self.bits, self.ones)
            births = None
            if after == self.endgame_counts:
                births = _births(starts, v, fire.dests)
                if v == 0:
                    births = list(compress(births, shed))
            bucket = nxt.setdefault(after, set())
            fires.append((fire, fire.spread, fire.tables, shed, bucket.__contains__, bucket.add, births))
        return fires, surplus

    def _selection(self, fire: _FireDeltas, pile: int, state: int, succ: int) -> tuple[VertexId, tuple[int, ...]]:
        """The witness move of the fire that leads from `state` to `succ`.

        The selected ranks are the lanes in which the two states differ.  At
        the root, where the median stays, `_with_median` adds the median of
        the first selection from the pile with guard mask `pile`.
        """
        guards, bits = self.guards, self.bits
        moved = _guard_ranks(guards ^ _zero_lanes(state ^ succ, self.low, guards), bits)
        if fire.v:
            return fire.v, tuple(moved)
        return 0, _with_median(self.shape.k, moved, pile, bits)


class EnumerationResult:
    """Outcome of an exhaustive search from one starting configuration,
    read off the finished `_Search`.

    States are ints (see the module docstring) with `bits` bits per chip.
    `level_widths[d]` is the size of level d: the distinct states at depth d
    that the search popped or, for the last level of a truncated search,
    was about to pop.  With the endgame shortcut on, a collapse outcome is
    counted in `states_explored` without joining any level, and a level
    member that a collapse already produced counts as a memo hit.  So the
    widths of a complete run sum to `states_explored` only with the
    shortcut off.  Queued endgame states are flushed between parents and at
    the end of a level.  A truncated run stops after a state, during a
    fire (at the new state that exceeds `max_states`) or during a flush,
    so its partial counters are read at that boundary: a parent cut
    during a fire has counted neither its remaining successors nor its
    surplus root selections (those count as memo hits only once all its
    fires have run), the outcomes of states queued since the last flush
    are not counted, and a flush cut by a limit counts all of its repeats
    as memo hits.  The counters of a complete run do not depend on the
    batching.
    """

    def __init__(self, search: _Search) -> None:
        self.k = search.shape.k
        self.labels = search.labels
        self.start_key = search.start_key
        self.stable_keys = frozenset(search.stable)
        self.states_explored = search.explored
        self.memo_hits = search.hits
        self.truncated = search.truncated
        self.max_states = search.max_states
        self.max_stable = search.max_stable
        self.bits = search.bits
        self.level_widths = tuple(search.level_widths)
        self.witnesses = search.witnesses

    @cached_property
    def stable_set(self) -> frozenset[Configuration]:
        return frozenset(_decode(s, self.k, self.labels, self.bits) for s in self.stable_keys)

    @cached_property
    def _canonical_order(self) -> tuple[Configuration, ...]:
        return tuple(sorted(self.stable_set, key=canonical_key))

    def iter_stable(self) -> Iterator[Configuration]:
        """Stable configurations in canonical (serialized) order, sorted once per result."""
        return iter(self._canonical_order)

    def witness_trace(self, config: Configuration) -> list[FiringMove]:
        """A firing sequence from the start configuration to `config`.

        Available only when the search recorded witnesses.  A collapse step
        is replayed by `stabilize`: an endgame state has one outcome.
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
        trace: list[FiringMove] = []
        for parent, move in reversed(steps):
            if move is None:  # an endgame collapse: by confluence any firing order reaches its outcome
                trace += stabilize(_decode(parent, self.k, self.labels, self.bits), "lowest")[1]
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
    search = _Search(config, max_states, max_stable, endgame_shortcut, record_witnesses)
    level = {search.start_counts: {search.start_key}}
    while level and not search.truncated:
        level = search.expand(level)
    return EnumerationResult(search)


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
    expected = run_waves(config)  # also refuses a start without the endgame shape
    result = enumerate_stable(config, endgame_shortcut=False, **kwargs)
    if result.truncated:
        raise EnumerationTruncated("enumeration truncated — confluence undecided")
    return result.stable_set == {expected}


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
