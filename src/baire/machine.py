"""Monotone word functions, the name codec, and the universal evaluator.

A continuous function on Baire space is approximated by a monotone word
function f (u is a prefix of w implies f(u) is a prefix of f(w)); the value
on a stream p is the supremum of f over the prefixes of p.  A *name* is a
stream encoding the graph of such a function:

    symbols 0, 1, 2   dummies, skipped everywhere (usable as comments)
    3                 begin entry
    4                 input/output separator
    5                 end entry
    k >= 6            the natural k - 6

An entry (w, v) is the block 3, w0+6, ..., 4, v0+6, ..., 5.  Outside an
entry every symbol other than 3 is skipped; a malformed fragment is dropped
by skipping to the next 3.  Entries are accepted in arrival order and an
entry that would break consistency (comparable inputs must have comparable
outputs) is silently rejected, which makes every stream a valid name.

Decoding works on runs of symbols:
`EntryParser.scan` finds a run's structural symbols (3, 4, 5) in one pass
and takes the payload between them by slices; `EntryAccumulator` indexes the
accepted inputs in a trie, so an entry is compared only with the accepted
entries whose inputs are comparable with its own; `decode_entries` resumes
a longer prefix of a name from the accumulator of its previous schedule
prefix; and `RawEvalStream` charges each run of name symbols in closed form.

Constructed names additionally carry their word function, so evaluation can
take a direct route instead of scanning the encoded graph; the two routes
agree on every determined index and the tests exercise both.  A name that
denotes a transformer of names also carries its structured face,
`name.transformer`: a plain callable argument -> NameLike, which keeps
structure (a lazy pair, an injected stream) that the word-level routes would
flatten.  `eval_stream` and `apply_name_structured` are its only readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from typing import Callable, NamedTuple, Optional, Union

from .streams import (
    Fuel,
    FuelLike,
    BufferedStream,
    NeedMoreFuel,
    Stream,
    Word,
    as_fuel,
    as_stream,
    even_part,
    is_prefix,
    odd_part,
    word_sup,
)

ENTRY_BEGIN = 3
ENTRY_SEP = 4
ENTRY_END = 5
PAYLOAD_BASE = 6

Name = Stream  # a stream read through the codec above
NameLike = Union[Stream, Word]


class GraphEntry(NamedTuple):
    inp: Word
    out: Word


_to_payload = PAYLOAD_BASE.__add__


def encode_entry_block(entry: GraphEntry) -> Word:
    """The block 3, inp + 6, 4, out + 6, 5 of an entry (any (inp, out) pair)."""
    inp, out = entry
    return (ENTRY_BEGIN, *map(_to_payload, inp), ENTRY_SEP, *map(_to_payload, out), ENTRY_END)


_OUTSIDE, _READ_INPUT, _READ_OUTPUT = 0, 1, 2
_MARKS = frozenset((ENTRY_BEGIN, ENTRY_SEP, ENTRY_END))


class EntryParser:
    """Block parser with dummy skipping and malformed recovery, run by run.

    `scan` reads a run of symbols: one comprehension finds the structural
    symbols (3, 4, 5), unless a set test shows the run has none, the
    payload between them is taken by slices with the dummies dropped, and
    every completed entry is yielded with the index of its end symbol.
    The state carries over from run to run, so a block may straddle runs;
    `feed` is the run of one symbol.
    """

    __slots__ = ("state", "inp", "out")

    def __init__(self):
        self.state = _OUTSIDE
        self.inp = []
        self.out = []

    def feed(self, sym: int) -> Optional[GraphEntry]:
        for _, entry in self.scan((sym,), 0, 1):
            return entry
        return None

    def scan(self, run, lo: int, hi: int):
        """Yield (i, entry) for every entry ended by run[i], lo <= i < hi.

        A caller that stops after an entry leaves the parser just past
        that entry's end symbol, ready to scan from i + 1.
        """
        state = self.state
        start = lo
        if _MARKS.isdisjoint(islice(run, lo, hi)):
            marks = [hi]  # all payload or dummies (a zeros tail, say)
        else:
            # literals, not the names: this is the hottest loop of a read
            marks = [i for i in range(lo, hi) if 2 < run[i] < 6] + [hi]
        for i in marks:
            if state and start < i:  # payload up to this mark
                (self.inp if state == _READ_INPUT else self.out).extend(
                    [s - PAYLOAD_BASE for s in run[start:i] if s >= PAYLOAD_BASE]
                )
            if i == hi:
                break
            start = i + 1
            sym = run[i]
            if sym == ENTRY_BEGIN:
                # also inside an entry: drop it and start fresh here
                state = _READ_INPUT
                self.inp = []
                self.out = []
            elif state == _READ_INPUT:
                # an end marker before the separator is malformed
                state = _READ_OUTPUT if sym == ENTRY_SEP else _OUTSIDE
            elif state == _READ_OUTPUT:
                state = _OUTSIDE  # a second separator is malformed
                if sym == ENTRY_END:
                    self.state = state
                    yield i, GraphEntry(tuple(self.inp), tuple(self.out))
        self.state = state


class EntryAccumulator:
    """Parser plus the arrival-order consistency filter.

    The accepted inputs are indexed by a trie keyed by input symbol.  A node
    is [children, longest output accepted for its input word (the empty
    word if none, which is comparable with every word), outputs of the
    entries accepted below it], so an entry is compared with exactly the
    accepted entries whose inputs are comparable with its own: those on its
    input's path and those below its input's node.  The outputs on a path
    form a chain, so only the longest of them needs comparing.
    """

    __slots__ = ("parser", "accepted", "_seen", "_root")

    def __init__(self):
        self.parser = EntryParser()
        self.accepted = []
        self._seen = set()
        self._root = [{}, (), []]

    def feed(self, sym: int) -> Optional[GraphEntry]:
        entry = self.parser.feed(sym)
        if entry is None:
            return None
        return self.offer(entry)

    def take_run(self, run, lo: int, hi: int) -> None:
        """Parse run[lo:hi] and offer every entry it completes."""
        offer = self.offer
        for _, entry in self.parser.scan(run, lo, hi):
            offer(entry)

    def offer(self, entry: GraphEntry) -> Optional[GraphEntry]:
        if entry in self._seen:
            return None
        inp, out = entry
        node = self._root
        longest = node[1]
        size = len(longest)
        for sym in inp:
            node = node[0].get(sym)
            if node is None:
                break  # nothing accepted at or below the rest of the input
            if len(node[1]) > size:
                longest = node[1]
                size = len(longest)
        else:
            for v in node[2]:
                if not (out[: len(v)] == v or v[: len(out)] == out):
                    return None  # rejected: would break consistency
        if not (out[:size] == longest or longest[: len(out)] == out):
            return None
        node = self._root
        for sym in inp:
            node[2].append(out)
            children = node[0]
            node = children.get(sym)
            if node is None:
                node = children[sym] = [{}, (), []]
        if len(out) > len(node[1]):
            node[1] = out
        self.accepted.append(entry)
        self._seen.add(entry)
        return entry


# decode_entries hands the accumulator of each prefix it decodes on to the
# next, longer prefix of the same content; the table keeps the last few
_HANDOFF_SIZE = 8
_handoff: dict = {}  # name prefix -> the accumulator that decoded it


@lru_cache(maxsize=1 << 14)
def decode_entries(name_prefix: Word) -> tuple:
    """Accepted entries of a finite name prefix, in acceptance order.

    A miss resumes from the accumulator of the previous schedule prefix
    (the longest (k+3)² shorter than this one) of the same content when
    the hand-on table still holds it, and decodes from scratch otherwise.
    """
    n = len(name_prefix)
    start = math.isqrt(n - 1) ** 2 if n > 9 else 0  # (k+3)² < n, k >= 0
    acc = _handoff.pop(name_prefix[:start], None) if start else None
    if acc is None:
        acc, start = EntryAccumulator(), 0
    acc.take_run(name_prefix, start, n)
    if len(_handoff) >= _HANDOFF_SIZE:
        del _handoff[next(iter(_handoff))]
    _handoff[name_prefix] = acc
    return tuple(acc.accepted)


@lru_cache(maxsize=1 << 15)
def eval_name(name_prefix: Word, input_prefix: Word) -> Word:
    """Supremum of the outputs of accepted entries applying to the input.

    The applicable entries have inputs on one chain, so their outputs are
    pairwise comparable and the supremum is just the longest one.
    """
    best: Word = ()
    for u, v in decode_entries(name_prefix):
        if is_prefix(u, input_prefix):
            joined = word_sup(best, v)
            assert joined is not None, "consistency filter violated"
            best = joined
    return best


# ---------------------------------------------------------------------------
# fair word enumeration (shared by every graph enumerator)


def _stage_words(n: int):
    if n == 0:
        yield ()
        return
    for length in range(1, n + 1):
        top = n - length
        if top == 0:
            yield (0,) * length
            continue
        for w in product(range(top + 1), repeat=length):
            if max(w) == top:
                yield w


_word_pool: list = []
_word_source = (w for n in range(10**9) for w in _stage_words(n))


def candidate_word(k: int) -> Word:
    """k-th word of the fair enumeration (stage = length + largest symbol)."""
    while len(_word_pool) <= k:
        _word_pool.append(next(_word_source))
    return _word_pool[k]


# ---------------------------------------------------------------------------
# word machines and constructed names


@dataclass
class WordMachine:
    """A monotone word function, evaluated under a step budget.

    Monotonicity is the constructor's obligation; the test suite spot
    checks it for every machine family shipped here.
    """

    apply: Callable[[Word, Fuel], Word]
    label: str = ""


def pure_machine(fn: Callable[[Word], Word], label: str = "") -> WordMachine:
    return WordMachine(lambda w, fuel: fn(w), label)


def memoized_machine(apply_fn: Callable[[Word, Fuel], Word], label: str = "") -> WordMachine:
    """Machine caching successful applications per input word.

    Failures (fuel signals) are never cached, so a later, better funded
    query still computes the value.
    """
    memo = {}

    def apply(w, fuel):
        got = memo.get(w)
        if got is None:
            got = apply_fn(w, fuel)
            memo[w] = got
        return got

    return WordMachine(apply, label)


def identity_machine() -> WordMachine:
    return pure_machine(lambda w: w, "id")


class MachineName(BufferedStream):
    """A name constructed from a word machine.

    The raw symbols enumerate the machine's graph block by block in the
    fair word order (after an optional head, which the decoder skips).
    The machine itself is kept alongside for direct evaluation.

    `raw_apply`, when given, computes the entry emitted for a candidate
    word; constructions whose machine reads live sources pass a version
    restricted to finite slices here so the raw face never recurses into
    itself and never changes as the sources grow.

    One producer round, `_round`, applies `raw_apply` to the next candidate
    and returns the entry's block, which `_extend` queues.  An injected
    output draining this name runs `_round` itself (`InjectionOutput`): it
    pays the round's step, then whatever `raw_apply` charges, then the
    block's symbols, with one `take` and straight into `_buf` when they fit
    the headroom, else queued here and charged by `charge_run`.
    """

    def __init__(
        self,
        machine: WordMachine,
        head: Word = (),
        label: str = "",
        raw_apply=None,
    ):
        super().__init__()
        self.machine = machine
        self.head = tuple(head)
        self.label = label or machine.label
        self.transformer = None  # argument -> NameLike, when this names a transformer
        self.entries = None  # explicit finite graph, when known
        self.graph_complete = False
        self._raw_apply = raw_apply or machine.apply
        self._pending.extend(self.head)
        self._cand = 0

    def _extend(self, fuel: Fuel) -> None:
        self._pending.extend(self._round(fuel))

    def _round(self, fuel: Fuel) -> Word:
        """The block of the next candidate, or () when its entry is empty.

        The round's own step is the caller's; `raw_apply` charges the rest.
        """
        u = candidate_word(self._cand)
        v = self._raw_apply(u, fuel)
        self._cand += 1
        return encode_entry_block((u, v)) if v else ()


class ExplicitName(MachineName):
    """Name with a fixed finite entry list, padded with dummies forever.

    The raw face emits every entry; the direct face applies only those the
    decoder accepts in arrival order, filtered once here.
    """

    def __init__(self, entries, head: Word = (), label: str = ""):
        entries = [GraphEntry(tuple(u), tuple(v)) for u, v in entries]
        acc = EntryAccumulator()
        for e in entries:
            acc.offer(e)
        accepted = acc.accepted

        def apply(w, fuel):
            best = ()
            for u, v in accepted:
                if is_prefix(u, w):
                    best = word_sup(best, v)  # applicable accepted outputs nest
            return best

        super().__init__(WordMachine(apply, label or "table"), head, label)
        self.entries = entries
        self.graph_complete = True
        for e in entries:
            self._pending.extend(encode_entry_block(e))

    def _extend(self, fuel):
        self._buf.append(0)  # dummy padding once the blocks are drained


def encode_machine(machine: WordMachine, head: Word = (), label: str = "") -> MachineName:
    """Name whose decoded entries are the machine's enumerated graph."""
    return MachineName(machine, head, label)


def universal_machine() -> WordMachine:
    """Machine on interleaved words: even positions name, odd positions input."""
    return WordMachine(
        lambda w, fuel: eval_name(even_part(w), odd_part(w)),
        "universal",
    )


# ---------------------------------------------------------------------------
# evaluation routes

# name-prefix length read when applying a raw stream name to a k-long input
def _raw_schedule(k: int) -> int:
    return (k + 3) * (k + 3)


# nesting guard: self-referential constructions (fixed points applied to the
# identity transformer, say) would otherwise recurse without consuming fuel
_DEPTH_LIMIT = 64
_DEPTH_EDGE = Fuel(0)


class _NestingGuard:
    """Context manager counting nested evaluations on one shared counter.

    Entering past the limit signals "not yet" with the _DEPTH_EDGE tank and
    `what` as the message.  `check` is the same test without entering, for
    leaf evaluations that cannot nest further.
    """

    __slots__ = ("what",)
    depth = [0]  # shared by every guard; a list, so entering never writes the class

    def __init__(self, what: str):
        self.what = what

    def check(self) -> None:
        if self.depth[0] >= _DEPTH_LIMIT:
            raise NeedMoreFuel(_DEPTH_EDGE, self.what)

    def __enter__(self):
        self.check()
        self.depth[0] += 1

    def __exit__(self, *exc_info):
        self.depth[0] -= 1


_EVAL_NESTING = _NestingGuard("evaluation nesting limit")
_STRUCTURE_NESTING = _NestingGuard("structure nesting limit")


def apply_name(name: NameLike, input_prefix: Word, fuel: FuelLike = None) -> Word:
    """Evaluate a name on a finite input prefix, as a word.

    Words evaluate by decoding; constructed names use their machine; raw
    streams read a schedule-bounded prefix and decode it.  The result only
    grows when the input prefix grows.
    """
    fuel = as_fuel(fuel)
    fuel.tick()
    if isinstance(name, tuple):
        # decoding a word never nests, and a `with` would double the cost
        # of this, the hottest call
        _EVAL_NESTING.check()
        return eval_name(name, input_prefix)
    with _EVAL_NESTING:
        machine = getattr(name, "machine", None)
        if machine is not None:
            return machine.apply(input_prefix, fuel)
        pfx = name.prefix(_raw_schedule(len(input_prefix)), fuel)
        return eval_name(pfx, input_prefix)


class MachineStream(BufferedStream):
    """Output of a constructed name on a stream input (direct route).

    The input prefix grows geometrically between applications, which keeps
    the total decode work near-linear in the deepest prefix reached.  Note
    the symbols here are the *value* of the application; the stream does
    not expose a `machine` attribute because the function it names (when
    read as a name) is not the one being applied.
    """

    def __init__(self, machine: WordMachine, source: Stream, label: str = ""):
        super().__init__()
        self._applied = machine
        self.source = source
        self.label = label
        self._k = 0

    def _extend(self, fuel: Fuel) -> None:
        k = self._k * 2 if self._k else 1
        w = self.source.prefix(k, fuel)
        out = self._applied.apply(w, fuel)
        self._k = k
        if len(out) > len(self._buf):
            assert out[: len(self._buf)] == tuple(self._buf), "machine not monotone"
            self._buf.extend(out[len(self._buf) :])


class RawEvalStream(BufferedStream):
    """Output of a raw stream name on a stream input (decode route).

    Feeds name symbols through the incremental decoder, growing the input
    prefix on a fixed schedule, and emits the supremum of the applicable
    entry outputs as it grows.

    The name is read in runs that end at the next schedule boundary
    (`Stream.read_run`).  A symbol already paid for (a dense stream's
    `_buf`) costs nothing, a queued one (`queued()`) one step, and every
    round that produces nothing one step, exactly as when each symbol is
    read by `at` and each round ticks.  The first `paid` symbols of a run
    are the paid ones, so symbols 0 .. i-1 cost c(i) = i + max(0, i - paid)
    steps, and the symbol where the one-step path would signal follows from
    c and `Fuel.headroom` alone, with no per-symbol count; a run costing
    exactly the headroom is read to its end, and the next step signals.
    Only that stretch is scanned, by `EntryParser.scan`, which skips
    dummies; an entry that makes the output grow ends the run after its end
    symbol.  The run's total is charged with one `Fuel.take`, the queued
    symbols read go to the name's `_buf` by `commit`, and a run cut short
    by the headroom ticks after it, so the same tank signals.  A buffered
    name runs its producer rounds inside `read_run`, charged as `at`
    charges them; other names come one symbol a run, read and charged by
    `at`.
    """

    def __init__(self, name: Stream, source: Stream, label: str = ""):
        super().__init__()
        self.name = name
        self.source = source
        self.label = label
        self._acc = EntryAccumulator()
        self._name_pos = 0
        self._input = []
        self._waiting = []  # entries whose inputs may still extend the input
        self._best: Word = ()

    def _note(self, entry: GraphEntry) -> None:
        u = entry.inp
        got = tuple(self._input[: len(u)])
        if u[: len(got)] != got:
            return  # contradicts the input: never applicable
        if len(u) <= len(self._input):
            joined = word_sup(self._best, entry.out)
            assert joined is not None, "consistency filter violated"
            self._best = joined
        else:
            self._waiting.append(entry)

    def _grow_input(self, fuel: Fuel) -> None:
        sym = self.source.at(len(self._input), fuel)
        self._input.append(sym)
        waiting, self._waiting = self._waiting, []
        for entry in waiting:
            self._note(entry)

    def _extend(self, fuel: Fuel) -> None:
        # runs rounds until one produces, one name symbol per round; the
        # caller charged the first round, and each run of rounds up to the
        # next schedule boundary is charged here with one take
        buf = self._buf
        name = self.name
        scan = self._acc.parser.scan
        offer = self._acc.offer
        while True:
            end = _raw_schedule(len(self._input))
            while self._name_pos >= end:
                self._grow_input(fuel)
                end = _raw_schedule(len(self._input))
            if len(self._best) > len(buf):
                buf.extend(self._best[len(buf) :])
                return
            run, paid = name.read_run(self._name_pos, end, fuel)
            n = len(run)
            room = fuel.headroom()
            # symbols 0 .. i-1 cost c(i) = i + max(0, i - paid) steps, a
            # round each and a read each fresh one; m rounds fit the room
            m = room if room <= paid else (room + paid) // 2
            dry = m < n  # c(n) == room is not dry: the next step signals
            # c(m) <= room < c(m + 1): symbol m is still read unless it is
            # fresh and c(m) = 2m - paid leaves no step for its read (a
            # paid m has c(m) = m = room < paid, and passes the test)
            used = m + (2 * m - paid < room) if dry else n
            produced = False
            for i, entry in scan(run, 0, used):
                if offer(entry) is not None:
                    self._note(entry)
                    if len(self._best) > len(buf):
                        used, produced = i + 1, True
                        break
            # not `charge_run`: this one take also pays for the rounds
            if produced:  # no round step after the producing symbol
                fuel.take(used - 1 + max(0, used - paid))
            else:
                fuel.take(room if dry else n + max(0, n - paid))
            if used > paid:
                name.commit(used - paid)
            self._name_pos += used
            if produced:
                buf.extend(self._best[len(buf) :])
                return
            if dry:
                fuel.tick()  # raises for the tank the per-step path names


def eval_stream(name: NameLike, source: Stream) -> Stream:
    """Universal application U_name(source) as a lazy stream."""
    transformer = getattr(name, "transformer", None)
    if transformer is not None:
        try:
            return as_stream(transformer(source))
        except NeedMoreFuel:
            pass  # unresolvable structure (self-referential); use the faces
    return generic_universal(name, source)


def generic_universal(name: NameLike, source: Stream) -> Stream:
    """Universal application through the machine or decode face only.

    Validation uses this to re-derive steps without structured shortcuts.
    """
    if isinstance(name, tuple):
        return MachineStream(
            WordMachine(lambda w, fuel: eval_name(name, w), "literal"), source
        )
    machine = getattr(name, "machine", None)
    if machine is not None:
        return MachineStream(machine, source, label=f"ev:{getattr(name, 'label', '')}")
    return RawEvalStream(name, source)


def apply_name_structured(name: NameLike, argument, fuel: FuelLike = None):
    """Apply a name, keeping structure when the name denotes a transformer.

    Returns a NameLike: transformer names apply their transformer, other
    names fall back to the evaluation routes above.  Words as arguments
    yield word results (finite approximations of the same value).
    """
    transformer = getattr(name, "transformer", None)
    if transformer is not None:
        with _STRUCTURE_NESTING:
            return transformer(argument)
    if isinstance(argument, tuple):
        return apply_name(name, argument, fuel)
    return eval_stream(name, argument)


def compose_names(outer: NameLike, inner: NameLike) -> MachineName:
    """Name r with U_r(p) = U_outer(U_inner(p)) on every determined index."""

    def apply(w, fuel):
        mid = apply_name(inner, w, fuel)
        return apply_name(outer, mid, fuel)

    return MachineName(WordMachine(apply, "compose"))


def identity_name() -> MachineName:
    return encode_machine(identity_machine(), label="id")


# ---------------------------------------------------------------------------
# machine text format: one entry per line, `w -> v`, `eps` for the empty word


def parse_natural(token: str) -> int:
    """A natural number written in ASCII decimal digits; raises ValueError
    otherwise (`int` alone would take `+3`, `1_0`, ` 3` and non-ASCII digits)."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a natural: {token!r}")
    return int(token)


def parse_word_text(text: str) -> Word:
    """Space-separated naturals, or `eps` for the empty word."""
    text = text.strip()
    if text == "eps" or not text:
        return ()
    return tuple(parse_natural(tok) for tok in text.split())


def parse_machine_text(text: str) -> ExplicitName:
    """Parse the machine file format; raises ValueError naming a bad line."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "->" not in stripped:
            raise ValueError(f"line {lineno}: expected `w -> v`")
        left, _, right = stripped.partition("->")
        try:
            entries.append((parse_word_text(left), parse_word_text(right)))
        except ValueError:
            raise ValueError(f"line {lineno}: words are space-separated naturals")
    return ExplicitName(entries, label="file")


def machine_text(entries) -> str:
    def show(w):
        return " ".join(str(s) for s in w) if w else "eps"

    return "\n".join(f"{show(u)} -> {show(v)}" for u, v in entries)
