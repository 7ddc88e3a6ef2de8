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

Constructed names additionally carry their word function, so evaluation can
take a direct route instead of scanning the encoded graph; the two routes
agree on every determined index and the tests exercise both.  A name that
denotes a transformer of names also carries its structured face,
`name.transformer`: a plain callable argument -> NameLike, which keeps
structure (a lazy pair, an injected stream) that the word-level routes would
flatten.  `eval_stream` and `apply_name_structured` are its only readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
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

DUMMY_SYMBOLS = (0, 1, 2)
ENTRY_BEGIN = 3
ENTRY_SEP = 4
ENTRY_END = 5
PAYLOAD_BASE = 6

Name = Stream  # a stream read through the codec above
NameLike = Union[Stream, Word]


class GraphEntry(NamedTuple):
    inp: Word
    out: Word


def encode_entry_block(entry: GraphEntry) -> Word:
    return (
        ENTRY_BEGIN,
        *(s + PAYLOAD_BASE for s in entry.inp),
        ENTRY_SEP,
        *(s + PAYLOAD_BASE for s in entry.out),
        ENTRY_END,
    )


_OUTSIDE, _READ_INPUT, _READ_OUTPUT = 0, 1, 2


class EntryParser:
    """Single-pass block parser with dummy skipping and malformed recovery."""

    __slots__ = ("state", "inp", "out")

    def __init__(self):
        self.state = _OUTSIDE
        self.inp = []
        self.out = []

    def feed(self, sym: int) -> Optional[GraphEntry]:
        if sym in DUMMY_SYMBOLS:
            return None
        if self.state == _OUTSIDE:
            if sym == ENTRY_BEGIN:
                self.state = _READ_INPUT
                self.inp = []
                self.out = []
            return None
        if sym == ENTRY_BEGIN:
            # unexpected begin inside an entry: drop it, start fresh here
            self.state = _READ_INPUT
            self.inp = []
            self.out = []
            return None
        if self.state == _READ_INPUT:
            if sym >= PAYLOAD_BASE:
                self.inp.append(sym - PAYLOAD_BASE)
            elif sym == ENTRY_SEP:
                self.state = _READ_OUTPUT
            else:  # end marker before the separator: malformed
                self.state = _OUTSIDE
            return None
        if sym >= PAYLOAD_BASE:
            self.out.append(sym - PAYLOAD_BASE)
            return None
        if sym == ENTRY_END:
            self.state = _OUTSIDE
            return GraphEntry(tuple(self.inp), tuple(self.out))
        self.state = _OUTSIDE  # second separator: malformed
        return None


class EntryAccumulator:
    """Parser plus the arrival-order consistency filter."""

    __slots__ = ("parser", "accepted", "_seen")

    def __init__(self):
        self.parser = EntryParser()
        self.accepted = []
        self._seen = set()

    def feed(self, sym: int) -> Optional[GraphEntry]:
        entry = self.parser.feed(sym)
        if entry is None:
            return None
        return self.offer(entry)

    def offer(self, entry: GraphEntry) -> Optional[GraphEntry]:
        if entry in self._seen:
            return None
        inp, out = entry
        size = len(inp)
        for u, v in self.accepted:
            # only a comparable input constrains the output
            if len(u) <= size:
                if inp[: len(u)] != u:
                    continue
            elif u[:size] != inp:
                continue
            if not (out[: len(v)] == v or v[: len(out)] == out):
                return None  # rejected: would break consistency
        self.accepted.append(entry)
        self._seen.add(entry)
        return entry


@lru_cache(maxsize=1 << 14)
def decode_entries(name_prefix: Word) -> tuple:
    """Accepted entries of a finite name prefix, in acceptance order."""
    acc = EntryAccumulator()
    for sym in name_prefix:
        acc.feed(sym)
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
        # one round queues the next candidate's block, if its entry is nonempty
        u = candidate_word(self._cand)
        v = self._raw_apply(u, fuel)
        self._cand += 1
        if v:
            self._pending.extend(encode_entry_block(GraphEntry(u, v)))


class ExplicitName(MachineName):
    """Name with a fixed finite entry list, padded with dummies forever."""

    def __init__(self, entries, head: Word = (), label: str = ""):
        entries = [GraphEntry(tuple(u), tuple(v)) for u, v in entries]

        def apply(w, fuel):
            best = ()
            for e in _filter_consistent(tuple(entries)):
                if is_prefix(e.inp, w):
                    joined = word_sup(best, e.out)
                    best = joined if joined is not None else best
            return best

        super().__init__(WordMachine(apply, label or "table"), head, label)
        self.entries = entries
        self.graph_complete = True
        for e in entries:
            self._pending.extend(encode_entry_block(e))

    def _extend(self, fuel):
        self._buf.append(0)  # dummy padding once the blocks are drained


@lru_cache(maxsize=1 << 12)
def _filter_consistent(entries: tuple) -> tuple:
    acc = EntryAccumulator()
    for e in entries:
        acc.offer(e)
    return tuple(acc.accepted)


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
    (`Stream.read_run`).  A symbol already paid for (a `PlanStream`'s dense
    prefix, a buffered stream's produced symbols) costs nothing, a fresh
    plan symbol one step, and every round that produces nothing one step,
    exactly as when each symbol is read by `at` and each round ticks.  The
    run's total is charged with one `Fuel.take`; a run that would outrun
    `Fuel.headroom` stops at the symbol where the one-step path signals and
    ticks there, so the same tank signals.  Other names come one symbol a
    run, read and charged by `at`.
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
        parse = self._acc.parser.feed
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
            room = fuel.headroom()
            cost = used = 0
            dry = produced = False
            for sym in run:
                if used >= paid:  # a fresh symbol costs one step to read
                    if cost >= room:
                        dry = True
                        break
                    cost += 1
                used += 1
                if sym not in DUMMY_SYMBOLS:
                    entry = parse(sym)
                    if entry is not None and offer(entry) is not None:
                        self._note(entry)
                        if len(self._best) > len(buf):
                            produced = True
                            break
                if cost >= room:  # the next round's step
                    dry = True
                    break
                cost += 1
            fuel.take(cost)
            if used > paid:
                name.record_run(run[paid:used])
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
    """A natural number written in decimal; raises ValueError otherwise."""
    try:
        value = int(token)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ValueError(f"not a natural: {token!r}")
    return value


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
