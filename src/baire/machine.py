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
entries whose inputs are comparable with its own.  `DecodeLog.take_run` is
the one run parser feeding it.  A raw stream name's accepted entries come
from a `DecodeLog`, which owns the decode: the readers of one plan name
(`PlanStream`, whose plan fixes its symbols) share the log of the last plan
read, so a name queried again is parsed once, while fuel is still charged
per reader; any other name gets a log of its own.  Both raw routes read
the log through an `AppliedValue`, the value on an input that only grows,
carried forward entry by entry: `RawEvalStream` charges each run of name
symbols in closed form and keeps a value of its own, and `apply_name` on
any raw stream name resumes the value the log keeps from its last call
while the input extends that call's.  Word names decode through
`decode_entries` and `eval_name`, two small caches keyed by content, and
take their value by `applied_sup`, the same rule in batch, kept apart
because a resumed value compares and copies its whole input on every call.

Constructed names additionally carry their word function, so evaluation can
take a direct route instead of scanning the encoded graph; the two routes
agree on every determined index and the tests exercise both.  A name that
denotes a transformer of names also carries its structured face,
`name.transformer`: a plain callable argument -> NameLike, which keeps
structure (a lazy pair, an injected stream) that the word-level routes would
flatten.  `eval_stream` and `apply_name_structured` are its only readers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from typing import Callable, NamedTuple, Optional, Union

from .streams import (
    Fuel,
    FuelLike,
    BufferedStream,
    NeedMoreFuel,
    PlanStream,
    Stream,
    Word,
    as_fuel,
    as_stream,
    even_part,
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


class AppliedValue:
    """`applied_sup` carried forward along an input that grows.

    `best` is the supremum of the outputs of the noted entries that apply
    to `input`, and `waiting` holds the noted entries whose inputs extend
    `input`, which a longer input may still apply.  `count` is the number
    of a log's accepted entries noted, in log order: its reader notes the
    entries from there on.
    """

    __slots__ = ("input", "count", "waiting", "best")

    def __init__(self):
        self.input: Word = ()
        self.count = 0
        self.waiting = []
        self.best: Word = ()

    def note(self, entry: GraphEntry) -> None:
        u = entry.inp
        got = self.input[: len(u)]
        if u[: len(got)] != got:
            return  # contradicts the input: never applicable
        if len(u) <= len(self.input):
            joined = word_sup(self.best, entry.out)
            assert joined is not None, "consistency filter violated"
            self.best = joined
        else:
            self.waiting.append(entry)

    def grow(self, symbols: Word) -> None:
        """Extend the input by `symbols` and note the waiting entries again."""
        self.input += symbols
        waiting, self.waiting = self.waiting, []
        for entry in waiting:
            self.note(entry)


class DecodeLog:
    """The accepted entries of a name's symbols, parsed once for its readers.

    `acc` is the accumulator that has parsed symbols 0 .. frontier-1, and
    `ends[j]` is the index of the end symbol of `acc.accepted[j]`.  What it
    accepts is a function of the symbols alone, so every reader of the same
    symbols may read its entries, each charging its own reads.  `value` is
    the last value the word face computed on the log (`value_on`), or None.
    """

    __slots__ = ("acc", "ends", "frontier", "value")

    def __init__(self):
        self.acc = EntryAccumulator()
        self.ends = []
        self.frontier = 0
        self.value = None

    def take_run(self, run, lo: int, hi: int) -> None:
        """Parse run[lo:hi], the symbols from the frontier on.

        A parse that raises leaves the log half-advanced, so it leaves the
        plan slot empty if the log was there.
        """
        base = self.frontier - lo
        offer, ends = self.acc.offer, self.ends
        try:
            for i, entry in self.acc.parser.scan(run, lo, hi):
                if offer(entry) is not None:
                    ends.append(base + i)
        except BaseException:
            if _plan_log[1] is self:
                _plan_log[:] = None, None
            raise
        self.frontier = base + hi

    def value_on(self, prefix: Word, word: Word) -> Word:
        """`applied_sup` on `word` of the entries that end within `prefix`,
        the name's first symbols, whose length grows with the word's.

        The log parses up to the prefix's end first.  When `word` extends
        the input of the last value, that value resumes: its waiting
        entries meet the new symbols and the entries after its count are
        noted; otherwise a value starts from entry 0.
        """
        value, self.value = self.value, None  # a raise leaves no half-advanced value
        if len(prefix) > self.frontier:
            self.take_run(prefix, self.frontier, len(prefix))
        if value is None or word[: len(value.input)] != value.input:
            value = AppliedValue()
        if len(word) > len(value.input):
            value.grow(word[len(value.input) :])
        top = bisect_left(self.ends, len(prefix))
        for entry in self.acc.accepted[value.count : top]:
            value.note(entry)
        value.count = top
        self.value = value
        return value.best


# the decode log of the last plan name read on the raw route, keyed by its
# plan (head, tail); (None, None) before the first and after a parse that
# raised
_plan_log: list = [None, None]


def _decode_log(name: Stream) -> DecodeLog:
    """The log a raw route, `RawEvalStream` or `apply_name`, reads its
    name's entries from.  Shared by the readers of one plan, which fixes
    the symbols, and private otherwise."""
    if type(name) is not PlanStream:
        return DecodeLog()
    key = (name.head, name.tail)
    if _plan_log[0] != key:
        _plan_log[:] = key, DecodeLog()
    return _plan_log[1]


@lru_cache(maxsize=64)  # transform: 221 words, each read twice, 1 other between; check: 2
def decode_entries(name_prefix: Word) -> tuple:
    """Accepted entries of a finite name prefix, in acceptance order."""
    log = DecodeLog()
    log.take_run(name_prefix, 0, len(name_prefix))
    return tuple(log.acc.accepted)


def applied_sup(accepted, word: Word) -> Word:
    """Supremum of the outputs of the accepted entries applying to a word.

    The applicable entries have inputs on one chain, so their outputs are
    pairwise comparable and the supremum is just the longest one.
    """
    best: Word = ()
    for u, v in accepted:
        if word[: len(u)] == u:
            joined = word_sup(best, v)
            assert joined is not None, "consistency filter violated"
            best = joined
    return best


@lru_cache(maxsize=256)  # transform: 221 keys, each reread at most 1 other apart; check: 4
def eval_name(name_prefix: Word, input_prefix: Word) -> Word:
    """The name prefix's value on the input: `applied_sup` of its entries."""
    return applied_sup(decode_entries(name_prefix), input_prefix)


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


# the candidate words read so far and, index for index, their block heads
# 3, word + 6, 4; a round reads its word before it builds its block
_word_pool: list = []
_head_pool: list = []
_word_source = (w for n in range(10**9) for w in _stage_words(n))


def candidate_word(k: int) -> Word:
    """k-th word of the fair enumeration (stage = length + largest symbol)."""
    while len(_word_pool) <= k:
        u = next(_word_source)
        _word_pool.append(u)
        _head_pool.append((ENTRY_BEGIN, *map(_to_payload, u), ENTRY_SEP))
    return _word_pool[k]


def block_head(k: int) -> Word:
    """The block head of the k-th candidate word."""
    if len(_head_pool) <= k:
        candidate_word(k)
    return _head_pool[k]


def candidate_block(k: int, v: Word) -> list:
    """The block of the k-th candidate word, once read, with output v, which
    every enumerated graph emits: the pooled head, v's payload and 5."""
    return [*_head_pool[k], *map(_to_payload, v), ENTRY_END]


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

    `raw_for_length`, when given, maps a candidate length n to the
    function (u, fuel) -> v that computes the entry emitted for every
    candidate u of that length, and is asked once per length (`_raw_at`).
    Constructions whose machine reads live sources restrict it to the
    sources' slices of length n, so the raw face never recurses into itself
    and never changes as the sources grow.

    One producer round applies its length's raw function to the next
    candidate and builds its block (`candidate_block`); `_extend` queues it.
    `read_rounds` is the one loop of rounds for a run reader that copies
    what it reads (`InjectionOutput`): each round pays its step, then
    whatever the raw function charges, then its block's symbols, with one
    `take` and straight into `_buf` and the reader's buffer when they fit
    the headroom.

    The caches that describe a name live on it and go with it: its raw
    functions per length (`_raw`) and `self_value`, its structured value on
    itself, which a uniform fixed point's self-application keeps there.
    """

    def __init__(
        self,
        machine: WordMachine,
        head: Word = (),
        label: str = "",
        raw_for_length=None,
    ):
        super().__init__()
        self.machine = machine
        self.label = label or machine.label
        self.transformer = None  # argument -> NameLike, when this names a transformer
        self.entries = None  # explicit finite graph, when known
        self.self_value = None  # U_self(self), once a fixed point has read it
        self._raw_for_length = raw_for_length or (lambda n: machine.apply)
        self._raw = {}  # candidate length -> its raw function
        self._pending.extend(head)
        self._cand = 0

    def _extend(self, fuel: Fuel) -> None:
        self._pending.extend(self._round(fuel))

    def _raw_at(self, n: int):
        """The raw function of the candidates of length n."""
        apply = self._raw.get(n)
        if apply is None:
            apply = self._raw[n] = self._raw_for_length(n)
        return apply

    def _round(self, fuel: Fuel):
        """The block of the next candidate, or () when its entry is empty.

        The round's own step is the caller's; the raw function charges the
        rest.
        """
        k = self._cand
        u = candidate_word(k)
        v = (self._raw.get(len(u)) or self._raw_at(len(u)))(u, fuel)
        self._cand = k + 1
        return candidate_block(k, v) if v else ()

    def read_rounds(self, pos: int, end: int, fuel: Fuel, out) -> tuple:
        """`read_run` for a reader that appends what it reads to `out`.

        With nothing produced or queued at `pos`, the rounds run here, a
        tick each.  Every block that fits the headroom is charged with one
        `take` and appended to `_buf` and to `out`.  The first block that
        does not fit, or whose round spent the tank, is queued and returned
        unpaid, (block, 0), for the reader to charge; ((), 0) means that a
        committed block spent `fuel` itself.  These are a plain
        `MachineName`'s rounds: subclasses that produce otherwise are read
        by `read_run`.
        """
        buf = self._buf
        if pos != len(buf) or self._pending:
            return self.read_run(pos, end, fuel)
        tick, headroom = fuel.tick, fuel.headroom
        raw, commit, emit = self._raw, buf.extend, out.extend
        words, block_of = _word_pool, candidate_block
        k = self._cand - 1
        while True:
            tick()
            k += 1
            try:
                u = words[k]
            except IndexError:
                u = candidate_word(k)
            v = (raw.get(len(u)) or self._raw_at(len(u)))(u, fuel)
            self._cand = k + 1
            if not v:
                continue  # nothing to charge: the next round ticks
            block = block_of(k, v)
            n = len(block)
            room = headroom()
            if n > room:
                self._pending.extend(block)
                return block, 0
            fuel.take(n)
            commit(block)
            emit(block)
            if n == room and not fuel.remaining:
                return (), 0  # the tank's own steps ran out, not an ancestor's


class ExplicitName(MachineName):
    """Name with a fixed finite entry list, padded with dummies forever.

    The raw face emits every entry; the direct face applies only those the
    decoder accepts in arrival order, filtered once here, and takes their
    value with `applied_sup`, as `eval_name` does for a decoded prefix.
    """

    def __init__(self, entries, head: Word = (), label: str = ""):
        entries = [GraphEntry(tuple(u), tuple(v)) for u, v in entries]
        acc = EntryAccumulator()
        for e in entries:
            acc.offer(e)
        accepted = acc.accepted
        machine = WordMachine(lambda w, fuel: applied_sup(accepted, w), label or "table")
        super().__init__(machine, head, label)
        self.entries = entries
        for e in entries:
            self._pending.extend(encode_entry_block(e))

    def _extend(self, fuel):
        self._buf.append(0)  # dummy padding once the blocks are drained


def encode_machine(machine: WordMachine, label: str = "") -> MachineName:
    """Name whose decoded entries are the machine's enumerated graph."""
    return MachineName(machine, label=label)


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
    """Context manager counting nested evaluations and structure applications.

    Entering past the limit signals "not yet" with the _DEPTH_EDGE tank.
    `check` is the same test without entering, for leaf evaluations that
    cannot nest further.
    """

    __slots__ = ()
    depth = [0]  # a list, so entering never writes the class

    def check(self) -> None:
        if self.depth[0] >= _DEPTH_LIMIT:
            raise NeedMoreFuel(_DEPTH_EDGE, "nesting limit")

    def __enter__(self):
        self.check()
        self.depth[0] += 1

    def __exit__(self, *exc_info):
        self.depth[0] -= 1


_NESTING = _NestingGuard()


def apply_name(name: NameLike, input_prefix: Word, fuel: FuelLike = None) -> Word:
    """Evaluate a name on a finite input prefix, as a word.

    Words evaluate by decoding (`eval_name`); constructed names use their
    machine; raw streams read a schedule-bounded prefix and take its value
    from the name's `DecodeLog`, which carries it forward while the input
    only grows (`DecodeLog.value_on`).  The result only grows when the
    input prefix grows.
    """
    fuel = as_fuel(fuel)
    fuel.tick()
    if isinstance(name, tuple):
        # decoding a word never nests, and a `with` would double the cost
        # of this, the hottest call
        _NESTING.check()
        return eval_name(name, input_prefix)
    with _NESTING:
        machine = getattr(name, "machine", None)
        if machine is not None:
            return machine.apply(input_prefix, fuel)
        pfx = name.prefix(_raw_schedule(len(input_prefix)), fuel)
        return _decode_log(name).value_on(pfx, input_prefix)


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
    (`Stream.read_run`).  A symbol already paid for (a plan's below its
    `paid()`, a buffered name's in its `_buf`) costs nothing, a queued one
    (`queued()`) one step, and every round that produces nothing one step,
    exactly as when each symbol is read by `at` and each round ticks.  The
    first `paid` symbols of a run are the paid ones, so symbols 0 .. i-1
    cost c(i) = i + max(0, i - paid) steps, and the symbol where the
    one-step path would signal follows from c and `Fuel.headroom` alone,
    with no per-symbol count; a run costing exactly the headroom is read to
    its end, and the next step signals.
    The name's `DecodeLog` parses the part of the run past its frontier,
    and the stream notes in its own `AppliedValue`, in order, the log's
    entries that end within the symbols it can pay for; an entry that makes
    the output grow ends the run after its end symbol.  The log belongs to
    the name's content: streams on one plan share it (`_decode_log`), so
    each symbol is parsed once whichever stream reads it first, and parsing
    reads content, never fuel; every stream still charges its own reads.
    The run's total is charged with one `Fuel.take`, the queued symbols
    read are the name's paid ones after `commit`, and a run cut short by the
    headroom ticks after it, so the same tank signals.  A buffered name
    runs its producer rounds inside `read_run`, charged as `at` charges
    them; other names come one symbol a run, read and charged by `at`.
    """

    def __init__(self, name: Stream, source: Stream, label: str = ""):
        super().__init__()
        self.name = name
        self.source = source
        self.label = label
        self._log = _decode_log(name)
        # its count: the log's entries noted, those ending before _name_pos
        self._value = AppliedValue()
        self._name_pos = 0

    def _extend(self, fuel: Fuel) -> None:
        # runs rounds until one produces, one name symbol per round; the
        # caller charged the first round, and each run of rounds up to the
        # next schedule boundary is charged here with one take
        buf = self._buf
        name = self.name
        log = self._log
        value = self._value
        ends, accepted = log.ends, log.acc.accepted
        while True:
            end = _raw_schedule(len(value.input))
            while self._name_pos >= end:
                value.grow((self.source.at(len(value.input), fuel),))
                end = _raw_schedule(len(value.input))
            if len(value.best) > len(buf):
                buf.extend(value.best[len(buf) :])
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
            pos = self._name_pos
            if pos + n > log.frontier:
                log.take_run(run, log.frontier - pos, n)
            produced = False
            j, stop = value.count, pos + used
            while j < len(ends) and ends[j] < stop:
                value.note(accepted[j])
                j += 1
                if len(value.best) > len(buf):
                    used, produced = ends[j - 1] + 1 - pos, True
                    break
            value.count = j
            # not `charge_run`: this one take also pays for the rounds
            if produced:  # no round step after the producing symbol
                fuel.take(used - 1 + max(0, used - paid))
            else:
                fuel.take(room if dry else n + max(0, n - paid))
            if used > paid:
                name.commit(used - paid)
            self._name_pos = pos + used
            if produced:
                buf.extend(value.best[len(buf) :])
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
        with _NESTING:
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
