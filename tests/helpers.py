"""Seeded generators and independent oracles shared across the test suite.

The oracles here re-derive results by deliberately naive means (explicit
scans, quadratic filters) so they stay independent of the production code
paths they check.
"""

import gc
import math
import random
from typing import Callable

from baire import machine
from baire.machine import (
    EntryAccumulator,
    ExplicitName,
    GraphEntry,
    MachineName,
    RawEvalStream,
    WordMachine,
    _raw_schedule,
    encode_entry_block,
    eval_stream,
)
from baire.streams import (
    WORD_EDGE,
    BufferedStream,
    Fuel,
    NeedMoreFuel,
    PlanStream,
    Stream,
    as_fuel,
    interleave_word,
    is_prefix,
)
from baire.transform import (
    InjectionOutput,
    PairFunctional,
    SliceSource,
    available_prefix,
    const_transformer_name,
    dummy_prefix_transformer_name,
    injection,
    recursion_T,
    split_source,
)


# --- independent decode/eval oracle -----------------------------------------


def naive_blocks(word):
    """(index of the end symbol, entry) for every well-formed block, in
    order, by explicit index walking; no shared parser code."""
    raw = []
    i, n = 0, len(word)
    while i < n:
        if word[i] != 3:
            i += 1
            continue
        j = i + 1
        inp, out = [], []
        part = inp
        bad = False
        while j < n:
            s = word[j]
            if s in (0, 1, 2):
                j += 1
            elif s >= 6:
                part.append(s - 6)
                j += 1
            elif s == 4:
                if part is inp:
                    part = out
                    j += 1
                else:
                    bad = True
                    break
            elif s == 5:
                break
            else:  # s == 3
                bad = True
                break
        if bad:
            i = j  # resume at the offending symbol
        elif j == n:
            break  # prefix ends mid-entry
        elif part is out:  # word[j] == 5 ends the entry
            raw.append((j, (tuple(inp), tuple(out))))
            i = j + 1
        else:
            i = j + 1  # an end symbol before the separator: malformed
    return raw


def naive_decode(word):
    """The blocks of `naive_blocks` through a quadratic consistency filter."""
    # two words are comparable when they agree on their common length
    accepted = []  # (input, output, their lengths)
    seen = set()
    for _, (u, v) in naive_blocks(word):
        if (u, v) in seen:
            continue
        lu, lv = len(u), len(v)
        for u2, v2, lu2, lv2 in accepted:
            n = lu if lu < lu2 else lu2
            if u[:n] == u2[:n]:
                m = lv if lv < lv2 else lv2
                if v[:m] != v2[:m]:
                    break
        else:
            accepted.append((u, v, lu, lv))
            seen.add((u, v))
    return [(u, v) for u, v, _, _ in accepted]


def naive_eval(name_word, input_word):
    best = ()
    for u, v in naive_decode(name_word):
        if is_prefix(u, input_word) and len(v) >= len(best):
            assert v[: len(best)] == best
            best = v
    return best


class PerSymbolRawEval(RawEvalStream):
    """The decode route reading its name one `at` call and one tick per symbol.

    This is `RawEvalStream._extend` as it was before names were read in
    runs, kept as the reference the run reader must match step for step.
    It feeds an accumulator of its own, symbol by symbol.
    """

    def __init__(self, name, source, label=""):
        super().__init__(name, source, label)
        self._acc = EntryAccumulator()

    def _extend(self, fuel):
        buf = self._buf
        value = self._value
        while True:
            while self._name_pos >= _raw_schedule(len(value.input)):
                value.grow((self.source.at(len(value.input), fuel),))
            if len(value.best) > len(buf):
                buf.extend(value.best[len(buf) :])
                return
            sym = self.name.at(self._name_pos, fuel)
            self._name_pos += 1
            entry = self._acc.feed(sym)
            if entry is not None:
                value.note(entry)
                if len(value.best) > len(buf):
                    buf.extend(value.best[len(buf) :])
                    return
            fuel.tick()


class BufferedPlanStream(PlanStream):
    """A plan stream that keeps the symbols it has paid for in a list.

    This is `PlanStream` as it was before a plan kept only the count of its
    paid symbols: `_buf` holds symbols 0 .. len-1, each already charged,
    `commit` copies the plan's next symbols into it and folds in the memo
    at its new end, and a run's queued symbols are copied from the plan
    after the list's.  It is kept as the reference the counting plan must
    match symbol for symbol, step for step and memo for memo.
    """

    def __init__(self, head=(), tail=("zeros",), label=""):
        super().__init__(head, tail, label)
        self._buf = []

    def at(self, n, fuel=None):
        buf = self._buf
        if n < len(buf):
            return buf[n]
        cache = self._cache
        got = cache.get(n)
        if got is not None:
            return got
        as_fuel(fuel).tick()
        value = self._compute(n, fuel)
        if n == len(buf):
            buf.append(value)
            while len(buf) in cache:  # the memo past the dense end folds in
                buf.append(cache.pop(len(buf)))
        else:
            cache[n] = value
        return value

    def paid(self):
        return len(self._buf)

    def word(self, a, b):
        return tuple(self._buf[a:b])

    def queued(self):
        return min(self._cache, default=math.inf) - len(self._buf)

    def commit(self, n):
        buf = self._buf
        self._plan_into(buf, len(buf), len(buf) + n)
        cache = self._cache
        while len(buf) in cache:
            buf.append(cache.pop(len(buf)))

    def read_run(self, pos, end, fuel):
        buf = self._buf
        dense = len(buf)
        if pos > dense:
            return Stream.read_run(self, pos, end, fuel)
        run = buf[pos:end]
        paid = len(run)
        if dense < end:
            self._plan_into(run, dense, min(end, dense + self.queued()))
        return run, paid

    def _plan_into(self, out, start, end):
        head = self.head
        out.extend(head[start:end])
        lo = max(start, len(head))
        if end <= lo:
            return
        if self.tail[0] == "zeros":
            out.extend([0] * (end - lo))
            return
        cyc = self.tail[1]
        shift = (lo - len(head)) % len(cyc)
        turn = cyc[shift:] + cyc[:shift]
        out.extend((turn * ((end - lo) // len(cyc) + 1))[: end - lo])

    def _compute(self, n, fuel):
        if n < len(self.head):
            return self.head[n]
        if self.tail[0] == "zeros":
            return 0
        cyc = self.tail[1]
        return cyc[(n - len(self.head)) % len(cyc)]


class PerSymbolInjectionOutput(InjectionOutput):
    """The injected output reading its inner name one `at` call per symbol.

    This is `InjectionOutput._extend` as it was before the inner name was
    drained in runs, kept as the reference the run drain must match step
    for step.
    """

    def _extend(self, fuel):
        if not self._block_emitted:
            v = self.p_stream.at(self._stage, fuel)
            self._pending.extend((1,) + (0,) * v + (1,))
            self._block_emitted = True
            return
        tank = Fuel(self._stage * self._stage - self._stage_spent, parent=fuel)
        inner = self._inner_stream()
        try:
            while tank.remaining > 0:
                sym = inner.at(self._inner_taken, tank)
                self._inner_taken += 1
                self._pending.append(2 if sym < 2 else sym)
        except NeedMoreFuel as blocked:
            if blocked.tank is not tank and blocked.tank is not WORD_EDGE:
                self._stage_spent += tank.spent
                raise
        self._stage += 1
        self._block_emitted = False
        self._stage_spent = 0


# the memo `transform` used before its caches moved onto what they describe;
# the frozen reference below still keys its injected names with it
class _KeyedMemo:
    """Values built once per key, for as long as the memo lives.

    A key may name a stream by its id, so each entry keeps the objects
    given with it alive and their ids are never reused while it stands.  A
    build that raises (a fuel signal, say) stores nothing.  The values kept
    are structures whose later reads are cached on them (a specialized
    name, a self-value, an injected name), so building one again would
    charge those reads again.
    """

    __slots__ = ("_table",)

    def __init__(self):
        self._table = {}

    def get(self, key, build: Callable, *alive):
        got = self._table.get(key)
        if got is None:
            got = self._table[key] = (build(), alive)
        return got[0]


class LastSplitReferencingFunctional(PairFunctional):
    """`transform._ReferencingFunctional` as it was before `smn` bound it
    once per candidate length: every call compares its slice object and
    argument length with the last call's, and makes the split again when
    either differs.  Kept as the reference the bound split must equal.
    """

    label = "self-ref"

    def __init__(self, f, inj):
        self.f = f
        self.inj = inj
        self._names = _KeyedMemo()
        self._last = (None, None, None)  # (slice, argument length, its split)

    @staticmethod
    def _key(s):
        if isinstance(s, tuple):
            return s
        if isinstance(s, SliceSource):
            return (LastSplitReferencingFunctional._key(s.base), s.limit)
        return id(s)

    def _split(self, sq, n, fuel):
        s, q = split_source(sq)
        q_pfx = available_prefix(q, n + 1, fuel)
        return self._names.get(self._key(s), lambda: self.inj.apply(s), s), q_pfx

    def apply(self, sq, p_word, fuel):
        n = len(p_word)
        last_sq, last_n, split = self._last
        if last_sq is not sq or last_n != n:
            split = self._split(sq, n, fuel)
            self._last = (sq, n, split)
        injected, q_pfx = split
        return self.f(injected, interleave_word(q_pfx, p_word), fuel)


def scanning_extract(w):
    """`transform.extractor_machine` as it was written, one symbol per loop
    turn, kept as the reference the C-level scans must equal."""
    out = []
    counting = False
    count = 0
    for sym in w:
        if counting:
            if sym == 0:
                count += 1
            elif sym == 1:
                out.append(count)
                counting = False
        elif sym == 1:
            counting = True
            count = 0
    return tuple(out)


class PerSymbolExtraction(BufferedStream):
    """`transform.Extraction` reading its source one `at` call per symbol,
    with `scanning_extract`'s loop: the reference whose symbols, charges
    and signals the run reads must equal."""

    def __init__(self, source):
        super().__init__()
        self.source = source
        self._pos = 0
        self._counting = False
        self._count = 0

    def _extend(self, fuel):
        while True:
            sym = self.source.at(self._pos, fuel)
            self._pos += 1
            if self._counting:
                if sym == 0:
                    self._count += 1
                elif sym == 1:
                    self._buf.append(self._count)
                    self._counting = False
                    return
            elif sym == 1:
                self._counting = True
                self._count = 0


def generator_entry_block(entry):
    """`encode_entry_block` as it was written with generator expressions,
    kept as the reference the encoder must equal."""
    return (3, *(s + 6 for s in entry.inp), 4, *(s + 6 for s in entry.out), 5)


class TickedFuel(Fuel):
    """`streams.Fuel` whose `take(n)` is up to n `tick()`s, stopping at the
    first signal, and whose `headroom` is the smallest `remaining` on the
    chain.  Kept as the reference the bulk charges must equal in every
    grant, count and signal.
    """

    __slots__ = ()

    def headroom(self):
        room, tank = self.remaining, self.parent
        while tank is not None:
            room, tank = min(room, tank.remaining), tank.parent
        return room

    def take(self, n):
        for grant in range(n):
            try:
                self.tick()
            except NeedMoreFuel:
                return grant
        return n


# --- seeded word machines -----------------------------------------------------


def transducer_machine(seed, chunk_bound=3, sym_bound=10):
    """Symbolwise transducer: each input symbol appends a seeded chunk.

    Monotone by construction (output is a fold over input symbols).
    """
    rng = random.Random(f"transducer:{seed}")
    table = {
        (pos, sym): tuple(
            rng.randrange(sym_bound) for _ in range(rng.randrange(chunk_bound))
        )
        for pos in range(8)
        for sym in range(8)
    }

    def apply(w):
        out = []
        for i, s in enumerate(w):
            out.extend(table[(min(i, 7), min(s, 7))])
        return tuple(out)

    return WordMachine(lambda w, fuel: apply(w), f"transducer{seed}")


# --- seeded raw names with known semantics ------------------------------------


class ChainPlan:
    """A raw name built from a chain of entries along a seeded input spine.

    Entry j is (spine[:j], target[:cut[j]]) with nondecreasing cuts, so the
    intended function maps any stream extending spine[:j] to at least
    target[:cut[j]].  Dummy noise, decoy conflicts and a malformed fragment
    are mixed into the raw symbols to exercise the decoder.
    """

    def __init__(self, seed, blocks=34):
        rng = random.Random(f"chain:{seed}")
        self.spine = tuple(rng.randrange(4) for _ in range(blocks))
        cuts = [0]
        for _ in range(blocks):
            cuts.append(cuts[-1] + 1 + rng.randrange(2))
        self.cuts = cuts
        self.target = tuple(rng.randrange(10) for _ in range(cuts[-1] + 4))
        syms = []
        if rng.random() < 0.5:
            syms.extend(rng.choice((0, 1, 2)) for _ in range(rng.randrange(3)))
        for j in range(blocks + 1):
            entry = GraphEntry(self.spine[:j], self.target[: cuts[j]])
            block = list(encode_entry_block(entry))
            for pos in range(len(block), 0, -1):  # sprinkle dummies
                if rng.random() < 0.1:
                    block.insert(pos - 1, rng.choice((0, 1, 2)))
            syms.extend(block)
            if j == 2:
                # decoy conflicting entry: same input, incompatible output
                wrong = tuple(s + 1 for s in self.target[: cuts[j]]) or (9,)
                syms.extend(encode_entry_block(GraphEntry(self.spine[:j], wrong)))
            if j == 4:
                syms.extend((3, 7, 3))  # malformed fragment, recovered at next 3
        self.name = PlanStream(syms, ("zeros",), label=f"chain{seed}")

    def expected(self, input_word):
        """Intended value on an input prefix (independent of the decoder)."""
        j = 0
        while j < len(self.spine) and is_prefix(self.spine[: j + 1], input_word):
            j += 1
        return self.target[: self.cuts[j]]

    def spine_stream(self, tail_seed=0):
        rng = random.Random(f"spine-tail:{tail_seed}")
        tail = tuple(rng.randrange(4) for _ in range(8))
        return PlanStream(self.spine, ("cycle", tail) if any(tail) else ("zeros",))


def seeded_plan_stream(seed, bound=4, length=24):
    rng = random.Random(f"plan:{seed}")
    head = tuple(rng.randrange(bound) for _ in range(length))
    cyc = tuple(rng.randrange(bound) for _ in range(1 + rng.randrange(3)))
    return PlanStream(head, ("cycle", cyc) if any(cyc) else ("zeros",))


def long_run_sizes(cycles, ops):
    """Run `cycles` cycles of `ops` operations on one shared recursion_T()
    and one shared injection(): each a dummy-prefix fixed point read on both
    sides of its equation, every third also an injection round trip of a
    name whose transformer returns a graph name.  After each cycle, with
    garbage collected, record the sizes of the process's candidate pools
    and the live `MachineName`s and `Fuel`s: [word pool, head pool, names,
    tanks]."""
    T, inj = recursion_T(), injection()
    sizes = []
    for _ in range(cycles):
        for i in range(ops):
            p_name = dummy_prefix_transformer_name(tuple((i // 3**j) % 3 for j in range(4)))
            fixed = T.apply(p_name)
            z = seeded_plan_stream(i)
            eval_stream(fixed, z).determined_prefix(16, Fuel(25_000))
            eval_stream(eval_stream(p_name, fixed), z).determined_prefix(16, Fuel(25_000))
            if i % 3 == 0:
                s = const_transformer_name(ExplicitName([((i % 5,), (4, 4))]))
                out = eval_stream(inj.apply(s), seeded_plan_stream(i, bound=3))
                inj.extract(out).determined_prefix(8, Fuel(50_000))
        gc.collect()
        live = gc.get_objects()
        sizes.append([
            len(machine._word_pool),
            len(machine._head_pool),
            sum(isinstance(o, MachineName) for o in live),
            sum(type(o) is Fuel for o in live),
        ])
        del live  # the next cycle's list would hold this one and all it holds
    return sizes


def codec_run_sizes(queries, every):
    """Run `queries` raw-name queries of the benchmark's `codec` workload
    (bench/workloads.py's `CodecOps(7)`, its machine-file queries skipped)
    in order, and after every `every`-th, with garbage collected, record
    [`decode_entries` entries, `eval_name` entries, plan log excess, word
    value excess, bytes traced].  The plan log excess is the number of
    accepted entries the plan slot's `DecodeLog` holds beyond those of its
    own name's symbols up to its frontier, and the word value excess the
    size (input, waiting entries and value) of the log's word value beyond
    that of a fresh value on the same input and entries: a log or value
    that kept anything of an earlier group reads above 0.  The queries are
    built before tracing starts, so the traced bytes are those that running
    them keeps; tracing starts after `every // 2` queries.  bench/ must be
    on the path; run without bytecode writing, so that nothing under bench/
    is written."""
    import tracemalloc

    import workloads

    def value_size(value):
        return len(value.input) + len(value.waiting) + len(value.best)

    codec = workloads.CodecOps(7, {}, None)
    raw = [i for i in range(queries * 2) if codec.kinds[i % len(codec.kinds)] != "file"]
    ops = [codec.op(i) for i in raw[:queries]]
    sizes = []
    for n, op in enumerate(ops, start=1):
        if n == every // 2:
            tracemalloc.start()
        op.run()
        if n % every == 0:
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0]
            (head, tail), log = machine._plan_log
            symbols = PlanStream(head, tail).prefix(log.frontier, Fuel(10**6))
            fresh = machine.DecodeLog()
            fresh.take_run(symbols, 0, len(symbols))
            fresh.value_on(symbols[: _raw_schedule(len(log.value.input))], log.value.input)
            sizes.append([
                machine.decode_entries.cache_info().currsize,
                machine.eval_name.cache_info().currsize,
                len(log.acc.accepted) - len(fresh.acc.accepted),
                value_size(log.value) - value_size(fresh.value),
                traced,
            ])
            del symbols, fresh, log
    tracemalloc.stop()
    return sizes
