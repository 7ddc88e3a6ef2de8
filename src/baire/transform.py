"""Program transformations on names.

Everything here manufactures total transformations of names out of word
machines: specialization of one pair argument, a uniform fixed-point
builder, an injection that hides its input inside dummy blocks together
with the fixed extractor that recovers it, the injective combination of
the two, and a self-reproducing name.

Transformed names come with two synchronized faces: raw symbols (the
graph blocks, enumerated fairly from word-level approximations) and a
bound word machine used for direct evaluation.  The raw face and the
direct face approximate the same function; tests compare them on every
determined index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .machine import (
    MachineName,
    WordMachine,
    apply_name,
    apply_name_structured,
    block_head,
    candidate_block,
    candidate_word,
    decode_entries,
    encode_machine,
    eval_name,
    identity_machine,
    memoized_machine,
    NameLike,
)
from .streams import (
    BufferedStream,
    Fuel,
    FuelLike,
    NeedMoreFuel,
    Stream,
    WORD_EDGE,
    Word,
    WordStream,
    as_stream,
    charge_run,
    even_part,
    interleave_word,
    odd_part,
    pair_stream,
    read_prefix,
    unpair_stream,
)


def available_prefix(source, k: Optional[int], fuel: Fuel) -> Word:
    """Prefix up to length k, stopping quietly at the source's edge.

    Fuel shortages still propagate; only the permanent end of a finite
    approximation is treated as "no more symbols here".
    """
    return read_prefix(source, k, fuel, (WORD_EDGE,))


def bounded_value_prefix(value, k: int, fuel: Fuel, step_cap: int) -> Word:
    """Deterministically budgeted prefix of a word or stream value.

    Runs the value under a fresh tank of `step_cap` steps (chained to the
    caller's budget) and returns whatever got determined.  The cap makes
    the result a function of the inputs alone, so word-level faces built
    from it stay monotone and budget-independent.
    """
    tank = Fuel(step_cap, parent=fuel)
    return read_prefix(value, k, tank, (tank, WORD_EDGE))


class SliceSource(Stream):
    """Length-limited lazy view of a stream; the limit reads as WORD_EDGE.

    Used to hand a parameter *approximation* to a functional without
    eagerly materializing the slice, so components the functional never
    looks at are never computed.
    """

    def __init__(self, base: Stream, limit: int):
        self.base = base
        self.limit = limit

    def at(self, n: int, fuel: FuelLike = None) -> int:
        if n >= self.limit:
            raise NeedMoreFuel(WORD_EDGE, "beyond the parameter slice")
        return self.base.at(n, fuel)


def limit_source(source, k: int):
    if isinstance(source, tuple):
        return source[:k]
    return SliceSource(source, k)


def word_face(source, fuel: Fuel) -> Optional[Word]:
    """The finite word a source stands for, if it is word-like.

    Words are themselves; slice views materialize their available part;
    genuine streams return None.
    """
    if isinstance(source, tuple):
        return source
    if isinstance(source, SliceSource):
        return available_prefix(source, source.limit, fuel)
    return None


def split_source(pair_like):
    """Even/odd components of a pair given as a word or a stream.

    Slices of structured pairs split into slices of the originals, so a
    component the consumer never reads is never evaluated.
    """
    if isinstance(pair_like, tuple):
        return even_part(pair_like), odd_part(pair_like)
    if isinstance(pair_like, SliceSource):
        left, right = split_source(pair_like.base)
        k = pair_like.limit
        return limit_source(left, (k + 1) // 2), limit_source(right, k // 2)
    return unpair_stream(pair_like)


def join_sources(left, right):
    if isinstance(left, tuple) and isinstance(right, tuple):
        return interleave_word(left, right)
    return pair_stream(as_stream(left), as_stream(right))


# ---------------------------------------------------------------------------
# specialization


class PairFunctional:
    """A continuous function of a pair, split into parameter and argument.

    `apply(param, x, fuel)` returns a word, monotone in the argument prefix
    and in the parameter source.  `bind(param)` is `apply` with the
    parameter fixed, as (x, fuel) -> word, for arguments of one length:
    `smn` binds each candidate length's parameter slice once.  Subclasses
    may add `apply_structured` (lazy, structure-preserving application used
    by the fixed-point machinery).

    `silent(param)` is a certificate for `smn`: True promises that for
    every candidate u, `apply` on the slice of `param` at len(u) returns ()
    after exactly one `apply_name` call on a word (its tick, then the
    nesting check) and charges or reads nothing else.  Every round of the
    specialized name then costs exactly two steps and produces nothing, so
    `smn` runs the first one only, on candidate 0, and charges the others
    in bulk (`_SilentName`).  False, the default, promises nothing.

    What a functional builds for a parameter is cached with what it
    describes: on the parameter name (`MachineName.self_value`), in the
    function `bind` returns, or in a dict keyed by the word or stream.
    """

    label = ""
    apply_structured: Optional[Callable] = None

    def apply(self, param, x: Word, fuel: Fuel) -> Word:
        raise NotImplementedError

    def bind(self, param) -> Callable[[Word, Fuel], Word]:
        return partial(self.apply, param)

    def silent(self, param) -> bool:
        return False


class MachinePair(PairFunctional):
    """Word machine on interleaved pairs, viewed as a pair functional."""

    def __init__(self, machine: WordMachine):
        self.machine = machine
        self.label = machine.label

    def apply(self, param, x, fuel):
        return self.machine.apply(
            interleave_word(available_prefix(param, len(x), fuel), x), fuel
        )


@dataclass
class NameTransformer:
    """A total transformation of names with a word-level face.

    `apply` specializes a parameter source (word or stream) to a name;
    `machine` maps a parameter prefix to a prefix of the transformed name,
    which is what gets encoded when the transformer itself needs a name.
    """

    apply: Callable
    machine: WordMachine
    label: str = ""

    def name(self) -> MachineName:
        """A name t with U_t equal to this transformer."""
        n = encode_machine(self.machine, label=f"name({self.label})")
        n.transformer = self.apply
        return n


def transformer_word_prefix(F: PairFunctional, param_word: Word, fuel: Fuel) -> Word:
    """Prefix of the specialized name derivable from a parameter prefix.

    Emits graph blocks for candidate words in the fair order, fixing each
    entry's parameter slice at the candidate's own length so the emitted
    symbols never change as the parameter prefix grows.
    """
    out = []
    k = 0
    while True:
        u = candidate_word(k)
        if len(u) > len(param_word):
            break
        fuel.tick()
        v = F.apply(param_word[: len(u)], u, fuel)
        if v:
            out.extend(candidate_block(k, v))
        k += 1
    return tuple(out)


def smn(target) -> NameTransformer:
    """Specialization: a total S with U_{S(q)}(p) = F<q, p>.

    `target` is a word machine on interleaved pairs or a PairFunctional.
    The specialized name's graph holds entries (u, F(q-prefix-of-|u|, u)).
    A parameter that `F.silent` certifies gets a `_SilentName`, whose empty
    rounds are charged in bulk; its symbols, charges and signals are those
    of the plain `MachineName`.
    """
    F = target if isinstance(target, PairFunctional) else MachinePair(target)
    label = f"smn({F.label})" if F.label else "smn"

    def specialize(param) -> MachineName:
        def raw_for_length(n):
            # fix the parameter slice at the candidate's length so emitted
            # blocks never change as the parameter grows; the slice stays a
            # lazy view, so unread parameter components cost nothing, and
            # the candidates of one length share F bound to it
            return F.bind(limit_source(param, n))

        cls = _SilentName if F.silent(param) else MachineName
        name = cls(
            memoized_machine(lambda x, fuel: F.apply(param, x, fuel), label),
            label=label,
            raw_for_length=raw_for_length,
        )
        if F.apply_structured is not None:
            name.transformer = lambda argument: F.apply_structured(param, argument)
        return name

    machine = WordMachine(
        lambda w, fuel: transformer_word_prefix(F, w, fuel), label
    )
    return NameTransformer(specialize, machine, label)


class _SilentName(MachineName):
    """A specialized name whose every round is certified empty
    (`PairFunctional.silent`): each costs two steps, the round's own and
    `apply_name`'s, and queues nothing.

    `_extend` runs the next round as the round on candidate 0, which is
    alike and reads no word, so it keeps `apply_name`'s tick and nesting
    check; then it charges the rest of the headroom with one `charge_run`.
    `commit(n)` takes the n charged steps as round steps and moves the
    candidate past the n // 2 rounds they pay in full.  The short grant
    then ticks for the tank the round-by-round path names, with every
    tank's `spent` and `_cand` as that path leaves them.
    """

    def _extend(self, fuel: Fuel) -> None:
        self._raw_at(0)((), fuel)  # () by the certificate
        self._cand += 1
        charge_run(self, math.inf, fuel)

    def commit(self, n: int) -> None:
        # an odd last step is the next round's own; its `apply_name` tick
        # is the one that signals, so that round does not count
        self._cand += n // 2


# ---------------------------------------------------------------------------
# uniform fixed points


class _SelfApplication(PairFunctional):
    """G<u, z> = value at z of the name named by u applied to itself."""

    label = "self-apply"

    @staticmethod
    def _self_value(u: MachineName):  # a stream u is a fixed point's V(p)
        if u.self_value is None:
            u.self_value = apply_name_structured(u, u)
        return u.self_value

    def apply(self, u, z, fuel):
        w = word_face(u, fuel)
        if w is not None:
            return apply_name(eval_name(w, w), z, fuel)
        return apply_name(self._self_value(u), z, fuel)

    def silent(self, u):
        # a slice of a word u is a prefix of it, so its self-value is a
        # prefix of eval_name(u, u) and its accepted entries a prefix of
        # those; if none of them has an output, every round returns ()
        return isinstance(u, tuple) and not any(v for _, v in decode_entries(eval_name(u, u)))

    def apply_structured(self, u, z):
        if isinstance(u, tuple):
            return apply_name_structured(eval_name(u, u), z)
        return apply_name_structured(self._self_value(u), z)


class _ApplyThroughSpecializer(PairFunctional):
    """H<p, u> = prefix of U_p applied to the specialized name for u."""

    label = "apply-through"

    def __init__(self, specializer: NameTransformer):
        self.specializer = specializer
        self._cache = {}  # word u -> its specialized name

    def _specialized(self, u):
        if not isinstance(u, tuple):  # V(p), specialized once, for its self-value
            return self.specializer.apply(u)
        got = self._cache.get(u)
        if got is None:
            got = self._cache[u] = self.specializer.apply(u)
        return got

    def apply(self, p, u, fuel):
        p_word = word_face(p, fuel)
        if p_word is not None:
            p = p_word
        value = apply_name_structured(p, self._specialized(u), fuel)
        # deterministic inner budget: word faces must not hinge on the
        # caller's fuel, and a diverging application must cost a bounded
        # amount per entry
        return bounded_value_prefix(value, len(u), fuel, 4 * (len(u) + 4) ** 2)

    def apply_structured(self, p, u):
        return apply_name_structured(p, self._specialized(u))


def recursion_T() -> NameTransformer:
    """Total T with U_{T(p)} = U_{U_p(T(p))} for names p of total transformers.

    T(p) is built by specializing self-application and then feeding the
    result through p, the classical construction of a uniform fixed point.
    """
    G = _SelfApplication()
    D = smn(G)
    H = _ApplyThroughSpecializer(D)
    V = smn(H)

    def apply(p) -> MachineName:
        fixed = D.apply(V.apply(p))
        fixed.label = "fix"
        return fixed

    machine = WordMachine(
        lambda w, fuel: transformer_word_prefix(
            G, transformer_word_prefix(H, w, fuel), fuel
        ),
        "fix",
    )
    return NameTransformer(apply, machine, "recursion")


# ---------------------------------------------------------------------------
# injection with a fixed extractor


class InjectionOutput(BufferedStream):
    """The stream produced by an injected name on an input p.

    Stage i emits the marker block 1, 0^p(i), 1 and then every inner
    symbol of U_s(p) newly determined within a fresh budget of i*i steps,
    with inner 0s and 1s rewritten to 2.  Blocks are all dummies and the
    rewrite moves between dummies, so decoding still yields the graph of
    U_{U_s(p)}; scanning the marker blocks recovers p exactly.

    A stage charges a child tank of the reader's for what is left of its
    allowance.  It drains the inner name a run at a time
    (`Stream.read_run`): the run's paid symbols are free, its queued ones,
    up to the headroom, are charged and committed by `charge_run`, and the
    stage stops at the symbol, and signals for the tank, where reading one
    symbol per `at` while the stage has steps would.  A plain `MachineName`
    is drained by its own round loop, `read_rounds`, which also appends to
    this output every block it commits: each round ticks the stage tank,
    the raw function charges what it reads to the same tank, and a block
    that fits the headroom is paid with one `take`.  The block that does
    not fit, or whose round spent the stage, comes back queued on the inner
    name and is charged from there as any queued run is.  The charges thus
    keep their order, round by round: tick, apply, block symbols.

    The extractor (`Extraction`) reads this output only up to the 1 that
    closes the marker block it needs, so no stage past that block runs.
    """

    def __init__(self, s_source, p_source, label: str = ""):
        super().__init__()
        self.s_source = s_source
        self.p_stream = as_stream(p_source)
        self.label = label
        self._inner = None
        self._stage = 0
        self._block_emitted = False
        self._stage_spent = 0
        self._inner_taken = 0

    @property
    def machine(self) -> WordMachine:
        # built on read: a stored machine over a bound method would make
        # every output a reference cycle, freed only by the cyclic collector
        return WordMachine(self._apply_word, f"inj-out({self.label})")

    def _inner_stream(self) -> Stream:
        if self._inner is None:
            self._inner = as_stream(apply_name_structured(self.s_source, self.p_stream))
        return self._inner

    def _apply_word(self, z, fuel):
        # semantics of this stream as a name: same function U_s(p) names
        return apply_name(self._inner_stream(), z, fuel)

    def _extend(self, fuel: Fuel) -> None:
        if not self._block_emitted:
            v = self.p_stream.at(self._stage, fuel)
            self._pending.extend((1,) + (0,) * v + (1,))
            self._block_emitted = True
            return
        # one tank for what is left of the stage's allowance; an outer
        # signal interrupts the stage, which resumes with the rest
        allowance = self._stage * self._stage - self._stage_spent
        tank = Fuel(allowance, fuel)
        inner = self._inner_stream()
        rounds = type(inner) is MachineName
        out = self._pending
        try:
            while tank.remaining > 0:
                pos = self._inner_taken
                if rounds:
                    # block symbols are >= 3, so the committed ones, which
                    # `read_rounds` appends to `out` too, need no rewrite
                    start = len(out)
                    try:
                        run, paid = inner.read_rounds(pos, pos + tank.remaining, tank, out)
                    finally:
                        pos = self._inner_taken = pos + len(out) - start
                    if not run:
                        break  # the committed blocks spent the stage
                else:
                    # other inner streams (the `inject` kind's `RawEvalStream`,
                    # a `PlanStream`, a `MachineStream`) have no block rounds
                    # to run here: `read_run` runs and charges their own
                    run, paid = inner.read_run(pos, pos + tank.remaining, tank)
                n = len(run)
                if not tank.remaining:
                    # a producer round spent the stage: the one-step loop
                    # keeps the symbol it read and stops, free ones or not
                    used = min(paid, 1)
                else:  # the free symbols, then what the headroom pays for
                    used = min(n, paid + tank.headroom())
                    charge_run(inner, used - paid, tank)
                self._inner_taken = pos + used
                out.extend([2 if sym < 2 else sym for sym in run[:used]])
                if used < n and (not used or tank.remaining):
                    # the one-step loop would read on: it signals here, for
                    # the tank that the next read's tick names
                    tank.tick()
        except NeedMoreFuel as blocked:
            if blocked.tank is not tank and blocked.tank is not WORD_EDGE:
                self._stage_spent += tank.spent
                raise
            # otherwise the stage budget is spent, or the approximation ends
        self._stage += 1
        self._block_emitted = False
        self._stage_spent = 0


class _InjectionFunctional(PairFunctional):
    """Pair functional behind the injection: (s, p) -> injected output."""

    label = "inject"

    def apply(self, s, p_word, fuel):
        return available_prefix(InjectionOutput(s, WordStream(p_word)), None, fuel)

    def apply_structured(self, s, p):
        return InjectionOutput(s, p, label="inj")


def _close_marker(seq, i: int, zeros: Optional[int]) -> tuple:
    """The extractor's pairing rule, one marker block at a time.

    The 1s pair up in order, each pair delimiting a marker block whose
    value is the number of 0s between its two 1s; every other symbol is
    skipped.  The scan reads seq from index i; `zeros` is None between
    blocks and otherwise the 0s the open block has held so far.  Returns
    (j, value) with j just past the 1 that closes the block, or, when seq
    holds no such 1, (None, the state at its end).  The scans for 1s and
    the counts of 0s run in C.
    """
    if zeros is None:
        try:
            i = seq.index(1, i) + 1
        except ValueError:
            return None, None
        zeros = 0
    try:
        j = seq.index(1, i)
    except ValueError:
        return None, zeros + seq[i:].count(0)
    return j + 1, zeros + seq[i:j].count(0)


def extractor_machine() -> WordMachine:
    """The fixed machine L recovering p from any injected output, on words.

    Emits the value of every marker block the word closes (`_close_marker`);
    a last unpaired 1 opens a block that yields nothing.  `Extraction`
    applies the same rule to a stream, one block per symbol.
    """

    def apply(w, fuel):
        out = []
        i = 0
        while True:
            i, value = _close_marker(w, i, None)
            if i is None:
                return tuple(out)
            out.append(value)

    return WordMachine(apply, "extract")


class Extraction(BufferedStream):
    """L applied to a stream: symbol j is the value of its j-th marker block.

    A round determines one symbol and reads the source only up to the 1
    that closes that symbol's block, so an injected output runs no stage
    past the marker block read last.  It reads runs of doubling width
    (`Stream.read_run`) and charges them as reading each symbol by `at`
    would: paid symbols are free, queued ones cost a step each and are
    charged by `charge_run` up to that 1, and a producer round that
    `read_run` runs costs a step.  The round itself is one step, taken by
    `at` as for any buffered stream.  A charge cut short leaves the source
    position and the scan state as they were; the symbols it granted are
    paid, so the next round reads them again for free.
    """

    def __init__(self, source: Stream, label: str = "extract"):
        super().__init__()
        self.source = source
        self.label = label
        self._pos = 0  # source symbols read
        self._zeros = None  # the open block's 0s; None between blocks

    def _extend(self, fuel: Fuel) -> None:
        source = self.source
        width = 64
        while True:
            pos = self._pos
            run, paid = source.read_run(pos, pos + width, fuel)
            end, found = _close_marker(run, 0, self._zeros)
            used = len(run) if end is None else end
            if used > paid:
                charge_run(source, used - paid, fuel)
            self._pos = pos + used
            if end is not None:
                self._zeros = None
                self._buf.append(found)  # the block's value
                return
            self._zeros = found  # the scan state at the run's end
            width *= 2


@dataclass
class Injection:
    """The injection transformer I together with its fixed extractor L.

    `extractor` is L as a machine on words; `extract` applies it to a
    stream as an `Extraction`.
    """

    transformer: NameTransformer
    extractor: WordMachine

    def apply(self, s) -> MachineName:
        return self.transformer.apply(s)

    def extract(self, stream: Stream) -> Stream:
        return Extraction(stream)


def injection() -> Injection:
    """Total I making every name's function an injection, semantics kept.

    U_{I(s)}(p) encodes p in dummy marker blocks while reproducing the
    graph content of U_s(p), so U_{U_{I(s)}(p)} = U_{U_s(p)} whenever the
    latter is defined, and the single extractor L satisfies L(U_{I(s)}(p))
    = p for every s.
    """
    transformer = smn(_InjectionFunctional())
    transformer.label = "inject"
    L = extractor_machine()
    return Injection(transformer, L)


# ---------------------------------------------------------------------------
# injective recursion


class _ReferencingFunctional(PairFunctional):
    """A<(s, q), p> = f(name of I(s), <q, p>) for a host functional f.

    Splitting a parameter gives the injected name and the q prefix f reads.
    The injected name is kept in `_names`, keyed by s itself (words hash by
    content, streams by identity, and the dict keeps its stream keys alive)
    or, for a slice, by its base's key and its limit, so every split of the
    parameter shares it.  A bound function makes its split at its first
    call that returns and keeps it, so `smn`, which binds this once to each
    candidate length's slice, splits each slice once, and a round goes
    from the bound function straight to f.  Splitting again would read only
    q symbols read before, which costs no fuel, so the charges are those of
    splitting at every call.
    """

    label = "self-ref"

    def __init__(self, f, inj: Injection):
        self.f = f
        self.inj = inj
        self._names = {}

    @staticmethod
    def _key(s):
        if isinstance(s, SliceSource):
            return (_ReferencingFunctional._key(s.base), s.limit)
        return s

    def apply(self, sq, p_word, fuel):
        return self.bind(sq)(p_word, fuel)

    def bind(self, sq):
        f = self.f
        injected = q_pfx = None

        def apply(p_word, fuel):
            nonlocal injected, q_pfx
            if injected is None:
                s, q = split_source(sq)
                q_pfx = available_prefix(q, len(p_word) + 1, fuel)
                key = self._key(s)
                injected = self._names.get(key)
                if injected is None:
                    injected = self._names[key] = self.inj.apply(s)
            return f(injected, interleave_word(q_pfx, p_word), fuel)

        return apply


class _NamePrefixFunctional(PairFunctional):
    """C<s, q> = raw prefix of the name produced by an inner specializer."""

    label = "name-prefix"

    def __init__(self, inner: NameTransformer):
        self.inner = inner

    def apply(self, s, q_word, fuel):
        length_cap = (len(q_word) + 2) * (len(q_word) + 2)
        # deterministic sweep budget; stops where this approximation of s/q
        # determines no more
        return bounded_value_prefix(
            self.apply_structured(s, q_word), length_cap, fuel, 64 * length_cap
        )

    def apply_structured(self, s, q):
        return self.inner.apply(join_sources(s, q))


@dataclass
class InjectiveRecursion:
    """Total computable injection R with U_{R(q)}(p) = f(R, <q, p>).

    R(q) is the output of the injected fixed point I(t*) on q, built by
    `apply`.  `name_stream` is the verbatim name of R handed to f as its
    first argument; `extract` undoes R on every tested prefix.
    """

    fixed: MachineName  # t*
    name_stream: Stream
    extract: Callable[[Stream], Stream]
    label: str

    def apply(self, q) -> InjectionOutput:
        return InjectionOutput(self.fixed, q, label=self.label)


def injective_recursion(f, label: str = "") -> InjectiveRecursion:
    """Build R for a host functional f(name_of_R, pair_prefix, fuel) -> word.

    Follows the double-specialization route: specialize f against injected
    names, name the resulting transformer, take its uniform fixed point t*,
    and let R be the function named by I(t*).
    """
    inj = injection()
    S1 = smn(_ReferencingFunctional(f, inj))
    S = smn(_NamePrefixFunctional(S1))
    t = S.name()
    T = recursion_T()
    t_fixed = T.apply(t)
    return InjectiveRecursion(t_fixed, inj.apply(t_fixed), inj.extract, label or "R(q)")


# ---------------------------------------------------------------------------
# self-reproducing name


class SelfPairingName(MachineName):
    """A name q with U_q(p) = <q, p>: the fixed point solved by laziness.

    Entry for a word u is (u, <q, u>), where the output quotes the name's
    own earlier symbols.  Each block's header (begin marker, input payload,
    separator) is emitted before its output is computed, so those self
    reads always land in the already-produced buffer; the blocks emitted
    so far always outrun the prefix the next output needs.
    """

    def __init__(self):
        self._header_done = False
        super().__init__(WordMachine(self._apply, "quine"))

    def _apply(self, x: Word, fuel: Fuel) -> Word:
        return interleave_word(self.prefix(len(x), fuel), x)

    def _extend(self, fuel: Fuel) -> None:
        k = self._cand
        if not self._header_done:
            self._pending.extend(block_head(k))
            self._header_done = True
            return
        u = candidate_word(k)
        assert len(u) <= len(self._buf) or not u, "self reference outran buffer"
        block = candidate_block(k, self._apply(u, fuel))
        self._pending.extend(block[len(block_head(k)) :])  # the head is queued
        self._cand = k + 1
        self._header_done = False


def quine() -> SelfPairingName:
    """A name q with U_q(p) = <q, p> on every determined index.

    This is the fixed point U_q = U_{S(q)} of the pair specializer S (the
    specialization of the pairing <q, p> at its first argument), whose
    existence the uniform recursion theorem guarantees; it is built here
    by self-referential enumeration, which additionally makes the raw
    symbols cheap to produce.
    """
    return SelfPairingName()


# ---------------------------------------------------------------------------
# ready-made total transformer names (used by tests and the loop machinery)


def const_transformer_name(value: NameLike) -> MachineName:
    """Name of the transformer sending every name to `value`."""

    def apply(w, fuel):
        return read_prefix(value, len(w), fuel, ())

    n = encode_machine(WordMachine(apply, "const"), label="const")
    n.transformer = lambda argument: value
    return n


def identity_transformer_name() -> MachineName:
    n = encode_machine(identity_machine(), label="id-transformer")
    n.transformer = lambda argument: argument
    return n


class _Prefixed(BufferedStream):
    """A fixed head, then the tail stream one symbol per round."""

    def __init__(self, head, tail):
        super().__init__()
        self._buf = list(head)
        self.tail = tail
        self._pos = 0

    def _extend(self, fuel):
        self._buf.append(self.tail.at(self._pos, fuel))
        self._pos += 1


def dummy_prefix_transformer_name(noise: Word) -> MachineName:
    """Name of the transformer prepending dummy noise to its argument.

    With noise drawn from the dummy symbols this keeps the meaning of every
    name it is applied to.
    """
    noise = tuple(noise)
    assert all(s in (0, 1, 2) for s in noise)

    def apply(w, fuel):
        return noise + w

    n = encode_machine(WordMachine(apply, "prepend"), label="prepend")
    n.transformer = lambda argument: _Prefixed(noise, as_stream(argument))
    return n
