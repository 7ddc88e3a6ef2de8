"""Finite words and lazy infinite sequences of naturals.

Streams are the working representation of points of Baire space.  They are
deterministic and memoized: querying an index twice yields the same symbol,
and a query answered under some step budget is answered identically under
any larger budget.  Running out of budget raises :class:`NeedMoreFuel`; it
never produces a wrong symbol and never corrupts cached state, so a later
query with more fuel simply resumes.

Symbols are produced and charged in bulk where that is exact.  A dense
stream (`PlanStream`, `BufferedStream`) has paid for its symbols from index
0 on.  A buffered stream keeps them in the list `_buf`; a plan keeps only
their count, `paid()`, and takes any of its symbols from its head and tail
without a charge, `word(a, b)`.
`queued()` says how many unpaid symbols wait after them, one step each: a
plan's symbols up to its next memoized index, a buffered stream's queued
ones.  `commit(n)` counts the next n of them as paid once they are charged.
`charge_run` is the one charger of queued symbols: it takes up to n steps
with a single `Fuel.take`, commits what was granted, and after a short
grant ticks, so the tank that reading one symbol at a time would name
signals.  `read_prefix` reads dense streams with it.  A specialized name
whose rounds are certified empty (`transform._SilentName`) charges them
with it too: its `commit(n)` counts n paid round steps, two per round, and
queues nothing.  A reader that consumes a stream in runs (the decode
route, `RawEvalStream`, the injected output, `InjectionOutput`, and its
extractor, `transform.Extraction`) gets the symbols up to a boundary from
`Stream.read_run`, paid ones first, and charges and commits the unpaid
ones it keeps.  Two hot paths also call
`take` themselves: the decode route pays a run's symbols and its rounds'
steps with one, and a `MachineName` drained by an injected output runs its
rounds in one loop, `read_rounds`, that pays so for each block that fits
the headroom and commits it straight to its own buffer and the reader's.
Every `spent` count is therefore the same whichever path a read takes.

A chained tank (`Fuel`) charges eagerly: a tick or take moves every tank
on its chain, so each count is current whenever it is read, and a stage of
the injected output is a plain child tank.

A stream read at mapped indices is the one view, `MappedView`: a pair's
`halves`, a tuple's components (`project`) and a shifted stream.  It is
memoized like every `_IndexedStream`, one step per fresh index.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import count, islice
from typing import Callable, Iterable, Optional, Union

Word = tuple  # finite word over the naturals

DEFAULT_BUDGET = 10**6


class NeedMoreFuel(Exception):
    """The step budget ran out before the queried symbol was determined.

    This is a "not yet" signal: retrying the same query with a larger
    budget either succeeds with the unique answer or signals again.
    """

    def __init__(self, tank: "Fuel", what: str = ""):
        self.tank = tank
        self.what = what
        super().__init__(what or "step budget exhausted")


class Fuel:
    """A per-query step budget, optionally chained to an enclosing budget.

    Every unit of fresh work ticks the tank and all its ancestors.  Cached
    reads are free, so resuming an interrupted computation replays cheaply
    and deterministically.  A tank refers to no tank but its parent.
    """

    __slots__ = ("steps", "parent", "spent")

    def __init__(self, steps: int, parent: Optional["Fuel"] = None):
        self.steps = steps
        self.parent = parent
        self.spent = 0

    @property
    def remaining(self) -> int:
        return self.steps - self.spent

    def tick(self) -> None:
        if self.parent is None:
            if self.spent >= self.steps:
                raise NeedMoreFuel(self)
            self.spent += 1
            return
        # check the whole chain before charging any tank, so an exhausted
        # budget records no phantom work and resumption stays exact
        exhausted = None
        tank = self
        while tank is not None:
            if tank.spent >= tank.steps:
                exhausted = tank  # outermost exhausted tank wins
            tank = tank.parent
        if exhausted is not None:
            raise NeedMoreFuel(exhausted)
        tank = self
        while tank is not None:
            tank.spent += 1
            tank = tank.parent

    def headroom(self) -> int:
        """The smallest `remaining` on the chain; charges nothing.

        This many one-step ticks in a row succeed, and the next one raises.
        """
        room = self.steps - self.spent
        tank = self.parent
        while tank is not None:
            left = tank.steps - tank.spent
            if left < room:
                room = left
            tank = tank.parent
        return room

    def take(self, n: int) -> int:
        """Charge up to n steps to every tank on the chain; return how many.

        The grant is n capped by the smallest `remaining` on the chain, so
        it is exactly the number of one-step ticks that would succeed in a
        row.  After a short grant the next `tick()` raises for the same tank
        the one-step path would have named.
        """
        grant = n
        tank = self
        while tank is not None:  # `headroom` inline: calling it doubles the cost
            left = tank.steps - tank.spent
            if left < grant:
                grant = left
            tank = tank.parent
        if grant <= 0:
            return 0
        tank = self
        while tank is not None:
            tank.spent += grant
            tank = tank.parent
        return grant


FuelLike = Union[Fuel, int, None]


def as_fuel(fuel: FuelLike) -> Fuel:
    if fuel is None:
        return Fuel(DEFAULT_BUDGET)
    if isinstance(fuel, int):
        return Fuel(fuel)
    return fuel


# ---------------------------------------------------------------------------
# words


def is_prefix(u: Word, w: Word) -> bool:
    return w[: len(u)] == u


def word_sup(a: Word, b: Word) -> Optional[Word]:
    """Supremum of two words in the prefix order.

    Returns the longer word when one is a prefix of the other and None
    when the words are incompatible.  Incompatibility is a normal result.
    """
    if len(a) <= len(b):
        return b if b[: len(a)] == a else None
    return a if a[: len(b)] == b else None


def interleave_word(a: Word, b: Word) -> Word:
    """Longest word u with u(2i)=a(i), u(2i+1)=b(i) determined by a and b."""
    n = min(len(a), len(b))
    out = [0] * (2 * n)
    out[0::2] = a[:n]
    out[1::2] = b[:n]
    out.extend(a[n : n + 1])
    return tuple(out)


def even_part(w: Word) -> Word:
    return w[0::2]


def odd_part(w: Word) -> Word:
    return w[1::2]


def cantor_pair(i: int, n: int) -> int:
    s = i + n
    return s * (s + 1) // 2 + n


def cantor_unpair(k: int) -> tuple:
    s = (math.isqrt(8 * k + 1) - 1) // 2
    n = k - s * (s + 1) // 2
    return s - n, n


# ---------------------------------------------------------------------------
# streams


class Stream:
    """Deterministic lazy infinite sequence of naturals."""

    label = ""

    def at(self, n: int, fuel: FuelLike = None) -> int:
        raise NotImplementedError

    def prefix(self, k: int, fuel: FuelLike = None) -> Word:
        """First k symbols; raises NeedMoreFuel if any is undetermined."""
        return read_prefix(self, k, as_fuel(fuel), ())

    def determined_prefix(self, k: int, fuel: FuelLike = None) -> Word:
        """Longest prefix of length <= k computable before fuel runs out."""
        return read_prefix(self, k, as_fuel(fuel), None)

    def read_run(self, pos: int, end: int, fuel: Fuel) -> tuple:
        """(symbols, paid): symbols pos, pos+1, ... before `end`, at least
        one, for a reader that charges them itself.

        The first `paid` symbols cost nothing more.  Every later one is one
        of a dense stream's `queued()` symbols and costs one step; the
        reader charges those it keeps, in order, and passes their count to
        `commit` (`charge_run` does both).  Here the run is the one symbol
        `at` reads and charges.
        """
        return [self.at(pos, fuel)], 1

    def __repr__(self):
        tag = self.label or type(self).__name__
        return f"<{tag}>"


class _IndexedStream(Stream):
    """Random-access stream with a per-index memo table."""

    def __init__(self):
        self._cache = {}

    def _compute(self, n: int, fuel: Fuel) -> int:
        raise NotImplementedError

    def at(self, n: int, fuel: FuelLike = None) -> int:
        got = self._cache.get(n)
        if got is not None:
            return got
        fuel = as_fuel(fuel)
        fuel.tick()
        value = self._compute(n, fuel)
        self._cache[n] = value
        return value


class FunctionStream(_IndexedStream):
    """Stream given by a total index function."""

    def __init__(self, fn: Callable[[int], int], label: str = ""):
        super().__init__()
        self._fn = fn
        self.label = label

    def _compute(self, n, fuel):
        return self._fn(n)


class PlanStream(_IndexedStream):
    """Finite prefix followed by a tail rule: all zeros, or a cycled word.

    This is the stream shape of the command-line input syntax, which
    `spec_text` writes back.  A symbol is a function of the plan and its
    index, so the stream keeps no symbols: `_paid` counts the symbols read
    so far from index 0 on, the per-index memo holds the indices read past
    them, and a reader takes a run of symbols from the plan by `word`.
    """

    def __init__(self, head: Iterable = (), tail=("zeros",), label: str = ""):
        super().__init__()
        self.head = tuple(head)
        if tail[0] == "cycle" and len(tail[1]) == 0:
            raise ValueError("cycle tail needs a nonempty word")
        self.tail = (tail[0], tuple(tail[1])) if tail[0] == "cycle" else ("zeros",)
        self.label = label
        self._cycle = self.tail[1] if tail[0] == "cycle" else (0,)  # the tail's period
        self._paid = 0  # symbols 0 .. _paid-1 are charged

    def at(self, n: int, fuel: FuelLike = None) -> int:
        if n >= self._paid:
            cache = self._cache
            got = cache.get(n)
            if got is not None:
                return got
            as_fuel(fuel).tick()
            if n > self._paid:
                cache[n] = self.word(n, n + 1)[0]
            else:
                self._paid += 1
                if cache:
                    self.commit(0)  # the memo at the new dense end folds in
        head = self.head  # `word` inline for one symbol: a paid read is the hot one
        if n < len(head):
            return head[n]
        cyc = self._cycle
        return cyc[(n - len(head)) % len(cyc)]

    def paid(self) -> int:
        return self._paid

    def queued(self) -> Union[int, float]:
        """The plan symbols after the paid ones up to the first memoized
        index (math.inf when nothing is memoized); none is paid for."""
        cache = self._cache
        return (min(cache) if cache else math.inf) - self._paid

    def commit(self, n: int) -> None:
        """Count the next n plan symbols, charged by the caller, as paid;
        the memo at the new dense end folds in."""
        paid = self._paid + n
        cache = self._cache
        while paid in cache:
            del cache[paid]
            paid += 1
        self._paid = paid

    def read_run(self, pos: int, end: int, fuel: Fuel) -> tuple:
        # the dense prefix is paid for; the queued plan symbols after it are not
        paid = self._paid
        if pos > paid:
            return super().read_run(pos, end, fuel)  # sparse reads go by `at`
        return self.word(pos, min(end, paid + self.queued())), min(end, paid) - pos

    def word(self, a: int, b: int) -> Word:
        """Symbols a .. b-1, straight from the plan; charges nothing."""
        head = self.head
        if b <= len(head):
            return head[a:b]
        lo = max(a, len(head))
        cyc = self._cycle
        if len(cyc) == 1:
            return head[a:] + cyc * (b - lo)
        shift = (lo - len(head)) % len(cyc)
        turn = cyc[shift:] + cyc[:shift]
        return head[a:] + (turn * ((b - lo) // len(cyc) + 1))[: b - lo]

    def spec_text(self) -> str:
        head = " ".join(str(s) for s in self.head) if self.head else "eps"
        if self.tail[0] == "zeros":
            return f"{head} zeros"
        return f"{head} cycle " + " ".join(str(s) for s in self.tail[1])


ZEROS = PlanStream((), ("zeros",), label="0^w")


class PairStream(_IndexedStream):
    """Interleaving <q,p>: even positions read q, odd positions read p."""

    def __init__(self, left: Stream, right: Stream):
        super().__init__()
        self.left = left
        self.right = right

    def _compute(self, n, fuel):
        if n % 2 == 0:
            return self.left.at(n // 2, fuel)
        return self.right.at(n // 2, fuel)


class TupleStream(_IndexedStream):
    """Countable tupling: position cantor_pair(i, n) reads component i at n."""

    def __init__(self, component_fn: Callable[[int], Stream], label: str = ""):
        super().__init__()
        self._component_fn = component_fn
        self._components = {}
        self.label = label

    def component(self, i: int) -> Stream:
        got = self._components.get(i)
        if got is None:
            got = self._component_fn(i)
            self._components[i] = got
        return got

    def _compute(self, n, fuel):
        i, k = cantor_unpair(n)
        return self.component(i).at(k, fuel)


class MappedView(_IndexedStream):
    """The one view of a stream: symbol n is the base's symbol at index(n).

    A pair's halves (`halves`), a tuple's components (`project`) and a
    stream without its first symbols (`operators.star`) are this view.
    Each fresh index costs one step, charged before the base is read, and
    a re-read costs none.
    """

    def __init__(self, base: Stream, index: Callable[[int], int]):
        super().__init__()
        self.base = base
        self._index = index

    def _compute(self, n, fuel):
        return self.base.at(self._index(n), fuel)


class WordStream(Stream):
    """A finite word acting as a partial stream.

    Reads beyond the word raise NeedMoreFuel with the WORD_EDGE tank, a
    permanent "this approximation ends here" signal that computations over
    word-level sources catch to stop cleanly.
    """

    def __init__(self, word: Word):
        self.word = tuple(word)

    def at(self, n: int, fuel: FuelLike = None) -> int:
        if n < len(self.word):
            return self.word[n]
        raise NeedMoreFuel(WORD_EDGE, "beyond the word approximation")


WORD_EDGE = Fuel(0)


def charge_run(source, n: Union[int, float], fuel: Fuel) -> None:
    """Charge the next n queued symbols of a dense stream and commit them.

    One `Fuel.take` charges what the headroom grants, and those symbols
    are committed as paid.  After a short grant the next tick raises, for
    the tank that reading the symbols one step at a time would have named.
    """
    granted = fuel.take(n)
    if granted:
        source.commit(granted)
    if granted < n:
        fuel.tick()


def read_prefix(source, k: Optional[int], fuel: Fuel, stop: Optional[tuple]) -> Word:
    """The one budgeted-prefix reader: symbols 0, 1, ... of a word or stream.

    Reads at most k symbols (no limit when k is None) under `fuel`.  The
    stop signals are the tanks in `stop`: a NeedMoreFuel raised for one of
    them ends the read quietly with what was determined so far, and any
    other NeedMoreFuel propagates.  `stop=None` ends quietly on every
    signal; `stop=()` on none, which makes the read strict.  The usual
    stop signals are WORD_EDGE (a finite approximation ends) and a tank
    the caller made for this read alone.  Words just truncate.
    """
    if isinstance(source, tuple):
        return source[:k]
    if isinstance(source, BufferedStream):
        # on a signal `_buf` holds exactly the determined prefix; its length
        # is read inline: a method call for it slowed `transform`'s p50 by 3 %
        buf = source._buf
        want = math.inf if k is None else k
        try:
            while len(buf) < want:
                n = min(want - len(buf), source.queued())
                if n:
                    charge_run(source, n, fuel)
                else:
                    source.at(len(buf), fuel)  # producer rounds, a step each
        except NeedMoreFuel as blocked:
            if stop is not None and blocked.tank not in stop:
                raise
        return tuple(buf[:k])
    if isinstance(source, PlanStream):
        # likewise the paid symbols; each queued run ends at a memoized index
        want = math.inf if k is None else k
        try:
            while (paid := source.paid()) < want:
                charge_run(source, min(want - paid, source.queued()), fuel)
        except NeedMoreFuel as blocked:
            if stop is not None and blocked.tank not in stop:
                raise
        return source.word(0, min(want, source.paid()))
    out = []
    for i in range(k) if k is not None else count():
        try:
            out.append(source.at(i, fuel))
        except NeedMoreFuel as blocked:
            if stop is None or blocked.tank in stop:
                break
            raise
    return tuple(out)


def as_stream(value) -> Stream:
    return WordStream(value) if isinstance(value, tuple) else value


class BufferedStream(Stream):
    """Stream whose symbols are produced in order by a resumable producer.

    Subclasses implement _extend, one producer round: it appends symbols to
    self._buf, queues them on self._pending, or raises NeedMoreFuel; a round
    may also produce nothing.  Each round costs one step, and so does each
    queued symbol moved to the buffer, so the step count bounds unproductive
    rounds.  The queued symbols are the dense protocol's `queued()` ones:
    `read_prefix` charges them with `charge_run`, and `read_run` hands them
    to a run reader unpaid, after running rounds, as `at` does, when
    nothing is produced or queued at the position.  A subclass may run its
    rounds for a run reader in a loop of its own if it charges them alike:
    `MachineName.read_rounds` ticks before each round's own charges, pays
    each block that fits the headroom with one `take` and commits it to
    `_buf`, and queues one that does not on `_pending` for the reader to
    charge.  All producer state lives on the instance, so an interrupted
    query resumes exactly where it stopped.
    """

    def __init__(self):
        self._buf = []
        self._pending = deque()

    def _extend(self, fuel: Fuel) -> None:
        raise NotImplementedError

    def at(self, n: int, fuel: FuelLike = None) -> int:
        buf = self._buf
        if n < len(buf):
            return buf[n]
        fuel = as_fuel(fuel)
        pending = self._pending
        while n >= len(buf):
            fuel.tick()
            if pending:
                buf.append(pending.popleft())
            else:
                self._extend(fuel)
        return buf[n]

    def queued(self) -> int:
        return len(self._pending)

    def commit(self, n: int) -> None:
        """Move the next n queued symbols, charged by the caller, to `_buf`."""
        pending = self._pending
        if n == len(pending):
            self._buf.extend(pending)
            pending.clear()
        else:
            popleft = pending.popleft
            self._buf.extend([popleft() for _ in range(n)])

    def read_run(self, pos: int, end: int, fuel: Fuel) -> tuple:
        # produced symbols are paid for and queued ones are not; with
        # neither at pos, producer rounds run first, one step each as in `at`
        buf = self._buf
        pending = self._pending
        if pos > len(buf):
            return super().read_run(pos, end, fuel)
        while pos == len(buf) and not pending:
            fuel.tick()
            self._extend(fuel)
        run = buf[pos:end]
        paid = len(run)
        if pos + paid < end:
            run.extend(islice(pending, end - pos - paid))
        return run, paid


# ---------------------------------------------------------------------------
# pairing / tupling operations


def pair_stream(q: Stream, p: Stream) -> PairStream:
    return PairStream(q, p)


def halves(r: Stream) -> tuple:
    """The views of r's even and odd positions."""
    return MappedView(r, lambda n: 2 * n), MappedView(r, lambda n: 2 * n + 1)


def unpair_stream(r: Stream) -> tuple:
    """Inverse of pair_stream; returns the original components when known."""
    if isinstance(r, PairStream):
        return r.left, r.right
    return halves(r)


def tuple_countable(components) -> TupleStream:
    """Tuple a countable family of streams along the pairing bijection.

    `components` is either a function i -> Stream or a sequence (queried
    components must be in range).
    """
    if callable(components):
        return TupleStream(components)
    seq = list(components)
    return TupleStream(lambda i: seq[i])


def project(t: Stream, i: int) -> Stream:
    if isinstance(t, TupleStream):
        return t.component(i)
    return MappedView(t, lambda n: cantor_pair(i, n))
