"""Finite words and lazy infinite sequences of naturals.

Streams are the working representation of points of Baire space.  They are
deterministic and memoized: querying an index twice yields the same symbol,
and a query answered under some step budget is answered identically under
any larger budget.  Running out of budget raises :class:`NeedMoreFuel`; it
never produces a wrong symbol and never corrupts cached state, so a later
query with more fuel simply resumes.

Symbols are produced and charged in bulk where that is exact: a prefix read
of a buffered stream drains its queued symbols at one step each with a
single :meth:`Fuel.take`, and `take` grants exactly the steps that the
one-step-at-a-time path would have charged before it signalled.  A reader
that consumes a stream in runs (the decode route, `RawEvalStream`) gets the
symbols up to a boundary from `Stream.read_run`, with how many of them, at
the front, are already paid for; from that count and `Fuel.headroom` alone
it works out in closed form the symbol where the one-step path would
signal, and charges the run's cost with one `take`.  Every `spent` count is therefore the same whichever path a read
takes.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import count, repeat
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

    Every unit of fresh work ticks the tank (and its ancestors).  Cached
    reads are free, so resuming an interrupted computation replays cheaply
    and deterministically.
    """

    __slots__ = ("remaining", "parent", "spent")

    def __init__(self, steps: int, parent: Optional["Fuel"] = None):
        self.remaining = steps
        self.spent = 0
        self.parent = parent

    def tick(self, n: int = 1) -> None:
        if self.parent is None:
            if self.remaining < n:
                raise NeedMoreFuel(self)
            self.remaining -= n
            self.spent += n
            return
        # check the whole chain before charging any tank, so an exhausted
        # budget never records phantom work and resumption stays exact
        exhausted = None
        tank = self
        while tank is not None:
            if tank.remaining < n:
                exhausted = tank  # outermost exhausted tank wins
            tank = tank.parent
        if exhausted is not None:
            raise NeedMoreFuel(exhausted)
        tank = self
        while tank is not None:
            tank.remaining -= n
            tank.spent += n
            tank = tank.parent

    def headroom(self) -> int:
        """The smallest `remaining` on the chain; charges nothing.

        This many one-step ticks in a row succeed, and the next one raises.
        """
        room = self.remaining
        tank = self.parent
        while tank is not None:
            if tank.remaining < room:
                room = tank.remaining
            tank = tank.parent
        return room

    def take(self, n: int) -> int:
        """Charge up to n steps to every tank on the chain; return how many.

        The grant is n capped by the smallest `remaining` on the chain, so
        it is exactly the number of one-step ticks that would succeed in a
        row.  After a short grant the next `tick()` raises for the same tank
        the one-step path would have named.
        """
        grant = min(n, self.headroom())
        if grant <= 0:
            return 0
        tank = self
        while tank is not None:
            tank.remaining -= grant
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
    out = []
    for i in range(max(len(a), len(b)) + 1):
        if i >= len(a):
            break
        out.append(a[i])
        if i >= len(b):
            break
        out.append(b[i])
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
        # kept apart from read_prefix: this strict read is the hot path
        return self._prefix(k, as_fuel(fuel))

    def _prefix(self, k: int, fuel: Fuel) -> Word:
        # the bulk step behind `prefix`; subclasses that can produce a run
        # of symbols at once override this, never `prefix` itself
        return tuple(self.at(i, fuel) for i in range(k))

    def determined_prefix(self, k: int, fuel: FuelLike = None) -> Word:
        """Longest prefix of length <= k computable before fuel runs out."""
        return read_prefix(self, k, as_fuel(fuel), None)

    def read_run(self, pos: int, end: int, fuel: Fuel) -> tuple:
        """(symbols, paid): symbols pos, pos+1, ... before `end`, at least
        one, for a reader that charges them itself.

        The first `paid` symbols cost nothing more.  Every later one costs
        one step; only a `PlanStream` returns such symbols, and the reader
        passes the ones it charged, in order, to its `record_run`.  Here
        the run is the one symbol `at` reads and charges.
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

    This is the serializable stream shape used by instance files and the
    command-line input syntax.  The symbols read so far from index 0 on are
    kept in a dense list; reads past its end keep the per-index memo.
    """

    def __init__(self, head: Iterable = (), tail=("zeros",), label: str = ""):
        super().__init__()
        self.head = tuple(head)
        if tail[0] == "cycle" and len(tail[1]) == 0:
            raise ValueError("cycle tail needs a nonempty word")
        self.tail = (tail[0], tuple(tail[1])) if tail[0] == "cycle" else ("zeros",)
        self.label = label
        self._read = []  # symbols 0 .. len-1, each already charged

    def at(self, n: int, fuel: FuelLike = None) -> int:
        read = self._read
        if n < len(read):
            return read[n]
        cache = self._cache
        got = cache.get(n)
        if got is not None:
            return got
        as_fuel(fuel).tick()
        value = self._compute(n, fuel)
        if n == len(read):
            read.append(value)
            while len(read) in cache:  # inline `_fold`: this is the hot path
                read.append(cache.pop(len(read)))
        else:
            cache[n] = value
        return value

    def _prefix(self, k: int, fuel: Fuel) -> Word:
        read = self._read
        start = len(read)
        if k > start:
            if any(start <= i < k for i in self._cache):
                return super()._prefix(k, fuel)  # memoized reads in the way are free
            granted = fuel.take(k - start)
            self._plan_into(read, start, start + granted)
            self._fold()
            if start + granted < k:
                fuel.tick()  # the first unpaid index: raises for the empty tank
        return tuple(read[:k])

    def read_run(self, pos: int, end: int, fuel: Fuel) -> tuple:
        # the dense prefix is paid for; the plan symbols after it are not,
        # up to the first memoized index, as in _prefix
        read = self._read
        dense = len(read)
        if pos > dense:
            return super().read_run(pos, end, fuel)  # sparse reads go by `at`
        run = read[pos:end]
        paid = len(run)
        if dense < end:
            stop = min([i for i in self._cache if dense <= i < end], default=end)
            self._plan_into(run, dense, stop)
        return run, paid

    def record_run(self, symbols: list) -> None:
        """Keep the unpaid symbols of a `read_run` once they are charged."""
        self._read.extend(symbols)
        self._fold()

    def _fold(self) -> None:
        # the dense run reaches earlier sparse reads: move them over, so the
        # memo never holds the index at the dense end
        read = self._read
        cache = self._cache
        while len(read) in cache:
            read.append(cache.pop(len(read)))

    def _plan_into(self, out: list, start: int, end: int) -> None:
        """Append symbols start .. end-1, straight from the plan, to `out`.

        Charges nothing and records nothing on the stream.
        """
        head = self.head
        out.extend(head[start:end])
        lo = max(start, len(head))
        if end <= lo:
            return
        if self.tail[0] == "zeros":
            out.extend(repeat(0, end - lo))
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

    def spec_text(self) -> str:
        head = " ".join(str(s) for s in self.head) if self.head else "eps"
        if self.tail[0] == "zeros":
            return f"{head} zeros"
        return f"{head} cycle " + " ".join(str(s) for s in self.tail[1])


def constant_stream(value: int) -> PlanStream:
    return PlanStream((), ("zeros",)) if value == 0 else PlanStream((), ("cycle", (value,)))


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


class EvenView(_IndexedStream):
    def __init__(self, base: Stream):
        super().__init__()
        self.base = base

    def _compute(self, n, fuel):
        return self.base.at(2 * n, fuel)


class OddView(_IndexedStream):
    def __init__(self, base: Stream):
        super().__init__()
        self.base = base

    def _compute(self, n, fuel):
        return self.base.at(2 * n + 1, fuel)


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


class ComponentView(_IndexedStream):
    def __init__(self, base: Stream, index: int):
        super().__init__()
        self.base = base
        self.index = index

    def _compute(self, n, fuel):
        return self.base.at(cantor_pair(self.index, n), fuel)


class ShiftStream(_IndexedStream):
    """Drops the first `offset` symbols of the base stream."""

    def __init__(self, base: Stream, offset: int):
        super().__init__()
        self.base = base
        self.offset = offset

    def _compute(self, n, fuel):
        return self.base.at(n + self.offset, fuel)


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
        # on a signal the buffer holds exactly the determined prefix
        try:
            source.fill(math.inf if k is None else k, fuel)
        except NeedMoreFuel as blocked:
            if stop is not None and blocked.tank not in stop:
                raise
        return tuple(source._buf[:k])
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
    rounds.  `fill` drains queued symbols in bulk with one exact
    `Fuel.take`, which charges what the symbol-by-symbol path of `at` would.
    All producer state lives on the instance, so an interrupted query
    resumes exactly where it stopped.
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

    def fill(self, k: Union[int, float], fuel: Fuel) -> None:
        """Produce until the buffer holds k symbols (k may be math.inf).

        Charges exactly what reading indices 0 .. k-1 through `at` would,
        and on a signal leaves the buffer at the same length.  Producer
        rounds still run through `at`, so a span around `at` times them.
        """
        buf = self._buf
        pending = self._pending
        while len(buf) < k:
            if not pending:
                self.at(len(buf), fuel)
                continue
            want = min(k - len(buf), len(pending))
            granted = fuel.take(want)
            popleft = pending.popleft
            buf.extend([popleft() for _ in range(granted)])
            if granted < want:
                fuel.tick()  # the first unpaid symbol: raises for the empty tank

    def _prefix(self, k: int, fuel: Fuel) -> Word:
        self.fill(k, fuel)
        return tuple(self._buf[:k])

    def read_run(self, pos: int, end: int, fuel: Fuel) -> tuple:
        run = self._buf[pos:end]
        if run:
            return run, len(run)  # produced symbols are paid for
        return super().read_run(pos, end, fuel)


# ---------------------------------------------------------------------------
# pairing / tupling operations


def pair_stream(q: Stream, p: Stream) -> PairStream:
    return PairStream(q, p)


def unpair_stream(r: Stream) -> tuple:
    """Inverse of pair_stream; returns the original components when known."""
    if isinstance(r, PairStream):
        return r.left, r.right
    return EvenView(r), OddView(r)


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
    return ComponentView(t, i)
