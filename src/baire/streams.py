"""Finite words and lazy infinite sequences of naturals.

Streams are the working representation of points of Baire space.  They are
deterministic and memoized: querying an index twice yields the same symbol,
and a query answered under some step budget is answered identically under
any larger budget.  Running out of budget raises :class:`NeedMoreFuel`; it
never produces a wrong symbol and never corrupts cached state, so a later
query with more fuel simply resumes.

Symbols are produced and charged in bulk where that is exact.  A dense
stream (`PlanStream`, `BufferedStream`) keeps the symbols it has paid for,
from index 0 on, in the list `_buf`.  `queued()` says how many unpaid
symbols wait after them, one step each: a plan's symbols up to its next
memoized index, a buffered stream's queued ones.  `commit(n)` moves the
next n of them into `_buf` once they are charged.  `charge_run` is the one
charger of queued symbols: it takes up to n steps with a single
`Fuel.take`, commits what was granted, and after a short grant ticks, so
the tank that reading one symbol at a time would name signals.
`read_prefix` reads dense streams with it.  A specialized name whose rounds
are certified empty (`transform._SilentName`) charges them with it too: its
`commit(n)` counts n paid round steps, two per round, and queues nothing.
A reader that consumes a stream in runs (the decode route, `RawEvalStream`,
and the injected output, `InjectionOutput`) gets the symbols up to a
boundary from `Stream.read_run`, paid ones first, and charges and commits
the unpaid ones it keeps.  These two hot readers also call `take`
themselves: the decode route pays a run's symbols and its rounds' steps
with one, and the injected output pays so for each block it produces that
fits the headroom, committed straight to the buffer.  Every `spent` count
is therefore the same whichever path a read takes.

A chained tank settles lazily (`Fuel`): a charge moves only the tank
charged last, which pays its ancestors when another tank of its chain is
charged or asked for its headroom, or when a count is read.  So a run of
ticks on a deep chain costs what ticks on a root tank cost, and a stage of
the injected output is a plain child tank.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import count, islice, repeat
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

    Every unit of fresh work ticks the tank and, in effect, its ancestors.
    Cached reads are free, so resuming an interrupted computation replays
    cheaply and deterministically.

    A chain is charged lazily.  The tank charged last is its root's open
    tank, and a `tick` or `take` on it moves only its own count, against a
    limit fixed when it was opened: its count then plus the chain's
    headroom then.  What it spent since is paid to its ancestors when
    another tank of the chain is charged or asked for its headroom, or when
    any tank's `spent` or `remaining` is read.  Grants, counts and the tank
    a signal names are those of charging the whole chain on every step.
    """

    __slots__ = ("steps", "parent", "_spent", "_mark", "_root", "_open", "_limit")

    def __init__(self, steps: int, parent: Optional["Fuel"] = None):
        self.steps = steps
        self.parent = parent
        self._spent = 0
        self._mark = 0  # `_spent` when the ancestors were last paid
        if parent is None:
            self._root = self._open = self
            self._limit = steps
        else:
            self._root = parent._root

    @property
    def spent(self) -> int:
        self._root._settle()
        return self._spent

    @property
    def remaining(self) -> int:
        self._root._settle()
        return self.steps - self._spent

    def _settle(self) -> None:
        """On a root: pay the open tank's ancestors what it spent since."""
        tank = self._open
        due = tank._spent - tank._mark
        if due:
            tank._mark = tank._spent
            tank = tank.parent
            while tank is not None:
                tank._spent += due
                tank = tank.parent

    def _reopen(self) -> None:
        """Settle the chain and make this tank its root's open tank."""
        root = self._root
        root._settle()
        root._open = self
        self._mark = self._spent
        root._limit = self._spent + self._room()

    def _room(self) -> int:
        """The smallest remaining on the settled chain."""
        room = self.steps - self._spent
        tank = self.parent
        while tank is not None:
            left = tank.steps - tank._spent
            if left < room:
                room = left
            tank = tank.parent
        return room

    def tick(self) -> None:
        root = self._root
        if root._open is not self:
            self._reopen()
        if self._spent < root._limit:
            self._spent += 1
            return
        # nothing is charged, so an exhausted budget records no phantom
        # work and resumption stays exact
        root._settle()
        exhausted = None
        tank = self
        while tank is not None:
            if tank.steps <= tank._spent:
                exhausted = tank  # outermost exhausted tank wins
            tank = tank.parent
        raise NeedMoreFuel(exhausted)

    def headroom(self) -> int:
        """The smallest `remaining` on the chain; charges nothing.

        This many one-step ticks in a row succeed, and the next one raises.
        """
        root = self._root
        if root._open is self:
            return root._limit - self._spent
        root._settle()
        return self._room()

    def take(self, n: int) -> int:
        """Charge up to n steps to every tank on the chain; return how many.

        The grant is n capped by the smallest `remaining` on the chain, so
        it is exactly the number of one-step ticks that would succeed in a
        row.  After a short grant the next `tick()` raises for the same tank
        the one-step path would have named.
        """
        root = self._root
        if root._open is not self:
            self._reopen()
        grant = root._limit - self._spent
        if n < grant:
            grant = n
        if grant <= 0:
            return 0
        self._spent += grant
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
    `spec_text` writes back.  The symbols read so far from index 0 on are
    kept in the dense list `_buf`; reads past its end keep the per-index
    memo, which therefore only holds indices past the dense end.
    """

    def __init__(self, head: Iterable = (), tail=("zeros",), label: str = ""):
        super().__init__()
        self.head = tuple(head)
        if tail[0] == "cycle" and len(tail[1]) == 0:
            raise ValueError("cycle tail needs a nonempty word")
        self.tail = (tail[0], tuple(tail[1])) if tail[0] == "cycle" else ("zeros",)
        self.label = label
        self._buf = []  # symbols 0 .. len-1, each already charged

    def at(self, n: int, fuel: FuelLike = None) -> int:
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

    def queued(self) -> Union[int, float]:
        """The plan symbols after `_buf` up to the first memoized index
        (math.inf when nothing is memoized); none is paid for."""
        return min(self._cache, default=math.inf) - len(self._buf)

    def commit(self, n: int) -> None:
        """Append the next n plan symbols, charged by the caller, to `_buf`."""
        buf = self._buf
        self._plan_into(buf, len(buf), len(buf) + n)
        cache = self._cache
        while len(buf) in cache:
            buf.append(cache.pop(len(buf)))

    def read_run(self, pos: int, end: int, fuel: Fuel) -> tuple:
        # the dense prefix is paid for; the queued plan symbols after it are not
        buf = self._buf
        dense = len(buf)
        if pos > dense:
            return super().read_run(pos, end, fuel)  # sparse reads go by `at`
        run = buf[pos:end]
        paid = len(run)
        if dense < end:
            self._plan_into(run, dense, min(end, dense + self.queued()))
        return run, paid

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


def charge_run(source, n: Union[int, float], fuel: Fuel) -> None:
    """Charge the next n queued symbols of a dense stream and commit them.

    One `Fuel.take` charges what the headroom grants, and those symbols go
    to `_buf`.  After a short grant the next tick raises, for the tank that
    reading the symbols one step at a time would have named.
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
    if isinstance(source, (PlanStream, BufferedStream)):
        # on a signal `_buf` holds exactly the determined prefix
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
    nothing is produced or queued at the position.  A run reader may run a
    subclass's rounds itself if it charges them alike: `InjectionOutput`
    runs a `MachineName`'s, a tick each before the round's own charges,
    charges each block that fits the headroom with one `take` and appends
    it to `_buf` itself, and queues one that does not on `_pending` for
    `charge_run`.  All producer state lives on the instance, so an
    interrupted query resumes exactly where it stopped.
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
