"""Seeded generators and independent oracles shared across the test suite.

The oracles here re-derive results by deliberately naive means (explicit
scans, quadratic filters) so they stay independent of the production code
paths they check.
"""

import random

from baire.machine import (
    GraphEntry,
    RawEvalStream,
    WordMachine,
    _raw_schedule,
    encode_entry_block,
)
from baire.streams import WORD_EDGE, Fuel, NeedMoreFuel, PlanStream, is_prefix
from baire.transform import InjectionOutput


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
    """

    def _extend(self, fuel):
        buf = self._buf
        while True:
            while self._name_pos >= _raw_schedule(len(self._input)):
                self._grow_input(fuel)
            if len(self._best) > len(buf):
                buf.extend(self._best[len(buf) :])
                return
            sym = self.name.at(self._name_pos, fuel)
            self._name_pos += 1
            entry = self._acc.feed(sym)
            if entry is not None:
                self._note(entry)
                if len(self._best) > len(buf):
                    buf.extend(self._best[len(buf) :])
                    return
            fuel.tick()


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


def generator_entry_block(entry):
    """`encode_entry_block` as it was written with generator expressions,
    kept as the reference the encoder must equal."""
    return (3, *(s + 6 for s in entry.inp), 4, *(s + 6 for s in entry.out), 5)


class ChainedFuel:
    """`streams.Fuel` as it was before chains settled lazily: every charge
    walks the whole chain.  Kept as the reference the lazy tank must equal
    in every grant, count and signal.
    """

    __slots__ = ("remaining", "parent", "spent")

    def __init__(self, steps, parent=None):
        self.remaining = steps
        self.spent = 0
        self.parent = parent

    def tick(self):
        if self.parent is None:
            if self.remaining <= 0:
                raise NeedMoreFuel(self)
            self.remaining -= 1
            self.spent += 1
            return
        # check the whole chain before charging any tank, so an exhausted
        # budget never records phantom work and resumption stays exact
        exhausted = None
        tank = self
        while tank is not None:
            if tank.remaining <= 0:
                exhausted = tank  # outermost exhausted tank wins
            tank = tank.parent
        if exhausted is not None:
            raise NeedMoreFuel(exhausted)
        tank = self
        while tank is not None:
            tank.remaining -= 1
            tank.spent += 1
            tank = tank.parent

    def headroom(self):
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

    def take(self, n):
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
