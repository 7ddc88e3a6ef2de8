"""Reference semantics for the benchmark's correctness checks.

Written from the codec's specification (dummies 0-2, begin 3, separator 4,
end 5, payload k >= 6 is the natural k - 6; malformed fragments are dropped;
entries are accepted in arrival order unless they would pair comparable
inputs with incomparable outputs).  Nothing here imports `baire` or the test
suite, so a defect in the library's decoder cannot hide in its own oracle.
"""

from __future__ import annotations

BEGIN, SEP, END, BASE = 3, 4, 5, 6


def starts_with(word, head) -> bool:
    if len(head) > len(word):
        return False
    for i, s in enumerate(head):
        if word[i] != s:
            return False
    return True


def comparable(a, b) -> bool:
    return starts_with(a, b) or starts_with(b, a)


def raw_blocks(symbols):
    """Well-formed entry blocks in arrival order, as (end position, inp, out).

    Walks the symbols with explicit indices: a block opens at 3, a second 3
    restarts it, 5 before the separator or a second separator abandons it.
    """
    found = []
    pos = 0
    n = len(symbols)
    while pos < n:
        if symbols[pos] != BEGIN:
            pos += 1
            continue
        inp, out = [], []
        seen_sep = False
        j = pos + 1
        restart = None
        while j < n:
            s = symbols[j]
            if s >= BASE:
                (out if seen_sep else inp).append(s - BASE)
            elif s == BEGIN:
                restart = j
                break
            elif s == SEP:
                if seen_sep:
                    break  # second separator: abandon, resume after it
                seen_sep = True
            elif s == END:
                if seen_sep:
                    found.append((j, tuple(inp), tuple(out)))
                break  # complete, or an end before the separator
            j += 1
        pos = restart if restart is not None else j + 1
    return found


def accepted_entries(symbols):
    """Entries surviving the arrival-order consistency filter.

    Returns (end position, inp, out) triples, so the entries accepted in the
    prefix of length L are exactly those with end position < L.
    """
    kept = []
    for end, u, v in raw_blocks(symbols):
        if any(u == u2 and v == v2 for _, u2, v2 in kept):
            continue
        if any(comparable(u, u2) and not comparable(v, v2) for _, u2, v2 in kept):
            continue
        kept.append((end, u, v))
    return kept


def value_on(entries, input_word, name_len=None):
    """Longest output among entries applying to the input word.

    With `name_len`, only entries complete within that many name symbols
    count.
    """
    best = ()
    for end, u, v in entries:
        if name_len is not None and end >= name_len:
            continue
        if starts_with(input_word, u) and len(v) > len(best):
            best = v
    return best


def interleave(a, b):
    """<a, b> on words: positions 2i read a, 2i+1 read b, as far as defined."""
    out = []
    for i in range(len(a)):
        out.append(a[i])
        if i >= len(b):
            break
        out.append(b[i])
    return tuple(out)


def plan_word(head, tail, length):
    """First `length` symbols of a literal head followed by zeros or a cycle."""
    out = list(head[:length])
    i = 0
    while len(out) < length:
        out.append(tail[i % len(tail)] if tail else 0)
        i += 1
    return tuple(out)


def agree(a, b) -> int:
    """Length of the common part of two words that must not contradict.

    Returns -1 when they differ inside their common length.
    """
    short = min(len(a), len(b))
    return short if tuple(a[:short]) == tuple(b[:short]) else -1
