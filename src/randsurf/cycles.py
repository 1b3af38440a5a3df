"""Counting closed traversal cycles of a gluing, grouped by word class.

A traversal cycle of length k is a cyclically closed sequence of
(side, turn) steps: from side s_j we exit through the side e_j that
turn_j reaches in the same triangle (gluing's turn tables) and enter
s_{j+1} = partner(e_j).  Its word is the turn sequence.  Two cycles
are the same when one is a cyclic rotation of the other's (entry,
exit) pair sequence, or of its reversal (pairs reversed in order and
swapped componentwise, which flips every turn).  The count Z_[w] is
the number of cycle classes whose word lies in the word class [w].

So Z_[w] is the number of orbits of the dihedral group of order 2k on
the closed pair sequences with a word in [w], and Burnside's lemma
counts them.  No reversal fixes a pair sequence: it would have to fix
a pair (s, e), forcing e = s, or swap two consecutive pairs, forcing
partner(e) = e.  A rotation by r fixes the sequences of period
d = gcd(r, k), which are closed d-step walks run k/d times.  All words
of [w] share the period q of w, and all have the same fixed-point
counts: rotating a word conjugates its step composition, and
reverse-with-swap inverts it up to conjugation by partner.  With
Fix(u) the number of fixed points of the step composition along u,

    Z_[w] = |[w]| * sum_{d | k, q | d} phi(k/d) * Fix(w[:d]) / (2k).

For a primitive word only d = k is left, so a class costs one
fixed-point count.  block_counter is the only counter: built and cached
once per (N, class tuple), it evaluates the formula on whole blocks of
up to gluing.block_rows(N) gluings, summing each class's nonzero
Burnside terms, fixed-point count times weight.  The Monte Carlo and the
exact oracle count their gluings in blocks of block_rows(N) rows, and
count_vector is the one-row call of the same counter, so a loop over
gluings builds it once.  count_cycles is one count_vector call.

brute_force_counts enumerates all 6N * 2^k raw sequences and dedupes
them with an explicitly listed orbit per closure.  It is slow, simple
and independent of the formula, and is kept as the reference that
count_vector is tested against.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from randsurf.gluing import Gluing, _next_arrays, block_rows
from randsurf.words import (
    WordClass,
    canonicalize,
    check_classes,
    enumerate_classes_by_length,
    word_period,
)

MAX_CYCLE_LENGTH = 16


def _check_max_length(m: int) -> None:
    if not 1 <= m <= MAX_CYCLE_LENGTH:
        raise ValueError(f"max cycle length must be in 1..{MAX_CYCLE_LENGTH}, got {m}")


class SpectrumReport(NamedTuple):
    """Cycle class counts of one gluing up to a length cap."""

    half_count: int
    max_length: int
    counts: Mapping[WordClass, int]
    shortest_geodesic_length: float | None


def _totient(n: int) -> int:
    return sum(1 for r in range(1, n + 1) if math.gcd(r, n) == 1)


@lru_cache(maxsize=1 << 16)
def _burnside_terms(canonical: str) -> tuple[tuple[str, int], ...]:
    """(w[:d], phi(k/d)) for every d | k that the period q of w divides."""
    k = len(canonical)
    q = word_period(canonical)
    return tuple(
        (canonical[:d], _totient(k // d)) for d in range(q, k + 1, q) if k % d == 0
    )


@lru_cache(maxsize=8)
def block_counter(
    n: int, classes: tuple[WordClass, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """Z_[w] of every row of a partner block, as a (B, C) int64 array.

    Built once per (N, classes), it keeps read-only tables only: slot
    tables for R = block_rows(N) rows and the Burnside terms.  A call
    takes a (B, 6N + 1) block, 1 <= B <= R, and allocates its own work
    arrays for B rows, so calls share no mutable state.  Its step arrays
    hold flat slots, b * (6N + 1) + s for label s of row b, so one take
    composes every row of the block at once.  The prefixes of the
    classes' words are walked depth first, each one step after its
    parent prefix, so a shared prefix is walked once.  The fixed points
    of the Burnside prefixes w[:d] give one count per (prefix, row).
    Only the nonzero terms are kept, one (prefix, class, weight
    phi(k/d) * |[w]|) each, about one per class; a class's total is the
    sum of its terms' counts times weights, so no table of prefixes by
    classes is built, whatever the class set.
    """
    rows = block_rows(n)
    width = 6 * n + 1
    size = rows * width
    # the nonzero Burnside terms, class by class: the row of the term's
    # prefix, and its weight; starts[c] is the first term of class c
    prefixes: dict[str, int] = {}
    term_prefixes, term_weights, starts = [], [], []
    for cls in classes:
        starts.append(len(term_prefixes))
        for prefix, weight in _burnside_terms(cls.canonical):
            term_prefixes.append(prefixes.setdefault(prefix, len(prefixes)))
            term_weights.append(weight * cls.class_size)
    terms = len(prefixes)
    term_prefixes = np.array(term_prefixes, dtype=np.intp)
    term_weights = np.array(term_weights, dtype=np.int64)[:, None]
    starts = np.array(starts, dtype=np.intp)
    twice_k = np.array([2 * cls.word_length for cls in classes], dtype=np.int64)

    base = np.repeat(np.arange(0, size, width), width)  # first slot of the row
    # every slot's own index, except that slot 0 of each row, a dummy
    # that every walk fixes, is never counted
    home = np.arange(size)
    home[::width] = -1
    # each slot's next side after each turn, as a slot of the same row
    gathers = [base + np.tile(nxt, rows) for nxt in _next_arrays(n)]
    depth = max(map(len, prefixes), default=1)
    # (length - 1, last turn, prefix row or None) of every prefix; a
    # string sorts right after its prefixes and before its siblings
    order = [
        (len(u) - 1, "LR".index(u[-1]), prefixes.get(u))
        for u in sorted({u[:j] for u in prefixes for j in range(1, len(u) + 1)})
    ]

    def count(block: np.ndarray) -> np.ndarray:
        b = len(block)
        if not 1 <= b <= rows:
            raise ValueError(f"a block at N = {n} has 1..{rows} rows, got {b}")
        used = b * width
        # One allocation holds the call's slot arrays: partners as slots,
        # two steps, one walk per prefix length past 1.  As depth + 2
        # arrays, at N = 1000 malloc trimmed the heap top after each call,
        # so one row at trace <= 7 took 210 us with page faults, not 105.
        work = np.empty((depth + 2, used), dtype=np.intp)
        crossed = np.add(block.reshape(-1), base[:used], out=work[0])
        # mode="clip" keeps take from buffering its output; every slot
        # is in range
        steps = [
            crossed.take(gather[:used], out=step, mode="clip")
            for gather, step in zip(gathers, work[1:])
        ]
        home_b = home[:used]
        fixed = np.empty((terms, used), dtype=bool)
        walks = [None] * depth  # walks[j]: the current prefix of length j + 1
        for j, turn, p in order:
            walk = steps[turn]
            if j:
                walk = walk.take(walks[j - 1], out=work[2 + j], mode="clip")
            walks[j] = walk
            if p is not None:
                np.equal(walk, home_b, out=fixed[p])
        # fixed slot i of prefix p counts for row i // width of block p
        slots = np.flatnonzero(fixed) // width
        counts = np.bincount(slots, minlength=terms * b).reshape(terms, b)
        # every class has its d = k term, so no class's run of terms is empty
        totals = np.add.reduceat(counts[term_prefixes] * term_weights, starts).T
        out, rest = np.divmod(totals, twice_k)
        if np.count_nonzero(rest):
            row, c = np.argwhere(rest)[0]
            raise ArithmeticError(
                f"Burnside sum {totals[row, c]} for {classes[c].canonical}"
                f" is not divisible by {twice_k[c]}"
            )
        return out

    return count


def count_vector(g: Gluing, classes: Sequence[WordClass]) -> dict[WordClass, int]:
    """Z_[w] for the requested classes, in the requested order.

    The one-row call of block_counter, after words.check_classes.
    """
    classes = check_classes(classes)
    counts = block_counter(g.half_count, classes)(g.partner[None])[0]
    return dict(zip(classes, counts.tolist()))


def count_cycles(g: Gluing, m: int) -> SpectrumReport:
    """Every cycle class of length <= m that occurs, with its count."""
    _check_max_length(m)
    classes = enumerate_classes_by_length(m)  # sorted by (length, canonical)
    counts = {c: k for c, k in count_vector(g, classes).items() if k}
    lengths = [c.length for c in counts if not c.parabolic]
    return SpectrumReport(
        half_count=g.half_count,
        max_length=m,
        counts=counts,
        shortest_geodesic_length=min(lengths, default=None),
    )


def _reversal_codes(seq: Sequence[int], base: int) -> list[int]:
    # swap (s, e) -> (e, s) in each code and reverse the order
    return [(c % base) * base + c // base for c in reversed(seq)]


def brute_force_counts(g: Gluing, m: int) -> dict[WordClass, int]:
    """Independent reference counter: full enumeration, explicit orbits."""
    _check_max_length(m)
    n = g.half_count
    base = 6 * n + 1
    partner = g.partner.tolist()
    left, right = _next_arrays(n)
    nxt = {"L": left.tolist(), "R": right.tolist()}

    counts: dict[WordClass, int] = {}
    seen: set[tuple[int, ...]] = set()
    for k in range(1, m + 1):
        for s0 in range(1, 6 * n + 1):
            for word in product("LR", repeat=k):
                s = s0
                codes = []
                for turn in word:
                    e = nxt[turn][s]
                    codes.append(s * base + e)
                    s = partner[e]
                if s != s0:
                    continue
                rev = _reversal_codes(codes, base)
                orbit = [tuple(codes[r:] + codes[:r]) for r in range(k)]
                orbit += [tuple(rev[r:] + rev[:r]) for r in range(k)]
                key = min(orbit)
                if key in seen:
                    continue
                seen.add(key)
                cls = canonicalize("".join(word))
                counts[cls] = counts.get(cls, 0) + 1
    return counts
