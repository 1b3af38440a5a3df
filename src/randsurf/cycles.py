"""Counting closed traversal cycles of a gluing, grouped by word class.

A traversal cycle of length k is a cyclically closed sequence of
(side, turn) steps: from side s_j we exit through e_j =
next_side(s_j, turn_j) and enter s_{j+1} = partner(e_j).  Its word is
the turn sequence.  Two cycles are the same when one is a cyclic
rotation of the other's (entry, exit) pair sequence, or of its
reversal (pairs reversed in order and swapped componentwise, which
flips every turn).  The count Z_[w] is the number of cycle classes
whose word lies in the word class [w].

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
fixed-point count.  class_count evaluates the formula, and
count_vector and count_cycles are built on it.

brute_force_counts enumerates all 6N * 2^k raw sequences and dedupes
them with an explicitly listed orbit per closure.  It is slow, simple
and independent of the formula, and is kept as the reference that
class_count is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from randsurf.gluing import Gluing, step_arrays, _next_arrays
from randsurf.words import (
    WordClass,
    canonicalize,
    enumerate_classes_by_length,
    word_period,
)

MAX_CYCLE_LENGTH = 16


def _check_max_length(m: int) -> None:
    if not 1 <= m <= MAX_CYCLE_LENGTH:
        raise ValueError(f"max cycle length must be in 1..{MAX_CYCLE_LENGTH}, got {m}")


@dataclass(frozen=True)
class SpectrumReport:
    """Cycle class counts of one gluing up to a length cap."""

    half_count: int
    max_length: int
    counts: Mapping[WordClass, int]
    shortest_geodesic_length: float | None

    def count_of(self, word: str) -> int:
        return self.counts.get(canonicalize(word), 0)


@lru_cache(maxsize=64)
def _next_lists(n: int) -> dict[str, list[int]]:
    """_next_arrays as lists keyed by turn, for the pure-python walks."""
    left, right = _next_arrays(n)
    return {"L": left.tolist(), "R": right.tolist()}


def fixed_point_count(g: Gluing, word: str) -> int:
    """Number of sides s with the word-long step walk returning to s.

    word must be a nonempty word in L and R, such as a class's
    canonical word; it is not checked here.
    """
    size = 6 * g.half_count
    if size <= 48:
        # pure python beats numpy on small gluings
        partner = g.partner.tolist()
        nxt = _next_lists(g.half_count)
        fix = 0
        for s0 in range(1, size + 1):
            s = s0
            for turn in word:
                s = partner[nxt[turn][s]]
            if s == s0:
                fix += 1
        return fix
    step_l, step_r = step_arrays(g)
    f = np.arange(size + 1)
    for turn in word:
        f = (step_l if turn == "L" else step_r)[f]
    return int(np.count_nonzero(f[1:] == np.arange(1, size + 1)))


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


def class_count(g: Gluing, cls: WordClass) -> int:
    """Z_[w] through Burnside's lemma; one fixed-point count if w is primitive."""
    total = 0
    for prefix, weight in _burnside_terms(cls.canonical):
        total += weight * fixed_point_count(g, prefix)
    total *= cls.class_size
    twice_k = 2 * cls.word_length
    if total % twice_k:
        raise ArithmeticError(
            f"Burnside sum {total} for {cls.canonical} is not divisible by {twice_k}"
        )
    return total // twice_k


def count_vector(g: Gluing, classes: Sequence[WordClass]) -> dict[WordClass, int]:
    """Counts for the requested classes, in the requested order."""
    return {c: class_count(g, c) for c in classes}


def count_cycles(g: Gluing, m: int) -> SpectrumReport:
    """Every cycle class of length <= m that occurs, with its count."""
    _check_max_length(m)
    counts = {}
    for c in enumerate_classes_by_length(m):  # sorted by (length, canonical)
        k = class_count(g, c)
        if k:
            counts[c] = k
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
    nxt = _next_lists(n)

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
