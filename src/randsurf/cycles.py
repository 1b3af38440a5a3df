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
fixed-point count.  count_vector is the only counter: it builds the
step arrays of a gluing once and evaluates the formula for every
requested class on them.  count_cycles is one count_vector call.

brute_force_counts enumerates all 6N * 2^k raw sequences and dedupes
them with an explicitly listed orbit per closure.  It is slow, simple
and independent of the formula, and is kept as the reference that
count_vector is tested against.
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


def fixed_point_count(
    steps: Mapping[str, np.ndarray], labels: np.ndarray, word: str
) -> int:
    """Number of sides s with the word-long step walk returning to s.

    steps maps each turn to its step array of one gluing and labels is
    np.arange(6N + 1).  word must be a nonempty word in L and R, such
    as a class's canonical word; it is not checked here.
    """
    f = steps[word[0]]
    for turn in word[1:]:
        f = steps[turn][f]
    # slot 0 is a dummy that every step array fixes
    return int(np.count_nonzero(f == labels)) - 1


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


def count_vector(g: Gluing, classes: Sequence[WordClass]) -> dict[WordClass, int]:
    """Z_[w] for the requested classes, in the requested order.

    Burnside's lemma over step arrays built once for the gluing; a
    primitive class costs one fixed-point count.
    """
    step_l, step_r = step_arrays(g)
    steps = {"L": step_l, "R": step_r}
    labels = np.arange(6 * g.half_count + 1)
    counts = {}
    for cls in classes:
        total = 0
        for prefix, weight in _burnside_terms(cls.canonical):
            total += weight * fixed_point_count(steps, labels, prefix)
        total *= cls.class_size
        twice_k = 2 * cls.word_length
        if total % twice_k:
            raise ArithmeticError(
                f"Burnside sum {total} for {cls.canonical} is not divisible by {twice_k}"
            )
        counts[cls] = total // twice_k
    return counts


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
