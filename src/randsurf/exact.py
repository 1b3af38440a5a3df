"""Ground truth by exhaustion over every gluing of a small surface.

For N in {1, 2} the whole sample space (15 and 10395 matchings) can be
walked, which pins down exact joint count laws, exact means, and the
exact total variation to the product Poisson reference.  N = 3 has
34459425 matchings; enumeration supports it behind an explicit
opt-in, expect a long wait.

The representation check compares, for one word w, the exact mean of
the direct class count against the mean predicted by summing
containment probabilities over every side sequence with word w,
scaled by |[w]|/(2|w|).  The two agree whenever no cycle with word w
can coincide with a shifted or reflected copy of itself; proper
powers of shorter words do disagree, and the report quantifies the
gap instead of hiding it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

import mpmath

from randsurf.bounds import a_k_n, p_k_n
from randsurf.cycles import count_vector
from randsurf.dists import FiniteDistribution, product_poisson_on, tv_distance
from randsurf.gluing import Gluing, next_side, triangle_of
from randsurf.words import WordClass, canonicalize, check_word

MAX_EXHAUSTIVE_N = 3
MAX_EXACT_WORD_LENGTH = 6
DEFAULT_DPS = 60


def matching_count(n: int) -> int:
    """(6N-1)!!, the number of gluings."""
    out = 1
    for odd in range(1, 6 * n, 2):
        out *= odd
    return out


def _check_exhaustive_n(n: int, allow_heavy: bool) -> None:
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive enumeration supports N <= {MAX_EXHAUSTIVE_N}")
    if n == MAX_EXHAUSTIVE_N and not allow_heavy:
        raise ValueError(
            "N = 3 walks 34459425 gluings; pass allow_heavy=True"
            " (CLI: --allow-n3) to opt in"
        )


def enumerate_all_gluings(n: int, allow_heavy: bool = False) -> Iterator[Gluing]:
    """Every gluing once, in a fixed order.

    The order pairs the smallest unmatched label with each larger
    candidate in increasing order and recurses on the remainder.
    """
    _check_exhaustive_n(n, allow_heavy)

    def rec(labels: tuple[int, ...], acc: list) -> Iterator[Gluing]:
        if not labels:
            yield Gluing.from_pairs(n, acc)
            return
        first = labels[0]
        rest = labels[1:]
        for i, other in enumerate(rest):
            acc.append((first, other))
            yield from rec(rest[:i] + rest[i + 1 :], acc)
            acc.pop()

    yield from rec(tuple(range(1, 6 * n + 1)), [])


@dataclass(frozen=True)
class ExactSystem:
    """Exact joint distribution of class counts over all gluings."""

    half_count: int
    gluing_count: int
    classes: tuple[WordClass, ...]
    joint_law: FiniteDistribution
    exact_means: dict[WordClass, Fraction]
    exact_mtv: object  # mpmath float at the requested precision

    @property
    def lambdas(self) -> tuple[Fraction, ...]:
        return tuple(c.lam for c in self.classes)


def exact_joint_distribution(
    classes: Sequence[WordClass],
    n: int,
    dps: int = DEFAULT_DPS,
    allow_heavy: bool = False,
) -> ExactSystem:
    _check_exhaustive_n(n, allow_heavy)
    if not classes:
        raise ValueError("need at least one class")
    if len(set(classes)) != len(classes):  # count vectors are keyed by class
        raise ValueError("duplicate classes")
    if max(c.word_length for c in classes) > MAX_EXACT_WORD_LENGTH:
        raise ValueError(f"exact system limited to words of length {MAX_EXACT_WORD_LENGTH}")
    if dps < 50:
        raise ValueError("use at least 50 digits for the exact distance")

    classes = tuple(classes)
    law_counts = Counter(
        tuple(count_vector(g, classes).values())
        for g in enumerate_all_gluings(n, allow_heavy=allow_heavy)
    )
    total = sum(law_counts.values())
    if total != matching_count(n):
        raise RuntimeError(f"walked {total} gluings, expected {matching_count(n)}")

    joint_law = FiniteDistribution(
        dimension=len(classes),
        atoms={vec: Fraction(cnt, total) for vec, cnt in law_counts.items()},
    )
    reference = product_poisson_on(
        [c.lam for c in classes], joint_law.support(), precision=dps
    )
    with mpmath.workdps(dps):
        mtv = tv_distance(joint_law, reference)
    return ExactSystem(
        half_count=n,
        gluing_count=total,
        classes=classes,
        joint_law=joint_law,
        exact_means={
            c: Fraction(sum(vec[i] * cnt for vec, cnt in law_counts.items()), total)
            for i, c in enumerate(classes)
        },
        exact_mtv=mtv,
    )


def containment_probability(alpha_sides: Sequence[int], word: str, n: int) -> Fraction:
    """P[alpha is part of a uniform gluing] for the side sequence alpha.

    alpha is the cycle blueprint visiting the given entry sides with
    the given turns; it lies in a gluing exactly when every exit label
    is matched to the next entry label.  The probability is p_{r,N}
    with r the number of distinct forced pairs, or 0 when two forced
    pairs clash on a label.
    """
    k = len(word)
    if len(alpha_sides) != k:
        raise ValueError("side sequence and word must have equal length")
    forced = set()
    for j in range(k):
        x = next_side(alpha_sides[j], word[j])
        y = alpha_sides[(j + 1) % k]
        if x == y:
            return Fraction(0)
        forced.add((x, y) if x < y else (y, x))
    used: dict[int, tuple[int, int]] = {}
    for pair in forced:
        for label in pair:
            if label in used:
                return Fraction(0)
            used[label] = pair
    return p_k_n(len(forced), n)


@dataclass(frozen=True)
class RepresentationReport:
    word: str
    half_count: int
    word_class: WordClass
    direct_mean: Fraction
    representation_mean: Fraction
    difference: Fraction
    gamma_size: int
    distinct_triangle_count: int
    distinct_triangle_expected: int


def representation_check(word: str, n: int) -> RepresentationReport:
    """Exact mean of the class count vs the containment-sum prediction."""
    check_word(word)
    if not 1 <= n <= 2:
        raise ValueError("representation check runs at N in {1, 2}")
    k = len(word)
    if k > MAX_EXACT_WORD_LENGTH:
        raise ValueError(f"word longer than {MAX_EXACT_WORD_LENGTH}")

    cls = canonicalize(word)
    direct_mean = exact_joint_distribution([cls], n).exact_means[cls]

    prob_sum = Fraction(0)
    by_rank: Counter = Counter()
    distinct = 0
    for sides in product(range(1, 6 * n + 1), repeat=k):
        prob = containment_probability(sides, word, n)
        if len({triangle_of(s) for s in sides}) == k:
            if prob != p_k_n(k, n):
                raise RuntimeError(f"distinct-triangle alpha {sides} must force {k} pairs")
            distinct += 1
        if prob:
            by_rank[prob] += 1
    for prob, cnt in by_rank.items():
        prob_sum += cnt * prob

    rep_mean = cls.lam * prob_sum
    return RepresentationReport(
        word=word,
        half_count=n,
        word_class=cls,
        direct_mean=direct_mean,
        representation_mean=rep_mean,
        difference=direct_mean - rep_mean,
        gamma_size=(6 * n) ** k,
        distinct_triangle_count=distinct,
        distinct_triangle_expected=a_k_n(k, n) if k <= 2 * n else 0,
    )
