"""Ground truth by exhaustion over every gluing of a small surface.

For N in {1, 2} the whole sample space (15 and 10395 matchings) can be
walked, which pins down exact joint count laws, exact means, and the
exact total variation to the product Poisson reference.  N = 3 has
34459425 matchings and sits behind an explicit opt-in; on one core of
a 2-core Xeon it takes about 16 s for the classes (LR, LLR) and 32-38 s
for the five classes of trace <= 6.

The gluings are walked in blocks: the pairs of the smallest labels
are fixed one at a time until 10 labels are left, and a block of 945
partner rows fills those from one cached table of matchings.  The
class counts of a whole block come from one step walk over its
stacked step arrays, with the Burnside weights of count_vector.

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
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, Sequence

import mpmath
import numpy as np

from randsurf.bounds import a_k_n, p_k_n
from randsurf.cycles import _burnside_terms, step_walk
from randsurf.dists import FiniteDistribution, product_poisson_on, tv_distance
from randsurf.gluing import Gluing, _next_arrays, next_side, triangle_of
from randsurf.words import WordClass, canonicalize, check_word

MAX_EXHAUSTIVE_N = 3
MAX_EXACT_WORD_LENGTH = 6
DEFAULT_DPS = 60
BLOCK_LABELS = 10  # a block fills the last 10 labels: 945 gluings


def matching_count(n: int) -> int:
    """(6N-1)!!, the number of gluings."""
    out = 1
    for odd in range(1, 6 * n, 2):
        out *= odd
    return out


def _check_exhaustive_n(n: int, allow_heavy: bool) -> None:
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= N <= {MAX_EXHAUSTIVE_N}")
    if n == MAX_EXHAUSTIVE_N and not allow_heavy:
        raise ValueError(
            "N = 3 walks 34459425 gluings, about 35 s on one core for the"
            " trace <= 6 classes; pass allow_heavy=True (CLI: --allow-n3) to opt in"
        )


@lru_cache(maxsize=None)
def _matching_table(m: int) -> np.ndarray:
    """Every perfect matching of the positions 0..m-1, one int8 row each.

    Row r holds the partner position of every position.  Rows come in
    enumeration order: position 0 pairs with each larger position in
    increasing order, and the rest is matched recursively.  Cached and
    shared, hence read-only.
    """
    if m == 0:
        table = np.zeros((1, 0), dtype=np.int8)
    else:
        sub = _matching_table(m - 2)
        parts = []
        for j in range(1, m):
            rest = np.array([i for i in range(1, m) if i != j], dtype=np.int8)
            part = np.empty((len(sub), m), dtype=np.int8)
            part[:, 0] = j
            part[:, j] = 0
            part[:, rest] = rest[sub]
            parts.append(part)
        table = np.concatenate(parts)
    table.setflags(write=False)
    return table


def _gluing_blocks(n: int) -> Iterator[np.ndarray]:
    """Partner arrays of every gluing, as (B, 6N + 1) int8 blocks.

    The pairs of the smallest free labels are fixed one at a time, in
    the enumeration order, until BLOCK_LABELS labels are left; a block
    fills those from the matching table.  Concatenated, the rows list
    every gluing once in the enumeration order.
    """
    size = 6 * n
    tail = min(size, BLOCK_LABELS)
    table = _matching_table(tail)
    head = np.zeros(size + 1, dtype=np.int8)

    def rec(free: tuple[int, ...]) -> Iterator[np.ndarray]:
        if len(free) == tail:
            block = np.empty((len(table), size + 1), dtype=np.int8)
            block[:] = head
            labels = np.array(free, dtype=np.int8)
            block[:, labels] = labels[table]
            yield block
            return
        first, rest = free[0], free[1:]
        for i, other in enumerate(rest):
            head[first], head[other] = other, first
            yield from rec(rest[:i] + rest[i + 1 :])

    yield from rec(tuple(range(1, size + 1)))


def enumerate_all_gluings(n: int, allow_heavy: bool = False) -> Iterator[Gluing]:
    """Every gluing once, in a fixed order.

    The order pairs the smallest unmatched label with each larger
    candidate in increasing order and recurses on the remainder.
    """
    _check_exhaustive_n(n, allow_heavy)
    for block in _gluing_blocks(n):
        for partner in block.astype(np.int64):
            yield Gluing._trusted(n, partner)


def _block_counter(
    n: int, classes: Sequence[WordClass]
) -> Callable[[np.ndarray], np.ndarray]:
    """count_vector of every row of a partner block, as a (B, C) array.

    A block's step arrays are laid out label-major: the step of label s
    in row b sits at the flat index s * B + b.  One step_walk then
    composes every row at once, and the fixed points of a row are a sum
    down one column of the (6N + 1, B) comparison.  The step arrays are
    refilled in place for each block, since fresh arrays of this size
    cost about as much in page faults as the counting itself.
    """
    rows = len(_matching_table(min(6 * n, BLOCK_LABELS)))
    width = 6 * n + 1
    flat = np.arange(width * rows).reshape(width, rows)
    nexts = dict(zip("LR", _next_arrays(n)))
    steps = {turn: np.empty(width * rows, dtype=np.intp) for turn in nexts}

    def count(block: np.ndarray) -> np.ndarray:
        for turn, nxt in nexts.items():
            crossed = steps[turn].reshape(width, rows)
            np.multiply(block.T[nxt], rows, out=crossed, dtype=np.intp)
            crossed += flat[0]
        out = np.empty((rows, len(classes)), dtype=np.int64)
        for i, cls in enumerate(classes):
            total = 0
            for prefix, weight in _burnside_terms(cls.canonical):
                hits = step_walk(steps, prefix).reshape(width, rows) == flat
                # label 0 is a dummy that every step array fixes
                total = total + weight * np.count_nonzero(hits[1:], axis=0)
            total = total * cls.class_size
            twice_k = 2 * cls.word_length
            bad = np.flatnonzero(total % twice_k)
            if bad.size:
                raise ArithmeticError(
                    f"Burnside sum {total[bad[0]]} for {cls.canonical}"
                    f" is not divisible by {twice_k}"
                )
            out[:, i] = total // twice_k
        return out

    return count


def _distinct_rows(counts: np.ndarray) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each distinct row of counts with its multiplicity, by first appearance.

    Rows are keyed by a mixed-radix integer over the column ranges; a
    key that could outgrow int64 is renumbered densely first.
    """
    key = np.zeros(len(counts), dtype=np.int64)
    span = 1
    for column in counts.T:
        radix = int(column.max()) + 1
        if span * radix > 2**62:
            _, key = np.unique(key, return_inverse=True)
            span = len(counts)
        key = key * radix + column
        span *= radix
    _, first, sizes = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    return zip(map(tuple, counts[first[order]].tolist()), sizes[order].tolist())


@dataclass(frozen=True)
class ExactSystem:
    """Exact joint distribution of class counts over all gluings."""

    half_count: int
    gluing_count: int
    classes: tuple[WordClass, ...]
    joint_law: FiniteDistribution
    exact_means: dict[WordClass, Fraction]
    exact_mtv: object  # mpmath float at the requested precision


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
    count = _block_counter(n, classes)
    law_counts: Counter = Counter()
    for block in _gluing_blocks(n):
        # merged in enumeration order, so atoms keep their first appearance
        for vec, cnt in _distinct_rows(count(block)):
            law_counts[vec] += cnt
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
