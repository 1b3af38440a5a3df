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
class counts of a whole block come from cycles.block_counter, built
once with 945 rows, the counter that count_vector and the Monte Carlo
use as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import mpmath
import numpy as np

from randsurf.cycles import block_counter
from randsurf.dists import FiniteDistribution, product_poisson_on, tv_distance
from randsurf.gluing import Gluing
from randsurf.words import WordClass

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
    count = block_counter(n, len(_matching_table(min(6 * n, BLOCK_LABELS))), classes)
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
