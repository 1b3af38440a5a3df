"""Exact joint count laws over every gluing of a small surface.

A uniform gluing of 2N triangles is a uniform labelled cubic ribbon
graph.  Relabelling the triangles and rotating each one inside itself
form a group of order (2N)! * 3^(2N) that preserves every count, and a
connected gluing with a marked root side has no non-trivial symmetry.
So the law needs only the rooted connected gluings:

- _rooted_connected(m) generates each rooted connected gluing of m
  triangles once, in canonical labelling: the smallest open side pairs
  with a larger open side, or with side 1 of a fresh triangle, and a
  branch that closes with fewer than m triangles open is dropped.  Each
  one stands for (m - 1)! * 3^(m - 1) labelled connected gluings.
- Its rows are counted in blocks of gluing.block_rows(m / 2) rows by
  cycles.block_counter, the counter that count_vector and the Monte
  Carlo use as well.
- Counts add over components, so conditioning on the component that
  holds triangle 1 gives the exponential formula
  a_m = sum_j C(m - 1, j - 1) * (c_j conv a_(m - j)) for the count
  vectors a_m of all gluings of m triangles and c_j of the connected
  ones, where conv adds the vectors of every pair of atoms.

There are 5, 60, 1105, 27120 and 828250 rooted connected gluings of 2,
4, 6, 8 and 10 triangles.  On one core of a 2-core Xeon, N <= 3 takes
milliseconds, N = 4 under a second and N = 5 4-7 s, most of it spent
generating the rooted gluings; N = 6 (30220800 rooted gluings, minutes)
is out of range.
"""

from __future__ import annotations

from collections import Counter
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import islice
from math import comb, factorial
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from randsurf.cycles import block_counter
from randsurf.dists import FiniteDistribution, product_poisson_on, tv_distance
from randsurf.gluing import Gluing, block_rows
from randsurf.words import WordClass

MAX_EXACT_N = 5
MAX_ENUMERATED_N = 2  # every gluing one by one: 10395 at N = 2
MAX_EXACT_WORD_LENGTH = 6
DEFAULT_DPS = 60


def matching_count(n: int) -> int:
    """(6N-1)!!, the number of gluings."""
    out = 1
    for odd in range(1, 6 * n, 2):
        out *= odd
    return out


def enumerate_all_gluings(n: int) -> Iterator[Gluing]:
    """Every gluing once, for 1 <= N <= MAX_ENUMERATED_N.

    The smallest unmatched label pairs with each larger one in
    increasing order, and the rest is matched recursively.
    """
    if not 1 <= n <= MAX_ENUMERATED_N:
        raise ValueError(f"enumeration supports 1 <= N <= {MAX_ENUMERATED_N}")

    def rec(free: tuple[int, ...], partner: np.ndarray) -> Iterator[Gluing]:
        if not free:
            yield Gluing._trusted(n, partner.copy())
            return
        first = free[0]
        for i, other in enumerate(free[1:], start=1):
            partner[first], partner[other] = other, first
            yield from rec(free[1:i] + free[i + 1 :], partner)

    yield from rec(tuple(range(1, 6 * n + 1)), np.zeros(6 * n + 1, dtype=np.int64))


def _rooted_connected(m: int) -> Iterator[list[int]]:
    """Partner lists of the rooted connected gluings of m triangles, each once.

    Triangle t opens when the smallest open side is glued to its side
    3t - 2; the root is side 1.  Each list has the dummy slot 0 and is
    a fresh copy.
    """
    partner = [0] * (3 * m + 1)

    def rec(side: int, opened: int) -> Iterator[list[int]]:
        last = 3 * opened
        while side <= last and partner[side]:
            side += 1
        if side > last:  # every open side is glued: the component closed
            if opened == m:
                yield partner.copy()
            return
        for other in range(side + 1, last + 1):
            if not partner[other]:
                partner[side], partner[other] = other, side
                yield from rec(side + 1, opened)
                partner[other] = 0
        if opened < m:
            partner[side], partner[last + 1] = last + 1, side
            yield from rec(side + 1, opened + 1)
            partner[last + 1] = 0
        partner[side] = 0

    yield from rec(1, 1)


def _connected_law(m: int, classes: tuple[WordClass, ...]) -> Counter:
    """Count vectors of the labelled connected gluings of m triangles, with multiplicity."""
    rows = block_rows(m // 2)
    count = block_counter(m // 2, rows, classes)
    law: Counter = Counter()
    gluings = _rooted_connected(m)
    while block := list(islice(gluings, rows)):
        law.update(map(tuple, count(np.array(block)).tolist()))
    labellings = factorial(m - 1) * 3 ** (m - 1)
    return Counter({vec: cnt * labellings for vec, cnt in law.items()})


class ExactSystem(NamedTuple):
    """Exact joint distribution of class counts over all gluings."""

    half_count: int
    gluing_count: int
    classes: tuple[WordClass, ...]
    joint_law: FiniteDistribution
    exact_means: dict[WordClass, Fraction]
    exact_mtv: Decimal  # to the requested number of significant digits


def exact_joint_distribution(
    classes: Sequence[WordClass], n: int, dps: int = DEFAULT_DPS
) -> ExactSystem:
    if not 1 <= n <= MAX_EXACT_N:
        raise ValueError(f"the exact oracle supports 1 <= N <= {MAX_EXACT_N}")
    if not classes:
        raise ValueError("need at least one class")
    if len(set(classes)) != len(classes):  # count vectors are keyed by class
        raise ValueError("duplicate classes")
    if max(c.word_length for c in classes) > MAX_EXACT_WORD_LENGTH:
        raise ValueError(f"exact system limited to words of length {MAX_EXACT_WORD_LENGTH}")
    if dps < 50:
        raise ValueError("use at least 50 digits for the exact distance")

    classes = tuple(classes)
    # components have an even number of triangles; laws[m // 2] is a_m
    laws = [Counter({(0,) * len(classes): 1})]
    connected = []
    for m in range(2, 2 * n + 1, 2):
        connected.append(_connected_law(m, classes))
        law: Counter = Counter()
        for j, component in zip(range(2, m + 1, 2), connected):
            ways = comb(m - 1, j - 1)
            for u, x in component.items():
                for v, y in laws[(m - j) // 2].items():
                    law[tuple(map(sum, zip(u, v)))] += ways * x * y
        laws.append(law)
    law_counts = laws[n]
    total = sum(law_counts.values())
    if total != matching_count(n):
        raise RuntimeError(f"counted {total} gluings, expected {matching_count(n)}")

    joint_law = FiniteDistribution(
        dimension=len(classes),
        atoms={vec: Fraction(cnt, total) for vec, cnt in law_counts.items()},
    )
    reference = product_poisson_on(
        [c.lam for c in classes], joint_law.support(), precision=dps
    )
    with localcontext(Context(prec=dps)):
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
