import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from randsurf.bounds import a_k_n, p_k_n
from randsurf.cycles import block_counter, brute_force_counts, count_vector
from randsurf.exact import (
    _rooted_connected,
    enumerate_all_gluings,
    exact_joint_distribution,
    matching_count,
)
from randsurf.gluing import Gluing, next_side, topology, triangle_of
from randsurf.words import canonicalize, enumerate_classes_by_length

# every class of length <= 6, proper powers (LL, LRLR, LLLL, LRLRLR, ...) included
ALL_TO_SIX = tuple(enumerate_classes_by_length(6))


def test_matching_counts():
    assert matching_count(1) == 15
    assert matching_count(2) == 10395
    assert matching_count(3) == 34_459_425


def test_enumeration_is_complete_and_distinct():
    seen = {g.pairs() for g in enumerate_all_gluings(1)}
    assert len(seen) == 15
    count = sum(1 for _ in enumerate_all_gluings(2))
    assert count == 10395


def _reference_order(n):
    # the smallest free label pairs with each larger one, then recurse
    def rec(free, acc):
        if not free:
            yield Gluing.from_pairs(n, acc).partner
            return
        for i, other in enumerate(free[1:], start=1):
            yield from rec(free[1:i] + free[i + 1 :], acc + [(free[0], other)])

    return list(rec(tuple(range(1, 6 * n + 1)), []))


@pytest.mark.parametrize("n", [1, 2])
def test_enumeration_follows_the_reference_order(n):
    # from_pairs validates the reference, so every row is a valid gluing
    gluings = list(enumerate_all_gluings(n))
    assert [g.partner.tolist() for g in gluings] == [p.tolist() for p in _reference_order(n)]
    assert all(g.partner.dtype == np.int64 for g in gluings)


def _stacked(n):
    return np.stack([g.partner for g in enumerate_all_gluings(n)])


def _brute_force_row(g, classes):
    ref = brute_force_counts(g, max(c.word_length for c in classes))
    return [ref.get(c, 0) for c in classes]


def test_block_counts_equal_brute_force_on_every_n1_gluing():
    block = _stacked(1)
    got = block_counter(1, len(block), ALL_TO_SIX)(block)
    want = [_brute_force_row(g, ALL_TO_SIX) for g in enumerate_all_gluings(1)]
    assert got.tolist() == want


def test_block_counts_equal_brute_force_on_sampled_n2_gluings():
    rows = _stacked(2)
    blocks = [rows[i : i + 945] for i in range(0, len(rows), 945)]
    count = block_counter(2, 945, ALL_TO_SIX)
    rng = random.Random(11)
    for index in (0, 5, len(blocks) - 1):
        block = blocks[index]
        got = count(block)
        for row in {0, 944, *rng.sample(range(1, 944), 6)}:
            g = Gluing(2, block[row])
            assert got[row].tolist() == _brute_force_row(g, ALL_TO_SIX), (index, row)


@pytest.mark.parametrize("n", [1, 2])
def test_block_counts_equal_count_vector_on_every_small_gluing(n):
    # whole blocks against one-row calls of the same counter: rows never mix
    rows = _stacked(n)
    count = block_counter(n, 945, ALL_TO_SIX)
    got = np.concatenate([count(rows[i : i + 945]) for i in range(0, len(rows), 945)])
    want = [list(count_vector(g, ALL_TO_SIX).values()) for g in enumerate_all_gluings(n)]
    assert got.tolist() == want


def test_block_counts_equal_count_vector_on_sampled_n3_blocks():
    # every rooted connected gluing of 6 triangles, an N = 3 gluing each
    block = np.array(list(_rooted_connected(6)))
    assert block.shape == (1105, 19)
    got = block_counter(3, len(block), ALL_TO_SIX)(block)
    want = [list(count_vector(Gluing(3, p), ALL_TO_SIX).values()) for p in block]
    assert got.tolist() == want


def test_short_blocks_count_only_their_own_rows():
    rows = _stacked(2)
    count = block_counter(2, 945, ALL_TO_SIX)
    full = count(rows[3 * 945 : 4 * 945])
    count(rows[4 * 945 : 5 * 945])  # leaves other rows behind in the counter's arrays
    assert count(rows[3 * 945 : 3 * 945 + 17]).tolist() == full[:17].tolist()
    assert count(rows[4 * 945 - 1 : 4 * 945]).tolist() == full[-1:].tolist()


def test_indivisible_block_sum_raises(lr):
    # a class whose size does not match its word: at N = 1 the Burnside
    # sum of [LR] is 0 or 6 fixed points, and 6 is not divisible by 4
    wrong = replace(lr, class_size=1)
    block = _stacked(1)
    with pytest.raises(ArithmeticError, match="not divisible by 4"):
        block_counter(1, len(block), [wrong])(block)
    with pytest.raises(ArithmeticError):
        exact_joint_distribution([wrong], 1)


def test_rooted_connected_gluings_add_up_to_every_gluing(lr):
    rooted = {m: list(_rooted_connected(m)) for m in (2, 4, 6, 8)}
    assert {m: len(rows) for m, rows in rooted.items()} == {2: 5, 4: 60, 6: 1105, 8: 27120}
    for m, rows in rooted.items():
        assert len(set(map(tuple, rows))) == len(rows)
        for p in rows[:: max(1, len(rows) // 50)]:
            g = Gluing(m // 2, np.array(p))  # validates the involution
            assert topology(g).connected
    # the exponential formula rebuilds (6N - 1)!! gluings from them
    for n in range(1, 5):
        assert exact_joint_distribution([lr], n).gluing_count == matching_count(n)


@pytest.mark.parametrize("n", [1, 2])
def test_joint_law_equals_the_law_of_every_gluing(n):
    system = exact_joint_distribution(ALL_TO_SIX, n)
    law = Counter(tuple(count_vector(g, ALL_TO_SIX).values()) for g in enumerate_all_gluings(n))
    total = matching_count(n)
    assert system.gluing_count == total
    assert system.joint_law.atoms == {vec: Fraction(cnt, total) for vec, cnt in law.items()}


def test_heavy_enumeration_is_gated():
    with pytest.raises(ValueError, match="1 <= N <= 2"):
        next(enumerate_all_gluings(3))
    with pytest.raises(ValueError, match="1 <= N <= 5"):
        exact_joint_distribution([canonicalize("LR")], 6)
    with pytest.raises(ValueError, match="1 <= N <= 5"):
        exact_joint_distribution([canonicalize("LR")], 0)


def test_exact_law_n1(lr):
    system = exact_joint_distribution([lr], 1)
    assert system.gluing_count == 15
    assert system.joint_law.atoms == {(0,): Fraction(4, 5), (3,): Fraction(1, 5)}
    assert system.exact_means[lr] == Fraction(3, 5)
    assert float(system.exact_mtv) == pytest.approx(0.3808332848766867, abs=1e-12)


def test_exact_law_n2(lr, llr):
    system = exact_joint_distribution([lr, llr], 2)
    assert system.gluing_count == 10395
    assert system.exact_means[lr] == Fraction(6, 11)
    assert system.exact_means[llr] == Fraction(72, 77)
    assert sum(system.joint_law.atoms.values()) == 1
    assert float(system.exact_mtv) == pytest.approx(0.34347912544031367, abs=1e-12)
    # marginal law of the first coordinate has mean 6/11 as well
    marg = system.joint_law.marginal(0)
    mean = sum(Fraction(v[0]) * p for v, p in marg.atoms.items())
    assert mean == Fraction(6, 11)


def test_exact_mtv_shrinks_from_n1_to_n2(lr):
    d1 = exact_joint_distribution([lr], 1).exact_mtv
    d2 = exact_joint_distribution([lr], 2).exact_mtv
    assert float(d2) < float(d1)


def test_precision_guard(lr):
    with pytest.raises(ValueError):
        exact_joint_distribution([lr], 1, dps=10)
    with pytest.raises(ValueError, match="duplicate"):
        exact_joint_distribution([lr, lr], 1)


def containment_probability(sides: tuple[int, ...], word: str, n: int) -> Fraction:
    """P[the cycle blueprint (sides, word) lies in a uniform gluing].

    It lies in a gluing exactly when every exit label is matched to the
    next entry label: probability p_{r,N} with r the number of distinct
    forced pairs, or 0 when a forced pair is degenerate or two clash on
    a label.
    """
    forced = set()
    for j, turn in enumerate(word):
        x, y = next_side(sides[j], turn), sides[(j + 1) % len(word)]
        if x == y:
            return Fraction(0)
        forced.add((min(x, y), max(x, y)))
    labels = [label for pair in forced for label in pair]
    if len(set(labels)) < len(labels):
        return Fraction(0)
    return p_k_n(len(forced), n)


def containment_mean(word: str, n: int) -> tuple[Fraction, int]:
    """|[w]|/(2|w|) times the containment sum over all (6N)^k side sequences.

    Also returns how many of those sequences visit k distinct
    triangles, each of which must force k pairs.  This is an
    independent route to the exact mean of Z_[w]; the two agree
    whenever no cycle with word w coincides with a shifted or reflected
    copy of itself, and proper powers disagree.
    """
    k = len(word)
    total = Fraction(0)
    distinct = 0
    for sides in product(range(1, 6 * n + 1), repeat=k):
        prob = containment_probability(sides, word, n)
        if len({triangle_of(s) for s in sides}) == k:
            assert prob == p_k_n(k, n), sides
            distinct += 1
        total += prob
    return canonicalize(word).lam * total, distinct


def exact_mean(word: str, n: int) -> Fraction:
    cls = canonicalize(word)
    return exact_joint_distribution([cls], n).exact_means[cls]


def test_containment_hand_values():
    # repeated side labels can never force a consistent pair set
    assert containment_probability((1, 1), "LR", 1) == 0
    # (1,4) with LR forces the pairs {2,4} and {6,1}: probability p_2
    assert containment_probability((1, 4), "LR", 1) == Fraction(1, 15)
    # (1,2) with LR would force the degenerate pair {2,2}
    assert containment_probability((1, 2), "LR", 1) == 0
    assert containment_probability((1, 5), "LL", 1) == Fraction(1, 15)


def test_representation_identity_for_primitive_words():
    for word, n in (("LR", 1), ("LR", 2), ("LLR", 2), ("LLRR", 1), ("LLRR", 2), ("L", 1)):
        mean, distinct = containment_mean(word, n)
        assert exact_mean(word, n) == mean, (word, n)
        k = len(word)
        assert distinct == (a_k_n(k, n) if k <= 2 * n else 0)


def test_representation_gap_for_proper_powers():
    # the |[w]|/(2|w|) prefactor undercounts symmetric cycles of powers
    assert exact_mean("LL", 1) == Fraction(9, 5)
    assert containment_mean("LL", 1)[0] == Fraction(6, 5)
    assert exact_mean("LL", 2) - containment_mean("LL", 2)[0] == Fraction(6, 11)
    assert exact_mean("LRLR", 1) == Fraction(3, 5)
    assert containment_mean("LRLR", 1)[0] == Fraction(3, 10)


def test_n3_law_of_lr_and_llr(lr, llr):
    systems = {n: exact_joint_distribution([lr, llr], n) for n in (1, 2, 3)}
    n3 = systems[3]
    assert n3.gluing_count == 34_459_425
    # the containment sum over all 18^k side sequences is an independent
    # route to the mean of a primitive class
    for cls in (lr, llr):
        assert n3.exact_means[cls] == containment_mean(cls.canonical, 3)[0]
    assert n3.exact_means == {lr: Fraction(9, 17), llr: Fraction(216, 221)}
    assert float(n3.exact_mtv) == pytest.approx(0.20282895139576498, abs=1e-15)
    mtv = [float(systems[n].exact_mtv) for n in (1, 2, 3)]
    assert mtv == pytest.approx([0.7722212948484779, 0.34347912544031367, 0.20282895139576498])
    assert mtv[0] > mtv[1] > mtv[2]


def test_n4_and_n5_laws_of_lr_and_llr(lr, llr):
    n4, n5 = (exact_joint_distribution([lr, llr], n) for n in (4, 5))
    assert n5.gluing_count == matching_count(5)
    assert n4.exact_means == {lr: Fraction(12, 23), llr: Fraction(432, 437)}
    assert n5.exact_means == {lr: Fraction(15, 29), llr: Fraction(144, 145)}
    assert float(n4.exact_mtv) == pytest.approx(0.0899333934968, abs=1e-12)
    assert float(n5.exact_mtv) == pytest.approx(0.0591077663316, abs=1e-12)
