import random
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from randsurf import exact
from randsurf.cycles import count_vector
from randsurf.exact import (
    _block_counter,
    _distinct_rows,
    _gluing_blocks,
    containment_probability,
    enumerate_all_gluings,
    exact_joint_distribution,
    matching_count,
    representation_check,
)
from randsurf.gluing import Gluing
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


@pytest.mark.parametrize("n, blocks", [(1, 1), (2, 11)])
def test_blocks_list_every_gluing_in_the_enumeration_order(n, blocks):
    listed = list(_gluing_blocks(n))
    assert len(listed) == blocks
    rows = np.concatenate(listed)
    assert rows.dtype == np.int8
    # from_pairs validates the reference, so every row is a valid gluing
    assert rows.tolist() == [p.tolist() for p in _reference_order(n)]
    gluings = list(enumerate_all_gluings(n))
    assert [g.partner.tolist() for g in gluings] == rows.tolist()
    assert all(g.partner.dtype == np.int64 for g in gluings)


@pytest.mark.parametrize("n", [1, 2])
def test_block_counts_equal_count_vector_on_every_small_gluing(n):
    count = _block_counter(n, ALL_TO_SIX)
    got = np.concatenate([count(block) for block in _gluing_blocks(n)])
    want = [list(count_vector(g, ALL_TO_SIX).values()) for g in enumerate_all_gluings(n)]
    assert got.tolist() == want


def test_block_counts_equal_count_vector_on_sampled_n3_blocks():
    blocks = 17 * 15 * 13 * 11
    picked = {0, blocks - 1, *random.Random(3).sample(range(1, blocks - 1), 4)}
    count = _block_counter(3, ALL_TO_SIX)
    seen = 0
    for index, block in enumerate(_gluing_blocks(3)):
        seen += 1
        if index not in picked:
            continue
        assert block.shape == (945, 19)
        want = [list(count_vector(Gluing(3, p.astype(np.int64)), ALL_TO_SIX).values())
                for p in block]
        assert count(block).tolist() == want, index
    assert seen == blocks


def test_indivisible_block_sum_raises(monkeypatch, lr):
    # the block's flat slots are label-major, 15 rows per label at N = 1:
    # fix label 1 of every row and nothing else, so Z_[LR] = 2 * 1 / 4
    def one_fixed_side(steps, word):
        walk = np.zeros(len(steps["L"]), dtype=np.intp)
        walk[15:30] = np.arange(15, 30)
        return walk

    monkeypatch.setattr(exact, "step_walk", one_fixed_side)
    (block,) = _gluing_blocks(1)
    with pytest.raises(ArithmeticError, match="not divisible by 4"):
        _block_counter(1, [lr])(block)
    with pytest.raises(ArithmeticError):
        exact_joint_distribution([lr], 1)


def test_distinct_rows_keep_first_appearance_and_multiplicity():
    rows = np.array([[2, 0], [1, 5], [2, 0], [0, 0], [1, 5], [2, 0]])
    assert list(_distinct_rows(rows)) == [((2, 0), 3), ((1, 5), 2), ((0, 0), 1)]
    # columns whose ranges multiply past int64 take the renumbering path
    rng = np.random.default_rng(0)
    wide = rng.integers(0, 2, size=(500, 90)) * rng.integers(1, 10**6, size=90)
    wide[250:] = wide[:250]
    assert list(_distinct_rows(wide)) == list(Counter(map(tuple, wide.tolist())).items())


def test_heavy_enumeration_is_gated():
    with pytest.raises(ValueError):
        next(enumerate_all_gluings(3))
    with pytest.raises(ValueError):
        exact_joint_distribution([canonicalize("LR")], 3)
    with pytest.raises(ValueError):
        exact_joint_distribution([canonicalize("LR")], 4, allow_heavy=True)
    with pytest.raises(ValueError, match="1 <= N <= 3"):
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
        report = representation_check(word, n)
        assert report.difference == 0, (word, n)
        assert report.gamma_size == (6 * n) ** len(word)
        assert report.distinct_triangle_count == report.distinct_triangle_expected


def test_representation_gap_for_proper_powers():
    # the |[w]|/(2|w|) prefactor undercounts symmetric cycles of powers
    ll_1 = representation_check("LL", 1)
    assert ll_1.direct_mean == Fraction(9, 5)
    assert ll_1.representation_mean == Fraction(6, 5)
    assert ll_1.difference == Fraction(3, 5)

    ll_2 = representation_check("LL", 2)
    assert ll_2.difference == Fraction(6, 11)

    lrlr = representation_check("LRLR", 1)
    assert lrlr.direct_mean == Fraction(3, 5)
    assert lrlr.representation_mean == Fraction(3, 10)
    assert lrlr.difference == Fraction(3, 10)


def test_representation_check_guards():
    with pytest.raises(ValueError):
        representation_check("LR", 3)
    with pytest.raises(ValueError):
        representation_check("LRLRLRL", 1)


@pytest.mark.slow
def test_n3_law_of_lr_and_llr(lr, llr):
    systems = {n: exact_joint_distribution([lr, llr], n, allow_heavy=True) for n in (1, 2, 3)}
    n3 = systems[3]
    assert n3.gluing_count == 34_459_425
    # the containment sum over all 18^k side sequences is an independent
    # route to the mean of a primitive class
    for cls in (lr, llr):
        sides = product(range(1, 19), repeat=cls.word_length)
        total = sum(containment_probability(a, cls.canonical, 3) for a in sides)
        assert n3.exact_means[cls] == cls.lam * total
    assert n3.exact_means == {lr: Fraction(9, 17), llr: Fraction(216, 221)}
    assert float(n3.exact_mtv) == pytest.approx(0.20282895139576498, abs=1e-15)
    mtv = [float(systems[n].exact_mtv) for n in (1, 2, 3)]
    assert mtv == pytest.approx([0.7722212948484779, 0.34347912544031367, 0.20282895139576498])
    assert mtv[0] > mtv[1] > mtv[2]
