from fractions import Fraction

import pytest

from randsurf.exact import (
    containment_probability,
    enumerate_all_gluings,
    exact_joint_distribution,
    matching_count,
    representation_check,
)
from randsurf.words import canonicalize


def test_matching_counts():
    assert matching_count(1) == 15
    assert matching_count(2) == 10395
    assert matching_count(3) == 34_459_425


def test_enumeration_is_complete_and_distinct():
    seen = {g.pairs() for g in enumerate_all_gluings(1)}
    assert len(seen) == 15
    count = sum(1 for _ in enumerate_all_gluings(2))
    assert count == 10395


def test_heavy_enumeration_is_gated():
    with pytest.raises(ValueError):
        next(enumerate_all_gluings(3))
    with pytest.raises(ValueError):
        exact_joint_distribution([canonicalize("LR")], 3)
    with pytest.raises(ValueError):
        exact_joint_distribution([canonicalize("LR")], 4, allow_heavy=True)


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
