import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randsurf.words import (
    MAX_ENUM_LENGTH,
    MAX_TRACE,
    MIN_TRACE,
    WordMatrix,
    canonicalize,
    check_word,
    enumerate_classes_by_length,
    enumerate_classes_by_trace,
    is_primitive,
    matrix_of_word,
    mirror,
    orbit_of_word,
    reverse_swap,
    rotations,
    trace_of_word,
    word_period,
)

words_st = st.text(alphabet="LR", min_size=1, max_size=24)


def test_check_word_rejects_bad_input():
    with pytest.raises(ValueError):
        check_word("")
    with pytest.raises(ValueError):
        check_word("LXR")
    with pytest.raises(ValueError):
        check_word("lr")


def test_generator_matrices():
    assert matrix_of_word("L") == WordMatrix(1, 1, 0, 1)
    assert matrix_of_word("R") == WordMatrix(1, 0, 1, 1)
    # LR = [[2,1],[1,1]]
    assert matrix_of_word("LR") == WordMatrix(2, 1, 1, 1)
    assert trace_of_word("LR") == 3
    assert trace_of_word("LLR") == 4


def test_pure_powers_are_parabolic():
    for m in range(1, 8):
        assert trace_of_word("L" * m) == 2
        assert trace_of_word("R" * m) == 2
        cls = canonicalize("L" * m)
        assert cls.parabolic and cls.length == 0.0


@given(words_st)
def test_matrix_props(word):
    mat = matrix_of_word(word)
    assert mat.a * mat.d - mat.b * mat.c == 1
    assert min(mat.a, mat.b, mat.c, mat.d) >= 0
    assert mat.trace >= 2


@given(words_st.filter(lambda w: "L" in w and "R" in w))
def test_mixed_word_trace_grows_with_length(word):
    # mixed words are hyperbolic with trace at least len + 1
    assert trace_of_word(word) >= len(word) + 1


def test_geodesic_length_golden():
    cls = canonicalize("LR")
    assert not cls.parabolic
    assert cls.length == pytest.approx(2.0 * math.acosh(1.5), abs=1e-14)


def test_length_monotone_in_trace():
    lengths = [canonicalize(w).length for w in ("LR", "LLR", "LLLR")]
    assert lengths == sorted(lengths)
    assert lengths[0] < lengths[1] < lengths[2]


def test_trace_constant_on_classes_up_to_length_12():
    for cls in enumerate_classes_by_length(12):
        for member in orbit_of_word(cls.canonical):
            assert trace_of_word(member) == cls.trace
            assert canonicalize(member) == cls


@given(words_st)
@settings(deadline=None)
def test_canonicalize_invariant_under_orbit_moves(word):
    cls = canonicalize(word)
    assert canonicalize(word[1:] + word[0]) == cls
    assert canonicalize(reverse_swap(word)) == cls
    assert cls.canonical in orbit_of_word(word)
    assert cls.canonical == min(orbit_of_word(word))


@given(words_st)
def test_orbit_size_divides_group_order(word):
    size = len(orbit_of_word(word))
    assert size == canonicalize(word).class_size
    assert (2 * len(word)) % size == 0


@given(words_st)
def test_period_and_primitivity(word):
    p = word_period(word)
    assert len(word) % p == 0
    assert word == word[:p] * (len(word) // p)
    assert is_primitive(word) == (p == len(word))


def test_mirror_is_an_involution_on_classes():
    for cls in enumerate_classes_by_length(8):
        assert cls.mirror_class().mirror_class() == cls
        assert cls.mirror_class().trace == cls.trace
    assert mirror("LLR") == "RRL"


def test_census_by_length_small():
    classes = enumerate_classes_by_length(2)
    assert [c.canonical for c in classes] == ["L", "LL", "LR"]
    lams = {c.canonical: c.lam for c in classes}
    assert lams == {"L": Fraction(1), "LL": Fraction(1, 2), "LR": Fraction(1, 2)}


def test_census_matches_direct_scan_up_to_length_10():
    by_enum = {c.canonical for c in enumerate_classes_by_length(10)}
    seen = set()
    for m in range(1, 11):
        for bits in range(2**m):
            word = "".join("LR"[(bits >> i) & 1] for i in range(m))
            seen.add(canonicalize(word).canonical)
    assert by_enum == seen


def test_trace_census_facts():
    w3 = enumerate_classes_by_trace(3)
    w4 = enumerate_classes_by_trace(4)
    w5 = enumerate_classes_by_trace(5)
    w6 = enumerate_classes_by_trace(6)
    assert w3.canonical_words == ("LR",)
    assert w4.canonical_words == ("LR", "LLR")
    assert w5.count == 3
    assert w6.count == 5
    # parabolic classes never enter the census
    assert all(not c.parabolic for c in w6.classes)
    assert all(c.trace >= 3 for c in w6.classes)


def test_census_growth_is_monotone():
    counts = [enumerate_classes_by_trace(k).count for k in range(3, 16)]
    assert counts == sorted(counts)
    assert counts[0] == 1


def test_pruned_trace_census_equals_the_length_census_filtered_by_trace():
    for k in range(MIN_TRACE, 17):
        by_length = enumerate_classes_by_length(k - 1)
        want = tuple(c for c in by_length if MIN_TRACE <= c.trace <= k)
        assert enumerate_classes_by_trace(k).classes == want, k


def test_census_at_the_largest_trace():
    census = enumerate_classes_by_trace(MAX_TRACE)
    assert MAX_TRACE == 25
    assert census.count == 59
    assert census.max_word_length == 24  # L^23 R, trace 25
    assert all(3 <= c.trace <= 25 for c in census.classes)


def test_enumeration_guards():
    # the censuses are cached; a refused bound is refused on every call
    for _ in range(2):
        for m in (0, MAX_ENUM_LENGTH + 1):
            with pytest.raises(ValueError):
                enumerate_classes_by_length(m)
        for k in (MIN_TRACE - 1, MAX_TRACE + 1):
            with pytest.raises(ValueError):
                enumerate_classes_by_trace(k)
    # a float bound fails as it would uncached, not as the cached int it equals
    enumerate_classes_by_trace(4)
    enumerate_classes_by_length(4)
    with pytest.raises(TypeError):
        enumerate_classes_by_trace(4.0)
    with pytest.raises(TypeError):
        enumerate_classes_by_length(4.0)


@pytest.mark.parametrize("k", [MIN_TRACE, 7, MAX_TRACE])
def test_a_repeated_trace_census_is_the_same_frozen_object(k):
    census = enumerate_classes_by_trace(k)
    assert enumerate_classes_by_trace(k) is census
    assert type(census.classes) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        census.classes = ()


@pytest.mark.parametrize("m", [1, 6, 12])
def test_a_repeated_length_census_is_the_same_tuple(m):
    classes = enumerate_classes_by_length(m)
    assert type(classes) is tuple
    assert enumerate_classes_by_length(m) is classes


def test_class_ordering_and_lambda():
    lr = canonicalize("LR")
    llr = canonicalize("LLR")
    assert lr < llr  # ordered by (length, canonical)
    assert lr.lam == Fraction(2, 4)
    assert llr.lam == Fraction(6, 6)
    assert llr.class_size == 6
